"""Fractional Adams-Bashforth-Moulton PECE integration of Caputo systems.

Solves ``D^a x = f(t, x)`` (Caputo derivative, 0 < a <= 1) through the
equivalent Volterra form ``x(t) = x(0) + (1/Gamma(a)) * integral of
(t-s)^(a-1) f(s, x(s)) ds`` on a uniform grid: the predictor integrates the
kernel against piecewise-constant history (fractional forward rule), the
corrector against the piecewise-linear interpolant (product trapezoid), with
the classic predict-evaluate-correct-evaluate sweep per step.  For a = 1 the
weights degenerate to the classical rectangle/trapezoid Adams pair.

The memory term makes a single solve inherently sequential.  Its history sums
are split as in Hairer, Lubich & Schlichte (SIAM J. Sci. Stat. Comput. 6,
1985): blocks of ``_LEAF`` nodes are summed directly, and once a block of
nodes is solved its whole contribution to the next block of equal length is
added with one real-FFT convolution per weight table.  That makes a solve of
n nodes cost O(n log^2 n) instead of O(n^2); a run of at most ``_LEAF``
nodes is the plain direct sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "DivergenceError",
    "FodeProblem",
    "SolverConfig",
    "Trajectory",
    "abm_weights",
    "solve_pece",
]

DIVERGENCE_LIMIT = 1e12  # component magnitude treated as blow-up
DEFAULT_NODE_CAP = 2_000_000
GRID_TOL = 1e-9  # relative distance of (t_end - t0)/step from an integer

_LEAF = 128  # nodes summed directly; a power of two
_FFT_CAP = 1 << 13  # longest transform; longer blocks are split into chunk pairs


class DivergenceError(RuntimeError):
    """Raised when the computed solution blows up or turns non-finite."""

    def __init__(self, node: int, time: float, state: np.ndarray):
        self.node = node
        self.time = time
        self.state = state
        super().__init__(
            f"solution diverged at node {node} (t = {time:g}): state = {state}"
        )


@dataclass(frozen=True)
class FodeProblem:
    """Caputo initial value problem of commensurate order in (0, 1]."""

    order: float
    initial_state: np.ndarray
    rhs: Callable[[float, np.ndarray], np.ndarray]
    t0: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.order <= 1.0):
            raise ValueError(f"order must lie in (0,1], got {self.order}")
        state = np.atleast_1d(np.asarray(self.initial_state, dtype=float))
        if state.ndim != 1 or state.size == 0:
            raise ValueError("initial_state must be a non-empty vector")
        if not np.all(np.isfinite(state)):
            raise ValueError(f"initial_state must be finite, got {state}")
        if not (math.isfinite(self.t0) and self.t0 >= 0.0):
            raise ValueError(f"t0 must be finite and non-negative, got {self.t0}")
        object.__setattr__(self, "initial_state", state)

    @property
    def dimension(self) -> int:
        return self.initial_state.size


@dataclass(frozen=True)
class SolverConfig:
    """Uniform-grid settings for :func:`solve_pece`; ``t_end`` must lie on the grid."""

    step: float
    t_end: float
    corrector_iterations: int = 1
    node_cap: int = DEFAULT_NODE_CAP

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be positive, got {self.step}")
        if not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        if self.corrector_iterations < 1:
            raise ValueError("corrector_iterations must be a positive integer")
        if self.node_cap < 1:
            raise ValueError("node_cap must be positive")

    def node_count(self, t0: float) -> int:
        """Number of steps from t0; rejects off-grid spans and spans beyond the node cap."""
        span = self.t_end - t0
        if span < 0.0:
            raise ValueError(f"t_end = {self.t_end} lies before t0 = {t0}")
        ratio = span / self.step
        steps = int(round(ratio))
        if abs(ratio - steps) > GRID_TOL * max(ratio, 1.0):
            raise ValueError(
                f"t_end = {self.t_end} is not on the grid of step {self.step} "
                f"from t0 = {t0}: the span holds {ratio!r} steps"
            )
        if steps > self.node_cap:
            raise ValueError(
                f"{steps} nodes exceed the configured cap of {self.node_cap}"
            )
        return steps


@dataclass(frozen=True)
class Trajectory:
    """Grid solution: times (n+1,), states (n+1, dim), row 0 = initial state."""

    times: np.ndarray
    states: np.ndarray
    order: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times.setflags(write=False)
        self.states.setflags(write=False)

    @property
    def step(self) -> float:
        return float(self.metadata.get("step", np.nan))

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _lag_tables(order: float, step: float, size: int):
    """Weight tables for lags (and nodes) 0..size-1, shared by every step.

    ``w[m]`` multiplies f(t_{k-m}) in the predictor sum for node k,
    ``d[m]`` multiplies f(t_{k-m}) (1 <= m < k) in the corrector sum and
    ``c0[k]`` multiplies f(t_0) there; the corrector tables still lack the
    h^a/Gamma(a+2) scale.  Entries at index 0 are never used and are zero.
    """
    a = order
    grid = np.arange(size + 1, dtype=float)
    pow_a = grid**a
    pow_a1 = grid ** (a + 1.0)
    w = np.zeros(size)
    w[1:] = (step**a / a) * (pow_a[1:size] - pow_a[: size - 1])
    d = np.zeros(size)
    d[1:] = pow_a1[2:] + pow_a1[: size - 1] - 2.0 * pow_a1[1:size]
    c0 = np.zeros(size)
    c0[1:] = pow_a1[: size - 1] - (grid[: size - 1] - a) * pow_a[1:size]
    return w, d, c0


def abm_weights(order: float, n: int, step: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Corrector and predictor weights for the step onto node n+1.

    Returns ``(corrector, predictor)`` where ``predictor[j] =
    (h^a/a)*((n+1-j)^a - (n-j)^a)`` multiplies f(t_j) inside the 1/Gamma(a)
    predictor sum (j = 0..n), and ``corrector[j]`` (j = 0..n+1) is the
    product-trapezoid weight including its h^a/Gamma(a+2) normalization.
    Both quadratures integrate a constant exactly:
    sum(predictor) = h^a (n+1)^a / a and
    sum(corrector) = h^a (n+1)^a (a+1) / Gamma(a+2).
    These are the tables :func:`solve_pece` uses, read for one step.
    """
    if not (0.0 < order <= 1.0):
        raise ValueError(f"order must lie in (0,1], got {order}")
    if n < 0:
        raise ValueError(f"node index must be non-negative, got {n}")
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    w, d, c0 = _lag_tables(order, step, n + 2)
    predictor = w[n + 1 : 0 : -1].copy()
    corrector = np.empty(n + 2)
    corrector[0] = c0[n + 1]
    corrector[1 : n + 1] = d[n:0:-1]
    corrector[n + 1] = 1.0
    corrector *= step**order / math.gamma(order + 2)
    return corrector, predictor


def solve_pece(problem: FodeProblem, config: SolverConfig) -> Trajectory:
    """Integrate a Caputo problem on the uniform grid defined by config.

    Raises :class:`DivergenceError` as soon as a corrected state exceeds
    ``DIVERGENCE_LIMIT`` in magnitude or turns non-finite.  States are not
    clipped in any way; slightly negative population values near zero are
    reported as computed so that downstream checks can judge them.
    """
    a = problem.order
    h = config.step
    n_steps = config.node_count(problem.t0)
    times = problem.t0 + h * np.arange(n_steps + 1)

    # until node k is solved, states[k] and rhs_values[k] hold the pending
    # predictor and corrector history sums of the nodes before its block
    states = np.zeros((n_steps + 1, problem.dimension))
    rhs_values = np.zeros((n_steps + 1, problem.dimension))
    states[0] = problem.initial_state
    rhs_values[0] = _eval_rhs(problem.rhs, times[0], states[0])

    w, d, c0 = _lag_tables(a, h, n_steps + 1)
    np.multiply(c0[1:, None], rhs_values[0], out=rhs_values[1:])  # node 0's corrector term
    del c0  # one table less held through the solve
    # in-block lag tables, reversed so that each per-step dot runs on
    # contiguous slices: leaf_w[-m:] lines up with rhs_values[k-m:k]
    leaf_w = np.ascontiguousarray(w[1:_LEAF][::-1])
    leaf_d = np.ascontiguousarray(d[1:_LEAF][::-1])
    spectra: dict = {}  # kernel spectra of this solve, by block length

    inv_gamma_a = 1.0 / math.gamma(a)
    corr_scale = h**a / math.gamma(a + 2.0)
    iterations = config.corrector_iterations
    y0 = states[0]
    rhs_fn = problem.rhs
    n_leaf = len(leaf_w)

    for start in range(0, n_steps + 1, _LEAF):
        stop = min(start + _LEAF, n_steps + 1)
        first_c = max(start, 1)  # node 0 enters the corrector through c0
        for k in range(first_c, stop):
            t_next = times[k]
            # predictor: fractional rectangle rule over the whole history
            hist = states[k] + np.dot(leaf_w[n_leaf - (k - start) :], rhs_values[start:k])
            predicted = y0 + inv_gamma_a * hist

            # corrector history: hat-function weights
            hist_c = rhs_values[k] + np.dot(
                leaf_d[n_leaf - (k - first_c) :], rhs_values[first_c:k]
            )

            f_new = np.asarray(rhs_fn(t_next, predicted), dtype=float)
            for _ in range(iterations):
                corrected = y0 + corr_scale * (hist_c + f_new)
                f_new = np.asarray(rhs_fn(t_next, corrected), dtype=float)

            if not abs(corrected).max() <= DIVERGENCE_LIMIT:  # also catches NaN
                raise DivergenceError(k, float(t_next), corrected)
            states[k] = corrected
            rhs_values[k] = f_new
        if stop <= n_steps:
            # nodes [stop - size, stop) close a left half of length size
            _add_block_history(states, rhs_values, w, d, spectra, stop, stop & -stop)

    metadata = {
        "step": h,
        "t0": problem.t0,
        "t_end": float(times[-1]),
        "corrector_iterations": config.corrector_iterations,
    }
    return Trajectory(times=times, states=states, order=a, metadata=metadata)


def _add_block_history(states, rhs_values, w, d, spectra, end, size):
    """Add the memory of nodes [end - size, end) to the pending sums of [end, end + size).

    Rows before ``end`` are solved; from ``end`` on, ``states`` holds the
    pending predictor sums and ``rhs_values`` the pending corrector sums.

    Source chunk [j0, j0 + chunk) reaches target chunk [k0, k0 + chunk)
    through the lags k0 - j0 - chunk + 1 .. k0 - j0 + chunk - 1, so one
    circular convolution of length 2*chunk gives the target sums in its
    rows chunk-1 .. 2*chunk-2 without wrap-around.  Blocks longer than half
    of ``_FFT_CAP`` are split into chunk pairs, so no transform is longer.
    """
    from numpy.fft import irfft, rfft

    chunk = min(size, _FFT_CAP // 2)
    length = 2 * chunk
    top = min(end + size, len(rhs_values))
    for k0 in range(end, top, chunk):
        k1 = min(k0 + chunk, top)
        acc_w = acc_d = 0.0
        for j0 in range(end - size, end, chunk):
            lag = k0 - j0
            kernels = spectra.get(lag)
            if kernels is None:
                lags = slice(lag - chunk + 1, lag + chunk)
                kernels = rfft(w[lags], length)[:, None], rfft(d[lags], length)[:, None]
                if lag == chunk:  # cache only unsplit blocks: at most ~_FFT_CAP values
                    spectra[lag] = kernels
            source = rhs_values[j0 : j0 + chunk]
            spec_w = rfft(source, length, axis=0)
            if j0 == 0:
                source = source.copy()
                source[0] = 0.0  # node 0 enters the corrector through c0
                spec_d = rfft(source, length, axis=0)
            else:
                spec_d = spec_w
            acc_w = acc_w + kernels[0] * spec_w
            acc_d = acc_d + kernels[1] * spec_d
        rows = slice(chunk - 1, chunk - 1 + k1 - k0)
        states[k0:k1] += irfft(acc_w, length, axis=0)[rows]
        rhs_values[k0:k1] += irfft(acc_d, length, axis=0)[rows]


def _eval_rhs(rhs, t, y):
    value = np.asarray(rhs(t, y), dtype=float)
    if value.shape != y.shape:
        raise ValueError(
            f"rhs returned shape {value.shape}, expected {y.shape}"
        )
    return value
