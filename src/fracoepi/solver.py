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
added with one real-FFT convolution per weight table.  While every block fits
one ``_FFT_CAP``-point transform (up to 8192 nodes) the memory term costs
O(n log^2 n) instead of O(n^2); a run of at most ``_LEAF`` nodes is the plain
direct sum.  A longer block of S nodes runs (S/4096)^2 chunk pairs, each of
which transforms its source chunk again (and its kernel too, unless the lag
equals the chunk length), so past 8192 nodes that part grows as n^2/4096:
0.008, 0.08 and 1.15 s of 20k-, 60k- and 240k-node solves at order 0.95.

Besides the trajectory's own state rows, a solve of N nodes and d components
holds the evaluated right-hand sides (d·(N + 1) doubles, 3(N + 1) for the
model) and two weight tables (2(N + 1)), plus transform buffers bounded by
``_FFT_CAP``.  It releases them before it fetches its time grid, and every
live trajectory on one grid (same step and node count) shares one read-only
times array, so a run holding many trajectories stores their times once.

What remains is Python work per node: two short dot products, two RHS
calls, the state updates and the divergence check.  The dots stay numpy; the
arithmetic around them (predictor, corrector, divergence check) runs on
Python floats, with the operations of the array form in the same order, so
every state is bit-identical and a step of a few components avoids the ufunc
overhead of small arrays.  A leaf reads its pending sums and times as lists
once and stores its corrected rows with one assignment.  The RHS is called on
lists as well: the model's vector field carries a float form
(``model._field``) that the loop calls directly, and any other field is
wrapped once in an adapter that passes it a fresh array and checks the shape
of its value at every evaluation.  A 60 000-node solve of the model costs
about 7.5 us per node (0.45 s, best of 15 on a shared 2-core Xeon VM),
against 10.3 us (0.62 s) when the same field goes through the adapter; each
of five alternating runs of 3 + 3 solves put the ratio at 0.66-0.73.
"""

from __future__ import annotations

import math
import numbers
import weakref
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
NODE_CAP = 2_000_000  # most nodes one solve may allocate
GRID_TOL = 1e-9  # relative distance of t_end/step from an integer

_LEAF = 128  # nodes summed directly; a power of two
_FFT_CAP = 1 << 13  # longest transform; longer blocks are split into chunk pairs

# read-only node times by (step type, step, node count), shared by every live
# trajectory on that grid; an entry goes with the last array or view holding it
_GRIDS = weakref.WeakValueDictionary()


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
    """Caputo initial value problem of commensurate order in (0, 1], started at t = 0."""

    order: float
    initial_state: np.ndarray
    rhs: Callable[[float, np.ndarray], np.ndarray]

    def __post_init__(self):
        if not (0.0 < self.order <= 1.0):
            raise ValueError(f"order must lie in (0,1], got {self.order}")
        state = np.atleast_1d(np.asarray(self.initial_state, dtype=float))
        if state.ndim != 1 or state.size == 0:
            raise ValueError("initial_state must be a non-empty vector")
        if not np.all(np.isfinite(state)):
            raise ValueError(f"initial_state must be finite, got {state}")
        object.__setattr__(self, "initial_state", state)

    @property
    def dimension(self) -> int:
        return self.initial_state.size


@dataclass(frozen=True)
class SolverConfig:
    """Uniform-grid settings for :func:`solve_pece`; ``t_end`` must lie on the grid."""

    step: float
    t_end: float

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be positive, got {self.step}")
        if not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite")

    def node_count(self) -> int:
        """Number of steps from t = 0; rejects off-grid spans and spans beyond the node cap."""
        if self.t_end < 0.0:
            raise ValueError(f"t_end = {self.t_end} lies before t = 0")
        ratio = self.t_end / self.step
        steps = int(round(ratio))
        if abs(ratio - steps) > GRID_TOL * max(ratio, 1.0):
            raise ValueError(
                f"t_end = {self.t_end} is not on the grid of step {self.step} "
                f"from t = 0: the span holds {ratio!r} steps"
            )
        if steps > NODE_CAP:
            raise ValueError(f"{steps} nodes exceed the cap of {NODE_CAP}")
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
    # built in place, in an order that frees each input once it is used, with
    # the operations of (step^a/a)*(pow_a[m] - pow_a[m-1]),
    # pow_a1[k-1] - (k-1 - a)*pow_a[k] and (pow_a1[m+1] + pow_a1[m-1]) -
    # 2*pow_a1[m]: the same bits as those expressions, without temporaries
    w = np.zeros(size)
    np.subtract(pow_a[1:size], pow_a[: size - 1], out=w[1:])
    w[1:] *= step**a / a
    c0 = np.zeros(size)
    shifted = grid[: size - 1]
    shifted -= a
    shifted *= pow_a[1:size]
    np.subtract(pow_a1[: size - 1], shifted, out=c0[1:])
    del grid, pow_a, shifted
    d = np.zeros(size)
    np.add(pow_a1[2:], pow_a1[: size - 1], out=d[1:])
    pow_a1 *= 2.0
    d[1:] -= pow_a1[1:size]
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
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"node index n must be a non-negative integer, got {n!r}")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step}")
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
    n_steps = config.node_count()

    # until node k is solved, states[k] and rhs_values[k] hold the pending
    # predictor and corrector history sums of the nodes before its block
    shape = problem.initial_state.shape
    states = np.zeros((n_steps + 1, problem.dimension))
    rhs_values = np.zeros((n_steps + 1, problem.dimension))
    states[0] = problem.initial_state
    f0 = np.asarray(problem.rhs(0.0, states[0]), dtype=float)
    if f0.shape != shape:
        raise _shape_error(f0.shape, shape, 0)
    rhs_values[0] = f0

    w, d, c0 = _lag_tables(a, h, n_steps + 1)
    np.multiply(c0[1:, None], rhs_values[0], out=rhs_values[1:])  # node 0's corrector term
    del c0  # one table less held through the solve
    # in-block lag tables, reversed so that each per-step dot runs on
    # contiguous slices: leaf_w[-m:] lines up with rhs_values[k-m:k]; the
    # views for every lag m are made once
    leaf_w = np.ascontiguousarray(w[1:_LEAF][::-1])
    leaf_d = np.ascontiguousarray(d[1:_LEAF][::-1])
    n_leaf = len(leaf_w)
    w_lag = [leaf_w[n_leaf - m :] for m in range(n_leaf + 1)]
    d_lag = [leaf_d[n_leaf - m :] for m in range(n_leaf + 1)]
    spectra: dict = {}  # kernel spectra of this solve, by block length

    inv_gamma_a = 1.0 / math.gamma(a)
    corr_scale = h**a / math.gamma(a + 2.0)
    y0 = problem.initial_state.tolist()
    rhs_fn = _list_field(problem.rhs, shape)
    limit = DIVERGENCE_LIMIT
    dot = np.dot

    # step arithmetic on Python floats, in the array form's operation order
    # (module docstring); the RHS gets and returns lists
    try:
        for start in range(0, n_steps + 1, _LEAF):
            stop = min(start + _LEAF, n_steps + 1)
            first_c = max(start, 1)  # node 0 enters the corrector through c0
            pending = states[first_c:stop].tolist()
            pending_c = rhs_values[first_c:stop].tolist()
            rows = []
            for k, t_next, pend, pend_c in zip(
                range(first_c, stop), (h * np.arange(first_c, stop)).tolist(), pending, pending_c
            ):
                # predictor: fractional rectangle rule over the whole history
                dw = dot(w_lag[k - start], rhs_values[start:k]).tolist()
                predicted = [y + inv_gamma_a * (p + q) for y, p, q in zip(y0, pend, dw)]
                # corrector history: hat-function weights
                dd = dot(d_lag[k - first_c], rhs_values[first_c:k]).tolist()

                f_new = rhs_fn(t_next, predicted)
                corrected = [
                    y + corr_scale * ((p + q) + f) for y, p, q, f in zip(y0, pend_c, dd, f_new)
                ]
                f_new = rhs_fn(t_next, corrected)

                for value in corrected:
                    if not abs(value) <= limit:  # also catches NaN
                        raise DivergenceError(k, t_next, np.array(corrected))
                rows.append(corrected)
                rhs_values[k] = f_new
            if rows:  # the one leaf of a zero-length run holds no node to solve
                states[first_c:stop] = rows
            if stop <= n_steps:
                # nodes [stop - size, stop) close a left half of length size
                _add_block_history(states, rhs_values, w, d, spectra, stop, stop & -stop)
    except _ShapeMismatch as exc:
        raise _shape_error(exc.args[0], shape, k) from None

    # the grid comes last, once the history and the tables are gone: a solve's
    # memory peaks here, as its state rows are only touched as it advances
    del rhs_values, w, d, spectra
    times = _grid(h, n_steps)
    metadata = {"step": h, "t_end": float(times[-1])}
    return Trajectory(times=times, states=states, order=a, metadata=metadata)


def _grid(step, n_steps: int) -> np.ndarray:
    """The read-only ``step * np.arange(n_steps + 1)``, one array per live grid."""
    key = (type(step), step, n_steps)  # an int step gives integer times
    times = _GRIDS.get(key)  # two threads racing here build two equal grids
    if times is None:
        times = step * np.arange(n_steps + 1)
        times.setflags(write=False)
        _GRIDS[key] = times
    return times


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
        acc_w = acc_d = None
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
            # kernel x spectrum in that operand order: the swapped product
            # differs in the last bits; spec_w is read before spec_d may reuse it
            prod_w = kernels[0] * spec_w
            prod_d = np.multiply(kernels[1], spec_d, out=spec_d)
            if acc_w is None:
                acc_w, acc_d = prod_w, prod_d
            else:
                acc_w += prod_w
                acc_d += prod_d
        rows = slice(chunk - 1, chunk - 1 + k1 - k0)
        states[k0:k1] += irfft(acc_w, length, axis=0)[rows]
        rhs_values[k0:k1] += irfft(acc_d, length, axis=0)[rows]


class _ShapeMismatch(Exception):
    """An RHS value of the wrong shape; the step loop adds the node."""


def _list_field(rhs, shape):
    """``rhs`` on the step loop's lists: list of floats in, list of floats out.

    A field that carries a ``float_form`` (the model's, see
    ``model._field``) gives it, which must compute what ``rhs`` does.  Any
    other field is wrapped: its state is passed as a fresh array and its
    value checked for ``shape`` at every evaluation.
    """
    float_form = getattr(rhs, "float_form", None)
    if float_form is not None:
        return float_form
    array, asarray = np.array, np.asarray

    def adapter(t, y):
        value = asarray(rhs(t, array(y)), dtype=float)
        if value.shape != shape:
            raise _ShapeMismatch(value.shape)
        return value.tolist()

    return adapter


def _shape_error(got, expected, node):
    return ValueError(f"rhs returned shape {got}, expected {expected} at node {node}")
