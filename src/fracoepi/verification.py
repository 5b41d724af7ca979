"""Numerical checks of the model's analytical guarantees on computed runs.

Solutions started in the positive orthant are non-negative and uniformly
bounded (the weighted total population V = S + I + (m/theta)P is absorbed
below l/eta with l = K(r+eta)^2/(4r) for any eta below both death rates), and
under R0 < 1 and d > d2 the equilibria E1 and E2 come with a Lyapunov
function that decreases along solutions.  For E* the paper's condition
theta1 < theta < theta2 gives no such function: no V of the Volterra form
decreases everywhere toward E*.  Each of these conditions is the
``hypothesis`` of its equilibrium's record (:class:`model.Equilibrium`); the
reports here hold only what a run measured.  These facts are checked
here on discrete trajectories with explicit slack for discretization, rather
than re-derived symbolically: the conclusions of the theory, not its proof
steps, are what a computed trajectory can certify.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import mittag_leffler as ml
from .model import (
    Equilibrium,
    EquilibriumKind,
    ModelParams,
    State,
    ValidationError,
    jacobian,
    rhs,
)
from .solver import Trajectory, float_array, validate_positive

__all__ = [
    "BoundednessCertificate",
    "ConvergenceResult",
    "LyapunovReport",
    "NonnegativityReport",
    "boundedness_certificate",
    "check_nonnegativity",
    "convergence_check",
    "lipschitz_bound",
    "lyapunov_monotonicity",
]

NEGATIVE_TOL = 1e-8  # undershoot below zero still read as non-negative
ENVELOPE_MARGIN = 1e-6  # added to the boundedness envelope
LYAPUNOV_SLACK = 1e-3  # largest forward increase of V read as a decrease
TAIL_FRACTION = 0.1  # trailing share of the nodes the convergence check reads


@dataclass(frozen=True)
class NonnegativityReport:
    worst_undershoot: np.ndarray      # per component, >= 0; NaN where a state is NaN

    @property
    def passed(self) -> bool:
        return bool(np.all(self.worst_undershoot <= NEGATIVE_TOL))


@dataclass(frozen=True)
class BoundednessCertificate:
    eta: float
    bound: float                      # l / eta with l = K (r+eta)^2 / (4 r)
    margin: float                     # min over nodes of limit - V; NaN if any V is NaN
    worst_value: float                # max V along the run
    envelope_checked: bool            # sharper Mittag-Leffler envelope applied

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0


@dataclass(frozen=True)
class LyapunovReport:
    values: np.ndarray                # V per node, NaN where undefined
    max_increase: float               # largest forward rise over the non-NaN values

    @property
    def monotone(self) -> bool:
        """V is finite at every node of a run of at least two nodes, and rises
        by at most LYAPUNOV_SLACK from one node to the next."""
        return (
            bool(np.isfinite(self.values).all())
            and self.values.size >= 2
            and self.max_increase <= LYAPUNOV_SLACK
        )


@dataclass(frozen=True)
class ConvergenceResult:
    converged: bool
    max_tail_distance: float


def check_nonnegativity(traj: Trajectory) -> NonnegativityReport:
    """Pass when every component's worst undershoot is within NEGATIVE_TOL.

    A NaN state makes its component's undershoot NaN, which is within no
    limit, so the report fails.
    """
    worst = np.maximum(0.0, -traj.states.min(axis=0))
    return NonnegativityReport(worst_undershoot=worst)


def _require_model_states(traj: Trajectory) -> None:
    """Reject a trajectory whose rows are not (S, I, P) states of the model."""
    columns = traj.states.shape[1]
    if columns != 3:
        raise ValidationError(f"the model's checks need 3 state columns (S, I, P), got {columns}")


def total_population(params: ModelParams, states: np.ndarray) -> np.ndarray:
    """V = S + I + (m/theta) P per node."""
    weight = params.predation_rate / params.conversion_efficiency
    return states[:, 0] + states[:, 1] + weight * states[:, 2]


def boundedness_certificate(params: ModelParams, traj: Trajectory) -> BoundednessCertificate:
    """Check the uniform bound on V = S + I + (m/theta)P at eta = min(mu, d)/2.

    Any 0 < eta < min(infected death rate, predator death rate) makes
    max(V(0), l/eta) an upper envelope; when V(0) exceeds l/eta the sharper
    decay envelope (V(0) - l/eta) E_alpha(-eta t^alpha) + l/eta is checked as
    well.
    """
    _require_model_states(traj)
    # ModelParams keeps both rates positive and finite, so half the smaller
    # one lies strictly inside (0, min(mu, d)) unless the halving underflows
    eta = 0.5 * min(params.infected_death_rate, params.predator_death_rate)
    if eta == 0.0:  # min(mu, d) = 5e-324: no float lies strictly between it and 0
        raise ValidationError("no boundedness rate eta lies strictly inside (0, 5e-324)")
    r = params.growth_rate
    level = params.carrying_capacity * (r + eta) ** 2 / (4.0 * r)
    bound = level / eta
    values = total_population(params, traj.states)
    v0 = float(values[0])

    limit = max(v0, bound) + ENVELOPE_MARGIN
    envelope_checked = v0 > bound
    if envelope_checked:
        if math.isnan(traj.order):
            raise ValidationError(
                f"V(0) = {v0:.6g} exceeds l/eta = {bound:.6g}, and the decay envelope"
                " needs the trajectory's order, which it does not record"
                " (a trajectory read from CSV)"
            )
        decay = np.array(
            [
                ml.ml_one(traj.order, -eta * float(t) ** traj.order)
                for t in traj.times
            ]
        )
        envelope = (v0 - bound) * decay + bound + ENVELOPE_MARGIN
        limit = np.minimum(limit, envelope)

    return BoundednessCertificate(
        eta=eta,
        bound=bound,
        margin=float(np.min(limit - values)),  # >= 0 exactly where every V <= limit
        worst_value=float(values.max()),
        envelope_checked=envelope_checked,
    )


def _lyapunov_weights(params: ModelParams, kind: EquilibriumKind) -> tuple:
    """(w_S, w_I, w_P) of the Lyapunov function for the target ``kind``."""
    predator = params.predation_rate / params.conversion_efficiency
    if kind is EquilibriumKind.COEXISTENCE:
        return (1.0, 1.0, predator)
    lam_k = params.infection_rate * params.carrying_capacity
    return (lam_k / (lam_k + params.growth_rate), 1.0, predator)


def _lyapunov_rows(
    params: ModelParams, target: Equilibrium, states: np.ndarray
) -> np.ndarray:
    """Vectorized V along state rows; NaN where a required log diverges.

    V = sum_j w_j (x_j - x*_j - x*_j ln(x_j / x*_j)); a component whose target
    value is 0 enters as w_j x_j and needs no x_j > 0.  The weights are
    (1, 1, m/theta) for E* and (w_S, 1, m/theta) with w_S = lambda K/(lambda K + r)
    for E1 and E2, the S weight that cancels the S-I cross term of grad V . f:

    * E1 = (K, 0, 0): grad V . f = -w_S (r/K)(S - K)^2 + (lambda K - mu) I
      - (m d/theta) P, which is <= 0 when R0 <= 1;
    * E2 = (S1, I1, 0): grad V . f = -w_S (r/K)(S - S1)^2
      + m P (I1/(a + I) - d/theta), which is <= 0 when d >= theta I1/a = d2.
    """
    if not target.exists or target.state is None:
        raise ValidationError(f"target {target.kind} does not exist")
    if target.hypothesis is None:
        raise ValidationError(f"no Lyapunov form is associated with {target.kind}")
    weights = _lyapunov_weights(params, target.kind)
    ok = np.ones(states.shape[0], dtype=bool)
    terms = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for w, x, x_star in zip(weights, states.T, target.state.as_array()):
            if x_star == 0.0:
                terms.append(w * x)
            else:
                terms.append(w * (x - x_star - x_star * np.log(x / x_star)))
                ok &= x > 0.0
    return np.where(ok, terms[0] + terms[1] + terms[2], np.nan)


def lyapunov_monotonicity(
    params: ModelParams, target: Equilibrium, traj: Trajectory
) -> LyapunovReport:
    """Largest forward increase of V along the run.

    The theory bounds the fractional derivative of V; the observable
    consequence on a discrete solution is (near-)monotone decrease, checked
    with slack for discretization and fractional-memory effects.  The report
    is monotone under one rule: V is finite at every node, so a node where V
    is undefined (a state <= 0 in a component whose target value is positive)
    or a non-finite state fails it, and ``max_increase`` is within
    LYAPUNOV_SLACK.  ``max_increase`` is read over the nodes where V is not
    NaN, and is NaN when fewer than two remain.
    """
    _require_model_states(traj)
    values = _lyapunov_rows(params, target, traj.states)
    kept = values[~np.isnan(values)]
    max_increase = float(np.max(np.diff(kept))) if kept.size >= 2 else math.nan
    return LyapunovReport(values=values, max_increase=max_increase)


def convergence_check(traj: Trajectory, target, tol: float) -> ConvergenceResult:
    """Max-norm distance to target over the trailing TAIL_FRACTION of the nodes."""
    validate_positive("convergence tolerance", tol)
    goal = target.as_array() if isinstance(target, State) else float_array("target", target)
    if goal.shape != traj.states.shape[1:]:
        raise ValidationError(
            f"target has shape {goal.shape}, the trajectory's states {traj.states.shape[1:]}"
        )
    n_nodes = traj.states.shape[0]
    tail = max(1, math.ceil(TAIL_FRACTION * n_nodes))
    distance = np.abs(traj.states[-tail:] - goal).max()
    return ConvergenceResult(
        converged=bool(distance <= tol),
        max_tail_distance=float(distance),
    )


def lipschitz_bound(params: ModelParams, M: float) -> float:
    """Lipschitz constant (1-norm) of the vector field on the box [0, M]^3.

    On a convex set the 1-norm constant of a smooth field is sup ||J||_1, the
    largest column sum of |J|, and on this box it is reached at a vertex:

    * column S is |affine(S, I)| + lambda I, convex in (S, I);
    * column I is (r/K + lambda) S + |lambda S - mu - m g| + theta g with
      g = aP/(a + I)^2, convex in (S, g); g runs over [0, M/a] and takes 0 at
      P = 0 and M/a at I = 0, P = M, so each corner of the (S, g) range is
      taken at a vertex of the box;
    * column P is convex in u = I/(a + I), which is monotone in I.

    Each column sum is a convex function of quantities whose extremes are
    taken at box vertices, so the largest ||J(v)||_1 over the 8 vertices v is
    exact.
    """
    validate_positive("domain radius", M)
    return max(
        float(np.abs(jacobian(params, vertex)).sum(axis=0).max())
        for vertex in itertools.product((0.0, M), repeat=3)
    )


def empirical_lipschitz_ratio(
    params: ModelParams, M: float, pairs: int = 10_000, seed: int = 0
) -> float:
    """Largest observed ||f(x)-f(y)||_1 / ||x-y||_1 over random pairs in [0,M]^3.

    The 6*pairs uniforms come from ``random.Random(seed)``, x block first and
    then y block, row-major: ``import numpy`` already loads ``random``, while
    numpy's own generator module would cost every ``verify`` run its first
    import.
    """
    draw = random.Random(seed).random
    draws = np.fromiter((draw() for _ in range(6 * pairs)), float, count=6 * pairs)
    xs, ys = draws.reshape(2, pairs, 3) * M
    gaps = np.abs(xs - ys).sum(axis=1)
    keep = gaps >= 1e-12
    ratios = (
        np.abs(rhs(params, xs[keep]) - rhs(params, ys[keep])).sum(axis=1) / gaps[keep]
    )
    return float(ratios.max(initial=0.0))
