"""Susceptible-infected-predator model: vector field, equilibria, thresholds.

The system couples logistic prey growth, horizontal infection of prey, and a
predator feeding on infected prey through a saturating (type II) functional
response:

    dS = r*S*(1 - (S+I)/K) - lambda*I*S
    dI = lambda*I*S - m*I*P/(a+I) - mu*I
    dP = theta*I*P/(a+I) - d*P

(read with the Caputo derivative of order alpha in the fractional setting;
the algebra below does not depend on the order).  All parameters are positive
densities/rates; populations are dimensionless densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .solver import ValidationError  # the package's one validation error class

__all__ = [
    "Condition",
    "EquilibriumKind",
    "Equilibrium",
    "ModelParams",
    "PRESETS",
    "State",
    "Thresholds",
    "ValidationError",
    "equilibria",
    "equilibrium",
    "jacobian",
    "preset",
    "rhs",
    "thresholds",
    "vector_field",
]


@dataclass(frozen=True)
class ModelParams:
    """The eight positive model constants.

    growth_rate            r      intrinsic prey birth rate (1/time)
    carrying_capacity      K      environmental carrying capacity
    infection_rate         lambda force of infection (1/(population*time))
    predation_rate         m      maximum predation rate (1/time)
    infected_death_rate    mu     infected-prey death rate (1/time)
    half_saturation        a      half-saturation constant (population)
    conversion_efficiency  theta  predation-to-growth conversion, in (0, 1]
    predator_death_rate    d      predator death rate (1/time)
    """

    growth_rate: float
    carrying_capacity: float
    infection_rate: float
    predation_rate: float
    infected_death_rate: float
    half_saturation: float
    conversion_efficiency: float
    predator_death_rate: float

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(f"{name} must be finite and positive, got {value}")
        if self.conversion_efficiency > 1.0:
            raise ValidationError(
                f"conversion_efficiency must not exceed 1, got {self.conversion_efficiency}"
            )

    def replace(self, **changes) -> "ModelParams":
        fields = dict(self.__dict__)
        fields.update(changes)
        return ModelParams(**fields)


@dataclass(frozen=True)
class State:
    """A (susceptible, infected, predator) density triple."""

    susceptible: float
    infected: float
    predator: float

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")

    @property
    def nonnegative(self) -> bool:
        return self.susceptible >= 0.0 and self.infected >= 0.0 and self.predator >= 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.susceptible, self.infected, self.predator])


class EquilibriumKind(Enum):
    EXTINCTION = "E0"    # (0, 0, 0)
    PREY_ONLY = "E1"     # (K, 0, 0), infection- and predator-free
    PREDATOR_FREE = "E2"  # (S1, I1, 0), disease endemic, no predator
    COEXISTENCE = "E*"   # interior equilibrium

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Condition:
    name: str
    margin: Optional[float]  # positive means satisfied with room; None if undefined
    undefined: str = ""      # why the margin is None

    @property
    def satisfied(self) -> bool:
        return self.margin is not None and self.margin > 0.0


@dataclass(frozen=True)
class Equilibrium:
    """An equilibrium, its existence conditions, and ``hypothesis``: the paper's
    sufficient condition for its global stability (R0 < 1 for E1, d > d2 for
    E2, theta1 < theta < theta2 for E*; None for E0, which is never stable)."""

    kind: EquilibriumKind
    state: Optional[State]  # None when the defining formulas are singular
    conditions: tuple[Condition, ...] = ()
    hypothesis: Optional[Condition] = None

    @property
    def exists(self) -> bool:
        return all(c.satisfied for c in self.conditions)


@dataclass(frozen=True)
class Thresholds:
    """Closed-form stability/existence thresholds.

    reproduction_number      R0 = lambda*K/mu; infection invades prey iff > 1
    predator_death_local     d1; predator-free state locally stable iff d > d1
    predator_death_global    d2; predator-free state globally stable if d > d2
    conversion_existence     theta1; interior equilibrium exists iff theta > theta1
                             (given R0 > 1)
    conversion_global        theta2; theta1 < theta < theta2 is the paper's
                             condition for E*'s global stability, which does
                             not imply it: no Volterra-type V decreases
                             everywhere toward E*, and E* can be unstable
    focus_boundary           (1 + sqrt(1 + r/mu))/2; the predator-free state
                             has a complex pair (a focus) iff R0 exceeds it

    d1, d2, theta1 require R0 > 1; theta2 also needs theta > d, where E* has
    I* > 0, and 2K(lambda*S* - mu) > r.  ``undefined`` maps the name of each
    field left None, and no other, to the reason.
    """

    reproduction_number: float
    predator_death_local: Optional[float]
    predator_death_global: Optional[float]
    conversion_existence: Optional[float]
    conversion_global: Optional[float]
    focus_boundary: float
    undefined: dict[str, str] = field(default_factory=dict, hash=False)  # stays hashable


def _field(params: ModelParams) -> Callable[[float, np.ndarray], np.ndarray]:
    """The model's right-hand side, written once; y holds (S, I, P) on axis 0.

    The arithmetic is ``float_form(t, y)``: three components in, a list of
    three out.  Python floats perform the same IEEE-754 double operations as
    numpy scalars in the same order, so for one state it gives the bits of
    the stacked path, and three arrays of stacked states go through it as
    they are.  The returned ndarray callable unpacks a single state
    (``y.ndim == 1``) into Python floats and wraps the list in an array; the
    solver calls ``float_form`` on its lists directly: about 0.3 us per call,
    against 0.9 us through the ndarray callable and 12 us for a state stacked
    as a (3, 1) array (best of 7 x 200 000 calls, 2-core Xeon VM).  Where
    ``a + I == 0`` Python would raise ZeroDivisionError; that state is
    recomputed with numpy scalars, so it gives the same inf/NaN as a stacked
    state and a runaway solve still ends in a divergence error.
    """
    r = params.growth_rate
    K = params.carrying_capacity
    lam = params.infection_rate
    m = params.predation_rate
    mu = params.infected_death_rate
    a = params.half_saturation
    theta = params.conversion_efficiency
    d = params.predator_death_rate

    def float_form(t: float, y) -> list:
        s, i, p = y
        try:
            feeding = i * p / (a + i)
        except ZeroDivisionError:  # Python floats with a + i == 0
            return [float(v) for v in float_form(t, np.array(y))]
        return [
            r * s * (1.0 - (s + i) / K) - lam * i * s,
            lam * i * s - m * feeding - mu * i,
            theta * feeding - d * p,
        ]

    def f(t: float, y: np.ndarray) -> np.ndarray:
        # one state as Python floats; stacked arrays (or a list) unpack as they are
        return np.array(float_form(t, y.tolist() if getattr(y, "ndim", 0) == 1 else y))

    f.float_form = float_form
    return f


def rhs(params: ModelParams, state) -> np.ndarray:
    """Time derivative at a state: a State, a length-3 array, or states
    stacked on leading axes as an (..., 3) array; the result has its shape."""
    y = np.asarray(state.as_array() if isinstance(state, State) else state, dtype=float)
    if y.shape[-1:] != (3,):
        raise ValidationError(f"states must have 3 components, got shape {y.shape}")
    if np.any(params.half_saturation + y[..., 1] == 0.0):
        raise ValidationError("half_saturation + infected must not vanish")
    return _field(params)(0.0, y.T).T


def jacobian(params: ModelParams, state) -> np.ndarray:
    """Jacobian of the model vector field at a state (a State or 3 numbers).

    Complex-step differentiation of ``_field``: column k is Im f(x + i h e_k)/h
    (Squire & Trapp, SIAM Rev. 40 (1998) 110-112), with h a power of two, so
    that dividing by it is exact.  No difference of nearby values is formed,
    so the result is the derivative to rounding.  This holds while ``_field``
    stays analytic in the state: no ``abs``, ``min``/``max`` or comparisons
    on state values.
    """
    y = np.asarray(state.as_array() if isinstance(state, State) else state, dtype=float)
    if y.shape != (3,):
        raise ValidationError(f"a state must have 3 components, got shape {y.shape}")
    if params.half_saturation + y[1] <= 0.0:
        raise ValidationError("Jacobian needs half_saturation + infected > 0")
    f, h = _field(params).float_form, 2.0**-60
    columns = []
    for k in range(3):
        stepped = y.tolist()
        stepped[k] += 1j * h
        columns.append([v.imag / h for v in f(0.0, stepped)])
    return np.array(columns).T


def vector_field(params: ModelParams) -> Callable[[float, np.ndarray], np.ndarray]:
    """Autonomous rhs closure in the (t, y) signature solvers expect."""
    # a function of its own, not an alias of _field: perfbench counts the
    # solvers' RHS evaluations through this name, and rhs must not add to them.
    # The counting closure perfbench returns carries no float_form, so a traced
    # solve takes the solver's ndarray adapter, not the float path untraced
    # solves take
    return _field(params)


def _endemic_infected(params: ModelParams) -> float:
    """E2's infected level I1 = r(lambda K - mu)/(lambda (r + lambda K)); > 0 iff R0 > 1."""
    r = params.growth_rate
    K = params.carrying_capacity
    lam = params.infection_rate
    mu = params.infected_death_rate
    return r * (lam * K - mu) / (lam * (r + lam * K))


def _interior_state(params: ModelParams) -> Optional[State]:
    """Formula value of the interior equilibrium, None when theta == d."""
    theta, d = params.conversion_efficiency, params.predator_death_rate
    if theta == d:
        return None
    i_star = params.half_saturation * d / (theta - d)
    s_star = (
        params.carrying_capacity
        - (1.0 + params.infection_rate * params.carrying_capacity / params.growth_rate)
        * i_star
    )
    p_star = (
        (params.half_saturation + i_star)
        * (params.infection_rate * s_star - params.infected_death_rate)
        / params.predation_rate
    )
    return State(s_star, i_star, p_star)


def equilibria(params: ModelParams) -> list[Equilibrium]:
    """All four equilibria with their conditions, in the order E0, E1, E2, E*."""
    th = thresholds(params)
    theta1 = th.conversion_existence
    # each hypothesis is a margin: for floats x - y > 0 exactly when x > y
    d2, theta2, theta = th.predator_death_global, th.conversion_global, params.conversion_efficiency
    endemic = Condition("R0 > 1", th.reproduction_number - 1.0)
    return [
        Equilibrium(EquilibriumKind.EXTINCTION, State(0.0, 0.0, 0.0)),
        Equilibrium(EquilibriumKind.PREY_ONLY, State(params.carrying_capacity, 0.0, 0.0),
                    hypothesis=Condition("R0 < 1", 1.0 - th.reproduction_number)),
        Equilibrium(
            EquilibriumKind.PREDATOR_FREE,
            State(params.infected_death_rate / params.infection_rate,
                  _endemic_infected(params), 0.0),
            (endemic,),
            Condition("d > d2", None if d2 is None else params.predator_death_rate - d2,
                      th.undefined.get("predator_death_global", "")),
        ),
        Equilibrium(
            EquilibriumKind.COEXISTENCE,
            _interior_state(params),
            (
                endemic,
                Condition("theta > d", params.conversion_efficiency - params.predator_death_rate),
                Condition(
                    "theta > theta1",
                    None if theta1 is None else params.conversion_efficiency - theta1,
                    th.undefined.get("conversion_existence", ""),
                ),
            ),
            # theta1 is undefined only where theta2 is too
            Condition("theta1 < theta < theta2",
                      None if theta2 is None else min(theta - theta1, theta2 - theta),
                      th.undefined.get("conversion_global", "")),
        ),
    ]


def equilibrium(params: ModelParams, kind: EquilibriumKind) -> Equilibrium:
    """The entry of :func:`equilibria` of one kind."""
    return {eq.kind: eq for eq in equilibria(params)}[kind]


def thresholds(params: ModelParams) -> Thresholds:
    """Evaluate every closed-form threshold, each read off the state it describes.

    d1 = theta I1/(a + I1) is where the predator's growth rate at
    E2 = (mu/lambda, I1, 0) changes sign; d2 = theta I1/a bounds
    theta I1/(a + I) over I >= 0, as E2's Lyapunov function needs; and
    theta1 = d (a + I1)/I1 is where E*'s I* = a d/(theta - d) reaches I1.
    theta enters theta2 = m d K/(2K(lambda S* - mu) - r) only through S*, so
    theta2 with S* held at a reference theta is
    ``thresholds(params.replace(conversion_efficiency=ref)).conversion_global``.
    E2 has a complex pair iff r < 4 mu R0 (R0 - 1) (its S-I block has trace
    -r/R0 and determinant r mu (1 - 1/R0)), i.e. iff R0 exceeds
    focus_boundary = (1 + sqrt(1 + r/mu))/2.
    """
    r = params.growth_rate
    K = params.carrying_capacity
    lam = params.infection_rate
    m = params.predation_rate
    mu = params.infected_death_rate
    a = params.half_saturation
    theta = params.conversion_efficiency
    d = params.predator_death_rate

    r0 = lam * K / mu
    d1 = d2 = theta1 = theta2 = None
    undefined: dict[str, str] = {}

    if r0 <= 1.0:
        undefined = dict.fromkeys(("predator_death_local", "predator_death_global",
                                   "conversion_existence", "conversion_global"), "needs R0 > 1")
    else:
        i1 = _endemic_infected(params)
        d1 = theta * i1 / (a + i1)
        d2 = theta * i1 / a
        theta1 = d * (a + i1) / i1
        if theta == d:
            undefined["conversion_global"] = "S* undefined at theta = d"
        elif theta < d:
            undefined["conversion_global"] = "no E* at theta < d: I* < 0"
        else:
            denom = 2.0 * K * (lam * _interior_state(params).susceptible - mu) - r
            if denom > 0.0:
                theta2 = m * d * K / denom
            else:
                undefined["conversion_global"] = "empty bracket: 2K(lambda*S* - mu) <= r"

    return Thresholds(
        reproduction_number=r0,
        predator_death_local=d1,
        predator_death_global=d2,
        conversion_existence=theta1,
        conversion_global=theta2,
        focus_boundary=0.5 * (1.0 + math.sqrt(1.0 + r / mu)),
        undefined=undefined,
    )


def _example_base(**overrides) -> ModelParams:
    base = dict(
        growth_rate=2.0,
        carrying_capacity=40.0,
        infection_rate=0.015,
        predation_rate=0.52,
        infected_death_rate=0.28,
        half_saturation=15.0,
        conversion_efficiency=0.189,
        predator_death_rate=0.09,
    )
    base.update(overrides)
    return ModelParams(**base)


@dataclass(frozen=True)
class Preset:
    params: ModelParams
    initial_states: tuple[State, ...]


#: Built-in parameter sets.  Initial-state spreads are artifact choices:
#: distinct positive points whose deviations are moderate enough that the
#: algebraically slow fractional decay reaches convergence tolerances within
#: desk-scale spans (components along slow modes sized accordingly).
PRESETS: dict[str, Preset] = {
    # coexistence equilibrium stable for every order in (0,1]
    "example1": Preset(
        _example_base(),
        (State(30.0, 5.0, 10.0), State(25.0, 8.0, 6.0), State(35.0, 3.0, 12.0)),
    ),
    # coexistence equilibrium unstable for orders above its Matignon critical
    # order 0.509; the paper's case (iii) predicts it from 2/3
    "example1-unstable": Preset(
        _example_base(
            carrying_capacity=200.0,
            infection_rate=0.15,
            half_saturation=5.0,
            conversion_efficiency=0.9,
        ),
        (State(30.0, 5.0, 10.0),),
    ),
    # theta raised to 0.5: E* stable, and runs from these starts converge to
    # it; theta lies in the paper's band only with S* held at theta = 0.189
    "example1-global": Preset(
        _example_base(conversion_efficiency=0.5),
        (State(33.0, 4.0, 8.0), State(38.0, 2.5, 10.0), State(35.0, 3.0, 9.5)),
    ),
    # globally stable predator-free state (low conversion efficiency)
    "example2": Preset(
        _example_base(conversion_efficiency=0.08),
        (State(16.0, 14.0, 0.5), State(12.0, 20.0, 0.5), State(17.0, 18.0, 0.6)),
    ),
    # globally stable infection- and predator-free state (R0 < 1)
    "example3": Preset(
        _example_base(infection_rate=0.005),
        (State(35.0, 1.5, 1.0), State(42.0, 1.0, 2.0), State(38.0, 0.5, 1.5)),
    ),
}


def preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValidationError(f"unknown preset {name!r}; known presets: {known}") from None
