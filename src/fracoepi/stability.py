"""Characteristic cubics and fractional-order stability verdicts.

An equilibrium of a commensurate Caputo system of order ``alpha`` is
asymptotically stable iff every Jacobian eigenvalue ``xi`` satisfies
``|arg(xi)| > alpha*pi/2``; the verdict therefore depends on the order, and
an equilibrium that is unstable classically can be stable at small enough
orders.  The Jacobian is ``model.jacobian``, re-exported here.  At the
interior equilibrium its eigenvalues are the roots of a monic cubic whose
sign pattern (discriminant, coefficients, the product A1*A2 - A3) supports
order-independent sufficient conditions; those hypothesis sets are evaluated
here as annotations while the eigenvalue criterion remains the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import Equilibrium, EquilibriumKind, ModelParams, State, ValidationError
from .model import jacobian  # re-exported: the stability layer's Jacobian
from .solver import validate_order

__all__ = [
    "CubicCharacteristic",
    "EigenSpectrum",
    "MatignonResult",
    "StabilityVerdict",
    "TIE_TOLERANCE",
    "characteristic_cubic",
    "classify_equilibrium",
    "cubic_roots",
    "jacobian",
    "matignon_check",
    "coefficient_case",
]

TIE_TOLERANCE = 1e-9  # radians; |arg| within this of alpha*pi/2 counts as marginal
_CASE_EQ_RTOL = 1e-9  # relative tolerance for the A1*A2 == A3 equality in case (iv)
_ZERO_EIG_RTOL = 1e-12


@dataclass(frozen=True)
class CubicCharacteristic:
    """Monic cubic F(x) = x^3 + a1 x^2 + a2 x + a3."""

    a1: float
    a2: float
    a3: float

    @property
    def discriminant(self) -> float:
        a1, a2, a3 = self.a1, self.a2, self.a3
        return (
            18.0 * a1 * a2 * a3
            + (a1 * a2) ** 2
            - 4.0 * a3 * a1**3
            - 4.0 * a2**3
            - 27.0 * a3**2
        )

    @property
    def routh_product(self) -> float:
        return self.a1 * self.a2 - self.a3

    def coefficients(self) -> np.ndarray:
        return np.array([1.0, self.a1, self.a2, self.a3])


@dataclass(frozen=True)
class EigenSpectrum:
    """Three eigenvalues with their principal arguments in (-pi, pi]."""

    eigenvalues: np.ndarray  # complex, length 3, conjugate pairs exact

    @property
    def min_abs_arg(self) -> float:
        return float(np.min(np.abs(np.angle(self.eigenvalues))))

    @property
    def has_complex_pair(self) -> bool:
        return bool(np.any(self.eigenvalues.imag != 0.0))

    @property
    def has_zero(self) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.eigenvalues))))
        return bool(np.any(np.abs(self.eigenvalues) <= _ZERO_EIG_RTOL * scale))


@dataclass(frozen=True)
class MatignonResult:
    stable: Optional[bool]  # None when marginal
    margin: float           # min |arg xi| - alpha*pi/2
    critical_order: float   # (2/pi) min |arg xi|, capped at 1

    @property
    def marginal(self) -> bool:
        return self.stable is None


@dataclass(frozen=True)
class StabilityVerdict(MatignonResult):
    """Order-dependent classification of one equilibrium: its Matignon result
    with a label, the spectrum it was read from and, for E*, the cubic.

    The equilibrium and the order are the caller's arguments and are not
    repeated here.  ``label`` is one of stable-node, stable-focus,
    stable-matignon (stable only through the fractional criterion, some
    eigenvalue has non-negative real part), marginal, unstable-node,
    unstable-focus, unstable.
    ``case`` tags the matching coefficient-based hypothesis set (i)-(iv) for
    the interior equilibrium.
    """

    label: str
    spectrum: EigenSpectrum
    case: Optional[str] = None
    cubic: Optional[CubicCharacteristic] = None


def _require_interior(estar: State) -> None:
    if estar.susceptible <= 0.0 or estar.infected <= 0.0 or estar.predator <= 0.0:
        raise ValidationError(
            f"interior equilibrium must have positive coordinates, got {estar}"
        )


def _charpoly(j: np.ndarray) -> CubicCharacteristic:
    """det(xI - J): a1 = -tr J, a2 the sum of the principal 2x2 minors, a3 = -det J."""
    minors = (
        j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        + j[0, 0] * j[2, 2] - j[0, 2] * j[2, 0]
        + j[1, 1] * j[2, 2] - j[1, 2] * j[2, 1]
    )
    return CubicCharacteristic(float(-np.trace(j)), float(minors), float(-np.linalg.det(j)))


def characteristic_cubic(params: ModelParams, estar: State) -> CubicCharacteristic:
    """Characteristic polynomial at the interior equilibrium, from the Jacobian there."""
    _require_interior(estar)
    return _charpoly(jacobian(params, estar))


def cubic_roots(cubic: CubicCharacteristic) -> EigenSpectrum:
    """Roots as the eigenvalues of the companion matrix (``np.roots``).

    LAPACK's ``dgeev`` returns each complex pair with equal real parts and
    opposite imaginary parts, so the pairs are exact conjugates as they come.
    """
    coeffs = cubic.coefficients()
    if not np.all(np.isfinite(coeffs)):
        raise ValidationError(f"cubic coefficients must be finite, got {coeffs}")
    return EigenSpectrum(eigenvalues=np.sort_complex(np.roots(coeffs).astype(complex)))


def matignon_check(spectrum: EigenSpectrum, alpha: float) -> MatignonResult:
    """Fractional-order stability test: min |arg xi| against alpha*pi/2."""
    validate_order(alpha)
    if spectrum.has_zero:
        # arg(0) is undefined; the boundary case is reported, not adjudicated
        return MatignonResult(
            stable=None,
            margin=-alpha * math.pi / 2.0,
            critical_order=0.0,
        )
    min_arg = spectrum.min_abs_arg
    margin = min_arg - alpha * math.pi / 2.0
    return MatignonResult(
        stable=None if abs(margin) <= TIE_TOLERANCE else margin > 0.0,
        margin=margin,
        critical_order=min(1.0, 2.0 * min_arg / math.pi),
    )


def coefficient_case(cubic: CubicCharacteristic, alpha: float) -> Optional[str]:
    """Matching coefficient-based hypothesis set, or None.

    (i)   D > 0, A1 > 0, A3 > 0, A1*A2 - A3 > 0        -> stable, any order
    (ii)  D < 0, A1 >= 0, A2 >= 0, A3 > 0, alpha < 2/3 -> stable
    (iii) D < 0, A1 < 0, A2 < 0, alpha > 2/3           -> unstable
    (iv)  D < 0, A1 > 0, A2 > 0, A1*A2 == A3, alpha < 1 -> stable
    """
    disc = cubic.discriminant
    a1, a2, a3 = cubic.a1, cubic.a2, cubic.a3
    if disc > 0.0 and a1 > 0.0 and a3 > 0.0 and cubic.routh_product > 0.0:
        return "i"
    if disc < 0.0:
        if a1 >= 0.0 and a2 >= 0.0 and a3 > 0.0 and alpha < 2.0 / 3.0:
            return "ii"
        if a1 < 0.0 and a2 < 0.0 and alpha > 2.0 / 3.0:
            return "iii"
        if (
            a1 > 0.0
            and a2 > 0.0
            and abs(cubic.routh_product) <= _CASE_EQ_RTOL * max(1.0, abs(a3))
            and alpha < 1.0
        ):
            return "iv"
    return None


def _label(kind: EquilibriumKind, check: MatignonResult, spectrum: EigenSpectrum) -> str:
    """Plain label for E0 and E1 (real spectra), node/focus sub-label otherwise."""
    if check.marginal:
        return "marginal"
    if kind in (EquilibriumKind.EXTINCTION, EquilibriumKind.PREY_ONLY):
        return "stable-node" if check.stable else "unstable"
    if check.stable:
        if not spectrum.has_complex_pair:
            return "stable-node"
        pair_re = spectrum.eigenvalues[spectrum.eigenvalues.imag != 0.0][0].real
        return "stable-focus" if pair_re < 0.0 else "stable-matignon"
    return "unstable-focus" if spectrum.has_complex_pair else "unstable-node"


def classify_equilibrium(params: ModelParams, eq: Equilibrium, alpha: float) -> StabilityVerdict:
    """Order-dependent verdict for an existing equilibrium.

    The spectrum is the eigenvalues of the model's Jacobian at the
    equilibrium; one Matignon check on it gives the verdict.  The trivial and
    prey-only equilibria carry plain stable/unstable labels (their spectra are
    real); the predator-free and interior equilibria get node/focus sub-labels
    from the eigenvalue structure.  For the interior equilibrium the verdict is annotated with the
    matching coefficient case; the eigenvalue criterion alone decides ``stable``,
    so a caller compares the case's prediction with it.
    """
    if not eq.exists:
        raise ValidationError(f"{eq.kind} does not exist for these parameters")
    if eq.state is None:
        raise ValidationError(f"{eq.kind} has no well-defined coordinates")

    j = jacobian(params, eq.state)
    eigen = np.linalg.eigvals(j).astype(complex)
    spectrum = EigenSpectrum(eigenvalues=np.sort_complex(eigen))
    check = matignon_check(spectrum, alpha)

    cubic = case = None
    if eq.kind is EquilibriumKind.COEXISTENCE:
        _require_interior(eq.state)
        cubic = _charpoly(j)
        case = coefficient_case(cubic, alpha)

    return StabilityVerdict(
        **vars(check),
        label=_label(eq.kind, check, spectrum),
        spectrum=spectrum,
        case=case,
        cubic=cubic,
    )
