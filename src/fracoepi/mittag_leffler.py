"""One- and two-parameter Mittag-Leffler functions on the package's domain.

``E_{a,b}(z) = sum_{k>=0} z^k / Gamma(a*k + b)`` generalizes the exponential
(``E_{1,1} = exp``).  The package needs it for the boundedness envelope
``E_a(-eta t^a)``, so the functions take only real ``z <= 0``, ``0 < a <= 1``
and ``0 < b <= 10`` and reject anything else with a ValidationError.

After the exact cases (``z = 0``; ``a = b = 1``), evaluation tries these
routes in order and returns the first value certified to the advertised
relative accuracy (1e-10):

1. for ``a < 1``, the trapezoidal rule on a fixed parabolic contour that
   inverts the Laplace transform ``s^(a-b) / (s^a - z)`` at ``t = 1``
   (Garrappa, SIAM J. Numer. Anal. 53 (2015) 1350-1369), in float64: 28
   terms per call after a per-``(a, b)`` table;
2. for ``z < -1``, the algebraic tail expansion
   ``-sum_{k>=1} z^{-k} / Gamma(b - a*k)``, truncated at its smallest term;
3. an adaptive-precision series (mpmath) for everything else, with working
   digits sized to the cancellation depth.

Routes 1 and 2 run in float64; route 3 costs 0.1 to 20 ms a call.  For
``|z| >= 1`` route 1's error bound falls like ``1/|z|``, as the value does,
so it certifies a long boundedness envelope ``E_a(-eta t^a)`` near ``a = 1``
too (every 10th node to t = 2000 at ``a = 0.999``) and routes 2 and 3 are
not reached there.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys

import mpmath

from .solver import ValidationError

__all__ = ["AccuracyError", "ml_one", "ml_two", "recip_gamma"]

REL_TOL = 1e-10

_MAX_TERMS = 20_000
_ASYMP_CERT = 1e-11      # smallest-term certificate for the tail expansion
_MAX_DPS = 300

# Garrappa's optimal parabolic contour s(u) = mu (1 + iu)^2 for t = 1 when the
# branch point at 0 is the only singularity (z < 0, 0 < alpha < 1).  Rounding
# caps mu at log(target / eps); N and h follow from mu and the target, so the
# nodes do not depend on z.
_CONTOUR_TARGET = 1e-15
_EPS = sys.float_info.epsilon
_MU = math.log(_CONTOUR_TARGET) - math.log(_EPS)
_U_MAX = math.sqrt(math.log(_EPS) / (math.log(_EPS) - math.log(_CONTOUR_TARGET)))
_NODES = math.ceil(-_U_MAX * math.log(_CONTOUR_TARGET) / (2.0 * math.pi))
_H = _U_MAX / _NODES
_S = tuple(_MU * (1.0 + 1j * _H * k) ** 2 for k in range(_NODES + 1))
# exp(s) s'(u) h/(2 pi) at u = kh, doubled for k > 0: the integrand obeys
# S(-u) = -conj(S(u)), so the terms at -u and u have equal imaginary parts
_WEIGHTS = tuple(
    cmath.exp(s) * 2j * _MU * (1.0 + 1j * _H * k) * _H / math.pi / (1.0 if k else 2.0)
    for k, s in enumerate(_S)
)


class AccuracyError(ArithmeticError):
    """No evaluation route could certify the requested accuracy."""


def recip_gamma(x: float) -> float:
    """1/Gamma(x), with the value 0.0 at the poles x = 0, -1, -2, ...

    Non-positive arguments within float-rounding distance of an integer are
    snapped to the pole: they arise from expressions like ``beta - alpha*k``
    whose exact value is the integer, and the true reciprocal there is zero.
    """
    if x > 0.0:
        try:
            return 1.0 / math.gamma(x)
        except OverflowError:
            return 0.0  # Gamma overflows, reciprocal underflows
    if abs(x - round(x)) <= 4e-13 * max(1.0, abs(x)):
        return 0.0
    # Gamma alternates sign on the intervals (-n-1, -n)
    sign = 1.0 if (int(math.floor(x)) % 2 == 0) else -1.0
    try:
        return sign * math.exp(-math.lgamma(x))
    except OverflowError:
        raise AccuracyError(f"1/Gamma({x}) exceeds the double-precision range") from None


def _tail_magnitude_ln(alpha: float, beta: float, z: float) -> float:
    """ln of a rough lower bound on |E_{a,b}(z)| for z < 0 (leading tail terms)."""
    ln_az = math.log(-z)
    best = -80.0
    for k in range(1, 7):
        rg = recip_gamma(beta - alpha * k)
        if rg != 0.0:
            best = max(best, -k * ln_az + math.log(abs(rg)))
    return best


def _peak_term_ln(alpha: float, beta: float, z: float) -> float:
    """ln of the largest series term magnitude (stationary-point estimate)."""
    ln_az = math.log(abs(z))
    if ln_az <= 0.0:
        return -math.lgamma(beta)
    x_star = math.exp(ln_az / alpha)  # where psi(alpha*k + beta) = ln|z| / alpha
    k_star = max(0.0, (x_star - beta) / alpha)
    return k_star * ln_az - math.lgamma(alpha * k_star + beta)


def _asymptotic(alpha: float, beta: float, z: float) -> tuple[float, bool]:
    """Algebraic tail expansion for z << 0.

    Term k is ``-z^(-k)/Gamma(beta - alpha*k)``; by reflection its magnitude
    is a smooth envelope ``|z|^(-k) Gamma(1 + alpha*k - beta)/pi`` times
    ``|sin(pi*(beta - alpha*k))|``.  The sin factor supplies the pole zeros
    and oscillates for small alpha, so truncation is decided on the envelope
    alone: sum while it decreases, stop at its minimum, certify with the
    first omitted envelope value as the error bound.
    """
    ln_az = math.log(-z)
    log_pi = math.log(math.pi)
    terms: list[float] = []
    running = 0.0
    ln_env_prev = math.inf
    omitted = math.inf
    for k in range(1, 60_001):
        x = beta - alpha * k  # Gamma argument, marching toward -inf
        if x > 0.5:
            term = -(z**-k) / math.gamma(x)
            terms.append(term)
            running += term
            if term != 0.0:
                ln_env_prev = math.log(abs(term))
            continue
        ln_env = -k * ln_az + math.lgamma(1.0 + alpha * k - beta) - log_pi
        if ln_env > ln_env_prev:
            omitted = math.exp(min(ln_env, 700.0))  # envelope minimum passed
            break
        # remainder(x, 2) is exact, so sin stays accurate for large |x|
        sin_factor = math.sin(math.pi * math.remainder(x, 2.0))
        magnitude = 0.0 if ln_env < -745.0 else math.exp(ln_env) * abs(sin_factor)
        sign = 1.0 if k % 2 == 1 else -1.0  # the -(-1)^k prefactor
        if sin_factor < 0.0:
            sign = -sign
        terms.append(sign * magnitude)
        running += sign * magnitude
        ln_env_prev = ln_env
        if running != 0.0 and (
            ln_env < -745.0 or math.exp(ln_env) < 1e-18 * abs(running)
        ):
            omitted = 0.0 if ln_env < -745.0 else math.exp(ln_env)
            break
    if not terms:
        return 0.0, False
    value = math.fsum(terms)
    if value == 0.0:
        return 0.0, False
    return value, omitted <= _ASYMP_CERT * abs(value)


def _discretization_error(power: float) -> float:
    """Trapezoidal-rule error bound on the parabola for a branch point s^(-power).

    s = 0 sits at u = i, where s = -mu (u - i)^2 and s'(u) = -2 mu (u - i),
    so an integrand e^s s^(-p) s'(u) has the singularity mu^(1-p)
    (u - i)^(1 - 2p) there.  Its leading Poisson-summation term is 2 mu^(1-p)
    (2 pi/h)^(2p - 2) exp(-2 pi/h) / |Gamma(2p - 1)|; a further factor 2
    covers the cut at u_max and the higher terms.  The bound is 3.5e-15 for
    p <= 1 and grows with p (1.4e-12 at p = 2), where the design target alone
    would understate the error.
    """
    k = 2.0 * math.pi / _H
    strength = _MU ** (1.0 - power) * k ** (2.0 * power - 2.0) * abs(
        recip_gamma(2.0 * power - 1.0)
    )
    return 4.0 * math.exp(-k) * max(1.0, strength)


@functools.lru_cache(maxsize=32)
def _contour_table(
    alpha: float, beta: float
) -> tuple[tuple[tuple[complex, complex], ...], float, float]:
    """(s_k^alpha, weight_k s_k^(alpha - beta)) per node, and the two
    branch-point bounds of :func:`_contour` (small ``z``; ``|z| >= 1`` times ``|z|``)."""
    nodes = tuple((s**alpha, w * s ** (alpha - beta)) for s, w in zip(_S, _WEIGHTS))
    return nodes, _discretization_error(beta), _discretization_error(beta - alpha)


def _contour(alpha: float, beta: float, z: float) -> tuple[float, bool]:
    """Laplace inversion on the parabola, for z < 0 and 0 < alpha < 1.

    The error estimate is the branch-point bound plus the rounding of the
    sum, eps times the sum of the term magnitudes.  The branch point at s = 0
    is that of the integrand s^(alpha-beta) / (s^alpha - z).  For small
    ``|z|`` it behaves there as s^(-beta).  For ``|z| >= 1`` it is
    ``-(s^(alpha-beta)/z) sum_j (s^alpha/z)^j``, which converges near s = 0
    (``|s^alpha| < 1 <= |z|`` for ``|s| < 1``): the leading term is
    s^(-(beta-alpha)) times 1/|z|, and term j is weaker by (s^alpha/z)^j.  So
    the bound there is :func:`_discretization_error` at ``beta - alpha``
    divided by ``|z|``: it falls like E_{alpha,beta}(z), which for z -> -inf
    is ``-1/(z Gamma(beta - alpha))`` to leading order.  For ``|z| >= 1`` it
    is never larger than the small-``|z|`` bound (checked on a grid of
    0 < alpha < 1, 0 < beta <= 10), so no value that bound certifies is lost.
    """
    nodes, near, far = _contour_table(alpha, beta)
    value = size = 0.0
    for power, weight in nodes:
        term = weight / (power - z)
        value += term.imag
        size += abs(term)
    branch = near if z > -1.0 else far / -z
    return value, branch + _EPS * size <= REL_TOL * abs(value)


def _mp_series(alpha: float, beta: float, z: float) -> float:
    """Series summation at elevated precision sized from the cancellation depth."""
    cancel_ln = _peak_term_ln(alpha, beta, z) - _tail_magnitude_ln(alpha, beta, z)
    digits = 25 + max(0, int(cancel_ln / math.log(10.0))) + 10
    if digits > _MAX_DPS:
        raise AccuracyError(
            f"E_({alpha},{beta})({z}) needs more than {_MAX_DPS} working digits"
        )
    with mpmath.workdps(digits):
        a, b, zz = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        stop = mpmath.mpf(10) ** (3 - digits)
        floor = mpmath.mpf("1e-120")
        total = mpmath.mpf(0)
        zpow = mpmath.mpf(1)
        tiny_in_a_row = 0
        for k in range(_MAX_TERMS):
            term = zpow / mpmath.gamma(a * k + b)
            total += term
            zpow *= zz
            if abs(term) < stop * max(abs(total), floor):
                tiny_in_a_row += 1
                if tiny_in_a_row >= 3:
                    return float(total)
            else:
                tiny_in_a_row = 0
    raise AccuracyError(
        f"series for E_({alpha},{beta})({z}) did not converge in {_MAX_TERMS} terms"
    )


def ml_two(alpha: float, beta: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Raises ValidationError outside real z <= 0, 0 < alpha <= 1 and
    0 < beta <= 10, and AccuracyError when the value cannot be certified to
    REL_TOL.
    """
    if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 10.0 and -math.inf < z <= 0.0):
        raise ValidationError(
            "Mittag-Leffler arguments must be finite z <= 0, 0 < alpha <= 1 and"
            f" 0 < beta <= 10, got alpha={alpha}, beta={beta}, z={z}"
        )
    if z == 0.0:
        return recip_gamma(beta)
    if alpha == 1.0 and beta == 1.0:
        return math.exp(z)
    if alpha < 1.0:
        value, certified = _contour(alpha, beta, z)
        if certified:
            return value
    if z < -1.0:  # the tail terms shrink only for |z| > 1
        value, certified = _asymptotic(alpha, beta, z)
        if certified:
            return value
    return _mp_series(alpha, beta, z)


def ml_one(alpha: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) = E_{alpha,1}(z)."""
    return ml_two(alpha, 1.0, z)
