"""One- and two-parameter Mittag-Leffler functions on the package's domain.

``E_{a,b}(z) = sum_{k>=0} z^k / Gamma(a*k + b)`` generalizes the exponential
(``E_{1,1} = exp``).  The package needs it for the boundedness envelope
``E_a(-eta t^a)``, so the functions take only real ``z <= 0``, ``0 < a <= 1``
and ``0 < b <= 10`` and reject anything else with a ValidationError.

After the exact cases (``z = 0``; ``a = b = 1``), every value comes from one
algorithm: the trapezoidal rule on a parabolic contour that inverts the
Laplace transform ``s^(a-b) / (s^a - z)`` at ``t = 1`` (Garrappa, SIAM J.
Numer. Anal. 53 (2015) 1350-1369), with the contour's parameters set by
Weideman and Trefethen's rule (Math. Comp. 76 (2007) 1341-1356) for a working
precision and a design target.  A value is returned only when its error
bound, the branch-point bound plus the rounding of the sum, is within the
advertised relative accuracy (1e-10).  The rounding part has a bound fixed per
table for every ``z <= 0``, so a call sums its terms once, and sums their
magnitudes too only when that bound cannot decide.  The contour first runs in
float64 for ``a < 1`` (28 terms a call after a per-``(a, b)`` table); a point
it refuses runs on the same contour at 20, 40, 80 and then 160 digits
(mpmath).  For ``|z| >= 1`` the branch-point bound falls like ``1/|z|``, as
the value does, so float64 certifies a long boundedness envelope
``E_a(-eta t^a)`` near ``a = 1`` too, without the magnitude sum (every node
to t = 2000 at ``a = 0.999``).

All functions are pure and thread-safe: each table past float64 computes in
its own mpmath context, whose precision is set once when the table is built,
and mpmath's process-wide precision is never changed.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys

import mpmath

from .solver import BOOL_TYPES, ValidationError, shown

__all__ = ["AccuracyError", "ml_one", "ml_two"]

REL_TOL = 1e-10

_CONTOUR_TARGET = 1e-15  # design target of the float64 contour
_EPS = sys.float_info.epsilon
_DIGITS = (20, 40, 80, 160)  # design targets 10^-digits past float64
_Z_MIN = -sys.float_info.max  # rejects -inf, and an int past the float range


class AccuracyError(ArithmeticError):
    """No contour could certify the requested accuracy."""


def _contour_parameters(eps: float, target: float) -> tuple[float, float, int]:
    """(mu, h, N) of the parabola s(u) = mu (1 + iu)^2 for t = 1, u = kh, |k| <= N.

    The optimal parameters when the branch point at 0 is the only singularity
    (z < 0, 0 < alpha < 1): rounding at the unit roundoff ``eps`` caps mu at
    log(target / eps); N and h follow from mu and the target, so the nodes do
    not depend on z.
    """
    mu = math.log(target) - math.log(eps)
    u_max = math.sqrt(math.log(eps) / (math.log(eps) - math.log(target)))
    nodes = math.ceil(-u_max * math.log(target) / (2.0 * math.pi))
    return mu, u_max / nodes, nodes


def _discretization_error(power: float, mu: float, h: float) -> float:
    """Trapezoidal-rule error bound on the parabola for a branch point s^(-power).

    s = 0 sits at u = i, where s = -mu (u - i)^2 and s'(u) = -2 mu (u - i),
    so an integrand e^s s^(-p) s'(u) has the singularity mu^(1-p)
    (u - i)^(1 - 2p) there.  Its leading Poisson-summation term is 2 mu^(1-p)
    (2 pi/h)^(2p - 2) exp(-2 pi/h) / |Gamma(2p - 1)|; a further factor 2
    covers the cut at u_max and the higher terms.  On the float64 contour the
    bound is 3.5e-15 for p <= 1 and grows with p (1.4e-12 at p = 2), where
    the design target alone would understate the error.

    The strength mu^(1-p) k^(2p-2) / |Gamma(2p - 1)| (k = 2 pi/h) raises the
    bound only above 1, which it cannot reach for the powers -1 < p <= 1/2
    that arrive here (beta or beta - alpha): there
    |1/Gamma(2p - 1)| <= 1.13 on (-3, 0], k^(2p-2) <= 1/k and
    mu^(1-p) <= mu^2, so it is at most 1.13 mu^2/k, below 0.4 at every
    precision.  So Gamma is evaluated only above p = 1/2, where its argument
    is positive.  On 200 000 powers in (-1, 1/2] the largest strength was
    0.00315 in float64, and 0.00384, 0.00179, 0.000715 and 0.000326 at 20,
    40, 80 and 160 digits.
    """
    k = 2.0 * math.pi / h
    if power <= 0.5:
        return 4.0 * math.exp(-k)
    strength = mu ** (1.0 - power) * k ** (2.0 * power - 2.0) * (
        1.0 / math.gamma(2.0 * power - 1.0)
    )
    return 4.0 * math.exp(-k) * max(1.0, strength)


@functools.lru_cache(maxsize=32)
def _contour_table(alpha: float, beta: float, digits: int | None = None) -> tuple:
    """(s_k^alpha, weight_k s_k^(alpha - beta)) per node, the two branch-point
    bounds of :func:`_contour` (small ``z``; ``|z| >= 1`` times ``|z|``), the
    unit roundoff and ``reach``, a float bound on the sum of the term
    magnitudes that holds for every z <= 0.

    In float64 when ``digits`` is None; otherwise for the design target
    10^-digits in a private mpmath context at ``digits + 1`` digits.  The
    weight is exp(s) s'(u) h/(2 pi) at u = kh, doubled for k > 0: the
    integrand obeys S(-u) = -conj(S(u)), so the terms at -u and u have equal
    imaginary parts.

    ``reach`` is sum_k |weight_k| / dist(power_k), where dist(p) is the
    distance from p to the ray (-inf, 0]: |p| when Re p >= 0, else |Im p|.
    So |power_k - z| >= dist(power_k) for z <= 0, and no node lies on the
    ray (power_0 = mu^alpha > 0; for k >= 1, 0 < arg s_k < pi and
    0 < alpha <= 1).  The factor 1 + 1e-9 covers the rounding of this sum and
    of the magnitude sum it bounds (under 100 unit roundoffs each).
    """
    if digits is None:
        eps, target, number, exp, pi = _EPS, _CONTOUR_TARGET, float, cmath.exp, math.pi
    else:
        ctx = mpmath.MPContext()
        ctx.dps = digits + 1
        eps, target, number, exp, pi = ctx.eps, 10.0**-digits, ctx.mpf, ctx.exp, ctx.pi
    mu, h, count = _contour_parameters(float(eps), target)
    near, far = _discretization_error(beta, mu, h), _discretization_error(beta - alpha, mu, h)
    mu, h, alpha, beta = number(mu), number(h), number(alpha), number(beta)
    nodes, reach = [], 0.0
    for k in range(count + 1):
        w = 1.0 + 1j * h * k
        s = mu * w**2
        weight = exp(s) * 2j * mu * w * h / pi / (1.0 if k else 2.0)
        power, weight = s**alpha, weight * s ** (alpha - beta)
        nodes.append((power, weight))
        reach += abs(weight) / (abs(power) if power.real >= 0.0 else abs(power.imag))
    return tuple(nodes), near, far, eps, float(reach) * (1.0 + 1e-9)


def _magnitude(nodes: tuple, z: float):
    """Sum of the term magnitudes |weight / (power - z)| of :func:`_contour`."""
    size = 0.0
    for power, weight in nodes:
        size += abs(weight / (power - z))
    return size


def _contour(alpha: float, beta: float, z: float, digits: int | None = None) -> tuple:
    """Laplace inversion on the parabola for z < 0, and whether it is certified.

    In float64 when ``digits`` is None, else as an mpmath number for the
    design target 10^-digits (see :func:`_contour_table`).  The error estimate
    is the branch-point bound plus the rounding of the sum, the unit roundoff
    times the sum of the term magnitudes.  That sum is at most the table's
    ``reach``: the value is certified at once when the estimate with
    ``reach`` in its place is within the tolerance, refused when the
    branch-point bound alone is not, and only between the two is the
    magnitude sum taken (:func:`_magnitude`).  Rounding is monotone, so each
    exit gives the verdict that the magnitude sum would give.

    The branch point at s = 0 is that of the integrand
    s^(alpha-beta) / (s^alpha - z).  For small ``|z|`` it behaves there as
    s^(-beta).  For ``|z| >= 1`` it is ``-(s^(alpha-beta)/z) sum_j
    (s^alpha/z)^j``, which converges near s = 0 (``|s^alpha| < 1 <= |z|`` for
    ``|s| < 1``): the leading term is s^(-(beta-alpha)) times 1/|z|, and term
    j is weaker by (s^alpha/z)^j.  So the bound there is
    :func:`_discretization_error` at ``beta - alpha`` divided by ``|z|``: it
    falls like E_{alpha,beta}(z), which for z -> -inf is
    ``-1/(z Gamma(beta - alpha))`` to leading order.  For ``|z| >= 1`` it is
    never larger than the small-``|z|`` bound (checked on a grid of
    0 < alpha <= 1, 0 < beta <= 10 at every precision), so no value that bound
    certifies is lost.
    """
    nodes, near, far, eps, reach = _contour_table(alpha, beta, digits)
    value = 0.0
    for power, weight in nodes:
        value += (weight / (power - z)).imag
    branch = near if z > -1.0 else far / -z
    limit = REL_TOL * abs(value)
    if branch + eps * reach <= limit:
        return value, True
    if branch > limit:
        return value, False
    return value, branch + eps * _magnitude(nodes, z) <= limit


def ml_two(alpha: float, beta: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Raises ValidationError outside real z <= 0, 0 < alpha <= 1 and
    0 < beta <= 10, and AccuracyError when the value cannot be certified to
    REL_TOL.
    """
    try:
        if (isinstance(alpha, BOOL_TYPES) or isinstance(beta, BOOL_TYPES)
                or isinstance(z, BOOL_TYPES)):
            raise TypeError
        inside = 0.0 < alpha <= 1.0 and 0.0 < beta <= 10.0 and _Z_MIN <= z <= 0.0
    except TypeError:  # None, a string, a bool
        raise ValidationError(
            "Mittag-Leffler arguments must be real numbers, got"
            f" alpha={shown(alpha, repr)}, beta={shown(beta, repr)}, z={shown(z, repr)}"
        ) from None
    if not inside:
        raise ValidationError(
            "Mittag-Leffler arguments must be finite z <= 0, 0 < alpha <= 1 and"
            f" 0 < beta <= 10, got alpha={shown(alpha)}, beta={shown(beta)}, z={shown(z)}"
        )
    if z == 0.0:
        try:
            return 1.0 / math.gamma(beta)
        except OverflowError:
            # Gamma overflows below 5.6e-309, where 1/Gamma(beta) = beta (1 + 0.58 beta
            # + ...) rounds to beta
            return beta
    if alpha == 1.0 and beta == 1.0:
        return math.exp(z)
    # at alpha = 1 float64 would certify E_{1,2}(-3.2e-209) 7e-13 off; the
    # digit levels return it to rounding
    if alpha < 1.0:
        value, certified = _contour(alpha, beta, z)
        if certified:
            return value
    for digits in _DIGITS:
        value, certified = _contour(alpha, beta, z, digits)
        if certified:
            return float(value)
    raise AccuracyError(
        f"E_({alpha},{beta})({z}) not certified to {REL_TOL} at {_DIGITS[-1]} digits"
    )


def ml_one(alpha: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) = E_{alpha,1}(z)."""
    return ml_two(alpha, 1.0, z)
