"""Mittag-Leffler evaluation: frozen oracle values, identities, error paths.

Frozen references come from a truncated series in 60 to 450 digit arithmetic
(precision sized to the cancellation depth of each argument), independent of
the evaluation routes under test.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracoepi import mittag_leffler
from fracoepi.mittag_leffler import REL_TOL, ml_one, ml_two, recip_gamma
from fracoepi.model import State, ValidationError, preset
from fracoepi.runs import cached_solve
from fracoepi.verification import boundedness_certificate

# (alpha, beta, z, reference)
FROZEN = [
    (0.8, 1.0, -2.0, 0.189796692363705648432),
    (0.7, 0.7, -1.5, 0.1233838233192394905867),
    (0.8, 1.0, -10.0, 0.0249028197619765321856),
    (0.8, 1.0, -25.0, 0.009170997096470529733006),
    (0.5, 1.0, -6.5, 0.08580567010489460177789),
    (0.5, 1.0, -30.0, 0.01879588886141675149713),
    (0.95, 1.0, -15.0, 0.003944485164829679948381),
    (0.95, 1.0, -123.3, 0.0004229133049475980772837),
    (0.6, 1.4, -12.0, 0.06991183101785339774105),
    (0.9, 0.9, -40.0, 0.00006449118320584250582817),
    (0.75, 1.0, -50.0, 0.00563118786294513023515),
    (0.85, 1.0, -57.5, 0.002869043313855012213828),
    (0.3, 1.0, -4.0, 0.1665017443155166496263),
    (1.0, 2.0, -20.0, 0.04999999989694231887807),
    # the terms 1/Gamma(beta + 0.001 k) fall too slowly for a series
    (0.001, 3.0, -1.0, 0.25011534804669616),
    (0.001, 10.0, -1.0, 1.3794172672079967e-06),
]


class TestValues:
    def test_zero_argument(self):
        assert ml_one(0.5, 0.0) == 1.0
        assert ml_two(0.5, 1.0, 0.0) == 1.0

    def test_exponential_identity(self):
        assert ml_one(1.0, -1.0) == pytest.approx(1.0 / math.e, rel=1e-14)

    def test_shifted_exponential_identity(self):
        # E_{1,2}(z) = (e^z - 1)/z
        assert ml_two(1.0, 2.0, -1.0) == pytest.approx(1.0 - 1.0 / math.e, rel=1e-12)

    @pytest.mark.parametrize("alpha,beta,z,reference", FROZEN)
    def test_frozen_oracle_values(self, alpha, beta, z, reference):
        assert ml_two(alpha, beta, z) == pytest.approx(reference, rel=1e-10)

    def test_erfc_identity(self):
        # E_{1/2}(-x) = exp(x^2) erfc(x)
        for x in (0.5, 2.0, 4.0):
            want = math.exp(x * x) * math.erfc(x)
            assert ml_one(0.5, -x) == pytest.approx(want, rel=1e-10)

    def test_tiny_negative_argument_skips_the_tail_expansion(self):
        # a hypothesis counterexample of the recurrence identity: z^-k
        # overflows here.  E_{1,2}(z) = (e^z - 1)/z and
        # E_{1,3}(z) = (e^z - 1 - z)/z^2 = 1/2 + z/6 + ...
        z = -3.1955847520971825e-209
        assert ml_two(1.0, 2.0, z) == pytest.approx(math.expm1(z) / z, rel=1e-15)
        assert ml_two(1.0, 3.0, z) == pytest.approx(0.5, rel=1e-15)


DOMAIN = "must be finite z <= 0, 0 < alpha <= 1 and 0 < beta <= 10"


class TestErrors:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf, 1.0000001, 1.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValidationError, match=DOMAIN):
            ml_one(alpha, -1.0)

    @pytest.mark.parametrize("beta", [0.0, -0.5, math.nan, math.inf, 10.000001])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ValidationError, match=DOMAIN):
            ml_two(0.8, beta, -1.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_argument(self, z):
        with pytest.raises(ValidationError, match=DOMAIN):
            ml_one(0.8, z)

    @pytest.mark.parametrize("alpha,z", [
        (0.8, 5e-324),
        # the erfc identity E_{1/2}(x) = exp(x^2) erfc(-x)
        (0.5, 0.5), (0.5, 2.0), (0.5, 4.0),
        # E_{1/2}(50) ~ 2 exp(2500) and E_1(800) overflow the double range
        (0.5, 50.0), (1.0, 800.0),
    ])
    def test_rejects_positive_argument(self, alpha, z):
        with pytest.raises(ValidationError, match=DOMAIN):
            ml_one(alpha, z)

    @pytest.mark.parametrize("alpha,beta,z", [
        (1.5, 1.0, -3.0),
        (1.5, 1.5, -200.0),
        (1.3, 0.5, -100.0),
        (1.2, 1.0, -60.0),
    ])
    def test_order_above_one_rejected(self, alpha, beta, z):
        with pytest.raises(ValidationError, match=DOMAIN):
            ml_two(alpha, beta, z)


class TestProperties:
    def test_recurrence_identity(self):
        # E_{a,b}(z) = z E_{a,a+b}(z) + 1/Gamma(b)
        rng = np.random.default_rng(7)
        for _ in range(400):
            a = float(rng.uniform(0.3, 1.0))
            b = float(rng.uniform(0.1, 3.0))
            z = float(rng.uniform(-40.0, 0.0))
            lhs = ml_two(a, b, z)
            rhs = z * ml_two(a, a + b, z) + 1.0 / math.gamma(b)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_reduction_to_one_parameter(self):
        for a in (0.4, 0.7, 0.95, 1.0):
            for z in (-20.0, -3.0, -0.5):
                two = ml_two(a, 1.0, z)
                one = ml_one(a, z)
                assert two == pytest.approx(one, rel=1e-12)

    def test_classical_limit_matches_exp(self):
        for z in np.linspace(-30.0, 0.0, 31):
            assert ml_one(1.0, float(z)) == pytest.approx(math.exp(z), rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.35, 0.5, 0.75, 0.9])
    def test_completely_monotone_decay(self, alpha):
        # t -> E_a(-t) positive and non-increasing on [0, 100]
        previous = math.inf
        for t in np.arange(0.0, 100.0001, 0.1):
            value = ml_one(alpha, -float(t))
            assert value > 0.0
            assert value <= previous + 1e-12
            previous = value


class TestRecipGamma:
    def test_positive_arguments(self):
        assert recip_gamma(1.0) == 1.0
        assert recip_gamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
    def test_poles_give_zero(self, x):
        assert recip_gamma(x) == 0.0

    def test_near_pole_from_rounding_snaps_to_zero(self):
        assert recip_gamma(1.4 - 0.6 * 9) == 0.0  # exactly -4 up to rounding

    def test_negative_non_integer(self):
        # Gamma(-0.5) = -2 sqrt(pi)
        assert recip_gamma(-0.5) == pytest.approx(-1.0 / (2.0 * math.sqrt(math.pi)),
                                                  rel=1e-13)

    def test_huge_argument_underflows_to_zero(self):
        assert recip_gamma(200.0) == 0.0

    @pytest.mark.parametrize("x", [3e-309, 1e-310, 5e-324])
    def test_tiny_argument_is_its_own_reciprocal(self, x):
        # Gamma(x) overflows there, yet 1/Gamma(x) = x (1 + 0.58 x + ...) rounds to x
        assert recip_gamma(x) == x
        assert ml_two(0.5, x, 0.0) == x


def oracle(alpha: float, beta: float, z: float, digits: int = 60) -> float:
    """E_{alpha,beta}(z) for z < 0 and 0 < alpha < 1, in mpmath.

    The series runs at ``digits`` plus the digits it loses to cancellation
    (about |z|^(1/alpha) / ln 10).  Where that exceeds 80 / ln 10 the tail
    expansion is summed instead, up to its smallest term; its error there is
    of order exp(-|z|^(1/alpha)) < 1e-34.
    """
    x_star = abs(z) ** (1.0 / alpha)
    if x_star <= 80.0:
        with mpmath.workdps(digits + int(x_star / math.log(10.0)) + 5):
            a, b, zz = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
            stop = mpmath.mpf(10) ** (-digits)
            total, zpow, k, small = mpmath.mpf(0), mpmath.mpf(1), 0, 0
            while small < 3:
                term = zpow * mpmath.rgamma(a * k + b)
                total += term
                zpow *= zz
                k += 1
                small = small + 1 if abs(term) < stop * abs(total) else 0
            return float(total)
    with mpmath.workdps(digits):
        a, b, zz = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        stop = mpmath.mpf(10) ** (-digits)
        total, previous, k = mpmath.mpf(0), mpmath.inf, 1
        while True:
            x = b - a * k  # 1/Gamma(x) = Gamma(1 - x) sin(pi x) / pi
            size = abs(zz) ** (-k) * (
                mpmath.gamma(1 - x) / mpmath.pi if x < 0.5 else mpmath.rgamma(x)
            )
            if size > previous or size < stop * abs(total):
                return float(total)
            total -= zz ** (-k) * mpmath.rgamma(x)
            previous, k = size, k + 1


class TestContourRoute:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999])
    def test_against_mpmath(self, alpha):
        for beta in (0.7, 0.9, 1.0, 1.4, 2.0):
            for z in -np.geomspace(0.1, 30.0, 9):
                want = oracle(alpha, beta, float(z))
                value, certified = mittag_leffler._contour(alpha, beta, float(z))
                assert certified, (beta, z)
                assert abs(value - want) <= REL_TOL * abs(want), (beta, z)
                assert ml_two(alpha, beta, float(z)) == value

    def test_boundedness_envelope_grid(self):
        # E_0.95(-eta t^0.95) at every 10th node of a step-0.05 run to t = 200
        alpha, eta = 0.95, 0.045
        for t in 0.05 * np.arange(1, 4001, 10):
            z = -eta * float(t) ** alpha
            want = oracle(alpha, 1.0, z)
            assert abs(ml_one(alpha, z) - want) <= 1e-13 * want, t

    def test_long_envelope_leaves_the_contour_correctly(self):
        # near order 1 the envelope values of long runs are small; the
        # contour's branch-point bound falls like 1/|z| with them, so the
        # contour certifies these points itself
        eta = 0.045
        for alpha in (0.99, 0.999):
            for t in 0.05 * np.arange(400, 40001, 400):  # every 400th node to t = 2000
                z = -eta * float(t) ** alpha
                want = oracle(alpha, 1.0, z)
                assert abs(ml_one(alpha, z) - want) <= REL_TOL * want, (alpha, t)

    @pytest.fixture
    def float64_only(self, monkeypatch):
        # a point the float64 contour refuses goes on at 20 or more digits
        contour = mittag_leffler._contour

        def float64(alpha, beta, z, digits=None):
            assert digits is None, f"float64 contour refused {(alpha, beta, z)}"
            return contour(alpha, beta, z)

        monkeypatch.setattr(mittag_leffler, "_contour", float64)

    @pytest.fixture
    def first_exit_only(self, monkeypatch):
        # the table's bound on the rounding decides without the magnitude sum
        def magnitude(nodes, z):
            raise AssertionError(f"the magnitude sum ran at z = {z}")

        monkeypatch.setattr(mittag_leffler, "_magnitude", magnitude)

    def test_long_envelope_never_leaves_the_contour(self, float64_only, first_exit_only):
        eta = 0.045
        for alpha in (0.99, 0.999):
            for t in 0.05 * np.arange(1, 40001):  # every node to t = 2000
                assert ml_one(alpha, -eta * float(t) ** alpha) > 0.0, (alpha, t)

    def test_envelope_never_reaches_mpmath(self, float64_only, first_exit_only):
        params = preset("example1").params
        traj = cached_solve(params, 0.95, State(30.0, 5.0, 200.0), 0.05, 200.0)
        assert traj.times.size == 4001
        cert = boundedness_certificate(params, traj)
        assert cert.envelope_checked
        assert cert.passed

    def test_large_beta_falls_back(self):
        # the branch point at s = 0 degrades the fixed contour as beta grows;
        # the error bound must then refuse and hand over to the other routes
        value, certified = mittag_leffler._contour(0.5, 6.0, -1e-6)
        assert not certified
        want = oracle(0.5, 6.0, -1e-6)
        assert abs(value - want) > REL_TOL * want
        assert ml_two(0.5, 6.0, -1e-6) == pytest.approx(want, rel=REL_TOL)


class TestDomain:
    # real z <= 0, 0 < alpha <= 1, 0 < beta <= 10: 432 grid points off order 1
    ALPHAS = (0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 0.999, 0.99999)
    BETAS = (0.05, 0.5, 1.0, 3.0, 6.0, 10.0)
    ARGUMENTS = tuple(float(z) for z in -np.geomspace(1e-6, 1e4, 9))

    @pytest.mark.parametrize("beta", BETAS)
    def test_grid_against_oracle(self, beta):
        for alpha in self.ALPHAS:
            for z in self.ARGUMENTS:
                want = oracle(alpha, beta, z)
                assert abs(ml_two(alpha, beta, z) - want) <= REL_TOL * abs(want), (alpha, z)

    @pytest.mark.parametrize("beta,closed_form", [
        (1.0, mpmath.exp),
        (2.0, lambda z: mpmath.expm1(z) / z),
        (3.0, lambda z: (mpmath.expm1(z) - z) / z**2),
    ])
    def test_order_one_against_closed_forms(self, beta, closed_form):
        with mpmath.workdps(50):
            for z in self.ARGUMENTS:
                want = float(closed_form(mpmath.mpf(z)))
                assert abs(ml_two(1.0, beta, z) - want) <= REL_TOL * abs(want), z

    @pytest.mark.parametrize("beta", (0.05, 0.3, 0.7, 1.5, 2.5, 4.0, 7.0, 10.0))
    def test_order_one_against_hypergeometric(self, beta):
        # E_{1,b}(z) = 1F1(1; b; z) / Gamma(b)
        with mpmath.workdps(50):
            for z in self.ARGUMENTS:
                want = float(mpmath.hyp1f1(1, beta, z) * mpmath.rgamma(beta))
                assert abs(ml_two(1.0, beta, z) - want) <= REL_TOL * abs(want), z

    @pytest.mark.parametrize("alpha,beta,z", [
        # the series once stopped after three terms here and returned -1.17e-157
        # (true value +7.30e-159) and 9.7537e-159 (true 9.7441e-159)
        (0.8, 101.0, -18.73817422860383),
        (0.5, 101.0, -1.0),
        # these raised a bare OverflowError
        (0.5, 102.0, -0.5),
        (1.0, 200.0, -3.0),
    ])
    def test_large_beta_rejected(self, alpha, beta, z):
        with pytest.raises(ValidationError, match=DOMAIN):
            ml_two(alpha, beta, z)


PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)


class TestHypothesisProperties:
    @PROPERTY_SETTINGS
    @given(
        a=st.floats(0.3, 1.0),
        b=st.floats(0.1, 3.0),
        z=st.floats(-40.0, 0.0),
    )
    def test_recurrence_identity(self, a, b, z):
        # E_{a,b}(z) = z E_{a,a+b}(z) + 1/Gamma(b)
        lhs = ml_two(a, b, z)
        rhs = z * ml_two(a, a + b, z) + 1.0 / math.gamma(b)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    @PROPERTY_SETTINGS
    @given(
        alpha=st.floats(0.1, 1.0),
        t=st.floats(0.0, 200.0),
        dt=st.floats(0.0, 50.0),
    )
    def test_monotone_decay(self, alpha, t, dt):
        # t -> E_alpha(-t) is positive and non-increasing; certified values
        # may each be off by REL_TOL relative
        near = ml_one(alpha, -t)
        far = ml_one(alpha, -(t + dt))
        assert far > 0.0
        assert far <= near * (1.0 + 2.0 * REL_TOL)


def two_sum_contour(alpha, beta, z, digits=None):
    """The contour and its verdict with the term magnitudes always summed."""
    nodes, near, far, eps, _ = mittag_leffler._contour_table(alpha, beta, digits)
    value = size = 0.0
    for power, weight in nodes:
        term = weight / (power - z)
        value += term.imag
        size += abs(term)
    branch = near if z > -1.0 else far / -z
    return value, branch + eps * size <= REL_TOL * abs(value)


@st.composite
def contour_points(draw):
    """(alpha, beta, z) with 0 < alpha < 1, 0 < beta <= 10 and z log-uniform in -[1e-8, 1e300]."""
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    beta = draw(st.floats(0.0, 10.0, exclude_min=True))
    return alpha, beta, -(10.0 ** draw(st.floats(-8.0, 300.0)))


class TestCertificate:
    @pytest.fixture
    def magnitude_calls(self, monkeypatch):
        calls = []
        magnitude = mittag_leffler._magnitude

        def spy(nodes, z):
            calls.append(z)
            return magnitude(nodes, z)

        monkeypatch.setattr(mittag_leffler, "_magnitude", spy)
        return calls

    @pytest.mark.parametrize("alpha,beta,z,certified,summed", [
        (0.95, 1.0, -6.9, True, False),  # certified by the table's bound
        (0.5, 6.0, -1e-6, False, False),  # refused by the branch-point bound alone
        (0.5, 1.0, -1e9, True, True),  # far tails: only the exact sum decides
        (0.95, 1.0, -1e12, True, True),
    ])
    def test_each_exit(self, magnitude_calls, alpha, beta, z, certified, summed):
        value, verdict = mittag_leffler._contour(alpha, beta, z)
        assert (value, verdict) == two_sum_contour(alpha, beta, z)
        assert verdict is certified
        assert magnitude_calls == ([z] if summed else [])

    @pytest.mark.parametrize("digits", [None, 20])
    @PROPERTY_SETTINGS
    @given(point=contour_points())
    def test_same_value_and_verdict_as_the_two_sums(self, digits, point):
        assert mittag_leffler._contour(*point, digits) == two_sum_contour(*point, digits)

    @pytest.mark.parametrize("digits", [None, 20])
    @PROPERTY_SETTINGS
    @given(point=contour_points(), zero=st.booleans())
    def test_reach_bounds_the_magnitude_sum(self, digits, point, zero):
        alpha, beta, z = point
        nodes, _, _, _, reach = mittag_leffler._contour_table(alpha, beta, digits)
        assert isinstance(reach, float)
        assert mittag_leffler._magnitude(nodes, 0.0 if zero else z) <= reach
