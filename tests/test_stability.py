"""Jacobians, cubic roots, discriminants and the fractional stability test."""

import itertools
import math
import re

import numpy as np
import pytest

import fracoepi
from fracoepi import model, stability
from fracoepi.model import (
    PRESETS,
    EquilibriumKind,
    ModelParams,
    State,
    ValidationError,
    equilibria,
    equilibrium,
    preset,
    rhs,
    thresholds,
)
from fracoepi.stability import (
    CubicCharacteristic,
    EigenSpectrum,
    characteristic_cubic,
    classify_equilibrium,
    cubic_roots,
    jacobian,
    matignon_check,
    coefficient_case,
)

# frozen high-precision evaluations (closed forms + polyroots at 60 digits)
EX1_CUBIC = (1.0878787878787879, 0.26999146005509642, 0.0028397727272727273)
EX1_DISCRIMINANT = 0.0077170117614875638
EX1_ROUTH = 0.29087820957508974
EX1_ROOTS = (-0.71668480633780637, -0.36019329572114776, -0.011000685819833750)
UNSTABLE_CUBIC = (-0.92755555555555556, -0.57753925925925926, 4.394256)
UNSTABLE_DISCRIMINANT = -463.89954159432883
UNSTABLE_REAL_ROOT = -1.4771922134352239
UNSTABLE_PAIR = complex(1.2023738844953897, 1.2365405218807486)
UNSTABLE_PAIR_ARG = 0.79940620012187852
COEXISTENCE = EquilibriumKind.COEXISTENCE
# what each coefficient case (i)-(iv) predicts, per the hypothesis sets of
# coefficient_case: the oracle a verdict's eigenvalue criterion must match
CASE_PREDICTS_STABLE = {"i": True, "ii": True, "iii": False, "iv": True}


def random_spectrum(rng):
    """Three eigenvalues: either all real or one real plus a conjugate pair."""
    if rng.uniform() < 0.5:
        values = rng.uniform(-3.0, 3.0, size=3).astype(complex)
    else:
        real = complex(rng.uniform(-3.0, 3.0))
        pair = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0))
        values = np.array([real, pair, pair.conjugate()])
    return EigenSpectrum(eigenvalues=np.sort_complex(values))


def hand_jacobian(params, state):
    """The Jacobian derived by hand: the oracle for the complex-step one."""
    s, i, p = state
    r = params.growth_rate
    K = params.carrying_capacity
    lam = params.infection_rate
    m = params.predation_rate
    a = params.half_saturation
    theta = params.conversion_efficiency
    den = (a + i) ** 2
    return np.array(
        [
            [r * (1.0 - (2.0 * s + i) / K) - lam * i, -(r / K + lam) * s, 0.0],
            [lam * i, lam * s - m * a * p / den - params.infected_death_rate,
             -m * i / (a + i)],
            [0.0, theta * a * p / den, theta * i / (a + i) - params.predator_death_rate],
        ]
    )


def paper_cubic(params, estar):
    """The paper's closed-form A1-A3, simplified with E*'s identities."""
    s, i, p = estar.susceptible, estar.infected, estar.predator
    r = params.growth_rate
    K = params.carrying_capacity
    lam = params.infection_rate
    m = params.predation_rate
    a = params.half_saturation
    d = params.predator_death_rate
    den = (a + i) ** 2
    a1 = r * s / K - m * i * p / den
    a2 = (
        a * m * d * p / den
        + r * lam * i * s / K
        + lam**2 * i * s
        - r * m * s * i * p / (K * den)
    )
    a3 = r * m * d * a * s * p / (K * den)
    return a1, a2, a3


def random_params(rng):
    """Rates log-uniform on [1e-2, 1e2], conversion efficiency on [0.01, 1]."""
    rates = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size=7)).tolist()
    return ModelParams(*rates[:6], float(rng.uniform(0.01, 1.0)), rates[6])


class TestJacobian:
    def test_one_function_under_every_name(self):
        assert fracoepi.jacobian is stability.jacobian is model.jacobian

    def test_matches_hand_derived_matrix(self):
        rng = np.random.default_rng(11)
        for name in sorted(PRESETS):
            params = preset(name).params
            states = [eq.state.as_array() for eq in equilibria(params) if eq.exists]
            states += list(rng.uniform(0.0, 100.0, size=(200, 3)))
            for state in states:
                want = hand_jacobian(params, state)
                gap = np.abs(jacobian(params, state) - want)
                assert np.all(gap <= 1e-12 * np.abs(want).max(axis=0)), (name, state)

    @pytest.mark.parametrize("state", [[1.0, 2.0], np.ones((1, 3)), np.ones(4)])
    def test_rejects_a_state_without_three_components(self, example1, state):
        with pytest.raises(ValidationError, match=re.escape(f"shape {np.shape(state)}")):
            jacobian(example1, state)

    def test_extinction_is_diagonal(self, example1):
        j = jacobian(example1, State(0.0, 0.0, 0.0))
        assert np.array_equal(j, np.diag([2.0, -0.28, -0.09]))

    def test_prey_only_eigenvalues_read_off(self, example1):
        j = jacobian(example1, State(40.0, 0.0, 0.0))
        eigen = np.sort(np.linalg.eigvals(j).real)
        assert eigen == pytest.approx(sorted([-2.0, 0.015 * 40 - 0.28, -0.09]),
                                      rel=1e-12)

    def test_interior_structure(self, example1):
        estar = equilibrium(example1, COEXISTENCE).state
        j = jacobian(example1, estar)
        assert j[0, 2] == 0.0
        assert abs(j[2, 2]) < 1e-14  # theta I*/(a+I*) - d vanishes at E*
        assert j[1, 2] == pytest.approx(
            -example1.predation_rate * example1.predator_death_rate
            / example1.conversion_efficiency,
            rel=1e-12,
        )

    def test_matches_central_differences(self, example1):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(100):
            state = rng.uniform(0.1, 60.0, size=3)
            analytic = jacobian(example1, state)
            numeric = np.empty((3, 3))
            for col in range(3):
                bump = np.zeros(3)
                bump[col] = h
                numeric[:, col] = (
                    rhs(example1, state + bump) - rhs(example1, state - bump)
                ) / (2.0 * h)
            assert np.abs(analytic - numeric).max() <= 1e-5


class TestCharacteristicCubic:
    def test_example1_coefficients(self, example1):
        cubic = characteristic_cubic(example1, equilibrium(example1, COEXISTENCE).state)
        assert (cubic.a1, cubic.a2, cubic.a3) == pytest.approx(EX1_CUBIC, rel=1e-12)
        assert cubic.discriminant == pytest.approx(EX1_DISCRIMINANT, rel=1e-10)
        assert cubic.routh_product == pytest.approx(EX1_ROUTH, rel=1e-12)

    def test_unstable_coefficients(self):
        params = preset("example1-unstable").params
        cubic = characteristic_cubic(params, equilibrium(params, COEXISTENCE).state)
        assert (cubic.a1, cubic.a2, cubic.a3) == pytest.approx(UNSTABLE_CUBIC, rel=1e-12)
        assert cubic.discriminant == pytest.approx(UNSTABLE_DISCRIMINANT, rel=1e-12)

    def test_matches_jacobian_charpoly(self, example1):
        estar = equilibrium(example1, COEXISTENCE).state
        cubic = characteristic_cubic(example1, estar)
        from_matrix = np.poly(jacobian(example1, estar))  # monic, degree 3
        assert from_matrix[1:] == pytest.approx(
            (cubic.a1, cubic.a2, cubic.a3), rel=1e-9, abs=1e-12
        )

    def test_matches_paper_closed_form(self):
        # each coefficient against the size of the terms of J that form it
        rng = np.random.default_rng(23)
        leibniz = list(itertools.permutations(range(3)))
        minors = [(0, 1), (0, 2), (1, 2)]
        drawn = 0
        while drawn < 1000:
            params = random_params(rng)
            eq = equilibrium(params, COEXISTENCE)
            if not eq.exists:
                continue
            drawn += 1
            j = np.abs(jacobian(params, eq.state))
            scales = (
                np.trace(j),
                sum(j[x, x] * j[y, y] + j[x, y] * j[y, x] for x, y in minors),
                sum(j[0, q[0]] * j[1, q[1]] * j[2, q[2]] for q in leibniz),
            )
            cubic = characteristic_cubic(params, eq.state)
            got = (cubic.a1, cubic.a2, cubic.a3)
            for value, want, scale in zip(got, paper_cubic(params, eq.state), scales):
                assert abs(value - want) <= 1e-10 * scale, (params, got)

    def test_rejects_nonpositive_coordinates(self, example1):
        with pytest.raises(ValueError):
            characteristic_cubic(example1, State(1.0, -0.5, 2.0))

    def test_zero_cubic_has_zero_discriminant(self):
        assert CubicCharacteristic(0.0, 0.0, 0.0).discriminant == 0.0


class TestCubicRoots:
    def test_distinct_integer_roots(self):
        spectrum = cubic_roots(CubicCharacteristic(-6.0, 11.0, -6.0))
        assert np.sort(spectrum.eigenvalues.real) == pytest.approx([1.0, 2.0, 3.0],
                                                                   rel=1e-12)
        assert not spectrum.has_complex_pair

    def test_real_plus_unit_imaginary_pair(self):
        spectrum = cubic_roots(CubicCharacteristic(1.0, 1.0, 1.0))
        real = [z for z in spectrum.eigenvalues if z.imag == 0.0]
        pair = sorted((z for z in spectrum.eigenvalues if z.imag != 0.0),
                      key=lambda z: z.imag)
        assert len(real) == 1 and real[0].real == pytest.approx(-1.0, rel=1e-12)
        assert pair[1] == pytest.approx(1j, abs=1e-12)
        assert pair[0] == pair[1].conjugate()  # exact conjugation

    def test_frozen_example1_roots(self, example1):
        cubic = characteristic_cubic(example1, equilibrium(example1, COEXISTENCE).state)
        roots = np.sort(cubic_roots(cubic).eigenvalues.real)
        assert roots == pytest.approx(sorted(EX1_ROOTS), rel=1e-9)

    def test_frozen_unstable_roots(self):
        params = preset("example1-unstable").params
        estar = equilibrium(params, COEXISTENCE).state
        spectrum = cubic_roots(characteristic_cubic(params, estar))
        real = [z for z in spectrum.eigenvalues if z.imag == 0.0]
        pair = [z for z in spectrum.eigenvalues if z.imag > 0.0]
        assert real[0].real == pytest.approx(UNSTABLE_REAL_ROOT, rel=1e-10)
        assert pair[0] == pytest.approx(UNSTABLE_PAIR, rel=1e-10)

    def test_residuals_small_on_random_cubics(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            cubic = CubicCharacteristic(*rng.uniform(-3.0, 3.0, size=3))
            spectrum = cubic_roots(cubic)
            scale = max(1.0, abs(cubic.a1), abs(cubic.a2), abs(cubic.a3))
            for z in spectrum.eigenvalues:
                assert abs(np.polyval(cubic.coefficients(), z)) < 1e-9 * scale

    def test_discriminant_matches_root_form(self):
        # determinant expansion vs [(x1-x2)(x1-x3)(x2-x3)]^2
        rng = np.random.default_rng(29)
        for _ in range(1000):
            cubic = CubicCharacteristic(*rng.uniform(-3.0, 3.0, size=3))
            x1, x2, x3 = cubic_roots(cubic).eigenvalues
            root_form = ((x1 - x2) * (x1 - x3) * (x2 - x3)) ** 2
            assert abs(root_form.imag) < 1e-8 * max(1.0, abs(root_form))
            gap = abs(cubic.discriminant - root_form.real)
            assert gap <= 1e-6 * max(1.0, abs(cubic.discriminant), abs(root_form.real))

    def test_discriminant_sign_tracks_root_structure(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            cubic = CubicCharacteristic(*rng.uniform(-3.0, 3.0, size=3))
            spectrum = cubic_roots(cubic)
            x1, x2, x3 = spectrum.eigenvalues
            root_form = (((x1 - x2) * (x1 - x3) * (x2 - x3)) ** 2).real
            if spectrum.has_complex_pair:
                assert root_form <= 0.0
            else:
                assert root_form > 0.0 or cubic.discriminant == pytest.approx(
                    0.0, abs=1e-9
                )


class TestMatignon:
    def test_negative_reals_stable_at_any_order(self):
        spectrum = EigenSpectrum(np.array([-1.0, -2.0, -3.0], dtype=complex))
        for alpha in (0.1, 0.5, 0.9, 1.0):
            result = matignon_check(spectrum, alpha)
            assert result.stable is True
            assert result.critical_order == 1.0

    def test_positive_real_unstable_at_any_order(self):
        spectrum = EigenSpectrum(np.array([2.0, -0.28, -0.09], dtype=complex))
        for alpha in (0.05, 0.5, 1.0):
            result = matignon_check(spectrum, alpha)
            assert result.stable is False
        assert matignon_check(spectrum, 0.5).critical_order == 0.0

    def test_imaginary_pair_marginal_exactly_at_one(self):
        spectrum = EigenSpectrum(np.array([-1.0, 1j, -1j]))
        assert matignon_check(spectrum, 0.99).stable is True
        boundary = matignon_check(spectrum, 1.0)
        assert boundary.marginal and boundary.stable is None
        assert boundary.critical_order == 1.0

    def test_zero_eigenvalue_is_marginal(self):
        spectrum = EigenSpectrum(np.array([0.0, -1.0, -2.0], dtype=complex))
        result = matignon_check(spectrum, 0.7)
        assert result.marginal and result.stable is None
        assert result.critical_order == 0.0
        assert result.margin == -0.7 * math.pi / 2.0

    def test_rejects_bad_order(self):
        spectrum = EigenSpectrum(np.array([-1.0, -2.0, -3.0], dtype=complex))
        with pytest.raises(ValueError):
            matignon_check(spectrum, 1.5)

    def test_order_monotonicity(self):
        # stable at some order implies stable at every smaller order
        rng = np.random.default_rng(41)
        alphas = np.linspace(0.05, 1.0, 20)
        for _ in range(1000):
            spectrum = random_spectrum(rng)
            if spectrum.has_zero:
                continue
            verdicts = [matignon_check(spectrum, float(a)) for a in alphas]
            stable_flags = [v.stable for v in verdicts if not v.marginal]
            # increasing the order can only lose stability, never gain it
            for earlier, later in zip(stable_flags, stable_flags[1:]):
                assert not (later and not earlier)

    def test_integer_order_agrees_with_real_parts(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            spectrum = random_spectrum(rng)
            if spectrum.has_zero:
                continue
            result = matignon_check(spectrum, 1.0)
            if result.marginal:
                continue
            classical = bool(np.max(spectrum.eigenvalues.real) < 0.0)
            assert result.stable == classical


class TestClassification:
    def test_extinction_always_unstable(self, example1):
        e0 = equilibria(example1)[0]
        for alpha in (0.3, 0.6, 1.0):
            verdict = classify_equilibrium(example1, e0, alpha)
            assert verdict.label == "unstable"
            assert verdict.stable is False

    def test_extinction_unstable_for_random_parameters_and_orders(self):
        # E0's Jacobian has the eigenvalue r > 0, so no order makes it stable:
        # verify never takes E0 as its convergence or Lyapunov target
        rng = np.random.default_rng(2023)
        names = [n for n in ModelParams.__dataclass_fields__ if n != "conversion_efficiency"]
        for _ in range(2000):
            fields = dict(zip(names, 10.0 ** rng.uniform(-3.0, 3.0, size=len(names))))
            fields["conversion_efficiency"] = 1.0 - rng.uniform(0.0, 0.999)
            params = ModelParams(**fields)
            alpha = 1.0 - rng.uniform(0.0, 0.999)
            e0 = equilibrium(params, EquilibriumKind.EXTINCTION)
            assert classify_equilibrium(params, e0, alpha).stable is False

    def test_prey_only_stable_when_infection_dies(self):
        params = preset("example3").params
        e1 = equilibria(params)[1]
        verdict = classify_equilibrium(params, e1, 0.9)
        assert verdict.stable is True
        assert verdict.label == "stable-node"

    def test_prey_only_unstable_when_endemic(self, example1):
        verdict = classify_equilibrium(example1, equilibria(example1)[1], 0.9)
        assert verdict.stable is False and verdict.label == "unstable"

    def test_predator_free_focus_under_low_conversion(self):
        params = preset("example2").params  # d above d1: stable; pair present
        verdict = classify_equilibrium(params, equilibria(params)[2], 0.85)
        assert verdict.stable is True
        assert verdict.label == "stable-focus"

    def test_example1_interior_stable_case_i_for_all_orders(self, example1):
        estar = equilibria(example1)[3]
        for alpha in (0.3, 0.6, 2.0 / 3.0, 0.85, 0.95, 1.0):
            verdict = classify_equilibrium(example1, estar, alpha)
            assert verdict.stable is True
            assert verdict.case == "i"
            assert CASE_PREDICTS_STABLE[verdict.case] == verdict.stable
            assert verdict.label == "stable-node"
            assert verdict.critical_order == 1.0

    def test_unstable_interior_case_iii_above_two_thirds(self):
        params = preset("example1-unstable").params
        estar = equilibria(params)[3]
        verdict = classify_equilibrium(params, estar, 0.85)
        assert verdict.stable is False
        assert verdict.case == "iii"
        assert CASE_PREDICTS_STABLE[verdict.case] == verdict.stable
        assert verdict.label == "unstable-focus"
        expected_critical = 2.0 * UNSTABLE_PAIR_ARG / math.pi
        assert verdict.critical_order == pytest.approx(expected_critical, rel=1e-9)

    def test_unstable_interior_fractionally_stabilized_below_critical(self):
        # below the critical order the pair with positive real part is
        # inside the stable sector: stable only through the fractional test
        params = preset("example1-unstable").params
        estar = equilibria(params)[3]
        verdict = classify_equilibrium(params, estar, 0.45)
        assert verdict.stable is True
        assert verdict.label == "stable-matignon"
        assert verdict.case is None

    def test_case_ii_not_claimed_when_hypotheses_fail(self):
        params = preset("example1-unstable").params
        cubic = characteristic_cubic(params, equilibrium(params, COEXISTENCE).state)
        assert coefficient_case(cubic, 0.6) is None  # A1 < 0, A2 < 0

    def test_case_tags_on_synthetic_cubics(self):
        stable_i = CubicCharacteristic(6.0, 11.0, 6.0)  # roots -1, -2, -3
        assert stable_i.discriminant > 0.0
        assert coefficient_case(stable_i, 0.5) == "i"
        # (x+1)(x^2+2): D < 0, non-negative coefficients, A1*A2 == A3
        case_ii = CubicCharacteristic(1.0, 2.0, 2.0)
        assert case_ii.discriminant < 0.0
        assert coefficient_case(case_ii, 0.5) == "ii"   # order below 2/3
        assert coefficient_case(case_ii, 0.9) == "iv"   # equality case kicks in
        # distinct case (iv) instance, purely imaginary pair: (x+b)(x^2+g^2)
        b, gamma = 1.5, 2.0
        case_iv = CubicCharacteristic(b, gamma**2, b * gamma**2)
        assert coefficient_case(case_iv, 0.7) == "iv"
        assert coefficient_case(case_iv, 1.0) is None  # order must be below one

    def test_rejects_missing_equilibrium(self):
        params = preset("example3").params
        estar = equilibria(params)[3]
        with pytest.raises(ValueError):
            classify_equilibrium(params, estar, 0.9)

    def test_marginal_at_zero_eigenvalue_boundary(self, example1):
        # tune d to d1 so the predator-free state has a zero eigenvalue
        params = example1.replace(conversion_efficiency=0.08)
        from fracoepi.model import thresholds as th

        d1 = th(params).predator_death_local
        boundary = params.replace(predator_death_rate=d1)
        e2 = equilibria(boundary)[2]
        verdict = classify_equilibrium(boundary, e2, 0.9)
        assert verdict.label == "marginal"
        assert verdict.stable is None

    def test_predator_free_stable_exactly_above_d1(self):
        # the paper's local threshold d1 against the spectrum of the one Jacobian
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 2000:
            params = random_params(rng)
            th = thresholds(params)
            if th.reproduction_number <= 1.0:
                continue
            d1 = th.predator_death_local
            params = params.replace(predator_death_rate=d1 * 10.0 ** rng.uniform(-1, 1))
            if abs(params.predator_death_rate - d1) < 1e-6 * d1:
                continue
            checked += 1
            e2 = equilibrium(params, EquilibriumKind.PREDATOR_FREE)
            verdict = classify_equilibrium(params, e2, 1.0)
            assert verdict.stable is (params.predator_death_rate > d1), params

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_stored_verdict_is_the_matignon_verdict(self, name):
        params = preset(name).params
        for eq in equilibria(params):
            if not eq.exists or eq.state is None:
                continue
            for alpha in (0.3, 0.6, 2.0 / 3.0, 0.85, 0.95, 1.0):
                verdict = classify_equilibrium(params, eq, alpha)
                assert verdict.stable is matignon_check(verdict.spectrum, alpha).stable
                assert (verdict.stable is None) == (verdict.label == "marginal")
                assert verdict.label.startswith("stable") == (verdict.stable is True)
