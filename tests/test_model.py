"""Model algebra: vector field, equilibria, thresholds, presets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracoepi.model import (
    EquilibriumKind,
    ModelParams,
    PRESETS,
    State,
    ValidationError,
    equilibria,
    equilibrium,
    preset,
    rhs,
    thresholds,
    vector_field,
)
from fracoepi.stability import classify_equilibrium

from conftest import model_params

# high-precision evaluations of the closed forms (frozen)
E2_REFERENCE = (18.666666666666666667, 16.410256410256410256, 0.0)
ESTAR_0189 = (22.272727272727272727, 13.636363636363636364, 2.978782581055308328)
ESTAR_05 = (35.71951219512195122, 3.2926829268292682927, 8.9983354688143504324)
THETA1 = 0.172265625
THETA2_AT_BASE = 0.804375
THETA2_SELF_AT_05 = 0.10138969616908850727
D1_THETA_008 = 0.041795918367346938776
D2_THETA_008 = 0.087521367521367521368
FOCUS_BOUNDARY = 1.9267845968170127797  # (1 + sqrt(1 + r/mu))/2 at r = 2, mu = 0.28


def expanded_thresholds(params):
    """d1, d2, theta1 in expanded form, with I1 written out: the oracle for thresholds."""
    r = params.growth_rate
    K = params.carrying_capacity
    lam = params.infection_rate
    mu = params.infected_death_rate
    a = params.half_saturation
    theta = params.conversion_efficiency
    d = params.predator_death_rate
    excess = lam * K - mu
    return (
        theta * r * excess / (a * lam * (lam * K + r) + r * excess),
        theta * r * excess / (a * lam * (r + lam * K)),
        d + lam * a * d * (r + lam * K) / (r * excess),
    )


def random_params(rng):
    return ModelParams(
        growth_rate=float(rng.uniform(0.1, 5.0)),
        carrying_capacity=float(rng.uniform(5.0, 100.0)),
        infection_rate=float(rng.uniform(0.001, 0.2)),
        predation_rate=float(rng.uniform(0.05, 2.0)),
        infected_death_rate=float(rng.uniform(0.02, 1.0)),
        half_saturation=float(rng.uniform(0.5, 50.0)),
        conversion_efficiency=float(rng.uniform(0.01, 1.0)),
        predator_death_rate=float(rng.uniform(0.005, 0.5)),
    )


class TestParams:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValidationError, match="growth_rate"):
            preset("example1").params.replace(growth_rate=0.0)
        with pytest.raises(ValidationError, match="predator_death_rate"):
            preset("example1").params.replace(predator_death_rate=-0.1)

    def test_rejects_conversion_above_one(self):
        with pytest.raises(ValidationError, match="conversion_efficiency"):
            preset("example1").params.replace(conversion_efficiency=1.5)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        params=model_params(),
        name=st.sampled_from(sorted(ModelParams.__dataclass_fields__)),
        bad=st.one_of(
            st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
            st.floats(max_value=0.0, allow_nan=False),
        ),
    )
    def test_rejects_each_field_at_zero_negative_infinite_and_nan(self, params, name, bad):
        with pytest.raises(ValidationError, match=f"^{name} "):
            params.replace(**{name: bad})

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(params=model_params(), theta=st.floats(min_value=1.0, exclude_min=True))
    def test_rejects_conversion_above_one_at_any_value(self, params, theta):
        with pytest.raises(ValidationError, match="^conversion_efficiency "):
            params.replace(conversion_efficiency=theta)

    def test_state_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            State(np.nan, 1.0, 1.0)

    def test_state_nonnegative_flag(self):
        assert State(1.0, 0.0, 2.0).nonnegative
        assert not State(1.0, -1e-9, 2.0).nonnegative


class TestVectorField:
    def test_zero_at_extinction(self, example1):
        assert np.array_equal(rhs(example1, State(0.0, 0.0, 0.0)), np.zeros(3))

    def test_zero_at_prey_only(self, example1):
        residual = rhs(example1, State(40.0, 0.0, 0.0))
        assert np.abs(residual).max() == 0.0

    def test_small_at_reported_coexistence_point(self, example1):
        # coordinates printed to 4 decimals upstream, residual inherits that
        params = example1.replace(conversion_efficiency=0.5)
        residual = rhs(params, State(35.7195, 3.2927, 8.9983))
        assert np.abs(residual).max() <= 1e-3

    def test_zero_at_every_existing_equilibrium(self):
        for name in PRESETS:
            params = preset(name).params
            for eq in equilibria(params):
                if eq.exists:
                    assert np.abs(rhs(params, eq.state)).max() < 1e-10, (name, eq.kind)

    def test_closure_matches_rhs(self, example1):
        f = vector_field(example1)
        state = np.array([12.0, 3.0, 4.0])
        assert np.array_equal(f(0.0, state), rhs(example1, state))
        states = np.random.default_rng(11).uniform(0.0, 80.0, size=(4, 6, 3))
        stacked = rhs(example1, states)
        for row, value in zip(states.reshape(-1, 3), stacked.reshape(-1, 3)):
            assert np.array_equal(f(0.0, row), value)

    def test_stacked_states_match_rows(self, example1):
        states = np.random.default_rng(5).uniform(0.0, 80.0, size=(4, 6, 3))
        stacked = rhs(example1, states)
        assert stacked.shape == states.shape
        for row, value in zip(states.reshape(-1, 3), stacked.reshape(-1, 3)):
            assert np.array_equal(rhs(example1, row), value)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_one_state_path_matches_stacked_path(self, data):
        # one state runs on Python floats, a stacked (3, n) state on numpy
        # arrays, and the float form the solver calls takes and gives lists;
        # all three must round identically, overflow and NaN included
        params = preset(data.draw(st.sampled_from(sorted(PRESETS)))).params
        component = st.floats(allow_nan=False, allow_infinity=False)
        infected = st.one_of(component, st.just(-params.half_saturation))
        y = np.array([data.draw(component), data.draw(infected), data.draw(component)])
        f = vector_field(params)
        with np.errstate(all="ignore"):
            one = f(0.0, y)
            stacked = f(0.0, y[:, None])[:, 0]
            floats = f.float_form(0.0, y.tolist())
        assert np.array_equal(one, stacked, equal_nan=True)
        assert [type(v) for v in floats] == [float] * 3
        assert np.array_equal(np.array(floats), stacked, equal_nan=True)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_one_state_path_at_vanishing_denominator(self, name):
        # I = -a makes a + I exactly zero: inf or NaN as numpy gives it, where
        # Python floats alone would raise ZeroDivisionError
        params = preset(name).params
        f = vector_field(params)
        for predator in (3.0, -3.0, 0.0):
            y = np.array([10.0, -params.half_saturation, predator])
            with np.errstate(all="ignore"):
                one = f(0.0, y)
                stacked = f(0.0, y[:, None])[:, 0]
                floats = f.float_form(0.0, y.tolist())
            assert np.array_equal(one, stacked, equal_nan=True)
            assert not np.isfinite(one[1:]).any()
            assert [type(v) for v in floats] == [float] * 3
            assert np.array(floats).tobytes() == stacked.tobytes()  # NaN bits included

    def test_rejects_wrong_component_count(self, example1):
        with pytest.raises(ValidationError):
            rhs(example1, np.ones((5, 2)))


class TestEquilibria:
    def test_always_four_in_order(self, example1):
        kinds = [e.kind for e in equilibria(example1)]
        assert kinds == [
            EquilibriumKind.EXTINCTION,
            EquilibriumKind.PREY_ONLY,
            EquilibriumKind.PREDATOR_FREE,
            EquilibriumKind.COEXISTENCE,
        ]

    def test_predator_free_coordinates(self, example1):
        e2 = equilibria(example1)[2]
        assert e2.exists
        assert e2.state.as_array() == pytest.approx(E2_REFERENCE, abs=1e-12)
        # matches the recorded two-decimal reference
        assert e2.state.susceptible == pytest.approx(18.67, abs=5e-3)
        assert e2.state.infected == pytest.approx(16.41, abs=5e-3)

    def test_coexistence_at_base_conversion(self, example1):
        estar = equilibria(example1)[3]
        assert estar.exists
        assert estar.state.as_array() == pytest.approx(ESTAR_0189, rel=1e-13)

    def test_coexistence_at_raised_conversion(self, example1):
        params = example1.replace(conversion_efficiency=0.5)
        estar = equilibria(params)[3]
        assert estar.state.as_array() == pytest.approx(ESTAR_05, rel=1e-13)
        assert estar.state.as_array() == pytest.approx(
            (35.7195, 3.2927, 8.9983), abs=5e-3
        )

    def test_interior_missing_when_conversion_too_low(self, example1):
        params = example1.replace(conversion_efficiency=0.08)  # below theta1
        estar = equilibria(params)[3]
        assert not estar.exists
        assert any(c.name == "theta > theta1" and not c.satisfied
                   for c in estar.conditions)

    def test_interior_undefined_when_conversion_equals_death(self, example1):
        params = example1.replace(conversion_efficiency=0.09)
        assert equilibrium(params, EquilibriumKind.COEXISTENCE).state is None
        estar = equilibria(params)[3]
        assert not estar.exists and estar.state is None

    def test_low_infectivity_removes_endemic_states(self):
        params = preset("example3").params  # R0 < 1
        e0, e1, e2, estar = equilibria(params)
        assert e0.exists and e1.exists
        assert not e2.exists and not estar.exists

    def test_existing_equilibria_positive_on_random_draws(self):
        rng = np.random.default_rng(11)
        count = 0
        for _ in range(1000):
            params = random_params(rng)
            for eq in equilibria(params):
                if not eq.exists:
                    continue
                assert np.abs(rhs(params, eq.state)).max() < 1e-10
                if eq.kind is EquilibriumKind.COEXISTENCE:
                    count += 1
                    assert np.all(eq.state.as_array() > 0.0)
        assert count > 20  # the draw domain hits genuine coexistence cases

    @given(model_params())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_flags_are_the_strict_comparisons_they_name(self, params):
        th = thresholds(params)
        theta, theta1 = params.conversion_efficiency, th.conversion_existence
        expected = {
            "R0 > 1": th.reproduction_number > 1.0,
            "theta > d": theta > params.predator_death_rate,
            "theta > theta1": theta1 is not None and theta > theta1,
        }
        named = {
            EquilibriumKind.EXTINCTION: [],
            EquilibriumKind.PREY_ONLY: [],
            EquilibriumKind.PREDATOR_FREE: ["R0 > 1"],
            EquilibriumKind.COEXISTENCE: ["R0 > 1", "theta > d", "theta > theta1"],
        }
        for eq in equilibria(params):
            assert [c.name for c in eq.conditions] == named[eq.kind]
            for c in eq.conditions:
                assert c.satisfied is expected[c.name], (eq.kind, c)
                if c.margin is None:  # only theta1 can be undefined, and it says why
                    assert c.name == "theta > theta1"
                    assert c.undefined == th.undefined["conversion_existence"]
                else:
                    assert c.undefined == ""
            assert eq.exists is all(expected[name] for name in named[eq.kind])

    def test_lookup_matches_listing(self, example1):
        undefined = example1.replace(conversion_efficiency=example1.predator_death_rate)
        for params in [preset(name).params for name in PRESETS] + [undefined]:
            for listed in equilibria(params):
                assert equilibrium(params, listed.kind) == listed

    def test_equilibria_depend_only_on_params(self, example1):
        first = [e.state.as_array() for e in equilibria(example1) if e.state]
        second = [e.state.as_array() for e in equilibria(example1) if e.state]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestThresholds:
    def test_reproduction_number(self, example1):
        assert thresholds(example1).reproduction_number == pytest.approx(
            2.1428571428571429, rel=1e-14
        )
        assert thresholds(example1).reproduction_number == pytest.approx(2.1428, abs=5e-4)

    def test_low_infectivity_reproduction_number(self):
        th = thresholds(preset("example3").params)
        assert th.reproduction_number == pytest.approx(0.7143, abs=5e-4)
        assert th.predator_death_local is None
        assert th.conversion_existence is None
        assert th.undefined["conversion_existence"] == "needs R0 > 1"

    def test_conversion_thresholds(self, example1):
        th = thresholds(example1)
        assert th.conversion_existence == pytest.approx(THETA1, rel=1e-14)
        assert th.conversion_global == pytest.approx(THETA2_AT_BASE, rel=1e-14)
        assert th.conversion_existence == pytest.approx(0.1723, abs=5e-4)
        assert th.conversion_global == pytest.approx(0.8044, abs=5e-4)

    def test_theta2_conventions(self, example1):
        raised = example1.replace(conversion_efficiency=0.5)
        self_consistent = thresholds(raised)
        assert self_consistent.conversion_global == pytest.approx(
            THETA2_SELF_AT_05, rel=1e-13
        )
        # theta enters theta2 only through S*: S* held at the base example's level
        referenced = thresholds(
            raised.replace(conversion_efficiency=example1.conversion_efficiency)
        )
        assert referenced.conversion_global == pytest.approx(THETA2_AT_BASE, rel=1e-13)

    def test_predator_death_thresholds(self, example1):
        params = example1.replace(conversion_efficiency=0.08)
        th = thresholds(params)
        assert th.predator_death_local == pytest.approx(D1_THETA_008, rel=1e-13)
        assert th.predator_death_global == pytest.approx(D2_THETA_008, rel=1e-13)
        assert th.predator_death_global == pytest.approx(0.0875, abs=5e-4)
        # d = 0.09 exceeds d2: global stability of the predator-free state
        assert params.predator_death_rate > th.predator_death_global

    def test_local_below_global_on_random_draws(self):
        rng = np.random.default_rng(23)
        seen = 0
        for _ in range(1000):
            th = thresholds(random_params(rng))
            if th.predator_death_local is not None:
                seen += 1
                assert th.predator_death_local < th.predator_death_global
        assert seen > 200

    def test_focus_boundary(self, example1):
        assert thresholds(example1).focus_boundary == pytest.approx(FOCUS_BOUNDARY, rel=1e-15)

    def test_focus_boundary_separates_real_and_complex_spectra_of_e2(self):
        rng = np.random.default_rng(29)
        seen = {True: 0, False: 0}
        for _ in range(2000):
            params = random_params(rng)
            th = thresholds(params)
            r0, boundary = th.reproduction_number, th.focus_boundary
            if r0 <= 1.0 or abs(r0 / boundary - 1.0) < 1e-6:
                continue
            e2 = equilibrium(params, EquilibriumKind.PREDATOR_FREE)
            complex_pair = classify_equilibrium(params, e2, 1.0).spectrum.has_complex_pair
            assert complex_pair == (r0 > boundary)
            seen[complex_pair] += 1
        assert min(seen.values()) > 100  # both sides of the boundary are drawn

    def test_thresholds_match_expanded_forms(self):
        rng = np.random.default_rng(31)
        seen = 0
        for _ in range(2000):
            params = random_params(rng)
            th = thresholds(params)
            if th.reproduction_number <= 1.0:
                assert th.predator_death_local is None
                continue
            seen += 1
            computed = (
                th.predator_death_local,
                th.predator_death_global,
                th.conversion_existence,
            )
            assert computed == pytest.approx(expanded_thresholds(params), rel=1e-13)
        assert seen > 1000

    def test_existence_threshold_is_positivity_of_interior_state(self):
        rng = np.random.default_rng(37)
        seen = {True: 0, False: 0}
        for _ in range(2000):
            params = random_params(rng)
            th = thresholds(params)
            if th.reproduction_number <= 1.0:
                continue
            theta1 = th.conversion_existence
            if abs(params.conversion_efficiency / theta1 - 1.0) < 1e-9:
                continue
            interior = equilibrium(params, EquilibriumKind.COEXISTENCE).state
            positive = interior is not None and bool(np.all(interior.as_array() > 0.0))
            assert positive == (params.conversion_efficiency > theta1)
            seen[positive] += 1
        assert min(seen.values()) > 100

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(params=model_params())
    def test_reason_for_exactly_the_undefined_fields(self, params):
        th = thresholds(params)
        optional = ("predator_death_local", "predator_death_global",
                    "conversion_existence", "conversion_global")
        assert set(th.undefined) == {n for n in optional if getattr(th, n) is None}
        assert all(th.undefined.values())
        assert hash(th) == hash(thresholds(params))  # the frozen record stays hashable

    def test_each_theta2_reason(self, example1):
        # example1: R0 = 2.14, d = 0.09; theta = 0.1 puts S* at -135.5
        cases = {
            0.09: "S* undefined at theta = d",
            0.05: "no E* at theta < d: I* < 0",
            0.1: "empty bracket: 2K(lambda*S* - mu) <= r",
        }
        for theta, reason in cases.items():
            th = thresholds(example1.replace(conversion_efficiency=theta))
            assert th.undefined == {"conversion_global": reason}
        low = thresholds(example1.replace(infection_rate=0.005))  # R0 < 1
        assert set(low.undefined.values()) == {"needs R0 > 1"}
        assert thresholds(example1).undefined == {}

    def test_theta2_empty_bracket_flagged(self, example1):
        # push S* down so 2K(lambda S* - mu) <= r
        params = example1.replace(conversion_efficiency=0.9999)
        th = thresholds(params)
        low_interior = equilibrium(params, EquilibriumKind.COEXISTENCE).state
        denom = (
            2.0 * params.carrying_capacity
            * (params.infection_rate * low_interior.susceptible
               - params.infected_death_rate)
            - params.growth_rate
        )
        if denom <= 0:
            assert th.conversion_global is None
            assert "bracket" in th.undefined["conversion_global"]
        else:
            assert th.conversion_global is not None


class TestPresets:
    def test_expected_names(self):
        assert set(PRESETS) == {
            "example1", "example1-unstable", "example1-global", "example2", "example3",
        }

    def test_variant_fields(self):
        assert preset("example2").params.conversion_efficiency == 0.08
        assert preset("example3").params.infection_rate == 0.005
        unstable = preset("example1-unstable").params
        assert unstable.carrying_capacity == 200.0
        assert unstable.infection_rate == 0.15
        assert unstable.half_saturation == 5.0
        assert unstable.conversion_efficiency == 0.9

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError, match="unknown preset"):
            preset("example9")

    def test_initial_states_positive_and_distinct(self):
        for p in PRESETS.values():
            arrays = [s.as_array() for s in p.initial_states]
            for arr in arrays:
                assert np.all(arr > 0.0)
            for i in range(len(arrays)):
                for j in range(i + 1, len(arrays)):
                    assert not np.array_equal(arrays[i], arrays[j])
