"""Trajectory verification: positivity, boundedness, Lyapunov decrease.

The global-stability scenario runs reuse the long cached solves shared with
the acceptance suite; the well-posedness grid below runs every preset at
step 0.05 over a 500-long span across the order grid.
"""

import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_trajectory, model_params, preset_run, scenario_run
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
)
from fracoepi.reproduce import GLOBAL_SCENARIOS, GlobalScenario
from fracoepi.runs import cached_solve
from fracoepi.solver import NODE_CAP, SolverConfig, Trajectory
from fracoepi.stability import classify_equilibrium, jacobian
from fracoepi.trajectory_io import load_trajectory_csv, save_trajectory_csv
from fracoepi.verification import (
    _lyapunov_weights,
    boundedness_certificate,
    check_nonnegativity,
    convergence_check,
    empirical_lipschitz_ratio,
    lipschitz_bound,
    lyapunov_monotonicity,
)

# V((30,5,10)) against the predator-free target of the low-conversion preset,
# S weight lambda K/(lambda K + r), evaluated in 60-digit arithmetic
LYAPUNOV_E2_REFERENCE = 73.66438396957953215

WELLPOSED_ALPHAS = (0.75, 0.85, 0.90, 0.95, 1.0)

# the no-clipping scheme undershoots zero at step 0.05 on the unstable
# preset's near-zero crashes for high orders; refining the step resolves it
# (measured minima: -7.9e-3 at h=0.05 vs +2.0e-2 at h=0.025 for order 0.95)
UNDERSHOOT_AT_COARSE_STEP = {("example1-unstable", 0.95), ("example1-unstable", 1.0)}


def nan_trajectory(row: int, state=(30.0, 5.0, 10.0), n_nodes: int = 50) -> Trajectory:
    """Constant run at ``state`` whose S is NaN at node ``row``."""
    states = np.tile(state, (n_nodes, 1))
    states[row, 0] = np.nan
    return Trajectory(times=0.05 * np.arange(n_nodes), states=states, order=0.9)


class TestNonnegativity:
    def test_constant_zero_passes_with_zero_undershoot(self):
        traj = constant_trajectory(np.zeros(3))
        report = check_nonnegativity(traj)
        assert report.passed
        assert np.array_equal(report.worst_undershoot, np.zeros(3))

    def test_negated_component_detected(self):
        traj = preset_run("example1", 0.95, t_end=50.0)
        flipped = Trajectory(
            times=traj.times.copy(),
            states=traj.states * np.array([1.0, -1.0, 1.0]),
            order=traj.order,
        )
        report = check_nonnegativity(flipped)
        assert not report.passed
        assert report.worst_undershoot[1] > 1.0
        assert np.array_equal(report.worst_undershoot[[0, 2]], np.zeros(2))

    def test_undershoot_limit_is_inclusive(self):
        assert check_nonnegativity(constant_trajectory(np.full(3, -1e-8))).passed
        below = np.nextafter(-1e-8, -1.0)
        assert not check_nonnegativity(constant_trajectory(np.full(3, below))).passed

    @pytest.mark.parametrize("row", [0, 1])
    def test_nan_state_fails(self, row):
        report = check_nonnegativity(nan_trajectory(row))
        assert not report.passed
        assert math.isnan(report.worst_undershoot[0])

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("alpha", WELLPOSED_ALPHAS)
    def test_wellposed_grid(self, name, alpha, request):
        if (name, alpha) in UNDERSHOOT_AT_COARSE_STEP:
            request.node.add_marker(
                pytest.mark.xfail(
                    reason="discretization undershoot at step 0.05 near the "
                    "near-zero crash of the growing oscillations; positive "
                    "under step refinement (see the step-0.05 undershoot decision "
                    "in CHANGES.md)",
                    strict=True,
                )
            )
        traj = preset_run(name, alpha, t_end=500.0)
        assert check_nonnegativity(traj).passed


class TestBoundedness:
    def test_example1_certificate_numbers(self, example1):
        traj = preset_run("example1", 0.95)
        cert = boundedness_certificate(example1, traj)
        # l = K (r+eta)^2 / (4r) and the absorbing bound l/eta
        assert cert.bound * cert.eta == pytest.approx(20.910125, rel=1e-12)
        assert cert.bound == pytest.approx(464.669444444444, rel=1e-12)
        assert cert.bound == pytest.approx(464.7, abs=0.05)
        assert cert.passed
        assert cert.worst_value < cert.bound

    def test_flat_cap_is_inclusive(self, example1):
        # I = P = 0, so V is S exactly; V(0) = 1 lies below l/eta
        bound = boundedness_certificate(example1, constant_trajectory([1.0, 0.0, 0.0])).bound
        cap = max(1.0, bound) + 1e-6
        for top, passed in ((cap, True), (np.nextafter(cap, math.inf), False)):
            states = np.array([[1.0, 0.0, 0.0], [top, 0.0, 0.0]])
            traj = Trajectory(times=np.array([0.0, 0.05]), states=states, order=0.9)
            assert boundedness_certificate(example1, traj).passed is passed

    @pytest.mark.parametrize("row", [0, 1])
    def test_nan_state_fails(self, example1, row):
        assert not boundedness_certificate(example1, nan_trajectory(row)).passed

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_all_presets_within_bound(self, name):
        params = preset(name).params
        traj = preset_run(name, 0.85, t_end=500.0)
        assert boundedness_certificate(params, traj).passed

    def test_equilibrium_start_stays_constant(self, example1):
        estar = equilibrium(example1, EquilibriumKind.COEXISTENCE).state
        traj = cached_solve(example1, 0.9, estar, 0.05, 50.0)
        cert = boundedness_certificate(example1, traj)
        assert cert.passed
        values = traj.states @ np.array(
            [1.0, 1.0, example1.predation_rate / example1.conversion_efficiency]
        )
        assert np.abs(values - values[0]).max() < 1e-9

    def test_decay_envelope_checked_when_starting_above_bound(self, example1):
        start = State(30.0, 5.0, 200.0)  # weighted total 585 > 464.7
        traj = cached_solve(example1, 0.95, start, 0.05, 200.0)
        cert = boundedness_certificate(example1, traj)
        assert cert.envelope_checked
        assert cert.passed

    def test_envelope_on_trajectory_without_order_names_the_order(self, example1, tmp_path):
        start = State(30.0, 5.0, 200.0)  # weighted total 585 > 464.7
        traj = cached_solve(example1, 0.95, start, 0.05, 10.0)
        loaded = load_trajectory_csv(save_trajectory_csv(traj, tmp_path / "traj.csv"))
        with pytest.raises(ValidationError, match="needs the trajectory's order"):
            boundedness_certificate(example1, loaded)
        # below l/eta no envelope is drawn, and the order is not needed
        below = constant_trajectory([30.0, 5.0, 10.0], order=float("nan"))
        assert boundedness_certificate(example1, below).passed

    def test_eta_is_half_the_smaller_death_rate(self, example1):
        run = constant_trajectory([30.0, 5.0, 10.0])
        for mu, d in ((0.28, 0.09), (0.05, 0.3), (0.2, 0.2)):
            params = example1.replace(infected_death_rate=mu, predator_death_rate=d)
            assert boundedness_certificate(params, run).eta == 0.5 * min(mu, d)
        # at the smallest positive rate no float lies strictly inside (0, min(mu, d))
        tiny = example1.replace(predator_death_rate=5e-324)
        with pytest.raises(ValidationError, match="no boundedness rate"):
            boundedness_certificate(tiny, run)


def lyapunov_along(params, target, states):
    """V at each state, read off the monotonicity report of a run through them."""
    run = Trajectory(times=np.arange(len(states), dtype=float),
                     states=np.array(states, dtype=float), order=0.9)
    return lyapunov_monotonicity(params, target, run).values


class TestStateColumns:
    @pytest.mark.parametrize("columns", [2, 7])
    @pytest.mark.parametrize("check", ["boundedness", "lyapunov"])
    def test_model_checks_need_three_columns(self, example1, check, columns):
        # e.g. a trajectory read from a t,x0,x1 CSV: the checks read columns 0-2
        traj = constant_trajectory(np.ones(columns))
        target = equilibrium(example1, EquilibriumKind.COEXISTENCE)
        with pytest.raises(ValidationError, match=rf"3 state columns \(S, I, P\), got {columns}$"):
            if check == "boundedness":
                boundedness_certificate(example1, traj)
            else:
                lyapunov_monotonicity(example1, target, traj)


class TestLyapunovValue:
    def test_zero_exactly_at_each_target(self):
        cases = [
            ("example3", EquilibriumKind.PREY_ONLY),
            ("example2", EquilibriumKind.PREDATOR_FREE),
            ("example1-global", EquilibriumKind.COEXISTENCE),
        ]
        for name, kind in cases:
            params = preset(name).params
            target = equilibrium(params, kind)
            assert lyapunov_along(params, target, [target.state.as_array()])[0] == 0.0

    def test_frozen_value_at_reference_state(self):
        params = preset("example2").params
        target = equilibrium(params, EquilibriumKind.PREDATOR_FREE)
        value = lyapunov_along(params, target, [[30.0, 5.0, 10.0]])[0]
        assert value == pytest.approx(LYAPUNOV_E2_REFERENCE, rel=1e-13)

    def test_positive_away_from_target(self):
        params = preset("example1-global").params
        target = equilibrium(params, EquilibriumKind.COEXISTENCE)
        rng = np.random.default_rng(13)
        states = [
            state
            for state in rng.uniform(0.2, 60.0, size=(200, 3))
            if not np.allclose(state, target.state.as_array())
        ]
        assert np.all(lyapunov_along(params, target, states) > 0.0)

    def test_missing_target_rejected(self):
        params = preset("example3").params
        absent = equilibrium(params, EquilibriumKind.COEXISTENCE)
        with pytest.raises(ValidationError, match="does not exist"):
            lyapunov_along(params, absent, [[1.0, 1.0, 1.0]])

    def test_extinction_target_rejected(self, example1):
        # E0 exists, yet its record carries no hypothesis and no V belongs to it
        target = equilibrium(example1, EquilibriumKind.EXTINCTION)
        assert target.exists and target.hypothesis is None
        with pytest.raises(ValidationError, match="no Lyapunov form is associated with E0"):
            lyapunov_along(example1, target, [[1.0, 1.0, 1.0]])


def _three_branch_lyapunov(params, target, states):
    """V written out per target kind: the oracle for the single weighted sum."""
    def entropy(x, x_star):
        return x - x_star - x_star * np.log(x / x_star)

    weight = params.predation_rate / params.conversion_efficiency
    lam_k = params.infection_rate * params.carrying_capacity
    w_s = lam_k / (lam_k + params.growth_rate)
    s, i, p = states[:, 0], states[:, 1], states[:, 2]
    ts = target.state
    with np.errstate(divide="ignore", invalid="ignore"):
        if target.kind is EquilibriumKind.PREY_ONLY:
            return np.where(
                s > 0.0, w_s * entropy(s, ts.susceptible) + i + weight * p, np.nan
            )
        if target.kind is EquilibriumKind.PREDATOR_FREE:
            return np.where(
                (s > 0.0) & (i > 0.0),
                w_s * entropy(s, ts.susceptible) + entropy(i, ts.infected) + weight * p,
                np.nan,
            )
        return np.where(
            (s > 0.0) & (i > 0.0) & (p > 0.0),
            entropy(s, ts.susceptible)
            + entropy(i, ts.infected)
            + weight * entropy(p, ts.predator),
            np.nan,
        )


LYAPUNOV_TARGETS = [
    (name, kind)
    for name in sorted(PRESETS)
    for kind in (EquilibriumKind.PREY_ONLY, EquilibriumKind.PREDATOR_FREE,
                 EquilibriumKind.COEXISTENCE)
    if equilibrium(preset(name).params, kind).exists
]


@pytest.mark.parametrize("name, kind", LYAPUNOV_TARGETS)
def test_lyapunov_single_sum_bit_identical_to_three_branch_form(name, kind):
    params = preset(name).params
    target = equilibrium(params, kind)
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, -1.0, 5e-324, -5e-324, 1e-300, 1e300, 0.5]
    states = np.concatenate([
        rng.uniform(0.0, 80.0, size=(20_000, 3)),
        np.array(np.meshgrid(special, special, special)).reshape(3, -1).T,
        np.tile(target.state.as_array(), (10, 1)),
    ])
    traj = Trajectory(times=np.arange(len(states), dtype=float), states=states, order=0.9)
    with np.errstate(invalid="ignore"):  # V = inf at s = 5e-324, where ln(s/S*) = -inf
        got = lyapunov_monotonicity(params, target, traj).values
    want = _three_branch_lyapunov(params, target, states)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def lyapunov_derivative(params, target, state):
    """grad V . f at one positive state, and the sum of its terms' magnitudes."""
    gradient = np.array(_lyapunov_weights(params, target.kind)) * (
        1.0 - target.state.as_array() / state
    )
    terms = gradient * rhs(params, state)
    return terms.sum(), np.abs(terms).sum()


class TestLyapunovDerivative:
    @pytest.mark.parametrize(
        "kind", [EquilibriumKind.PREY_ONLY, EquilibriumKind.PREDATOR_FREE]
    )
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_nonincreasing_under_the_global_hypotheses(self, kind, data):
        # E1 when R0 < 1, E2 when d > d2, at random positive states
        rate = st.floats(1e-2, 1e2)
        carrying, mu = data.draw(rate), data.draw(rate)
        if kind is EquilibriumKind.PREY_ONLY:
            r0 = data.draw(st.floats(1e-2, 0.999))
        else:
            r0 = data.draw(st.floats(1.001, 1e2))
        params = ModelParams(
            growth_rate=data.draw(rate),
            carrying_capacity=carrying,
            infection_rate=r0 * mu / carrying,
            predation_rate=data.draw(rate),
            infected_death_rate=mu,
            half_saturation=data.draw(rate),
            conversion_efficiency=data.draw(st.floats(1e-2, 1.0)),
            predator_death_rate=data.draw(rate),
        )
        if kind is EquilibriumKind.PREDATOR_FREE:
            d2 = thresholds(params).predator_death_global
            excess = data.draw(st.floats(1e-3, 1e2))
            params = params.replace(predator_death_rate=d2 * (1.0 + excess))
        # populations on the scale of K, where the S-I cross term matters
        state = carrying * np.array([data.draw(st.floats(1e-3, 2.0)) for _ in range(3)])
        target = equilibrium(params, kind)
        value, size = lyapunov_derivative(params, target, state)
        assert value <= 1e-12 * size

    @pytest.mark.parametrize("name", ["example1", "example1-global"])
    def test_coexistence_counterexample(self, name):
        # at (S*, I, P*) with I != I*, grad V . f = m P* (I - I*)^2/((a + I)(a + I*))
        params = preset(name).params
        target = equilibrium(params, EquilibriumKind.COEXISTENCE)
        s_star, i_star, p_star = target.state.as_array()
        m, a = params.predation_rate, params.half_saturation
        for i in (0.1 * i_star, 0.5 * i_star, 2.0 * i_star, 10.0 * i_star):
            value, _ = lyapunov_derivative(params, target, np.array([s_star, i, p_star]))
            closed_form = m * p_star * (i - i_star) ** 2 / ((a + i) * (a + i_star))
            assert value > 0.0
            assert value == pytest.approx(closed_form, rel=1e-9)


SCENARIO_TARGETS = {
    "prey-only": EquilibriumKind.PREY_ONLY,
    "predator-free": EquilibriumKind.PREDATOR_FREE,
    "coexistence": EquilibriumKind.COEXISTENCE,
}


class TestLyapunovMonotonicity:
    @pytest.mark.parametrize("name", sorted(SCENARIO_TARGETS))
    @pytest.mark.parametrize("alpha", [0.85, 0.95])
    def test_scenarios_decrease_within_slack(self, name, alpha):
        scenario = GLOBAL_SCENARIOS[name]
        params = scenario.params
        target = equilibrium(params, SCENARIO_TARGETS[name])
        for index in range(len(scenario.initial_states)):
            traj = scenario_run(name, alpha, index)
            report = lyapunov_monotonicity(params, target, traj)
            assert report.monotone, (name, alpha, index, report.max_increase)
            assert np.isfinite(report.values).all()

    def test_predator_free_monotone_at_intermediate_order(self):
        # same property at order 0.9, on the run the well-posedness grid caches
        params = preset("example2").params
        target = equilibrium(params, EquilibriumKind.PREDATOR_FREE)
        report = lyapunov_monotonicity(params, target, preset_run("example2", 0.9))
        assert report.monotone and target.hypothesis.satisfied is True

    def test_hypothesis_reporting(self):
        prey = GLOBAL_SCENARIOS["prey-only"].params
        assert equilibrium(prey, EquilibriumKind.PREY_ONLY).hypothesis.satisfied is True  # R0 < 1
        pred = GLOBAL_SCENARIOS["predator-free"].params
        target = equilibrium(pred, EquilibriumKind.PREDATOR_FREE)
        assert target.hypothesis.satisfied is True  # d > d2

    def test_undefined_hypothesis_names_the_threshold_and_why(self, example1):
        # just above theta1 = 0.172266, E* exists but 2K(lambda S* - mu) <= r
        params = example1.replace(conversion_efficiency=0.1725)
        target = equilibrium(params, EquilibriumKind.COEXISTENCE)
        assert target.exists
        hypothesis = target.hypothesis
        assert hypothesis.satisfied is False
        assert hypothesis.margin is None
        assert hypothesis.undefined == "empty bracket: 2K(lambda*S* - mu) <= r"

    @given(model_params())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_hypothesis_verdicts_are_the_strict_comparisons_they_name(self, params):
        th = thresholds(params)
        theta, d = params.conversion_efficiency, params.predator_death_rate
        t1, d2, t2 = th.conversion_existence, th.predator_death_global, th.conversion_global
        expected = {
            EquilibriumKind.PREY_ONLY: ("R0 < 1", th.reproduction_number < 1.0, None),
            EquilibriumKind.PREDATOR_FREE: (
                "d > d2", d2 is not None and d > d2, th.undefined.get("predator_death_global")
            ),
            EquilibriumKind.COEXISTENCE: (
                "theta1 < theta < theta2",
                t2 is not None and t1 < theta < t2,
                th.undefined.get("conversion_global"),
            ),
        }
        records = {eq.kind: eq for eq in equilibria(params)}
        assert records[EquilibriumKind.EXTINCTION].hypothesis is None
        assert records[EquilibriumKind.PREY_ONLY].hypothesis.margin == 1.0 - th.reproduction_number
        for kind, (name, verdict, why) in expected.items():
            condition = records[kind].hypothesis
            assert condition.name == name
            assert condition.satisfied is verdict, (kind, condition)
            # a margin, or no margin and the undefined threshold's reason
            assert (condition.margin is None) is bool(why)
            assert condition.undefined == (why or "")

    def test_coexistence_hypothesis_depends_on_convention(self, example1):
        coex = GLOBAL_SCENARIOS["coexistence"]
        params = coex.params
        target = equilibrium(params, EquilibriumKind.COEXISTENCE)
        traj = scenario_run("coexistence", 0.85)
        self_consistent = lyapunov_monotonicity(params, target, traj)
        assert target.hypothesis.satisfied is False  # theta2 shrinks
        # with S* held at the base example's value, theta lies inside (theta1, theta2)
        referenced = thresholds(
            params.replace(conversion_efficiency=example1.conversion_efficiency)
        )
        assert (referenced.conversion_existence < params.conversion_efficiency
                < referenced.conversion_global)
        assert self_consistent.monotone

    def test_constant_target_trajectory_has_zero_increase(self):
        params = preset("example2").params
        target = equilibrium(params, EquilibriumKind.PREDATOR_FREE)
        traj = constant_trajectory(
            target.state.as_array() + np.array([0.0, 0.0, 1e-6])
        )
        report = lyapunov_monotonicity(params, target, traj)
        assert report.max_increase == 0.0
        assert report.monotone

    def test_boundary_grazing_nodes_fail_when_frequent(self):
        params = preset("example2").params
        target = equilibrium(params, EquilibriumKind.PREDATOR_FREE)
        states = np.tile(target.state.as_array() + np.array([1.0, 1.0, 0.5]), (100, 1))
        states[::20, 1] = 0.0  # 5% of nodes on the log boundary
        traj = Trajectory(times=0.05 * np.arange(100), states=states, order=0.9)
        report = lyapunov_monotonicity(params, target, traj)
        assert np.isnan(report.values).sum() == 5
        assert not report.monotone

    def test_one_boundary_grazing_node_fails(self):
        # V is undefined at the one node with I = 0, so the run fails even
        # though V never rises over the other 199 nodes
        params = preset("example2").params
        target = equilibrium(params, EquilibriumKind.PREDATOR_FREE)
        states = np.tile(target.state.as_array() + np.array([1.0, 1.0, 0.5]), (200, 1))
        states[100, 1] = 0.0
        traj = Trajectory(times=0.05 * np.arange(200), states=states, order=0.9)
        report = lyapunov_monotonicity(params, target, traj)
        assert np.isnan(report.values).sum() == 1
        assert report.max_increase == 0.0
        assert not report.monotone

    def test_nan_state_fails(self, example1):
        # a NaN state is no boundary node: one in 200 fails the report
        target = equilibrium(example1, EquilibriumKind.COEXISTENCE)
        traj = nan_trajectory(100, target.state.as_array(), n_nodes=200)
        report = lyapunov_monotonicity(example1, target, traj)
        assert not report.monotone


@pytest.fixture(scope="module")
def band_witness():
    """A parameter set where theta1 < theta < theta2 holds, yet E* is an
    unstable node at every order: the theta band does not imply stability."""
    return ModelParams(
        growth_rate=3.1463,
        carrying_capacity=129.3506,
        infection_rate=0.0038,
        predation_rate=1.4494,
        infected_death_rate=0.0782,
        half_saturation=7.963,
        conversion_efficiency=0.048,
        predator_death_rate=0.0285,
    )


class TestThetaBandWitness:
    def test_band_holds_at_an_unstable_node(self, band_witness):
        th = thresholds(band_witness)
        assert th.conversion_existence == pytest.approx(0.03091, abs=1e-5)
        assert th.conversion_global == pytest.approx(0.05901, abs=1e-5)
        target = equilibrium(band_witness, EquilibriumKind.COEXISTENCE)
        assert target.exists
        assert target.state.as_array() == pytest.approx((115.894, 11.638, 4.898), abs=1e-3)
        eigenvalues = np.linalg.eigvals(jacobian(band_witness, target.state))
        assert np.all(eigenvalues.imag == 0.0)
        assert np.sort(eigenvalues.real) == pytest.approx((-2.771, 0.0315, 0.1353), abs=5e-4)
        for alpha in (0.5, 0.9, 1.0):
            assert classify_equilibrium(band_witness, target, alpha).label == "unstable-node"

    @pytest.mark.parametrize("alpha, distance", [(0.6, 10.0), (0.95, 12.7)])
    def test_runs_leave_coexistence_while_its_condition_holds(
        self, band_witness, alpha, distance
    ):
        target = equilibrium(band_witness, EquilibriumKind.COEXISTENCE)
        x0 = State(*(1.05 * target.state.as_array()))
        traj = cached_solve(band_witness, alpha, x0, 0.05, 300.0)
        gap = np.abs(traj.final_state - target.state.as_array()).max()
        assert gap == pytest.approx(distance, abs=0.05)
        report = lyapunov_monotonicity(band_witness, target, traj)
        assert target.hypothesis.satisfied  # the paper's condition for E* holds
        assert classify_equilibrium(band_witness, target, alpha).stable is False
        assert not report.monotone

    def test_near_preset_band_loses_stability_above_its_critical_order(self):
        params = ModelParams(
            growth_rate=5.7261,
            carrying_capacity=61.4729,
            infection_rate=0.0056,
            predation_rate=1.5397,
            infected_death_rate=0.0667,
            half_saturation=10.0983,
            conversion_efficiency=0.5363,
            predator_death_rate=0.1691,
        )
        th = thresholds(params)
        assert th.conversion_existence == pytest.approx(0.205625, abs=1e-6)
        assert th.conversion_global == pytest.approx(0.640134, abs=1e-6)
        target = equilibrium(params, EquilibriumKind.COEXISTENCE)
        assert target.hypothesis.satisfied
        assert target.exists
        assert target.state.as_array() == pytest.approx((56.543, 4.6504, 2.3942), abs=1e-3)
        for alpha, label in [(0.8, "stable-matignon"), (0.9, "stable-matignon"),
                             (0.95, "unstable-focus"), (1.0, "unstable-focus")]:
            verdict = classify_equilibrium(params, target, alpha)
            assert verdict.label == label
            assert verdict.critical_order == pytest.approx(0.90352, abs=1e-5)

    def test_seeded_draws_hold_the_band_where_coexistence_is_unstable(self):
        # example1 with each field scaled by e^U, U ~ U(-1.5, 1.5), theta <= 0.99
        base = vars(preset("example1").params)
        rng = random.Random(1)
        in_band = unstable = 0
        for _ in range(2000):
            params = None
            while params is None or params.conversion_efficiency > 0.99:
                params = ModelParams(**{name: value * math.exp(rng.uniform(-1.5, 1.5))
                                        for name, value in base.items()})
            target = equilibrium(params, EquilibriumKind.COEXISTENCE)
            if target.exists and target.hypothesis.satisfied:
                in_band += 1
                unstable += classify_equilibrium(params, target, 1.0).stable is False
        assert in_band > 0 and unstable >= 1


class TestConvergence:
    def test_constant_at_target(self):
        target = np.array([1.0, 2.0, 3.0])
        result = convergence_check(constant_trajectory(target), target, tol=1e-12)
        assert result.converged and result.max_tail_distance == 0.0

    @pytest.mark.parametrize("goal", [[5.0], [1.0, 2.0], np.full((5, 3), 5.0)])
    def test_target_must_have_the_states_shape(self, goal):
        # [5.0] would broadcast to (5, 5, 5), and the (5, 3) array across the
        # 5-node tail of this 50-node run
        traj = constant_trajectory([30.0, 5.0, 10.0])
        message = f"target has shape {np.shape(goal)}, the trajectory's states (3,)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            convergence_check(traj, goal, tol=0.05)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        traj = constant_trajectory(np.ones(3))
        with pytest.raises(ValidationError, match="finite and positive"):
            convergence_check(traj, np.ones(3), tol=tol)

    @pytest.mark.parametrize("name", sorted(SCENARIO_TARGETS))
    def test_scenarios_converge(self, name):
        scenario = GLOBAL_SCENARIOS[name]
        target = equilibrium(scenario.params, SCENARIO_TARGETS[name]).state
        for alpha in scenario.alphas:
            for index in range(len(scenario.initial_states)):
                result = convergence_check(
                    scenario_run(name, alpha, index), target, tol=scenario.tol
                )
                assert result.converged, (name, alpha, index)

    def test_unstable_interior_not_approached(self):
        params = preset("example1-unstable").params
        target = equilibrium(params, EquilibriumKind.COEXISTENCE).state
        traj = cached_solve(params, 0.85, preset("example1-unstable").initial_states[0],
                            0.05, 1000.0)
        result = convergence_check(traj, target, tol=0.05)
        assert not result.converged
        assert result.max_tail_distance > 1.0

    def test_stability_verdicts_match_observed_convergence(self):
        # stable targets are reached, unstable ones are not
        from fracoepi.stability import classify_equilibrium

        for name, kind in SCENARIO_TARGETS.items():
            scenario = GLOBAL_SCENARIOS[name]
            eq = equilibrium(scenario.params, kind)
            for alpha in scenario.alphas:
                verdict = classify_equilibrium(scenario.params, eq, alpha)
                result = convergence_check(
                    scenario_run(name, alpha), eq.state, tol=scenario.tol
                )
                assert verdict.stable is True and result.converged
        params = preset("example1-unstable").params
        eq = equilibrium(params, EquilibriumKind.COEXISTENCE)
        verdict = classify_equilibrium(params, eq, 0.85)
        traj = cached_solve(params, 0.85, preset("example1-unstable").initial_states[0],
                            0.05, 1000.0)
        assert verdict.stable is False
        assert not convergence_check(traj, eq.state, tol=0.05).converged


class TestLipschitz:
    def test_small_domain_limit(self, example1):
        assert lipschitz_bound(example1, 1e-9) == pytest.approx(2.0, abs=1e-6)

    def test_frozen_value_at_radius_100(self, example1):
        # column S at (100, 100, .): |2(1 - 300/40) - 1.5| + 1.5
        assert lipschitz_bound(example1, 100.0) == pytest.approx(16.0, rel=1e-12)

    def test_frozen_value_on_the_unstable_preset(self):
        # the largest column sum is column I at (72, 0, 72), where the
        # saturation term reaches its supremum M/a
        params = preset("example1-unstable").params
        assert lipschitz_bound(params, 72.0) == pytest.approx(27.512, rel=1e-12)

    @pytest.mark.parametrize("radius", [72.0, 300.0, 1000.0])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_vertex_maximum_is_the_grid_maximum(self, name, radius):
        params = preset(name).params
        axis = np.linspace(0.0, radius, 21)  # holds both ends of the box
        largest = max(
            np.abs(jacobian(params, point)).sum(axis=0).max()
            for point in itertools.product(axis, repeat=3)
        )
        assert largest == pytest.approx(lipschitz_bound(params, radius), rel=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_bounds_every_difference_quotient(self, data):
        rate = st.floats(1e-3, 1e3)
        params = ModelParams(
            growth_rate=data.draw(rate),
            carrying_capacity=data.draw(rate),
            infection_rate=data.draw(rate),
            predation_rate=data.draw(rate),
            infected_death_rate=data.draw(rate),
            half_saturation=data.draw(rate),
            conversion_efficiency=data.draw(st.floats(1e-3, 1.0)),
            predator_death_rate=data.draw(rate),
        )
        radius = data.draw(st.floats(1e-3, 1e3))
        # box faces are drawn often, and y differs from x in some components
        # only: the quotient comes near the constant for a short step from a
        # vertex along one axis
        component = st.one_of(st.sampled_from([0.0, radius]), st.floats(0.0, radius))
        x = np.array([data.draw(component) for _ in range(3)])
        y = np.array([data.draw(component) if data.draw(st.booleans()) else v for v in x])
        bound = lipschitz_bound(params, radius)
        gap = np.abs(rhs(params, x) - rhs(params, y)).sum()
        # every term of f is at most about 2*bound*radius, so rounding f costs
        # far less than the absolute 1e-12*bound*radius allowed for nearby pairs
        assert gap <= bound * (np.abs(x - y).sum() * (1.0 + 1e-12) + 1e-12 * radius)

    def test_rejects_nonpositive_radius(self, example1):
        with pytest.raises(ValueError):
            lipschitz_bound(example1, 0.0)

    @pytest.mark.parametrize("radius", [72.0, 300.0, 1000.0])
    def test_empirical_ratio_matches_pair_loop(self, example1, radius):
        # the function's draws: x block first, then y block, row-major
        draw = random.Random(0).random
        xs = [np.array([draw() * radius for _ in range(3)]) for _ in range(2000)]
        ys = [np.array([draw() * radius for _ in range(3)]) for _ in range(2000)]
        worst = 0.0
        for x, y in zip(xs, ys):
            gap = np.abs(x - y).sum()
            if gap >= 1e-12:
                ratio = np.abs(rhs(example1, x) - rhs(example1, y)).sum() / gap
                worst = max(worst, float(ratio))
        assert empirical_lipschitz_ratio(example1, radius, pairs=2000) == worst

    def test_frozen_empirical_ratio(self, example1):
        # bits of the pair loop above at radius 72 over random.Random(0)
        observed = empirical_lipschitz_ratio(example1, 72.0, pairs=2000)
        assert observed == float.fromhex("0x1.d67a51151229bp+2")

    def test_never_exceeded_empirically(self):
        for name in sorted(PRESETS):
            params = preset(name).params
            bound = lipschitz_bound(params, 100.0)
            observed = empirical_lipschitz_ratio(params, 100.0, pairs=10_000, seed=1)
            assert observed <= bound, name


# each fixed limit: a call, the keyword it must refuse, and what its result
# says without the keyword; the run holds (30, 5, 10) at 101 nodes
_EX1 = preset("example1").params
_RUN = constant_trajectory(np.array([30.0, 5.0, 10.0]), n_nodes=101)


@pytest.mark.parametrize(
    "call, removed, carried",
    [
        (lambda **kw: SolverConfig(step=1.0, t_end=2e6, **kw), {"node_cap": 1000},
         lambda config: config.node_count() == NODE_CAP == 2_000_000),
        (lambda **kw: check_nonnegativity(_RUN, **kw), {"tol": 1e-8},
         lambda report: report.passed),
        (lambda **kw: boundedness_certificate(_EX1, _RUN, **kw),
         {"epsilon_margin": 1e-6}, lambda cert: cert.passed),
        (lambda **kw: boundedness_certificate(_EX1, _RUN, **kw),
         {"eta": 0.045}, lambda cert: cert.eta == 0.045),
        (lambda **kw: lyapunov_monotonicity(
            _EX1, equilibrium(_EX1, EquilibriumKind.COEXISTENCE), _RUN, **kw),
         {"slack": 1e-3}, lambda report: report.monotone),
        (lambda **kw: convergence_check(_RUN, np.zeros(3), tol=0.05, **kw),
         {"tail_fraction": 0.1}, lambda result: result.max_tail_distance == 30.0),
        (lambda **kw: GlobalScenario("s", "example3", EquilibriumKind.PREY_ONLY, **kw),
         {"tol": 1e-2}, lambda scenario: scenario.tol == 1e-2),
    ],
    ids=["node_cap", "tol", "epsilon_margin", "eta", "slack", "tail_fraction", "scenario-tol"],
)
def test_fixed_limits_are_constants_not_keywords(call, removed, carried):
    with pytest.raises(TypeError):
        call(**removed)
    assert carried(call())
