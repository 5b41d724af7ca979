"""Trajectory verification: positivity, boundedness, Lyapunov decrease.

The global-stability scenario runs reuse the long cached solves shared with
the acceptance suite; the well-posedness grid below runs every preset at
step 0.05 over a 500-long span across the order grid.
"""

import numpy as np
import pytest

from conftest import constant_trajectory, preset_run, scenario_run
from fracoepi.model import EquilibriumKind, PRESETS, State, equilibrium, preset, rhs
from fracoepi.reproduce import GLOBAL_SCENARIOS
from fracoepi.runs import cached_solve
from fracoepi.solver import Trajectory
from fracoepi.verification import (
    boundedness_certificate,
    check_nonnegativity,
    convergence_check,
    empirical_lipschitz_ratio,
    lipschitz_bound,
    lyapunov_monotonicity,
    lyapunov_value,
)

# V((30,5,10)) against the predator-free target of the low-conversion preset,
# evaluated in 60-digit arithmetic
LYAPUNOV_E2_REFERENCE = 75.56960272411120374

WELLPOSED_ALPHAS = (0.75, 0.85, 0.90, 0.95, 1.0)

# the no-clipping scheme undershoots zero at step 0.05 on the unstable
# preset's near-zero crashes for high orders; refining the step resolves it
# (measured minima: -7.9e-3 at h=0.05 vs +2.0e-2 at h=0.025 for order 0.95)
UNDERSHOOT_AT_COARSE_STEP = {("example1-unstable", 0.95), ("example1-unstable", 1.0)}


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
            metadata=dict(traj.metadata),
        )
        report = check_nonnegativity(flipped, tol=1e-8)
        assert not report.passed
        assert report.worst_undershoot[1] > 1.0
        assert report.offending_count > 0
        assert report.offending_nodes[0][2] == 1  # infected column

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
        assert check_nonnegativity(traj, tol=1e-8).passed


class TestBoundedness:
    def test_example1_certificate_numbers(self, example1):
        traj = preset_run("example1", 0.95)
        cert = boundedness_certificate(example1, traj, eta=0.045)
        # l = K (r+eta)^2 / (4r) and the absorbing bound l/eta
        assert cert.absorbing_level == pytest.approx(20.910125, rel=1e-12)
        assert cert.bound == pytest.approx(464.669444444444, rel=1e-12)
        assert cert.bound == pytest.approx(464.7, abs=0.05)
        assert cert.passed
        assert cert.worst_value < cert.bound

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_all_presets_within_bound(self, name):
        params = preset(name).params
        eta = 0.5 * min(params.infected_death_rate, params.predator_death_rate)
        traj = preset_run(name, 0.85, t_end=500.0)
        assert boundedness_certificate(params, traj, eta).passed

    def test_equilibrium_start_stays_constant(self, example1):
        estar = equilibrium(example1, EquilibriumKind.COEXISTENCE).state
        traj = cached_solve(example1, 0.9, estar, 0.05, 50.0)
        cert = boundedness_certificate(example1, traj, eta=0.045)
        assert cert.passed
        values = traj.states @ np.array(
            [1.0, 1.0, example1.predation_rate / example1.conversion_efficiency]
        )
        assert np.abs(values - values[0]).max() < 1e-9

    def test_decay_envelope_checked_when_starting_above_bound(self, example1):
        start = State(30.0, 5.0, 200.0)  # weighted total 585 > 464.7
        traj = cached_solve(example1, 0.95, start, 0.05, 200.0)
        cert = boundedness_certificate(example1, traj, eta=0.045)
        assert cert.envelope_checked
        assert cert.passed

    def test_rejects_eta_outside_open_interval(self, example1):
        traj = preset_run("example1", 0.95, t_end=50.0)
        for eta in (0.0, -0.1, 0.09, 0.2):
            with pytest.raises(ValueError):
                boundedness_certificate(example1, traj, eta)


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
            assert lyapunov_value(params, target, target.state) == 0.0

    def test_frozen_value_at_reference_state(self):
        params = preset("example2").params
        target = equilibrium(params, EquilibriumKind.PREDATOR_FREE)
        value = lyapunov_value(params, target, State(30.0, 5.0, 10.0))
        assert value == pytest.approx(LYAPUNOV_E2_REFERENCE, rel=1e-13)

    def test_positive_away_from_target(self):
        params = preset("example1-global").params
        target = equilibrium(params, EquilibriumKind.COEXISTENCE)
        rng = np.random.default_rng(13)
        for _ in range(200):
            state = State(*rng.uniform(0.2, 60.0, size=3))
            if np.allclose(state.as_array(), target.state.as_array()):
                continue
            assert lyapunov_value(params, target, state) > 0.0

    def test_boundary_state_rejected(self):
        params = preset("example2").params
        target = equilibrium(params, EquilibriumKind.PREDATOR_FREE)
        with pytest.raises(ValueError):
            lyapunov_value(params, target, State(10.0, 0.0, 1.0))

    def test_missing_target_rejected(self):
        params = preset("example3").params
        absent = equilibrium(params, EquilibriumKind.COEXISTENCE)
        with pytest.raises(ValueError):
            lyapunov_value(params, absent, State(1.0, 1.0, 1.0))


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
            report = lyapunov_monotonicity(params, target, traj, slack=1e-3)
            assert report.monotone, (name, alpha, index, report.max_increase)
            assert report.skipped_nodes == 0

    def test_predator_free_monotone_at_intermediate_order(self):
        # same property at order 0.9, on the run the well-posedness grid caches
        params = preset("example2").params
        target = equilibrium(params, EquilibriumKind.PREDATOR_FREE)
        report = lyapunov_monotonicity(params, target, preset_run("example2", 0.9))
        assert report.monotone and report.hypothesis.satisfied is True

    def test_hypothesis_reporting(self):
        prey = GLOBAL_SCENARIOS["prey-only"]
        target = equilibrium(prey.params, EquilibriumKind.PREY_ONLY)
        report = lyapunov_monotonicity(prey.params, target, scenario_run("prey-only", 0.85))
        assert report.hypothesis.satisfied is True  # R0 < 1

        pred = GLOBAL_SCENARIOS["predator-free"]
        target = equilibrium(pred.params, EquilibriumKind.PREDATOR_FREE)
        report = lyapunov_monotonicity(
            pred.params, target, scenario_run("predator-free", 0.85)
        )
        assert report.hypothesis.satisfied is True  # d > d2

    def test_coexistence_hypothesis_depends_on_convention(self, example1):
        coex = GLOBAL_SCENARIOS["coexistence"]
        params = coex.params
        target = equilibrium(params, EquilibriumKind.COEXISTENCE)
        traj = scenario_run("coexistence", 0.85)
        self_consistent = lyapunov_monotonicity(params, target, traj)
        assert self_consistent.hypothesis.satisfied is False  # theta2 shrinks
        base_interior = equilibrium(example1, EquilibriumKind.COEXISTENCE).state
        referenced = lyapunov_monotonicity(
            params, target, traj, theta2_reference=base_interior
        )
        assert referenced.hypothesis.satisfied is True
        assert referenced.monotone

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
        traj = Trajectory(
            times=0.05 * np.arange(100), states=states, order=0.9, metadata={}
        )
        report = lyapunov_monotonicity(params, target, traj)
        assert report.skipped_nodes == 5
        assert not report.monotone


class TestConvergence:
    def test_constant_at_target(self):
        target = np.array([1.0, 2.0, 3.0])
        result = convergence_check(constant_trajectory(target), target, tol=1e-12)
        assert result.converged and result.max_tail_distance == 0.0

    def test_tail_fraction_validated(self):
        traj = constant_trajectory(np.ones(3))
        with pytest.raises(ValueError):
            convergence_check(traj, np.ones(3), tol=0.1, tail_fraction=0.0)

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
        assert lipschitz_bound(example1, 100.0) == pytest.approx(20.0, rel=1e-12)

    def test_rejects_nonpositive_radius(self, example1):
        with pytest.raises(ValueError):
            lipschitz_bound(example1, 0.0)

    @pytest.mark.parametrize("radius", [72.0, 300.0, 1000.0])
    def test_empirical_ratio_matches_pair_loop(self, example1, radius):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0.0, radius, size=(2000, 3))
        ys = rng.uniform(0.0, radius, size=(2000, 3))
        worst = 0.0
        for x, y in zip(xs, ys):
            gap = np.abs(x - y).sum()
            if gap >= 1e-12:
                ratio = np.abs(rhs(example1, x) - rhs(example1, y)).sum() / gap
                worst = max(worst, float(ratio))
        assert empirical_lipschitz_ratio(example1, radius, pairs=2000) == worst

    def test_frozen_empirical_ratio(self, example1):
        # bits of the pair loop over the scalar vector field, before rhs took
        # stacked states
        observed = empirical_lipschitz_ratio(example1, 72.0, pairs=2000)
        assert observed == float.fromhex("0x1.0ce28adb48f53p+3")

    def test_never_exceeded_empirically(self):
        for name in sorted(PRESETS):
            params = preset(name).params
            bound = lipschitz_bound(params, 100.0)
            observed = empirical_lipschitz_ratio(params, 100.0, pairs=10_000, seed=1)
            assert observed <= bound, name
