"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines.  Long solves are memoized process-wide; run this module standalone for
a cold-cache timing of the dynamics criterion.
"""

import time

import numpy as np

from fracoepi.mittag_leffler import ml_one
from fracoepi.model import (
    EquilibriumKind,
    PRESETS,
    equilibria,
    equilibrium,
    preset,
    rhs,
    thresholds,
)
from fracoepi.reproduce import GLOBAL_SCENARIOS
from fracoepi.runs import cached_solve, solve_many
from fracoepi.solver import FodeProblem, SolverConfig, solve_pece
from fracoepi.stability import (
    CubicCharacteristic,
    EigenSpectrum,
    characteristic_cubic,
    classify_equilibrium,
    cubic_roots,
    matignon_check,
    coefficient_case,
)
from fracoepi.verification import (
    boundedness_certificate,
    check_nonnegativity,
    convergence_check,
    empirical_lipschitz_ratio,
    lipschitz_bound,
)


def criterion(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def interior(params):
    return equilibrium(params, EquilibriumKind.COEXISTENCE)


def test_c1_stable_coefficient_reproduction(example1):
    started = time.perf_counter()
    cubic = characteristic_cubic(example1, interior(example1).state)
    checks = {
        "D(F)": (cubic.discriminant, 0.0077),
        "A1": (cubic.a1, 1.0879),
        "A3": (cubic.a3, 0.0028),
        "A1*A2-A3": (cubic.routh_product, 0.2909),
    }
    gaps = {k: abs(got - want) for k, (got, want) in checks.items()}
    elapsed = time.perf_counter() - started
    criterion(
        "C1 stable-case coefficients within 5e-4",
        all(g <= 5e-4 for g in gaps.values()) and elapsed < 1.0,
        f"worst gap {max(gaps.values()):.2g}, {elapsed * 1e3:.1f} ms",
    )


def test_c2_unstable_coefficient_reproduction():
    started = time.perf_counter()
    params = preset("example1-unstable").params
    estar = interior(params)
    cubic = characteristic_cubic(params, estar.state)
    ok = (
        abs(cubic.discriminant - (-463.8995)) <= 0.05
        and abs(cubic.a1 - (-0.9276)) <= 5e-4
        and abs(cubic.a2 - (-0.5775)) <= 5e-4
    )
    verdict_85 = classify_equilibrium(params, estar, 0.85)
    ok = ok and verdict_85.stable is False and verdict_85.case == "iii"
    # the stability hypothesis set for low orders is evaluated and reported:
    # case (ii) does not apply here (negative coefficients), so the
    # eigenvalue criterion decides below 2/3 as well
    low = classify_equilibrium(params, estar, 0.6)
    case_ii_applies = coefficient_case(cubic, 0.6) == "ii"
    evaluated = low.stable is not None
    ok = ok and evaluated and not case_ii_applies
    elapsed = time.perf_counter() - started
    criterion(
        "C2 unstable-case coefficients and verdicts",
        ok and elapsed < 1.0,
        f"D(F) = {cubic.discriminant:.4f}, verdict(0.85) = {verdict_85.label}, "
        f"case(ii) at 0.6 applies: {case_ii_applies}, verdict(0.6) = {low.label}, "
        f"{elapsed * 1e3:.1f} ms",
    )


def test_c3_threshold_reproduction(example1):
    th1 = thresholds(example1)
    th3 = thresholds(preset("example3").params)
    th2 = thresholds(preset("example2").params)
    d_gap = preset("example2").params.predator_death_rate - th2.predator_death_local
    ok = (
        abs(th1.reproduction_number - 2.1428) <= 5e-4
        and abs(th3.reproduction_number - 0.7143) <= 5e-4
        and abs(th1.conversion_existence - 0.1723) <= 5e-4
        and abs(th1.conversion_global - 0.8044) <= 5e-4
        and abs(th2.predator_death_global - 0.0875) <= 5e-4
        and d_gap > 0.0
        and abs(d_gap - 0.0482) <= 5e-4  # formula value, not the recorded 0.0025
    )
    criterion(
        "C3 thresholds (R0, theta1, theta2, d2; d-d1 discrepancy recorded)",
        ok,
        f"R0 = {th1.reproduction_number:.5f}/{th3.reproduction_number:.5f}, "
        f"theta1 = {th1.conversion_existence:.5f}, theta2 = {th1.conversion_global:.5f}, "
        f"d2 = {th2.predator_death_global:.5f}; d-d1 = {d_gap:.4f} "
        "(known discrepancy vs recorded 0.0025, sign agrees)",
    )


def test_c4_equilibrium_reproduction(example1):
    e2 = equilibrium(example1, EquilibriumKind.PREDATOR_FREE).state.as_array()
    raised = example1.replace(conversion_efficiency=0.5)
    estar = equilibrium(raised, EquilibriumKind.COEXISTENCE).state.as_array()
    coord_ok = np.abs(e2 - np.array([18.67, 16.41, 0.0])).max() <= 5e-3 and np.abs(
        estar - np.array([35.7195, 3.2927, 8.9983])
    ).max() <= 5e-3
    worst_residual = 0.0
    for name in PRESETS:
        params = preset(name).params
        for eq in equilibria(params):
            if eq.exists:
                worst_residual = max(
                    worst_residual, float(np.abs(rhs(params, eq.state)).max())
                )
    criterion(
        "C4 equilibrium coordinates within 5e-3, residuals below 1e-10",
        coord_ok and worst_residual < 1e-10,
        f"worst residual {worst_residual:.2g}",
    )


def test_c5_global_stability_dynamics():
    # three scenarios x three starts x two orders, span 2000 at step 0.05
    jobs = []
    for scenario in GLOBAL_SCENARIOS.values():
        jobs.extend(scenario.jobs())
    started = time.perf_counter()
    solve_many(jobs)
    compute_seconds = time.perf_counter() - started
    worst = {}
    for scenario in GLOBAL_SCENARIOS.values():
        target = scenario.target_state.as_array()
        for alpha in scenario.alphas:
            for x0 in scenario.initial_states:
                traj = cached_solve(
                    scenario.params, alpha, x0, scenario.step, scenario.t_end
                )
                result = convergence_check(traj, target, tol=scenario.tol)
                key = (scenario.name, alpha)
                worst[key] = max(worst.get(key, 0.0), result.max_tail_distance)
    ok = all(v <= 1e-2 for v in worst.values()) and compute_seconds < 300.0
    detail = ", ".join(
        f"{name}@{alpha:g}: {value:.3g}" for (name, alpha), value in sorted(worst.items())
    )
    criterion(
        "C5 dynamics: 18 runs converge within 1e-2 (tail 10%), under 5 min",
        ok,
        f"{detail}; solver time {compute_seconds:.0f} s",
    )


def test_c6_solver_order():
    report = []
    ok = True
    for alpha in (0.5, 0.8, 1.0):
        errors = []
        for h in (0.01, 0.005):
            traj = solve_pece(
                FodeProblem(order=alpha, initial_state=np.array([1.0]),
                            rhs=lambda t, y: -y),
                SolverConfig(step=h, t_end=1.0),
            )
            errors.append(abs(traj.states[-1, 0] - ml_one(alpha, -1.0)))
        factor = errors[0] / errors[1]
        required = 0.7 * 2.0 ** min(2.0, 1.0 + alpha)
        ok = ok and factor >= required
        report.append(f"alpha={alpha:g}: factor {factor:.2f} (need {required:.2f})")
    criterion("C6 error-halving factors on the linear decay test", ok,
              "; ".join(report))


def test_c7_discriminant_identity_suite():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        cubic = CubicCharacteristic(*rng.uniform(-3.0, 3.0, size=3))
        x1, x2, x3 = cubic_roots(cubic).eigenvalues
        root_form = (((x1 - x2) * (x1 - x3) * (x2 - x3)) ** 2).real
        scale = max(1.0, abs(cubic.discriminant), abs(root_form))
        worst = max(worst, abs(cubic.discriminant - root_form) / scale)
    criterion("C7 discriminant root-form identity on 1000 cubics",
              worst <= 1e-6, f"worst relative gap {worst:.2g}")


def test_c8_matignon_consistency_suite():
    rng = np.random.default_rng(103)
    alphas = np.linspace(0.05, 1.0, 20)
    monotone_ok = True
    classical_ok = True
    for _ in range(1000):
        if rng.uniform() < 0.5:
            eigen = rng.uniform(-3.0, 3.0, size=3).astype(complex)
        else:
            real = complex(rng.uniform(-3.0, 3.0))
            pair = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0))
            eigen = np.array([real, pair, pair.conjugate()])
        spectrum = EigenSpectrum(eigenvalues=np.sort_complex(eigen))
        if spectrum.has_zero:
            continue
        flags = [
            v.stable
            for v in (matignon_check(spectrum, float(a)) for a in alphas)
            if not v.marginal
        ]
        for earlier, later in zip(flags, flags[1:]):
            monotone_ok = monotone_ok and not (later and not earlier)
        unit = matignon_check(spectrum, 1.0)
        if not unit.marginal:
            classical_ok = classical_ok and (
                unit.stable == bool(np.max(spectrum.eigenvalues.real) < 0.0)
            )
    criterion("C8 order-monotonicity and integer-order agreement on 1000 spectra",
              monotone_ok and classical_ok,
              f"monotone {monotone_ok}, classical agreement {classical_ok}")


def test_c9_wellposedness_suite():
    # step 0.025 resolves the near-zero crashes of the unstable preset that
    # undershoot at 0.05 (see the step-0.05 undershoot decision in
    # CHANGES.md); eta = 0.045 is valid for every preset since
    # min(mu, d) = 0.09 throughout
    eta = 0.045
    worst_undershoot = 0.0
    bound_ok = True
    example1_bound = None
    for name in sorted(PRESETS):
        params = preset(name).params
        for alpha in (0.85, 0.95, 1.0):
            traj = cached_solve(
                params, alpha, preset(name).initial_states[0], 0.025, 500.0
            )
            report = check_nonnegativity(traj, tol=1e-8)
            worst_undershoot = max(worst_undershoot, report.worst_undershoot.max())
            cert = boundedness_certificate(params, traj, eta)
            bound_ok = bound_ok and report.passed and cert.passed
            if name == "example1":
                example1_bound = cert.bound
    lipschitz_ok = True
    for name in sorted(PRESETS):
        params = preset(name).params
        bound = lipschitz_bound(params, 100.0)
        observed = empirical_lipschitz_ratio(params, 100.0, pairs=10_000, seed=2)
        lipschitz_ok = lipschitz_ok and observed <= bound
    ok = (
        bound_ok
        and lipschitz_ok
        and abs(example1_bound - 464.7) <= 0.05
    )
    criterion(
        "C9 well-posedness: positivity, absorbing bound, Lipschitz bound",
        ok,
        f"worst undershoot {worst_undershoot:.2g}, bound(example1) = "
        f"{example1_bound:.4f}, Lipschitz respected: {lipschitz_ok}",
    )
