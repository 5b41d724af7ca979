"""Bundled example scenarios with recorded reference values.

Each scenario re-runs a named parameter set end to end (thresholds,
equilibria, characteristic coefficients, stability verdicts, trajectory
convergence), compares every computed quantity against its recorded
reference value at a stated tolerance, and emits the matching data bundle
(trajectory/phase CSVs plus a plot script).

Line-item statuses are ``pass``, ``fail`` and ``known-discrepancy``; the
last marks the one recorded value that disagrees with its own defining
formula (the d - d1 gap of the low-conversion scenario, where the sign and
hence the stability conclusion agree but the magnitude does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterable, Optional

import numpy as np

from .config import DEFAULT_OUT_DIR, output_directory
from .model import (
    EquilibriumKind,
    ModelParams,
    State,
    equilibrium,
    preset,
    thresholds,
)
from .runs import cached_solve, solve_many
from .solver import Trajectory, ValidationError
from .stability import characteristic_cubic, classify_equilibrium
from .trajectory_io import alpha_tag, save_trajectory_csv
from .verification import convergence_check

__all__ = [
    "EXAMPLE_IDS",
    "GLOBAL_SCENARIOS",
    "GlobalScenario",
    "ReproItem",
    "ReproReport",
    "reproduce",
]

PASS = "pass"
FAIL = "fail"
KNOWN = "known-discrepancy"

COEFF_TOL = 5e-4   # references printed to 4 decimals
COORD_TOL = 5e-3   # references printed to 2 decimals
DISC_TOL = 0.05    # the large negative discriminant reference

FIGURE_SPAN = 500.0          # time window written to figure CSVs
UNSTABLE_SPAN = 1000.0       # long enough to show the growing oscillations
SCENARIO_STEP = 0.05


@dataclass(frozen=True)
class ReproItem:
    name: str
    computed: Optional[float]
    reference: Optional[float]
    tolerance: Optional[float]
    status: str
    note: str = ""

    def render(self) -> str:
        parts = [f"[{self.status}] {self.name}"]
        if self.computed is not None:
            parts.append(f"computed {self.computed:.6g}")
        if self.reference is not None:
            parts.append(f"reference {self.reference:.6g}")
        if self.tolerance is not None and self.computed is not None and self.reference is not None:
            parts.append(f"|diff| {abs(self.computed - self.reference):.2g} (tol {self.tolerance:g})")
        line = ": ".join([parts[0], ", ".join(parts[1:])]) if len(parts) > 1 else parts[0]
        if self.note:
            line += f" -- {self.note}"
        return line


@dataclass(frozen=True)
class ReproReport:
    example_id: str
    items: tuple[ReproItem, ...]
    files: tuple[Path, ...] = ()

    @property
    def failed(self) -> bool:
        return any(item.status == FAIL for item in self.items)

    def render(self) -> str:
        lines = [f"reproduction report: {self.example_id}"]
        lines += [" " + item.render() for item in self.items]
        counts = {}
        for item in self.items:
            counts[item.status] = counts.get(item.status, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append(f" summary: {summary}")
        if self.files:
            lines.append(" files:")
            lines += [f"  {p}" for p in self.files]
        return "\n".join(lines)


def _value_item(name, computed, reference, tol, note="") -> ReproItem:
    ok = abs(computed - reference) <= tol
    return ReproItem(name, float(computed), float(reference), tol, PASS if ok else FAIL, note)


def _flag_item(name, ok, note="") -> ReproItem:
    return ReproItem(name, None, None, None, PASS if ok else FAIL, note)


@dataclass(frozen=True)
class GlobalScenario:
    """One global-stability demonstration at desk scale.

    The initial points are artifact choices: distinct, positive, and with
    deviations moderate enough that the algebraically slow fractional decay
    reaches the convergence tolerance within the span; every scenario shares
    the orders, step, span and tolerance.
    """

    name: str
    preset_name: str
    target_kind: EquilibriumKind
    alphas: ClassVar[tuple[float, ...]] = (0.85, 0.95)
    step: ClassVar[float] = SCENARIO_STEP
    t_end: ClassVar[float] = 2000.0
    tol: ClassVar[float] = 1e-2

    @property
    def params(self) -> ModelParams:
        return preset(self.preset_name).params

    @property
    def initial_states(self) -> tuple[State, ...]:
        return preset(self.preset_name).initial_states

    @property
    def target_state(self) -> State:
        return equilibrium(self.params, self.target_kind).state

    def jobs(self) -> list[tuple]:
        return [
            (self.params, alpha, x0, self.step, self.t_end)
            for alpha in self.alphas
            for x0 in self.initial_states
        ]


GLOBAL_SCENARIOS: dict[str, GlobalScenario] = {
    s.name: s
    for s in [
        GlobalScenario("prey-only", "example3", EquilibriumKind.PREY_ONLY),
        GlobalScenario("predator-free", "example2", EquilibriumKind.PREDATOR_FREE),
        GlobalScenario("coexistence", "example1-global", EquilibriumKind.COEXISTENCE),
    ]
}


def _truncate(traj: Trajectory, t_max: float) -> Trajectory:
    keep = int(np.searchsorted(traj.times, t_max, side="right"))
    return Trajectory(  # read-only views of the solved arrays: no copy
        times=traj.times[:keep],
        states=traj.states[:keep],
        order=traj.order,
    )


def _write_bundle(
    out_dir: Path, stem: str, title: str, runs: Iterable[tuple[str, Trajectory]]
) -> list[Path]:
    """One CSV per (file name, trajectory), then a matplotlib script that plots them."""
    files = []
    csv_names = []
    for name, traj in runs:
        files.append(save_trajectory_csv(traj, out_dir / name))
        csv_names.append(name)
    lines = [
        '"""Plot script for the %s bundle (auto-generated, deterministic)."""' % stem,
        "import csv",
        "from pathlib import Path",
        "",
        "import matplotlib.pyplot as plt",
        "",
        "HERE = Path(__file__).resolve().parent",
        f"FILES = {list(csv_names)!r}",
        "",
        "fig, axes = plt.subplots(1, 3, figsize=(13, 3.5))",
        "for name in FILES:",
        "    with open(HERE / name) as fh:",
        "        rows = list(csv.reader(fh))",
        "    header, data = rows[0], [[float(x) for x in row] for row in rows[1:]]",
        "    cols = list(zip(*data))",
        "    for k, ax in enumerate(axes):",
        "        ax.plot(cols[0], cols[k + 1], label=name)",
        "        ax.set_xlabel('t')",
        "        ax.set_ylabel(header[k + 1])",
        "axes[0].legend(fontsize=6)",
        f"fig.suptitle({title!r})",
        "fig.tight_layout()",
        f"fig.savefig(HERE / '{stem}.png', dpi=150)",
        "print('wrote', HERE / '{0}.png')".format(stem),
        "",
    ]
    path = out_dir / f"{stem}_plot.py"
    path.write_text("\n".join(lines), encoding="utf-8")
    return files + [path]


# (item name, CubicCharacteristic attribute), in report order
_COEFFICIENTS = (
    ("A1", "a1"),
    ("A2", "a2"),
    ("A3", "a3"),
    ("A1*A2 - A3", "routh_product"),
    ("D(F)", "discriminant"),
)


def _coefficient_items(params: ModelParams, refs: dict, tol_d: float) -> list[ReproItem]:
    """Items for the coefficients named in refs; tol_d applies to D(F) only."""
    cubic = characteristic_cubic(params, equilibrium(params, EquilibriumKind.COEXISTENCE).state)
    return [
        _value_item(name, getattr(cubic, attr), refs[name],
                    tol_d if name == "D(F)" else COEFF_TOL)
        for name, attr in _COEFFICIENTS
        if name in refs
    ]


def _coordinate_items(name: str, computed: State, reference: tuple, tol: float) -> list[ReproItem]:
    return [
        _value_item(f"{name}.{comp}", value, ref, tol)
        for comp, value, ref in zip("SIP", computed.as_array(), reference)
    ]


def _scenario_runs(scenario: GlobalScenario):
    """(order, start index, start, trajectory) for every run of the scenario."""
    for alpha in scenario.alphas:
        for idx, x0 in enumerate(scenario.initial_states):
            yield alpha, idx, x0, cached_solve(
                scenario.params, alpha, x0, scenario.step, scenario.t_end
            )


def _convergence_items(scenario: GlobalScenario, target: State) -> list[ReproItem]:
    solve_many(scenario.jobs())
    items = []
    for alpha, _, x0, traj in _scenario_runs(scenario):
        res = convergence_check(traj, target, tol=scenario.tol)
        items.append(
            _flag_item(
                f"{scenario.name}: ({x0.susceptible:g},{x0.infected:g},"
                f"{x0.predator:g}) -> {scenario.target_kind} at alpha={alpha:g}",
                res.converged,
                f"max tail distance {res.max_tail_distance:.3g} (tol {scenario.tol:g})",
            )
        )
    return items


def _scenario_bundle(
    scenario: GlobalScenario, out_dir: Path, stem: str, title: str
) -> list[Path]:
    runs = (
        (f"{stem}_alpha{alpha_tag(alpha)}_x{idx}.csv", _truncate(traj, FIGURE_SPAN))
        for alpha, idx, _, traj in _scenario_runs(scenario)
    )
    return _write_bundle(out_dir, stem, title, runs)


def _ex1(out_dir: Path) -> tuple[list[ReproItem], list[Path]]:
    params = preset("example1").params
    items = _coefficient_items(
        params, {"A1": 1.0879, "A3": 0.0028, "A1*A2 - A3": 0.2909, "D(F)": 0.0077}, COEFF_TOL
    )
    th = thresholds(params)
    items.append(_value_item("R0", th.reproduction_number, 2.1428, COEFF_TOL))
    items.append(_value_item("theta1", th.conversion_existence, 0.1723, COEFF_TOL))
    items.append(
        _value_item(
            "theta2", th.conversion_global, 0.8044, COEFF_TOL,
            note="interior susceptible level evaluated at the base conversion efficiency",
        )
    )
    interior = equilibrium(params, EquilibriumKind.COEXISTENCE)
    for alpha in (0.6, 0.85, 0.95, 1.0):
        verdict = classify_equilibrium(params, interior, alpha)
        items.append(
            _flag_item(
                f"E* stable at alpha={alpha:g}",
                verdict.stable is True and verdict.case == "i",
                f"label {verdict.label}, case {verdict.case}",
            )
        )

    # time-series bundle across orders (single initial point)
    x0 = State(30.0, 5.0, 10.0)
    runs = (
        (f"fig1_alpha{alpha_tag(alpha)}.csv",
         cached_solve(params, alpha, x0, SCENARIO_STEP, FIGURE_SPAN))
        for alpha in (0.75, 0.85, 0.95, 1.0)
    )
    files = _write_bundle(out_dir, "fig1", "stable coexistence across fractional orders", runs)

    scenario = GLOBAL_SCENARIOS["coexistence"]
    target = scenario.target_state
    items += _coordinate_items("E*(theta=0.5)", target, (35.7195, 3.2927, 8.9983), COORD_TOL)
    items += _convergence_items(scenario, target)
    files += _scenario_bundle(
        scenario, out_dir, "fig2", "coexistence, runs converging to E* (theta = 0.5)"
    )
    return items, files


def _ex1_unstable(out_dir: Path) -> tuple[list[ReproItem], list[Path]]:
    params = preset("example1-unstable").params
    items = _coefficient_items(
        params, {"A1": -0.9276, "A2": -0.5775, "D(F)": -463.8995}, DISC_TOL
    )
    interior = equilibrium(params, EquilibriumKind.COEXISTENCE)
    verdict = classify_equilibrium(params, interior, 0.85)
    items.append(
        _flag_item(
            "E* unstable at alpha=0.85 (case iii)",
            verdict.stable is False and verdict.case == "iii",
            f"label {verdict.label}, critical order {verdict.critical_order:.4g}",
        )
    )
    # hypothesis sets are evaluated below 2/3 as well: none of the stability
    # cases applies there (A1 < 0 and A2 < 0), so the eigenvalue criterion
    # alone decides and is reported
    low = classify_equilibrium(params, interior, 0.6)
    cubic = low.cubic
    items.append(
        _flag_item(
            "case (ii) hypotheses evaluated at alpha=0.6",
            low.case in (None, "ii"),
            f"case (ii) satisfied: {low.case == 'ii'} "
            f"(A1 = {cubic.a1:.4g}, A2 = {cubic.a2:.4g}); "
            f"eigenvalue verdict: {low.label}, critical order {low.critical_order:.4g}",
        )
    )

    x0 = State(30.0, 5.0, 10.0)
    traj = cached_solve(params, 0.85, x0, SCENARIO_STEP, UNSTABLE_SPAN)
    res = convergence_check(traj, interior.state, tol=0.05)
    items.append(
        _flag_item(
            "trajectory does not settle at E* (alpha=0.85)",
            not res.converged,
            f"max tail distance {res.max_tail_distance:.3g}",
        )
    )
    files = _write_bundle(
        out_dir, "fig3", "unstable coexistence oscillations", [("fig3_alpha0p85.csv", traj)]
    )
    return items, files


def _ex2(out_dir: Path) -> tuple[list[ReproItem], list[Path]]:
    params = preset("example2").params
    th = thresholds(params)
    items = [_value_item("R0", th.reproduction_number, 2.1428, COEFF_TOL)]
    scenario = GLOBAL_SCENARIOS["predator-free"]
    target = scenario.target_state
    items += _coordinate_items("E2", target, (18.67, 16.41, 0.0), COORD_TOL)
    items.append(_value_item("d2", th.predator_death_global, 0.0875, COEFF_TOL))
    d_gap = params.predator_death_rate - th.predator_death_local
    items.append(
        ReproItem(
            "d - d1",
            float(d_gap),
            0.0025,
            None,
            KNOWN,
            "recorded reference 0.0025 disagrees with its own defining formula, "
            "which gives ~0.0482; the sign (and the stability conclusion) agrees",
        )
    )
    items.append(
        _flag_item(
            "d exceeds the global threshold d2",
            equilibrium(params, EquilibriumKind.PREDATOR_FREE).hypothesis.satisfied,
            f"d = {params.predator_death_rate:g}, d2 = {th.predator_death_global:.6g}",
        )
    )
    items += _convergence_items(scenario, target)
    files = _scenario_bundle(scenario, out_dir, "fig4", "globally stable predator-free state")
    return items, files


def _ex3(out_dir: Path) -> tuple[list[ReproItem], list[Path]]:
    params = preset("example3").params
    th = thresholds(params)
    items = [_value_item("R0", th.reproduction_number, 0.7143, COEFF_TOL)]
    scenario = GLOBAL_SCENARIOS["prey-only"]
    target = scenario.target_state
    prey_only = equilibrium(params, EquilibriumKind.PREY_ONLY)
    for alpha in (0.85, 0.95):
        verdict = classify_equilibrium(params, prey_only, alpha)
        items.append(
            _flag_item(
                f"E1 stable at alpha={alpha:g}",
                verdict.stable is True,
                f"label {verdict.label}",
            )
        )
    items += _convergence_items(scenario, target)
    files = _scenario_bundle(scenario, out_dir, "fig5", "globally stable prey-only state")
    return items, files


_EXAMPLES = {"ex1": _ex1, "ex1-unstable": _ex1_unstable, "ex2": _ex2, "ex3": _ex3}
EXAMPLE_IDS = tuple(_EXAMPLES)


def reproduce(example_id: str, out_dir: Path | str = DEFAULT_OUT_DIR) -> ReproReport:
    """Run one bundled scenario and compare against its recorded references."""
    if example_id not in _EXAMPLES:
        known = ", ".join(EXAMPLE_IDS)
        raise ValidationError(f"unknown example id {example_id!r}; known ids: {known}")
    out = output_directory(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    items, files = _EXAMPLES[example_id](out)
    return ReproReport(example_id=example_id, items=tuple(items), files=tuple(files))
