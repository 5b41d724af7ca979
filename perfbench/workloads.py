"""The benchmark's workloads: inputs made from a seed, the timed call, output checks.

Every workload is one call into a public entry point of fracoepi.  Its
outputs are checked in two ways, both outside the timed region:

* invariants that hold for any seed (non-negativity, boundedness with the
  Mittag-Leffler envelope, convergence to the stable equilibrium);
* for the default seed, and for every seed of a workload whose inputs do not
  depend on it, agreement with ``reference.json`` (values recorded at the
  seed commit by ``record_reference.py``) to a relative difference of 1e-12.

Only the standard library is imported at module level, so that importing
fracoepi (and numpy with it) falls inside the worker's timed set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
REL_TOL = 1e-12  # the agreement gate between solver versions
NEGATIVE_TOL = 1e-8  # check_nonnegativity's default tolerance
REFERENCE = Path(__file__).with_name("reference.json")


def _jitter(rng: random.Random, values, share: float = 0.1) -> list[float]:
    return [v * (1.0 + rng.uniform(-share, share)) for v in values]


# --- long-solve: one full-memory solve of 60 000 nodes --------------------

LONG_PRESET = "example1-global"
LONG_ORDER, LONG_STEP, LONG_T_END = 0.95, 0.05, 3000.0
LONG_NODES = 60_000
LONG_SAMPLES = (0, 1, 2, 10, 100, 1000, 10_000, 30_000, 59_999, 60_000)
CONVERGENCE_TOL = 1e-2


def _long_inputs(seed: int, tmp: Path) -> dict:
    from fracoepi import State, preset

    p = preset(LONG_PRESET)
    first = p.initial_states[0]
    values = (first.susceptible, first.infected, first.predator)
    return {"params": p.params, "initial": State(*_jitter(random.Random(seed), values))}


def _long_run(inputs: dict):
    from fracoepi import solve_model

    return solve_model(inputs["params"], LONG_ORDER, inputs["initial"], LONG_STEP, LONG_T_END)


def _long_observe(traj, inputs: dict, taps: dict) -> dict:
    return {
        "nodes": len(traj.times) - 1,
        "states": {str(n): traj.states[n].tolist() for n in LONG_SAMPLES},
    }


def _long_invariants(traj, inputs: dict, taps: dict) -> list[str]:
    import numpy as np
    from fracoepi import EquilibriumKind, equilibria

    states = traj.states
    if states.shape != (LONG_NODES + 1, 3) or not np.isfinite(states).all():
        return [f"expected {LONG_NODES + 1} finite states, got shape {states.shape}"]
    errors = []
    if states.min() < -NEGATIVE_TOL:
        errors.append(f"population undershoots to {states.min():.3g}")
    target = next(
        eq.state for eq in equilibria(inputs["params"]) if eq.kind is EquilibriumKind.COEXISTENCE
    )
    tail = states[-(LONG_NODES // 10) :]
    distance = float(np.abs(tail - target.as_array()).max())
    if not distance <= CONVERGENCE_TOL:
        errors.append(f"tail distance {distance:.3g} to E* exceeds {CONVERGENCE_TOL}")
    return errors


# --- reproduce-ex1: the bundled ex1 reproduction --------------------------

def _repro_inputs(seed: int, tmp: Path) -> dict:
    return {"out": tmp / "bundle"}


def _repro_run(inputs: dict):
    from fracoepi.reproduce import reproduce

    return reproduce("ex1", inputs["out"])


def _repro_observe(report, inputs: dict, taps: dict) -> dict:
    from fracoepi.trajectory_io import load_trajectory_csv

    csvs = {}
    for path in report.files:
        if path.suffix == ".csv":
            traj = load_trajectory_csv(path)
            rows = len(traj.times)
            csvs[path.name] = {
                "rows": rows,
                "samples": [
                    [float(traj.times[n]), *traj.states[n].tolist()]
                    for n in (0, 1, rows // 2, rows - 1)
                ],
            }
    return {
        "items": [[item.name, item.status, item.computed] for item in report.items],
        "files": [path.name for path in report.files],
        "csv": csvs,
    }


def _repro_invariants(report, inputs: dict, taps: dict) -> list[str]:
    failed = [item.name for item in report.items if item.status == "fail"]
    return [f"reproduction items failed: {failed}"] if failed else []


# --- verify-envelope: the verify battery with the decay envelope ----------

VERIFY_STATE = (30.0, 5.0, 200.0)  # V(0) ~ 585, above l/eta ~ 464.7
VERIFY_ORDER, VERIFY_STEP, VERIFY_T_END = 0.95, 0.05, 200.0
VERIFY_ARGS = ("--preset", "example1", "--alpha", str(VERIFY_ORDER),
               "--step", str(VERIFY_STEP), "--t-end", str(VERIFY_T_END))
DECAY_NODES = (1, 10, 100, 1000, 2000, 3000, 4000)  # where E_alpha(-eta t^alpha) is recorded
VERIFY_TAPS = (
    ("fracoepi.verification", "check_nonnegativity"),
    ("fracoepi.verification", "boundedness_certificate"),
    ("fracoepi.verification", "convergence_check"),
    ("fracoepi.verification", "lyapunov_monotonicity"),
)


def _verify_inputs(seed: int, tmp: Path) -> dict:
    s, i, p = _jitter(random.Random(seed), VERIFY_STATE)
    config = tmp / "verify.cfg"
    config.write_text(f"run.initial_states = [[{s!r}, {i!r}, {p!r}]]\n", encoding="utf-8")
    return {"argv": ["verify", "--config", str(config), *VERIFY_ARGS]}


def _verify_run(inputs: dict) -> dict:
    from fracoepi.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(inputs["argv"])
    return {"exit_code": code, "stdout": out.getvalue()}


def _verify_observe(result: dict, inputs: dict, taps: dict) -> dict:
    from fracoepi import ml_one

    (nn,) = taps["check_nonnegativity"]
    (bc,) = taps["boundedness_certificate"]
    (conv,) = taps["convergence_check"]
    (ly,) = taps["lyapunov_monotonicity"]
    return {
        "exit_code": result["exit_code"],
        "verdicts": re.findall(r"\b(pass|fail)\b", result["stdout"]),
        "nonnegativity_passed": nn.passed,
        "boundedness_passed": bc.passed,
        "envelope_checked": bc.envelope_checked,
        "worst_value": bc.worst_value,
        "bound": bc.bound,
        "max_tail_distance": conv.max_tail_distance,
        "lyapunov_max_increase": ly.max_increase,
        # the envelope's decay factor, evaluated through the public function so
        # the check does not depend on how boundedness_certificate calls it
        "decay": [
            ml_one(VERIFY_ORDER, -bc.eta * (n * VERIFY_STEP) ** VERIFY_ORDER)
            for n in DECAY_NODES
        ],
    }


def _verify_invariants(result: dict, inputs: dict, taps: dict) -> list[str]:
    errors = []
    if result["exit_code"] not in (0, 1):
        errors.append(f"verify exited with code {result['exit_code']}")
    if not all(report.passed for report in taps["check_nonnegativity"]):
        errors.append("non-negativity check failed")
    bounded = taps["boundedness_certificate"]
    if len(bounded) != 1 or not (bounded[0].passed and bounded[0].envelope_checked):
        errors.append("boundedness did not pass with the Mittag-Leffler envelope checked")
    return errors


# --- registry and checks --------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool  # False: inputs are fixed, so every seed is checked against the reference
    make_inputs: Callable
    run: Callable
    observe: Callable
    invariants: Callable
    taps: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("long-solve", True, _long_inputs, _long_run, _long_observe, _long_invariants),
        Workload(
            "reproduce-ex1", False, _repro_inputs, _repro_run, _repro_observe, _repro_invariants
        ),
        Workload(
            "verify-envelope",
            True,
            _verify_inputs,
            _verify_run,
            _verify_observe,
            _verify_invariants,
            VERIFY_TAPS,
        ),
    )
}


def compare(got, want, path: str = "") -> list[str]:
    """Differences between an observation and its recorded reference."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{path}: keys differ from the reference"]
        return [e for k in want for e in compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs from the reference"]
        return [e for i, (g, w) in enumerate(zip(got, want)) for e in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if abs(got - want) <= REL_TOL * max(abs(got), abs(want)):
            return []
        return [f"{path}: {got!r} differs from the recorded {want!r}"]
    return [] if got == want else [f"{path}: {got!r} differs from the recorded {want!r}"]


def observation(workload: Workload, result, inputs: dict, taps: dict):
    """The observation in its JSON form (tuples become lists)."""
    return json.loads(json.dumps(workload.observe(result, inputs, taps)))


def check(workload: Workload, result, inputs: dict, taps: dict, seed: int) -> list[str]:
    errors = workload.invariants(result, inputs, taps)
    if not workload.seeded or seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name]
        errors += compare(observation(workload, result, inputs, taps), reference)
    return errors
