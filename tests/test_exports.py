"""Package surface: every name a module lists in ``__all__`` exists, and every
rejected input raises the package's one ``ValidationError``."""

import doctest
import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import fracoepi
from fracoepi import ValidationError, ml_one, ml_two
from fracoepi.config import config_from_entries, parse_config_text, parse_grid
from fracoepi.model import EquilibriumKind, State, equilibrium, jacobian, preset, rhs
from fracoepi.runs import solve_model
from fracoepi.solver import (
    NODE_CAP,
    FodeProblem,
    SolverConfig,
    Trajectory,
    abm_weights,
    text_field,
)
from fracoepi.stability import CubicCharacteristic, classify_equilibrium, cubic_roots
from fracoepi.trajectory_io import load_trajectory_csv
from fracoepi.verification import convergence_check, lipschitz_bound

EX1 = preset("example1").params
_OSCILLATOR = text_field((("x", "v"), ("k",), "f_0 = v\nf_1 = -k * x\n"), (4.0,))


def _modules():
    return [fracoepi] + [
        importlib.import_module(f"fracoepi.{info.name}")
        for info in pkgutil.iter_modules(fracoepi.__path__)
        if info.name != "__main__"  # importing it runs the command line
    ]


def test_every_exported_name_resolves():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"


def test_readme_library_use_block_runs(capsys):
    # the block as printed in README.md, against the package this run imported
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.partition("\n## Library use\n")[2]
    block = section.partition("```python\n")[2].partition("```")[0]
    assert block
    exec(compile(block, "README.md (Library use)", "exec"), {})
    last = capsys.readouterr().out.splitlines()[-1]
    assert round(float(last), 2) == 464.67  # the bound its comment quotes


def test_docstring_examples_pass():
    # the docstring examples of the package this run imported
    results = [doctest.testmod(module) for module in _modules()]
    assert sum(result.attempted for result in results) >= 4
    assert sum(result.failed for result in results) == 0


def _csv(text):
    def read(tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text(text, encoding="utf-8")
        return load_trajectory_csv(path)

    return read


def _config(text):
    return lambda tmp_path: config_from_entries(parse_config_text(text))


def _trajectory(times=0.1 * np.arange(3), states=np.tile([30.0, 5.0, 200.0], (3, 1)),
                order=0.9):
    return lambda tmp_path: Trajectory(times=times, states=states, order=order)


@pytest.mark.parametrize(
    "reject",
    [
        lambda tmp_path: ml_two(0.0, 1.0, -1.0),
        lambda tmp_path: ml_two(0.5, -0.5, -1.0),
        lambda tmp_path: ml_two(0.5, 1.0, math.nan),
        _csv("t,S,I,P\n0,1,2\n"),
        _csv("t,S,I,P\n0,1,x,3\n"),
        _csv("t,S,I,P\n"),
        lambda tmp_path: parse_config_text("model.preset example1\n"),
        lambda tmp_path: parse_config_text("solver.alpha = [0.9\n"),
        _trajectory(states=np.tile([30.0, 5.0, 200.0], (2, 1))),
        _trajectory(states=np.array([30.0, 5.0, 200.0])),
        _trajectory(states=np.zeros((3, 0))),
        _trajectory(times=[0.0, 0.1, 0.2]),
        _trajectory(times=np.zeros((3, 1))),
        _trajectory(times=np.zeros(0), states=np.zeros((0, 3))),
        _trajectory(order=1.5),
        # a scalar that is not a number
        lambda tmp_path: FodeProblem(order=None, initial_state=[1.0], rhs=lambda t, y: -y),
        lambda tmp_path: solve_model(EX1, None, State(30.0, 5.0, 10.0), 0.1, 1.0),
        lambda tmp_path: SolverConfig(step="0.1", t_end=1.0),
        lambda tmp_path: SolverConfig(step=0.1, t_end=None),
        lambda tmp_path: abm_weights(0.5, 3, step="1"),
        lambda tmp_path: EX1.replace(growth_rate="2"),
        lambda tmp_path: State("a", 1.0, 1.0),
        lambda tmp_path: convergence_check(_trajectory()(tmp_path), np.zeros(3), tol=None),
        lambda tmp_path: lipschitz_bound(EX1, "1"),
        lambda tmp_path: ml_one(None, -1.0),
        lambda tmp_path: ml_two(0.5, None, -1.0),
        lambda tmp_path: classify_equilibrium(
            EX1, equilibrium(EX1, EquilibriumKind.COEXISTENCE), None),
        _trajectory(order=None),
        # an integer past the float range
        lambda tmp_path: EX1.replace(growth_rate=10**400),
        lambda tmp_path: State(10**400, 1.0, 1.0),
        lambda tmp_path: SolverConfig(step=0.1, t_end=10**400),
        lambda tmp_path: lipschitz_bound(EX1, 10**400),
        lambda tmp_path: ml_one(0.5, -10**400),
        lambda tmp_path: config_from_entries({"model.preset": "example1",
                                              "solver.step": 10**400}),
        # a node index at or past the cap: rejected before any table is allocated
        lambda tmp_path: abm_weights(0.5, NODE_CAP),
        lambda tmp_path: abm_weights(0.5, 10**30),
        # configuration text
        _config("model.r =\n"),
        _config("solver.alpha = ,\n"),
        _config("a b = 1\n"),
        _config("model.preset = example1\nrun.initial_states = 5\n"),
        _config("model.preset = example1\nrun.initial_states = [[1, 2]]\n"),
        _config("model.preset = [example1]\n"),
        lambda tmp_path: parse_grid("theta=0.1:0.2:1e12"),
        # states the vector field and its Jacobian are not defined at
        lambda tmp_path: rhs(EX1, np.array([1.0, -15.0, 1.0])),
        lambda tmp_path: jacobian(EX1, np.array([1.0, -15.0, 1.0])),
        lambda tmp_path: cubic_roots(CubicCharacteristic(math.nan, 1.0, 1.0)),
        # arguments of another type
        lambda tmp_path: equilibrium(EX1, "E*"),
        lambda tmp_path: FodeProblem(order=0.9, initial_state=[1.0], rhs=5),
        lambda tmp_path: abm_weights(0.5, True),
        # states numpy cannot read as an array of real numbers, or not finite
        lambda tmp_path: FodeProblem(order=0.9, initial_state="ab", rhs=lambda t, y: -y),
        lambda tmp_path: FodeProblem(order=0.9, initial_state=[[1.0, 2.0], [1.0]],
                                     rhs=lambda t, y: -y),
        lambda tmp_path: rhs(EX1, [[1, 2, 3], [4, 5]]),
        lambda tmp_path: rhs(EX1, "abc"),
        lambda tmp_path: jacobian(EX1, [[1, 2, 3], [4, 5]]),
        lambda tmp_path: jacobian(EX1, [1.0, 2.0, math.nan]),
        lambda tmp_path: convergence_check(_trajectory()(tmp_path), [[1, 2, 3], [4, 5]], 0.1),
        lambda tmp_path: FodeProblem(order=0.9, initial_state=[1 + 1j], rhs=lambda t, y: -y),
        lambda tmp_path: FodeProblem(order=0.9, initial_state=[10**400], rhs=lambda t, y: -y),
        lambda tmp_path: rhs(EX1, [30 + 1j, 5, 10]),
        lambda tmp_path: rhs(EX1, [10**400, 5, 10]),
        lambda tmp_path: jacobian(EX1, "abc"),
        lambda tmp_path: jacobian(EX1, [1 + 1j, 2.0, 3.0]),
        lambda tmp_path: jacobian(EX1, [10**400, 5, 10]),
        lambda tmp_path: jacobian(EX1, [1.0, 2.0, math.inf]),
        lambda tmp_path: convergence_check(_trajectory()(tmp_path), "abc", 0.1),
        lambda tmp_path: convergence_check(_trajectory()(tmp_path), [10**400, 5, 200], 0.1),
        # what a text field's callable cannot read as states
        lambda tmp_path: _OSCILLATOR(0.0, [[1.0, 2.0], [1.0]]),
        lambda tmp_path: _OSCILLATOR(0.0, 1.0),
        lambda tmp_path: _OSCILLATOR(0.0, np.float64(1.0)),
        lambda tmp_path: _OSCILLATOR(0.0, np.array(1.0)),
        lambda tmp_path: _OSCILLATOR(0.0, [[1.0, 2.0], [1.0, 0.5], [0.0, 0.0]]),
        # a bool, which Python and numpy would compare as 0 or 1
        lambda tmp_path: SolverConfig(step=True, t_end=4),
        lambda tmp_path: FodeProblem(order=True, initial_state=[1.0], rhs=lambda t, y: -y),
        lambda tmp_path: EX1.replace(growth_rate=True),
        lambda tmp_path: State(True, 1.0, 2.0),
        lambda tmp_path: State(1.0, np.True_, 2.0),
        lambda tmp_path: ml_one(True, -1.0),
        lambda tmp_path: ml_two(0.5, 1.0, np.False_),
        lambda tmp_path: _trajectory(order=True)(tmp_path),
        lambda tmp_path: config_from_entries({"model.preset": "example1",
                                              "solver.step": np.True_}),
    ],
    ids=[
        "ml-alpha", "ml-beta", "ml-argument",
        "csv-ragged-row", "csv-non-numeric", "csv-no-rows",
        "config-no-assignment", "config-unclosed-list",
        "trajectory-rows", "trajectory-1d-states", "trajectory-no-columns",
        "trajectory-list-times", "trajectory-2d-times", "trajectory-empty",
        "trajectory-order",
        "problem-order-none", "solve-order-none", "config-step-str", "config-t_end-none",
        "weights-step-str", "params-str", "state-str", "convergence-tol-none",
        "lipschitz-radius-str", "ml-one-alpha-none", "ml-two-beta-none",
        "classify-order-none", "trajectory-order-none",
        "params-huge-int", "state-huge-int", "config-t_end-huge-int",
        "lipschitz-radius-huge-int", "ml-argument-huge-int", "config-step-huge-int",
        "weights-at-cap", "weights-past-cap",
        "config-missing-value", "config-stray-comma", "config-invalid-key",
        "config-states-not-list", "config-state-of-two", "config-preset-list",
        "grid-count-past-cap",
        "rhs-pole", "jacobian-pole", "cubic-nan",
        "equilibrium-kind-str", "problem-rhs-not-callable", "weights-node-bool",
        "problem-initial-state-str", "problem-initial-state-ragged", "rhs-ragged", "rhs-str",
        "jacobian-ragged", "jacobian-nan", "convergence-target-ragged",
        "problem-initial-state-complex", "problem-initial-state-past-float", "rhs-complex",
        "rhs-past-float", "jacobian-str", "jacobian-complex", "jacobian-past-float",
        "jacobian-inf", "convergence-target-str", "convergence-target-past-float",
        "field-ragged-lists", "field-float", "field-numpy-scalar", "field-0d-array",
        "field-nested-lists-of-another-size",
        "config-step-bool", "problem-order-bool", "params-bool", "state-bool",
        "state-numpy-bool", "ml-one-alpha-bool", "ml-two-argument-numpy-bool",
        "trajectory-order-bool", "config-step-numpy-bool",
    ],
)
def test_every_rejection_is_a_validation_error(reject, tmp_path):
    with pytest.raises(ValidationError):
        reject(tmp_path)
