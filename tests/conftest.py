import contextlib
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import fracoepi
from fracoepi.model import ModelParams, preset
from fracoepi.reproduce import GLOBAL_SCENARIOS
from fracoepi.runs import cached_solve

# A failing @given test makes hypothesis's pytest plugin import its patch
# writer inside a report hook.  That import pulls in libcst, which warns
# (DeprecationWarning), and filterwarnings = error then turns the warning into
# an INTERNALERROR that ends the whole run.  Loading the module once here, with
# warnings silenced, leaves the hook nothing to import; without libcst the
# plugin skips the patch and there is nothing to load.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401

# the directory that holds the fracoepi this run imported: src/, or an
# installed copy.  Child processes get it first on their path, so that a run
# checks one copy only.
PACKAGE_PARENT = str(Path(fracoepi.__file__).resolve().parents[1])


def child_env(*extra_paths: str) -> dict:
    """This process's environment, with PACKAGE_PARENT and then ``extra_paths``
    ahead of its PYTHONPATH."""
    path = [PACKAGE_PARENT, *extra_paths, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


@pytest.fixture(scope="session")
def example1():
    return preset("example1").params


def scenario_run(name: str, alpha: float, point_index: int = 0):
    """Cached global-stability run shared across test modules."""
    scenario = GLOBAL_SCENARIOS[name]
    x0 = scenario.initial_states[point_index]
    return cached_solve(scenario.params, alpha, x0, scenario.step, scenario.t_end)


def preset_run(name: str, alpha: float, t_end: float = 500.0, step: float = 0.05,
               point_index: int = 0):
    p = preset(name)
    return cached_solve(p.params, alpha, p.initial_states[point_index], step, t_end)


def constant_trajectory(state: np.ndarray, n_nodes: int = 50, step: float = 0.05,
                        order: float = 0.9):
    from fracoepi.solver import Trajectory

    states = np.tile(np.asarray(state, float), (n_nodes, 1))
    times = step * np.arange(n_nodes)
    return Trajectory(times=times, states=states, order=order)


def _rate(low: float, high: float):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def model_params(draw):
    """Valid ModelParams over the ranges of the model tests' random draws, with
    theta = d drawn on its own as well, since S* is undefined there."""
    params = ModelParams(
        growth_rate=draw(_rate(0.1, 5.0)),
        carrying_capacity=draw(_rate(5.0, 100.0)),
        infection_rate=draw(_rate(0.001, 0.2)),
        predation_rate=draw(_rate(0.05, 2.0)),
        infected_death_rate=draw(_rate(0.02, 1.0)),
        half_saturation=draw(_rate(0.5, 50.0)),
        conversion_efficiency=draw(_rate(0.01, 1.0)),
        predator_death_rate=draw(_rate(0.005, 0.5)),
    )
    if draw(st.booleans()):
        params = params.replace(conversion_efficiency=params.predator_death_rate)
    return params
