import numpy as np
import pytest

from fracoepi.model import preset
from fracoepi.reproduce import GLOBAL_SCENARIOS
from fracoepi.runs import cached_solve


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
    return Trajectory(times=times, states=states, order=order, metadata={"step": step})
