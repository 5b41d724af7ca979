"""Package surface: every name a module lists in ``__all__`` exists, and every
rejected input raises the package's one ``ValidationError``."""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import fracoepi
from fracoepi import ValidationError, ml_two
from fracoepi.config import parse_config_text
from fracoepi.solver import Trajectory
from fracoepi.trajectory_io import load_trajectory_csv


def test_every_exported_name_resolves():
    modules = [fracoepi] + [
        importlib.import_module(f"fracoepi.{info.name}")
        for info in pkgutil.iter_modules(fracoepi.__path__)
        if info.name != "__main__"  # importing it runs the command line
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"


def _csv(text):
    def read(tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text(text, encoding="utf-8")
        return load_trajectory_csv(path)

    return read


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
    ],
    ids=[
        "ml-alpha", "ml-beta", "ml-argument",
        "csv-ragged-row", "csv-non-numeric", "csv-no-rows",
        "config-no-assignment", "config-unclosed-list",
        "trajectory-rows", "trajectory-1d-states", "trajectory-no-columns",
        "trajectory-list-times", "trajectory-2d-times", "trajectory-empty",
        "trajectory-order",
    ],
)
def test_every_rejection_is_a_validation_error(reject, tmp_path):
    with pytest.raises(ValidationError):
        reject(tmp_path)
