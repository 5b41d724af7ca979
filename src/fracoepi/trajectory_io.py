"""Trajectory CSV serialization.

Comma-separated, one header row (``t,S,I,P``; ``t,x0,x1,...`` for a
dimension other than three), LF line endings, %.17g floats so a parsed
file reproduces the in-memory arrays bit-exactly.  Data files carry no
timestamps; identical runs yield byte-identical files.

The writer formats 256 rows at a time with one ``%`` on the ``%.17g`` row
template repeated once per row, from ``tolist()`` of that chunk only;
``"%.17g" % x`` and ``format(x, ".17g")`` give the same text for every
double, so the bytes are those of :func:`format_float` applied value by
value.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .solver import Trajectory, ValidationError

__all__ = ["alpha_tag", "save_trajectory_csv", "load_trajectory_csv", "format_float"]

_CHUNK_ROWS = 256  # rows formatted per write; never a whole trajectory as Python objects


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def alpha_tag(alpha: float) -> str:
    """The order as it appears in CSV file names: 0.95 -> ``0p95``."""
    return format(alpha, "g").replace(".", "p")


def save_trajectory_csv(traj: Trajectory, path: Path | str) -> Path:
    path = Path(path)
    dim = traj.states.shape[1]
    names = ("S", "I", "P") if dim == 3 else tuple(f"x{i}" for i in range(dim))
    row = ",".join(["%.17g"] * (dim + 1)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(names) + "\n")
        for lo in range(0, len(traj.times), _CHUNK_ROWS):
            hi = lo + _CHUNK_ROWS
            block = np.column_stack((traj.times[lo:hi], traj.states[lo:hi]))
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
    return path


def load_trajectory_csv(path: Path | str) -> Trajectory:
    path = Path(path)
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for number, line in enumerate(fh, start=2):
            tokens = line.strip().split(",")
            if tokens == [""]:
                continue
            if len(tokens) != len(header):
                raise ValidationError(
                    f"{path}, line {number}: {len(tokens)} fields, the header has {len(header)}"
                )
            try:
                rows.append([float(tok) for tok in tokens])
            except ValueError as exc:
                raise ValidationError(f"{path}, line {number}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: malformed trajectory CSV, no data rows")
    data = np.array(rows)
    times = data[:, 0].copy()
    states = data[:, 1:].copy()
    return Trajectory(
        times=times,
        states=states,
        order=float("nan"),  # the file does not record the order
    )
