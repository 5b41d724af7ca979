"""Model solve helpers with a per-process memo.

Long global-stability runs (tens of thousands of nodes) appear in several
places (reproduction bundles, verification sweeps, the test suite); the memo
avoids recomputing identical solves inside one process and keeps the 128
most recently used ones.  Nothing here starts a thread: a single solve is
sequential and holds the interpreter lock, so many solves run one after
another through the memo.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .model import ModelParams, State, vector_field
from .solver import FodeProblem, SolverConfig, Trajectory, solve_pece

__all__ = ["cached_solve", "solve_model", "solve_many"]


def solve_model(
    params: ModelParams,
    order: float,
    initial: State,
    step: float,
    t_end: float,
) -> Trajectory:
    problem = FodeProblem(
        order=order, initial_state=initial.as_array(), rhs=vector_field(params)
    )
    return solve_pece(problem, SolverConfig(step=step, t_end=t_end))


@functools.lru_cache(maxsize=128)
def cached_solve(
    params: ModelParams, order: float, initial: State, step: float, t_end: float, /
) -> Trajectory:
    """Memoized full-memory solve; returned trajectories are read-only.

    Its parameters are positional-only: the memo would key a keyword call
    apart from a positional one and solve it again.
    """
    return solve_model(params, order, initial, step, t_end)


def solve_many(jobs: Sequence[tuple]) -> list[Trajectory]:
    """Run cached solves one after another, results in job order.

    Each job is the positional argument tuple of :func:`cached_solve`.
    """
    return [cached_solve(*job) for job in jobs]
