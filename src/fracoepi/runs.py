"""Model solve helpers with a per-process memo.

Long global-stability runs (tens of thousands of nodes) appear in several
places (reproduction bundles, verification sweeps, the test suite); the memo
avoids recomputing identical solves inside one process.  Nothing here starts
a thread: a single solve is sequential and holds the interpreter lock, so many
solves run one after another through the memo.
"""

from __future__ import annotations

from typing import Sequence

from .model import ModelParams, State, vector_field
from .solver import FodeProblem, SolverConfig, Trajectory, solve_pece

__all__ = ["cached_solve", "solve_model", "solve_many", "clear_cache"]

_CACHE: dict = {}


def solve_model(
    params: ModelParams,
    order: float,
    initial: State,
    step: float,
    t_end: float,
    corrector_iterations: int = 1,
) -> Trajectory:
    problem = FodeProblem(
        order=order, initial_state=initial.as_array(), rhs=vector_field(params)
    )
    config = SolverConfig(
        step=step, t_end=t_end, corrector_iterations=corrector_iterations
    )
    return solve_pece(problem, config)


def cached_solve(
    params: ModelParams,
    order: float,
    initial: State,
    step: float,
    t_end: float,
    corrector_iterations: int = 1,
) -> Trajectory:
    """Memoized full-memory solve; returned trajectories are read-only."""
    key = (params, order, initial, step, t_end, corrector_iterations)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    traj = solve_model(params, order, initial, step, t_end, corrector_iterations)
    _CACHE[key] = traj
    return traj


def clear_cache() -> None:
    _CACHE.clear()


def solve_many(jobs: Sequence[tuple]) -> list[Trajectory]:
    """Run cached solves one after another, results in job order.

    Each job is the positional argument tuple of :func:`cached_solve`.
    """
    return [cached_solve(*job) for job in jobs]
