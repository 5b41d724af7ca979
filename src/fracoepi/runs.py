"""Model solve helpers with a per-process memo.

Long global-stability runs (tens of thousands of nodes) appear in several
places (reproduction bundles, verification sweeps, the test suite); the memo
avoids recomputing identical solves inside one process.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

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


def _key(params, order, initial, step, t_end, corrector_iterations):
    return (params, order, initial, step, t_end, corrector_iterations)


def cached_solve(
    params: ModelParams,
    order: float,
    initial: State,
    step: float,
    t_end: float,
    corrector_iterations: int = 1,
) -> Trajectory:
    """Memoized full-memory solve; returned trajectories are read-only."""
    key = _key(params, order, initial, step, t_end, corrector_iterations)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    traj = solve_model(params, order, initial, step, t_end, corrector_iterations)
    _CACHE[key] = traj
    return traj


def clear_cache() -> None:
    _CACHE.clear()


def solve_many(jobs: Sequence[tuple], max_workers: Optional[int] = None) -> list[Trajectory]:
    """Run independent cached solves concurrently, results in job order.

    Each job is the positional argument tuple of :func:`cached_solve`.
    """
    if len(jobs) <= 1:
        return [cached_solve(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=max_workers or min(8, len(jobs))) as pool:
        futures = [pool.submit(cached_solve, *job) for job in jobs]
        return [f.result() for f in futures]
