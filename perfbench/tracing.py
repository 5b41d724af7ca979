"""Per-layer tracing of fracoepi, installed from outside the package.

Each public function named in ``TARGETS`` is replaced, in every loaded
``fracoepi`` module namespace that refers to it, by a wrapper that records a
span: wall-clock start and end, and the busy time of the calling thread
(``time.thread_time``).  Keeping both separates work from waiting: inside
``solve_many`` the solver threads hold the interpreter lock in turn, so their
wall-clock spans include time spent waiting for it.

Nothing in ``src/`` is changed.  A target whose name no longer exists is
listed in ``Tracer.missing`` and the metrics derived from it are left out
instead of failing the run.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import threading
import time

# (key, module, public function) of every wrapped entry point
TARGETS = (
    ("solver", "fracoepi.solver", "solve_pece"),
    ("model", "fracoepi.model", "vector_field"),
    ("solve_many", "fracoepi.runs", "solve_many"),
    ("cached_solve", "fracoepi.runs", "cached_solve"),
    ("ml_one", "fracoepi.mittag_leffler", "ml_one"),
    ("ml_two", "fracoepi.mittag_leffler", "ml_two"),
    ("boundedness", "fracoepi.verification", "boundedness_certificate"),
    ("nonnegativity", "fracoepi.verification", "check_nonnegativity"),
    ("lyapunov", "fracoepi.verification", "lyapunov_monotonicity"),
    ("convergence", "fracoepi.verification", "convergence_check"),
    ("lipschitz_bound", "fracoepi.verification", "lipschitz_bound"),
    ("lipschitz_ratio", "fracoepi.verification", "empirical_lipschitz_ratio"),
    ("classify", "fracoepi.stability", "classify_equilibrium"),
    ("write_csv", "fracoepi.trajectory_io", "save_trajectory_csv"),
    ("reproduce", "fracoepi.reproduce", "reproduce"),
    ("cli", "fracoepi.cli", "main"),
)
MODULES = tuple(dict.fromkeys(module for _, module, _ in TARGETS))

ML_KEYS = ("ml_one", "ml_two")
# |z| band edges: at order 0.95 the float series certifies up to |z| ~ 4, the
# mpmath series runs from there to |z| ~ 25, and the tail expansion beyond
ML_BANDS = (("near", 0.0, 3.0), ("mid", 3.0, 25.0), ("far", 25.0, float("inf")))

# verdict attribute of each verification check's report
VERDICTS = {
    "nonnegativity": "passed",
    "boundedness": "passed",
    "lyapunov": "monotone",
    "convergence": "converged",
}


def replace_everywhere(original, replacement) -> None:
    """Point every fracoepi module-level reference to ``original`` at ``replacement``.

    Modules import each other's functions by name, so patching only the
    defining module would miss calls made from the others.
    """
    for name, module in list(sys.modules.items()):
        if name == "fracoepi" or name.startswith("fracoepi."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def tap(module_name: str, attr: str, sink: list) -> None:
    """Append every return value of ``module.attr`` to ``sink``."""
    original = getattr(sys.modules[module_name], attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    replace_everywhere(original, wrapper)


def _info(key, args, result):
    """What a span records besides its timing, read from arguments and result."""
    if key == "solver":
        return len(result.times) - 1  # nodes stepped
    if key in ML_KEYS:
        return abs(float(args[-1]))  # |z|
    if key in VERDICTS:
        return bool(getattr(result, VERDICTS[key]))
    if key == "write_csv":
        return (len(args[0].times), os.path.getsize(result))
    if key == "reproduce":
        return (len(result.items), sum(item.status == "fail" for item in result.items))
    return None


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(b, lo), min(e, hi)) for b, e in intervals if e > lo and b < hi)
    total = 0.0
    run_b = run_e = None
    for b, e in clipped:
        if run_e is None or b > run_e:
            if run_e is not None:
                total += run_e - run_b
            run_b, run_e = b, e
        else:
            run_e = max(run_e, e)
    if run_e is not None:
        total += run_e - run_b
    return total


def _quantile(values, q: int) -> float:
    """q-th percentile (0 when there are no values)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


class Tracer:
    """Spans and counters for one traced repetition."""

    def __init__(self):
        # key -> [(wall start, wall end, busy seconds, info)]
        self.spans = {key: [] for key, _, _ in TARGETS}
        self.missing: list[str] = []
        self._local = threading.local()
        self._rhs: list[list] = []  # one [calls, wall s, busy s] per thread

    def install(self) -> None:
        for key, module_name, attr in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(key)
            elif key == "model":
                replace_everywhere(original, self._wrap_vector_field(original))
            else:
                replace_everywhere(original, self._wrap(key, original))

    def _wrap(self, key, original):
        spans = self.spans[key]
        local = self._local
        is_ml = key in ML_KEYS

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if is_ml and getattr(local, "in_ml", False):
                return original(*args, **kwargs)  # ml_one calls ml_two: count once
            if key == "solver":
                local.solved = True
            elif key == "cached_solve":
                local.solved = False
            elif is_ml:
                local.in_ml = True
            busy_clock = time.process_time if key == "solve_many" else time.thread_time
            start = time.perf_counter()
            cpu0 = busy_clock()  # process_time for solve_many: all its threads
            try:
                result = original(*args, **kwargs)
            finally:
                if is_ml:
                    local.in_ml = False
            busy = busy_clock() - cpu0
            end = time.perf_counter()
            if key == "cached_solve":
                info = not local.solved  # a memo hit runs no solve
            else:
                info = _info(key, args, result)
            spans.append((start, end, busy, info))
            return result

        return wrapper

    def _wrap_vector_field(self, original):
        local = self._local
        accumulators = self._rhs

        @functools.wraps(original)
        def vector_field(*args, **kwargs):
            f = original(*args, **kwargs)

            def traced_rhs(t, y):
                acc = getattr(local, "rhs", None)
                if acc is None:
                    acc = local.rhs = [0, 0.0, 0.0]
                    accumulators.append(acc)
                start = time.perf_counter()
                cpu0 = time.thread_time()
                value = f(t, y)
                acc[2] += time.thread_time() - cpu0
                acc[1] += time.perf_counter() - start
                acc[0] += 1
                return value

            return traced_rhs

        return vector_field

    # --- derived per-layer metrics -------------------------------------

    def _wall(self, *keys) -> float:
        return sum(e - b for key in keys for b, e, _, _ in self.spans[key])

    def _busy(self, *keys) -> float:
        return sum(c for key in keys for _, _, c, _ in self.spans[key])

    def _self(self, key, child_keys) -> float:
        """Span time of ``key`` not covered by any span of ``child_keys``."""
        children = [(b, e) for k in child_keys for b, e, _, _ in self.spans[k]]
        return sum(e - b - _covered(children, b, e) for b, e, _, _ in self.spans[key])

    def metrics(self) -> dict:
        s = self.spans
        gone = set(self.missing)
        out: dict = {}

        def present(*keys):
            return not gone.intersection(keys)

        if present("model"):
            out["model.rhs_calls"] = sum(acc[0] for acc in self._rhs)
            out["model.rhs_s"] = sum(acc[1] for acc in self._rhs)
            out["model.rhs_cpu_s"] = sum(acc[2] for acc in self._rhs)
        if present("solver"):
            nodes = sum(info for _, _, _, info in s["solver"])
            busy = self._busy("solver")
            out["solver.calls"] = len(s["solver"])
            out["solver.nodes"] = nodes
            out["solver.s"] = self._wall("solver")
            out["solver.cpu_s"] = busy
            out["solver.wait_s"] = out["solver.s"] - busy
            if present("model"):
                out["solver.self_s"] = busy - out["model.rhs_cpu_s"]
            out["solver.us_per_node"] = 1e6 * busy / nodes if nodes else 0.0
        if present("solve_many"):
            wall = self._wall("solve_many")
            out["runs.solve_many_s"] = wall
            out["runs.cpu_per_wall"] = self._busy("solve_many") / wall if wall else 0.0
            if present("solver"):
                solves = [(b, e) for b, e, _, _ in s["solver"]]
                inside = sum(_covered([iv], b, e) for b, e, _, _ in s["solve_many"] for iv in solves)
                out["runs.overlap"] = inside / wall if wall else 0.0
        if present("cached_solve", "solver"):
            calls = len(s["cached_solve"])
            hits = sum(info for _, _, _, info in s["cached_solve"])
            out["runs.cached_solve_calls"] = calls
            out["runs.cache_hits"] = hits
            out["runs.cache_hit_ratio"] = hits / calls if calls else 0.0
        if present(*ML_KEYS):
            calls = [(e - b, info) for key in ML_KEYS for b, e, _, info in s[key]]
            durations = sorted(d * 1e6 for d, _ in calls)
            out["mittag_leffler.calls"] = len(calls)
            out["mittag_leffler.s"] = self._wall(*ML_KEYS)
            out["mittag_leffler.call_us_p50"] = _quantile(durations, 50)
            out["mittag_leffler.call_us_p99"] = _quantile(durations, 99)
            for band, lo, hi in ML_BANDS:
                inband = [d for d, z in calls if lo <= z < hi]
                out[f"mittag_leffler.{band}.calls"] = len(inband)
                out[f"mittag_leffler.{band}.s"] = sum(inband)
        if present("boundedness"):
            out["verification.boundedness_s"] = self._wall("boundedness")
            if present(*ML_KEYS):
                out["verification.boundedness_self_s"] = self._self("boundedness", ML_KEYS)
        for key in ("nonnegativity", "lyapunov", "convergence"):
            if present(key):
                out[f"verification.{key}_s"] = self._wall(key)
        if present("lipschitz_bound", "lipschitz_ratio"):
            out["verification.lipschitz_s"] = self._wall("lipschitz_bound", "lipschitz_ratio")
        if present(*VERDICTS):
            verdicts = [info for key in VERDICTS for _, _, _, info in s[key]]
            out["verification.checks"] = len(verdicts)
            out["verification.checks_failed"] = verdicts.count(False)
        if present("classify"):
            out["stability.classify_calls"] = len(s["classify"])
            out["stability.classify_s"] = self._wall("classify")
        if present("write_csv"):
            out["trajectory_io.write_s"] = self._wall("write_csv")
            out["trajectory_io.rows_written"] = sum(i[0] for _, _, _, i in s["write_csv"])
            out["trajectory_io.bytes_written"] = sum(i[1] for _, _, _, i in s["write_csv"])
        inner = [key for key, _, _ in TARGETS if key not in ("model", "reproduce", "cli")]
        if present("reproduce"):
            out["reproduce.items"] = sum(i[0] for _, _, _, i in s["reproduce"])
            out["reproduce.items_failed"] = sum(i[1] for _, _, _, i in s["reproduce"])
            out["reproduce.self_s"] = self._self("reproduce", inner)
        if present("cli"):
            out["cli.self_s"] = self._self("cli", inner + ["reproduce"])
        return out
