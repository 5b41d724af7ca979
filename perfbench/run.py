"""fracoepi benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Each repetition runs in a fresh worker process (``worker.py``), so the
solve memo never carries results from one repetition into the next and every
repetition yields its own set-up time and peak memory.  Repetitions are run
one after another, a closed loop with a single client, until ``--seconds``
have passed and at least ``MIN_REPS`` have completed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over repetitions.  Times are given at a fixed reference speed of the machine:
each worker also times ``worker.reference_s``, a computation that never
changes, right after its set-up and right after its timed call, and its
times are scaled by ``REFERENCE_S`` over that measurement.  On a shared host
a busy neighbour slows a core by up to 1.6x, for seconds to minutes at a
time; the scaling removes most of that drift, which a median over a run
cannot.  ``--trace 1`` alternates untraced and traced repetitions, and
reports the per-layer metrics (medians over the traced repetitions, not
scaled) and the tracing overhead (ratio of the two scaled median wall
times).  The last line of standard output is one JSON object; the lines
before it summarise the run, raw times included, and its environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
MIN_REPS = 2
# worker.reference_s() on a quiet 2-core Xeon (Sapphire Rapids) VM: times are
# reported as if the machine ran at that speed
REFERENCE_S = 0.125
SETUP_SAMPLES = 9  # set-up is short and noisy: take the median of several fresh processes
DEADLINE_S = 170.0  # stay inside the 180 s allowed for one invocation
EXACT_UNITS = ("count", "B")  # metrics that must repeat exactly between traced repetitions


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _worker(workload: str, seed: int, mode: str, scratch: Path, deadline: float) -> dict:
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} repetition")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--scratch", str(scratch)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"{mode} repetition exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def _scaled(record: dict, key: str) -> float:
    """``record[key]``, a time measured in one worker, at the reference speed."""
    return record[key] * REFERENCE_S / statistics.mean(record["reference_s"])


def _spread(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        def call(mode):
            return _worker(workload, seed, mode, scratch, deadline)

        warm = call("setup")  # writes bytecode caches; its set-up time is discarded
        modes = ("untraced", "traced") if trace else ("untraced",)
        reps = []
        setups = []
        longest = 0.0
        while True:
            if not trace:  # spread set-up samples over the run, as the machine's speed drifts
                setups.append(_scaled(call("setup"), "setup_s"))
            mode = modes[len(reps) % len(modes)]
            t0 = time.perf_counter()
            reps.append(dict(call(mode), mode=mode))
            longest = max(longest, time.perf_counter() - t0)
            now = time.perf_counter()
            enough = all(sum(r["mode"] == m for r in reps) >= MIN_REPS for m in modes)
            if enough and (now - start >= seconds or now + longest > deadline):
                break
        setups += [_scaled(r, "setup_s") for r in reps]
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(_scaled(call("setup"), "setup_s"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    untraced = [r for r in reps if r["mode"] == "untraced"]
    traced = [r for r in reps if r["mode"] == "traced"]
    if traced:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        exact = [k for k, unit in units.items() if unit in EXACT_UNITS]
        first = traced[0]["layers"]
        for rep in traced[1:]:
            changed = [k for k in exact if rep["layers"].get(k) != first.get(k)]
            if changed:
                rep["errors"].append(f"counts did not repeat exactly: {changed}")
    failed = sum(bool(r["errors"]) for r in reps)
    for r in reps:
        for error in r["errors"]:
            print(f"failed operation ({r['mode']}): {error}", file=sys.stderr)

    walls = [_scaled(r, "wall_s") for r in untraced]
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in names if k in traced[0]["layers"]}
        values["trace.overhead_ratio"] = (
            statistics.median(_scaled(r, "wall_s") for r in traced) / statistics.median(walls)
        )
        for key in traced[0]["missing"]:
            print(f"trace target {key} not found; its metrics are absent", file=sys.stderr)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
    raw = [r["wall_s"] for r in untraced]
    print(f"{workload} seed={seed}: {len(reps)} repetitions ({len(traced)} traced), "
          f"failed_frac {failed / len(reps):g} ({failed}/{len(reps)})")
    print(f"  untraced wall_s at reference speed, median [quartiles] {_spread(walls)} s; "
          f"measured {_spread(raw)} s, each {', '.join(f'{w:.3f}' for w in raw)}; "
          f"cpu_s {_spread([r['cpu_s'] for r in untraced])} s; "
          f"reference_s {_spread([x for r in reps for x in r['reference_s']])} s; "
          f"setup_s at reference speed {_spread(setups)} s over {len(setups)} processes")
    return {
        "values": values,
        "attempted": len(reps),
        "failed": failed,
        "versions": warm["versions"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "fracoepi" / "__init__.py").is_file():
        print(f"no fracoepi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    SCRATCH.mkdir(exist_ok=True)
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            SCRATCH.rmdir()  # only when empty: another run may still be using it
        except OSError:
            pass

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    environment = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **outcome["versions"],
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    print("environment: " + json.dumps(environment))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in outcome["values"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
