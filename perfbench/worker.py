"""One benchmark repetition in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --scratch DIR

MODE is ``setup`` (import and input generation only), ``untraced``,
``traced`` or ``record`` (untraced, printing the observation that
``record_reference.py`` stores instead of checking it).  The last line of
standard output is one JSON object.  A failure of the program under test
(an exception, a divergence, a wrong output) is reported in that object as a
failed operation; a broken environment (fracoepi not importable from this
checkout's ``src``) exits non-zero.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def reference_s() -> float:
    """Seconds a fixed computation takes here: a pure-Python loop and numpy array arithmetic.

    It never changes with the program, so its time measures the machine's speed
    at that moment.  It calls no BLAS routine, whose threads would make it
    depend on the other core's load.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 4096)
    y = np.empty_like(x)
    np.multiply(x, x, out=y)
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    for _ in range(10_000):
        np.multiply(x, x, out=y)
        y.sum()
    return time.perf_counter() - start


def _versions() -> dict:
    return {
        "python": sys.version.split()[0],
        **{name: sys.modules[name].__version__ for name in ("numpy", "mpmath", "fracoepi")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "untraced", "traced", "record"])
    parser.add_argument("--scratch", required=True, type=Path)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    tmp = Path(tempfile.mkdtemp(dir=args.scratch))
    try:
        return _repetition(workload, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _repetition(workload, args, tmp: Path) -> int:
    start = time.perf_counter()
    fracoepi = importlib.import_module("fracoepi")
    for name in tracing.MODULES:  # the whole package, so set-up includes every module
        try:
            importlib.import_module(name)
        except ImportError:
            pass  # a module gone from the package: its trace targets read as missing
    inputs = workload.make_inputs(args.seed, tmp)
    setup_s = time.perf_counter() - start
    if not Path(fracoepi.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"fracoepi was imported from {fracoepi.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    record = {"setup_s": setup_s, "versions": _versions(), "reference_s": [reference_s()]}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    taps = {attr: [] for _, attr in workload.taps}
    for module, attr in workload.taps:
        tracing.tap(module, attr, taps[attr])
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()

    errors: list[str] = []
    result = None
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        result = workload.run(inputs)
    except Exception:  # the program under test failed: a failed operation
        errors.append(traceback.format_exc(limit=4))
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:  # before the checks, whose own calls must not be counted
        record.update(layers=tracer.metrics(), missing=tracer.missing)
    record["reference_s"].append(reference_s())

    if args.mode == "record":
        print(json.dumps(workloads.observation(workload, result, inputs, taps)))
        return 0
    if result is not None:
        try:
            errors += workloads.check(workload, result, inputs, taps, args.seed)
        except Exception:  # a malformed output is a wrong output
            errors.append(traceback.format_exc(limit=4))
    record.update(wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb, errors=errors)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
