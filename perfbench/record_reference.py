"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every workload once at the default seed and writes the observations to
``reference.json``.  Run it only on a commit whose outputs are known good:
the benchmark then requires later commits to agree with it to 1e-12.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    run.SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=run.SCRATCH))
    try:
        reference = {
            name: run._worker(name, workloads.DEFAULT_SEED, "record", scratch,
                              deadline=time.perf_counter() + 600)
            for name in workloads.WORKLOADS
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            run.SCRATCH.rmdir()
        except OSError:
            pass  # another run is still using it
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
