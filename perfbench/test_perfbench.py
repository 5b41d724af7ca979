"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The exact per-layer counts below were measured at the seed commit.  A change
to the program that alters one of them (a fused RHS evaluation, a batched
solve, a removed memo) updates this table in the same change and says why.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EXACT_COUNTS = {
    "long-solve": {"model.rhs_calls": 120_001, "solver.nodes": 60_000},
    "reproduce-ex1": {
        "model.rhs_calls": 560_010,
        "runs.cached_solve_calls": 22,
        "runs.cache_hits": 12,
        "trajectory_io.rows_written": 100_010,
    },
    "verify-envelope": {"mittag_leffler.calls": 4001, "model.rhs_calls": 8001},
}


@pytest.mark.parametrize("workload", sorted(EXACT_COUNTS))
def test_exact_counts_and_outputs_at_seed(workload, tmp_path):
    record = run._worker(workload, workloads.DEFAULT_SEED, "traced", tmp_path,
                         deadline=time.perf_counter() + 300)
    assert record["errors"] == []
    assert record["missing"] == []
    counts = {k: record["layers"][k] for k in EXACT_COUNTS[workload]}
    assert counts == EXACT_COUNTS[workload]


@pytest.fixture
def fracoepi_namespaces():
    """Import the package from src and restore its module namespaces afterwards."""
    sys.path.insert(0, str(ROOT / "src"))
    for name in tracing.MODULES:
        __import__(name)
    saved = {name: dict(vars(sys.modules[name])) for name in tracing.MODULES + ("fracoepi",)}
    yield sys.modules["fracoepi"]
    for name, namespace in saved.items():
        vars(sys.modules[name]).update(namespace)
    sys.path.remove(str(ROOT / "src"))


def test_missing_trace_target_is_absent_not_fatal(fracoepi_namespaces, monkeypatch):
    fracoepi = fracoepi_namespaces
    monkeypatch.delattr(sys.modules["fracoepi.runs"], "cached_solve")
    tracer = tracing.Tracer()
    tracer.install()
    p = fracoepi.preset("example1")
    fracoepi.solve_model(p.params, 0.9, p.initial_states[0], 0.1, 5.0)
    metrics = tracer.metrics()
    assert tracer.missing == ["cached_solve"]
    assert "runs.cache_hits" not in metrics
    assert metrics["solver.nodes"] == 50
    assert metrics["model.rhs_calls"] == 101


def test_reference_gate_is_relative_1e_12():
    assert workloads.compare({"x": [1.0 + 1e-13]}, {"x": [1.0]}) == []
    assert workloads.compare({"x": [1.0 + 1e-11]}, {"x": [1.0]}) != []
    assert workloads.compare({"v": "pass"}, {"v": "fail"}) != []


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-solve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
