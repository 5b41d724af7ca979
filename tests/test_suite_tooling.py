"""The test suite's own plumbing: a failing test is reported, not fatal."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROPERTY_MODULE = '''\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_property_test_leaves_the_run_going(tmp_path):
    # the suite's settings (filterwarnings = error) and its conftest, on a
    # module where one @given test fails: the other test must still run
    (tmp_path / "test_property.py").write_text(PROPERTY_MODULE, encoding="utf-8")
    path = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "conftest", "test_property.py"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in result.stdout, output
    assert "INTERNALERROR" not in output
