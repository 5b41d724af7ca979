"""The test suite's own plumbing, and the package's import hygiene."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import fracoepi

from conftest import child_env

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
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "conftest", "test_property.py"],
        cwd=tmp_path,
        env=child_env(str(ROOT / "tests")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in result.stdout, output
    assert "INTERNALERROR" not in output


def test_no_module_imports_another_modules_private_name():
    # one owner per decision: a name a module keeps private stays in it
    borrowed = [
        f"{path.name} <- {node.module}.{alias.name}"
        for path in sorted(Path(fracoepi.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert borrowed == []


def test_only_the_solver_builds_code_from_text():
    # a field given as text is compiled in one module, once: solver._field_code
    # builds its leaf loop and text_field's callable from one source
    builders = [
        f"{path.name}:{node.lineno} {node.func.id}"
        for path in sorted(Path(fracoepi.__file__).parent.glob("*.py"))
        if path.name != "solver.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("exec", "eval", "compile")
    ]
    assert builders == []


def test_a_fields_text_stays_inside_the_package():
    # the model's text is the only one: no __all__ offers text_field, only
    # model calls it, and only the solver reads the _text and _constants
    # that its fields carry
    leaks = []
    for path in sorted(Path(fracoepi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Assign)
                    and [getattr(target, "id", None) for target in node.targets] == ["__all__"]
                    and "text_field" in ast.literal_eval(node.value)):
                leaks.append(f"{path.name}:{node.lineno} __all__")
            called = isinstance(node, ast.Call) and "text_field" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))
            if called and path.name != "model.py":
                leaks.append(f"{path.name}:{node.lineno} text_field()")
            read = (getattr(node, "attr", None) in ("_text", "_constants")
                    or isinstance(node, ast.Constant) and node.value in ("_text", "_constants"))
            if read and path.name != "solver.py":
                leaks.append(f"{path.name}:{node.lineno} a field's text")
    assert leaks == []


def test_every_traced_function_exists():
    # the benchmark's tracer wraps the functions TARGETS names and leaves a
    # missing one out without an error: a renamed or deleted one fails here
    path = ROOT / "perfbench" / "tracing.py"
    if not path.exists():
        pytest.skip("this checkout has no perfbench/tracing.py")
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["TARGETS"]
    )
    missing = [f"{module}.{name}" for _, module, name in targets
               if not hasattr(importlib.import_module(module), name)]
    assert len(targets) > 10 and missing == []


def test_child_processes_import_the_copy_under_test(tmp_path):
    # the suite runs against src/ and against an installed copy: a test's child
    # process imports the fracoepi that the suite imported, from any directory
    done = subprocess.run(
        [sys.executable, "-c", "import fracoepi; print(fracoepi.__file__)"],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert Path(done.stdout.strip()).resolve() == Path(fracoepi.__file__).resolve()
