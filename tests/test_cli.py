"""Command-line behavior: files, formats, exit codes, determinism."""

import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracoepi import cli, runs
from fracoepi.cli import main
from fracoepi.stability import classify_equilibrium
from fracoepi.trajectory_io import format_float, load_trajectory_csv

from conftest import model_params

SRC = Path(__file__).resolve().parents[1] / "src"


def run(*argv):
    return main(list(argv))


class TestSimulate:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = run("simulate", "--preset", "example1", "--alpha", "0.95",
                 "--t-end", "5", "--out", str(out))
        assert rc == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "summary.txt",
            "traj_alpha0p95_x0.csv",
            "traj_alpha0p95_x1.csv",
            "traj_alpha0p95_x2.csv",
        ]
        traj = load_trajectory_csv(out / "traj_alpha0p95_x0.csv")
        assert np.array_equal(traj.states[0], np.array([30.0, 5.0, 10.0]))
        assert traj.times[1] - traj.times[0] == pytest.approx(0.05)
        summary = (out / "summary.txt").read_text()
        assert "nonnegative=pass" in summary and "bounded=pass" in summary

    def test_final_row_approaches_interior_equilibrium(self, tmp_path):
        # desk-scale run of the base preset: the written trajectory ends close
        # to the coexistence state (slow fractional tail, see solver tests for
        # the tight-tolerance long-span version)
        out = tmp_path / "long"
        rc = run("simulate", "--preset", "example1", "--alpha", "0.95",
                 "--step", "0.05", "--t-end", "2000", "--out", str(out))
        assert rc == 0
        traj = load_trajectory_csv(out / "traj_alpha0p95_x0.csv")
        assert np.abs(
            traj.states[-1] - np.array([22.27, 13.64, 2.98])
        ).max() <= 0.05

    def test_degenerate_span_single_row(self, tmp_path):
        out = tmp_path / "sim0"
        rc = run("simulate", "--preset", "example1", "--alpha", "0.9",
                 "--t-end", "0", "--out", str(out))
        assert rc == 0
        traj = load_trajectory_csv(out / "traj_alpha0p9_x0.csv")
        assert traj.states.shape == (1, 3)
        assert np.array_equal(traj.states[0], np.array([30.0, 5.0, 10.0]))

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--preset", "example2", "--alpha", "0.85",
                       "--t-end", "10", "--out", str(out)) == 0
        for name in ("traj_alpha0p85_x0.csv", "summary.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_order_above_one_rejected(self, tmp_path):
        rc = run("simulate", "--preset", "example1", "--alpha", "1.2",
                 "--t-end", "5", "--out", str(tmp_path / "x"))
        assert rc == 1

    def test_orders_sharing_a_file_name_rejected(self, tmp_path, capsys):
        # both orders format as 0.333333, so their runs would write one file
        out = tmp_path / "o"
        rc = run("simulate", "--preset", "example1", "--alpha", "0.3333331,0.3333332",
                 "--t-end", "5", "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        for part in ("0.3333331", "0.3333332", "traj_alpha0p333333_x0.csv"):
            assert part in err
        assert not out.exists()

    def test_unknown_preset_rejected(self, tmp_path):
        rc = run("simulate", "--preset", "example9", "--t-end", "5",
                 "--out", str(tmp_path / "x"))
        assert rc == 1

    def test_config_file_driven(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model.preset = example3\nsolver.alpha = 0.9\nsolver.t_end = 2\n"
            f"output.directory = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert run("simulate", "--config", str(cfg)) == 0
        assert (tmp_path / "out" / "traj_alpha0p9_x0.csv").exists()

    def test_config_value_of_the_wrong_type_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.preset = example3\nsolver.t_end = [1, 2]\n",
                       encoding="utf-8")
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("error: field solver.t_end: expected")

    def test_leaves_the_solve_memo_unchanged(self, tmp_path, capsys):
        before = dict(runs._CACHE)
        assert run("simulate", "--preset", "example3", "--alpha", "0.9",
                   "--step", "0.1", "--t-end", "5", "--out", str(tmp_path)) == 0
        assert runs._CACHE == before

    def test_missing_config_file(self):
        assert run("simulate", "--config", "/nonexistent/run.cfg") == 1

    @pytest.mark.parametrize("argv", [
        ["equilibria", "--config", "{tmp}"],
        ["simulate", "--preset", "example1", "--t-end", "1", "--out", "{tmp}/taken"],
    ], ids=["config-is-a-directory", "out-is-a-file"])
    def test_file_errors_print_one_line_not_a_traceback(self, argv, tmp_path):
        (tmp_path / "taken").write_text("", encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-m", "fracoepi", *(arg.format(tmp=tmp_path) for arg in argv)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_ends_quietly(self, unbuffered):
        # stdout is a pipe nobody reads, as after `| head` exits: unbuffered,
        # the first print meets the closed pipe; buffered, the final flush does
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "fracoepi", "report", "--preset", "example1"],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == cli.PIPE_CLOSED == 141
        assert done.stderr == ""

    def test_divergence_exit_code(self, tmp_path, capsys):
        # a stiff parameter set at a coarse step blows the scheme up
        cfg = tmp_path / "explode.cfg"
        cfg.write_text(
            "model.r = 900\nmodel.k = 2\nmodel.lambda = 0.9\nmodel.m = 0.5\n"
            "model.mu = 0.1\nmodel.a = 1\nmodel.theta = 0.9\nmodel.d = 0.05\n"
            "solver.alpha = 1.0\nsolver.step = 0.5\nsolver.t_end = 400\n"
            "run.initial_states = [[1.5, 1, 1]]\n"
            f"output.directory = {tmp_path / 'boom'}\n",
            encoding="utf-8",
        )
        assert run("simulate", "--config", str(cfg)) == 2
        assert "diverged at node" in capsys.readouterr().err

    def test_divergence_hints_at_a_smaller_step(self, tmp_path, capsys):
        # bounded solutions, yet the explicit scheme blows up at step 0.05
        argv = ["simulate", "--preset", "example1-unstable", "--alpha", "0.35",
                "--t-end", "15", "--out", str(tmp_path / "unstable")]
        assert run(*argv, "--step", "0.05") == 2
        err = capsys.readouterr().err
        assert "diverged at node 265" in err
        assert "solutions from non-negative initial states stay bounded" in err
        assert "retry with a smaller --step" in err
        assert run(*argv, "--step", "0.01") == 0


@pytest.mark.parametrize("argv,out", [
    (["simulate", "--preset", "example1", "--t-end", "-1", "--out", "{tmp}/o"], "o"),
    (["simulate", "--preset", "example1", "--step", "0.3", "--t-end", "1",
      "--out", "{tmp}/o"], "o"),
    (["simulate", "--config", "{tmp}/inf.cfg", "--out", "{tmp}/o"], "o"),
    (["sweep", "--preset", "example1", "--vary", "theta=0.5:1.5:3",
      "--out", "{tmp}/nd/sweep.csv"], "nd"),
], ids=["simulate-negative-span", "simulate-off-grid", "simulate-infinite-span",
        "sweep-leaves-valid-region"])
def test_rejected_run_leaves_no_output(argv, out, tmp_path, capsys):
    (tmp_path / "inf.cfg").write_text("model.preset = example1\nsolver.t_end = inf\n",
                                      encoding="utf-8")
    assert run(*(arg.format(tmp=tmp_path) for arg in argv)) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / out).exists()


class TestFlags:
    def test_empty_order_list_rejected(self, tmp_path, capsys):
        rc = run("simulate", "--preset", "example1", "--alpha", "",
                 "--t-end", "1", "--out", str(tmp_path / "x"))
        assert rc == 1
        assert "at least one order is needed" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv", [
        ("verify", "--preset", "example1", "--out", "x"),
        ("sweep", "--preset", "example1", "--vary", "theta=0.2:0.4:2", "--step", "0.1"),
        ("equilibria", "--preset", "example1", "--alpha", "0.9"),
        ("simulate", "--preset", "example1", "--t-end", "1", "--format", "csv"),
    ], ids=["verify-out", "sweep-step", "equilibria-alpha", "simulate-format"])
    def test_flags_a_subcommand_does_not_read_are_rejected(self, argv, tmp_path,
                                                           monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def _orders_config(tmp_path):
    cfg = tmp_path / "orders.cfg"
    cfg.write_text("model.preset = example1\nsolver.alpha = [0.6]\n", encoding="utf-8")
    return str(cfg)


class TestReport:
    def test_orders_from_config_file(self, tmp_path, capsys):
        assert run("report", "--config", _orders_config(tmp_path)) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[lines.index("stability (rows: equilibrium, columns: order):") + 1]
        assert header.split() == ["0.6"]

    def test_five_default_orders_without_flag_or_file_entry(self, capsys):
        assert run("report", "--preset", "example1") == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[lines.index("stability (rows: equilibrium, columns: order):") + 1]
        assert header.split() == ["0.6", "0.6667", "0.85", "0.95", "1"]

    def test_threshold_values_printed(self, capsys):
        assert run("report", "--preset", "example1") == 0
        text = capsys.readouterr().out
        assert "R0" in text and "2.14286" in text
        assert "0.172266" in text  # theta1
        assert "0.804375" in text  # theta2 at the base conversion efficiency
        assert "stable-node(i)" in text

    def test_low_infectivity_report(self, capsys):
        assert run("report", "--preset", "example3") == 0
        text = capsys.readouterr().out
        assert "exists=no" in text
        assert "0.714286" in text

    def test_both_theta2_conventions(self, capsys):
        assert run("report", "--preset", "example1-global",
                   "--theta2-reference", "0.189") == 0
        text = capsys.readouterr().out
        assert "0.10139" in text    # self-consistent value at theta = 0.5
        assert "0.804375" in text   # value at the reference level

    def test_undefined_theta2_reference_prints_why(self, capsys):
        # theta = d = 0.09 leaves the reference interior state undefined
        assert run("report", "--preset", "example1", "--theta2-reference", "0.09") == 0
        text = capsys.readouterr().out
        assert "theta2 (S* at theta=0.09)      = n/a (S* undefined at theta = d)" in text

    def test_theta2_reference_below_death_rate_prints_why(self, capsys):
        # theta = 0.05 < d = 0.09 puts I* below 0: no interior state to read S* from
        assert run("report", "--preset", "example1", "--theta2-reference", "0.05") == 0
        text = capsys.readouterr().out
        assert "theta2 (S* at theta=0.05)      = n/a (no E* at theta < d: I* < 0)" in text

    def test_empty_theta2_bracket_at_reference_prints_why(self, capsys):
        # theta = 0.1 puts S* at -135.5, so 2K(lambda S* - mu) - r < 0
        assert run("report", "--preset", "example1", "--theta2-reference", "0.1") == 0
        text = capsys.readouterr().out
        assert ("theta2 (S* at theta=0.1)      = n/a (empty bracket: 2K(lambda*S* - mu) <= r)"
                in text)

    def test_undefined_thresholds_print_why_in_place(self, capsys):
        assert run("report", "--preset", "example3") == 0
        text = capsys.readouterr().out
        assert "d1 (E2 local stability)      = n/a (needs R0 > 1)" in text
        assert "note:" not in text

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(params=model_params(), reference=st.floats(0.001, 1.0))
    def test_no_bare_not_available_on_random_params(self, params, reference):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "model.cfg"
            cfg.write_text("".join(f"model.{name} = {value!r}\n"
                                   for name, value in vars(params).items()),
                           encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run("report", "--config", str(cfg), "--alpha", "0.9",
                           "--theta2-reference", repr(reference)) == 0
        text = out.getvalue()
        assert re.search(r"n/a(?! \()", text) is None, text

    def test_report_prints_exact_node_focus_boundary(self, capsys):
        assert run("report", "--preset", "example1") == 0
        text = capsys.readouterr().out
        assert "(E2 node/focus boundary as R0 value) = 1.92678" in text

    def test_equilibria_subcommand(self, capsys):
        assert run("equilibria", "--preset", "example1") == 0
        text = capsys.readouterr().out
        assert "E2" in text and "18.6667" in text
        assert "E*" in text and "22.2727" in text


class TestSweep:
    def test_conversion_sweep_brackets_existence_threshold(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = run("sweep", "--preset", "example1", "--vary", "theta=0.08:0.9:42",
                 "--alpha", "0.85", "--out", str(out))
        assert rc == 0
        rows = out.read_text().strip().split("\n")
        header = rows[0].split(",")
        idx_value = header.index("value")
        idx_exists = header.index("E*_exists")
        flips = []
        previous = None
        for row in rows[1:]:
            cells = row.split(",")
            flag = cells[idx_exists]
            if previous is not None and flag != previous:
                flips.append(float(cells[idx_value]))
            previous = flag
        assert len(flips) == 1
        grid_step = (0.9 - 0.08) / 41
        assert abs(flips[0] - 0.172265625) <= grid_step

    def test_death_rate_sweep_flips_predator_free_verdict(self, tmp_path):
        out = tmp_path / "dsweep.csv"
        rc = run("sweep", "--preset", "example2", "--vary", "d=0.02:0.09:36",
                 "--alpha", "0.85", "--out", str(out))
        assert rc == 0
        rows = out.read_text().strip().split("\n")
        header = rows[0].split(",")
        idx_value = header.index("value")
        idx_label = header.index("E2_label")
        flips = []
        previous = None
        for row in rows[1:]:
            cells = row.split(",")
            stable = cells[idx_label].startswith("stable")
            if previous is not None and stable != previous:
                flips.append(float(cells[idx_value]))
            previous = stable
        assert len(flips) == 1
        grid_step = (0.09 - 0.02) / 35
        assert abs(flips[0] - 0.041795918367346939) <= grid_step

    def test_orders_from_config_file(self, tmp_path):
        out = tmp_path / "cfg_sweep.csv"
        rc = run("sweep", "--config", _orders_config(tmp_path),
                 "--vary", "theta=0.2:0.4:3", "--out", str(out))
        assert rc == 0
        rows = [row.split(",") for row in out.read_text().strip().split("\n")]
        alpha = rows[0].index("alpha")
        assert [row[alpha] for row in rows[1:]] == [format_float(0.6)] * 3

    def test_empty_grid_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        rc = run("sweep", "--preset", "example1", "--vary", "theta=0.2:0.4:0",
                 "--alpha", "0.85", "--out", str(out))
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("parameter,value,alpha")

    def test_grid_leaving_valid_region_rejected(self, tmp_path):
        rc = run("sweep", "--preset", "example1", "--vary", "theta=0.5:1.5:5",
                 "--alpha", "0.85", "--out", str(tmp_path / "bad.csv"))
        assert rc == 1

    def test_malformed_grid_rejected(self, tmp_path):
        rc = run("sweep", "--preset", "example1", "--vary", "theta=1:2",
                 "--alpha", "0.85", "--out", str(tmp_path / "bad.csv"))
        assert rc == 1


class TestReproduce:
    def test_unstable_scenario_bundle(self, tmp_path, capsys):
        out = tmp_path / "rep"
        rc = run("reproduce", "ex1-unstable", "--out", str(out))
        assert rc == 0
        text = capsys.readouterr().out
        assert "[pass] A1" in text
        assert "D(F)" in text
        assert (out / "fig3_alpha0p85.csv").exists()
        assert (out / "fig3_plot.py").exists()

    def test_unknown_example_id(self, capsys):
        assert run("reproduce", "nope") == 1


class TestVerify:
    def test_global_coexistence_run(self, capsys):
        rc = run("verify", "--preset", "example1-global", "--alpha", "0.95",
                 "--t-end", "60", "--tolerance", "0.5")
        assert rc == 0
        text = capsys.readouterr().out
        assert "nonnegativity pass" in text
        assert "boundedness pass" in text
        assert "Lipschitz bound" in text

    def test_help_exits_zero(self):
        assert run("--help") == 0

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_bad_tolerance_rejected(self, tol, capsys):
        rc = run("verify", "--preset", "example3", "--alpha", "0.95",
                 "--t-end", "100", f"--tolerance={tol}")
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: convergence tolerance must be finite")

    def test_bad_tolerance_rejected_without_a_stable_order(self, capsys):
        # no equilibrium of this preset is stable, so convergence_check never
        # runs: the tolerance is checked before any solve
        rc = run("verify", "--preset", "example1-unstable", "--t-end", "100",
                 "--tolerance", "nan")
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: convergence tolerance must be finite")

    def test_each_order_classified_once(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counting(params, eq, alpha):
            calls.append((alpha, eq.kind))
            return classify_equilibrium(params, eq, alpha)

        monkeypatch.setattr(cli, "classify_equilibrium", counting)
        config = tmp_path / "two.cfg"
        config.write_text("run.initial_states = [[30, 5, 10], [25, 8, 6]]\n")
        run("verify", "--preset", "example1", "--config", str(config),
            "--alpha", "0.9,0.95", "--t-end", "20")
        assert calls and len(calls) == len(set(calls))
        assert {alpha for alpha, _ in calls} == {0.9, 0.95}
        assert capsys.readouterr().out.count("convergence to") == 4

    def test_leaves_the_solve_memo_unchanged(self, capsys):
        before = dict(runs._CACHE)
        run("verify", "--preset", "example3", "--alpha", "0.95", "--t-end", "10")
        assert "Lipschitz bound" in capsys.readouterr().out
        assert runs._CACHE == before

    def test_verify_does_not_load_numpy_random(self):
        probe = (
            "import sys; from fracoepi.cli import main; "
            "main(['verify', '--preset', 'example3', '--alpha', '0.95', "
            "'--t-end', '100']); "
            "assert 'numpy.random' not in sys.modules"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "Lipschitz bound" in done.stdout
