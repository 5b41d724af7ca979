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

from conftest import child_env, model_params


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
        before = runs.cached_solve.cache_info()
        assert run("simulate", "--preset", "example3", "--alpha", "0.9",
                   "--step", "0.1", "--t-end", "5", "--out", str(tmp_path)) == 0
        assert runs.cached_solve.cache_info() == before

    def test_numeric_directory_name_is_the_word_as_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text("model.preset = example1\noutput.directory = 1e3\n",
                                   encoding="utf-8")
        assert run("simulate", "--config", "run.cfg", "--alpha", "0.9", "--t-end", "1") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["1e3", "run.cfg"]
        assert (tmp_path / "1e3" / "summary.txt").is_file()

    def test_missing_config_file(self):
        assert run("simulate", "--config", "/nonexistent/run.cfg") == 1

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_order_with_an_overflowing_reciprocal_is_one_error_line(
        self, command, tmp_path, capsys
    ):
        argv = [command, "--preset", "example1", "--alpha", "1e-310", "--t-end", "1"]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: order 1e-310 is too small: its reciprocal times the divergence"
            " limit 1e+12 overflows;"
            " the smallest order accepted is 5.562684646268004e-297"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["report", "--config", "{tmp}"],
        ["simulate", "--preset", "example1", "--t-end", "1", "--out", "{tmp}/taken"],
    ], ids=["config-is-a-directory", "out-is-a-file"])
    def test_file_errors_print_one_line_not_a_traceback(self, argv, tmp_path):
        (tmp_path / "taken").write_text("", encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "fracoepi", *(arg.format(tmp=tmp_path) for arg in argv)],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_ends_quietly(self, unbuffered):
        # stdout is a pipe nobody reads, as after `| head` exits: unbuffered,
        # the first print meets the closed pipe; buffered, the final flush does
        env = child_env()
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

    def test_divergence_keeps_the_finished_runs(self, tmp_path, capsys):
        # the alpha 0.9 run completes; the alpha 1.0 run diverges at t = 111.2
        out = tmp_path / "sim"
        argv = ["simulate", "--config", _band_witness_config(tmp_path), "--alpha", "0.9,1.0",
                "--out", str(out)]
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert "diverged at node 2224" in captured.err
        lines = captured.out.splitlines()
        assert lines[0] == "model: custom"
        assert len(lines) == 2 and lines[1].startswith(
            "alpha=0.9 x0=(30,5,10) file=traj_alpha0p9_x0.csv final=(")
        assert sorted(p.name for p in out.iterdir()) == ["summary.txt", "traj_alpha0p9_x0.csv"]
        assert (out / "summary.txt").read_text(encoding="utf-8") == captured.out

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
        assert err.splitlines()[1] == cli.DIVERGENCE_HINT
        assert "solutions from non-negative initial states stay bounded" in err
        assert "A smaller --step (solver.step in a config file) cures a step too coarse" in err
        assert run(*argv, "--step", "0.01") == 0

    def test_divergence_hint_names_what_a_smaller_step_leaves(self, tmp_path, capsys):
        # the band witness steps a collapsing I below zero, and it grows from
        # there; steps 0.025 and 0.01 only move the blow-up to t = 115.4 and 120.6
        assert run("simulate", "--config", _band_witness_config(tmp_path), "--alpha", "1.0",
                   "--step", "0.05", "--t-end", "115", "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "diverged at node 2224" in err
        assert err.splitlines()[1] == cli.DIVERGENCE_HINT
        assert ("but not a population that collapses toward zero: the scheme can step it"
                " below zero, where it grows, and a smaller step then only delays the"
                " blow-up") in err


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


@pytest.mark.parametrize("argv,message", [
    (["report"], "no model given: use --preset or a config file"),
    (["report", "--preset", "example1", "--alpha", "0.9,x"],
     "field solver.alpha: expected a number, got 'x'"),
    (["sweep", "--preset", "example1", "--vary", "theta=0.1:0.5:-1",
      "--out", "{tmp}/nd/sweep.csv"], "grid count must be a whole number from 0 to 100000,"
     " got -1"),
    # 1e12 points would take 8 TB: the count is checked before the grid is built
    (["sweep", "--preset", "example1", "--vary", "theta=0.1:0.2:1000000000000",
      "--out", "{tmp}/s.csv"], "grid count must be a whole number from 0 to 100000,"
     " got 1e+12"),
    (["sweep", "--preset", "example1", "--vary", "theta=0:inf:3",
      "--out", "{tmp}/s.csv"], "grid bounds must be finite, got 0 and inf"),
    (["sweep", "--preset", "example1", "--vary", "zeta=0.1:0.5:3",
      "--out", "{tmp}/nd/sweep.csv"], "unknown model parameter 'zeta'"),
    (["simulate", "--preset", "example1", "--step", "abc", "--out", "{tmp}/o"],
     "field solver.step: expected a number, got 'abc'"),
    (["verify", "--preset", "example1", "--t-end", "x"],
     "field solver.t_end: expected a number, got 'x'"),
    # float() of the text is inf, which the model rejects
    (["report", "--config", "{tmp}/huge.cfg"],
     "growth_rate must be finite and positive, got inf"),
    # a flag the user gives sets its key, an empty one too
    (["report", "--preset", ""], "unknown preset ''; known presets: example1,"
     " example1-global, example1-unstable, example2, example3"),
    (["simulate", "--preset", "example1", "--out", ""],
     "field output.directory: expected one path, got ''"),
    (["reproduce", "ex3", "--out", ""], "field output.directory: expected one path, got ''"),
    # 1/5e-324 steps: the node count is past the float range, not an OverflowError
    (["simulate", "--preset", "example1", "--step", "5e-324", "--t-end", "1"],
     "inf nodes exceed the cap of 2000000"),
    # one corrector sweep per step: the removed option is an unknown key
    (["simulate", "--config", "{tmp}/removed.cfg"],
     "unknown configuration keys: solver.corrector_iterations"),
], ids=["report-no-model", "report-bad-alpha", "sweep-negative-count",
        "sweep-count-past-the-cap", "sweep-infinite-bound",
        "sweep-unknown-parameter", "simulate-bad-step", "verify-bad-t-end",
        "report-huge-value", "report-empty-preset", "simulate-empty-out",
        "reproduce-empty-out",
        "simulate-node-count-overflows", "simulate-removed-key"])
def test_rejection_is_one_error_line(argv, message, tmp_path, monkeypatch, capsys):
    configs = {
        "huge.cfg": "model.preset = example1\nmodel.r = 1" + "0" * 400 + "\n",
        "removed.cfg": "model.preset = example1\nsolver.corrector_iterations = 2\n",
    }
    for name, text in configs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # where an empty --out would write
    assert run(*(arg.format(tmp=tmp_path) for arg in argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(configs)


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
        ("report", "--preset", "example1", "--step", "0.1"),
        ("simulate", "--preset", "example1", "--t-end", "1", "--format", "csv"),
    ], ids=["verify-out", "sweep-step", "report-step", "simulate-format"])
    def test_flags_a_subcommand_does_not_read_are_rejected(self, argv, tmp_path,
                                                           monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def _band_witness_config(tmp_path):
    """The band_witness parameters of test_verification.py: the theta band holds
    and E* is an unstable node; at order 1.0 from (30, 5, 10) the solve diverges."""
    cfg = tmp_path / "witness.cfg"
    cfg.write_text(
        "model.r = 3.1463\nmodel.k = 129.3506\nmodel.lambda = 0.0038\n"
        "model.m = 1.4494\nmodel.mu = 0.0782\nmodel.a = 7.963\n"
        "model.theta = 0.048\nmodel.d = 0.0285\n",
        encoding="utf-8",
    )
    return str(cfg)


def _orders_config(tmp_path):
    cfg = tmp_path / "orders.cfg"
    cfg.write_text("model.preset = example1\nsolver.alpha = [0.6]\n", encoding="utf-8")
    return str(cfg)


THETA2_LABEL = "theta2 (paper's E* condition, S* at theta={:g})"


def _theta_config(tmp_path, theta):
    """example1 with its conversion efficiency set to theta."""
    cfg = tmp_path / "theta.cfg"
    cfg.write_text(f"model.preset = example1\nmodel.theta = {theta!r}\n", encoding="utf-8")
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
        assert "  E2  (56, -14.5455, 0) exists=no [R0 > 1: no (margin -0.2857)]" in text
        assert "0.714286" in text

    def test_both_theta2_conventions(self, capsys):
        # theta enters theta2 only through S*, so theta2 with S* held at a
        # reference theta is the theta2 line of a report run at that theta
        assert run("report", "--preset", "example1-global") == 0
        text = capsys.readouterr().out
        assert f"{THETA2_LABEL.format(0.5)} = 0.10139" in text  # self-consistent
        assert run("report", "--preset", "example1") == 0
        text = capsys.readouterr().out
        assert f"{THETA2_LABEL.format(0.189)} = 0.804375" in text  # the reference level

    def test_undefined_theta2_reference_prints_why(self, tmp_path, capsys):
        # theta = d = 0.09 leaves the interior state undefined
        assert run("report", "--config", _theta_config(tmp_path, 0.09)) == 0
        text = capsys.readouterr().out
        assert f"{THETA2_LABEL.format(0.09)} = n/a (S* undefined at theta = d)" in text

    def test_theta2_reference_below_death_rate_prints_why(self, tmp_path, capsys):
        # theta = 0.05 < d = 0.09 puts I* below 0: no interior state to read S* from
        assert run("report", "--config", _theta_config(tmp_path, 0.05)) == 0
        text = capsys.readouterr().out
        assert f"{THETA2_LABEL.format(0.05)} = n/a (no E* at theta < d: I* < 0)" in text
        assert "(E2 node/focus boundary as R0 value) = 1.92678" in text

    def test_empty_theta2_bracket_at_reference_prints_why(self, tmp_path, capsys):
        # theta = 0.1 puts S* at -135.5, so 2K(lambda S* - mu) - r < 0
        assert run("report", "--config", _theta_config(tmp_path, 0.1)) == 0
        text = capsys.readouterr().out
        assert (f"{THETA2_LABEL.format(0.1)} = n/a (empty bracket: 2K(lambda*S* - mu) <= r)"
                in text)

    def test_theta2_reference_option_is_gone(self, capsys):
        assert run("report", "--preset", "example1", "--theta2-reference", "0.189") == 1
        assert "unrecognized arguments: --theta2-reference" in capsys.readouterr().err

    def test_undefined_thresholds_print_why_in_place(self, capsys):
        assert run("report", "--preset", "example3") == 0
        text = capsys.readouterr().out
        assert "d1 (E2 local stability)      = n/a (needs R0 > 1)" in text
        assert "note:" not in text

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(params=model_params(), reference=st.floats(0.001, 1.0))
    def test_no_bare_not_available_on_random_params(self, params, reference):
        # the parameters as drawn, and with theta moved to a reference level
        for case in (params, params.replace(conversion_efficiency=reference)):
            with tempfile.TemporaryDirectory() as tmp:
                cfg = Path(tmp) / "model.cfg"
                cfg.write_text("".join(f"model.{name} = {value!r}\n"
                                       for name, value in vars(case).items()),
                               encoding="utf-8")
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert run("report", "--config", str(cfg), "--alpha", "0.9") == 0
            text = out.getvalue()
            assert re.search(r"n/a(?! \()", text) is None, text

    def test_report_prints_exact_node_focus_boundary(self, capsys):
        assert run("report", "--preset", "example1") == 0
        text = capsys.readouterr().out
        assert "(E2 node/focus boundary as R0 value) = 1.92678" in text

    def test_report_lists_the_equilibria(self, capsys):
        assert run("report", "--preset", "example1") == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("equilibria:") + 1
        assert lines[start:start + 4] == [
            "  E0  (0, 0, 0) exists=yes",
            "  E1  (40, 0, 0) exists=yes",
            "  E2  (18.6667, 16.4103, 0) exists=yes [R0 > 1: yes (margin 1.143)]",
            "  E*  (22.2727, 13.6364, 2.97878) exists=yes [R0 > 1: yes (margin 1.143);"
            " theta > d: yes (margin 0.099); theta > theta1: yes (margin 0.01673)]",
        ]
        assert lines[start + 4].startswith("stability")

    def test_undefined_condition_prints_why(self, capsys):
        # R0 < 1 leaves theta1, and so E*'s last margin, undefined
        assert run("report", "--preset", "example3") == 0
        assert "theta > theta1: n/a (needs R0 > 1)]" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("equilibria", "--preset", "example1"),
        ("reproduce", "fig3"),
    ], ids=["equilibria", "reproduce-fig3"])
    def test_removed_entry_points_are_usage_errors(self, argv, tmp_path, monkeypatch,
                                                   capsys):
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: fracoepi")
        assert "invalid choice" in captured.err
        assert list(tmp_path.iterdir()) == []


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

    def test_one_row_per_value_and_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--preset", "example1", "--vary", "theta=0.08:0.9:42",
                   "--alpha", "0.85,0.95", "--out", str(out)) == 0
        rows = [row.split(",") for row in out.read_text().splitlines()]
        assert rows[0][:3] == ["parameter", "value", "alpha"]
        assert len(rows) == 1 + 84
        assert len({(row[1], row[2]) for row in rows[1:]}) == 84
        assert {row[2] for row in rows[1:]} == {format_float(0.85), format_float(0.95)}

    def test_orders_from_config_file(self, tmp_path):
        out = tmp_path / "cfg_sweep.csv"
        rc = run("sweep", "--config", _orders_config(tmp_path),
                 "--vary", "theta=0.2:0.4:3", "--out", str(out))
        assert rc == 0
        rows = [row.split(",") for row in out.read_text().strip().split("\n")]
        alpha = rows[0].index("alpha")
        assert [row[alpha] for row in rows[1:]] == [format_float(0.6)] * 3

    @pytest.mark.parametrize("directory, argv, written", [
        ("output.directory = runs\n", (), "runs/sweep.csv"),
        ("output.directory = runs\n", ("--out", "mine.csv"), "mine.csv"),
        ("", (), "sweep.csv"),
        # one rule for both: a path ending in .csv is the file, any other its directory
        ("output.directory = mine.csv\n", (), "mine.csv"),
        ("", ("--out", "runs"), "runs/sweep.csv"),
    ], ids=["config-directory", "out-wins", "working-directory", "config-file",
            "out-directory"])
    def test_output_directory_from_config_file(self, directory, argv, written, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text("model.preset = example1\n" + directory, encoding="utf-8")
        rc = run("sweep", "--config", "run.cfg", "--vary", "theta=0.1:0.5:3", *argv)
        assert rc == 0
        assert capsys.readouterr().out == f"wrote 6 sweep row(s) to {written}\n"
        csvs = sorted(str(p) for p in Path().rglob("*.csv"))
        assert csvs == [written]
        assert len(Path(written).read_text().splitlines()) == 1 + 6

    def test_count_in_exponent_form(self, tmp_path):
        # read as --step 1e3 is
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--preset", "example1", "--vary", "theta=0.1:0.2:1e3",
                   "--alpha", "0.85", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 1 + 1000

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

    def test_a_fresh_process_prints_and_writes_the_same_bytes(self, tmp_path, monkeypatch,
                                                              capsys):
        # the solves here may come from the memo; the child's are all fresh
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        here.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(here)
        assert run("reproduce", "ex1", "--out", "ex1") == 0
        done = subprocess.run(
            [sys.executable, "-m", "fracoepi", "reproduce", "ex1", "--out", "ex1"],
            cwd=fresh, env=child_env(), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == capsys.readouterr().out
        names = sorted(p.name for p in (here / "ex1").iterdir())
        assert names == sorted(p.name for p in (fresh / "ex1").iterdir())
        for name in names:
            assert (here / "ex1" / name).read_bytes() == (fresh / "ex1" / name).read_bytes()


class TestVerify:
    def test_global_coexistence_run(self, capsys):
        # at t = 300 the largest tail distance is 0.011, inside verify's 0.05
        rc = run("verify", "--preset", "example1-global", "--alpha", "0.95",
                 "--t-end", "300")
        assert rc == 0
        text = capsys.readouterr().out
        assert text.count("convergence to E*: pass") == 3
        assert "nonnegativity pass" in text
        assert "boundedness pass" in text
        assert "Lipschitz bound" in text
        # the theta band is named as the paper's condition, with no verdict word of its own
        rows = [line for line in text.splitlines() if "Lyapunov decrease toward E*" in line]
        assert len(rows) == 3  # one per initial state
        for row in rows:
            clause = row.partition("hypothesis ")[2]
            assert clause.startswith("theta1 < theta < theta2: no (margin -0.3986), the paper's")
            assert "grad V . f > 0 at (S*, I, P*)" in clause
            assert re.search(r"\b(pass|fail)\b", clause) is None

    def test_unstable_coexistence_inside_the_band_is_named(self, tmp_path, capsys):
        # the theta band holds, yet E* is an unstable node (see TestThetaBandWitness)
        cfg = _band_witness_config(tmp_path)
        assert run("verify", "--config", cfg, "--alpha", "0.9", "--t-end", "20") == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row == (
            "  no stable equilibrium at this order; convergence skipped; the paper's E*"
            " condition theta1 < theta < theta2: yes (margin 0.01101), yet E* is not stable"
            " at this order (unstable-node, critical order 0)"
        )
        assert re.search(r"\b(pass|fail)\b", row) is None

    def test_divergence_keeps_the_finished_runs(self, tmp_path, capsys):
        # the alpha 0.9 run is checked; the alpha 1.0 run diverges at t = 111.2
        assert run("verify", "--config", _band_witness_config(tmp_path),
                   "--alpha", "0.9,1.0") == 2
        captured = capsys.readouterr()
        assert "diverged at node 2224" in captured.err
        lines = captured.out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("alpha=0.9 x0=(30,5,10): nonnegativity pass")
        assert lines[1].startswith("  no stable equilibrium at this order; convergence skipped")

    def test_one_node_grid_rejected(self, capsys):
        # zero steps measure nothing, so no pass/fail verdict is printed on them
        assert run("verify", "--preset", "example1", "--t-end", "0") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: verify needs at least two nodes: t_end = 0.0 is less than one step 0.05\n"
        )

    def test_unstable_coexistence_outside_the_band_is_not_named(self, capsys):
        # example1-unstable: theta2 = 0.000824 < theta, so the line stays bare
        assert run("verify", "--preset", "example1-unstable", "--alpha", "0.9",
                   "--t-end", "20") == 0
        skipped = [line for line in capsys.readouterr().out.splitlines()
                   if "convergence skipped" in line]
        assert skipped and set(skipped) == {
            "  no stable equilibrium at this order; convergence skipped"
        }

    def test_lyapunov_row_prints_the_hypothesis_margin(self, capsys):
        run("verify", "--preset", "example2", "--alpha", "0.95", "--t-end", "20")
        text = capsys.readouterr().out
        assert "hypothesis d > d2: yes (margin 0.002479))" in text  # d 0.09, d2 0.0875214

    def test_prey_only_rows_print_eta_slack_and_hypothesis(self, capsys):
        assert run("verify", "--preset", "example3", "--alpha", "0.95", "--t-end", "100") == 0
        text = capsys.readouterr().out
        assert text.count("eta=0.045)") == 3
        assert text.count("slack 0.001; hypothesis R0 < 1: yes (margin 0.2857))") == 3
        assert "Lipschitz bound" in text

    @pytest.mark.parametrize("name", ["example2", "example3"])
    def test_globally_stable_presets_pass_at_their_defaults(self, name, capsys):
        # the E2 (example2) and E1 (example3) Lyapunov rows included
        assert run("verify", "--preset", name) == 0
        assert " fail" not in capsys.readouterr().out

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_tolerance_flag_is_unrecognized(self, capsys):
        # the convergence tolerance is fixed at cli.CONVERGENCE_TOL
        rc = run("verify", "--preset", "example3", "--alpha", "0.95",
                 "--t-end", "100", "--tolerance", "0.05")
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tolerance 0.05" in captured.err

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
        before = runs.cached_solve.cache_info()
        run("verify", "--preset", "example3", "--alpha", "0.95", "--t-end", "10")
        assert "Lipschitz bound" in capsys.readouterr().out
        assert runs.cached_solve.cache_info() == before

    def test_verify_does_not_load_numpy_random(self):
        probe = (
            "import sys; from fracoepi.cli import main; "
            "main(['verify', '--preset', 'example3', '--alpha', '0.95', "
            "'--t-end', '100']); "
            "assert 'numpy.random' not in sys.modules"
        )
        done = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "Lipschitz bound" in done.stdout
