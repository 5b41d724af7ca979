"""Config grammar and trajectory CSV round-trips."""

import re
from pathlib import Path

import numpy as np
import pytest

from fracoepi.config import (
    MAX_GRID_POINTS,
    MODEL_KEYS,
    config_from_entries,
    parse_config_text,
    parse_grid,
)
from fracoepi.model import ValidationError
from fracoepi.runs import solve_model
from fracoepi.model import ModelParams, State, preset
from fracoepi.solver import Trajectory
from fracoepi.trajectory_io import (
    alpha_tag,
    format_float,
    load_trajectory_csv,
    save_trajectory_csv,
)

SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308]


def per_value_csv(traj, columns):
    """The writer value by value with format(x, ".17g"): the oracle for the bytes."""
    lines = ["t," + ",".join(columns) + "\n"]
    for t, row in zip(traj.times, traj.states):
        cells = [format(float(t), ".17g")] + [format(float(v), ".17g") for v in row]
        lines.append(",".join(cells) + "\n")
    return "".join(lines).encode("utf-8")


def awkward_trajectory(rows, dim, seed=0):
    """Values over many binades, the special values spread through the rows."""
    rng = np.random.default_rng(seed)
    times = 0.05 * np.arange(rows)
    states = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-300, 300, (rows, dim))
    flat = states.reshape(-1)
    for i, value in enumerate(SPECIAL_VALUES):
        flat[(i * 7919) % flat.size] = value
    return Trajectory(times=times, states=states, order=0.9)


GOOD_CONFIG = """
# run configuration
model.preset = example1
model.theta = 0.5          # raise the conversion efficiency
solver.alpha = [0.85, 0.95]
solver.step = 0.05
solver.t_end = 120
run.initial_states = [[30, 5, 10], [10, 20, 5]]
output.directory = results
"""


class TestParsing:
    def test_full_document(self):
        cfg = config_from_entries(parse_config_text(GOOD_CONFIG))
        assert cfg.preset_name == "example1"
        assert cfg.params.conversion_efficiency == 0.5
        assert cfg.alphas == (0.85, 0.95)
        assert cfg.step == 0.05
        assert cfg.t_end == 120.0
        assert cfg.initial_states == (State(30, 5, 10), State(10, 20, 5))
        assert str(cfg.out_dir) == "results"

    def test_symbol_and_long_keys_equivalent(self):
        short = config_from_entries(parse_config_text(
            "model.preset = example1\nmodel.lambda = 0.005\n"))
        long = config_from_entries(parse_config_text(
            "model.preset = example1\nmodel.infection_rate = 0.005\n"))
        assert short.params == long.params
        for name in ModelParams.__dataclass_fields__:
            assert MODEL_KEYS[name] == name

    def test_fully_explicit_model(self):
        text = "\n".join([
            "model.r = 2.0", "model.k = 40.0", "model.lambda = 0.015",
            "model.m = 0.52", "model.mu = 0.28", "model.a = 15.0",
            "model.theta = 0.189", "model.d = 0.09",
        ])
        cfg = config_from_entries(parse_config_text(text))
        assert cfg.params == preset("example1").params

    def test_missing_assignment_reports_line(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_config_text("model.preset = example1\njust words\n")

    def test_unclosed_bracket_reports_line(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_config_text("solver.alpha = [0.85, 0.95\n")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ValidationError, match="trailing"):
            parse_config_text("solver.step = 0.05 0.1\n")

    def test_unknown_model_field_named(self):
        with pytest.raises(ValidationError, match="model.growth"):
            config_from_entries(parse_config_text(
                "model.preset = example1\nmodel.growth = 3\n"))

    def test_unknown_section_rejected(self):
        with pytest.raises(ValidationError, match="unknown configuration keys"):
            config_from_entries(parse_config_text(
                "model.preset = example1\nsolverr.step = 1\n"))

    @pytest.mark.parametrize("key,value", [
        ("solver.memory_window", 200),
        ("solver.corrector_iterations", 2),
    ])
    def test_removed_memory_window_key_rejected(self, key, value):
        with pytest.raises(ValidationError, match=f"unknown configuration keys: {key}$"):
            config_from_entries(parse_config_text(
                f"model.preset = example1\n{key} = {value}\n"))

    def test_removed_output_format_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown configuration keys: output.format"):
            config_from_entries(parse_config_text(
                "model.preset = example1\noutput.format = csv\n"))

    def test_underspecified_model_lists_missing_fields(self):
        with pytest.raises(ValidationError, match="underspecified"):
            config_from_entries(parse_config_text("model.r = 2.0\n"))

    def test_order_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError, match="order"):
            config_from_entries(parse_config_text(
                "model.preset = example1\nsolver.alpha = 1.2\n"))

    def test_empty_order_list_rejected(self):
        with pytest.raises(ValidationError, match="at least one order"):
            config_from_entries(parse_config_text(
                "model.preset = example1\nsolver.alpha = []\n"))

    def test_empty_initial_state_list_rejected(self):
        message = "field run.initial_states: expected at least one [S, I, P] triple, got []"
        with pytest.raises(ValidationError, match=re.escape(message)):
            config_from_entries(parse_config_text(
                "model.preset = example1\nrun.initial_states = []\n"))

    def test_negative_initial_state_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            config_from_entries(parse_config_text(
                "model.preset = example1\nrun.initial_states = [[1, -2, 3]]\n"))

    @pytest.mark.parametrize("line,field", [
        ("solver.t_end = [1, 2]", "solver.t_end"),
        ("solver.step = [0.1]", "solver.step"),
        ("solver.step = abc", "solver.step"),
        ("run.initial_states = [[30, 5, [1]]]", "run.initial_states"),
        ("run.initial_states = [[30, 5, x]]", "run.initial_states"),
        ("output.directory = [a]", "output.directory"),
    ])
    def test_value_of_the_wrong_type_names_its_field(self, line, field):
        with pytest.raises(ValidationError, match=f"field {field}: expected"):
            config_from_entries(parse_config_text(f"model.preset = example1\n{line}\n"))

    @pytest.mark.parametrize("word", ["1e3", "007"])
    def test_directory_is_the_word_as_written(self, word):
        cfg = config_from_entries(parse_config_text(
            f"model.preset = example1\noutput.directory = {word}\n"))
        assert cfg.out_dir == Path(word)

    def test_number_past_the_float_range_rejected(self):
        # float() of the word is inf, which the model rejects
        with pytest.raises(ValidationError, match="growth_rate must be finite"):
            config_from_entries(parse_config_text(
                "model.preset = example1\nmodel.r = 1" + "0" * 400 + "\n"))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG, encoding="utf-8")
        text = path.read_text(encoding="utf-8")
        assert config_from_entries(parse_config_text(text)).t_end == 120.0


class TestGrid:
    def test_name_field_and_values(self):
        name, field, values = parse_grid(" Theta =0.1:0.3:3")
        assert (name, field) == ("Theta", "conversion_efficiency")
        assert values.tolist() == np.linspace(0.1, 0.3, 3).tolist()

    @pytest.mark.parametrize("count", ["1e3", "1000", "1000.0"])
    def test_count_is_read_as_a_number(self, count):
        # as --step 1e3 is: float() of the word, which must be whole
        assert len(parse_grid(f"d=0.02:0.09:{count}")[2]) == 1000

    def test_count_up_to_the_cap(self):
        assert len(parse_grid(f"d=0.02:0.09:{MAX_GRID_POINTS}")[2]) == MAX_GRID_POINTS
        assert len(parse_grid("d=0.02:0.09:0")[2]) == 0

    @pytest.mark.parametrize("count", [
        str(MAX_GRID_POINTS + 1), "1000000000000", "1" + "0" * 400, "-1", "2.5", "nan", "inf",
    ])
    def test_count_outside_the_whole_numbers_to_the_cap_rejected(self, count, monkeypatch):
        # rejected before the grid is allocated: 1e12 points would take 8 TB
        monkeypatch.setattr(np, "linspace", None)
        message = f"grid count must be a whole number from 0 to {MAX_GRID_POINTS}, got "
        with pytest.raises(ValidationError, match=f"^{message}"):
            parse_grid(f"theta=0.1:0.2:{count}")

    @pytest.mark.parametrize("text, message", [
        ("theta=1:2", "bad --vary 'theta=1:2'; expected name=start:stop:count"),
        ("theta", "bad --vary 'theta'; expected name=start:stop:count"),
        ("zeta=0.1:0.5:3", "unknown model parameter 'zeta'"),
        ("theta=a:1:2", "field --vary start: expected a number, got 'a'"),
        ("theta=0:1:x", "field --vary count: expected a number, got 'x'"),
        ("theta=0:inf:3", "grid bounds must be finite, got 0 and inf"),
    ])
    def test_malformed_spec_rejected(self, text, message):
        with pytest.raises(ValidationError) as excinfo:
            parse_grid(text)
        assert str(excinfo.value) == message


class TestTrajectoryCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        traj = solve_model(
            preset("example1").params, 0.9, State(30.0, 5.0, 10.0), 0.05, 10.0
        )
        path = save_trajectory_csv(traj, tmp_path / "traj.csv")
        loaded = load_trajectory_csv(path)
        assert np.array_equal(loaded.times, traj.times)
        assert np.array_equal(loaded.states, traj.states)
        assert np.isnan(loaded.order)  # the file does not record it

    def test_header_and_line_endings(self, tmp_path):
        traj = solve_model(
            preset("example1").params, 0.9, State(30.0, 5.0, 10.0), 0.5, 1.0
        )
        path = save_trajectory_csv(traj, tmp_path / "traj.csv")
        raw = path.read_bytes()
        assert raw.startswith(b"t,S,I,P\n")
        assert b"\r" not in raw

    @pytest.mark.parametrize(
        "dim, columns",
        [(1, ("x0",)), (3, ("S", "I", "P"))],
        ids=["dim1-fallback", "dim3"],
    )
    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 10_001])
    def test_bytes_equal_the_per_value_writer(self, tmp_path, rows, dim, columns):
        traj = awkward_trajectory(rows, dim, seed=rows + dim)
        path = save_trajectory_csv(traj, tmp_path / "traj.csv")
        raw = path.read_bytes()
        assert raw == per_value_csv(traj, columns)
        assert raw.count(b"\n") == rows + 1

    def test_special_values_round_trip(self, tmp_path):
        traj = awkward_trajectory(300, 3)
        path = save_trajectory_csv(traj, tmp_path / "traj.csv")
        text = path.read_text()
        for token in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "1e+308"):
            assert f",{token}," in text or f",{token}\n" in text
        loaded = load_trajectory_csv(path)
        assert np.array_equal(loaded.times, traj.times)
        assert np.array_equal(loaded.states, traj.states, equal_nan=True)
        finite = np.isfinite(traj.states)
        assert loaded.states[finite].tobytes() == traj.states[finite].tobytes()  # -0.0 kept

    def test_ragged_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t,S,I,P\n0,1,2,3\n0.5,1,2\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_trajectory_csv(path)
        assert str(info.value) == f"{path}, line 3: 3 fields, the header has 4"

    def test_non_numeric_token_names_file_and_line(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t,S,I,P\n0,1,2,3\n\n0.5,1,x,3\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_trajectory_csv(path)
        assert str(info.value) == (
            f"{path}, line 4: could not convert string to float: 'x'"
        )

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t,S,I,P\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no data rows"):
            load_trajectory_csv(path)

    @pytest.mark.parametrize(
        "alpha,tag", [(0.95, "0p95"), (0.9, "0p9"), (1.0, "1"), (0.35, "0p35")]
    )
    def test_alpha_tag_in_file_names(self, alpha, tag):
        assert alpha_tag(alpha) == tag

    def test_format_float_round_trips(self):
        for value in (0.1, 1.0 / 3.0, 1e-17, -2.5e300, 0.0, 123456.789012345678):
            assert float(format_float(value)) == value
