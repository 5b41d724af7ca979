"""Config grammar and trajectory CSV round-trips."""

import numpy as np
import pytest

from fracoepi.config import (
    ConfigError,
    config_from_entries,
    load_config,
    parse_config_text,
)
from fracoepi.model import ValidationError
from fracoepi.runs import solve_model
from fracoepi.model import State, preset
from fracoepi.trajectory_io import (
    alpha_tag,
    format_float,
    load_trajectory_csv,
    save_trajectory_csv,
)

GOOD_CONFIG = """
# run configuration
model.preset = example1
model.theta = 0.5          # raise the conversion efficiency
solver.alpha = [0.85, 0.95]
solver.step = 0.05
solver.t_end = 120
solver.corrector_iterations = 2
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
        assert cfg.corrector_iterations == 2
        assert cfg.initial_states == (State(30, 5, 10), State(10, 20, 5))
        assert str(cfg.out_dir) == "results"

    def test_symbol_and_long_keys_equivalent(self):
        short = config_from_entries(parse_config_text(
            "model.preset = example1\nmodel.lambda = 0.005\n"))
        long = config_from_entries(parse_config_text(
            "model.preset = example1\nmodel.infection_rate = 0.005\n"))
        assert short.params == long.params

    def test_fully_explicit_model(self):
        text = "\n".join([
            "model.r = 2.0", "model.k = 40.0", "model.lambda = 0.015",
            "model.m = 0.52", "model.mu = 0.28", "model.a = 15.0",
            "model.theta = 0.189", "model.d = 0.09",
        ])
        cfg = config_from_entries(parse_config_text(text))
        assert cfg.params == preset("example1").params

    def test_missing_assignment_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("model.preset = example1\njust words\n")

    def test_unclosed_bracket_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("solver.alpha = [0.85, 0.95\n")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ConfigError, match="trailing"):
            parse_config_text("solver.step = 0.05 0.1\n")

    def test_unknown_model_field_named(self):
        with pytest.raises(ConfigError, match="model.growth"):
            config_from_entries(parse_config_text(
                "model.preset = example1\nmodel.growth = 3\n"))

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            config_from_entries(parse_config_text(
                "model.preset = example1\nsolverr.step = 1\n"))

    def test_removed_memory_window_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration keys: solver.memory_window"):
            config_from_entries(parse_config_text(
                "model.preset = example1\nsolver.memory_window = 200\n"))

    def test_underspecified_model_lists_missing_fields(self):
        with pytest.raises(ConfigError, match="underspecified"):
            config_from_entries(parse_config_text("model.r = 2.0\n"))

    def test_order_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError, match="order"):
            config_from_entries(parse_config_text(
                "model.preset = example1\nsolver.alpha = 1.2\n"))

    def test_empty_order_list_rejected(self):
        with pytest.raises(ValidationError, match="at least one order"):
            config_from_entries(parse_config_text(
                "model.preset = example1\nsolver.alpha = []\n"))

    def test_negative_initial_state_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            config_from_entries(parse_config_text(
                "model.preset = example1\nrun.initial_states = [[1, -2, 3]]\n"))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG, encoding="utf-8")
        assert load_config(path).t_end == 120.0


class TestTrajectoryCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        traj = solve_model(
            preset("example1").params, 0.9, State(30.0, 5.0, 10.0), 0.05, 10.0
        )
        path = save_trajectory_csv(traj, tmp_path / "traj.csv")
        loaded = load_trajectory_csv(path, order=traj.order)
        assert np.array_equal(loaded.times, traj.times)
        assert np.array_equal(loaded.states, traj.states)

    def test_header_and_line_endings(self, tmp_path):
        traj = solve_model(
            preset("example1").params, 0.9, State(30.0, 5.0, 10.0), 0.5, 1.0
        )
        path = save_trajectory_csv(traj, tmp_path / "traj.csv")
        raw = path.read_bytes()
        assert raw.startswith(b"t,S,I,P\n")
        assert b"\r" not in raw

    @pytest.mark.parametrize(
        "alpha,tag", [(0.95, "0p95"), (0.9, "0p9"), (1.0, "1"), (0.35, "0p35")]
    )
    def test_alpha_tag_in_file_names(self, alpha, tag):
        assert alpha_tag(alpha) == tag

    def test_format_float_round_trips(self):
        for value in (0.1, 1.0 / 3.0, 1e-17, -2.5e300, 0.0, 123456.789012345678):
            assert float(format_float(value)) == value
