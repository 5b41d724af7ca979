"""Flat key-value run configuration.

Grammar (one assignment per line, ``#`` starts a comment):

    model.preset = example1
    model.theta = 0.5                 # single-field override
    solver.alpha = [0.85, 0.95]
    solver.step = 0.05
    solver.t_end = 500
    run.initial_states = [[30, 5, 10], [10, 20, 5]]
    output.directory = out

Keys use dotted namespaces.  A value is a word (a run of characters other
than brackets, commas and whitespace) or a bracketed, possibly nested, list
of values, and it stays the text that was read: a field that needs a number
reads its word with ``float()``, so ``output.directory = 1e3`` names the
directory ``1e3``.  A command-line flag's text is read exactly as the entry
it overrides.  Model parameters accept both the short symbol keys
(``model.r``, ``model.lambda``, ...) and the full field names
(``model.growth_rate``, ...).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .model import ModelParams, State, ValidationError, preset
from .solver import BOOL_TYPES, shown, validate_order, validate_positive

__all__ = ["MODEL_KEYS", "RunConfig", "output_directory", "parse_config_text", "parse_grid"]

DEFAULT_ALPHAS = (0.85, 0.95)
DEFAULT_STEP = 0.05
DEFAULT_T_END = 500.0
DEFAULT_OUT_DIR = "out"
# a sweep holds every row until its file is written, about 300 bytes and
# 0.27 ms per row (4000 points), so the cap is 30 MB and 27 s per order
MAX_GRID_POINTS = 100_000

MODEL_KEYS = {  # the paper's symbol, then every field under its own name
    "r": "growth_rate",
    "k": "carrying_capacity",
    "lambda": "infection_rate",
    "m": "predation_rate",
    "mu": "infected_death_rate",
    "a": "half_saturation",
    "theta": "conversion_efficiency",
    "d": "predator_death_rate",
    **{name: name for name in ModelParams.__dataclass_fields__},
}

_KEY_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")
_TOKEN_RE = re.compile(r"\[|\]|,|[^\[\],\s]+")


def _parse_value(text: str, line_no: int):
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise ValidationError(f"line {line_no}: missing value")
    pos = 0

    # entered only with pos < len(tokens): at the top, where tokens is not
    # empty, and inside a list, after its own end-of-tokens check
    def parse_item():
        nonlocal pos
        tok = tokens[pos]
        if tok == "[":
            pos += 1
            items = []
            while True:
                if pos >= len(tokens):
                    raise ValidationError(f"line {line_no}: unclosed '['")
                if tokens[pos] == "]":
                    pos += 1
                    return items
                items.append(parse_item())
                if pos < len(tokens) and tokens[pos] == ",":
                    pos += 1
        if tok in ("]", ","):
            raise ValidationError(f"line {line_no}: unexpected {tok!r}")
        pos += 1
        return tok

    value = parse_item()
    if pos != len(tokens):
        raise ValidationError(f"line {line_no}: trailing tokens after value")
    return value


def parse_config_text(text: str) -> dict:
    """Flat dict of dotted keys to their words and lists of words; later keys
    override earlier."""
    entries: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {line_no}: expected 'key = value'")
        key, _, value_text = line.partition("=")
        key = key.strip().lower()
        if not _KEY_RE.match(key):
            raise ValidationError(f"line {line_no}: invalid key {key!r}")
        entries[key] = _parse_value(value_text.strip(), line_no)
    return entries


@dataclass(frozen=True)
class RunConfig:
    """Everything a simulation run needs."""

    params: ModelParams
    alphas: tuple[float, ...]
    initial_states: tuple[State, ...]
    step: float
    t_end: float
    out_dir: Path
    preset_name: Optional[str]

    def __post_init__(self):
        if not self.alphas:
            raise ValidationError("at least one order is needed")
        for alpha in self.alphas:
            validate_order(alpha)
        validate_positive("step", self.step)
        for state in self.initial_states:
            if not state.nonnegative:
                raise ValidationError(f"initial state must be non-negative, got {state}")


def _number(value, key: str) -> float:
    """``float()`` of a word, or of an int or float a library caller passes:
    the one place where a config or flag value becomes a number."""
    try:
        number = float(value)
    # a list, a word that is not a number, an int past the float range
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, BOOL_TYPES):
        raise ValidationError(f"field {key}: expected a number, got {shown(value, repr)}")
    return number


def _as_float_list(value, key: str) -> list[float]:
    return [_number(item, key) for item in (value if isinstance(value, list) else [value])]


def _as_states(value, key: str) -> list[State]:
    if not isinstance(value, list):
        raise ValidationError(f"field {key}: expected a list of [S, I, P] triples")
    if not value:
        raise ValidationError(f"field {key}: expected at least one [S, I, P] triple, got []")
    triples = value if isinstance(value[0], list) else [value]
    states = []
    for triple in triples:
        if not (isinstance(triple, list) and len(triple) == 3):
            raise ValidationError(f"field {key}: each state needs exactly 3 components")
        states.append(State(*(_number(x, key) for x in triple)))
    return states


def output_directory(value) -> Path:
    """The path an ``output.directory`` value or an ``out_dir`` names; empty
    text, which ``Path`` reads as the working directory, is rejected."""
    if not isinstance(value, (str, Path)) or not value:
        raise ValidationError(f"field output.directory: expected one path, got {value!r}")
    return Path(value)


def parse_grid(text: str) -> tuple[str, str, np.ndarray]:
    """``name=start:stop:count`` as the name as written, the model field it
    sets and its ``count`` evenly spaced values from start to stop."""
    name, _, bounds = text.partition("=")
    words = bounds.split(":")
    if len(words) != 3:
        raise ValidationError(f"bad --vary {text!r}; expected name=start:stop:count")
    name = name.strip()
    field = MODEL_KEYS.get(name.lower())
    if field is None:
        raise ValidationError(f"unknown model parameter {name!r}")
    start, stop, count = (_number(word, f"--vary {part}")
                          for word, part in zip(words, ("start", "stop", "count")))
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(f"grid bounds must be finite, got {start:g} and {stop:g}")
    if not (count.is_integer() and 0 <= count <= MAX_GRID_POINTS):
        raise ValidationError(
            f"grid count must be a whole number from 0 to {MAX_GRID_POINTS}, got {count:g}"
        )
    return name, field, np.linspace(start, stop, int(count))


def config_from_entries(entries: dict) -> RunConfig:
    """Assemble a RunConfig from parsed flat keys."""
    entries = dict(entries)
    preset_name = entries.pop("model.preset", None)
    base = None
    initial_states: list[State] = []
    if preset_name is not None:
        chosen = preset(preset_name)
        base = chosen.params
        initial_states = list(chosen.initial_states)

    overrides = {}
    for key in [k for k in entries if k.startswith("model.")]:
        short = key.split(".", 1)[1]
        if short not in MODEL_KEYS:
            raise ValidationError(f"field {key}: unknown model parameter")
        overrides[MODEL_KEYS[short]] = _number(entries.pop(key), key)
    if base is None:
        missing = sorted(
            set(ModelParams.__dataclass_fields__) - set(overrides)
        )
        if missing:
            raise ValidationError(
                "model is underspecified: set model.preset or all of "
                + ", ".join(missing)
            )
        params = ModelParams(**overrides)
    else:
        params = base.replace(**overrides) if overrides else base

    if "run.initial_states" in entries:
        initial_states = _as_states(entries.pop("run.initial_states"), "run.initial_states")
    if not initial_states:
        initial_states = [State(30.0, 5.0, 10.0)]

    alphas = tuple(
        _as_float_list(entries.pop("solver.alpha", list(DEFAULT_ALPHAS)), "solver.alpha")
    )
    step = _number(entries.pop("solver.step", DEFAULT_STEP), "solver.step")
    t_end = _number(entries.pop("solver.t_end", DEFAULT_T_END), "solver.t_end")
    out_dir = output_directory(entries.pop("output.directory", DEFAULT_OUT_DIR))

    if entries:
        unknown = ", ".join(sorted(entries))
        raise ValidationError(f"unknown configuration keys: {unknown}")

    return RunConfig(
        params=params,
        alphas=alphas,
        initial_states=tuple(initial_states),
        step=step,
        t_end=t_end,
        out_dir=out_dir,
        preset_name=preset_name,
    )
