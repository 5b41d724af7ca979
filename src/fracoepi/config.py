"""Flat key-value run configuration.

Grammar (one assignment per line, ``#`` starts a comment):

    model.preset = example1
    model.theta = 0.5                 # single-field override
    solver.alpha = [0.85, 0.95]
    solver.step = 0.05
    solver.t_end = 500
    run.initial_states = [[30, 5, 10], [10, 20, 5]]
    output.directory = out

Keys use dotted namespaces; values are numbers, bare strings, or bracketed
(possibly nested) lists.  Model parameters accept both the short symbol keys
(``model.r``, ``model.lambda``, ...) and the full field names
(``model.growth_rate``, ...).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .model import ModelParams, State, ValidationError, preset
from .solver import validate_order, validate_step

__all__ = ["MODEL_KEYS", "RunConfig", "parse_config_text"]

DEFAULT_ALPHAS = (0.85, 0.95)
DEFAULT_STEP = 0.05
DEFAULT_T_END = 500.0

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


def _parse_scalar(token: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token  # bare string


def _parse_value(text: str, line_no: int):
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise ValidationError(f"line {line_no}: missing value")
    pos = 0

    def parse_item():
        nonlocal pos
        if pos >= len(tokens):
            raise ValidationError(f"line {line_no}: unexpected end of value")
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
        return _parse_scalar(tok)

    value = parse_item()
    if pos != len(tokens):
        raise ValidationError(f"line {line_no}: trailing tokens after value")
    return value


def parse_config_text(text: str) -> dict:
    """Flat dict of dotted keys to parsed values; later keys override earlier."""
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
        validate_step(self.step)
        for state in self.initial_states:
            if not state.nonnegative:
                raise ValidationError(f"initial state must be non-negative, got {state}")


def _number(value, key: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"field {key}: expected a number, got {value!r}")
    return float(value)


def _as_float_list(value, key: str) -> list[float]:
    return [_number(item, key) for item in (value if isinstance(value, list) else [value])]


def _as_states(value, key: str) -> list[State]:
    if not isinstance(value, list):
        raise ValidationError(f"field {key}: expected a list of [S, I, P] triples")
    triples = value if value and isinstance(value[0], list) else [value]
    states = []
    for triple in triples:
        if not (isinstance(triple, list) and len(triple) == 3):
            raise ValidationError(f"field {key}: each state needs exactly 3 components")
        states.append(State(*(_number(x, key) for x in triple)))
    return states


def config_from_entries(entries: dict) -> RunConfig:
    """Assemble a RunConfig from parsed flat keys."""
    entries = dict(entries)
    preset_name = entries.pop("model.preset", None)
    base = None
    initial_states: list[State] = []
    if preset_name is not None:
        chosen = preset(str(preset_name))
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
    out_dir = entries.pop("output.directory", "out")
    if isinstance(out_dir, list):
        raise ValidationError(f"field output.directory: expected one path, got {out_dir!r}")

    if entries:
        unknown = ", ".join(sorted(entries))
        raise ValidationError(f"unknown configuration keys: {unknown}")

    return RunConfig(
        params=params,
        alphas=alphas,
        initial_states=tuple(initial_states),
        step=step,
        t_end=t_end,
        out_dir=Path(str(out_dir)),
        preset_name=None if preset_name is None else str(preset_name),
    )
