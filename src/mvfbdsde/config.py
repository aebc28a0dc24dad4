"""Flat key=value scenario configuration.

Grammar: one ``key = value`` per line, ``#`` starts a comment, keys are
case-sensitive dotted paths.  Values parse as int, float, bool (true/false),
or bare string.  Parsing then serializing then parsing again is the identity.

Recognized keys::

    scenario                 example1 | example2 | linear_base | lq_control | custom
    command                  solve | check_assumptions | detect_nonuniqueness |
                             verify_smp | ito_check
    seed                     64-bit integer
    grid.horizon             float > 0
    grid.steps               int >= 2
    ensemble.particles       int >= 2
    dims.d / dims.d_w / dims.d_b
    continuation.delta       ladder step in (0, 1]
    continuation.case        case1 | case2
    solver.tol / solver.basis / solver.ridge / solver.max_iter / solver.damping
    assume.theta1 / assume.theta2 / assume.alpha1 / assume.pairs
    initial.x                scalar initial state (broadcast over components)
    terminal.xi              scalar shift added to the terminal map
    out                      output directory
    threads                  worker cap, 0 = auto
    override_horizon         true to allow a non-default example2 horizon
    model.<coef>.<src>       linear tables for scenario = custom, e.g.
                             model.f.mY = 0.5 (coef in f,F,g,G,h; src per table)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    CoefficientSet,
    Dimensions,
    LinearTables,
    builtin_counterexample,
    builtin_example_meanfield,
    linear_coefficient_set,
)
from .paths import TimeGrid
from .solver import BASES, RegressionConfig

SCENARIOS = ("example1", "example2", "linear_base", "lq_control", "custom")
COMMANDS = (
    "solve",
    "check_assumptions",
    "detect_nonuniqueness",
    "verify_smp",
    "ito_check",
)

EXAMPLE2_HORIZON = 0.75 * math.pi


class ConfigError(ValueError):
    pass


def _parse_value(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_kv(text: str) -> dict[str, object]:
    out: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = _parse_value(raw)
    return out


def serialize_kv(mapping: dict[str, object]) -> str:
    lines = [f"{key} = {_format_value(mapping[key])}" for key in sorted(mapping)]
    return "\n".join(lines) + "\n"


@dataclass
class ScenarioConfig:
    scenario: str = "example1"
    command: str = "solve"
    seed: int = 20240611
    horizon: float = 1.0
    steps: int = 200
    particles: int = 4000
    d: int = 1
    d_w: int = 1
    d_b: int = 1
    delta: float = 0.2
    case: str = "case1"
    tol: float = 1e-5
    basis: str = "affine_y"
    ridge: float = 1e-8
    max_iter: int = 60
    damping: float = 1.0
    theta1: float = 0.25
    theta2: float = 0.25
    alpha1: float = 0.5
    n_pairs: int = 10000
    x: float = 1.0
    xi: float = 0.0
    out: str = "out"
    threads: int = 0
    override_horizon: bool = False
    model_tables: dict[str, float] = field(default_factory=dict)

    _KEYMAP = {
        "scenario": "scenario",
        "command": "command",
        "seed": "seed",
        "grid.horizon": "horizon",
        "grid.steps": "steps",
        "ensemble.particles": "particles",
        "dims.d": "d",
        "dims.d_w": "d_w",
        "dims.d_b": "d_b",
        "continuation.delta": "delta",
        "continuation.case": "case",
        "solver.tol": "tol",
        "solver.basis": "basis",
        "solver.ridge": "ridge",
        "solver.max_iter": "max_iter",
        "solver.damping": "damping",
        "assume.theta1": "theta1",
        "assume.theta2": "theta2",
        "assume.alpha1": "alpha1",
        "assume.pairs": "n_pairs",
        "initial.x": "x",
        "terminal.xi": "xi",
        "out": "out",
        "threads": "threads",
        "override_horizon": "override_horizon",
    }

    @classmethod
    def from_text(cls, text: str) -> "ScenarioConfig":
        mapping = parse_kv(text)
        return cls.from_mapping(mapping)

    @classmethod
    def from_mapping(cls, mapping: dict[str, object]) -> "ScenarioConfig":
        cfg = cls()
        if "scenario" in mapping:
            cfg.apply_scenario_defaults(str(mapping["scenario"]))
        for key, value in mapping.items():
            if key in cls._KEYMAP:
                attr = cls._KEYMAP[key]
                current = getattr(cfg, attr)
                if isinstance(current, bool):
                    value = bool(value)
                elif isinstance(current, int) and not isinstance(value, bool):
                    if isinstance(value, float) and not value.is_integer():
                        raise ConfigError(f"{key} must be an integer")
                    value = int(value)
                elif isinstance(current, float):
                    if (not isinstance(value, (int, float)) or isinstance(value, bool)
                            or not math.isfinite(value)):
                        raise ConfigError(f"{key} must be a finite number")
                    value = float(value)
                else:
                    value = str(value)
                setattr(cfg, attr, value)
            elif key.startswith("model."):
                tail = key[len("model."):]
                if (not isinstance(value, (int, float)) or isinstance(value, bool)
                        or not math.isfinite(value)):
                    raise ConfigError(f"model key {key!r} needs a finite number")
                cfg.model_tables[tail] = float(value)
            else:
                raise ConfigError(f"unknown key {key!r}")
        cfg.validate()
        return cfg

    def apply_scenario_defaults(self, scenario: str) -> None:
        if scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {scenario!r}")
        self.scenario = scenario
        presets = {
            "example1": dict(horizon=1.0, steps=200, particles=4000, x=1.0,
                             delta=0.2, theta1=0.25, theta2=0.25, alpha1=0.5,
                             tol=1e-5),
            "example2": dict(horizon=EXAMPLE2_HORIZON, steps=300, particles=2000,
                             x=0.0, delta=0.2, theta1=1.0, theta2=0.0,
                             alpha1=0.5, tol=1e-4, damping=0.35),
            "linear_base": dict(horizon=1.0, steps=100, particles=1000, x=1.0,
                                theta1=1.0, theta2=0.0, xi=0.5),
            "lq_control": dict(horizon=1.0, steps=50, particles=1000, x=1.0,
                               delta=0.25, theta1=0.125, theta2=0.125,
                               alpha1=0.5, tol=1e-6),
            "custom": dict(),
        }
        for key, value in presets[scenario].items():
            setattr(self, key, value)

    def to_mapping(self) -> dict[str, object]:
        out: dict[str, object] = {}
        for key, attr in self._KEYMAP.items():
            out[key] = getattr(self, attr)
        for key, value in sorted(self.model_tables.items()):
            out[f"model.{key}"] = value
        return out

    def to_text(self) -> str:
        return serialize_kv(self.to_mapping())

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.steps < 2:
            raise ConfigError("grid.steps must be >= 2")
        if self.particles < 2:
            raise ConfigError("ensemble.particles must be >= 2")
        if self.horizon <= 0:
            raise ConfigError("grid.horizon must be > 0")
        if not 0 < self.delta <= 1:
            raise ConfigError("continuation.delta must lie in (0, 1]")
        if self.case not in ("case1", "case2"):
            raise ConfigError("continuation.case must be case1 or case2")
        if self.basis not in BASES:
            raise ConfigError(f"unknown basis {self.basis!r}")
        if self.threads < 0:
            raise ConfigError("threads must be >= 0")
        if self.scenario == "example2" and not self.override_horizon:
            if abs(self.horizon - EXAMPLE2_HORIZON) > 1e-12:
                raise ConfigError(
                    "example2 fixes grid.horizon = 3*pi/4; pass an explicit "
                    "horizon override to change it"
                )

    # -- builders -------------------------------------------------------------

    @property
    def dims(self) -> Dimensions:
        return Dimensions(self.d, self.d_w, self.d_b)

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.steps)

    @property
    def regression(self) -> RegressionConfig:
        return RegressionConfig(basis=self.basis, ridge=self.ridge)

    def initial_vector(self) -> np.ndarray:
        return np.full(self.d, self.x)

    def coefficient_set(self) -> CoefficientSet:
        if self.scenario == "example1":
            return builtin_example_meanfield(self.dims)
        if self.scenario == "example2":
            coeffs, _, _, _ = builtin_counterexample()
            return coeffs
        if self.scenario == "linear_base":
            return linear_coefficient_set(self.dims, LinearTables(), name="linear_base")
        if self.scenario == "custom":
            return self.custom_coefficient_set()
        raise ConfigError(f"scenario {self.scenario!r} has no coefficient map")

    def custom_coefficient_set(self) -> CoefficientSet:
        tables: dict[str, dict[str, float]] = {k: {} for k in ("f", "F", "g", "G", "h")}
        for key, value in self.model_tables.items():
            parts = key.split(".")
            if len(parts) != 2 or parts[0] not in tables:
                raise ConfigError(f"bad model key model.{key}")
            tables[parts[0]][parts[1]] = value
        return linear_coefficient_set(self.dims, LinearTables(**tables), name="custom")
