"""Flat key=value scenario configuration.

Grammar: one ``key = value`` per line, ``#`` starts a comment, keys are
case-sensitive dotted paths.  Values parse as int, float, bool (true/false),
or bare string.  Parsing then serializing then parsing again is the identity.

Each ``ScenarioConfig`` field declares its key, and a value must fit the type
of the field's default: a bool takes only true/false, an int only a whole
number, a float only a finite number (``model.*`` entries too), none of them
a bool; anything else is a ConfigError naming the key.

Recognized keys::

    scenario                 example1 | example2 | linear_base | lq_control | custom
    command                  solve | check_assumptions | detect_nonuniqueness |
                             verify_smp | ito_check
    seed                     64-bit integer
    grid.horizon             float > 0
    grid.steps               int >= 2
    ensemble.particles       int >= 2
    dims.d / dims.d_w / dims.d_b   int >= 1
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

Every command reads scenario, seed and grid.*, and validation builds the
scenario's model (custom: from model.*); each command also reads::

    solve                  ensemble.particles, dims.*, continuation.*, solver.*,
                           assume.theta1/theta2, initial.x, terminal.xi
    check_assumptions      dims.*, assume.*
    detect_nonuniqueness   ensemble.particles, dims.*, solver.*, initial.x,
                           terminal.xi
    verify_smp             ensemble.particles, continuation.delta,
                           solver.tol/basis/ridge, assume.theta1/theta2/alpha1,
                           initial.x, terminal.xi
    ito_check              ensemble.particles, dims.d_w, dims.d_b

A config that cannot run is a ConfigError naming its key before any output:
a dims.* value the scenario's model fixes, a bad model.* entry or one off
scenario = custom, verify_smp off lq_control, a solve with a zero theta of
its case, certifier constants check_assumptions rejects, and out-of-range
solver.* or assume.pairs values.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .control import ControlProblem, lq_control_scenario
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

EXAMPLE2_HORIZON = float(builtin_counterexample()[1])


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


def _coerce(key: str, value, default):
    """``value`` as the type of ``default``, the default of the setting
    ``key``, by the module's type rule; a string setting takes the value's text."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{key} must be true or false")
    if isinstance(default, int):
        if number and (isinstance(value, int) or value.is_integer()):
            return int(value)
        raise ConfigError(f"{key} must be a whole number")
    if isinstance(default, float):
        # finite as a float: false for nan, inf and ints beyond the float range
        if number and abs(value) <= sys.float_info.max:
            return float(value)
        raise ConfigError(f"{key} must be a finite number")
    return _format_value(value)


def _setting(key: str, default):
    """A field set by the config key ``key``."""
    return field(default=default, metadata={"key": key})


@dataclass
class ScenarioConfig:
    scenario: str = _setting("scenario", "example1")
    command: str = _setting("command", "solve")
    seed: int = _setting("seed", 20240611)
    horizon: float = _setting("grid.horizon", 1.0)
    steps: int = _setting("grid.steps", 200)
    particles: int = _setting("ensemble.particles", 4000)
    d: int = _setting("dims.d", 1)
    d_w: int = _setting("dims.d_w", 1)
    d_b: int = _setting("dims.d_b", 1)
    delta: float = _setting("continuation.delta", 0.2)
    case: str = _setting("continuation.case", "case1")
    tol: float = _setting("solver.tol", 1e-5)
    basis: str = _setting("solver.basis", "affine_y")
    ridge: float = _setting("solver.ridge", 1e-8)
    max_iter: int = _setting("solver.max_iter", 60)
    damping: float = _setting("solver.damping", 1.0)
    theta1: float = _setting("assume.theta1", 0.25)
    theta2: float = _setting("assume.theta2", 0.25)
    alpha1: float = _setting("assume.alpha1", 0.5)
    n_pairs: int = _setting("assume.pairs", 10000)
    x: float = _setting("initial.x", 1.0)
    xi: float = _setting("terminal.xi", 0.0)
    out: str = _setting("out", "out")
    threads: int = _setting("threads", 0)
    override_horizon: bool = _setting("override_horizon", False)
    model_tables: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str) -> "ScenarioConfig":
        return cls.from_mapping(parse_kv(text))

    @classmethod
    def from_mapping(cls, mapping: dict[str, object]) -> "ScenarioConfig":
        cfg = cls()
        if "scenario" in mapping:
            cfg.apply_scenario_defaults(str(mapping["scenario"]))
        for key, value in mapping.items():
            if key in _FIELDS:
                setattr(cfg, _FIELDS[key].name, _coerce(key, value, _FIELDS[key].default))
            elif key.startswith("model."):
                cfg.model_tables[key[len("model."):]] = _coerce(key, value, 0.0)
            else:
                raise ConfigError(f"unknown key {key!r}")
        cfg.validate()
        return cfg

    def apply_scenario_defaults(self, scenario: str) -> None:
        if scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {scenario!r}")
        self.scenario = scenario
        # example1 and custom run on the field defaults
        presets = {
            "example2": dict(horizon=EXAMPLE2_HORIZON, steps=300, particles=2000,
                             x=0.0, delta=0.2, theta1=1.0, theta2=0.0,
                             alpha1=0.5, tol=1e-4, damping=0.35),
            "linear_base": dict(horizon=1.0, steps=100, particles=1000, x=1.0,
                                theta1=1.0, theta2=0.0, xi=0.5),
            "lq_control": dict(horizon=1.0, steps=50, particles=1000, x=1.0, tol=1e-6,
                               n_pairs=2000),
        }
        for key, value in presets.get(scenario, {}).items():
            setattr(self, key, value)
        if scenario == "lq_control":  # the control problem owns its ladder step and constants
            lq = lq_control_scenario()
            for key in ("delta", "theta1", "theta2", "alpha1"):
                setattr(self, key, getattr(lq, key))

    def to_mapping(self) -> dict[str, object]:
        out = {key: getattr(self, f.name) for key, f in _FIELDS.items()}
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
        # the ladder damps by its case's theta; verify_smp climbs it under case1
        ladder = self.command in ("solve", "verify_smp")
        theta = "theta2" if self.case == "case2" and self.command == "solve" else "theta1"
        certify = self.command == "check_assumptions"
        for ok, attr, rule in (
            (self.steps >= 2, "steps", "must be >= 2"),
            (self.particles >= 2, "particles", "must be >= 2"),
            (self.d >= 1, "d", "must be >= 1"),
            (self.d_w >= 1, "d_w", "must be >= 1"),
            (self.d_b >= 1, "d_b", "must be >= 1"),
            (self.horizon > 0, "horizon", "must be > 0"),
            (0 < self.delta <= 1, "delta", "must lie in (0, 1]"),
            (self.case in ("case1", "case2"), "case", "must be case1 or case2"),
            (self.basis in BASES, "basis", f"{self.basis!r} is unknown"),
            (self.tol > 0, "tol", "must be > 0"),
            (self.ridge >= 0, "ridge", "must be >= 0"),
            (0 < self.damping <= 1, "damping", "must lie in (0, 1]"),
            (self.max_iter >= 1, "max_iter", "must be >= 1"),
            (self.n_pairs >= 1, "n_pairs", "must be >= 1"),
            (self.threads >= 0, "threads", "must be >= 0"),
            (self.command != "verify_smp" or self.scenario == "lq_control",
             "command", "verify_smp needs scenario = lq_control"),
            (not ladder or getattr(self, theta) > 0, theta, f"must be > 0 to {self.command}"),
            # the certifier's constants, as check_monotonicity takes them
            (not certify or self.theta1 >= 0, "theta1", "must be >= 0 to certify"),
            (not certify or self.theta2 >= 0, "theta2", "must be >= 0 to certify"),
            (not certify or self.theta1 + self.theta2 > 0,
             "theta1", "+ assume.theta2 must be > 0 to certify"),
            (not certify or self.alpha1 + self.theta2 > 0,
             "alpha1", "+ assume.theta2 must be > 0 to certify"),
            (self.scenario != "example2" or self.override_horizon
             or abs(self.horizon - EXAMPLE2_HORIZON) <= 1e-12, "horizon",
             "must be 3*pi/4 under example2; pass an explicit horizon override to change it"),
        ):
            if not ok:
                raise ConfigError(f"{KEYS[attr]} {rule}")
        if self.model_tables and self.scenario != "custom":
            raise ConfigError(f"model.{min(self.model_tables)} needs scenario = custom, "
                              f"not {self.scenario}")
        model = self.coefficient_set()
        for attr in ("d", "d_w", "d_b"):
            fixed = getattr(model.dims, attr)
            if getattr(self, attr) != fixed:
                raise ConfigError(f"{KEYS[attr]} must be {fixed}: {self.scenario} fixes it")

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

    def terminal_shift(self) -> np.ndarray | None:
        return None if self.xi == 0.0 else np.full(self.d, self.xi)

    def control_problem(self) -> ControlProblem:
        """The LQ problem with the config's grid, ladder step, constants, x and xi."""
        return replace(lq_control_scenario(self.grid), delta=self.delta,
                       theta1=self.theta1, theta2=self.theta2, alpha1=self.alpha1,
                       x=self.initial_vector(), xi=self.terminal_shift())

    def coefficient_set(self) -> CoefficientSet:
        """The scenario's model; lq_control's is the state system at the box centre."""
        if self.scenario == "example1":
            try:
                return builtin_example_meanfield(self.dims)
            except ValueError as err:
                raise ConfigError(f"{KEYS['d_b']} must equal {KEYS['d_w']}: {err}") from None
        if self.scenario == "example2":
            return builtin_counterexample()[0]
        if self.scenario == "linear_base":
            return linear_coefficient_set(self.dims, LinearTables(), name="linear_base")
        if self.scenario == "lq_control":
            problem = self.control_problem()
            return problem.coefficients_for(
                np.broadcast_to(problem.control_box_center(), (self.steps + 1, problem.d_u)))
        tables: dict[str, dict[str, float]] = {k: {} for k in ("f", "F", "g", "G", "h")}
        for key, value in self.model_tables.items():
            coef, _, src = key.partition(".")
            try:  # the tables own the rule on each entry's sources
                LinearTables(**{coef: {src: value}})
            except (TypeError, ValueError) as err:
                raise ConfigError(f"model.{key} is no table entry: {err}") from None
            tables[coef][src] = value
        return linear_coefficient_set(self.dims, LinearTables(**tables), name="custom")


# each config key's field, and each field's key, from the fields' own metadata
_FIELDS = {f.metadata["key"]: f for f in fields(ScenarioConfig) if f.metadata}
KEYS = {f.name: key for key, f in _FIELDS.items()}
