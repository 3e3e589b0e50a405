"""Run configuration: strict YAML parsing, sweep expansion and the echo.

A run file has up to six groups: model, bath, discretization, truncation,
solver, sweep, the fields of RunConfig.  A group's keys are the fields of
its dataclass, in field order, each checked against the field's annotated
type; only Sweep.start and Sweep.stop are spelled differently in the file
(_file_key).  Unknown keys and non-finite numbers are hard errors,
because a silently ignored typo in a physics parameter is worse than a
crash.  All numeric constraints of the underlying domain types are
enforced here, at parse time, with the offending field path in the
message.  Sizes no run could take are a CapacityError, before anything
is built: a grid over MAX_GRID_POINTS, and a bath of more modes than
fockspace.MAX_BASIS_DIM, also one a sweep reaches.  config_as_dict
writes a config back in the same keys.
"""

from __future__ import annotations

import dataclasses
import math
import reprlib
import typing
from dataclasses import dataclass
from enum import Enum

import yaml

from .bath import BathSpec, DiscretizationSpec
from .errors import CapacityError, ConfigError
from .sectors import DEFAULT_MAX_ITER, DEFAULT_TOL, ModelParams
# after .sectors, which loads fockspace itself: loaded first, it raised the
# peak RSS of importing sbmlab.cli by about 0.2 MiB
from .fockspace import MAX_BASIS_DIM

SWEEPABLE = ("alpha", "s", "delta", "N", "n_max", "Lambda")

# the most points of a grid that is built whole before its first point is
# run: sweep.steps, and the --N-max and --epsilon-steps flags
MAX_GRID_POINTS = 10_000


def check_grid_points(name: str, count: int) -> None:
    """CapacityError, before any grid is built, when count is over MAX_GRID_POINTS."""
    if count > MAX_GRID_POINTS:
        raise CapacityError(f"{name} = {count} exceeds the maximum {MAX_GRID_POINTS}")


def _check_sweepable(parameter: str) -> None:
    if parameter not in SWEEPABLE:
        raise ValueError(
            f"sweep parameter must be one of {', '.join(SWEEPABLE)}, got '{parameter}'"
        )


def _file_key(field: dataclasses.Field) -> str:
    """The config-file key of a group field: its metadata "key", else its name."""
    return field.metadata.get("key", field.name)


@dataclass(frozen=True)
class Truncation:
    n_max: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_max, int) or self.n_max < 1:
            raise ValueError(f"occupation cutoff must be a positive integer, got n_max={self.n_max}")


@dataclass(frozen=True)
class SolverSettings:
    # the sector solves' residual tolerance, in units of bath.omega_c
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ValueError(f"residual tolerance must be positive, got tol={self.tol}")
        if not isinstance(self.max_iter, int) or self.max_iter < 1:
            raise ValueError(f"iteration budget must be a positive integer, got max_iter={self.max_iter}")


@dataclass(frozen=True)
class Sweep:
    """One-parameter scan; 'start'/'stop' carry the file's 'from'/'to'."""

    parameter: str
    start: float = dataclasses.field(metadata={"key": "from"})
    stop: float = dataclasses.field(metadata={"key": "to"})
    steps: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        _check_sweepable(self.parameter)
        if not isinstance(self.steps, int) or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps}")
        check_grid_points("sweep.steps", self.steps)
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be 'linear' or 'log', got '{self.scale}'")
        if self.scale == "log" and (self.start <= 0 or self.stop <= 0):
            raise ValueError("log scale requires positive endpoints")
        self.values()

    def values(self) -> list[float]:
        """The grid; its values must be finite, and an integer parameter's must round exactly."""
        if self.steps == 1:
            grid = [float(self.start)]
        elif self.scale == "linear":
            span = (self.stop - self.start) / (self.steps - 1)
            grid = [self.start + i * span for i in range(self.steps)]
        else:
            ratio = (self.stop / self.start) ** (1.0 / (self.steps - 1))
            grid = [self.start * ratio**i for i in range(self.steps)]
        for v in grid:
            if not math.isfinite(v):
                raise ValueError(f"sweep over {self.parameter} produced non-finite value {v}")
        if _SWEPT[self.parameter][1] is int:
            for v in grid:
                if abs(v - round(v)) > 1e-9:
                    raise ValueError(f"sweep over {self.parameter} produced non-integer value {v}")
            grid = [float(round(v)) for v in grid]
        return grid


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    bath: BathSpec
    discretization: DiscretizationSpec
    truncation: Truncation
    solver: SolverSettings = SolverSettings()
    sweep: Sweep | None = None

    def __post_init__(self) -> None:
        # at n_max >= 1 a basis over N + 1 modes has more than N + 1 states,
        # so no solve can take a bath past MAX_BASIS_DIM modes: refused when
        # the config is read or its sweep expanded, before any mode is built
        modes = self.discretization.N + 1
        if modes > MAX_BASIS_DIM:
            raise CapacityError(
                f"N={self.discretization.N} gives {modes} modes, more than any basis "
                f"holds (MAX_BASIS_DIM = {MAX_BASIS_DIM})"
            )

    def with_value(self, parameter: str, value: float) -> "RunConfig":
        """Copy of this config with one sweepable parameter replaced, cast to its field's type."""
        _check_sweepable(parameter)
        group, kind = _SWEPT[parameter]
        spec = dataclasses.replace(getattr(self, group), **{parameter: kind(value)})
        return dataclasses.replace(self, **{group: spec})

    def expand_sweep(self) -> list["RunConfig"]:
        """One config per sweep point, in sweep order; [self] when no sweep."""
        if self.sweep is None:
            return [self]
        return [self.with_value(self.sweep.parameter, v) for v in self.sweep.values()]


# each RunConfig group -> its dataclass (Sweep for the optional sweep)
_GROUPS = {
    group: cls if dataclasses.is_dataclass(cls) else typing.get_args(cls)[0]
    for group, cls in typing.get_type_hints(RunConfig).items()
}

# each sweepable parameter -> (the RunConfig group that holds it, its type)
_SWEPT = {
    name: (group, kind)
    for group, cls in _GROUPS.items()
    for name, kind in typing.get_type_hints(cls).items()
    if name in SWEEPABLE
}


def _require_mapping(data, path: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")


def _reject_unknown(data: dict, allowed: tuple[str, ...], path: str) -> None:
    unknown = [k for k in data if k not in allowed]
    if unknown:
        raise ConfigError(
            f"unknown key '{unknown[0]}' in {path}; expected one of: {', '.join(allowed)}"
        )


# a field's annotated type -> the YAML values it accepts and their name in errors
_ACCEPTS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string")}


def _typed(kind: type, value, where: str):
    """value as a field of type kind: a number as float, an enum by its value."""
    if issubclass(kind, Enum):
        try:
            return kind(value)
        except ValueError:
            names = ", ".join(sorted(member.value for member in kind))
            raise ConfigError(f"{where}: expected one of {names}, got {value!r}") from None
    accepted, name = _ACCEPTS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where}: expected {name}, got {value!r}")
    if kind is not float:
        return value
    try:
        number = float(value)
    except OverflowError:  # an int beyond the double range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {reprlib.repr(value)}")
    return number


def _read_group(cls, data, path: str):
    """Build the group dataclass cls from its mapping in the config file.

    The allowed keys, their order and their types are the fields of cls.
    A missing key takes the field's default, and is an error where it has none.
    """
    _require_mapping(data, path)
    fields = dataclasses.fields(cls)
    _reject_unknown(data, tuple(map(_file_key, fields)), path)
    types = typing.get_type_hints(cls)
    values = {}
    for field in fields:
        key = _file_key(field)
        if key in data:
            values[field.name] = _typed(types[field.name], data[key], f"{path}.{key}")
        elif field.default is dataclasses.MISSING:
            raise ConfigError(f"{path}.{key}: required field is missing")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed mapping and build the run description, group by group in field order."""
    _require_mapping(data, "top level")
    groups = dataclasses.fields(RunConfig)
    _reject_unknown(data, tuple(group.name for group in groups), "top level")
    read = {}
    for group in groups:
        if group.name in data:
            read[group.name] = _read_group(_GROUPS[group.name], data[group.name], group.name)
        elif group.default is dataclasses.MISSING:
            raise ConfigError(f"{group.name}: required group is missing")
    return RunConfig(**read)


def config_as_dict(cfg: RunConfig) -> dict:
    """parse_config's inverse, echoed by every manifest: file keys, an enum by its value."""
    echo = dict.fromkeys(_GROUPS)  # an absent sweep stays None
    for group in _GROUPS:
        spec = getattr(cfg, group)
        if spec is not None:
            echo[group] = {}
            for field in dataclasses.fields(spec):
                value = getattr(spec, field.name)
                echo[group][_file_key(field)] = value.value if isinstance(value, Enum) else value
    return echo


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if data is None:
        raise ConfigError(f"config file {path} is empty")
    return parse_config(data)
