"""Run configuration: strict YAML parsing and sweep expansion.

A run file has up to six groups: model, bath, discretization, truncation,
solver, sweep.  Unknown keys anywhere are hard errors, because a silently
ignored typo in a physics parameter is worse than a crash.  All numeric
constraints of the underlying domain types are enforced here, at parse
time, with the offending field path in the message.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import yaml

from .bath import BathSpec, Convention, DiscretizationSpec
from .errors import ConfigError
from .sectors import DEFAULT_MAX_ITER, DEFAULT_TOL, ModelParams

SWEEPABLE = ("alpha", "s", "delta", "N", "n_max", "Lambda")
_INTEGER_PARAMETERS = ("N", "n_max")

@dataclass(frozen=True)
class Truncation:
    n_max: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_max, int) or self.n_max < 1:
            raise ValueError(f"occupation cutoff must be a positive integer, got n_max={self.n_max}")


@dataclass(frozen=True)
class SolverSettings:
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
    start: float
    stop: float
    steps: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE:
            raise ValueError(
                f"sweep parameter must be one of {', '.join(SWEEPABLE)}, got '{self.parameter}'"
            )
        if not isinstance(self.steps, int) or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps}")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be 'linear' or 'log', got '{self.scale}'")
        if self.scale == "log" and (self.start <= 0 or self.stop <= 0):
            raise ValueError("log scale requires positive endpoints")

    def values(self) -> list[float]:
        if self.steps == 1:
            grid = [float(self.start)]
        elif self.scale == "linear":
            span = (self.stop - self.start) / (self.steps - 1)
            grid = [self.start + i * span for i in range(self.steps)]
        else:
            ratio = (self.stop / self.start) ** (1.0 / (self.steps - 1))
            grid = [self.start * ratio**i for i in range(self.steps)]
        if self.parameter in _INTEGER_PARAMETERS:
            rounded = [round(v) for v in grid]
            for v, r in zip(grid, rounded):
                if abs(v - r) > 1e-9:
                    raise ValueError(
                        f"sweep over {self.parameter} produced non-integer value {v}"
                    )
            return [float(r) for r in rounded]
        return grid


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    bath: BathSpec
    discretization: DiscretizationSpec
    truncation: Truncation
    solver: SolverSettings = SolverSettings()
    sweep: Sweep | None = None

    def with_value(self, parameter: str, value: float) -> "RunConfig":
        """Copy of this config with one sweepable parameter replaced."""
        if parameter == "alpha":
            return dataclasses.replace(self, bath=dataclasses.replace(self.bath, alpha=value))
        if parameter == "s":
            return dataclasses.replace(self, bath=dataclasses.replace(self.bath, s=value))
        if parameter == "delta":
            return dataclasses.replace(self, model=dataclasses.replace(self.model, delta=value))
        if parameter == "N":
            return dataclasses.replace(
                self, discretization=dataclasses.replace(self.discretization, N=int(value))
            )
        if parameter == "n_max":
            return dataclasses.replace(self, truncation=Truncation(n_max=int(value)))
        if parameter == "Lambda":
            return dataclasses.replace(
                self, discretization=dataclasses.replace(self.discretization, Lambda=value)
            )
        raise ValueError(f"sweep parameter must be one of {', '.join(SWEEPABLE)}, got '{parameter}'")

    def expand_sweep(self) -> list["RunConfig"]:
        """One config per sweep point, in sweep order; [self] when no sweep."""
        if self.sweep is None:
            return [self]
        return [self.with_value(self.sweep.parameter, v) for v in self.sweep.values()]


def _require_mapping(data, path: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    return data


def _reject_unknown(data: dict, allowed: tuple[str, ...], path: str) -> None:
    unknown = [k for k in data if k not in allowed]
    if unknown:
        where = path or "top level"
        raise ConfigError(
            f"unknown key '{unknown[0]}' in {where}; expected one of: {', '.join(allowed)}"
        )


def _number(data: dict, key: str, path: str, default=None):
    if key not in data:
        if default is not None:
            return default
        raise ConfigError(f"{path}.{key}: required field is missing")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    return float(value)


def _integer(data: dict, key: str, path: str, default=None):
    if key not in data:
        if default is not None:
            return default
        raise ConfigError(f"{path}.{key}: required field is missing")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


def _build(factory, path: str, **kwargs):
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed mapping and build the immutable run description."""
    _require_mapping(data, "top level")
    _reject_unknown(
        data, ("model", "bath", "discretization", "truncation", "solver", "sweep"), ""
    )
    for group in ("model", "bath", "discretization", "truncation"):
        if group not in data:
            raise ConfigError(f"{group}: required group is missing")

    model_data = _require_mapping(data["model"], "model")
    _reject_unknown(model_data, ("delta", "epsilon"), "model")
    model = _build(
        ModelParams,
        "model",
        delta=_number(model_data, "delta", "model"),
        epsilon=_number(model_data, "epsilon", "model", default=0.0),
    )

    disc_data = _require_mapping(data["discretization"], "discretization")
    _reject_unknown(disc_data, ("Lambda", "N", "convention"), "discretization")
    convention_name = disc_data.get("convention", "paper-quarter")
    try:
        convention = Convention(convention_name)
    except ValueError:
        raise ConfigError(
            f"discretization.convention: expected one of "
            f"{', '.join(sorted(c.value for c in Convention))}, got {convention_name!r}"
        ) from None
    discretization = _build(
        DiscretizationSpec,
        "discretization",
        Lambda=_number(disc_data, "Lambda", "discretization"),
        N=_integer(disc_data, "N", "discretization"),
        convention=convention,
    )

    bath_data = _require_mapping(data["bath"], "bath")
    _reject_unknown(bath_data, ("s", "alpha", "omega_c", "omega1"), "bath")
    omega_c = _number(bath_data, "omega_c", "bath")
    # default infrared cutoff: the lower edge of the retained grid
    omega1_default = omega_c * discretization.Lambda ** -(discretization.N + 1)
    bath = _build(
        BathSpec,
        "bath",
        s=_number(bath_data, "s", "bath"),
        alpha=_number(bath_data, "alpha", "bath"),
        omega_c=omega_c,
        omega1=_number(bath_data, "omega1", "bath", default=omega1_default),
    )

    trunc_data = _require_mapping(data["truncation"], "truncation")
    _reject_unknown(trunc_data, ("n_max",), "truncation")
    truncation = _build(
        Truncation, "truncation", n_max=_integer(trunc_data, "n_max", "truncation")
    )

    solver = SolverSettings()
    if "solver" in data:
        solver_data = _require_mapping(data["solver"], "solver")
        _reject_unknown(solver_data, ("tol", "max_iter"), "solver")
        solver = _build(
            SolverSettings,
            "solver",
            tol=_number(solver_data, "tol", "solver", default=solver.tol),
            max_iter=_integer(solver_data, "max_iter", "solver", default=solver.max_iter),
        )

    sweep = None
    if "sweep" in data:
        sweep_data = _require_mapping(data["sweep"], "sweep")
        _reject_unknown(sweep_data, ("parameter", "from", "to", "steps", "scale"), "sweep")
        parameter = sweep_data.get("parameter")
        if not isinstance(parameter, str):
            raise ConfigError(f"sweep.parameter: expected a string, got {parameter!r}")
        scale = sweep_data.get("scale", "linear")
        if not isinstance(scale, str):
            raise ConfigError(f"sweep.scale: expected a string, got {scale!r}")
        sweep = _build(
            Sweep,
            "sweep",
            parameter=parameter,
            start=_number(sweep_data, "from", "sweep"),
            stop=_number(sweep_data, "to", "sweep"),
            steps=_integer(sweep_data, "steps", "sweep"),
            scale=scale,
        )
        try:
            sweep.values()
        except ValueError as exc:
            raise ConfigError(f"sweep: {exc}") from exc

    return RunConfig(
        model=model,
        bath=bath,
        discretization=discretization,
        truncation=truncation,
        solver=solver,
        sweep=sweep,
    )


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
