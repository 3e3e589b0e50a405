"""The sbmlab commands each benchmark workload runs, generated from a seed.

Seed 0 reproduces the named inputs exactly.  Any other seed scales every
alpha and s value (sweep endpoints included) by its own factor drawn
uniformly from [1 - JITTER, 1 + JITTER]; mode counts, truncations, Delta,
Lambda and the proof sizes stay fixed, so the amount of work per pass
stays about the same.  sbmlab sees only the generated YAML files and CLI
arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import yaml

WORKLOADS = ("dense-sweep", "iterative-sweep", "checks")

# seconds one pass of each workload takes at the commit reference.json was
# made from, on a shared 2-vCPU Xeon VM with one BLAS thread
PASS_SECONDS = {"dense-sweep": 1.6, "iterative-sweep": 20.0, "checks": 13.0}

MIN_PASSES = 2

# 5% moved Lanczos iteration counts at alpha 0.32 by up to a third
JITTER = 0.01

SOLVER = {"tol": 1.0e-10, "max_iter": 500}


def passes(workload: str, seconds: float) -> int:
    """Passes a run of workload makes: about `seconds` of work at the reference commit.

    The count depends on nothing measured, so every run of a workload with
    the same --seconds attempts the same operations.
    """
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


@dataclass(frozen=True)
class Command:
    """One `sbmlab` invocation and what the correctness gate needs to judge it.

    kind is "sweep", "oracle", "magnetization" or "proof".  For a sweep,
    grid holds the swept parameter and its expected values and tol the
    residual tolerance; for a magnetization scan, grid holds the number of
    bias points.
    """

    name: str
    kind: str
    argv: tuple[str, ...]
    out: Path
    grid: tuple = ()
    tol: float = SOLVER["tol"]


def _linear(start: float, stop: float, steps: int) -> list[float]:
    span = (stop - start) / (steps - 1)
    return [start + i * span for i in range(steps)]


def _model(s: float, alpha: float, N: int, n_max: int, sweep: dict | None = None) -> dict:
    config = {
        "model": {"delta": 0.5},
        "bath": {"s": s, "alpha": alpha, "omega_c": 1.0},
        "discretization": {"Lambda": 2.0, "N": N, "convention": "paper-quarter"},
        "truncation": {"n_max": n_max},
        "solver": dict(SOLVER),
    }
    if sweep is not None:
        config["sweep"] = sweep
    return config


class _Builder:
    def __init__(self, seed: int, work: Path):
        self.work = work
        self._rng = random.Random(seed)
        self._seed = seed
        self.commands: list[Command] = []
        (work / "inputs").mkdir(parents=True, exist_ok=True)

    def jitter(self, value: float) -> float:
        if self._seed == 0:
            return value
        return value * self._rng.uniform(1.0 - JITTER, 1.0 + JITTER)

    def _write(self, name: str, config: dict) -> str:
        path = self.work / "inputs" / f"{name}.yaml"
        path.write_text(yaml.safe_dump(config, sort_keys=False))
        return str(path)

    def sweep(self, name: str, config: dict) -> None:
        sweep = config["sweep"]
        values = _linear(float(sweep["from"]), float(sweep["to"]), int(sweep["steps"]))
        out = self.work / "out" / name
        argv = ("gap-sweep", "--config", self._write(name, config), "--out", str(out),
                "--workers", "1", "--format", "csv")
        tol = float(config.get("solver", {}).get("tol", SOLVER["tol"]))
        self.commands.append(
            Command(name, "sweep", argv, out, (sweep["parameter"], tuple(values)), tol)
        )

    def oracle(self, name: str, config: dict) -> None:
        out = self.work / "out" / name
        argv = ("oracle-check", "--config", self._write(name, config), "--out", str(out))
        self.commands.append(Command(name, "oracle", argv, out))

    def magnetization(self, name: str, config: dict, steps: int) -> None:
        out = self.work / "out" / name
        argv = ("magnetization-scan", "--config", self._write(name, config), "--out", str(out),
                "--epsilon-steps", str(steps))
        self.commands.append(Command(name, "magnetization", argv, out, (steps,)))

    def proof(self, N: int, n_max: int) -> None:
        name = f"proof_N{N}_nmax{n_max}"
        out = self.work / "out" / name
        argv = ("verify-appendix", "--N", str(N), "--n-max", str(n_max), "--out", str(out))
        self.commands.append(Command(name, "proof", argv, out, (N, n_max)))


def build(workload: str, seed: int, root: Path, work: Path) -> list[Command]:
    """Write the workload's input files under work and return its commands in run order."""
    b = _Builder(seed, work)
    if workload == "dense-sweep":
        # the shipped example: 6 modes, n_max = 5 (dim 462), 11 alpha points
        shipped = yaml.safe_load((root / "scripts" / "configs" / "alpha_scan.yaml").read_text())
        shipped["bath"]["s"] = b.jitter(shipped["bath"]["s"])
        shipped["sweep"]["from"] = b.jitter(shipped["sweep"]["from"])
        shipped["sweep"]["to"] = b.jitter(shipped["sweep"]["to"])
        b.sweep("alpha_scan", shipped)
        # the paper's gap-vs-modes regime: 1 to 13 modes at n_max = 3 (dim 4 to 560)
        b.sweep("gap_vs_modes", _model(
            b.jitter(0.1), b.jitter(0.3), 0, 3,
            {"parameter": "N", "from": 0, "to": 12, "steps": 13},
        ))
    elif workload == "iterative-sweep":
        # 8 modes, n_max = 6 (dim 3003); alpha = 0.02 is the weak-coupling case
        b.sweep("alpha_sweep", _model(
            b.jitter(0.5), 0.2, 7, 6,
            {"parameter": "alpha", "from": b.jitter(0.02), "to": b.jitter(0.32), "steps": 3},
        ))
        # 9 to 13 modes at n_max = 4 (dim 715 to 2380)
        b.sweep("mode_sweep", _model(
            b.jitter(0.5), b.jitter(0.2), 8, 4,
            {"parameter": "N", "from": 8, "to": 12, "steps": 5},
        ))
    elif workload == "checks":
        # 6 modes, n_max = 6: Fock dim 924, dense H of 1848^2
        b.oracle("oracle_check", _model(b.jitter(0.1), b.jitter(0.25), 5, 6))
        # 6 modes, n_max = 5: 11 dense H of 924^2
        b.magnetization("magnetization_scan", _model(b.jitter(0.1), b.jitter(0.25), 5, 5), 11)
        # 792 and 1820 monomials
        b.proof(5, 7)
        b.proof(4, 12)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return b.commands
