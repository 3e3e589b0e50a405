"""Correctness gate: judges every operation of a pass from the files sbmlab wrote.

An operation is one sweep point, one oracle-check or magnetization-scan
command, or one proof report.  A sweep point (epsilon = 0, Delta > 0)
passes only when its status is ok, both residuals are within tol, its
ground parity is +1 with a positive gap (the non-degeneracy theorem) that
is not within rounding of its two energies, and,
at seed 0, both energies are within ENERGY_TOL of the pinned dense
reference.  An oracle check must report `result: pass`; a magnetization
scan must be finite, bounded and odd in epsilon; a proof report must say
it holds and keep the pinned sha256 of both of its files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from workloads import Command

ENERGY_TOL = 1e-9

UNRESOLVED_GAP = 1e-12

REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Outcome:
    op: str
    ok: bool
    reason: str = ""


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def judge(command: Command, exit_code: int | None, seed: int, reference: dict) -> list[Outcome]:
    """One Outcome per operation of command; exit_code is None when sbmlab raised."""
    try:
        if command.kind == "sweep":
            return _sweep(command, exit_code, seed, reference)
        if exit_code != 0:
            reason = f"exit code {exit_code}"
        elif command.kind == "oracle":
            reason = _oracle(command)
        elif command.kind == "magnetization":
            reason = _magnetization(command)
        else:
            reason = _proof(command, reference["proof_sha256"])
        return [Outcome(command.name, not reason, reason)]
    except (KeyError, ValueError) as exc:
        reason = f"unreadable output: {exc!r}"
        if command.kind != "sweep":
            return [Outcome(command.name, False, reason)]
        rows = range(len(command.grid[1]))
        return [Outcome(f"{command.name}[{i}]", False, reason) for i in rows]


def _sweep(command: Command, exit_code, seed: int, reference: dict) -> list[Outcome]:
    parameter, values = command.grid
    path = command.out / "gap_sweep.csv"
    rows = []
    if path.is_file():
        with path.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
    pinned = reference["energies"].get(command.name) if seed == 0 else None
    outcomes = []
    for index, expected in enumerate(values):
        op = f"{command.name}[{index}]"
        if index >= len(rows):
            outcomes.append(Outcome(op, False, f"no CSV row (exit code {exit_code})"))
            continue
        reason = _row_reason(rows[index], index, parameter, expected, command.tol)
        if not reason and pinned is not None:
            reason = _energy_reason(rows[index], pinned[index])
        outcomes.append(Outcome(op, not reason, reason))
    return outcomes


def _row_reason(row: dict, index: int, parameter: str, expected: float, tol: float) -> str:
    if row["index"] != str(index) or not math.isclose(
        float(row[parameter]), expected, rel_tol=1e-12, abs_tol=1e-12
    ):
        return f"row {row['index']} echoes {parameter}={row[parameter]}, expected {expected!r}"
    if row["status"] != "ok":
        return f"status {row['status']!r}"
    for side in ("residual_plus", "residual_minus"):
        if not float(row[side]) <= tol:
            return f"{side} {row[side]} above tol {tol}"
    if row["ground_parity"] != "1" or not float(row["gap"]) > 0.0:
        return f"ground_parity {row['ground_parity']}, gap {row['gap']} (need +1 and gap > 0)"
    # a gap taken as E- - E+ below 1e-12 of the energies' size lies inside the
    # rounding error of a double-precision eigensolve at these dims (n eps
    # |H|), so its sign is noise; a gap computed some other way is judged
    # by its sign alone
    gap = float(row["gap"])
    e_plus, e_minus = float(row["E_plus0"]), float(row["E_minus0"])
    if gap == e_minus - e_plus and not gap > UNRESOLVED_GAP * max(abs(e_plus), abs(e_minus)):
        return f"gap {row['gap']} = E_minus0 - E_plus0 is within rounding of the energies"
    return ""


def _energy_reason(row: dict, pinned: list[float]) -> str:
    for column, want in zip(("E_plus0", "E_minus0"), pinned):
        if not abs(float(row[column]) - want) <= ENERGY_TOL:
            return f"{column} {row[column]} is more than {ENERGY_TOL} from reference {want!r}"
    return ""


def _oracle(command: Command) -> str:
    path = command.out / "oracle_check.txt"
    if not path.is_file():
        return "no oracle_check.txt"
    if "result: pass" not in path.read_text().splitlines():
        return "oracle-check does not report 'result: pass'"
    return ""


def _magnetization(command: Command) -> str:
    path = command.out / "magnetization_epsilon.csv"
    if not path.is_file():
        return "no magnetization_epsilon.csv"
    with path.open(newline="") as handle:
        rows = [(float(r["epsilon"]), float(r["sigma_z"])) for r in csv.DictReader(handle)]
    (steps,) = command.grid
    if len(rows) != steps:
        return f"{len(rows)} bias points, expected {steps}"
    if not all(math.isfinite(m) and abs(m) <= 1.0 + 1e-12 for _, m in rows):
        return "sigma_z not finite or outside [-1, 1]"
    # the grid is symmetric about epsilon = 0 and parity maps epsilon -> -epsilon
    for (eps, m), (eps_mirror, m_mirror) in zip(rows, reversed(rows)):
        if abs(eps + eps_mirror) > 1e-12 or abs(m + m_mirror) > 1e-8:
            return f"sigma_z not odd in epsilon at epsilon={eps!r}: {m!r} vs {m_mirror!r}"
    return ""


def _proof(command: Command, pinned: dict[str, str]) -> str:
    N, n_max = command.grid
    paths = [command.out / f"appendix_N{N}_nmax{n_max}{suffix}" for suffix in (".txt", ".json")]
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        return f"no {', '.join(missing)}"
    if json.loads(paths[1].read_text()).get("holds") is not True:
        return "proof report does not hold"
    for path in paths:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest != pinned[path.name]:
            return f"{path.name} sha256 {digest} differs from the pinned report"
    return ""
