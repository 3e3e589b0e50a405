"""Command-line surface: figure data, sweeps, invariant checks, proof reports.

Persistence contract: CSV bodies use 17-significant-digit floats, '.' as
the decimal separator, and '\\n' line endings, so re-running a command
with the same inputs reproduces the files byte for byte regardless of
worker count.  Timing never goes into a CSV body; it lives in the JSON
manifest written next to each output, alongside a sha256 per file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import __version__
from .bath import Convention, beta2, discretize, log_prefactor, sum_q_squared
from .config import RunConfig, load_config
from .errors import AccuracyError, CapacityError, ConfigError, SolverError
from .fockspace import enumerate_basis
from .nondegeneracy import constant_term_contradiction
from .oracle import (
    MIXED,
    assemble_full,
    dense_spectrum,
    ground_sigma_z,
    magnetization,
    parity_commutator_norm,
    parity_overlap,
    rotation_defects,
    sector_blocks,
    spectrum_parity,
)
from .sectors import GroundStateResult, solve_sectors

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_SOLVER = 4

def _fmt(value: float) -> str:
    return "%.17g" % value


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_bytes(path: str, text: str) -> str:
    data = text.encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
    return _sha256(data)


def _config_as_dict(cfg: RunConfig) -> dict:
    return {
        "model": {"delta": cfg.model.delta, "epsilon": cfg.model.epsilon},
        "bath": {
            "s": cfg.bath.s,
            "alpha": cfg.bath.alpha,
            "omega_c": cfg.bath.omega_c,
            "omega1": cfg.bath.omega1,
        },
        "discretization": {
            "Lambda": cfg.discretization.Lambda,
            "N": cfg.discretization.N,
            "convention": cfg.discretization.convention.value,
        },
        "truncation": {"n_max": cfg.truncation.n_max},
        "solver": {"tol": cfg.solver.tol, "max_iter": cfg.solver.max_iter},
        "sweep": None
        if cfg.sweep is None
        else {
            "parameter": cfg.sweep.parameter,
            "from": cfg.sweep.start,
            "to": cfg.sweep.stop,
            "steps": cfg.sweep.steps,
            "scale": cfg.sweep.scale,
        },
    }


def _write_manifest(out_dir: str, name: str, payload: dict) -> str:
    path = os.path.join(out_dir, name)
    text = json.dumps(payload, indent=1, sort_keys=False) + "\n"
    _write_bytes(path, text)
    return path


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config)
    override = getattr(args, "convention", None)
    if override is not None:
        cfg = dataclasses.replace(
            cfg,
            discretization=dataclasses.replace(
                cfg.discretization, convention=Convention(override)
            ),
        )
    return cfg


# ------------------------------------------------------------------- fig1

_PLOT_SCRIPT = '''"""Plot the tail-sum divergence data produced alongside this script."""

import csv
import os
import sys

import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(here, "fig1_data.csv"), newline="") as handle:
    rows = list(csv.reader(handle))

header, body = rows[0], rows[1:]
N = [int(r[0]) for r in body]
plt.figure(figsize=(6, 4))
for col, label in enumerate(header[1:], start=1):
    plt.semilogy(N, [float(r[col]) for r in body], marker=".", label=label)
plt.xlabel("number of retained modes N")
plt.ylabel("tail sum beta2")
plt.legend()
plt.tight_layout()
target = sys.argv[1] if len(sys.argv) > 1 else os.path.join(here, "fig1.png")
plt.savefig(target, dpi=150)
print("wrote", target)
'''


def _svg_line_plot(columns: dict[str, list[float]], n_values: list[int]) -> str:
    """Minimal standalone SVG: one log-scaled polyline per column."""
    width, height, margin = 640, 480, 60
    x_lo, x_hi = float(n_values[0]), float(max(n_values[-1], n_values[0] + 1))
    all_logs = [math.log10(v) for vals in columns.values() for v in vals]
    y_lo, y_hi = min(all_logs), max(all_logs)
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - margin // 4}" text-anchor="middle" '
        f'font-size="14">N</text>',
        f'<text x="{margin // 4}" y="{height // 2}" font-size="14" '
        f'transform="rotate(-90 {margin // 4} {height // 2})" '
        f'text-anchor="middle">log10 beta2</text>',
    ]
    for i, (label, vals) in enumerate(columns.items()):
        color = colors[i % len(colors)]
        points = " ".join(
            f"{sx(float(n)):.2f},{sy(math.log10(v)):.2f}" for n, v in zip(n_values, vals)
        )
        parts.append(f'<polyline fill="none" stroke="{color}" points="{points}"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * (i + 1)}" '
            f'font-size="12" fill="{color}" text-anchor="start">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_fig1(args) -> int:
    started = time.perf_counter()
    if args.N_max < 0:
        raise ConfigError(f"--N-max must be >= 0, got {args.N_max}")
    if args.Lambda <= 1:
        raise ConfigError(f"--Lambda must exceed 1, got {args.Lambda}")
    s_list = args.s if args.s else [0.1, 1.0]
    n_values = list(range(args.N_max + 1))
    columns = {
        f"beta2_s{s}": [beta2(s, args.Lambda, N) for N in n_values] for s in s_list
    }
    header = "N," + ",".join(columns)
    lines = [header]
    for row_index, N in enumerate(n_values):
        cells = [str(N)] + [_fmt(vals[row_index]) for vals in columns.values()]
        lines.append(",".join(cells))
    body = "\n".join(lines) + "\n"

    os.makedirs(args.out, exist_ok=True)
    files = {}
    data_path = os.path.join(args.out, "fig1_data.csv")
    files["fig1_data.csv"] = _write_bytes(data_path, body)
    files["fig1_plot.py"] = _write_bytes(os.path.join(args.out, "fig1_plot.py"), _PLOT_SCRIPT)
    if args.svg:
        files["fig1.svg"] = _write_bytes(
            os.path.join(args.out, "fig1.svg"), _svg_line_plot(columns, n_values)
        )
    _write_manifest(
        args.out,
        "fig1_manifest.json",
        {
            "command": "fig1",
            "tool": {"name": "sbmlab", "version": __version__},
            "parameters": {
                "Lambda": args.Lambda,
                "omega_c": args.omega_c,
                "s_list": s_list,
                "N_max": args.N_max,
            },
            "files": files,
            "wall_time_seconds": time.perf_counter() - started,
        },
    )
    print(f"wrote {data_path} ({len(n_values)} rows, {len(s_list)} series)")
    return EXIT_OK


# -------------------------------------------------------------- gap-sweep


@dataclass(frozen=True)
class ResultRow:
    """One sweep point, self-describing: inputs echoed next to outputs.

    wall_time and solvers (per sector: iterations, residual) are
    carried here for the manifest but never enter the CSV body, which must
    be byte-reproducible.
    """

    index: int
    delta: float
    epsilon: float
    s: float
    alpha: float
    omega_c: float
    omega1: float
    Lambda: float
    N: int
    convention: str
    n_max: int
    tol: float
    max_iter: int
    E_plus0: float
    E_minus0: float
    gap: float
    prefactor: float
    sum_q_squared: float
    ground_parity: int
    residual_plus: float
    residual_minus: float
    status: str
    wall_time: float
    solvers: dict

    def cells(self) -> list[str]:
        out = []
        for name in _ROW_FIELDS:
            value = getattr(self, name)
            if isinstance(value, float):
                out.append(_fmt(value))
            else:
                out.append(str(value))
        return out

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _ROW_FIELDS}


# the CSV columns: every field except the two the manifest carries
_ROW_FIELDS = tuple(
    field.name
    for field in dataclasses.fields(ResultRow)
    if field.name not in ("wall_time", "solvers")
)


def _solver_record(result: GroundStateResult) -> dict:
    return {
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": True,
    }


# result cells of a sweep point that has no solution
_NO_SOLUTION = dict(
    E_plus0=math.nan,
    E_minus0=math.nan,
    gap=math.nan,
    ground_parity=0,
    residual_plus=math.nan,
    residual_minus=math.nan,
)


def sweep_point(task: tuple[int, RunConfig]) -> ResultRow:
    """Solve both sectors for one config; pure and order-independent."""
    index, cfg = task
    started = time.perf_counter()
    bath = discretize(cfg.bath, cfg.discretization)
    enumeration = enumerate_basis(bath.mode_count, cfg.truncation.n_max)
    echo = dict(
        index=index,
        delta=cfg.model.delta,
        epsilon=cfg.model.epsilon,
        s=cfg.bath.s,
        alpha=cfg.bath.alpha,
        omega_c=cfg.bath.omega_c,
        omega1=cfg.bath.omega1,
        Lambda=cfg.discretization.Lambda,
        N=cfg.discretization.N,
        convention=cfg.discretization.convention.value,
        n_max=cfg.truncation.n_max,
        tol=cfg.solver.tol,
        max_iter=cfg.solver.max_iter,
        # a float cell in every row (0 once the factor underflows the
        # double); solve_sectors refuses a point whose double is not normal
        prefactor=math.exp(log_prefactor(bath)),
        sum_q_squared=sum_q_squared(bath),
    )
    try:
        even, odd = solve_sectors(
            bath, cfg.model, enumeration, cfg.solver.tol, cfg.solver.max_iter
        )
        gap = odd.energy - even.energy
        parity = 1 if gap > 0 else (-1 if gap < 0 else 0)
        return ResultRow(
            **echo,
            E_plus0=even.energy,
            E_minus0=odd.energy,
            gap=gap,
            ground_parity=parity,
            residual_plus=even.residual,
            residual_minus=odd.residual,
            status="ok",
            wall_time=time.perf_counter() - started,
            solvers={"even": _solver_record(even), "odd": _solver_record(odd)},
        )
    except SolverError as exc:
        diagnostics = dict(exc.diagnostics)
        sector = diagnostics.pop("sector", "unknown")
        return ResultRow(
            **echo,
            **_NO_SOLUTION,
            status=f"solver-error: {exc}",
            wall_time=time.perf_counter() - started,
            solvers={sector: {**diagnostics, "converged": False}},
        )
    except AccuracyError as exc:
        return ResultRow(
            **echo,
            **_NO_SOLUTION,
            status=f"accuracy-error: {exc}",
            wall_time=time.perf_counter() - started,
            solvers={},
        )


def _run_sweep(configs: list[RunConfig], workers: int) -> list[ResultRow]:
    tasks = list(enumerate(configs))
    if workers <= 1 or len(tasks) <= 1:
        return [sweep_point(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(sweep_point, tasks))


def cmd_gap_sweep(args) -> int:
    started = time.perf_counter()
    cfg = _load_run_config(args)
    if cfg.model.epsilon != 0.0:
        raise ConfigError(
            "gap-sweep solves the two parity sectors, which requires epsilon = 0; "
            f"got model.epsilon = {cfg.model.epsilon}"
        )
    rows = _run_sweep(cfg.expand_sweep(), args.workers)

    os.makedirs(args.out, exist_ok=True)
    files = {}
    if args.format == "csv":
        lines = [",".join(_ROW_FIELDS)]
        lines.extend(",".join(row.cells()) for row in rows)
        body = "\n".join(lines) + "\n"
        name = "gap_sweep.csv"
        row_checksums = [_sha256(",".join(row.cells()).encode("utf-8")) for row in rows]
    else:
        payload = [row.as_dict() for row in rows]
        body = json.dumps(payload, indent=1, sort_keys=False) + "\n"
        name = "gap_sweep.json"
        row_checksums = [
            _sha256(json.dumps(row.as_dict(), sort_keys=False).encode("utf-8"))
            for row in rows
        ]
    files[name] = _write_bytes(os.path.join(args.out, name), body)
    _write_manifest(
        args.out,
        "gap_sweep_manifest.json",
        {
            "command": "gap-sweep",
            "tool": {"name": "sbmlab", "version": __version__},
            "config": _config_as_dict(cfg),
            "workers": args.workers,
            "files": files,
            "row_checksums": row_checksums,
            "row_wall_times": [row.wall_time for row in rows],
            "row_solvers": [row.solvers for row in rows],
            "wall_time_seconds": time.perf_counter() - started,
        },
    )
    failures = [row.status for row in rows if row.status != "ok"]
    print(f"wrote {os.path.join(args.out, name)} ({len(rows)} rows, {len(failures)} failed)")
    if any(status.startswith("solver-error") for status in failures):
        return EXIT_SOLVER
    return EXIT_INVARIANT if failures else EXIT_OK


# ------------------------------------------------------------ oracle-check


def cmd_oracle_check(args) -> int:
    cfg = _load_run_config(args)
    bath = discretize(cfg.bath, cfg.discretization)
    enumeration = enumerate_basis(bath.mode_count, cfg.truncation.n_max)
    model = assemble_full(cfg.model, bath, enumeration)
    eps = cfg.model.epsilon

    lines: list[str] = []
    checks: list[bool] = []

    def record(name: str, value, ok: bool) -> None:
        lines.append(f"{name}: {value}")
        checks.append(ok)

    commutator = parity_commutator_norm(model)
    broken = eps != 0.0
    lines.append(f"epsilon: {_fmt(eps)}")
    lines.append(f"parity broken: {'yes' if broken else 'no'}")
    if broken:
        record(
            "commutator norm vs |epsilon|",
            _fmt(abs(commutator - abs(eps))),
            abs(commutator - abs(eps)) < 1e-10,
        )
    else:
        record("commutator norm", _fmt(commutator), commutator < 1e-12)

    unitarity, parity_defect = rotation_defects(enumeration)
    record("rotation unitarity defect", _fmt(unitarity), unitarity < 1e-14)
    record("rotated parity vs sigma_z block form", _fmt(parity_defect), parity_defect < 1e-14)

    if not broken:
        even_block, odd_block, off_norm = sector_blocks(model)
        record("off-diagonal block norm", _fmt(off_norm), off_norm < 1e-12)
    # one eigendecomposition serves the partition check and the parity label
    dense_vals, dense_vecs = dense_spectrum(model)
    if not broken:
        union = np.sort(
            np.concatenate([np.linalg.eigvalsh(even_block), np.linalg.eigvalsh(odd_block)])
        )
        partition = float(np.abs(dense_vals - union).max())
        record("spectrum partition max deviation", _fmt(partition), partition < 1e-9)

    label = spectrum_parity(model, dense_vals, dense_vecs)
    lines.append(f"ground parity: {'mixed' if label == MIXED else ('+1' if label > 0 else '-1')}")
    if not broken:
        checks.append(label != MIXED)
        if label == MIXED:
            lines.append("ground parity check: failed (mixed at epsilon = 0)")

    passed = all(checks)
    lines.append(f"result: {'pass' if passed else 'fail'}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        checksum = _write_bytes(os.path.join(args.out, "oracle_check.txt"), report)
        _write_manifest(
            args.out,
            "oracle_check_manifest.json",
            {
                "command": "oracle-check",
                "tool": {"name": "sbmlab", "version": __version__},
                "config": _config_as_dict(cfg),
                "files": {"oracle_check.txt": checksum},
                "passed": passed,
            },
        )
    return EXIT_OK if passed else EXIT_INVARIANT


# --------------------------------------------------------- verify-appendix


def cmd_verify_appendix(args) -> int:
    # every report first, so a size refused with CapacityError leaves no directory
    reports = [constant_term_contradiction(N, n_max) for N, n_max in product(args.N, args.n_max)]
    os.makedirs(args.out, exist_ok=True)
    files = {}
    all_hold = True
    for report in reports:
        N, n_max = report.N, report.n_max
        all_hold = all_hold and report.holds
        stem = f"appendix_N{N}_nmax{n_max}"
        files[f"{stem}.txt"] = _write_bytes(
            os.path.join(args.out, f"{stem}.txt"), report.to_text() + "\n"
        )
        files[f"{stem}.json"] = _write_bytes(
            os.path.join(args.out, f"{stem}.json"),
            json.dumps(report.to_json_dict(), indent=1) + "\n",
        )
        verdict = "holds" if report.holds else "FAILS"
        print(
            f"N={N} n_max={n_max}: {verdict} "
            f"(monomials={report.monomial_count}, witness 2 != 0)"
        )
    _write_manifest(
        args.out,
        "verify_appendix_manifest.json",
        {
            "command": "verify-appendix",
            "tool": {"name": "sbmlab", "version": __version__},
            "parameters": {"N": args.N, "n_max": args.n_max},
            "files": files,
            "all_hold": all_hold,
        },
    )
    return EXIT_OK if all_hold else EXIT_INVARIANT


# ------------------------------------------------------ magnetization-scan


def cmd_magnetization_scan(args) -> int:
    started = time.perf_counter()
    for flag, steps in (("--theta-steps", args.theta_steps), ("--epsilon-steps", args.epsilon_steps)):
        if steps is not None and steps < 2:
            raise ConfigError(f"{flag} must be >= 2, got {steps}")
    if not (math.isfinite(args.epsilon_max) and args.epsilon_max > 0.0):
        raise ConfigError(f"--epsilon-max must be finite and > 0, got {args.epsilon_max}")
    cfg = _load_run_config(args)
    bath = discretize(cfg.bath, cfg.discretization)
    enumeration = enumerate_basis(bath.mode_count, cfg.truncation.n_max)

    if args.epsilon_steps is None:
        # theta mode: mixing-angle scan of the epsilon = 0 sector solution
        if cfg.model.epsilon != 0.0:
            raise ConfigError(
                "theta mode requires epsilon = 0; use --epsilon-steps to scan epsilon"
            )
        even, odd = solve_sectors(
            bath, cfg.model, enumeration, cfg.solver.tol, cfg.solver.max_iter
        )
        overlap = parity_overlap(even, odd)
        thetas = np.linspace(0.0, math.pi, args.theta_steps)
        lines = ["theta,magnetization"]
        lines.extend(
            f"{_fmt(theta)},{_fmt(magnetization(theta, even, odd))}" for theta in thetas
        )
        name = "magnetization_theta.csv"
        extra = {"mode": "theta", "overlap": overlap}
    else:
        grid = np.linspace(-args.epsilon_max, args.epsilon_max, args.epsilon_steps)
        lines = ["epsilon,sigma_z"]
        for eps in grid:
            model = assemble_full(
                dataclasses.replace(cfg.model, epsilon=float(eps)), bath, enumeration
            )
            lines.append(f"{_fmt(float(eps))},{_fmt(ground_sigma_z(model))}")
        name = "magnetization_epsilon.csv"
        extra = {"mode": "epsilon", "epsilon_max": args.epsilon_max}

    body = "\n".join(lines) + "\n"
    os.makedirs(args.out, exist_ok=True)
    checksum = _write_bytes(os.path.join(args.out, name), body)
    _write_manifest(
        args.out,
        "magnetization_manifest.json",
        {
            "command": "magnetization-scan",
            "tool": {"name": "sbmlab", "version": __version__},
            "config": _config_as_dict(cfg),
            "files": {name: checksum},
            "wall_time_seconds": time.perf_counter() - started,
            **extra,
        },
    )
    print(f"wrote {os.path.join(args.out, name)} ({len(lines) - 1} rows)")
    return EXIT_OK


# --------------------------------------------------------------- discretize


def cmd_discretize(args) -> int:
    cfg = _load_run_config(args)
    bath = discretize(cfg.bath, cfg.discretization)
    lines = ["k,omega,lam,q"]
    lines.extend(
        f"{k},{_fmt(w)},{_fmt(l)},{_fmt(q)}"
        for k, (w, l, q) in enumerate(zip(bath.omega, bath.lam, bath.q))
    )
    body = "\n".join(lines) + "\n"
    os.makedirs(args.out, exist_ok=True)
    checksum = _write_bytes(os.path.join(args.out, "modes.csv"), body)
    _write_manifest(
        args.out,
        "discretize_manifest.json",
        {
            "command": "discretize",
            "tool": {"name": "sbmlab", "version": __version__},
            "config": _config_as_dict(cfg),
            "files": {"modes.csv": checksum},
            "sum_q_squared": sum_q_squared(bath),
            "prefactor": math.exp(log_prefactor(bath)),
        },
    )
    print(f"wrote {os.path.join(args.out, 'modes.csv')} ({bath.mode_count} modes)")
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _add_out(parser, default="."):
    parser.add_argument("--out", default=default, help="output directory")


def _add_config(parser):
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument(
        "--convention",
        choices=sorted(c.value for c in Convention),
        default=None,
        help="override the discretization convention from the config",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbmlab",
        description="Parity-sector laboratory for the unbiased spin-boson model",
    )
    parser.add_argument("--version", action="version", version=f"sbmlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="tail-sum divergence data over mode count")
    p.add_argument("--Lambda", type=float, default=2.0)
    p.add_argument("--omega-c", dest="omega_c", type=float, default=1.0)
    p.add_argument(
        "--s", type=float, action="append", default=None, help="spectral exponent (repeatable)"
    )
    p.add_argument("--N-max", dest="N_max", type=int, default=40)
    p.add_argument("--svg", action="store_true", help="also write a minimal SVG plot")
    _add_out(p)
    p.set_defaults(handler=cmd_fig1)

    p = sub.add_parser("gap-sweep", help="sector ground energies over a parameter sweep")
    _add_config(p)
    _add_out(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_gap_sweep)

    p = sub.add_parser("oracle-check", help="run the dense-matrix invariant suite")
    _add_config(p)
    p.add_argument("--out", default=None, help="also save the report here")
    p.set_defaults(handler=cmd_oracle_check)

    p = sub.add_parser("verify-appendix", help="mechanized no-degeneracy proof reports")
    p.add_argument("--N", type=int, nargs="+", required=True, help="mode counts")
    p.add_argument("--n-max", dest="n_max", type=int, nargs="+", required=True)
    _add_out(p)
    p.set_defaults(handler=cmd_verify_appendix)

    p = sub.add_parser("magnetization-scan", help="mixing-angle or bias scan of <sigma_z>")
    _add_config(p)
    _add_out(p)
    p.add_argument("--theta-steps", dest="theta_steps", type=int, default=9)
    p.add_argument("--epsilon-steps", dest="epsilon_steps", type=int, default=None)
    p.add_argument("--epsilon-max", dest="epsilon_max", type=float, default=1.0)
    p.set_defaults(handler=cmd_magnetization_scan)

    p = sub.add_parser("discretize", help="dump the discretized mode table")
    _add_config(p)
    _add_out(p)
    p.set_defaults(handler=cmd_discretize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except AccuracyError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
