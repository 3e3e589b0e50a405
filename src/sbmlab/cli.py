"""Command-line surface: figure data, sweeps, invariant checks, proof reports.

Persistence contract: `_csv` renders every CSV body, with floats at 17
significant digits, '.' as the decimal separator, other cells through
`str`, and '\\n' line endings, so re-running a command with the same
inputs reproduces the files byte for byte regardless of worker count.
`_publish` is the one writer: it puts a command's files in its output
directory next to a JSON manifest that names the command, the tool
version and a sha256 per file.  Timing never goes into a CSV body; it
lives in the manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from itertools import product

import numpy as np

from . import __version__
from .bath import beta2, discretize, log_prefactor, sum_q_squared
from .config import RunConfig, check_grid_points, config_as_dict, load_config
from .errors import AccuracyError, CapacityError, ConfigError, SolverError
from .fockspace import enumerate_basis
from .nondegeneracy import constant_term_contradiction
from .sectors import GAP_FLOOR, gap_identity, solve_sectors

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_SOLVER = 4

def _fmt(value: float) -> str:
    return "%.17g" % value


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _csv(header, rows) -> str:
    """One CSV body: floats through _fmt, every other cell through str."""
    return "".join(
        ",".join(_fmt(cell) if isinstance(cell, float) else str(cell) for cell in line) + "\n"
        for line in [header, *rows]
    )


def _publish(out: str, manifest_name: str, command: str, context: dict, outputs: dict, **fields):
    """Write each of outputs (file name -> text) into out, then the manifest.

    The manifest is {"command", "tool", **context, "files", **fields},
    where files maps each file name to the sha256 of its bytes.
    """
    os.makedirs(out, exist_ok=True)
    files = {}
    for name, text in outputs.items():
        data = text.encode("utf-8")
        with open(os.path.join(out, name), "wb") as handle:
            handle.write(data)
        files[name] = _sha256(data)
    manifest = {
        "command": command,
        "tool": {"name": "sbmlab", "version": __version__},
        **context,
        "files": files,
        **fields,
    }
    with open(os.path.join(out, manifest_name), "wb") as handle:
        handle.write((json.dumps(manifest, indent=1) + "\n").encode("utf-8"))


def _require_distinct(flag: str, values: list) -> None:
    """A list flag names each value once: every value is one output series or file set."""
    if len(set(values)) < len(values):
        raise ConfigError(f"{flag} repeats a value, got {values}")


# ------------------------------------------------------------------- fig1


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


def _beta2_column(s: float, Lambda: float, n_values: list[int]) -> list[float]:
    """beta2 over n_values; ConfigError at the first N where it leaves the double range.

    For s < 1 beta2 grows geometrically in N, so every N below that one is finite.
    """
    column = []
    for N in n_values:
        try:
            value = beta2(s, Lambda, N)
        except OverflowError:  # math.expm1 past exp(709.78)
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(
                f"beta2 at s={s}, Lambda={Lambda} overflows a double at N={N}; "
                f"the largest --N-max with a finite beta2 is {N - 1}"
            )
        column.append(value)
    return column


def cmd_fig1(args) -> int:
    started = time.perf_counter()
    if args.N_max < 0:
        raise ConfigError(f"--N-max must be >= 0, got {args.N_max}")
    check_grid_points("--N-max", args.N_max)
    if not (math.isfinite(args.Lambda) and args.Lambda > 1):
        raise ConfigError(f"--Lambda must be finite and exceed 1, got {args.Lambda}")
    s_list = args.s if args.s else [0.1, 1.0]
    if not all(math.isfinite(s) and s > 0 for s in s_list):
        raise ConfigError(f"--s must be finite and > 0, got {s_list}")
    _require_distinct("--s", s_list)
    n_values = list(range(args.N_max + 1))
    columns = {f"beta2_s{s}": _beta2_column(s, args.Lambda, n_values) for s in s_list}
    body = _csv(["N", *columns], zip(n_values, *columns.values()))
    _publish(
        args.out,
        "fig1_manifest.json",
        "fig1",
        {"parameters": {"Lambda": args.Lambda, "s_list": s_list, "N_max": args.N_max}},
        {"fig1_data.csv": body, "fig1.svg": _svg_line_plot(columns, n_values)},
        wall_time_seconds=time.perf_counter() - started,
    )
    data_path = os.path.join(args.out, "fig1_data.csv")
    print(f"wrote {data_path} ({len(n_values)} rows, {len(s_list)} series)")
    return EXIT_OK


# -------------------------------------------------------------- gap-sweep


def sweep_point(task: tuple[int, RunConfig]) -> tuple[dict, dict]:
    """Solve both sectors for one config; pure and order-independent.

    Returns the row's cells in column order (the index, the config echo of
    every group but the sweep, the results) and its manifest record
    (wall_time, the solvers per sector and the identity gap, None unless
    both solves converged), which never enters the CSV body.
    """
    index, cfg = task
    started = time.perf_counter()
    bath = discretize(cfg.bath, cfg.discretization)
    even_energy = odd_energy = even_residual = odd_residual = overlap = math.nan
    solvers = {}
    identity = None
    try:
        # solver.tol is in units of omega_c; the residuals stay absolute
        even, odd = solve_sectors(
            bath,
            cfg.model,
            cfg.truncation.n_max,
            cfg.solver.tol,
            cfg.solver.max_iter,
            cfg.bath.omega_c,
        )
    except SolverError as exc:
        diagnostics = dict(exc.diagnostics)
        sector = diagnostics.pop("sector", "unknown")
        solvers[sector] = {**diagnostics, "converged": False}
        status = f"solver-error: {exc}"
    except AccuracyError as exc:
        status = f"accuracy-error: {exc}"
    else:
        even_energy, odd_energy = even.energy, odd.energy
        even_residual, odd_residual = even.residual, odd.residual
        # the odd sector's rotated basis absorbs the boson parity, so the
        # overlap <phi+|exp(i pi sum a'a)|phi-> is a plain dot product
        overlap = float(even.coefficients @ odd.coefficients)
        identity = gap_identity(even, odd, cfg.model.delta, log_prefactor(bath), cfg.solver.tol)
        solvers = {
            sector: {
                "iterations": sol.iterations,
                "residual": sol.residual,
                "converged": True,
                "untruncated_residual": sol.untruncated_residual,
            }
            for sector, sol in (("even", even), ("odd", odd))
        }
        status = "ok"
    gap = odd_energy - even_energy
    delta = cfg.model.delta
    # a difference of two energies cannot resolve a gap below their rounding
    if status == "ok" and not abs(gap) > GAP_FLOOR * max(abs(even_energy), abs(odd_energy)):
        cause = (
            "the sectors coincide at delta 0"
            if delta == 0.0
            else f"polaron factor 10^{log_prefactor(bath) / math.log(10):.2f}"
        )
        status = (
            f"unresolved-gap: gap {gap:.3e} is below the rounding of the sector energies "
            f"({GAP_FLOOR:g} of their size); {cause}"
        )
    # the untruncated ground state is even for delta > 0 and odd for delta < 0;
    # both energies are upper bounds, so a wrong sign proves that the sector
    # that should lie lowest is off by more than |gap|
    elif status == "ok" and delta != 0.0 and math.copysign(1.0, delta) * gap < 0.0:
        lowest = "even" if delta > 0.0 else "odd"
        status = (
            f"truncation-error: gap {gap:.3e} has the wrong sign for delta {delta:g}; "
            f"the {lowest} sector's truncation error exceeds {abs(gap):.3e}"
        )
    cells = {"index": index}
    for group, echo in config_as_dict(cfg).items():
        if group != "sweep":
            cells.update(echo)
    cells.update(
        E_plus0=even_energy,
        E_minus0=odd_energy,
        gap=gap,
        sum_q_squared=sum_q_squared(bath),
        ground_parity=(gap > 0) - (gap < 0),  # 0 for a NaN gap
        parity_overlap=overlap,
        residual_plus=even_residual,
        residual_minus=odd_residual,
        status=status,
    )
    wall_time = time.perf_counter() - started
    return cells, {"wall_time": wall_time, "solvers": solvers, "gap_identity": identity}


def _run_sweep(configs: list[RunConfig], workers: int) -> list[tuple[dict, dict]]:
    tasks = list(enumerate(configs))
    # the pool starts every worker at once, so never more than there are
    # points or cores this process may run on
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    size = min(workers, len(tasks), cores)
    if size <= 1:
        return [sweep_point(t) for t in tasks]
    # loads multiprocessing, which no in-process run needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(sweep_point, tasks))


def cmd_gap_sweep(args) -> int:
    started = time.perf_counter()
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    cfg = load_config(args.config)
    rows, records = zip(*_run_sweep(cfg.expand_sweep(), args.workers))

    if args.format == "csv":
        name = "gap_sweep.csv"
        body = _csv(list(rows[0]), [row.values() for row in rows])
        row_checksums = [_sha256(line.encode("utf-8")) for line in body.split("\n")[1:-1]]
    else:
        name = "gap_sweep.json"
        # a failed row's NaN cells (the only cells unequal to themselves) are null
        rows = [{key: None if cell != cell else cell for key, cell in row.items()} for row in rows]
        body = json.dumps(rows, indent=1, allow_nan=False) + "\n"
        row_checksums = [_sha256(json.dumps(row, allow_nan=False).encode("utf-8")) for row in rows]
    _publish(
        args.out,
        "gap_sweep_manifest.json",
        "gap-sweep",
        {"config": config_as_dict(cfg), "workers": args.workers},
        {name: body},
        row_checksums=row_checksums,
        row_wall_times=[record["wall_time"] for record in records],
        row_solvers=[record["solvers"] for record in records],
        row_gap_identity=[record["gap_identity"] for record in records],
        wall_time_seconds=time.perf_counter() - started,
    )
    failures = [row["status"] for row in rows if row["status"] != "ok"]
    print(f"wrote {os.path.join(args.out, name)} ({len(rows)} rows, {len(failures)} failed)")
    if any(status.startswith("solver-error") for status in failures):
        return EXIT_SOLVER
    return EXIT_INVARIANT if failures else EXIT_OK


# ------------------------------------------------------------ oracle-check


def cmd_oracle_check(args) -> int:
    # imported here, not at module level: only this command and the bias
    # scan use the oracle, whose Lanczos solve loads scipy.sparse.linalg and
    # scipy.linalg, about 8 MiB and start-up time in any other process
    from .oracle import (
        MIXED,
        assemble_full,
        ground_parity,
        norm_inf,
        parity_commutator_norm,
        partition_bound,
        rotation_defects,
        sector_blocks,
    )

    cfg = load_config(args.config)
    bath = discretize(cfg.bath, cfg.discretization)
    enumeration = enumerate_basis(bath.mode_count, cfg.truncation.n_max)
    model = assemble_full(cfg.model, bath, enumeration)
    eps, delta = cfg.model.epsilon, cfg.model.delta

    lines: list[str] = []
    checks: list[bool] = []

    def record(name: str, value, ok: bool) -> None:
        lines.append(f"{name}: {value}")
        checks.append(ok)

    commutator = parity_commutator_norm(model)
    broken = eps != 0.0
    # rounding noise scales with H, so the checks of numbers that carry its
    # unit are judged against ||H||_inf: an energy unit changes no verdict
    scale = norm_inf(model.hamiltonian)
    lines.append(f"epsilon: {_fmt(eps)}")
    lines.append(f"parity broken: {'yes' if broken else 'no'}")
    if broken:
        deviation = abs(commutator - abs(eps))
        record("commutator norm vs |epsilon|", _fmt(deviation), deviation < 1e-11 * scale)
    else:
        record("commutator norm", _fmt(commutator), commutator < 1e-12)

    unitarity, parity_defect = rotation_defects(model)
    record("rotation unitarity defect", _fmt(unitarity), unitarity < 1e-14)
    record("rotated parity vs sigma_z block form", _fmt(parity_defect), parity_defect < 1e-14)

    if not broken:
        _, _, off_norm = sector_blocks(model)
        record("off-diagonal block norm", _fmt(off_norm), off_norm < 1e-12)
        partition = partition_bound(model, unitarity, off_norm)
        record("spectrum partition bound", _fmt(partition), partition < 1e-10 * scale)

    label = ground_parity(model)
    lines.append(f"ground parity: {'mixed' if label == MIXED else ('+1' if label > 0 else '-1')}")
    if not broken:
        # the untruncated ground state is even for delta > 0 and odd for
        # delta < 0 (delta = 0 is degenerate, which ground_parity refuses),
        # so the other label is the truncation's doing
        expected = 1 if delta > 0.0 else -1
        checks.append(label == expected)
        if label == MIXED:
            lines.append("ground parity check: failed (mixed at epsilon = 0)")
        elif label != expected:
            lines.append(
                f"ground parity check: failed ({label:+d} at delta {delta:g}, where the "
                f"untruncated ground state is {expected:+d}: a truncation error)"
            )

    passed = all(checks)
    lines.append(f"result: {'pass' if passed else 'fail'}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out is not None:
        _publish(
            args.out,
            "oracle_check_manifest.json",
            "oracle-check",
            {"config": config_as_dict(cfg)},
            {"oracle_check.txt": report},
            passed=passed,
        )
    return EXIT_OK if passed else EXIT_INVARIANT


# --------------------------------------------------------- verify-appendix


def cmd_verify_appendix(args) -> int:
    _require_distinct("--N", args.N)
    _require_distinct("--n-max", args.n_max)
    # every report first, so a size refused with CapacityError leaves no directory
    reports = [constant_term_contradiction(N, n_max) for N, n_max in product(args.N, args.n_max)]
    outputs = {}
    for report in reports:
        stem = f"appendix_N{report.N}_nmax{report.n_max}"
        outputs[f"{stem}.txt"] = report.to_text() + "\n"
        outputs[f"{stem}.json"] = json.dumps(report.to_json_dict(), indent=1) + "\n"
    all_hold = all(report.holds for report in reports)
    _publish(
        args.out,
        "verify_appendix_manifest.json",
        "verify-appendix",
        {"parameters": {"N": args.N, "n_max": args.n_max}},
        outputs,
        all_hold=all_hold,
    )
    for report in reports:
        verdict = "holds" if report.holds else "FAILS"
        print(
            f"N={report.N} n_max={report.n_max}: {verdict} "
            f"(monomials={report.monomial_count}, witness 2 != 0)"
        )
    return EXIT_OK if all_hold else EXIT_INVARIANT


# ------------------------------------------------------ magnetization-scan


def cmd_magnetization_scan(args) -> int:
    started = time.perf_counter()
    if args.epsilon_steps < 2:
        raise ConfigError(f"--epsilon-steps must be >= 2, got {args.epsilon_steps}")
    check_grid_points("--epsilon-steps", args.epsilon_steps)
    if not (math.isfinite(args.epsilon_max) and args.epsilon_max > 0.0):
        raise ConfigError(f"--epsilon-max must be finite and > 0, got {args.epsilon_max}")
    cfg = load_config(args.config)
    if cfg.model.epsilon != 0.0:
        raise ConfigError(
            "the bias scan takes epsilon from its grid; "
            f"model.epsilon must be 0, got {cfg.model.epsilon}"
        )
    # the scan needs the oracle's full H, whose ground state comes from
    # Lanczos (scipy.sparse.linalg, imported by the solve)
    from .oracle import assemble_full, ground_sigma_z, parity_commutator_norm

    bath = discretize(cfg.bath, cfg.discretization)
    enumeration = enumerate_basis(bath.mode_count, cfg.truncation.n_max)
    steps = args.epsilon_steps
    # the grid's nonnegative half; the rest is its exact mirror below
    half = np.linspace(-args.epsilon_max, args.epsilon_max, steps)[steps // 2 :]
    # linspace can miss 0 by an ulp (steps 7, max 0.9), which would skip the epsilon 0 check
    if steps % 2:
        half[0] = 0.0
    # one assembly; each grid point rewrites only the diagonal of H
    unbiased = assemble_full(cfg.model, bath, enumeration)
    # Pi = sigma_x (x) (-1)^sum(n) maps H(epsilon) onto H(-epsilon) and
    # sigma_z onto -sigma_z, so sigma_z(-epsilon) = -sigma_z(epsilon).  Every
    # entry of H Pi and Pi H is one product with +-1, so a correctly
    # assembled H commutes with Pi exactly, and then Pi H(epsilon) Pi and
    # H(-epsilon) agree bit for bit
    commutator = parity_commutator_norm(unbiased)
    if commutator != 0.0:
        raise AccuracyError(
            f"the assembled H does not commute with the parity at epsilon 0 "
            f"(||[H, Pi]|| = {commutator:.3e}), so the scan cannot mirror its epsilon >= 0 half"
        )
    solved = [(eps, ground_sigma_z(unbiased.with_bias(eps))) for eps in map(float, half)]
    # the parity symmetry makes sigma_z vanish at epsilon = 0 for a
    # nondegenerate ground state; anything else is a state Lanczos picked
    # from a numerically degenerate pair, and the curve means nothing
    for eps, sigma_z in solved:
        if eps == 0.0 and abs(sigma_z) > 1e-9:
            raise AccuracyError(
                f"sigma_z {sigma_z:.6g} at epsilon 0 is not 0: the ground state at "
                f"delta {cfg.model.delta:g} is numerically degenerate"
            )
    # 0.0 - sigma_z is -sigma_z, but never the "-0" cell of -0.0
    mirrored = [(-eps, 0.0 - sigma_z) for eps, sigma_z in reversed(solved[steps % 2 :])]
    rows = mirrored + solved
    name = "magnetization_epsilon.csv"
    _publish(
        args.out,
        "magnetization_manifest.json",
        "magnetization-scan",
        {"config": config_as_dict(cfg)},
        {name: _csv(["epsilon", "sigma_z"], rows)},
        wall_time_seconds=time.perf_counter() - started,
        epsilon_max=args.epsilon_max,
    )
    print(f"wrote {os.path.join(args.out, name)} ({len(rows)} rows)")
    return EXIT_OK


# --------------------------------------------------------------- discretize


def cmd_discretize(args) -> int:
    cfg = load_config(args.config)
    bath = discretize(cfg.bath, cfg.discretization)
    rows = [(k, *mode) for k, mode in enumerate(zip(bath.omega, bath.lam, bath.q))]
    _publish(
        args.out,
        "discretize_manifest.json",
        "discretize",
        {"config": config_as_dict(cfg)},
        {"modes.csv": _csv(["k", "omega", "lam", "q"], rows)},
        sum_q_squared=sum_q_squared(bath),
    )
    print(f"wrote {os.path.join(args.out, 'modes.csv')} ({bath.mode_count} modes)")
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _add_out(parser):
    parser.add_argument("--out", default=".", help="output directory")


def _add_config(parser):
    parser.add_argument("--config", required=True, help="YAML run configuration")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbmlab",
        description="Parity-sector laboratory for the unbiased spin-boson model",
    )
    parser.add_argument("--version", action="version", version=f"sbmlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="tail-sum divergence data and its SVG plot over mode count")
    p.add_argument("--Lambda", type=float, default=2.0)
    p.add_argument(
        "--s", type=float, action="append", default=None, help="spectral exponent (repeatable)"
    )
    p.add_argument("--N-max", dest="N_max", type=int, default=40)
    _add_out(p)
    p.set_defaults(handler=cmd_fig1)

    p = sub.add_parser("gap-sweep", help="sector ground energies over a parameter sweep")
    _add_config(p)
    _add_out(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_gap_sweep)

    p = sub.add_parser("oracle-check", help="run the full-H invariant suite")
    _add_config(p)
    p.add_argument("--out", default=None, help="also save the report here")
    p.set_defaults(handler=cmd_oracle_check)

    p = sub.add_parser("verify-appendix", help="appendix-argument reports (not a proof)")
    p.add_argument("--N", type=int, nargs="+", required=True, help="mode counts")
    p.add_argument("--n-max", dest="n_max", type=int, nargs="+", required=True)
    _add_out(p)
    p.set_defaults(handler=cmd_verify_appendix)

    p = sub.add_parser("magnetization-scan", help="bias scan of <sigma_z> on the full H")
    _add_config(p)
    _add_out(p)
    p.add_argument("--epsilon-steps", dest="epsilon_steps", type=int, required=True)
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
