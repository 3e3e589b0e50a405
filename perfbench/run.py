"""sbmlab benchmark: one closed-loop client calling `sbmlab.cli.main` in-process.

    python3 perfbench/run.py --workload dense-sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; sbmlab is imported from ./src.
The client runs the workload's commands one after the other with
`--workers 1`, in a fixed number of passes that take about --seconds at
the reference commit (workloads.passes), and judges every operation with
the correctness gate.

--trace 0 reports the end-to-end metrics: wall_s, the time of one warm
pass (per command, its low median repeat); setup_s, the median over fresh
interpreters of importing sbmlab.cli, writing the inputs and warming up
BLAS; peak_rss_mb of this process; and ok_frac, the share of operations
that pass the gate.  The failed share is printed as failed_frac with its
base.

--trace 1 alternates untraced and traced passes and reports the per-layer
numbers of the traced passes (medians), a self-time table and the tracing
overhead (traced minus untraced wall_s).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Every operation the gate rejects
is counted in `failed`; `correct` is false when one of them passed the
gate at the commit reference.json was made from (its known failures are
listed there).  Spans and the full result, with the environment
record, are written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import gate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
SETUP_SAMPLES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _limit_blas_threads() -> dict:
    """Fix BLAS threads before numpy loads: 1 unless set, and never above the usable cores.

    On a shared 2-vCPU Xeon VM, ten runs of each workload spread (quartile
    distance over median) about 1.7 times as much with two BLAS threads as
    with one, measured in one session.
    """
    nproc = len(os.sched_getaffinity(0))
    settings = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    for var, value in settings.items():
        if value is None:
            continue
        if not value.strip().isdigit() or not 1 <= int(value) <= nproc:
            _fail(f"{var}={value} must ask for 1 to {nproc} BLAS threads, the usable core count")
    if settings["OPENBLAS_NUM_THREADS"] is None and settings["OMP_NUM_THREADS"] is None:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return {"nproc": nproc, **{var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def _source_dir() -> Path:
    source = ROOT / "src"
    if not (source / "sbmlab" / "cli.py").is_file():
        _fail(f"no sbmlab sources under {source}; run from the root of a checkout")
    return source


def _import_cli():
    source = _source_dir()
    sys.path.insert(0, str(source))
    import sbmlab.cli

    if Path(sbmlab.cli.__file__).resolve().parent.parent != source.resolve():
        _fail(f"imported sbmlab from {sbmlab.cli.__file__}, not from {source}")
    return sbmlab.cli


def setup(workload: str, seed: int, work: Path):
    """Everything a pass needs: sbmlab imported, inputs written, LAPACK called once."""
    cli = _import_cli()
    commands = workloads.build(workload, seed, ROOT, work)
    import numpy as np

    # pay the first LAPACK call (with several BLAS threads it starts the
    # thread pool, about a second) in set-up rather than in the first pass
    n = 462
    np.linalg.eigh(np.add.outer(np.arange(n), np.arange(n)) % 7 / 7.0)
    return cli, commands


def measure_setup(args) -> list[float]:
    """Set-up time of fresh interpreters, each timed from spawn to exit."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        samples.append(time.perf_counter() - started)
        if probe.returncode != 0:
            _fail(f"set-up probe exited with {probe.returncode}: {probe.stderr.strip()}")
    return samples


def run_pass(cli, commands, tracer, seed: int, reference: dict):
    """One closed-loop pass; returns (seconds per command, outcomes, sbmlab output)."""
    seconds = []
    outcomes: list[gate.Outcome] = []
    log = io.StringIO()
    for command in commands:
        shutil.rmtree(command.out, ignore_errors=True)
        if tracer is not None:
            tracer.op = command.name
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                exit_code = cli.main(list(command.argv))
        except Exception:
            exit_code = None
            log.write(traceback.format_exc())
        seconds.append(time.perf_counter() - started)
        outcomes.extend(gate.judge(command, exit_code, seed, reference))
    return seconds, outcomes, log.getvalue()


def environment(blas: dict) -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    return {
        "cores": blas["nproc"],
        "blas": {
            "library": deps["blas"].get("name"),
            "version": deps["blas"].get("version"),
            "configuration": deps["blas"].get("openblas configuration"),
            "thread_env": {k: v for k, v in blas.items() if k != "nproc"},
        },
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def warm_pass_seconds(passes: list[list[float]]) -> float:
    """One warm pass: the sum over commands of each command's low median time.

    passes holds the seconds per command of each pass.  The low median is
    the middle time, the lower of the two middle ones for an even count.
    With two passes it is the faster one, which drops a burst of the shared
    host that slowed the other; with many it does not follow the spells in
    which the host runs Python faster than usual, as the fastest would.
    """
    return sum(statistics.median_low(times) for times in zip(*passes))


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f} .. {q3:.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    blas = _limit_blas_threads()
    _source_dir()
    work = STATE / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, work)
            return 0
        setup_samples = measure_setup(args)
        cli, commands = setup(args.workload, args.seed, work)
        reference = gate.load_reference()
        return _measure(args, cli, commands, reference, setup_samples, environment(blas))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, cli, commands, reference, setup_samples, env) -> int:
    untraced, traced = [], []
    layer_samples, traced_spans = [], []
    attempted = failed = 0
    failures: dict[str, str] = {}
    started = time.perf_counter()
    for index in range(workloads.passes(args.workload, args.seconds)):
        # with --trace 1 every second pass is traced, so at least one is
        tracer = spans.Tracer() if args.trace and index % 2 else None
        if tracer is not None:
            tracer.install()
        try:
            seconds, outcomes, log = run_pass(cli, commands, tracer, args.seed, reference)
        finally:
            if tracer is not None:
                tracer.uninstall()
        attempted += len(outcomes)
        failed += sum(not o.ok for o in outcomes)
        failures.update((o.op, o.reason) for o in outcomes if not o.ok)
        if tracer is None:
            untraced.append(seconds)
        else:
            traced.append(seconds)
            traced_spans.append(tracer.spans)
            layer_samples.append(spans.layer_metrics(tracer.spans, {o.op: o.ok for o in outcomes}))
    elapsed = time.perf_counter() - started

    per_pass = attempted // (len(untraced) + len(traced))
    failed_frac = failed / attempted
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(untraced)} untraced + {len(traced)} traced passes in {elapsed:.1f} s")
    wall_s = warm_pass_seconds(untraced)
    print(f"wall_s       {wall_s:.4f} s   (per command, the low median of {len(untraced)} "
          f"passes; whole passes took {_quartiles([sum(p) for p in untraced])} s)")
    for name, times in zip((c.name for c in commands), zip(*untraced)):
        print(f"  {name:<24}" + "  ".join(f"{t:.4f}" for t in times))
    print(f"setup_s      {statistics.median(setup_samples):.4f} s   (median of "
          f"{len(setup_samples)} fresh interpreters, quartiles {_quartiles(setup_samples)})")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MiB")
    print(f"failed_frac  {failed_frac:.4f}   ({failed} failed / {attempted} attempted; "
          f"{per_pass} operations per pass)")
    for op, reason in failures.items():
        print(f"  failed {op}: {reason}")

    if args.trace:
        metrics = {
            name: statistics.median(sample[name] for sample in layer_samples)
            for name in layer_samples[0]
        }
        traced_s = warm_pass_seconds(traced)
        metrics["trace.overhead_s"] = traced_s - wall_s
        units = _per_layer_units()
        print(f"trace overhead: traced wall_s {traced_s:.4f} s - untraced "
              f"wall_s {wall_s:.4f} s = {metrics['trace.overhead_s']:.4f} s")
        print(f"{'span':<44}{'calls':>8}{'total_s':>12}{'self_s':>12}")
        for name, calls, total, self_s in spans.self_time_table(traced_spans):
            print(f"{name:<44}{calls:>8g}{total:>12.4f}{self_s:>12.4f}")
        for name in ("fockspace.dmn_table", "oracle.dense_spectrum"):
            counts = spans.per_operation_counts(traced_spans[-1], name)
            if counts:
                print(f"{name} calls per operation: "
                      + ", ".join(f"{op} {n}" for op, n in counts.items()))
        for name, value in metrics.items():
            print(f"{name:<34}{value:>14.6g} {units[name]}")
        result_metrics = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
    else:
        result_metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "ok_frac": {"value": 1.0 - failed_frac, "unit": "ratio"},
        }

    known = reference["known_failures"][args.workload]
    unexpected = sorted(op for op in failures if op not in known)
    if unexpected:
        print(f"INCORRECT: operations that passed at the reference commit now fail: {unexpected}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    STATE.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (STATE / f"result-{stem}.json").write_text(json.dumps({
        **result,
        "environment": env,
        "command_seconds": {
            "commands": [c.name for c in commands], "untraced": untraced, "traced": traced,
        },
        "setup_samples_s": setup_samples,
        "failures": failures,
        "sbmlab_output_last_pass": log,
    }, indent=1) + "\n")
    if traced_spans:
        (STATE / f"spans-{stem}.json").write_text(json.dumps(
            [[asdict(s) for s in pass_spans] for pass_spans in traced_spans]) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


def _per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
