"""Record the benchmark of one change as BENCH_<label>.json at the repo root.

    python3 scripts/bench_record.py 14 --seed 0

Runs the benchmark command of BENCHMARK.json (perfbench/run.py) once per
workload at --trace 0 and once at --trace 1, each in a fresh interpreter
from the repo root, and keeps the last two lines of its standard output:
the environment record (core count, BLAS thread variables, numpy and
scipy versions, git commit) and the result.  The --trace 0 result holds
the end-to-end metrics, the --trace 1 result the per-layer ones.  Each
workload's end-to-end metrics and its failed/attempted count are also
printed to standard error as they come in.

A record holds one tree measured on one machine, so records from
different sessions mix the machine's speed with the code's.  Two trees
are compared by alternating parent/change pairs of perfbench/run.py on
one machine, as every entry of CHANGES.md reports them.

tree_clean is false when the tracked files under src, scripts or
perfbench differed from that commit as the runs began, so the numbers
are not those of the commit alone.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(command: list[str], workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(environment, result) from one benchmark run: its last two JSON lines."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def tree_clean() -> bool:
    """Whether the tracked files the benchmark runs (src, scripts, perfbench) match HEAD."""
    argv = ["git", "status", "--porcelain", "--untracked-files=no", "--", "src", "scripts",
            "perfbench"]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout == ""


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)

    command = [sys.executable if word == "python3" else word for word in benchmark["command"]]
    clean = tree_clean()
    environment, workloads = None, {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        record = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            environment, result = run(command, workload, args.seed, args.seconds, trace)
            record[key] = {
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                **{field: result[field] for field in ("correct", "attempted", "failed")},
            }
        workloads[workload] = record
        # every number the benchmark gates on, one line per workload
        end = record["end_to_end"]
        gated = ", ".join(
            f"{m['name']} {end['metrics'][m['name']]:.4g} {m['unit']}"
            for m in benchmark["end_to_end"]
        )
        print(f"{workload}: {gated}, failed {end['failed']}/{end['attempted']}", file=sys.stderr)
    out = ROOT / f"BENCH_{args.label}.json"
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    out.write_text(json.dumps({
        "label": args.label,
        "command": f"{' '.join(benchmark['command'])} --seed {args.seed} --seconds {args.seconds}",
        "environment": environment,
        "tree_clean": clean,
        "units": units,
        "workloads": workloads,
    }, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
