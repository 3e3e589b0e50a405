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

Records from different sessions mix the machine's speed with the code's,
so each workload is bracketed by a calibration: fresh interpreters at one
BLAS thread time `import numpy, scipy.sparse` (median of 5 interpreters,
spawn to exit) and the median of 20 runs of run.py's warm-up kernel,
np.linalg.eigh of the 462 x 462 matrix np.add.outer(...) % 7 / 7.0.  The
figures are stored under `calibration`, per workload the one taken before
it and the one taken after it, and printed on the workload's line.
tree_clean is false when the tracked files under src, scripts or
perfbench differed from that commit as the runs began, so the numbers
are not those of the commit alone.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

IMPORT_SAMPLES = 5

# perfbench/run.py's warm-up kernel, timed 20 times in one fresh interpreter
EIGH_KERNEL = """
import statistics, time
import numpy as np
n = 462
a = np.add.outer(np.arange(n), np.arange(n)) % 7 / 7.0
times = []
for _ in range(20):
    started = time.perf_counter()
    np.linalg.eigh(a)
    times.append(time.perf_counter() - started)
print(statistics.median(times))
"""


def run(command: list[str], workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(environment, result) from one benchmark run: its last two JSON lines."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def calibrate() -> dict:
    """Machine-speed figures from fresh interpreters at one BLAS thread, in seconds."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    imports = []
    for _ in range(IMPORT_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, scipy.sparse"], env=env, check=True)
        imports.append(time.perf_counter() - started)
    eigh = subprocess.run([sys.executable, "-c", EIGH_KERNEL], env=env, check=True,
                          capture_output=True, text=True)
    return {"import_s": statistics.median(imports), "eigh_s": float(eigh.stdout)}


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
    environment, workloads, calibration = None, {}, {}
    after = calibrate()
    for workload in (w["name"] for w in benchmark["workloads"]):
        before, record = after, {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            environment, result = run(command, workload, args.seed, args.seconds, trace)
            record[key] = {
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                **{field: result[field] for field in ("correct", "attempted", "failed")},
            }
        workloads[workload] = record
        after = calibrate()
        calibration[workload] = {"before": before, "after": after}
        # every number the benchmark gates on, one line per workload
        end = record["end_to_end"]
        gated = ", ".join(
            f"{m['name']} {end['metrics'][m['name']]:.4g} {m['unit']}"
            for m in benchmark["end_to_end"]
        )
        machine = ", ".join(
            f"{name} {before[name]:.4g} -> {after[name]:.4g} s" for name in ("import_s", "eigh_s")
        )
        print(f"{workload}: {gated}, failed {end['failed']}/{end['attempted']}; "
              f"calibration {machine}", file=sys.stderr)
    out = ROOT / f"BENCH_{args.label}.json"
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    out.write_text(json.dumps({
        "label": args.label,
        "command": f"{' '.join(benchmark['command'])} --seed {args.seed} --seconds {args.seconds}",
        "environment": environment,
        "tree_clean": clean,
        "calibration": calibration,
        "units": units,
        "workloads": workloads,
    }, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
