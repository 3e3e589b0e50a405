"""scripts/bench_record.py: what one record holds, with the benchmark runs stubbed."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location(
        "bench_record", REPO / "scripts" / "bench_record.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_record_is_one_tree_with_no_calibration(tmp_path, capsys, monkeypatch):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    benchmark = json.loads((tmp_path / "BENCHMARK.json").read_text())
    names = [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    script = load_script()
    calls = []

    def fake_run(command, workload, seed, seconds, trace):
        calls.append((workload, trace))
        result = {
            "metrics": {name: {"value": 1.0} for name in names},
            "correct": True,
            "attempted": 4,
            "failed": 1,
        }
        return {"cpu_count": 1}, result

    def no_subprocess(*args, **kwargs):
        raise AssertionError(f"subprocess started: {args}")

    monkeypatch.setattr(script, "ROOT", tmp_path)
    monkeypatch.setattr(script, "run", fake_run)
    monkeypatch.setattr(script, "tree_clean", lambda: True)
    monkeypatch.setattr(subprocess, "run", no_subprocess)
    assert script.main(["t"]) == 0

    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert set(record) == {"label", "command", "environment", "tree_clean", "units", "workloads"}
    workloads = [w["name"] for w in benchmark["workloads"]]
    assert list(record["workloads"]) == workloads
    assert calls == [(w, trace) for w in workloads for trace in (0, 1)]
    for runs in record["workloads"].values():
        assert set(runs) == {"end_to_end", "per_layer"}
        for result in runs.values():
            assert set(result) == {"metrics", "correct", "attempted", "failed"}
            assert set(result["metrics"]) == set(names)
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in lines] == workloads
    assert not any("calibration" in line for line in lines)
