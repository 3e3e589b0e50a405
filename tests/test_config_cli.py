import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sbmlab.bath import Convention, beta0, discretize
from sbmlab import __version__
from sbmlab.cli import build_parser, main
from sbmlab.config import (
    MAX_GRID_POINTS,
    RunConfig,
    SolverSettings,
    Sweep,
    config_as_dict,
    load_config,
    parse_config,
)
from sbmlab.errors import CapacityError, ConfigError
from sbmlab.fockspace import enumerate_basis
from sbmlab.oracle import assemble_full
from sbmlab.sectors import ModelParams

BASE = {
    "model": {"delta": 0.4},
    "bath": {"s": 0.5, "alpha": 0.2, "omega_c": 1.0},
    "discretization": {"Lambda": 2.0, "N": 3},
    "truncation": {"n_max": 4},
}


def deep(overrides: dict) -> dict:
    data = {k: dict(v) for k, v in BASE.items()}
    for group, fields in overrides.items():
        data.setdefault(group, {})
        if isinstance(fields, dict):
            data[group].update(fields)
        else:
            data[group] = fields
    return data


def write_config(tmp_path, data: dict, name="run.yaml") -> str:
    import yaml

    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.yaml"))


def run_fresh(code: str, *args: str, threads: str = "1") -> subprocess.CompletedProcess:
    """Run python -c code in a fresh interpreter on this checkout's src at a
    fixed OpenBLAS thread count (the count is read when numpy is imported)."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": pythonpath}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )


def run_cli(argv: list[str], threads: str = "1") -> int:
    """main(argv) in a fresh interpreter; its exit code."""
    code = "import sys; from sbmlab.cli import main; sys.exit(main(sys.argv[1:]))"
    return run_fresh(code, *argv, threads=threads).returncode


# ------------------------------------------------------------------ parsing


def test_parse_defaults():
    cfg = parse_config(deep({}))
    assert cfg.model.epsilon == 0.0
    assert cfg.solver.tol == 1e-10
    assert cfg.solver.max_iter == 500
    assert cfg.discretization.convention is Convention.PAPER_QUARTER
    assert cfg.sweep is None


def test_parse_absent_or_empty_solver_gives_default_settings():
    assert parse_config(deep({})).solver == SolverSettings()
    assert parse_config(deep({"solver": {}})).solver == SolverSettings()
    assert parse_config(deep({"solver": {"tol": 1e-8}})).solver == SolverSettings(tol=1e-8)


def test_parse_explicit_fields():
    data = deep(
        {
            "model": {"epsilon": 0.1},
            "discretization": {"convention": "mean-omega"},
            "solver": {"tol": 1e-8, "max_iter": 50},
        }
    )
    cfg = parse_config(data)
    assert cfg.model.epsilon == 0.1
    assert cfg.discretization.convention is Convention.MEAN_OMEGA
    assert cfg.solver.tol == 1e-8 and cfg.solver.max_iter == 50


@pytest.mark.parametrize(
    "data,needle",
    [
        (deep({"bathh": {"s": 1}}), "unknown key 'bathh' in top level"),
        (deep({"bath": {"gamma": 1}}), "unknown key 'gamma' in bath"),
        (deep({"model": {"Delta": 1}}), "unknown key 'Delta' in model"),
        ({"model": BASE["model"]}, "required group is missing"),
        (deep({"model": {"delta": "big"}}), "model.delta: expected a number"),
        (deep({"discretization": {"N": 2.5}}), "discretization.N: expected an integer"),
        (deep({"discretization": {"N": True}}), "discretization.N: expected an integer"),
        (deep({"bath": {"s": -1}}), "bath: spectral exponent must be positive"),
        (
            deep({"bath": {"omega1": 5.0}}),
            "unknown key 'omega1' in bath; expected one of: s, alpha, omega_c",
        ),
        (deep({"truncation": {"n_max": 0}}), "truncation: occupation cutoff"),
        (deep({"discretization": {"convention": "thirds"}}), "discretization.convention"),
        (deep({"sweep": {"parameter": "alpha"}}), "sweep.from: required field is missing"),
        (
            deep({"sweep": {"parameter": "beta", "from": 0, "to": 1, "steps": 2}}),
            "sweep parameter must be one of",
        ),
        (
            deep({"sweep": {"parameter": "alpha", "from": 0, "to": 1, "steps": 2, "scale": "log"}}),
            "log scale requires positive endpoints",
        ),
        (
            deep({"sweep": {"parameter": "N", "from": 1, "to": 2, "steps": 3}}),
            "non-integer value",
        ),
        (
            deep({"sweep": {"from": 0, "to": 1, "steps": 2}}),
            "sweep.parameter: required field is missing",
        ),
        (deep({"model": {"delta": math.nan}}), "model.delta: expected a finite number, got nan"),
        (deep({"bath": {"alpha": math.nan}}), "bath.alpha: expected a finite number, got nan"),
        (deep({"bath": {"s": math.inf}}), "bath.s: expected a finite number, got inf"),
        (
            deep({"sweep": {"parameter": "alpha", "from": 0, "to": math.inf, "steps": 2}}),
            "sweep.to: expected a finite number, got inf",
        ),
        (deep({"model": {"delta": 10**400}}), "model.delta: expected a finite number"),
    ],
)
def test_parse_rejections(data, needle):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(data)
    assert needle in str(excinfo.value)


@pytest.mark.parametrize("value", [1, ["mean-omega"], None])
def test_parse_rejects_non_string_convention(value):
    with pytest.raises(ConfigError, match="discretization.convention: expected one of"):
        parse_config(deep({"discretization": {"convention": value}}))


# each group's config keys, in order: the fields of its dataclass
CONFIG_KEYS = {
    "model": ["delta", "epsilon"],
    "bath": ["s", "alpha", "omega_c"],
    "discretization": ["Lambda", "N", "convention"],
    "truncation": ["n_max"],
    "solver": ["tol", "max_iter"],
    "sweep": ["parameter", "from", "to", "steps", "scale"],
}


def test_config_keys_per_group():
    # a new field of a group dataclass is a new config key, manifest echo
    # key and gap_sweep.csv column, so it must not arrive unnoticed
    sweep = {"parameter": "alpha", "from": 0.1, "to": 0.2, "steps": 2}
    for group, keys in {"": list(CONFIG_KEYS), **CONFIG_KEYS}.items():
        data = deep({"sweep": sweep})
        target = data.setdefault(group, {}) if group else data
        target["unknown"] = 1
        with pytest.raises(ConfigError) as excinfo:
            parse_config(data)
        assert str(excinfo.value) == (
            f"unknown key 'unknown' in {group or 'top level'}; expected one of: {', '.join(keys)}"
        )
    echo = config_as_dict(parse_config(deep({"sweep": sweep})))
    assert {group: list(values) for group, values in echo.items()} == CONFIG_KEYS


def test_model_missing_delta():
    data = deep({})
    del data["model"]["delta"]
    with pytest.raises(ConfigError, match="model.delta: required field is missing"):
        parse_config(data)


def test_load_config_reports_yaml_and_io_errors(tmp_path):
    broken = tmp_path / "broken.yaml"
    broken.write_text("model: {delta: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(str(broken))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.yaml"))
    empty = tmp_path / "empty.yaml"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ConfigError, match="is empty"):
        load_config(str(empty))


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"sweep": {"parameter": "Lambda", "from": 1.5, "to": 3.0, "steps": 4, "scale": "log"}},
        {"discretization": {"convention": "mean-omega"}, "model": {"epsilon": 0.1}},
        {"solver": {"max_iter": 40}, "bath": {"omega_c": 2.0}},
        # and each shipped config file as it stands
        *(pytest.param(path, id=path.name) for path in CONFIGS),
    ],
)
def test_manifest_config_echo_parses_back_to_the_config(overrides):
    if isinstance(overrides, Path):
        cfg = load_config(str(overrides))
    else:
        cfg = parse_config(deep(overrides))
    echo = json.loads(json.dumps(config_as_dict(cfg)))
    assert parse_config({group: v for group, v in echo.items() if v is not None}) == cfg


# -------------------------------------------------------------------- sweeps


def test_sweep_values_linear_and_log():
    lin = Sweep(parameter="alpha", start=0.0, stop=1.0, steps=5)
    assert lin.values() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    log = Sweep(parameter="alpha", start=0.01, stop=1.0, steps=3, scale="log")
    assert log.values() == pytest.approx([0.01, 0.1, 1.0])
    single = Sweep(parameter="delta", start=0.3, stop=9.9, steps=1)
    assert single.values() == [0.3]


def test_sweep_integer_parameters_round_exactly():
    sweep = Sweep(parameter="N", start=2.0, stop=10.0, steps=5)
    assert sweep.values() == [2.0, 4.0, 6.0, 8.0, 10.0]


def test_expand_sweep_replaces_each_parameter():
    for parameter, getter in [
        ("alpha", lambda c: c.bath.alpha),
        ("s", lambda c: c.bath.s),
        ("delta", lambda c: c.model.delta),
        ("Lambda", lambda c: c.discretization.Lambda),
    ]:
        data = deep({"sweep": {"parameter": parameter, "from": 1.25, "to": 1.5, "steps": 2}})
        points = parse_config(data).expand_sweep()
        assert [getter(c) for c in points] == [1.25, 1.5]
    for parameter, getter in [
        ("N", lambda c: c.discretization.N),
        ("n_max", lambda c: c.truncation.n_max),
    ]:
        data = deep({"sweep": {"parameter": parameter, "from": 2, "to": 4, "steps": 3}})
        points = parse_config(data).expand_sweep()
        assert [getter(c) for c in points] == [2, 3, 4]
        assert all(type(getter(c)) is int for c in points)


@pytest.mark.parametrize("parameter", ["omega_c", "tol"])
def test_fields_outside_sweepable_are_refused_as_sweep_parameters(parameter):
    message = f"sweep parameter must be one of alpha, s, delta, N, n_max, Lambda, got '{parameter}'"
    data = deep({"sweep": {"parameter": parameter, "from": 0.5, "to": 1.0, "steps": 2}})
    with pytest.raises(ConfigError) as excinfo:
        parse_config(data)
    assert str(excinfo.value) == f"sweep: {message}"
    with pytest.raises(ValueError) as excinfo:
        parse_config(deep({})).with_value(parameter, 0.5)
    assert str(excinfo.value) == message


def test_expand_without_sweep_is_identity():
    cfg = parse_config(deep({}))
    assert cfg.expand_sweep() == [cfg]


# ---------------------------------------------------------------------- fig1


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    body = [line.split(",") for line in lines[1:]]
    return header, body


def test_fig1_default_output(tmp_path):
    out = tmp_path / "fig"
    assert main(["fig1", "--out", str(out), "--N-max", "12"]) == 0
    header, body = read_csv(out / "fig1_data.csv")
    assert header == ["N", "beta2_s0.1", "beta2_s1.0"]
    assert len(body) == 13
    assert float(body[0][1]) == pytest.approx(beta0(0.1, 2.0) / 4.0, rel=1e-15)
    assert float(body[0][2]) == pytest.approx(beta0(1.0, 2.0) / 4.0, rel=1e-15)
    ohmic = [float(r[2]) for r in body]
    second = np.diff(ohmic, n=2)
    assert np.abs(second).max() < 1e-15
    sub = [float(r[1]) for r in body]
    assert all(b > a for a, b in zip(sub, sub[1:]))
    assert (out / "fig1.svg").exists()
    manifest = json.loads((out / "fig1_manifest.json").read_text())
    assert set(manifest["files"]) == {"fig1_data.csv", "fig1.svg"}


def test_fig1_single_row_and_svg(tmp_path):
    out = tmp_path / "fig0"
    assert main(["fig1", "--out", str(out), "--N-max", "0"]) == 0
    header, body = read_csv(out / "fig1_data.csv")
    assert len(body) == 1
    assert float(body[0][1]) == pytest.approx(beta0(0.1, 2.0) / 4.0, rel=1e-15)
    svg = (out / "fig1.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg") and "polyline" in svg


def test_fig1_rejects_bad_flags(tmp_path):
    assert main(["fig1", "--out", str(tmp_path), "--Lambda", "0.5"]) == 2
    assert main(["fig1", "--out", str(tmp_path), "--N-max", "-3"]) == 2


@pytest.mark.parametrize(
    "flags", [["--Lambda", "inf"], ["--Lambda", "nan"], ["--s", "nan"], ["--s", "inf"]]
)
def test_fig1_rejects_non_finite_flags(tmp_path, capsys, flags):
    out = tmp_path / "f"
    assert main(["fig1", "--out", str(out), *flags]) == 2
    assert not out.exists()
    assert f"config error: {flags[0]} must be finite" in capsys.readouterr().err


def test_fig1_rejects_a_repeated_exponent(tmp_path, capsys):
    # one CSV column and one SVG line per distinct exponent
    out = tmp_path / "f"
    assert main(["fig1", "--out", str(out), "--s", "0.1", "--s", "0.10"]) == 2
    assert not out.exists()
    assert "config error: --s repeats a value, got [0.1, 0.1]" in capsys.readouterr().err


def test_fig1_beta2_overflow_is_a_config_error(tmp_path, capsys):
    # s = 0.1: beta2 grows like 2**(0.9 N) and leaves the double range near N = 1137
    import re

    out = tmp_path / "f"
    assert main(["fig1", "--out", str(out), "--N-max", "2000"]) == 2
    assert not out.exists()
    message = capsys.readouterr().err
    assert message.startswith("config error: beta2 at s=0.1, Lambda=2.0 overflows")
    largest = int(re.search(r"largest --N-max with a finite beta2 is (\d+)", message).group(1))
    assert 1000 < largest < 2000
    assert main(["fig1", "--out", str(out), "--N-max", str(largest)]) == 0
    _, body = read_csv(out / "fig1_data.csv")
    assert len(body) == largest + 1
    assert all(math.isfinite(float(cell)) for row in body for cell in row)
    assert main(["fig1", "--out", str(tmp_path / "g"), "--N-max", str(largest + 1)]) == 2
    assert not (tmp_path / "g").exists()


# ----------------------------------------------------------------- gap-sweep


def test_gap_sweep_alpha_scan_gap_positive(tmp_path):
    data = deep(
        {
            "bath": {"s": 0.1},
            "sweep": {"parameter": "alpha", "from": 0.0, "to": 0.5, "steps": 6},
        }
    )
    out = tmp_path / "sweep"
    assert main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
    header, body = read_csv(out / "gap_sweep.csv")
    gap_col = header.index("gap")
    status_col = header.index("status")
    assert all(row[status_col] == "ok" for row in body)
    assert all(float(row[gap_col]) > 0 for row in body)
    assert [row[header.index("ground_parity")] for row in body] == ["1"] * 6


def test_gap_sweep_in_modes_gap_and_prefactor_decreasing(tmp_path):
    data = deep(
        {
            "bath": {"s": 0.1, "alpha": 0.3},
            "sweep": {"parameter": "N", "from": 1, "to": 5, "steps": 5},
        }
    )
    out = tmp_path / "nsweep"
    assert main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
    header, body = read_csv(out / "gap_sweep.csv")
    gaps = [float(r[header.index("gap")]) for r in body]
    pre = [float(r[header.index("prefactor")]) for r in body]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert all(b < a for a, b in zip(pre, pre[1:]))


def test_gap_sweep_delta_antisymmetry(tmp_path):
    data = deep(
        {"sweep": {"parameter": "delta", "from": -0.6, "to": 0.6, "steps": 4}}
    )
    out = tmp_path / "dsweep"
    assert main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
    header, body = read_csv(out / "gap_sweep.csv")
    gaps = [float(r[header.index("gap")]) for r in body]
    assert gaps[0] == pytest.approx(-gaps[3], abs=1e-10)
    assert gaps[1] == pytest.approx(-gaps[2], abs=1e-10)


def test_gap_sweep_rerun_and_workers_byte_identical(tmp_path):
    data = deep({"sweep": {"parameter": "alpha", "from": 0.0, "to": 0.4, "steps": 4}})
    path = write_config(tmp_path, data)
    outs = [tmp_path / name for name in ("a", "b", "c")]
    assert main(["gap-sweep", "--config", path, "--out", str(outs[0])]) == 0
    assert main(["gap-sweep", "--config", path, "--out", str(outs[1])]) == 0
    assert main(["gap-sweep", "--config", path, "--out", str(outs[2]), "--workers", "3"]) == 0
    bodies = [(o / "gap_sweep.csv").read_bytes() for o in outs]
    assert bodies[0] == bodies[1] == bodies[2]


def test_gap_sweep_alpha_scan_bytes_independent_of_blas_threads(tmp_path):
    # the example config (dim 462) run at one and at two OpenBLAS threads
    config = ROOT / "scripts" / "configs" / "alpha_scan.yaml"
    bodies = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        argv = ["gap-sweep", "--config", str(config), "--out", str(out)]
        assert run_cli(argv, threads=threads) == 0
        bodies.append((out / "gap_sweep.csv").read_bytes())
    assert bodies[0] == bodies[1]
    assert hashlib.sha256(bodies[0]).hexdigest() == ALPHA_SCAN_SHA256


def test_cli_import_loads_no_sparse_linalg_or_csgraph():
    # each costs resident memory and import time on every workload
    # (scipy.sparse.linalg alone about 1.3 MiB); the oracle needs neither
    code = (
        "import sys, sbmlab.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.sparse.linalg', 'scipy.sparse.csgraph'))))"
    )
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _modules_after_main(argv: list[str]) -> list[str]:
    """Which of scipy.linalg and sbmlab.oracle a fresh main(argv) leaves loaded."""
    code = (
        "import json, sys; from sbmlab.cli import main; "
        "assert main(sys.argv[1:]) == 0, 'exit code'; "
        "print(json.dumps([m for m in ('scipy.linalg', 'sbmlab.oracle') if m in sys.modules]))"
    )
    result = run_fresh(code, *argv)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_gap_sweep_never_loads_the_dense_oracle(tmp_path):
    # the oracle and scipy.linalg cost a sweep process about 8 MiB of
    # resident memory and its start-up time, and no sweep calls them
    path = write_config(tmp_path, deep({"truncation": {"n_max": 2}}))
    argv = ["gap-sweep", "--config", path, "--out", str(tmp_path / "sweep")]
    assert _modules_after_main(argv) == []


def test_magnetization_theta_scan_never_loads_the_dense_oracle(tmp_path):
    # the theta mode reads only the sector solution; the bias scan needs the oracle
    path = write_config(tmp_path, deep({"truncation": {"n_max": 2}}))
    argv = ["magnetization-scan", "--config", path, "--out", str(tmp_path / "theta")]
    assert _modules_after_main(argv) == []


def test_oracle_check_loads_the_dense_oracle(tmp_path):
    # the counterpart of the test above: the module list it reads is live
    path = write_config(tmp_path, deep({"truncation": {"n_max": 2}}))
    assert _modules_after_main(["oracle-check", "--config", path]) == [
        "scipy.linalg",
        "sbmlab.oracle",
    ]


def test_gap_sweep_manifest_checksums(tmp_path):
    import hashlib

    data = deep({})
    out = tmp_path / "one"
    assert main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
    manifest = json.loads((out / "gap_sweep_manifest.json").read_text())
    body = (out / "gap_sweep.csv").read_bytes()
    assert manifest["files"]["gap_sweep.csv"] == hashlib.sha256(body).hexdigest()
    lines = body.decode().splitlines()[1:]
    assert manifest["row_checksums"] == [
        hashlib.sha256(line.encode()).hexdigest() for line in lines
    ]
    assert manifest["config"]["bath"]["s"] == 0.5
    assert len(manifest["row_wall_times"]) == len(lines)
    # every sector is solved by Davidson; dim 70 converges within max_iter
    header = body.decode().splitlines()[0].split(",")
    assert len(manifest["row_solvers"]) == len(lines)
    for line, solvers in zip(lines, manifest["row_solvers"]):
        cells = line.split(",")
        for sector, column in (("even", "residual_plus"), ("odd", "residual_minus")):
            record = solvers[sector]
            assert record == {
                "iterations": record["iterations"],
                "residual": float(cells[header.index(column)]),
                "converged": True,
            }
            assert 1 <= record["iterations"] <= manifest["config"]["solver"]["max_iter"]


# gap_sweep.csv columns: index, the config echo (every group field but the
# sweep's), then the results
GAP_SWEEP_COLUMNS = (
    "index",
    "delta",
    "epsilon",
    "s",
    "alpha",
    "omega_c",
    "Lambda",
    "N",
    "convention",
    "n_max",
    "tol",
    "max_iter",
    "E_plus0",
    "E_minus0",
    "gap",
    "prefactor",
    "sum_q_squared",
    "ground_parity",
    "residual_plus",
    "residual_minus",
    "status",
)


def test_gap_sweep_json_format_matches_csv(tmp_path):
    data = deep({"sweep": {"parameter": "alpha", "from": 0.1, "to": 0.3, "steps": 2}})
    path = write_config(tmp_path, data)
    out_csv, out_json = tmp_path / "csv", tmp_path / "json"
    assert main(["gap-sweep", "--config", path, "--out", str(out_csv)]) == 0
    assert main(["gap-sweep", "--config", path, "--out", str(out_json), "--format", "json"]) == 0
    header, body = read_csv(out_csv / "gap_sweep.csv")
    rows = json.loads((out_json / "gap_sweep.json").read_text())
    assert tuple(header) == GAP_SWEEP_COLUMNS
    assert all(tuple(row) == GAP_SWEEP_COLUMNS for row in rows)
    for csv_row, json_row in zip(body, rows):
        assert float(csv_row[header.index("gap")]) == json_row["gap"]
        assert csv_row[header.index("status")] == json_row["status"]


def test_gap_sweep_convention_override_changes_q(tmp_path):
    path_a = write_config(tmp_path, deep({}), "pq.yaml")
    mean_omega = deep({"discretization": {"convention": "mean-omega"}})
    path_b = write_config(tmp_path, mean_omega, "mo.yaml")
    out_a, out_b = tmp_path / "pq", tmp_path / "mo"
    assert main(["gap-sweep", "--config", path_a, "--out", str(out_a)]) == 0
    assert main(["gap-sweep", "--config", path_b, "--out", str(out_b)]) == 0
    header, body_a = read_csv(out_a / "gap_sweep.csv")
    _, body_b = read_csv(out_b / "gap_sweep.csv")
    qq = header.index("sum_q_squared")
    assert float(body_b[0][qq]) == pytest.approx(4 * float(body_a[0][qq]), rel=1e-12)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"model": {"delta": math.nan}}, "model.delta: expected a finite number, got nan"),
        ({"bath": {"alpha": math.nan}}, "bath.alpha: expected a finite number, got nan"),
        (
            {"model": {"delta": 10**400}},  # float() of it overflows
            "model.delta: expected a finite number, got 100000000000000000...0000000000000000000",
        ),
    ],
)
def test_gap_sweep_rejects_non_finite_config_numbers(tmp_path, capsys, overrides, message):
    out = tmp_path / "nan"
    path = write_config(tmp_path, deep(overrides))
    assert main(["gap-sweep", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_gap_sweep_rejects_epsilon(tmp_path):
    data = deep({"model": {"epsilon": 0.2}})
    assert main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_gap_sweep_rejects_workers_below_one(tmp_path, capsys, workers):
    out = tmp_path / "w"
    argv = ["gap-sweep", "--config", write_config(tmp_path, deep({})), "--out", str(out)]
    assert main(argv + ["--workers", workers]) == 2
    assert "config error: --workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_gap_sweep_pool_has_at_most_one_worker_per_point(tmp_path, monkeypatch):
    # the executor forks every worker at its first submit, so the pool
    # size must be capped by the sweep; this fake starts no process
    import sbmlab.cli

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(sbmlab.cli, "ProcessPoolExecutor", RecordingPool)
    data = deep({"sweep": {"parameter": "alpha", "from": 0.0, "to": 0.4, "steps": 3}})
    path = write_config(tmp_path, data)
    bodies = []
    for workers in ("1", "5000", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["gap-sweep", "--config", path, "--out", str(out), "--workers", workers]) == 0
        bodies.append((out / "gap_sweep.csv").read_bytes())
    assert sizes == [3, 2]
    assert bodies[0] == bodies[1] == bodies[2]
    # a single point is solved in this process whatever --workers says
    single = write_config(tmp_path, deep({}), "single.yaml")
    argv = ["gap-sweep", "--config", single, "--out", str(tmp_path / "one"), "--workers", "5000"]
    assert main(argv) == 0
    assert sizes == [3, 2]


def test_gap_sweep_capacity_exit(tmp_path):
    data = deep({"truncation": {"n_max": 99}})
    assert main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(tmp_path)]) == 3


def test_gap_sweep_oversize_operator_exits_capacity(tmp_path):
    # 4 modes at n_max 35: dim 82251 passes MAX_BASIS_DIM, its lowering
    # series (1.4e8 entries) does not pass MAX_OPERATOR_BYTES
    data = deep({"discretization": {"N": 3}, "truncation": {"n_max": 35}})
    out = tmp_path / "big"
    assert main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(out)]) == 3
    assert not (out / "gap_sweep.csv").exists()


def test_gap_sweep_underflow_over_operator_cap_is_an_accuracy_row(tmp_path):
    # the same oversize basis at alpha 200: sum q**2 = 535 underflows the
    # polaron factor, which no basis can repair, so the point is refused for
    # accuracy before its lowering series is sized, and the sweep writes it
    data = deep(
        {"bath": {"alpha": 200.0}, "discretization": {"N": 3}, "truncation": {"n_max": 35}}
    )
    out = tmp_path / "big"
    assert main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(out)]) == 1
    header, body = read_csv(out / "gap_sweep.csv")
    assert body[0][header.index("status")].startswith("accuracy-error: ")


def test_underflowed_point_is_refused_before_its_basis_is_enumerated(
    tmp_path, monkeypatch, capsys
):
    # 20 modes at s 0.1, alpha 0.3: log10 of the polaron factor is -33 746.
    # gap-sweep and the theta scan refuse the point before enumerating its
    # basis (dim 230 230 at n_max 6), also at n_max 8, where the basis
    # (dim 3.1e6) is over MAX_BASIS_DIM: no basis can solve the point in
    # double precision, so it is an accuracy refusal (exit 1), not exit 3
    def no_basis(*args):
        raise AssertionError("enumerate_basis was called for a refused point")

    monkeypatch.setattr("sbmlab.cli.enumerate_basis", no_basis)
    for n_max in (6, 8):
        data = deep(
            {
                "bath": {"s": 0.1, "alpha": 0.3},
                "discretization": {"N": 19},
                "truncation": {"n_max": n_max},
            }
        )
        path = write_config(tmp_path, data, f"nmax{n_max}.yaml")
        out = tmp_path / f"sweep{n_max}"
        assert main(["gap-sweep", "--config", path, "--out", str(out)]) == 1
        header, body = read_csv(out / "gap_sweep.csv")
        status = body[0][header.index("status")]
        assert status.startswith("accuracy-error: polaron factor exp(")
        assert "= 10^-33745.68 is below the normal double range" in status
        capsys.readouterr()
        argv = ["magnetization-scan", "--config", path, "--out", str(tmp_path / f"m{n_max}")]
        assert main(argv) == 1
        assert "invariant failure: polaron factor exp(" in capsys.readouterr().err


def test_gap_sweep_records_solver_failure_in_row(tmp_path):
    # dim 528: one Davidson iteration cannot reach tol, and the row must say
    # so without aborting the sweep
    data = deep(
        {
            "discretization": {"Lambda": 2.0, "N": 1},
            "truncation": {"n_max": 31},
            "solver": {"max_iter": 1},
        }
    )
    out = tmp_path / "fail"
    code = main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(out)])
    assert code == 4
    header, body = read_csv(out / "gap_sweep.csv")
    assert body[0][header.index("status")].startswith("solver-error")
    assert body[0][header.index("gap")] == "nan"
    # the even sector fails first, so the odd one is never attempted
    manifest = json.loads((out / "gap_sweep_manifest.json").read_text())
    (solvers,) = manifest["row_solvers"]
    assert list(solvers) == ["even"]
    failed = solvers["even"]
    assert failed == {"iterations": 1, "residual": failed["residual"], "converged": False}
    assert failed["residual"] > 1e-10


def test_gap_sweep_records_underflowed_prefactor_in_row(tmp_path):
    # s = 0.1, alpha = 0.3: the polaron factor is 1.4e-123 at N = 10, 4.1e-230
    # at N = 11 and 7.0e-429 at N = 12, where a double reads 0
    data = deep(
        {
            "bath": {"s": 0.1, "alpha": 0.3},
            "truncation": {"n_max": 1},
            "sweep": {"parameter": "N", "from": 10, "to": 12, "steps": 3},
        }
    )
    out = tmp_path / "underflow"
    code = main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(out)])
    assert code == 1
    header, body = read_csv(out / "gap_sweep.csv")
    assert [row[header.index("N")] for row in body] == ["10", "11", "12"]
    statuses = [row[header.index("status")] for row in body]
    # both factors are in double range, but far below the rounding of the energies
    assert all(status.startswith("unresolved-gap: ") for status in statuses[:2])
    assert statuses[2].startswith("accuracy-error: ")
    for column in ("E_plus0", "E_minus0", "gap"):
        assert body[2][header.index(column)] == "nan"
    assert body[2][header.index("prefactor")] == "0"
    manifest = json.loads((out / "gap_sweep_manifest.json").read_text())
    assert manifest["row_solvers"][2] == {}


def _strict_json(text: str):
    """json.loads that refuses NaN and +-Infinity, which are not JSON."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_gap_sweep_json_writes_missing_cells_as_null(tmp_path):
    # row N = 12 is an accuracy-error: its energies, gap and residuals are
    # NaN in the CSV and null in the JSON
    data = deep(
        {
            "bath": {"s": 0.1, "alpha": 0.3},
            "truncation": {"n_max": 1},
            "sweep": {"parameter": "N", "from": 10, "to": 12, "steps": 3},
        }
    )
    path = write_config(tmp_path, data)
    out_csv, out_json = tmp_path / "csv", tmp_path / "json"
    assert main(["gap-sweep", "--config", path, "--out", str(out_csv)]) == 1
    assert main(["gap-sweep", "--config", path, "--out", str(out_json), "--format", "json"]) == 1
    header, body = read_csv(out_csv / "gap_sweep.csv")
    rows = _strict_json((out_json / "gap_sweep.json").read_text())
    missing = ["E_plus0", "E_minus0", "gap", "residual_plus", "residual_minus"]
    assert [column for column, cell in zip(header, body[2]) if cell == "nan"] == missing
    assert [key for key, cell in rows[2].items() if cell is None] == missing
    assert rows[2]["ground_parity"] == 0
    assert rows[2]["status"].startswith("accuracy-error: ")
    assert all(cell is not None for row in rows[:2] for cell in row.values())
    manifest = _strict_json((out_json / "gap_sweep_manifest.json").read_text())
    assert manifest["row_checksums"] == [
        hashlib.sha256(json.dumps(row).encode()).hexdigest() for row in rows
    ]


# -------------------------------------------------------------- oracle-check


def test_oracle_check_passes_and_saves(tmp_path, capsys):
    out = tmp_path / "oc"
    code = main(
        ["oracle-check", "--config", write_config(tmp_path, deep({})), "--out", str(out)]
    )
    assert code == 0
    report = capsys.readouterr().out
    assert "parity broken: no" in report
    assert "result: pass" in report
    assert (out / "oracle_check.txt").read_text(encoding="utf-8") == report


def test_oracle_check_broken_parity(tmp_path, capsys):
    data = deep({"model": {"epsilon": 0.25}, "truncation": {"n_max": 3}})
    assert main(["oracle-check", "--config", write_config(tmp_path, data)]) == 0
    report = capsys.readouterr().out
    assert "parity broken: yes" in report
    assert "ground parity: mixed" in report


def test_oracle_check_diagonalises_once(tmp_path, monkeypatch):
    # one Householder reduction of H feeds both the spectrum partition and
    # the ground pair, and no dense eigensolver sees H itself
    import scipy.linalg

    reductions, solves = [], []
    real_dsytrd = scipy.linalg.lapack.dsytrd

    def dsytrd(a, *args, **kwargs):
        reductions.append(a.shape)
        return real_dsytrd(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dsytrd", dsytrd)
    for module in (scipy.linalg, np.linalg):
        for name in ("eigh", "eigvalsh"):
            real = getattr(module, name)

            def counted(a, *args, real=real, **kwargs):
                solves.append(a.shape)
                return real(a, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    H_shape = (2 * 70, 2 * 70)  # Fock dim C(8, 4) of the 4-mode base config at n_max 4
    for epsilon in (0.0, 0.25):
        reductions.clear()
        solves.clear()
        path = write_config(tmp_path, deep({"model": {"epsilon": epsilon}}))
        assert main(["oracle-check", "--config", path]) == 0
        assert reductions == [H_shape]
        assert H_shape not in solves


# sha256 of oracle_check.txt, each report written by a fresh interpreter at
# one OpenBLAS thread: the partition line's last digits depend on how BLAS
# splits the sums of the tridiagonal reduction over threads.
# - The two epsilon = 0.25 reports: the Fock-dim-462 one is hashed at the
#   commit before the oracle took its norms from a symmetric eigensolve and
#   its U and Pi products from sparse arrays, the small one after it (the
#   dense U products had left a unitarity defect of 2.4441574809578864e-16,
#   the sparse ones give 2.2204460492503131e-16).
# - The two epsilon = 0 reports are hashed after the partition check took
#   the spectrum of H from a values-only eigvalsh instead of a full eigh.
#   Only the partition line moved: 3.1086244689504383e-15 ->
#   3.9968028886505635e-15 at Fock dim 70 and 6.2172489379008766e-15 ->
#   1.1546319456101628e-14 at Fock dim 462, far below the check's 1e-9.
#   (At Fock dim 70 the sparse U products had earlier removed the dense
#   products' fused-multiply-add residues: unitarity 2.4441574809578874e-16
#   -> 2.2204460492503131e-16, off-diagonal block norm
#   4.1168440912929528e-16 -> 0, partition 2.55351295663786e-15 ->
#   3.1086244689504383e-15.)
ORACLE_SHA256 = [
    ({}, "7a0f3433931fce2fa65fbf303795b0927dedfaa76eaad820ef50a73c6d74269f"),
    (
        {"model": {"epsilon": 0.25}, "truncation": {"n_max": 3}},
        "8160e6a40d5aea7fc95544b8fd4fe6d938cf3720605d1d5f92fb1b8673c796df",
    ),
    (
        {"discretization": {"Lambda": 2.0, "N": 5}, "truncation": {"n_max": 5}},
        "43a13bea45f00e45957da322c14ce6001cbdbbb5ba0935c93af7030d5cf60168",
    ),
    (
        {
            "model": {"epsilon": 0.25},
            "discretization": {"Lambda": 2.0, "N": 5},
            "truncation": {"n_max": 5},
        },
        "8160e6a40d5aea7fc95544b8fd4fe6d938cf3720605d1d5f92fb1b8673c796df",
    ),
]


@pytest.mark.parametrize("overrides, sha256", ORACLE_SHA256)
def test_oracle_check_report_bytes(tmp_path, overrides, sha256):
    out = tmp_path / "oc"
    argv = ["oracle-check", "--config", write_config(tmp_path, deep(overrides)), "--out", str(out)]
    assert run_cli(argv) == 0
    assert hashlib.sha256((out / "oracle_check.txt").read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("epsilon", [0.0, 0.25])
def test_oracle_check_memory_stays_below_two_dense_hamiltonians(tmp_path, capsys, epsilon):
    # Fock dim 462: H is sparse and only one LAPACK input at a time is dense,
    # so the traced peak stays near one dense 924 x 924 H (1.08x measured;
    # 4.1x when H, its eigenvectors and the commutator were dense).  A second
    # dense H or a full eigendecomposition (2.0x) breaks the bound, and so
    # would a copy of the reflector block of the one reduction of H, which
    # at epsilon != 0 ground_parity alone pays for.
    import tracemalloc

    data = deep(
        {
            "model": {"epsilon": epsilon},
            "discretization": {"Lambda": 2.0, "N": 5},
            "truncation": {"n_max": 5},
        }
    )
    path = write_config(tmp_path, data)
    dense_bytes = (2 * 462) ** 2 * 8
    tracemalloc.start()
    try:
        assert main(["oracle-check", "--config", path]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "result: pass" in capsys.readouterr().out
    assert peak < 2 * dense_bytes


def test_oracle_check_capacity(tmp_path):
    data = deep({"truncation": {"n_max": 40}})  # C(44,4) far beyond the dense cap
    assert main(["oracle-check", "--config", write_config(tmp_path, data)]) == 3


def test_oracle_check_degenerate_spectrum_is_invariant_failure(tmp_path):
    # tunneling below the degeneracy floor leaves the two parity ground
    # states unresolvable, which the parity classifier must flag
    data = deep(
        {
            "model": {"delta": 1e-13},
            "discretization": {"Lambda": 2.0, "N": 2},
            "truncation": {"n_max": 2},
        }
    )
    assert main(["oracle-check", "--config", write_config(tmp_path, data)]) == 1


def test_oracle_check_unresolved_gap_at_huge_tunneling(tmp_path, capsys):
    # delta = 1e160 puts H beyond LAPACK's safe range, so it is rescaled
    # before its reduction, and leaves the O(1) gap far below the rounding
    # of the two lowest eigenvalues: an invariant failure, not a solver one
    data = deep(
        {"model": {"delta": 1.0e160}, "discretization": {"N": 1}, "truncation": {"n_max": 3}}
    )
    assert main(["oracle-check", "--config", write_config(tmp_path, data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invariant failure: dense ground state numerically degenerate")


# ----------------------------------------------------------- verify-appendix


def test_verify_appendix_grid(tmp_path, capsys):
    out = tmp_path / "proofs"
    code = main(
        ["verify-appendix", "--N", "1", "2", "3", "--n-max", "1", "2", "3", "4", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("holds") == 12
    manifest = json.loads((out / "verify_appendix_manifest.json").read_text())
    assert manifest["all_hold"] is True
    assert len(manifest["files"]) == 24  # txt + json per pair
    blob = json.loads((out / "appendix_N2_nmax4.json").read_text())
    assert blob["holds"] is True and blob["monomial_count"] == 15


def test_verify_appendix_monomial_count_example(tmp_path, capsys):
    out = tmp_path / "p25"
    assert main(["verify-appendix", "--N", "2", "--n-max", "5", "--out", str(out)]) == 0
    assert "monomials=21" in capsys.readouterr().out


def test_verify_appendix_usage_errors(capsys):
    assert main(["verify-appendix", "--N", "--n-max", "1"]) == 2
    assert main(["verify-appendix", "--N", "1"]) == 2
    capsys.readouterr()


# sha256 of every report file; the N=5, n_max=7 pair is also pinned in
# perfbench/reference.json
APPENDIX_SHA256 = {
    "appendix_N1_nmax1.json": "aa43c18b3108d4609e82540c6fbfab571352c41679cca75d7c19d6e54efa0578",
    "appendix_N1_nmax1.txt": "0bd75f3946f36ff7142d124b27f9bc859b86fe361bd68607a8faf8dc3560a935",
    "appendix_N1_nmax2.json": "194c0ba993a6374586ec402b50a03c7011cccc2ca23f2e90566aa9053726e3ca",
    "appendix_N1_nmax2.txt": "a8f85a77a8be6dd86753d7edff232165b91960962824201dd92cfbdaae168f06",
    "appendix_N1_nmax3.json": "f813d0c494e054b9a73127ee26fb678cc276a391645580aae404b77a060f1885",
    "appendix_N1_nmax3.txt": "536ba245bb07d47f097c1c112ff865afd3c469d665ae66d6937ad63e7b184a35",
    "appendix_N1_nmax4.json": "9323b48855162bed27bc31b20ac4cf3b7417c99c8b3212c5ea4db4f1a309f083",
    "appendix_N1_nmax4.txt": "7773d3e7548c2b99f2dee44f9c9faa5a335434036094be6ceea0806c6eb4c947",
    "appendix_N2_nmax1.json": "f287f7ca4baf4300f37e0defdb775591d66ed954014c93370ff068c72df22ca2",
    "appendix_N2_nmax1.txt": "077e9fd0f3ba6e582ff8e8dd81fbb2abc7ec9ae0f5c4ab776f3985629a888fc9",
    "appendix_N2_nmax2.json": "cab0c3e7fac60c4ba41a3ab0af47acd4249a55e7828095600d877205db78e7f0",
    "appendix_N2_nmax2.txt": "b6d28547fc206f96eac4b555a132335a70ff79b819bd47fb262113f2f99e45ad",
    "appendix_N2_nmax3.json": "adacbe70516ebd6cbd083176705c4d867ff964187b390bb555c6452ac0b9ba02",
    "appendix_N2_nmax3.txt": "cb63b5c20e5343fd8469e81e02dd09462faab4e27c08087309143178c6ee35f9",
    "appendix_N2_nmax4.json": "1055a46ff43b6175f913e0458d302a6e82c46782649c86ed377264a611e2181b",
    "appendix_N2_nmax4.txt": "ae50e42f25d136b36ef2a601c2b7a6dbf16ee06d6f3ac315644967923c60b385",
    "appendix_N3_nmax1.json": "298bceaba987ae1ebd4c353586903524d19ec9a5184572e865a670bcf0e11784",
    "appendix_N3_nmax1.txt": "105037359fba1351ed782bbaad20182e4a51dcce5694013ebe481e5f742ad1ee",
    "appendix_N3_nmax2.json": "6b3b5c4ea064bb54850d4cfa165a8642f9e0ae4e5ef5c5762a9701c1202514b4",
    "appendix_N3_nmax2.txt": "0dccf8c73d127131e15618a198f3dfe2a46d86f1657feba77a69f50ed31a9c66",
    "appendix_N3_nmax3.json": "982148d9fa17496f31c4c93c7c7d699efefb36936bb445099a0a9ab47098c8f0",
    "appendix_N3_nmax3.txt": "5a799bbb3639c0445d550699d63495781d7cff32076e88bbf3f63930df10d9ee",
    "appendix_N3_nmax4.json": "0957f76797c06b4505646609e76c19dc56b7afc19482735184d9dee3b096d867",
    "appendix_N3_nmax4.txt": "ad7cc02575d19199099e7673f97123fd072ceca54c4281863b7f3167d7e84ae7",
    "appendix_N5_nmax7.json": "28a61d0ab82d9cf21247ad28f094f31487396608837f7af3f883081e94d3c1a9",
    "appendix_N5_nmax7.txt": "8fee95ab4903d6d9d6e975c72ef0bd776555ae7ab8b48b3a85937de1cb06a71f",
}


def test_verify_appendix_report_bytes(tmp_path, capsys):
    out = tmp_path / "proofs"
    grid = ["--N", "1", "2", "3", "--n-max", "1", "2", "3", "4"]
    assert main(["verify-appendix", *grid, "--out", str(out)]) == 0
    assert main(["verify-appendix", "--N", "5", "--n-max", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.glob("appendix_*")
    }
    assert written == APPENDIX_SHA256


@pytest.mark.parametrize(
    "grid, flag",
    [(["--N", "2", "2", "--n-max", "3"], "--N"), (["--N", "2", "--n-max", "3", "1", "3"], "--n-max")],
)
def test_verify_appendix_rejects_a_repeated_size(tmp_path, capsys, grid, flag):
    # one proof and one file set per distinct (N, n_max) pair
    out = tmp_path / "p"
    assert main(["verify-appendix", *grid, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"config error: {flag} repeats a value, got " in capsys.readouterr().err


def test_verify_appendix_capacity(tmp_path):
    out = tmp_path / "unused"
    assert main(["verify-appendix", "--N", "6", "--n-max", "20", "--out", str(out)]) == 3
    assert not out.exists()
    # a refused size anywhere in the grid refuses the whole run up front
    grid = ["--N", "1", "6", "--n-max", "2", "20"]
    assert main(["verify-appendix", *grid, "--out", str(out)]) == 3
    assert not out.exists()


# -------------------------------------------------------- magnetization-scan


def test_magnetization_theta_mode(tmp_path):
    out = tmp_path / "mg"
    path = write_config(tmp_path, deep({}))
    assert main(["magnetization-scan", "--config", path, "--out", str(out), "--theta-steps", "9"]) == 0
    header, body = read_csv(out / "magnetization_theta.csv")
    assert header == ["theta", "magnetization"]
    grid = {float(r[0]): float(r[1]) for r in body}
    assert grid[0.0] == 0.0
    assert abs(grid[min(grid, key=lambda t: abs(t - math.pi / 2))]) < 1e-12
    overlap = json.loads((out / "magnetization_manifest.json").read_text())["overlap"]
    quarter = min(grid, key=lambda t: abs(t - math.pi / 4))
    assert grid[quarter] == pytest.approx(-overlap, rel=1e-12)


def test_magnetization_epsilon_mode_antisymmetric(tmp_path):
    out = tmp_path / "mge"
    data = deep({"discretization": {"Lambda": 2.0, "N": 2}, "truncation": {"n_max": 3}})
    path = write_config(tmp_path, data)
    code = main(
        [
            "magnetization-scan",
            "--config",
            path,
            "--out",
            str(out),
            "--epsilon-steps",
            "7",
            "--epsilon-max",
            "0.6",
        ]
    )
    assert code == 0
    _, body = read_csv(out / "magnetization_epsilon.csv")
    values = [float(r[1]) for r in body]
    assert abs(values[3]) < 1e-10  # grid midpoint is epsilon = 0
    for left, right in zip(values[:3], values[:3:-1]):
        assert left == pytest.approx(-right, abs=1e-10)


def test_magnetization_epsilon_mode_matches_full_eigh(tmp_path, monkeypatch):
    import sbmlab.cli
    import sbmlab.oracle

    calls = []
    real = sbmlab.oracle.dense_spectrum

    def counted(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(sbmlab.oracle, "dense_spectrum", counted)
    out = tmp_path / "mge"
    path = write_config(tmp_path, deep({"truncation": {"n_max": 3}}))
    argv = ["magnetization-scan", "--config", path, "--out", str(out), "--epsilon-steps", "11"]
    assert main(argv) == 0
    assert calls == []

    cfg = load_config(path)
    bath = discretize(cfg.bath, cfg.discretization)
    basis = enumerate_basis(bath.mode_count, cfg.truncation.n_max)
    _, body = read_csv(out / "magnetization_epsilon.csv")
    assert len(body) == 11
    for eps, sigma_z in body:
        model = assemble_full(ModelParams(cfg.model.delta, float(eps)), bath, basis)
        psi = np.linalg.eigh(model.hamiltonian.toarray())[1][:, 0]
        reference = psi[: basis.dim] @ psi[: basis.dim] - psi[basis.dim :] @ psi[basis.dim :]
        assert abs(float(sigma_z) - reference) <= 1e-12


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["--epsilon-steps", "0"], "--epsilon-steps"),
        (["--epsilon-steps", "1"], "--epsilon-steps"),
        (["--theta-steps", "0"], "--theta-steps"),
        (["--theta-steps", "1"], "--theta-steps"),
        (["--epsilon-steps", "5", "--epsilon-max", "-0.5"], "--epsilon-max"),
        (["--epsilon-steps", "5", "--epsilon-max", "0"], "--epsilon-max"),
        (["--epsilon-steps", "5", "--epsilon-max", "nan"], "--epsilon-max"),
        (["--epsilon-steps", "5", "--epsilon-max", "inf"], "--epsilon-max"),
    ],
)
def test_magnetization_scan_rejects_bad_grid_flags(tmp_path, capsys, flags, flag):
    out = tmp_path / "mg"
    argv = ["magnetization-scan", "--config", write_config(tmp_path, deep({})), "--out", str(out)]
    assert main(argv + flags) == 2
    assert f"config error: {flag} must be" in capsys.readouterr().err
    assert not out.exists()


def test_magnetization_theta_mode_rejects_epsilon(tmp_path):
    data = deep({"model": {"epsilon": 0.2}})
    assert main(["magnetization-scan", "--config", write_config(tmp_path, data)]) == 2


# ------------------------------------------------------------------ discretize


def test_discretize_dump_matches_library(tmp_path):
    out = tmp_path / "dz"
    cfg = parse_config(deep({}))
    path = write_config(tmp_path, deep({}))
    assert main(["discretize", "--config", path, "--out", str(out)]) == 0
    header, body = read_csv(out / "modes.csv")
    assert header == ["k", "omega", "lam", "q"]
    bath = discretize(cfg.bath, cfg.discretization)
    assert len(body) == bath.mode_count
    for k, row in enumerate(body):
        assert int(row[0]) == k
        assert float(row[1]) == bath.omega[k]
        assert float(row[2]) == bath.lam[k]
        assert float(row[3]) == bath.q[k]


# -------------------------------------------------------------- output files


def _command_argv(command: str, tmp_path, out) -> list[str]:
    config = ["--config", write_config(tmp_path, deep({}))]
    return {
        "fig1": ["fig1", "--N-max", "3"],
        "gap-sweep": ["gap-sweep", *config],
        "oracle-check": ["oracle-check", *config],
        "verify-appendix": ["verify-appendix", "--N", "1", "2", "--n-max", "2"],
        "magnetization-scan": ["magnetization-scan", *config, "--theta-steps", "3"],
        "discretize": ["discretize", *config],
    }[command] + ["--out", str(out)]


@pytest.mark.parametrize(
    "command, manifest_name",
    [
        ("fig1", "fig1_manifest.json"),
        ("gap-sweep", "gap_sweep_manifest.json"),
        ("oracle-check", "oracle_check_manifest.json"),
        ("verify-appendix", "verify_appendix_manifest.json"),
        ("magnetization-scan", "magnetization_manifest.json"),
        ("discretize", "discretize_manifest.json"),
    ],
)
def test_every_command_writes_its_files_and_a_manifest_of_them(
    tmp_path, capsys, command, manifest_name
):
    out = tmp_path / "out"
    assert main(_command_argv(command, tmp_path, out)) == 0
    capsys.readouterr()
    manifest = json.loads((out / manifest_name).read_text(encoding="utf-8"))
    assert manifest["command"] == command
    assert manifest["tool"] == {"name": "sbmlab", "version": __version__}
    assert list(manifest)[:2] == ["command", "tool"]
    assert manifest["files"]
    for name, sha256 in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha256
    written = sorted(path.name for path in out.iterdir())
    assert written == sorted([*manifest["files"], manifest_name])


def test_parser_flags_per_subcommand():
    import argparse

    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: sorted(
            option
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        )
        for name, sub in subcommands.choices.items()
    }
    assert flags == {
        "fig1": ["--Lambda", "--N-max", "--out", "--s"],
        "gap-sweep": ["--config", "--format", "--out", "--workers"],
        "oracle-check": ["--config", "--out"],
        "verify-appendix": ["--N", "--n-max", "--out"],
        "magnetization-scan": [
            "--config",
            "--epsilon-max",
            "--epsilon-steps",
            "--out",
            "--theta-steps",
        ],
        "discretize": ["--config", "--out"],
    }
    assert sum(map(len, flags.values())) == 20


# ---------------------------------------------------------- shipped configs

GAP_VS_MODES = ROOT / "scripts" / "configs" / "gap_vs_modes.yaml"

# gap_sweep.csv of scripts/configs/gap_vs_modes.yaml at one OpenBLAS thread
GAP_VS_MODES_SHA256 = "2df48b6f1ea3aa9ec1c8f2482f57771ead81950c9222bddbb155ce869b08bee8"
# the same at sweep.to 12 and n_max 1, whose unresolved-gap and
# accuracy-error rows (NaN cells) pin the failure branches of a sweep point
GAP_VS_MODES_TO_12_SHA256 = "67f02fa68bdeb7024695c1bd37557c571dd631d5fc2e68c62fefa71f20e37895"
# gap_sweep.csv of scripts/configs/alpha_scan.yaml at one OpenBLAS thread
ALPHA_SCAN_SHA256 = "0152ba77b993950d895319872d9baee5f97a735fc0080fdc1c5200bfbadaa4c7"


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
def test_shipped_config_loads_and_expands_its_sweep(path):
    cfg = load_config(str(path))
    points = cfg.expand_sweep()
    # every point is a valid config of its own, one per sweep value
    assert len(points) == cfg.sweep.steps == len(set(points)) > 1


def test_gap_vs_modes_config_bytes(tmp_path):
    out = tmp_path / "modes"
    # rows N = 7 and 8 are unresolved-gap, so the sweep exits 1
    assert run_cli(["gap-sweep", "--config", str(GAP_VS_MODES), "--out", str(out)]) == 1
    data = (out / "gap_sweep.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GAP_VS_MODES_SHA256


def test_gap_vs_modes_config_reports_underflowed_point_with_reason(tmp_path):
    import yaml

    data = yaml.safe_load(GAP_VS_MODES.read_text())
    data["sweep"].update({"to": 12, "steps": 13})
    data["truncation"]["n_max"] = 1
    out = tmp_path / "modes"
    assert run_cli(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(out)]) == 1
    sha256 = hashlib.sha256((out / "gap_sweep.csv").read_bytes()).hexdigest()
    assert sha256 == GAP_VS_MODES_TO_12_SHA256
    header, body = read_csv(out / "gap_sweep.csv")
    statuses = [row[header.index("status")] for row in body]
    assert statuses[:7] == ["ok"] * 7
    # from N = 7 on the gap is below the rounding of the energies, and the
    # reason names the factor by its log
    for row, status in zip(body[7:12], statuses[7:12]):
        log10_factor = -2.0 * float(row[header.index("sum_q_squared")]) / math.log(10)
        assert status == (
            f"unresolved-gap: gap 0.000e+00 is below the rounding of the sector energies "
            f"(1e-12 of their size); polaron factor 10^{log10_factor:.2f}"
        )
        assert row[header.index("ground_parity")] == "0"
    last = body[12]
    assert last[header.index("N")] == "12"
    # the factor exp(-2 sum q**2) = 7.0e-429, named by its log in the reason
    log10_factor = -2.0 * float(last[header.index("sum_q_squared")]) / math.log(10)
    assert log10_factor == pytest.approx(-428.15, abs=0.005)
    assert statuses[12] == (
        "accuracy-error: polaron factor exp(-985.862) = 10^-428.15 is below the normal "
        "double range; D cannot be formed in double precision"
    )
    assert last[header.index("prefactor")] == "0"


# ------------------------------------------------------------- count caps


def _grid_argv(case: str, tmp_path, out) -> list[str]:
    huge = str(10**15)  # a grid of this many points would not fit in memory
    if case == "fig1":
        return ["fig1", "--out", str(out), "--N-max", huge, "--s", "1.0"]
    if case == "gap-sweep":
        sweep = {"parameter": "alpha", "from": 0.0, "to": 0.5, "steps": int(huge)}
        path = write_config(tmp_path, deep({"sweep": sweep}))
        return ["gap-sweep", "--config", path, "--out", str(out)]
    flag = {"theta": "--theta-steps", "epsilon": "--epsilon-steps"}[case]
    path = write_config(tmp_path, deep({}))
    return ["magnetization-scan", "--config", path, "--out", str(out), flag, huge]


@pytest.mark.parametrize("case", ["fig1", "gap-sweep", "theta", "epsilon"])
def test_grid_over_the_cap_is_refused_before_it_is_built(tmp_path, capsys, case):
    import tracemalloc

    out = tmp_path / "out"
    argv = _grid_argv(case, tmp_path, out)
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert f"exceeds the maximum {MAX_GRID_POINTS}" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 2**20


def test_grid_of_max_grid_points_is_accepted(tmp_path):
    assert len(Sweep("alpha", 0.0, 0.5, MAX_GRID_POINTS).values()) == MAX_GRID_POINTS
    with pytest.raises(CapacityError, match=f"sweep.steps = {MAX_GRID_POINTS + 1} exceeds"):
        Sweep("alpha", 0.0, 0.5, MAX_GRID_POINTS + 1)
    out = tmp_path / "fig"
    argv = ["fig1", "--out", str(out), "--N-max", str(MAX_GRID_POINTS), "--s", "1.0"]
    assert main(argv) == 0
    assert len(read_csv(out / "fig1_data.csv")[1]) == MAX_GRID_POINTS + 1


# ------------------------------------------------------------------ version


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_version_is_declared_once():
    # pyproject.toml reads the version from sbmlab.__version__
    from setuptools.config.pyprojecttoml import read_configuration

    path = ROOT / "pyproject.toml"
    declared = read_configuration(path, expand=False)["project"]
    assert "version" not in declared and declared["dynamic"] == ["version"]
    assert read_configuration(path)["project"]["version"] == __version__
