import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sbmlab.bath import Convention, beta0, discretize, sum_q_squared
from sbmlab import __version__
from sbmlab.cli import _csv, build_parser, main
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
from sbmlab.fockspace import BasisEnumeration, enumerate_basis
from sbmlab.oracle import assemble_full, ground_sigma_z
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
        (deep({"solver": {"tol": 0}}), "solver: residual tolerance must be positive"),
        (deep({"solver": {"tol": -1e-9}}), "solver: residual tolerance must be positive"),
        (deep({"solver": {"max_iter": 0}}), "iteration budget must be a positive integer"),
        (
            deep({"sweep": {"parameter": "alpha", "from": 0, "to": 1, "steps": 0}}),
            "sweep: steps must be a positive integer",
        ),
        (
            deep(
                {"sweep": {"parameter": "alpha", "from": 0, "to": 1, "steps": 2, "scale": "cubic"}}
            ),
            "scale must be 'linear' or 'log'",
        ),
        (deep({"model": 3}), "model: expected a mapping, got int"),
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
    # the polaron factor exp(-2 sum q**2) falls where sum_q_squared grows
    sum_q2 = [float(r[header.index("sum_q_squared")]) for r in body]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert all(b > a for a, b in zip(sum_q2, sum_q2[1:]))


def test_gap_sweep_delta_antisymmetry(tmp_path):
    data = deep(
        {"sweep": {"parameter": "delta", "from": -0.6, "to": 0.6, "steps": 4}}
    )
    out = tmp_path / "dsweep"
    assert main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
    header, body = read_csv(out / "gap_sweep.csv")
    # delta < 0 puts the odd sector lowest, which is no wrong sign
    assert [r[header.index("ground_parity")] for r in body] == ["-1", "-1", "1", "1"]
    assert {r[header.index("status")] for r in body} == {"ok"}
    gaps = [float(r[header.index("gap")]) for r in body]
    assert gaps[0] == pytest.approx(-gaps[3], abs=1e-10)
    assert gaps[1] == pytest.approx(-gaps[2], abs=1e-10)
    # negating delta swaps the two sectors, which leaves their overlap alone
    overlaps = [float(r[header.index("parity_overlap")]) for r in body]
    assert overlaps[0] == pytest.approx(overlaps[3], abs=1e-12)
    assert overlaps[1] == pytest.approx(overlaps[2], abs=1e-12)


def test_gap_sweep_refuses_a_wrong_sign_gap(tmp_path, monkeypatch):
    # for delta > 0 the untruncated ground state is even: a sector pair whose
    # results are swapped puts the odd energy lowest, which proves that the
    # even sector's truncation error exceeds the gap
    import sbmlab.cli
    from sbmlab.sectors import solve_sectors

    def swapped(*args):
        even, odd = solve_sectors(*args)
        return odd, even

    monkeypatch.setattr(sbmlab.cli, "solve_sectors", swapped)
    data = deep({"sweep": {"parameter": "delta", "from": -0.6, "to": 0.6, "steps": 2}})
    out = tmp_path / "swapped"
    assert main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(out)]) == 1
    header, body = read_csv(out / "gap_sweep.csv")
    for row, lowest in zip(body, ("odd", "even")):
        gap = float(row[header.index("gap")])
        assert row[header.index("status")] == (
            f"truncation-error: gap {gap:.3e} has the wrong sign for delta "
            f"{float(row[header.index('delta')]):g}; the {lowest} sector's truncation error "
            f"exceeds {abs(gap):.3e}"
        )


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
    # (scipy.sparse.linalg alone about 1.3 MiB); the oracle needs neither,
    # and only a sweep with --workers > 1 needs the process pool
    code = (
        "import sys, sbmlab.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.sparse.linalg', 'scipy.sparse.csgraph', "
        "'concurrent.futures.process'))))"
    )
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _modules_after_main(argv: list[str]) -> list[str]:
    """Which of scipy.linalg, scipy.sparse.linalg and sbmlab.oracle a fresh main(argv) leaves loaded."""
    code = (
        "import json, sys; from sbmlab.cli import main; "
        "assert main(sys.argv[1:]) == 0, 'exit code'; "
        "print(json.dumps([m for m in ('scipy.linalg', 'scipy.sparse.linalg', 'sbmlab.oracle') "
        "if m in sys.modules]))"
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


def test_oracle_check_loads_the_dense_oracle(tmp_path):
    # the counterpart of the test above: the module list it reads is live;
    # the ground pair's Lanczos solve needs scipy.sparse.linalg
    path = write_config(tmp_path, deep({"truncation": {"n_max": 2}}))
    assert _modules_after_main(["oracle-check", "--config", path]) == [
        "scipy.linalg",
        "scipy.sparse.linalg",
        "sbmlab.oracle",
    ]


def test_magnetization_epsilon_scan_loads_sparse_linalg(tmp_path):
    path = write_config(tmp_path, deep({"truncation": {"n_max": 2}}))
    argv = ["magnetization-scan", "--config", path, "--out", str(tmp_path / "eps")]
    assert _modules_after_main(argv + ["--epsilon-steps", "3"]) == [
        "scipy.linalg",
        "scipy.sparse.linalg",
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
                "untruncated_residual": record["untruncated_residual"],
            }
            assert 1 <= record["iterations"] <= manifest["config"]["solver"]["max_iter"]
            assert 0.0 < record["untruncated_residual"] <= manifest["config"]["model"]["delta"] / 2


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
    "sum_q_squared",
    "ground_parity",
    "parity_overlap",
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


def test_gap_sweep_rejects_epsilon(tmp_path, capsys):
    # the sector path's own precondition refuses the first point, in a
    # worker process too, before any file is written
    sweep = {"parameter": "delta", "from": 0.3, "to": 0.6, "steps": 2}
    data = deep({"model": {"epsilon": 0.2}, "sweep": sweep})
    config = write_config(tmp_path, data)
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        argv = ["gap-sweep", "--config", config, "--out", str(out), "--workers", workers]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "config error: sector decomposition requires epsilon = 0; got epsilon=0.2 "
            "(use the full-space oracle instead)\n"
        )
        assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_gap_sweep_rejects_workers_below_one(tmp_path, capsys, workers):
    out = tmp_path / "w"
    argv = ["gap-sweep", "--config", write_config(tmp_path, deep({})), "--out", str(out)]
    assert main(argv + ["--workers", workers]) == 2
    assert "config error: --workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_gap_sweep_pool_has_at_most_one_worker_per_point(tmp_path, monkeypatch):
    # the executor forks every worker at its first submit, so the pool
    # size must be capped by the sweep and by the usable cores, here a
    # fixed two; this fake starts no process
    import concurrent.futures

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

    # _run_sweep imports the executor where it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    data = deep({"sweep": {"parameter": "alpha", "from": 0.0, "to": 0.4, "steps": 3}})
    path = write_config(tmp_path, data)

    def sweep(config: str, workers: str, name: str) -> bytes:
        out = tmp_path / name
        assert main(["gap-sweep", "--config", config, "--out", str(out), "--workers", workers]) == 0
        return (out / "gap_sweep.csv").read_bytes()

    bodies = [sweep(path, workers, f"w{workers}") for workers in ("1", "5000", "2")]
    assert sizes == [2, 2]
    # where there is no affinity mask, os.cpu_count() gives the cores
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    bodies.append(sweep(path, "5000", "eight-cores"))
    assert sizes == [2, 2, 3]
    # one core, or a single point, is solved in this process whatever --workers says
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    bodies.append(sweep(path, "5000", "one-core"))
    assert len(set(bodies)) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    sweep(write_config(tmp_path, deep({}), "single.yaml"), "5000", "one-point")
    assert sizes == [2, 2, 3]


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


def test_gap_sweep_refuses_an_occupation_array_over_the_cap(tmp_path, capsys, monkeypatch):
    # 10**5 modes at n_max 1: dim 100001 is far inside MAX_BASIS_DIM, but the
    # int64 occupations would take 80 GB.  s > 1 keeps sum q**2 finite, so the
    # polaron check passes, and Lambda near 1 keeps every omega_k normal.
    # The bath's 10**5-mode tuples dominate the run's own peak (about 12
    # MiB), so the peak is taken over the refused enumeration alone.
    import tracemalloc

    import sbmlab.sectors

    peaks = []

    def traced(mode_count, n_max):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return enumerate_basis(mode_count, n_max)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(sbmlab.sectors, "enumerate_basis", traced)
    data = deep(
        {
            "bath": {"s": 1.5, "alpha": 0.2},
            "discretization": {"Lambda": 1.005, "N": 10**5 - 1},
            "truncation": {"n_max": 1},
        }
    )
    path, out = write_config(tmp_path, data), tmp_path / "wide"
    tracemalloc.start()
    try:
        code = main(["gap-sweep", "--config", path, "--out", str(out)])
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "capacity error: the occupation array of 100000 modes at n_max=1 (dim 100001) "
        "takes 80000800000 bytes"
    )
    assert not out.exists()
    assert len(peaks) == 1 and peaks[0] < 2**20


def test_oversize_operator_leaves_no_partial_pattern(tmp_path):
    # with its basis (2.6 MB) already in the one-slot memo, the refused
    # point allocates nothing of its over-cap series, and the basis keeps
    # no ladder map or pattern for it
    import tracemalloc

    enumerate_basis.cache_clear()
    basis = enumerate_basis(4, 35)
    data = deep({"discretization": {"N": 3}, "truncation": {"n_max": 35}})
    path, out = write_config(tmp_path, data), tmp_path / "big"
    tracemalloc.start()
    try:
        code = main(["gap-sweep", "--config", path, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 2**20
    assert enumerate_basis(4, 35) is basis
    assert "lowering_pattern" not in vars(basis) and "_ladder_maps" not in vars(basis)


def test_sweep_builds_a_basis_and_its_pattern_once_per_mode_count(tmp_path, monkeypatch):
    # an alpha sweep changes only q, so its points share one basis and one
    # pattern per mode; an N sweep needs a new one at every point
    built = {"bases": 0, "patterns": []}
    init, factor_pattern = BasisEnumeration.__init__, BasisEnumeration._factor_pattern

    def counted_init(self, mode_count, n_max):
        built["bases"] += 1
        init(self, mode_count, n_max)

    def counted_pattern(self, k, indptr):
        built["patterns"].append(k)
        return factor_pattern(self, k, indptr)

    monkeypatch.setattr(BasisEnumeration, "__init__", counted_init)
    monkeypatch.setattr(BasisEnumeration, "_factor_pattern", counted_pattern)
    enumerate_basis.cache_clear()

    def sweep(name: str, parameter: str, start, stop, steps: int) -> None:
        sweep = {"parameter": parameter, "from": start, "to": stop, "steps": steps}
        path = write_config(tmp_path, deep({"sweep": sweep}), f"{name}.yaml")
        assert main(["gap-sweep", "--config", path, "--out", str(tmp_path / name)]) == 0

    sweep("alpha", "alpha", 0.1, 0.3, 4)  # 4 modes at every point
    assert built == {"bases": 1, "patterns": [0, 1, 2, 3]}
    sweep("modes", "N", 0, 2, 3)  # 1, 2 and 3 modes
    assert built == {"bases": 4, "patterns": [0, 1, 2, 3, 0, 0, 1, 0, 1, 2]}
    assert enumerate_basis.cache_info().currsize <= 1


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


def test_underflowed_point_is_refused_before_its_basis_is_enumerated(tmp_path, monkeypatch):
    # 20 modes at s 0.1, alpha 0.3: log10 of the polaron factor is -33 746.
    # gap-sweep refuses the point before enumerating its basis (dim 230 230
    # at n_max 6), also at n_max 8, where the basis (dim 3.1e6) is over
    # MAX_BASIS_DIM: no basis can solve the point in double precision, so it
    # is an accuracy refusal (exit 1), not exit 3
    def no_basis(*args):
        raise AssertionError("enumerate_basis was called for a refused point")

    monkeypatch.setattr("sbmlab.sectors.enumerate_basis", no_basis)
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
    assert manifest["row_gap_identity"] == [None]


def test_gap_sweep_row_that_exhausts_the_basis_is_an_accuracy_error(tmp_path, monkeypatch):
    # one mode with q^2 = 4 (omega 1, lambda 2): at n_max 24 the Davidson
    # search space spans the basis with the residual at its rounding floor,
    # 2.8e-10 > tol; past the 40-vector restart (n_max 40) the solve runs
    # out of iterations instead and stays a solver failure; either way the
    # manifest keeps the even solve's diagnostics.  With every energy times
    # 1e-200 or 1e200 the pair is built from the same numbers in units of
    # omega_c, and the diagnostics are still absolute energies
    import sbmlab.cli
    from sbmlab.bath import DiscretizedBath

    floor = "accuracy-error: davidson solve of the even sector has best residual "
    for unit in (1.0, 1e-200, 1e200):
        mode = DiscretizedBath.from_modes((unit,), (2.0 * unit,))
        monkeypatch.setattr(sbmlab.cli, "discretize", lambda spec, disc: mode)
        exhausted = f"{floor}{2.814e-10 * unit:.3e}"
        for n_max, code, status in ((24, 1, exhausted), (40, 4, "solver-error: ")):
            data = deep(
                {
                    "model": {"delta": 0.5 * unit},
                    "bath": {"omega_c": unit},
                    "discretization": {"N": 0},
                    "truncation": {"n_max": n_max},
                }
            )
            out = tmp_path / f"unit{unit:g}-nmax{n_max}"
            path = write_config(tmp_path, data, f"unit{unit:g}-nmax{n_max}.yaml")
            assert main(["gap-sweep", "--config", path, "--out", str(out)]) == code
            header, body = read_csv(out / "gap_sweep.csv")
            assert len(body[0]) == len(header)
            assert body[0][header.index("status")].startswith(status)
            manifest = json.loads((out / "gap_sweep_manifest.json").read_text())
            assert list(manifest["row_solvers"][0]) == ["even"]
            even = manifest["row_solvers"][0]["even"]
            assert list(even) == ["iterations", "residual", "converged"]
            assert even["converged"] is False
            if n_max == 24:
                assert even["iterations"] == 25
                assert 2.81e-10 < even["residual"] / unit < 2.82e-10
            else:
                assert even["iterations"] == 500
                assert even["residual"] / unit > 1e-10


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
    for column in ("E_plus0", "E_minus0", "gap", "parity_overlap"):
        assert body[2][header.index(column)] == "nan"
    manifest = json.loads((out / "gap_sweep_manifest.json").read_text())
    assert manifest["row_solvers"][2] == {}
    # the identity gives the unresolved rows their gap, delta times the
    # factor to within the coupling's O(q^2) corrections at n_max 1; the
    # refused row has none
    identities = manifest["row_gap_identity"]
    for row, identity in zip(body[:2], identities):
        factor = -2.0 * float(row[header.index("sum_q_squared")]) / math.log(10.0)
        assert identity["sign"] == 1
        assert abs(identity["log10_abs_gap"] - (math.log10(0.4) + factor)) < 1e-6
    assert identities[2] is None


def test_gap_sweep_manifest_records_the_identity_gap(tmp_path):
    # s 0.1, alpha 0.3, delta 0.5, n_max 2: at N = 3 the subtraction resolves
    # the gap and the identity agrees with it; at N = 8 the subtraction reads
    # 0 (unresolved-gap), and the identity gives 10^-35.492474719, which a
    # 50-digit eigensolve confirms (test_sectors)
    data = deep(
        {
            "model": {"delta": 0.5},
            "bath": {"s": 0.1, "alpha": 0.3},
            "truncation": {"n_max": 2},
            "sweep": {"parameter": "N", "from": 3, "to": 8, "steps": 2},
        }
    )
    out = tmp_path / "identity"
    assert main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(out)]) == 1
    header, body = read_csv(out / "gap_sweep.csv")
    assert [row[header.index("N")] for row in body] == ["3", "8"]
    resolved, unresolved = body
    manifest = _strict_json((out / "gap_sweep_manifest.json").read_text())
    first, second = manifest["row_gap_identity"]
    assert resolved[header.index("status")] == "ok"
    assert first["sign"] == 1
    gap = float(resolved[header.index("gap")])
    assert first["log10_abs_gap"] == pytest.approx(math.log10(gap), abs=1e-9)
    assert unresolved[header.index("status")].startswith("unresolved-gap: gap 0.000e+00")
    assert second["sign"] == 1
    assert second["log10_abs_gap"] == pytest.approx(-35.492474719, abs=1e-8)


@pytest.mark.parametrize("omega_c", [1e-300, 1e-160, 1e-100, 1e-7, 1e7, 1e100, 1e155, 1e300])
def test_gap_sweep_does_not_depend_on_the_energy_unit(tmp_path, omega_c):
    # alpha_scan.yaml with every energy in units of omega_c: the unit is
    # divided out where the sector pair is built, so each row solves the
    # same numbers and takes the same steps.  With tol and the
    # preconditioner clamp absolute, omega_c 1e7 (N 3, n_max 4) was a
    # solver-error row (best residual 3.8e-9 after 102 iterations); with
    # only those two scaled, squared residual entries underflowed at 1e-160
    # (E/omega_c off by 0.065) and (delta/2)^2 overflowed at 1e155.
    import yaml

    rows, solvers = {}, {}
    for unit in (1.0, omega_c):
        data = yaml.safe_load((ROOT / "scripts" / "configs" / "alpha_scan.yaml").read_text())
        data["model"]["delta"] = 0.5 * unit
        data["bath"]["omega_c"] = unit
        out = tmp_path / f"unit{unit:g}"
        argv = ["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(out)]
        assert main(argv) == 0
        header, body = read_csv(out / "gap_sweep.csv")
        assert [row[header.index("status")] for row in body] == ["ok"] * 11
        columns = [header.index("E_plus0"), header.index("E_minus0")]
        rows[unit] = np.array([[float(row[c]) / unit for c in columns] for row in body])
        manifest = json.loads((out / "gap_sweep_manifest.json").read_text())
        solvers[unit] = [
            [record[sector]["iterations"] for sector in ("even", "odd")]
            for record in manifest["row_solvers"]
        ]
    assert np.abs(rows[omega_c] - rows[1.0]).max() <= 1e-13
    assert np.abs(np.subtract(solvers[omega_c], solvers[1.0])).max() <= 2


def test_gap_sweep_names_coinciding_sectors_at_zero_delta(tmp_path):
    data = deep({"model": {"delta": 0.0}})
    out = tmp_path / "zero"
    assert main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(out)]) == 1
    header, body = read_csv(out / "gap_sweep.csv")
    assert body[0][header.index("status")] == (
        "unresolved-gap: gap 0.000e+00 is below the rounding of the sector energies "
        "(1e-12 of their size); the sectors coincide at delta 0"
    )


def _strict_json(text: str):
    """json.loads that refuses NaN and +-Infinity, which are not JSON."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_gap_sweep_json_writes_missing_cells_as_null(tmp_path):
    # row N = 12 is an accuracy-error: its energies, gap, parity overlap and
    # residuals are NaN in the CSV and null in the JSON
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
    missing = ["E_plus0", "E_minus0", "gap", "parity_overlap", "residual_plus", "residual_minus"]
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


def test_oracle_check_and_bias_scan_build_rotation_and_parity_once(tmp_path, monkeypatch):
    # U and Pi are cached on the FullModel: oracle-check builds each of them
    # once, and the bias scan builds Pi once, for its commutator certificate
    import sbmlab.oracle

    built = []
    read_only = sbmlab.oracle._read_only

    def counted(matrix):
        built.append("U" if abs(matrix.data).max() < 1.0 else "Pi")
        return read_only(matrix)

    monkeypatch.setattr(sbmlab.oracle, "_read_only", counted)
    path = write_config(tmp_path, {**SMALL_SCAN, "model": {"delta": 0.5}})
    assert main(["oracle-check", "--config", path]) == 0
    assert sorted(built) == ["Pi", "U"]
    built.clear()
    argv = ["magnetization-scan", "--config", path, "--out", str(tmp_path / "scan")]
    assert main(argv + ["--epsilon-steps", "5"]) == 0
    assert built == ["Pi"]


def test_oracle_check_broken_parity(tmp_path, capsys):
    data = deep({"model": {"epsilon": 0.25}, "truncation": {"n_max": 3}})
    assert main(["oracle-check", "--config", write_config(tmp_path, data)]) == 0
    report = capsys.readouterr().out
    assert "parity broken: yes" in report
    assert "ground parity: mixed" in report


def spy_dense_solves(monkeypatch) -> list:
    """(solver, shape, values only) of each array passed to any numpy or scipy eigh/eigvalsh."""
    import scipy.linalg

    solves = []
    for module in (scipy.linalg, np.linalg):
        for name in ("eigh", "eigvalsh"):
            real = getattr(module, name)
            solver = f"{module.__name__}.{name}"

            def counted(a, *args, real=real, name=name, solver=solver, **kwargs):
                values_only = name == "eigvalsh" or kwargs.get("eigvals_only", False)
                solves.append((solver, a.shape, values_only))
                return real(a, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return solves


# H of the 4-mode base config at n_max 4: Fock dim C(8, 4), two spin blocks
H_SHAPE = (2 * 70, 2 * 70)


def test_oracle_check_runs_no_dense_eigensolver(tmp_path, monkeypatch):
    # the spectrum partition at epsilon = 0 is a bound from sparse norms and
    # the parity label's ground pair comes from Lanczos on the sparse H, so
    # no numpy or scipy eigh or eigvalsh runs at either epsilon
    solves = spy_dense_solves(monkeypatch)
    for epsilon in (0.0, 0.25):
        path = write_config(tmp_path, deep({"model": {"epsilon": epsilon}}))
        assert main(["oracle-check", "--config", path]) == 0
        assert solves == []


# sha256 of oracle_check.txt, each report written by a fresh interpreter at
# one OpenBLAS thread (no line depends on the count since the partition
# line became a bound from sparse norms; see the two-thread test below).
# - The two epsilon = 0.25 reports: the Fock-dim-462 one is hashed at the
#   commit before the oracle took its norms from a symmetric eigensolve and
#   its U and Pi products from sparse arrays, the small one after it (the
#   dense U products had left a unitarity defect of 2.4441574809578864e-16,
#   the sparse ones give 2.2204460492503131e-16).  Neither prints a
#   partition line, so the bound left both unchanged.
# - The two epsilon = 0 reports are hashed after the partition check
#   became oracle.partition_bound, a bound from sparse norms instead of
#   three dense spectra.  Only that line moved, from
#   "spectrum partition max deviation: 3.9968028886505635e-15" to
#   "spectrum partition bound: 5.706650277177412e-15" at Fock dim 70 and
#   from "...max deviation: 1.1546319456101628e-14" (one thread; two gave
#   other digits) to "...bound: 6.9704342149537506e-15" at Fock dim 462,
#   both far below the check's 1e-9.  Earlier, the deviation had moved
#   3.1086244689504383e-15 -> 3.9968028886505635e-15 at dim 70 and
#   6.2172489379008766e-15 -> 1.1546319456101628e-14 at dim 462 when the
#   spectrum of H came from a values-only eigvalsh instead of a full eigh,
#   and at dim 70 the sparse U products had removed the dense products'
#   fused-multiply-add residues (unitarity 2.4441574809578874e-16 ->
#   2.2204460492503131e-16, off-diagonal block norm 4.1168440912929528e-16
#   -> 0, deviation 2.55351295663786e-15 -> 3.1086244689504383e-15).
ORACLE_SHA256 = [
    ({}, "c3908c523170fb1ed9117c3feb913729c3424defcf47fda7e80d99045b64fa6c"),
    (
        {"model": {"epsilon": 0.25}, "truncation": {"n_max": 3}},
        "8160e6a40d5aea7fc95544b8fd4fe6d938cf3720605d1d5f92fb1b8673c796df",
    ),
    (
        {"discretization": {"Lambda": 2.0, "N": 5}, "truncation": {"n_max": 5}},
        "5c3fe2ff3d0566956bce07cc0995c14c8e08f4f9d6feff3f285e5bcdd134c66f",
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


# the checks benchmark's oracle-check at seed 0: 6 modes at n_max 6, Fock dim 924
CHECKS_ORACLE = {
    "model": {"delta": 0.5},
    "bath": {"s": 0.1, "alpha": 0.25, "omega_c": 1.0},
    "discretization": {"Lambda": 2.0, "N": 5},
    "truncation": {"n_max": 6},
}


def test_oracle_check_report_bytes_independent_of_blas_threads(tmp_path):
    # at Fock dim 924 the partition line read 2.4868995751603507e-14 at one
    # OpenBLAS thread and 2.1316282072803006e-14 at two while it came from
    # dense spectra; the bound from sparse norms uses no BLAS
    path = write_config(tmp_path, CHECKS_ORACLE)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        assert run_cli(["oracle-check", "--config", path, "--out", str(out)], threads) == 0
        reports.append((out / "oracle_check.txt").read_text(encoding="utf-8"))
    assert reports[0] == reports[1]
    assert "spectrum partition bound: " in reports[0] and "result: pass" in reports[0]


@pytest.mark.parametrize("epsilon", [0.0, 0.25])
def test_oracle_check_memory_stays_below_two_dense_hamiltonians(tmp_path, capsys, epsilon):
    # Fock dim 462: H, the rotation U H U' and its blocks are sparse and
    # nothing forms a dense array at either epsilon: the partition is a
    # bound from sparse norms and the ground pair comes from Lanczos on the
    # sparse H.  So the traced peak stays a small fraction of one dense
    # 924 x 924 H at either epsilon.
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
    # the Lanczos solve's first import of scipy.sparse.linalg allocates about
    # 0.45 of dense_bytes, once per process and at any size: not traced here
    import scipy.sparse.linalg  # noqa: F401

    tracemalloc.start()
    try:
        assert main(["oracle-check", "--config", path]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "result: pass" in capsys.readouterr().out
    assert peak < 0.25 * dense_bytes


def test_oracle_check_capacity(tmp_path, monkeypatch, capsys):
    # the one size limit is assemble_full's cap on the bytes its build of H
    # holds at its peak
    import sbmlab.oracle

    monkeypatch.setattr(sbmlab.oracle, "MAX_OPERATOR_BYTES", 10_000)
    out = tmp_path / "oc"
    path = write_config(tmp_path, deep({}))  # Fock dim 70: 25 256 bytes as CSR
    assert main(["oracle-check", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("capacity error: the full H of 4 modes at n_max=4 (Fock dim 70)")
    assert "above the cap MAX_OPERATOR_BYTES = 10000" in err
    assert not out.exists()


def test_assemble_full_peaks_within_the_cap_at_the_largest_size_it_accepts(
    tmp_path, monkeypatch, capsys
):
    # the cap counts what the build of H holds at its peak, not only the
    # finished CSR arrays, which the build once held 4.3 times over.  With
    # the cap set to that count at 6 modes, n_max 8 (Fock dim 3003), the
    # traced peak of a build on a fresh basis, whose ladder maps it builds,
    # stays under the cap; n_max 9 is refused before anything is allocated,
    # and the bias scan exits 3
    import re
    import tracemalloc

    import sbmlab.oracle

    data = {**CHECKS_ORACLE, "truncation": {"n_max": 8}}
    cfg = parse_config(data)
    bath = discretize(cfg.bath, cfg.discretization)
    monkeypatch.setattr(sbmlab.oracle, "MAX_OPERATOR_BYTES", 0)
    with pytest.raises(CapacityError) as refused:
        assemble_full(cfg.model, bath, BasisEnumeration(6, 8))
    cap = int(re.search(r"(\d+) bytes at the peak of its build", str(refused.value))[1])
    monkeypatch.setattr(sbmlab.oracle, "MAX_OPERATOR_BYTES", cap)
    basis, bigger = BasisEnumeration(6, 8), BasisEnumeration(6, 9)
    tracemalloc.start()
    try:
        assert assemble_full(cfg.model, bath, basis).enumeration.dim == 3003
        accepted_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(CapacityError):
            assemble_full(cfg.model, bath, bigger)
        refused_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert accepted_peak <= cap
    assert refused_peak < 2**14
    path = write_config(tmp_path, {**data, "truncation": {"n_max": 9}})
    out = tmp_path / "scan"
    argv = ["magnetization-scan", "--config", path, "--epsilon-steps", "3", "--out", str(out)]
    assert main(argv) == 3
    assert "bytes at the peak of its build, above the cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epsilon", [0.0, 0.3])
def test_oracle_check_verdicts_do_not_depend_on_the_energy_unit(tmp_path, capsys, epsilon):
    # the same model with every energy in units 1e7 times smaller: the
    # partition bound read 5.889e-08 and the commutator deviation 9.31e-10
    # there, which absolute thresholds of 1e-9 and 1e-10 failed.  Only the
    # lines that carry the unit may differ, and then only in their value.
    reports = []
    for unit in (1.0, 1.0e7):
        data = {
            "model": {"delta": 0.5 * unit, "epsilon": epsilon * unit},
            "bath": {"s": 0.1, "alpha": 0.25, "omega_c": unit},
            "discretization": {"Lambda": 2.0, "N": 3},
            "truncation": {"n_max": 4},
        }
        path = write_config(tmp_path, data, name=f"unit{unit:g}.yaml")
        assert main(["oracle-check", "--config", path]) == 0
        reports.append(capsys.readouterr().out.splitlines())
    assert reports[0][-1] == "result: pass"
    with_unit = ("epsilon", "commutator norm vs |epsilon|", "spectrum partition bound")
    for one, scaled in zip(*reports, strict=True):
        name = one.split(": ")[0]
        assert scaled.split(": ")[0] == name
        if name not in with_unit:
            assert scaled == one


def _ground_parity_config(tmp_path, delta: float, n_max: int) -> str:
    data = {
        **CHECKS_ORACLE,
        "model": {"delta": delta},
        "discretization": {"Lambda": 2.0, "N": 6},
        "truncation": {"n_max": n_max},
    }
    return write_config(tmp_path, data, name=f"parity_{delta}_{n_max}.yaml")


def test_oracle_check_fails_a_ground_parity_of_the_wrong_sign(tmp_path, capsys):
    # 7 modes (s 0.1, alpha 0.25, delta 0.5): at n_max 6 (Fock dim 1716)
    # the truncated odd sector lies below the even one, though the
    # untruncated ground state is even for delta > 0; at n_max 5 it does not
    assert main(["oracle-check", "--config", _ground_parity_config(tmp_path, 0.5, 6)]) == 1
    report = capsys.readouterr().out
    assert "ground parity: -1\n" in report
    assert report.endswith(
        "ground parity check: failed (-1 at delta 0.5, where the untruncated ground "
        "state is +1: a truncation error)\nresult: fail\n"
    )
    assert main(["oracle-check", "--config", _ground_parity_config(tmp_path, 0.5, 5)]) == 0
    assert capsys.readouterr().out.endswith("ground parity: +1\nresult: pass\n")
    # delta -> -delta exchanges the sectors, and -1 is expected
    assert main(["oracle-check", "--config", _ground_parity_config(tmp_path, -0.5, 5)]) == 0
    assert capsys.readouterr().out.endswith("ground parity: -1\nresult: pass\n")
    assert main(["oracle-check", "--config", _ground_parity_config(tmp_path, -0.5, 6)]) == 1
    assert "failed (+1 at delta -0.5, where the untruncated ground state is -1" in (
        capsys.readouterr().out
    )


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
    # delta = 1e160 puts H beyond LAPACK's safe range, so the Lanczos solve
    # scales it by a power of two first, and leaves the O(1) gap far below
    # the rounding of the two lowest eigenvalues: an invariant failure, not
    # a solver one
    data = deep(
        {"model": {"delta": 1.0e160}, "discretization": {"N": 1}, "truncation": {"n_max": 3}}
    )
    assert main(["oracle-check", "--config", write_config(tmp_path, data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invariant failure: full-H ground state numerically degenerate")


def test_oracle_check_unresolved_gap_at_huge_bias(tmp_path, capsys):
    # epsilon = 1e155 is a valid config: the commutator [H, Pi] has one
    # entry per row and column, so its norm is its largest entry, |epsilon|,
    # with no square that could overflow; the O(1) gap of the
    # spin-down block is far below the rounding of eigenvalues of size 1e155
    data = deep(
        {
            "model": {"epsilon": 1.0e155},
            "bath": {"s": 0.5, "alpha": 0.1},
            "discretization": {"N": 1},
            "truncation": {"n_max": 2},
        }
    )
    assert main(["oracle-check", "--config", write_config(tmp_path, data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invariant failure: full-H ground state numerically degenerate")


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


def test_verify_appendix_usage_errors(tmp_path, capsys):
    assert main(["verify-appendix", "--N", "--n-max", "1"]) == 2
    assert main(["verify-appendix", "--N", "1"]) == 2
    capsys.readouterr()
    for sizes, message in (
        (["--N", "0", "--n-max", "1"], "need at least one mode, got N=0"),
        (["--N", "1", "--n-max", "0"], "need n_max >= 1, got n_max=0"),
    ):
        out = tmp_path / "proof"
        assert main(["verify-appendix", *sizes, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


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
    manifest = json.loads((out / "magnetization_manifest.json").read_text())
    fields = ["command", "tool", "config", "files", "wall_time_seconds", "epsilon_max"]
    assert list(manifest) == fields
    assert manifest["epsilon_max"] == 0.6
    for left, right in zip(values[:3], values[:3:-1]):
        assert left == pytest.approx(-right, abs=1e-10)


def test_magnetization_epsilon_mode_matches_full_eigh(tmp_path):
    out = tmp_path / "mge"
    path = write_config(tmp_path, deep({"truncation": {"n_max": 3}}))
    argv = ["magnetization-scan", "--config", path, "--out", str(out), "--epsilon-steps", "11"]
    assert main(argv) == 0

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
        (["--epsilon-steps", "-3"], "--epsilon-steps"),
        (["--epsilon-steps", "5", "--epsilon-max", "1e400"], "--epsilon-max"),
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


def test_magnetization_scan_requires_epsilon_steps(tmp_path, capsys):
    out = tmp_path / "mg"
    argv = ["magnetization-scan", "--config", write_config(tmp_path, deep({})), "--out", str(out)]
    assert main(argv) == 2
    assert "the following arguments are required: --epsilon-steps" in capsys.readouterr().err
    assert not out.exists()


def test_magnetization_epsilon_mode_rejects_model_epsilon(tmp_path, capsys):
    # the scan sets epsilon from its grid, so a configured bias would be ignored
    out = tmp_path / "mg"
    path = write_config(tmp_path, deep({"model": {"epsilon": 0.3}}))
    argv = ["magnetization-scan", "--config", path, "--out", str(out), "--epsilon-steps", "3"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: the bias scan takes epsilon from its grid; model.epsilon must be 0, got 0.3\n"
    )
    assert not out.exists()


def test_magnetization_epsilon_mode_forms_no_dense_hamiltonian(tmp_path, monkeypatch):
    # each grid point's ground state comes from Lanczos on the sparse H:
    # no dense eigensolver sees H
    solves = spy_dense_solves(monkeypatch)
    path = write_config(tmp_path, deep({}))
    argv = ["magnetization-scan", "--config", path, "--out", str(tmp_path / "mge")]
    assert main(argv + ["--epsilon-steps", "5"]) == 0
    assert [shape for _, shape, _ in solves if shape == H_SHAPE] == []


def test_magnetization_epsilon_scan_bytes_do_not_depend_on_earlier_solves(tmp_path):
    # ARPACK draws its own start vector from a state that every solve
    # advances; the scan's fixed start vector makes each cell a function of H
    import scipy.sparse
    import scipy.sparse.linalg

    path = write_config(tmp_path, deep({}))
    argv = ["magnetization-scan", "--config", path, "--epsilon-steps", "11", "--out"]
    assert main(argv + [str(tmp_path / "first")]) == 0
    unrelated = scipy.sparse.diags_array(np.arange(1.0, 201.0), format="csr")
    scipy.sparse.linalg.eigsh(unrelated, k=1, which="SA")
    assert main(argv + [str(tmp_path / "second")]) == 0
    first, second = (
        (tmp_path / run / "magnetization_epsilon.csv").read_bytes() for run in ("first", "second")
    )
    assert first == second


def test_magnetization_epsilon_scan_reports_lanczos_non_convergence(tmp_path, capsys, monkeypatch):
    import scipy.sparse.linalg

    def stalled(A, *args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.empty(0), np.empty((A.shape[0], 0))
        )

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
    out = tmp_path / "mge"
    path = write_config(tmp_path, deep({}))
    argv = ["magnetization-scan", "--config", path, "--out", str(out), "--epsilon-steps", "3"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("solver error: lanczos ground state of the full H (size 140)")
    assert "No convergence" in err
    assert not out.exists()


# N 2, n_max 3, s 0.5, alpha 0.2 (Fock dim 10) with delta set per test
SMALL_SCAN = {
    "bath": {"s": 0.5, "alpha": 0.2, "omega_c": 1.0},
    "discretization": {"Lambda": 2.0, "N": 2},
    "truncation": {"n_max": 3},
}


@pytest.mark.parametrize("delta", [0.0, 1e-12])
def test_magnetization_scan_refuses_a_degenerate_zero_bias_ground_state(tmp_path, capsys, delta):
    # the ground pair is degenerate to rounding, and Lanczos returned
    # sigma_z(0) = 0.48195 at delta 0 and -4.4e-5 at delta 1e-12, both
    # written with exit 0; symmetry makes a nondegenerate sigma_z(0) vanish
    out = tmp_path / "scan"
    path = write_config(tmp_path, {**SMALL_SCAN, "model": {"delta": delta}})
    argv = ["magnetization-scan", "--config", path, "--epsilon-steps", "3", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("invariant failure: sigma_z ")
    assert err.endswith(f"at epsilon 0 is not 0: the ground state at delta {delta:g} is "
                        "numerically degenerate\n")
    assert not out.exists()


def test_magnetization_scan_bytes_at_a_resolved_zero_bias_ground_state(tmp_path):
    out = tmp_path / "scan"
    path = write_config(tmp_path, {**SMALL_SCAN, "model": {"delta": 0.5}})
    argv = ["magnetization-scan", "--config", path, "--epsilon-steps", "3", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256((out / "magnetization_epsilon.csv").read_bytes()).hexdigest() == (
        "f8dd12bbfdf2fd7e6b54fdf617cb76b2c86e0ca2bc2d5d8cee07699b42af37e4"
    )


def test_magnetization_scan_puts_an_exact_zero_mid_grid(tmp_path, capsys):
    # linspace(-0.9, 0.9, 7) has -1.1e-16 in the middle: no epsilon 0 row,
    # so the degenerate curve at delta 0 was written with exit 0
    flags = ["--epsilon-steps", "7", "--epsilon-max", "0.9", "--out"]
    out = tmp_path / "resolved"
    path = write_config(tmp_path, {**SMALL_SCAN, "model": {"delta": 0.5}})
    assert main(["magnetization-scan", "--config", path, *flags, str(out)]) == 0
    _, body = read_csv(out / "magnetization_epsilon.csv")
    assert body[3][0] == "0"
    out = tmp_path / "degenerate"
    path = write_config(tmp_path, {**SMALL_SCAN, "model": {"delta": 0.0}})
    assert main(["magnetization-scan", "--config", path, *flags, str(out)]) == 1
    assert "at epsilon 0 is not 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("steps,epsilon_max", [(7, 0.9), (8, 0.7), (11, 1.0)])
def test_magnetization_scan_grid_and_curve_are_exactly_odd(tmp_path, steps, epsilon_max):
    # linspace alone is antisymmetric only to an ulp; the scan mirrors its
    # epsilon >= 0 half, so cell i is cell steps - 1 - i with both signs flipped
    out = tmp_path / "scan"
    path = write_config(tmp_path, {**SMALL_SCAN, "model": {"delta": 0.5}})
    argv = ["magnetization-scan", "--config", path, "--out", str(out),
            "--epsilon-steps", str(steps), "--epsilon-max", str(epsilon_max)]
    assert main(argv) == 0
    _, body = read_csv(out / "magnetization_epsilon.csv")
    assert len(body) == steps
    assert float(body[-1][0]) == epsilon_max
    for i in range(steps // 2):
        (eps, sigma_z), (eps_mirror, sigma_z_mirror) = body[i], body[steps - 1 - i]
        assert float(eps) == -float(eps_mirror) < 0.0
        assert float(sigma_z) == -float(sigma_z_mirror)
    if steps % 2:
        assert body[steps // 2][0] == "0"
    assert all("-0" not in (eps, sigma_z) for eps, sigma_z in body)


@pytest.mark.parametrize("steps,solves", [(11, 6), (8, 4), (3, 2)])
def test_magnetization_scan_solves_only_nonnegative_bias(tmp_path, monkeypatch, steps, solves):
    # and assembles H once: every solved point is that H moved by with_bias
    import scipy.sparse.linalg

    import sbmlab.oracle

    calls, assemblies = [], []
    eigsh = scipy.sparse.linalg.eigsh
    assemble = sbmlab.oracle.assemble_full

    def spy(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    def assemble_spy(*args):
        assemblies.append(args)
        return assemble(*args)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    monkeypatch.setattr(sbmlab.oracle, "assemble_full", assemble_spy)
    out = tmp_path / "scan"
    path = write_config(tmp_path, {**SMALL_SCAN, "model": {"delta": 0.5}})
    argv = ["magnetization-scan", "--config", path, "--out", str(out),
            "--epsilon-steps", str(steps)]
    assert main(argv) == 0
    assert calls == [1] * solves
    assert len(assemblies) == 1


def test_magnetization_scan_refuses_an_h_that_breaks_parity(tmp_path, monkeypatch, capsys):
    # the vacuum's first V entry in the up block changed by an ulp: Pi
    # H(epsilon) Pi is no longer H(-epsilon), so no half can be mirrored
    import dataclasses

    import sbmlab.oracle

    assemble = sbmlab.oracle.assemble_full

    def broken(*args):
        model = assemble(*args)
        H = model.hamiltonian
        data = H.data.copy()
        data[1] = np.nextafter(data[1], np.inf)
        H = type(H)((data, H.indices, H.indptr), shape=H.shape)
        return dataclasses.replace(model, hamiltonian=H)

    monkeypatch.setattr(sbmlab.oracle, "assemble_full", broken)
    out = tmp_path / "scan"
    path = write_config(tmp_path, {**SMALL_SCAN, "model": {"delta": 0.5}})
    argv = ["magnetization-scan", "--config", path, "--out", str(out), "--epsilon-steps", "5"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(
        "invariant failure: the assembled H does not commute with the parity at epsilon 0"
    )
    assert not out.exists()


# the checks benchmark's bias scan at seed 0: 6 modes at n_max 5, Fock dim 462
CHECKS_SCAN = {
    "model": {"delta": 0.5},
    "bath": {"s": 0.1, "alpha": 0.25, "omega_c": 1.0},
    "discretization": {"Lambda": 2.0, "N": 5},
    "truncation": {"n_max": 5},
}


def test_checks_sized_epsilon_scan_matches_full_eigh(tmp_path):
    # at epsilon = 0 the true value is 0, and the tunneling gap of 2.2e-3
    # amplifies rounding in every solver; elsewhere the gap is about 0.05.
    # The epsilon < 0 cells are mirrored from epsilon > 0, so each is also
    # checked against a Lanczos solve of its own
    out = tmp_path / "mge"
    path = write_config(tmp_path, CHECKS_SCAN)
    argv = ["magnetization-scan", "--config", path, "--out", str(out), "--epsilon-steps", "11"]
    assert main(argv) == 0

    cfg = load_config(path)
    bath = discretize(cfg.bath, cfg.discretization)
    basis = enumerate_basis(bath.mode_count, cfg.truncation.n_max)
    assert basis.dim == 462
    _, body = read_csv(out / "magnetization_epsilon.csv")
    assert len(body) == 11
    for eps, sigma_z in body:
        if float(eps) == 0.0:
            assert abs(float(sigma_z)) <= 1e-11
            continue
        model = assemble_full(ModelParams(cfg.model.delta, float(eps)), bath, basis)
        psi = np.linalg.eigh(model.hamiltonian.toarray())[1][:, 0]
        reference = psi[: basis.dim] @ psi[: basis.dim] - psi[basis.dim :] @ psi[basis.dim :]
        assert abs(float(sigma_z) - reference) <= 1e-14
        if float(eps) < 0.0:
            assert abs(float(sigma_z) - ground_sigma_z(model)) <= 1e-14


@pytest.mark.parametrize("threads", ["1", "2"])
def test_checks_sized_epsilon_scan_bytes(tmp_path, threads):
    out = tmp_path / "mge"
    path = write_config(tmp_path, CHECKS_SCAN)
    argv = ["magnetization-scan", "--config", path, "--out", str(out), "--epsilon-steps", "11"]
    assert run_cli(argv, threads=threads) == 0
    assert hashlib.sha256((out / "magnetization_epsilon.csv").read_bytes()).hexdigest() == (
        "92726d03ba2f7683a1c110740d1365ad4e5d1f83242c8e746bfb12a023f1b526"
    )


@pytest.mark.parametrize("threads", ["1", "2"])
def test_magnetization_csv_bytes(tmp_path, threads):
    # the bias scan of the base config (Fock dim 70)
    out = tmp_path / "mg"
    path = write_config(tmp_path, deep({}))
    argv = ["magnetization-scan", "--config", path, "--out", str(out), "--epsilon-steps", "11"]
    assert run_cli(argv, threads=threads) == 0
    assert hashlib.sha256((out / "magnetization_epsilon.csv").read_bytes()).hexdigest() == (
        "cd0361858c1ee58b666c5e8fe12c55ffc54b064c3c6fcd47ee0c46720e583f6b"
    )


@pytest.mark.parametrize("threads", ["1", "2"])
def test_parity_overlap_rebuilds_the_theta_csv(tmp_path, threads):
    # magnetization-scan's former theta mode wrote M(theta) = -sin(2 theta)
    # <phi+|phi-> of the base config on linspace(0, pi, 9); the gap-sweep
    # cell gives back the bytes of that file, whose sha256 was pinned
    out = tmp_path / "g"
    argv = ["gap-sweep", "--config", write_config(tmp_path, deep({})), "--out", str(out)]
    assert run_cli(argv, threads=threads) == 0
    header, body = read_csv(out / "gap_sweep.csv")
    overlap = float(body[0][header.index("parity_overlap")])
    thetas = np.linspace(0.0, math.pi, 9)
    text = _csv(["theta", "magnetization"], [(t, -math.sin(2 * t) * overlap) for t in thetas])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2363bddff43de768b40fbfe165197b8aff642506c72ee5b720b4972af44d2af5"
    )


def test_bias_scan_runs_past_the_dense_cap(tmp_path, capsys):
    # 8 modes at n_max 6, Fock dim 3003, past the Fock-dim-2000 cap that
    # oracle-check kept while it formed dense arrays: the scan and the
    # check both hold only the CSR H (about 0.9 MB)
    data = deep({"discretization": {"N": 7}, "truncation": {"n_max": 6}})
    path = write_config(tmp_path, data)
    out = tmp_path / "mge"
    argv = ["magnetization-scan", "--config", path, "--out", str(out), "--epsilon-steps", "3"]
    assert main(argv) == 0
    _, body = read_csv(out / "magnetization_epsilon.csv")
    (low, low_m), (mid, mid_m), (high, high_m) = [(float(e), float(m)) for e, m in body]
    assert (low, mid, high) == (-1.0, 0.0, 1.0)
    assert abs(mid_m) <= 1e-12
    assert abs(low_m + high_m) <= 1e-12
    assert 0.9 < low_m < 1.0
    capsys.readouterr()
    oracle_out = tmp_path / "oc"
    assert main(["oracle-check", "--config", path, "--out", str(oracle_out)]) == 0
    report = (oracle_out / "oracle_check.txt").read_text(encoding="utf-8")
    assert "spectrum partition bound: " in report
    assert report.endswith("ground parity: +1\nresult: pass\n")


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
    # the polaron factor is named by sum_q_squared alone, which no underflow flushes
    manifest = json.loads((out / "discretize_manifest.json").read_text())
    assert list(manifest) == ["command", "tool", "config", "files", "sum_q_squared"]
    assert manifest["sum_q_squared"] == sum_q_squared(bath)


# -------------------------------------------------------------- output files


def _command_argv(command: str, tmp_path, out) -> list[str]:
    config = ["--config", write_config(tmp_path, deep({}))]
    return {
        "fig1": ["fig1", "--N-max", "3"],
        "gap-sweep": ["gap-sweep", *config],
        "oracle-check": ["oracle-check", *config],
        "verify-appendix": ["verify-appendix", "--N", "1", "2", "--n-max", "2"],
        "magnetization-scan": ["magnetization-scan", *config, "--epsilon-steps", "3"],
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
        "magnetization-scan": ["--config", "--epsilon-max", "--epsilon-steps", "--out"],
        "discretize": ["--config", "--out"],
    }
    assert sum(map(len, flags.values())) == 19


# ---------------------------------------------------------- shipped configs

GAP_VS_MODES = ROOT / "scripts" / "configs" / "gap_vs_modes.yaml"

# gap_sweep.csv of scripts/configs/gap_vs_modes.yaml at one OpenBLAS thread
GAP_VS_MODES_SHA256 = "5d6f702ddcf6b5948085c191647454c4ce1d3c1f038513a162a37e8f531e3226"
# the same at sweep.to 12 and n_max 1, whose unresolved-gap and
# accuracy-error rows (NaN cells) pin the failure branches of a sweep point
GAP_VS_MODES_TO_12_SHA256 = "0e83922ac58eedf04e998fb7a62c041917e1854650bc7339e422793d5a2bc9a2"
# gap_sweep.csv of scripts/configs/alpha_scan.yaml at one OpenBLAS thread
ALPHA_SCAN_SHA256 = "5420ca7802760395880f1abe45658c8d397b858672e0eff13e1a9d7d4c4cfc0f"


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


# ------------------------------------------------------------- count caps


def _grid_argv(case: str, tmp_path, out) -> list[str]:
    huge = str(10**15)  # a grid of this many points would not fit in memory
    if case == "fig1":
        return ["fig1", "--out", str(out), "--N-max", huge, "--s", "1.0"]
    if case == "gap-sweep":
        sweep = {"parameter": "alpha", "from": 0.0, "to": 0.5, "steps": int(huge)}
        path = write_config(tmp_path, deep({"sweep": sweep}))
        return ["gap-sweep", "--config", path, "--out", str(out)]
    path = write_config(tmp_path, deep({}))
    return ["magnetization-scan", "--config", path, "--out", str(out), "--epsilon-steps", huge]


@pytest.mark.parametrize("case", ["fig1", "gap-sweep", "epsilon"])
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
