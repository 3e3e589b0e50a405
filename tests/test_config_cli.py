import json
import math

import numpy as np
import pytest

from sbmlab.bath import Convention, beta0, discretize
from sbmlab.cli import main
from sbmlab.config import RunConfig, Sweep, load_config, parse_config
from sbmlab.errors import ConfigError

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


# ------------------------------------------------------------------ parsing


def test_parse_defaults():
    cfg = parse_config(deep({}))
    assert cfg.model.epsilon == 0.0
    assert cfg.solver.tol == 1e-10
    assert cfg.solver.max_iter == 500
    assert cfg.discretization.convention is Convention.PAPER_QUARTER
    assert cfg.bath.omega1 == pytest.approx(2.0**-4)  # grid lower edge
    assert cfg.sweep is None


def test_parse_explicit_fields():
    data = deep(
        {
            "model": {"epsilon": 0.1},
            "bath": {"omega1": 1e-3},
            "discretization": {"convention": "mean-omega"},
            "solver": {"tol": 1e-8, "max_iter": 50},
        }
    )
    cfg = parse_config(data)
    assert cfg.model.epsilon == 0.1
    assert cfg.bath.omega1 == 1e-3
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
        (deep({"bath": {"omega1": 5.0}}), "bath: infrared cutoff"),
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
    ],
)
def test_parse_rejections(data, needle):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(data)
    assert needle in str(excinfo.value)


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
    data = deep({"sweep": {"parameter": "n_max", "from": 2, "to": 4, "steps": 3}})
    points = parse_config(data).expand_sweep()
    assert [c.truncation.n_max for c in points] == [2, 3, 4]
    assert all(isinstance(c.truncation.n_max, int) for c in points)


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
    assert (out / "fig1_plot.py").exists()
    manifest = json.loads((out / "fig1_manifest.json").read_text())
    assert set(manifest["files"]) == {"fig1_data.csv", "fig1_plot.py"}


def test_fig1_single_row_and_svg(tmp_path):
    out = tmp_path / "fig0"
    assert main(["fig1", "--out", str(out), "--N-max", "0", "--svg"]) == 0
    header, body = read_csv(out / "fig1_data.csv")
    assert len(body) == 1
    assert float(body[0][1]) == pytest.approx(beta0(0.1, 2.0) / 4.0, rel=1e-15)
    svg = (out / "fig1.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg") and "polyline" in svg


def test_fig1_rejects_bad_flags(tmp_path):
    assert main(["fig1", "--out", str(tmp_path), "--Lambda", "0.5"]) == 2
    assert main(["fig1", "--out", str(tmp_path), "--N-max", "-3"]) == 2


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
    # dim 70 <= DENSE_CUTOFF: both sectors take the dense path
    header = body.decode().splitlines()[0].split(",")
    assert len(manifest["row_solvers"]) == len(lines)
    for line, solvers in zip(lines, manifest["row_solvers"]):
        cells = line.split(",")
        for sector, column in (("even", "residual_plus"), ("odd", "residual_minus")):
            assert solvers[sector] == {
                "path": "dense",
                "iterations": 0,
                "residual": float(cells[header.index(column)]),
                "converged": True,
            }


def test_gap_sweep_json_format_matches_csv(tmp_path):
    data = deep({"sweep": {"parameter": "alpha", "from": 0.1, "to": 0.3, "steps": 2}})
    path = write_config(tmp_path, data)
    out_csv, out_json = tmp_path / "csv", tmp_path / "json"
    assert main(["gap-sweep", "--config", path, "--out", str(out_csv)]) == 0
    assert main(["gap-sweep", "--config", path, "--out", str(out_json), "--format", "json"]) == 0
    header, body = read_csv(out_csv / "gap_sweep.csv")
    rows = json.loads((out_json / "gap_sweep.json").read_text())
    for csv_row, json_row in zip(body, rows):
        assert float(csv_row[header.index("gap")]) == json_row["gap"]
        assert csv_row[header.index("status")] == json_row["status"]


def test_gap_sweep_convention_override_changes_q(tmp_path):
    path = write_config(tmp_path, deep({}))
    out_a, out_b = tmp_path / "pq", tmp_path / "mo"
    assert main(["gap-sweep", "--config", path, "--out", str(out_a)]) == 0
    assert (
        main(
            ["gap-sweep", "--config", path, "--out", str(out_b), "--convention", "mean-omega"]
        )
        == 0
    )
    header, body_a = read_csv(out_a / "gap_sweep.csv")
    _, body_b = read_csv(out_b / "gap_sweep.csv")
    qq = header.index("sum_q_squared")
    assert float(body_b[0][qq]) == pytest.approx(4 * float(body_a[0][qq]), rel=1e-12)


def test_gap_sweep_rejects_epsilon(tmp_path):
    data = deep({"model": {"epsilon": 0.2}})
    assert main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(tmp_path)]) == 2


def test_gap_sweep_capacity_exit(tmp_path):
    data = deep({"truncation": {"n_max": 99}})
    assert main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(tmp_path)]) == 3


def test_gap_sweep_oversize_table_exits_capacity(tmp_path):
    # 20 modes at n_max 6: dim 230230 passes MAX_BASIS_DIM, its D table does not
    data = deep({"discretization": {"N": 19}, "truncation": {"n_max": 6}})
    out = tmp_path / "big"
    assert main(["gap-sweep", "--config", write_config(tmp_path, data), "--out", str(out)]) == 3
    assert not (out / "gap_sweep.csv").exists()


def test_gap_sweep_records_solver_failure_in_row(tmp_path):
    # dim 528 > dense cutoff, so the iterative path runs; one iteration
    # cannot reach tol and the row must say so without aborting the sweep
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
    assert (failed["path"], failed["iterations"], failed["converged"]) == ("davidson", 1, False)
    assert failed["residual"] > 1e-10


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


def test_verify_appendix_capacity():
    assert main(["verify-appendix", "--N", "6", "--n-max", "20", "--out", "unused"]) == 3


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
