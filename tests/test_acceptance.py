"""Acceptance gate: one test per advertised guarantee, tolerances pinned.

Each test prints a single [PASS]/[FAIL] line (visible under pytest -s or
on failure) and asserts the same condition, so the suite doubles as a
human-readable checklist.
"""

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import (
    beta2_reference,
    dense_spectrum,
    frozen_spin_check,
    magnetization,
    parity_phase,
)

from sbmlab.bath import (
    BathSpec,
    Convention,
    DiscretizationSpec,
    beta1,
    beta2,
    discretize,
    sum_q_squared,
)
from sbmlab.cli import main
from sbmlab.fockspace import enumerate_basis
from sbmlab.oracle import assemble_full, ground_sigma_z, parity_commutator_norm, sector_blocks
from sbmlab.sectors import ModelParams, Sector, assemble_sector, ground_state


def report(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


# ------------------------------------------------------- shared random suite


@dataclass(frozen=True)
class SuitePoint:
    delta: float
    alpha: float
    s: float
    Lambda: float
    mode_count: int
    n_max: int
    dim: int
    energy_even: float
    energy_odd: float
    gap: float


def _solve_gap(bath, delta: float, mode_count: int, n_max: int):
    enumeration = enumerate_basis(mode_count, n_max)
    params = ModelParams(delta=delta)
    even = ground_state(assemble_sector(bath, params, enumeration, Sector.EVEN))
    odd = ground_state(assemble_sector(bath, params, enumeration, Sector.ODD))
    return even, odd, enumeration


@pytest.fixture(scope="session")
def random_suite():
    rng = np.random.default_rng(20260815)
    points: list[SuitePoint] = []
    baths = []
    while len(points) < 200:
        mode_count = int(rng.integers(1, 7))
        n_max = int(rng.integers(1, 9))
        dim = math.comb(n_max + mode_count, mode_count)
        if dim > 1800:
            continue
        delta = float(rng.uniform(0.05, 1.0))
        alpha = float(rng.uniform(0.0, 0.5))
        s = float(rng.choice([0.1, 0.5, 1.0, 2.0]))
        # Lambda <= 2 keeps exp(-2 sum q^2) above double-precision resolution
        # in the worst corner (s=0.1, alpha=0.5, 6 modes); coarser grids push
        # the true gap below one ulp, where only the symbolic proof can decide
        Lambda = float(rng.choice([1.5, 2.0]))
        spec = BathSpec(s=s, alpha=alpha, omega_c=1.0)
        bath = discretize(spec, DiscretizationSpec(Lambda=Lambda, N=mode_count - 1))
        even, odd, _ = _solve_gap(bath, delta, mode_count, n_max)
        points.append(
            SuitePoint(
                delta=delta,
                alpha=alpha,
                s=s,
                Lambda=Lambda,
                mode_count=mode_count,
                n_max=n_max,
                dim=dim,
                energy_even=even.energy,
                energy_odd=odd.energy,
                gap=odd.energy - even.energy,
            )
        )
        baths.append(bath)
    return points, baths


# -------------------------------------------------------------- criterion 1


def test_criterion_01_divergence_figure(tmp_path):
    started = time.perf_counter()
    assert main(["fig1", "--out", str(tmp_path), "--N-max", "40"]) == 0
    elapsed = time.perf_counter() - started

    lines = (tmp_path / "fig1_data.csv").read_text().splitlines()
    assert lines[0] == "N,beta2_s0.1,beta2_s1.0"
    sub = [float(line.split(",")[1]) for line in lines[1:]]
    increasing = all(b > a for a, b in zip(sub, sub[1:]))
    ratio = sub[40] / sub[39]
    ratio_ok = abs(ratio - 2.0**0.9) < 1e-6

    exact = [beta2_reference(Fraction(1), Fraction(2), N) for N in range(41)]
    second = {exact[n + 2] - 2 * exact[n + 1] + exact[n] for n in range(39)}
    affine_ok = second == {Fraction(0)}

    ok = increasing and ratio_ok and affine_ok and elapsed < 1.0
    report(
        "criterion 1 divergence figure",
        ok,
        f"ratio err {abs(ratio - 2.0 ** 0.9):.2e} <= 1e-6, "
        f"ohmic second differences {'exactly zero' if affine_ok else 'NONZERO'}, "
        f"{elapsed:.2f}s < 1s",
    )


# -------------------------------------------------------------- criterion 2


def test_criterion_02_tail_integral_vs_quadrature():
    worst = 0.0
    for s in (0.3, 0.5, 1.0, 1.5, 2.0):
        for ratio in (1e-2, 1e-4):
            spec, omega1 = BathSpec(s=s, alpha=0.2, omega_c=1.7), 1.7 * ratio
            integral, _ = quad(
                lambda w: spec.omega_c ** (1.0 - s) * w ** (s - 2.0),
                omega1,
                spec.omega_c,
                epsabs=0.0,
                epsrel=1e-12,
                limit=400,
            )
            worst = max(worst, abs(beta1(spec, omega1) - integral) / abs(integral))
    report(
        "criterion 2 closed form vs quadrature",
        worst < 1e-8,
        f"worst relative error {worst:.2e} < 1e-8",
    )


# -------------------------------------------------------------- criterion 3


def test_criterion_03_mode_sum_matches_tail_sum():
    worst = 0.0
    alpha = 0.3
    for s in (0.1, 0.5, 1.0):
        for N in range(0, 51, 5):
            spec = BathSpec(s=s, alpha=alpha, omega_c=1.0)
            bath = discretize(
                spec, DiscretizationSpec(Lambda=2.0, N=N, convention=Convention.PAPER_QUARTER)
            )
            target = 2.0 * alpha * beta2(s, 2.0, N)
            worst = max(worst, abs(sum_q_squared(bath) - target) / target)
    report(
        "criterion 3 discretization consistency",
        worst < 1e-10,
        f"worst relative error {worst:.2e} < 1e-10 over N <= 50",
    )


# -------------------------------------------------------------- criterion 4


def test_criterion_04_no_degeneracy_randomized(random_suite):
    points, _ = random_suite
    assert len(points) >= 200
    worst_margin = math.inf
    for p in points:
        scale = max(1.0, abs(p.energy_even))
        margin = p.gap / (1e-13 * scale)
        worst_margin = min(worst_margin, margin)
        assert p.gap != 0.0, f"zero gap at {p}"
        # every delta is drawn positive, where the even sector lies lowest
        assert p.gap > 1e-13 * scale, f"gap not positive beyond resolution at {p}"
    report(
        "criterion 4a randomized non-degeneracy",
        True,
        f"{len(points)} configs, smallest gap/floor margin {worst_margin:.1f}x",
    )


def test_criterion_04_dense_oracle_agreement(random_suite):
    points, _ = random_suite
    compared = 0
    worst = 0.0
    for p in points:
        if p.mode_count > 2 or compared >= 16:
            continue
        spec = BathSpec(s=p.s, alpha=p.alpha, omega_c=1.0)
        bath = discretize(spec, DiscretizationSpec(Lambda=p.Lambda, N=p.mode_count - 1))
        params = ModelParams(delta=p.delta)

        def displaced_gap(n_max: int) -> float:
            even, odd, _ = _solve_gap(bath, p.delta, p.mode_count, n_max)
            return odd.energy - even.energy

        def block_gap(n_max: int) -> float:
            enumeration = enumerate_basis(p.mode_count, n_max)
            even_block, odd_block, _ = sector_blocks(
                assemble_full(params, bath, enumeration)
            )
            return float(dense_spectrum(odd_block)[0] - dense_spectrum(even_block)[0])

        n_max = 12
        while True:
            d_lo, d_hi = displaced_gap(n_max), displaced_gap(n_max + 4)
            b_lo, b_hi = block_gap(n_max), block_gap(n_max + 4)
            if abs(d_hi - d_lo) < 1e-10 and abs(b_hi - b_lo) < 1e-10:
                break
            n_max += 4
            assert n_max <= 48, f"no convergence below the cap for {p}"
        worst = max(worst, abs(d_hi - b_hi))
        compared += 1
    assert compared >= 15
    report(
        "criterion 4b dense-oracle gap agreement",
        worst < 1e-9,
        f"{compared} configs converged, worst |gap difference| {worst:.2e} < 1e-9",
    )


# -------------------------------------------------------------- criterion 5


def test_criterion_05_mechanized_proof(tmp_path):
    code = main(
        [
            "verify-appendix",
            "--N",
            "1",
            "2",
            "3",
            "--n-max",
            "1",
            "2",
            "3",
            "4",
            "--out",
            str(tmp_path),
        ]
    )
    manifest = json.loads((tmp_path / "verify_appendix_manifest.json").read_text())
    ok = code == 0 and manifest["all_hold"] is True
    report(
        "criterion 5 symbolic non-degeneracy",
        ok,
        "12 (N, n_max) pairs hold in exact arithmetic (zero tolerance)",
    )


# -------------------------------------------------------------- criterion 6


def test_criterion_06_parity_algebra():
    spec = BathSpec(s=0.5, alpha=0.25, omega_c=1.0)
    bath = discretize(spec, DiscretizationSpec(Lambda=2.0, N=1))
    enumeration = enumerate_basis(2, 6)

    symmetric = assemble_full(ModelParams(delta=0.6), bath, enumeration)
    commutator0 = parity_commutator_norm(symmetric)

    biased = assemble_full(ModelParams(delta=0.6, epsilon=0.37), bath, enumeration)
    commutator_eps = parity_commutator_norm(biased)

    U = symmetric.rotation.toarray()
    unitarity = float(np.linalg.norm(U @ U.T - np.eye(U.shape[0]), 2))
    _, _, off_norm = sector_blocks(symmetric)
    dim = enumeration.dim
    sz = np.diag(np.concatenate([np.ones(dim), -np.ones(dim)]))
    parity_defect = float(np.abs(U @ symmetric.parity.toarray() @ U.T - sz).max())

    ok = (
        commutator0 < 1e-12
        and abs(commutator_eps - 0.37) < 1e-10
        and unitarity < 1e-14
        and off_norm < 1e-12
        and parity_defect < 1e-14
    )
    report(
        "criterion 6 parity algebra",
        ok,
        f"[H,P] {commutator0:.1e} < 1e-12, |[H(eps),P]|-|eps| "
        f"{abs(commutator_eps - 0.37):.1e} < 1e-10, unitarity {unitarity:.1e} < 1e-14, "
        f"off-block {off_norm:.1e} < 1e-12, rotated parity {parity_defect:.1e} < 1e-14",
    )


# -------------------------------------------------------------- criterion 7


def test_criterion_07_spectrum_partition():
    worst_union = 0.0
    for mode_count, n_max, s, alpha in [(1, 12, 0.5, 0.3), (2, 8, 0.1, 0.2), (3, 5, 1.0, 0.15)]:
        spec = BathSpec(s=s, alpha=alpha, omega_c=1.0)
        bath = discretize(spec, DiscretizationSpec(Lambda=2.0, N=mode_count - 1))
        enumeration = enumerate_basis(mode_count, n_max)
        assert 2 * enumeration.dim <= 400
        model = assemble_full(ModelParams(delta=0.7), bath, enumeration)
        dense = np.linalg.eigvalsh(model.hamiltonian.toarray())
        even_block, odd_block, _ = sector_blocks(model)
        union = np.sort(np.concatenate([dense_spectrum(even_block), dense_spectrum(odd_block)]))
        worst_union = max(worst_union, float(np.abs(dense - union).max()))

    # low end of the displaced-basis sector solver against the same dense
    # spectrum, on a run where the occupation cutoff is converged
    spec = BathSpec(s=1.0, alpha=0.05, omega_c=1.0)
    bath = discretize(spec, DiscretizationSpec(Lambda=2.0, N=1))
    enumeration = enumerate_basis(2, 12)
    model = assemble_full(ModelParams(delta=0.4), bath, enumeration)
    dense = np.linalg.eigvalsh(model.hamiltonian.toarray())
    even, odd, _ = _solve_gap(bath, 0.4, 2, 12)
    low = np.sort([even.energy, odd.energy])
    worst_low = float(np.abs(dense[:2] - low).max())

    ok = worst_union < 1e-9 and worst_low < 1e-9
    report(
        "criterion 7 spectrum partition",
        ok,
        f"sector-union deviation {worst_union:.2e} < 1e-9, "
        f"displaced low-end deviation {worst_low:.2e} < 1e-9",
    )


# -------------------------------------------------------------- criterion 8


def test_criterion_08_magnetization():
    spec = BathSpec(s=0.5, alpha=0.2, omega_c=1.0)
    bath = discretize(spec, DiscretizationSpec(Lambda=2.0, N=2))
    even, odd, enumeration = _solve_gap(bath, 0.4, 3, 4)
    worst_zero = max(
        abs(magnetization(k * math.pi / 2.0, even, odd)) for k in range(5)
    )

    params = [ModelParams(delta=0.4, epsilon=e) for e in (0.1, 0.35)]
    worst_odd = abs(
        ground_sigma_z(assemble_full(ModelParams(delta=0.4), bath, enumeration))
    )
    for p in params:
        plus = ground_sigma_z(assemble_full(p, bath, enumeration))
        minus = ground_sigma_z(
            assemble_full(ModelParams(delta=p.delta, epsilon=-p.epsilon), bath, enumeration)
        )
        worst_odd = max(worst_odd, abs(plus + minus))

    free = BathSpec(s=0.5, alpha=0.0, omega_c=1.0)
    free_bath = discretize(free, DiscretizationSpec(Lambda=2.0, N=2))
    worst_free = 0.0
    for eps in (-0.8, -0.3, 0.05, 0.6):
        model = assemble_full(ModelParams(delta=0.4, epsilon=eps), free_bath, enumeration)
        closed = -eps / math.hypot(eps, 0.4)
        worst_free = max(worst_free, abs(ground_sigma_z(model) - closed))

    ok = worst_zero < 1e-12 and worst_odd < 1e-10 and worst_free < 1e-10
    report(
        "criterion 8 magnetization",
        ok,
        f"half-turn zeros {worst_zero:.1e} < 1e-12, bias oddness {worst_odd:.1e} < 1e-10, "
        f"free-spin closed form {worst_free:.1e} < 1e-10",
    )


# -------------------------------------------------------------- criterion 9


def test_criterion_09_variational_monotonicity(random_suite):
    points, _ = random_suite
    checked = 0
    worst = -math.inf
    for p in points:
        if p.mode_count > 3 or p.n_max > 5 or checked >= 20:
            continue
        spec = BathSpec(s=p.s, alpha=p.alpha, omega_c=1.0)
        bath = discretize(spec, DiscretizationSpec(Lambda=p.Lambda, N=p.mode_count - 1))
        even_lo, odd_lo, _ = _solve_gap(bath, p.delta, p.mode_count, p.n_max)
        even_hi, odd_hi, _ = _solve_gap(bath, p.delta, p.mode_count, p.n_max + 1)
        worst = max(
            worst,
            even_hi.energy - even_lo.energy,
            odd_hi.energy - odd_lo.energy,
        )
        checked += 1
    assert checked >= 15
    report(
        "criterion 9 variational monotonicity",
        worst < 1e-12,
        f"{checked} configs, largest energy increase under cutoff growth {worst:.2e} < 1e-12",
    )


# ------------------------------------------------------------- criterion 10


def test_criterion_10_frozen_spin(random_suite):
    points, baths = random_suite
    checked = 0
    worst = 0.0
    for p, bath in zip(points, baths):
        if p.dim > 150 or checked >= 10:
            continue
        enumeration = enumerate_basis(p.mode_count, p.n_max)
        worst = max(worst, frozen_spin_check(bath, enumeration))
        checked += 1
    assert checked >= 8
    report(
        "criterion 10 frozen spin",
        worst < 1e-13,
        f"{checked} baths, largest commutator norm {worst:.2e} < 1e-13",
    )


# ------------------------------------------------------------- criterion 11


def test_criterion_11_reproducibility(tmp_path):
    import yaml

    config = {
        "model": {"delta": 0.4},
        "bath": {"s": 0.1, "alpha": 0.25, "omega_c": 1.0},
        "discretization": {"Lambda": 2.0, "N": 2},
        "truncation": {"n_max": 4},
        "sweep": {"parameter": "alpha", "from": 0.0, "to": 0.5, "steps": 4},
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    bodies = []
    for name, workers in (("r1", "1"), ("r2", "1"), ("r3", "3")):
        out = tmp_path / name
        code = main(
            ["gap-sweep", "--config", str(path), "--out", str(out), "--workers", workers]
        )
        assert code == 0
        bodies.append((out / "gap_sweep.csv").read_bytes())

    fig_bodies = []
    for name in ("f1", "f2"):
        out = tmp_path / name
        assert main(["fig1", "--out", str(out), "--N-max", "15"]) == 0
        fig_bodies.append((out / "fig1_data.csv").read_bytes())

    ok = bodies[0] == bodies[1] == bodies[2] and fig_bodies[0] == fig_bodies[1]
    report(
        "criterion 11 reproducibility",
        ok,
        "gap-sweep byte-identical across reruns and worker counts; fig1 rerun identical",
    )
