import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from helpers import basis_states, parity_phase, sector_dense

from sbmlab.bath import BathSpec, DiscretizationSpec, DiscretizedBath, discretize, log_prefactor
from sbmlab.errors import AccuracyError, CapacityError, SolverError
from sbmlab.fockspace import enumerate_basis, lowering_series
from sbmlab.sectors import (
    _DAVIDSON_RESTART,
    ModelParams,
    Sector,
    SectorMatrix,
    assemble_sector,
    gap_identity,
    ground_state,
    solve_sectors,
)


def single_mode(q, omega=1.0):
    return DiscretizedBath.from_modes((omega,), (q * omega,))


def silent_bath(*omegas):
    return DiscretizedBath.from_modes(tuple(omegas), (0.0,) * len(omegas))


# ---------------------------------------------------------------- assembly


def test_assemble_zero_coupling_is_diagonal_with_parity_split():
    bath = silent_bath(1.0, 0.5)
    basis = enumerate_basis(2, 4)
    delta = 0.3
    even = assemble_sector(bath, ModelParams(delta), basis, Sector.EVEN)
    omega = np.array(bath.omega)
    for i, n in enumerate(basis_states(basis)):
        expected = float(np.array(n) @ omega) - (delta / 2) * parity_phase(n)
        assert even.entries[i, i] == pytest.approx(expected, rel=1e-15)
    off = even.entries - np.diag(np.diag(even.entries))
    assert np.all(off == 0.0)


def test_assemble_delta_zero_sectors_identical():
    bath = single_mode(0.4)
    basis = enumerate_basis(1, 6)
    even = assemble_sector(bath, ModelParams(0.0), basis, Sector.EVEN)
    odd = assemble_sector(bath, ModelParams(0.0), basis, Sector.ODD)
    assert np.array_equal(even.entries, odd.entries)
    q2 = bath.q[0] ** 2
    expected_diag = [n[0] * 1.0 - q2 for n in basis_states(basis)]
    assert np.allclose(np.diag(even.entries), expected_diag, rtol=1e-15)
    assert np.all(even.entries == np.diag(np.diag(even.entries)))


@pytest.mark.parametrize("sector,sign", [(Sector.EVEN, -1.0), (Sector.ODD, 1.0)])
def test_assemble_single_mode_vacuum_to_one_entry(sector, sign):
    q, delta = 0.3, 1.0
    bath = single_mode(q)
    basis = enumerate_basis(1, 6)
    matrix = assemble_sector(bath, ModelParams(delta), basis, sector)
    expected = sign * (delta / 2) * math.exp(-2 * q * q) * (2 * q)
    assert matrix.entries[0, 1] == pytest.approx(expected, rel=1e-14)
    assert np.array_equal(matrix.entries, matrix.entries.T)


def test_assemble_rejects_nonzero_epsilon():
    with pytest.raises(ValueError):
        assemble_sector(
            single_mode(0.3), ModelParams(0.1, epsilon=0.2), enumerate_basis(1, 4), Sector.EVEN
        )


def test_assemble_rejects_mode_mismatch():
    with pytest.raises(ValueError):
        assemble_sector(single_mode(0.3), ModelParams(0.1), enumerate_basis(2, 4), Sector.EVEN)


# ---------------------------------------------------------------- ground states


def test_ground_state_zero_coupling_even():
    bath = silent_bath(1.0, 0.5)
    basis = enumerate_basis(2, 5)
    result = ground_state(assemble_sector(bath, ModelParams(0.3), basis, Sector.EVEN))
    assert result.energy == pytest.approx(-0.15, abs=1e-14)
    vacuum = np.zeros(basis.dim)
    vacuum[0] = 1.0
    assert np.allclose(result.coefficients, vacuum, atol=1e-12)


def test_ground_state_zero_coupling_odd_small_delta():
    # vacuum stays lowest in the odd sector while delta < min omega
    bath = silent_bath(1.0, 0.5)
    basis = enumerate_basis(2, 5)
    result = ground_state(assemble_sector(bath, ModelParams(0.3), basis, Sector.ODD))
    assert result.energy == pytest.approx(0.15, abs=1e-14)
    assert result.coefficients[0] == pytest.approx(1.0, abs=1e-12)


def test_ground_state_zero_coupling_odd_large_delta_moves_off_vacuum():
    bath = silent_bath(1.0, 0.5)
    basis = enumerate_basis(2, 5)
    result = ground_state(assemble_sector(bath, ModelParams(1.2), basis, Sector.ODD))
    # one boson in the soft mode beats the vacuum: 0.5 - 0.6 < 0.6
    assert result.energy == pytest.approx(0.5 - 0.6, abs=1e-14)


def test_ground_state_dimension_one():
    bath = single_mode(0.7)
    basis = enumerate_basis(1, 0)
    result = ground_state(assemble_sector(bath, ModelParams(0.4), basis, Sector.EVEN))
    expected = -bath.q[0] ** 2 - 0.2 * math.exp(-2 * bath.q[0] ** 2)
    assert result.energy == pytest.approx(expected, rel=1e-14)
    assert result.coefficients[0] == 1.0


def test_ground_state_normalization_residual_and_sign():
    bath = DiscretizedBath.from_modes((1.0, 0.4), (0.5, 0.24))
    basis = enumerate_basis(2, 8)
    for sector in Sector:
        result = ground_state(assemble_sector(bath, ModelParams(0.7), basis, sector), tol=1e-10)
        assert abs(np.linalg.norm(result.coefficients) - 1.0) < 1e-12
        assert result.coefficients[0] >= 0.0
        matrix = assemble_sector(bath, ModelParams(0.7), basis, sector).entries
        explicit = np.linalg.norm(
            matrix @ result.coefficients - result.energy * result.coefficients
        )
        assert result.residual <= 1e-10
        assert explicit <= 1e-10


def test_lanczos_path_matches_dense():
    basis = enumerate_basis(2, 31)
    assert basis.dim == 528
    bath = DiscretizedBath.from_modes((1.0, 0.4), (0.35, 0.2))
    matrix = assemble_sector(bath, ModelParams(0.4), basis, Sector.EVEN)
    result = ground_state(matrix, tol=1e-10)
    reference = np.linalg.eigvalsh(matrix.entries)[0]
    assert result.iterations > 0
    assert result.energy == pytest.approx(reference, abs=1e-10)
    assert result.residual <= 1e-10


def test_lanczos_iteration_budget_enforced():
    basis = enumerate_basis(2, 31)
    bath = DiscretizedBath.from_modes((1.0, 0.4), (0.35, 0.2))
    matrix = assemble_sector(bath, ModelParams(0.4), basis, Sector.EVEN)
    with pytest.raises(SolverError, match="residual"):
        ground_state(matrix, tol=1e-13, max_iter=3)


def test_davidson_that_exhausts_the_basis_is_an_accuracy_error():
    # one mode with q^2 = 4: at dim 25 and 31 the search space spans the
    # whole basis with the residual at the rounding floor of Dt's cancelling
    # entries (2.8e-10, 8.1e-9), which no iteration can lower; at dim 41,
    # past the 40-vector restart, it never spans the basis and 500
    # iterations end at 2.1e-7, a solver failure
    bath = single_mode(2.0)
    for n_max, floor in ((24, "2.814e-10"), (30, "8.067e-09")):
        matrix = assemble_sector(bath, ModelParams(0.5), enumerate_basis(1, n_max), Sector.EVEN)
        with pytest.raises(AccuracyError) as error:
            ground_state(matrix)
        assert str(error.value) == (
            f"davidson solve of the even sector has best residual {floor} above tol 1e-10 "
            f"with its search space spanning the whole basis (dim {n_max + 1} after {n_max + 1} "
            "iterations); the residual is the rounding floor of the operator"
        )
    matrix = assemble_sector(bath, ModelParams(0.5), enumerate_basis(1, 40), Sector.EVEN)
    with pytest.raises(SolverError) as error:
        ground_state(matrix)
    assert error.value.diagnostics["iterations"] == 500
    assert 1e-7 < error.value.diagnostics["residual"] < 1e-6


def log_grid_bath(s, alpha, modes):
    spec = BathSpec(s=s, alpha=alpha, omega_c=1.0)
    return discretize(spec, DiscretizationSpec(Lambda=2.0, N=modes - 1))


def test_davidson_matches_dense_eigh_at_weak_coupling():
    # alpha = 0.02 leaves the displaced basis least diagonal
    bath = log_grid_bath(0.5, 0.02, 7)
    basis = enumerate_basis(7, 5)
    assert basis.dim == 792
    params = ModelParams(0.5)
    for sector, result in zip(Sector, solve_sectors(bath, params, basis.n_max)):
        assert result.iterations > 0
        entries = assemble_sector(bath, params, basis, sector).entries
        reference = scipy.linalg.eigh(entries, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert abs(result.energy - reference) <= 1e-12
        assert result.residual <= 1e-10


def test_davidson_converges_at_thirteen_modes():
    # dim 2380 with a polaron factor near 1e-14: the two sectors are
    # degenerate to rounding, and the solve must still meet tol
    bath = log_grid_bath(0.5, 0.2, 13)
    basis = enumerate_basis(13, 4)
    assert basis.dim == 2380
    even, odd = solve_sectors(bath, ModelParams(0.5), basis.n_max, tol=1e-10, max_iter=500)
    assert even.residual <= 1e-10 and odd.residual <= 1e-10


def test_one_iteration_solve_applies_each_sector_twice(monkeypatch):
    # gap_vs_modes at N = 7 (8 modes, n_max 4): the polaron factor 10^-18.8
    # leaves the vacuum converged at once.  Each sector applies H to its
    # start vector and once more for the explicit residual, which is the
    # residual reported; no third product repeats it
    from pathlib import Path

    from sbmlab.config import load_config

    config = Path(__file__).resolve().parent.parent / "scripts" / "configs" / "gap_vs_modes.yaml"
    cfg = load_config(str(config)).expand_sweep()[7]
    bath = discretize(cfg.bath, cfg.discretization)
    basis = enumerate_basis(bath.mode_count, cfg.truncation.n_max)
    applied = []
    apply = SectorMatrix.apply

    def counted(self, x):
        applied.append(self.sector)
        return apply(self, x)

    monkeypatch.setattr(SectorMatrix, "apply", counted)
    even, odd = solve_sectors(bath, cfg.model, basis.n_max, cfg.solver.tol, cfg.solver.max_iter)
    assert applied == [Sector.EVEN] * 2 + [Sector.ODD] * 2
    for sector, result in zip(Sector, (even, odd)):
        assert result.iterations == 1
        matrix = assemble_sector(bath, cfg.model, basis, sector)
        x, energy = result.coefficients, result.energy
        assert result.residual == float(np.linalg.norm(apply(matrix, x) - energy * x))


def test_davidson_resolves_clustered_low_spectrum():
    # s = 1, alpha = 0.05 on 20 modes down to omega 2^-20: at n_max 3 the two
    # lowest odd levels lie 2.4e-6 apart, which a restart from one Ritz
    # vector cannot separate within 500 iterations
    bath = log_grid_bath(1.0, 0.05, 20)
    params = ModelParams(0.5)
    iterations = []
    for n_max in (2, 3):
        basis = enumerate_basis(20, n_max)
        for sector, result in zip(Sector, solve_sectors(bath, params, basis.n_max)):
            entries = assemble_sector(bath, params, basis, sector).entries
            reference = scipy.linalg.eigh(entries, eigvals_only=True, subset_by_index=[0, 0])[0]
            assert abs(result.energy - reference) <= 1e-12
            iterations.append(result.iterations)
    assert max(iterations) > _DAVIDSON_RESTART  # the thick restart ran
    basis = enumerate_basis(20, 4)
    assert basis.dim == 10626
    larger = solve_sectors(bath, params, basis.n_max)
    smaller = solve_sectors(bath, params, 3)
    for big, small in zip(larger, smaller):
        assert big.residual <= 1e-10
        assert big.energy <= small.energy + 1e-12


@pytest.mark.parametrize("n_max", range(7))
@pytest.mark.parametrize("modes", [1, 2, 3])
def test_davidson_matches_eigvalsh_on_tiny_bases(modes, n_max):
    # dims 1 to 84, including 1 (n_max 0) and 2 (one mode, n_max 1)
    rng = np.random.default_rng(100 * modes + n_max)
    bath = DiscretizedBath.from_modes(
        tuple(np.sort(rng.uniform(0.05, 2.0, modes))[::-1]), tuple(rng.uniform(0.0, 0.8, modes))
    )
    basis = enumerate_basis(modes, n_max)
    for delta in (0.0, 0.1, 0.7, -0.5, 3.0):
        for sector in Sector:
            matrix = assemble_sector(bath, ModelParams(delta), basis, sector)
            result = ground_state(matrix)
            assert abs(result.energy - np.linalg.eigvalsh(matrix.entries)[0]) <= 1e-12


def test_solve_sectors_bit_identical_to_per_sector_solves():
    bath = DiscretizedBath.from_modes((1.0, 0.4, 0.16), (0.45, 0.3, 0.2))
    basis = enumerate_basis(3, 9)
    assert basis.dim == 220
    params = ModelParams(0.6)
    for sector, result in zip(Sector, solve_sectors(bath, params, basis.n_max)):
        matrix = assemble_sector(bath, params, basis, sector)
        alone = ground_state(matrix)
        assert result.iterations == alone.iterations
        assert result.energy == alone.energy
        assert np.array_equal(result.coefficients, alone.coefficients)
        entries = matrix.entries
        assert np.array_equal(entries, entries.T)
        # the dense matrix is diag -+ (delta/2) * prefactor * P E' P E P
        omega, q = np.asarray(bath.omega), np.asarray(bath.q)
        E = lowering_series(basis, bath.q).toarray()
        P = np.diag([float(parity_phase(n)) for n in basis_states(basis)])
        factor = math.exp(log_prefactor(bath))
        expected = sector.tunneling_sign * (params.delta / 2.0) * factor * (
            P @ E.T @ P @ E @ P
        )
        expected += np.diag(basis.occupations @ omega - float(omega @ (q * q)))
        assert np.abs(entries - expected).max() <= 1e-15 * np.abs(expected).max()
        x = np.random.default_rng(3).standard_normal(basis.dim)
        assert np.abs(matrix.apply(x) - entries @ x).max() <= 1e-13 * np.abs(entries @ x).max()


def test_juddian_crossing_is_a_level_both_sectors_share():
    # Judd's exceptional point (J. Phys. C 12, 1685, 1979): at one mode with
    # 4 lambda^2 + (delta/2)^2 = omega^2, here omega 1, delta 0.5 and
    # lambda = sqrt(15)/8, level 1 of the even and of the odd sector is
    # exactly 49/64.  A shared level at q != 0, converged at n_max 20
    bath = DiscretizedBath.from_modes((1.0,), (math.sqrt(15.0) / 8.0,))
    basis = enumerate_basis(1, 20)
    assert basis.dim == 21
    for sector in Sector:
        matrix = assemble_sector(bath, ModelParams(0.5), basis, sector)
        levels = np.linalg.eigvalsh(sector_dense(matrix))
        assert abs(levels[1] - 49.0 / 64.0) <= 1e-13, sector


def test_displaced_parity_shares_one_transposed_view_of_e():
    # apply reads E' on every Davidson step: one CSC view over E's own
    # arrays, built once, and no copy of E
    bath = DiscretizedBath.from_modes((1.0, 0.4, 0.16), (0.45, 0.3, 0.2))
    basis = enumerate_basis(3, 9)
    displaced = assemble_sector(bath, ModelParams(0.6), basis, Sector.EVEN).displaced_parity
    E = displaced.lowering
    view = displaced.lowering_transposed
    assert displaced.lowering_transposed is view
    assert np.shares_memory(view.data, E.data)
    assert np.shares_memory(view.indices, E.indices)
    x = np.random.default_rng(5).standard_normal(basis.dim)
    reference = displaced.dense @ x
    assert np.abs(displaced.apply(x) - reference).max() <= 1e-13 * np.abs(reference).max()


def test_solve_sectors_takes_the_displaced_diagonal_once(monkeypatch):
    # diag(Dt) squares a copy of E (about 107 MiB at 20 modes, n_max 6),
    # and both sectors share the one result
    calls = []
    power = scipy.sparse.csr_array.power

    def counted(self, n, dtype=None):
        calls.append(n)
        return power(self, n, dtype)

    monkeypatch.setattr(scipy.sparse.csr_array, "power", counted)
    bath = DiscretizedBath.from_modes((1.0, 0.4, 0.16), (0.45, 0.3, 0.2))
    even, odd = solve_sectors(bath, ModelParams(0.6), 9)
    assert len(calls) == 1
    assert even.residual <= 1e-10 and odd.residual <= 1e-10


def test_solve_sectors_refuses_oversize_operator_before_allocating():
    # dim 82251 inside MAX_BASIS_DIM, but C(43, 8) = 1.4e8 lowering entries
    # are far over MAX_OPERATOR_BYTES
    bath = log_grid_bath(0.5, 0.2, 4)
    basis = enumerate_basis(4, 35)
    assert basis.dim == 82251
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="MAX_OPERATOR_BYTES"):
            solve_sectors(bath, ModelParams(0.5), basis.n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_refused_point_never_builds_the_lowering_series(monkeypatch):
    # 20 modes at n_max 6 (dim 230 230): log10 of the polaron factor is
    # -33 746, so the point is refused before E (9.4e6 entries) is built
    bath = discretize(BathSpec(0.1, 0.3, 1.0), DiscretizationSpec(2.0, 19))
    basis = enumerate_basis(20, 6)
    assert basis.dim == 230230
    assert log_prefactor(bath) / math.log(10) == pytest.approx(-33745.68, abs=0.01)

    def no_lowering_series(*args):
        raise AssertionError("lowering_series was called for a refused point")

    monkeypatch.setattr("sbmlab.sectors.lowering_series", no_lowering_series)
    tracemalloc.start()
    try:
        with pytest.raises(AccuracyError, match="10\\^-33745.68"):
            solve_sectors(bath, ModelParams(0.5), basis.n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_twenty_mode_pair_solves():
    # dim 53130: its D table would need 22.6 GB; the lowering series holds
    # C(45, 40) = 1221759 entries
    bath = log_grid_bath(0.5, 0.01, 20)
    basis = enumerate_basis(20, 5)
    assert basis.dim == 53130
    even, odd = solve_sectors(bath, ModelParams(0.5), basis.n_max)
    assert even.residual <= 1e-10 and odd.residual <= 1e-10
    assert odd.energy - even.energy > 0.0
    # variational: the smaller basis cannot go lower
    smaller = solve_sectors(bath, ModelParams(0.5), 4)
    assert even.energy <= smaller[0].energy + 1e-12
    assert odd.energy <= smaller[1].energy + 1e-12


def test_variational_monotonicity_in_nmax():
    bath = single_mode(0.6)
    params = ModelParams(0.7)
    for sector in Sector:
        energies = [
            ground_state(assemble_sector(bath, params, enumerate_basis(1, n), sector)).energy
            for n in range(2, 11)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_variational_monotonicity_two_modes():
    bath = DiscretizedBath.from_modes((1.0, 0.5), (0.45, 0.3))
    params = ModelParams(0.5)
    energies = [
        ground_state(
            assemble_sector(bath, params, enumerate_basis(2, n), Sector.EVEN)
        ).energy
        for n in range(1, 9)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_delta_negation_swaps_sectors_exactly():
    bath = DiscretizedBath.from_modes((1.0, 0.3), (0.4, 0.15))
    basis = enumerate_basis(2, 6)
    even_neg = assemble_sector(bath, ModelParams(-0.6), basis, Sector.EVEN)
    odd_pos = assemble_sector(bath, ModelParams(0.6), basis, Sector.ODD)
    assert np.array_equal(even_neg.entries, odd_pos.entries)
    assert ground_state(even_neg).energy == ground_state(odd_pos).energy


# ---------------------------------------------------------------- untruncated residual


def test_untruncated_residual_sees_what_the_energy_does_not():
    # one mode with q^2 = 4: the tunneling term's image lies almost wholly
    # outside n_max 4, while the energy has moved by 6.6e-6 from n_max 2
    bath = single_mode(2.0)
    even = {
        n_max: solve_sectors(bath, ModelParams(0.5), n_max)[0]
        for n_max in (2, 4)
    }
    assert 0.24 <= even[4].untruncated_residual <= 0.25
    assert abs(even[4].energy - even[2].energy) < 1e-5


def test_untruncated_residual_vanishes_as_n_max_converges():
    # gap_vs_modes at N = 2 (3 modes)
    spec = BathSpec(s=0.1, alpha=0.3, omega_c=1.0)
    bath = discretize(spec, DiscretizationSpec(Lambda=2.0, N=2))
    sigmas = [
        solve_sectors(bath, ModelParams(0.5), n_max)[0].untruncated_residual
        for n_max in (4, 8, 12, 16)
    ]
    assert all(b < a for a, b in zip(sigmas, sigmas[1:]))
    assert sigmas[-1] < 1e-4


def test_untruncated_residual_is_the_residual_a_larger_basis_adds():
    # one mode, q = 1: pad phi from n_max 4 into n_max 40, which holds W phi
    # to rounding; the residual squared grows by exactly sigma^2
    bath = single_mode(1.0)
    params = ModelParams(0.5)
    for sector in Sector:
        small = assemble_sector(bath, params, enumerate_basis(1, 4), sector)
        large = assemble_sector(bath, params, enumerate_basis(1, 40), sector)
        result = ground_state(small)
        x, energy = result.coefficients, result.energy
        padded = np.zeros(41)
        padded[:5] = x
        grown = np.sum((large.apply(padded) - energy * padded) ** 2)
        kept = np.sum((small.apply(x) - energy * x) ** 2)
        assert abs(grown - kept - result.untruncated_residual**2) < 1e-12


def test_untruncated_residual_refuses_a_tunneling_term_that_lost_its_digits():
    # one mode with q^2 = 4 at n_max 44: the computed ||coupling Dt phi||
    # exceeds delta/2 by far more than rounding
    basis = enumerate_basis(1, 44)
    matrix = assemble_sector(single_mode(2.0), ModelParams(0.5), basis, Sector.EVEN)
    with pytest.raises(AccuracyError, match="untruncated residual of the even sector"):
        ground_state(matrix, tol=1e-6, max_iter=2000)


# ---------------------------------------------------------------- sector gap


def odd_minus_even(*args, **kwargs):
    even, odd = solve_sectors(*args, **kwargs)
    return odd.energy - even.energy


def test_gap_zero_coupling_is_delta():
    bath = silent_bath(1.0, 0.5)
    basis = enumerate_basis(2, 4)
    assert odd_minus_even(bath, ModelParams(0.3), basis.n_max) == pytest.approx(0.3, abs=1e-14)


def test_gap_negates_with_delta():
    bath = DiscretizedBath.from_modes((1.0, 0.4), (0.3, 0.2))
    basis = enumerate_basis(2, 6)
    forward = odd_minus_even(bath, ModelParams(0.45), basis.n_max)
    backward = odd_minus_even(bath, ModelParams(-0.45), basis.n_max)
    assert backward == pytest.approx(-forward, rel=1e-12)


def test_gap_positive_and_shrinking_with_mode_count():
    # sub-ohmic bath: every added mode increases sum q**2 and squeezes the gap
    spec = BathSpec(s=0.1, alpha=0.05, omega_c=1.0)
    params = ModelParams(0.1)
    gaps = []
    for N in range(5):
        bath = discretize(spec, DiscretizationSpec(Lambda=2.0, N=N))
        basis = enumerate_basis(bath.mode_count, 6)
        gaps.append(odd_minus_even(bath, params, basis.n_max))
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_gap_nondegenerate_random_suite():
    rng = np.random.default_rng(20260815)
    for _ in range(24):
        s = rng.choice([0.1, 0.5, 1.0, 2.0])
        alpha = rng.uniform(0.0, 0.5)
        delta = rng.uniform(0.05, 1.0)
        N = int(rng.integers(0, 3))
        n_max = int(rng.integers(2, 7))
        spec = BathSpec(s=float(s), alpha=float(alpha), omega_c=1.0)
        bath = discretize(spec, DiscretizationSpec(Lambda=2.0, N=N))
        basis = enumerate_basis(bath.mode_count, n_max)
        even = ground_state(assemble_sector(bath, ModelParams(delta), basis, Sector.EVEN))
        odd = ground_state(assemble_sector(bath, ModelParams(delta), basis, Sector.ODD))
        gap = odd.energy - even.energy
        scale = max(abs(even.energy), abs(odd.energy))
        assert abs(gap) > 1e-13 * scale


def test_gap_tracks_prefactor_at_weak_tunneling():
    # to first order in delta the gap is delta * e^{-2 sum q^2} * <0|L|0>-ish;
    # at small delta the ratio gap/delta approaches the vacuum D element
    bath = DiscretizedBath.from_modes((1.0, 0.5), (0.3, 0.1))
    basis = enumerate_basis(2, 8)
    delta = 1e-6
    splitting = odd_minus_even(bath, ModelParams(delta), basis.n_max, tol=1e-12)
    assert splitting / delta == pytest.approx(math.exp(log_prefactor(bath)), rel=1e-4)


# ---------------------------------------------------------------- gap identity


def mpmath_gap(bath, params, basis):
    """E- - E+ from a 50-digit eigensolve of diag + coupling Dt, built from the double arrays.

    Adding a coupling of 3.5e-15 to a diagonal entry near -0.19 in double
    rounds it by about 0.8%, so the reference must not start from the
    double SectorMatrix.entries.
    """
    with mpmath.workdps(50):
        lowest = []
        for sector in (Sector.EVEN, Sector.ODD):
            operator = assemble_sector(bath, params, basis, sector)
            dt = mpmath.matrix(operator.displaced_parity.dense.tolist())
            matrix = mpmath.diag([mpmath.mpf(x) for x in operator.diagonal.tolist()])
            matrix += mpmath.mpf(operator.coupling) * dt
            lowest.append(min(mpmath.eigsy(matrix, eigvals_only=True)))
        return lowest[1] - lowest[0]


@pytest.mark.parametrize(
    "s,alpha,N,n_max,subtraction",
    [
        (0.1, 0.3, 8, 2, 0.0),  # dim 55: the subtraction reads 0
        (0.5, 0.2, 12, 1, 6.9944e-15),  # dim 14: the subtraction is 0.34% off
        (0.1, 0.3, 3, 3, None),  # dim 35
    ],
)
def test_gap_identity_matches_a_50_digit_eigensolve(s, alpha, N, n_max, subtraction):
    bath = log_grid_bath(s, alpha, N + 1)
    params = ModelParams(0.5)
    even, odd = solve_sectors(bath, params, n_max)
    identity = gap_identity(even, odd, 0.5, log_prefactor(bath), 1e-10)
    reference = mpmath_gap(bath, params, enumerate_basis(N + 1, n_max))
    assert identity["sign"] == 1 and reference > 0
    assert abs(identity["log10_abs_gap"] - float(mpmath.log10(reference))) <= 1e-9
    if subtraction is not None:
        assert odd.energy - even.energy == pytest.approx(subtraction, rel=1e-4, abs=0.0)


def test_gap_identity_sign_follows_delta_and_refuses_a_small_overlap():
    bath = log_grid_bath(0.5, 0.2, 3)
    basis = enumerate_basis(3, 4)
    log_factor = log_prefactor(bath)
    even, odd = solve_sectors(bath, ModelParams(0.4), basis.n_max)
    identity = gap_identity(even, odd, 0.4, log_factor, 1e-10)
    gap = odd.energy - even.energy
    assert identity["sign"] == 1
    assert identity["log10_abs_gap"] == pytest.approx(math.log10(gap), abs=1e-9)
    # negating delta exchanges the sectors: the same magnitude, the other sign
    even_neg, odd_neg = solve_sectors(bath, ModelParams(-0.4), basis.n_max)
    negated = gap_identity(even_neg, odd_neg, -0.4, log_factor, 1e-10)
    assert negated["sign"] == -1
    assert negated["log10_abs_gap"] == pytest.approx(identity["log10_abs_gap"], abs=1e-9)
    # the phase of phi- cancels between the numerator and the overlap (the
    # result keeps Dt phi- next to phi-, so both change sign)
    flipped = dataclasses.replace(
        odd, coefficients=-odd.coefficients, dt_coefficients=-odd.dt_coefficients
    )
    assert gap_identity(even, flipped, 0.4, log_factor, 1e-10) == identity
    # the identity divides by the overlap, which must exceed 100 tol
    overlap = abs(float(even.coefficients @ odd.coefficients))
    assert gap_identity(even, odd, 0.4, log_factor, overlap / 100 * (1 + 1e-12)) is None
    assert gap_identity(even, odd, 0.4, log_factor, overlap / 100 * (1 - 1e-12)) is not None
    # at delta = 0 the sectors coincide: no gap to take the log of
    silent = silent_bath(1.0)
    plus, minus = solve_sectors(silent, ModelParams(0.0), 3)
    assert gap_identity(plus, minus, 0.0, log_prefactor(silent), 1e-10) is None
