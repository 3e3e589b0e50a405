import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from helpers import parity_phase

from sbmlab.bath import BathSpec, DiscretizationSpec, DiscretizedBath, discretize, log_prefactor
from sbmlab.errors import AccuracyError, CapacityError, SolverError
from sbmlab.fockspace import enumerate_basis, lowering_series
from sbmlab.sectors import (
    _DAVIDSON_RESTART,
    DisplacedParity,
    ModelParams,
    Sector,
    SectorMatrix,
    assemble_sector,
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
    for i, n in enumerate(basis):
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
    expected_diag = [n[0] * 1.0 - q2 for n in basis]
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


def log_grid_bath(s, alpha, modes):
    spec = BathSpec(s=s, alpha=alpha, omega_c=1.0)
    return discretize(spec, DiscretizationSpec(Lambda=2.0, N=modes - 1))


def test_davidson_matches_dense_eigh_at_weak_coupling():
    # alpha = 0.02 leaves the displaced basis least diagonal
    bath = log_grid_bath(0.5, 0.02, 7)
    basis = enumerate_basis(7, 5)
    assert basis.dim == 792
    params = ModelParams(0.5)
    for result in solve_sectors(bath, params, basis):
        assert result.iterations > 0
        entries = assemble_sector(bath, params, basis, result.sector).entries
        reference = scipy.linalg.eigh(entries, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert abs(result.energy - reference) <= 1e-12
        assert result.residual <= 1e-10


def test_davidson_converges_at_thirteen_modes():
    # dim 2380 with a polaron factor near 1e-14: the two sectors are
    # degenerate to rounding, and the solve must still meet tol
    bath = log_grid_bath(0.5, 0.2, 13)
    basis = enumerate_basis(13, 4)
    assert basis.dim == 2380
    even, odd = solve_sectors(bath, ModelParams(0.5), basis, tol=1e-10, max_iter=500)
    assert even.residual <= 1e-10 and odd.residual <= 1e-10
    assert (even.sector, odd.sector) == (Sector.EVEN, Sector.ODD)


def test_davidson_resolves_clustered_low_spectrum():
    # s = 1, alpha = 0.05 on 20 modes down to omega 2^-20: at n_max 3 the two
    # lowest odd levels lie 2.4e-6 apart, which a restart from one Ritz
    # vector cannot separate within 500 iterations
    bath = log_grid_bath(1.0, 0.05, 20)
    params = ModelParams(0.5)
    iterations = []
    for n_max in (2, 3):
        basis = enumerate_basis(20, n_max)
        for result in solve_sectors(bath, params, basis):
            entries = assemble_sector(bath, params, basis, result.sector).entries
            reference = scipy.linalg.eigh(entries, eigvals_only=True, subset_by_index=[0, 0])[0]
            assert abs(result.energy - reference) <= 1e-12
            iterations.append(result.iterations)
    assert max(iterations) > _DAVIDSON_RESTART  # the thick restart ran
    basis = enumerate_basis(20, 4)
    assert basis.dim == 10626
    larger = solve_sectors(bath, params, basis)
    smaller = solve_sectors(bath, params, enumerate_basis(20, 3))
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
    for result in solve_sectors(bath, params, basis):
        matrix = assemble_sector(bath, params, basis, result.sector)
        alone = ground_state(matrix)
        assert result.iterations == alone.iterations
        assert result.energy == alone.energy
        assert np.array_equal(result.coefficients, alone.coefficients)
        entries = matrix.entries
        assert np.array_equal(entries, entries.T)
        # the dense matrix is diag -+ (delta/2) * prefactor * P E' P E P
        omega, q = np.asarray(bath.omega), np.asarray(bath.q)
        E = lowering_series(basis, bath.q).toarray()
        P = np.diag([float(parity_phase(n)) for n in basis])
        factor = math.exp(log_prefactor(bath))
        expected = result.sector.tunneling_sign * (params.delta / 2.0) * factor * (
            P @ E.T @ P @ E @ P
        )
        expected += np.diag(basis.occupation_array() @ omega - float(omega @ (q * q)))
        assert np.abs(entries - expected).max() <= 1e-15 * np.abs(expected).max()
        x = np.random.default_rng(3).standard_normal(basis.dim)
        assert np.abs(matrix.apply(x) - entries @ x).max() <= 1e-13 * np.abs(entries @ x).max()


def test_solve_sectors_takes_the_displaced_diagonal_once(monkeypatch):
    # each DisplacedParity.diagonal call squares a copy of E (about 107 MiB
    # at 20 modes, n_max 6), and both sectors share the one result
    calls = []
    diagonal = DisplacedParity.diagonal

    def counted(self):
        calls.append(self)
        return diagonal(self)

    monkeypatch.setattr(DisplacedParity, "diagonal", counted)
    bath = DiscretizedBath.from_modes((1.0, 0.4, 0.16), (0.45, 0.3, 0.2))
    even, odd = solve_sectors(bath, ModelParams(0.6), enumerate_basis(3, 9))
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
            solve_sectors(bath, ModelParams(0.5), basis)
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
            solve_sectors(bath, ModelParams(0.5), basis)
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
    even, odd = solve_sectors(bath, ModelParams(0.5), basis)
    assert even.residual <= 1e-10 and odd.residual <= 1e-10
    assert odd.energy - even.energy > 0.0
    # variational: the smaller basis cannot go lower
    smaller = solve_sectors(bath, ModelParams(0.5), enumerate_basis(20, 4))
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


# ---------------------------------------------------------------- sector gap


def odd_minus_even(*args, **kwargs):
    even, odd = solve_sectors(*args, **kwargs)
    return odd.energy - even.energy


def test_gap_zero_coupling_is_delta():
    bath = silent_bath(1.0, 0.5)
    basis = enumerate_basis(2, 4)
    assert odd_minus_even(bath, ModelParams(0.3), basis) == pytest.approx(0.3, abs=1e-14)


def test_gap_negates_with_delta():
    bath = DiscretizedBath.from_modes((1.0, 0.4), (0.3, 0.2))
    basis = enumerate_basis(2, 6)
    forward = odd_minus_even(bath, ModelParams(0.45), basis)
    backward = odd_minus_even(bath, ModelParams(-0.45), basis)
    assert backward == pytest.approx(-forward, rel=1e-12)


def test_gap_positive_and_shrinking_with_mode_count():
    # sub-ohmic bath: every added mode increases sum q**2 and squeezes the gap
    spec = BathSpec(s=0.1, alpha=0.05, omega_c=1.0)
    params = ModelParams(0.1)
    gaps = []
    for N in range(5):
        bath = discretize(spec, DiscretizationSpec(Lambda=2.0, N=N))
        basis = enumerate_basis(bath.mode_count, 6)
        gaps.append(odd_minus_even(bath, params, basis))
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
    splitting = odd_minus_even(bath, ModelParams(delta), basis, tol=1e-12)
    assert splitting / delta == pytest.approx(math.exp(log_prefactor(bath)), rel=1e-4)
