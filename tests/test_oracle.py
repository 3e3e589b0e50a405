import functools
import math
import re

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from helpers import (
    basis_states,
    coupling_matrix,
    dense_spectrum,
    displacement_matrix,
    frozen_spin_check,
    magnetization,
    rabi_levels,
)

import sbmlab.oracle
from sbmlab.bath import BathSpec, DiscretizationSpec, DiscretizedBath, discretize
from sbmlab.errors import AccuracyError, CapacityError
from sbmlab.fockspace import enumerate_basis
from sbmlab.oracle import (
    MIXED,
    _lowest_eigenpairs,
    assemble_full,
    ground_parity,
    ground_sigma_z,
    parity_commutator_norm,
    partition_bound,
    rotation_defects,
    sector_blocks,
)
from sbmlab.sectors import ModelParams, Sector, _davidson_lowest, assemble_sector, ground_state


def single_mode(q, omega=1.0):
    return DiscretizedBath.from_modes((omega,), (q * omega,))


def silent_bath(*omegas):
    return DiscretizedBath.from_modes(tuple(omegas), (0.0,) * len(omegas))


def spin_model(basis):
    """The full model over basis with every coupling 0: its Pi and U depend on basis alone."""
    omegas = tuple(1.0 / (k + 1) for k in range(basis.mode_count))
    return assemble_full(ModelParams(delta=1.0), silent_bath(*omegas), basis)


# ---------------------------------------------------------------- assembly


def test_assemble_decoupled_spin():
    H = assemble_full(ModelParams(delta=1.0), silent_bath(1.0), enumerate_basis(1, 1)).hamiltonian
    assert H.shape == (4, 4)
    assert np.array_equal(H.toarray(), H.T.toarray())
    vals = np.linalg.eigvalsh(H.toarray())
    assert vals[0] == pytest.approx(-0.5, abs=1e-14)


def test_assemble_polarized_spin_ladder():
    omega = 0.9
    basis = enumerate_basis(1, 4)
    model = assemble_full(ModelParams(delta=0.0, epsilon=1.0), silent_bath(omega), basis)
    vals = np.linalg.eigvalsh(model.hamiltonian.toarray())
    expected = sorted(omega * n[0] + sign * 0.5 for n in basis_states(basis) for sign in (+1, -1))
    assert np.allclose(vals, expected, atol=1e-14)


def test_coupling_matches_a_loop_over_states():
    # V filled from the ladder maps equals a per-state loop over a state -> index map
    bath = DiscretizedBath.from_modes((1.0, 0.5, 0.25), (0.3, -0.2, 0.1))
    basis = enumerate_basis(3, 4)
    index = {state: i for i, state in enumerate(basis_states(basis))}
    V = np.zeros((basis.dim, basis.dim))
    for i, n in enumerate(basis_states(basis)):
        if sum(n) == basis.n_max:
            continue
        for k, lam_k in enumerate(bath.lam):
            j = index[n[:k] + (n[k] + 1,) + n[k + 1 :]]
            V[i, j] = V[j, i] = lam_k * math.sqrt(n[k] + 1)
    H = assemble_full(ModelParams(delta=0.0), bath, basis).hamiltonian.toarray()
    boson = np.diag([float(np.dot(n, bath.omega)) for n in basis_states(basis)])
    assert np.array_equal(H[: basis.dim, : basis.dim], boson + V)


def test_hamiltonian_is_one_csr_array_matching_a_dense_build():
    # the textbook dense assembly, spin-up block first
    bath = DiscretizedBath.from_modes((1.0, 0.45), (0.3, -0.2))
    basis = enumerate_basis(2, 5)
    dim = basis.dim
    boson = np.diag([float(np.dot(n, bath.omega)) for n in basis_states(basis)])
    # V as checked against a loop over states in the test above
    V = assemble_full(ModelParams(0.0), bath, basis).hamiltonian.toarray()[:dim, :dim] - boson
    for delta, epsilon in ((0.6, 0.0), (-0.3, 0.25), (0.0, 0.0)):
        H = assemble_full(ModelParams(delta, epsilon), bath, basis).hamiltonian
        assert isinstance(H, scipy.sparse.csr_array)
        assert H.nnz < (2 * dim) ** 2 / 4
        reference = np.block(
            [
                [boson + V + epsilon / 2 * np.eye(dim), -delta / 2 * np.eye(dim)],
                [-delta / 2 * np.eye(dim), boson - V - epsilon / 2 * np.eye(dim)],
            ]
        )
        assert np.array_equal(H.toarray(), reference)


def test_assemble_capacity_and_mode_mismatch(monkeypatch):
    # the CSR arrays of H count toward MAX_OPERATOR_BYTES, by a closed form
    # that is exact where no entry of V or of the tunneling blocks is zero
    # (every diagonal entry is stored); the count is 8 times them, 20 bytes
    # per state and mode and 1 MiB, so a cap of the CSR bytes alone refuses
    # H, and a cap of the whole count is the smallest that accepts it.  Fock
    # dim 3003 is not refused
    bath = DiscretizedBath.from_modes((1.0, 0.4), (0.5, 0.2))
    basis = enumerate_basis(2, 3)
    params = ModelParams(0.1, epsilon=0.3)
    H = assemble_full(params, bath, basis).hamiltonian
    nbytes = H.data.nbytes + H.indices.nbytes + H.indptr.nbytes
    monkeypatch.setattr(sbmlab.oracle, "MAX_OPERATOR_BYTES", nbytes)
    with pytest.raises(CapacityError, match=f"{nbytes} bytes as CSR, ") as refused:
        assemble_full(params, bath, basis)
    count = int(re.search(r"(\d+) bytes in all", str(refused.value))[1])
    assert count == 8 * nbytes + 20 * 2 * basis.dim + 2**20
    monkeypatch.setattr(sbmlab.oracle, "MAX_OPERATOR_BYTES", count)
    assemble_full(params, bath, basis)
    monkeypatch.setattr(sbmlab.oracle, "MAX_OPERATOR_BYTES", count - 1)
    with pytest.raises(CapacityError):
        assemble_full(params, bath, basis)
    monkeypatch.undo()
    wide = silent_bath(*([1.0 / (k + 1) for k in range(6)]))
    assert assemble_full(ModelParams(0.1), wide, enumerate_basis(6, 8)).enumeration.dim == 3003
    with pytest.raises(ValueError):
        assemble_full(ModelParams(0.1), single_mode(0.3), enumerate_basis(2, 3))


def test_assembly_is_canonical_and_stores_only_the_diagonal_zeros():
    # H is a canonical CSR array (sorted, no duplicates) that stores every
    # diagonal entry, also a zero one, and no other zero: the entries of a
    # silent mode (lambda_k = 0), of delta = 0 and of a delta/2 that
    # underflows are dropped
    rng = np.random.default_rng(5)
    for modes, n_max in ((1, 0), (1, 5), (2, 4), (3, 3), (5, 2)):
        basis = enumerate_basis(modes, n_max)
        lams = rng.uniform(-1.0, 1.0, modes)
        for silent in (False, True):
            if silent:
                lams[rng.integers(modes)] = 0.0
            omegas = tuple(np.sort(rng.uniform(0.1, 2.0, modes))[::-1])
            bath = DiscretizedBath.from_modes(omegas, tuple(lams))
            for delta, epsilon in ((0.5, 0.0), (0.0, 0.0), (-0.3, 0.25), (5e-324, 0.1)):
                params = ModelParams(delta, epsilon)
                H = assemble_full(params, bath, basis).hamiltonian
                assert H.has_canonical_format
                rows = np.repeat(np.arange(2 * basis.dim), np.diff(H.indptr))
                diagonal = H.indices == rows
                assert np.count_nonzero(diagonal) == 2 * basis.dim
                assert np.all(H.data[~diagonal] != 0.0)
                # V stores two entries per spin block, state below n_max and
                # mode with lambda_k != 0, and the tunneling one per row
                raisable = np.count_nonzero(basis.totals < n_max)
                tunneling = 2 * basis.dim * (delta / 2.0 != 0.0)
                off = 4 * raisable * np.count_nonzero(lams) + tunneling
                assert H.nnz == 2 * basis.dim + off
                # the epsilon 0 assembly moved to epsilon: the same arrays,
                # the index arrays shared with the unbiased H
                unbiased = assemble_full(ModelParams(delta), bath, basis)
                biased = unbiased.with_bias(epsilon).hamiltonian
                assert np.shares_memory(biased.indices, unbiased.hamiltonian.indices)
                assert np.shares_memory(biased.indptr, unbiased.hamiltonian.indptr)
                for name in ("indptr", "indices", "data"):
                    got, expected = getattr(biased, name), getattr(H, name)
                    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "lam,dps,terms,plus,log10_gap",
    [
        (2.0, 30, 100, "-4.0042738822927544", "-3.76982925015"),
        (5.0, 50, 300, "-25.000631378950399", "-22.0143443977"),
    ],
)
def test_g_function_gives_the_exact_one_mode_pair(lam, dps, terms, plus, log10_gap):
    # omega 1, delta 0.5: at g 5 the gap, 9.7e-23, is below what any double
    # solve of E+ and E- resolves.  At 60 digits and 400 terms (g 2) and at
    # 90 digits and 600 terms (g 5) E+ moves by under 1e-45
    E_plus, E_minus, gap = rabi_levels(1.0, lam, 0.5, dps, terms)
    assert abs(E_plus - mpmath.mpf(plus)) < 1e-15
    assert abs(gap - mpmath.mpf(log10_gap)) < 1e-10
    assert E_minus > E_plus


@pytest.mark.parametrize("lam,terms", [(0.5, 40), (2.0, 100)])
def test_sector_blocks_meet_the_g_function_at_one_mode(lam, terms):
    # f = 0 at n_max 30 has converged at one mode (2.7e-15 at g 2); the
    # even block of U H U' holds the 1 + b/(x - n) branch, E+, and the odd
    # one E-
    E_plus, E_minus, _ = rabi_levels(1.0, lam, 0.5, 30, terms)
    model = assemble_full(ModelParams(0.5), single_mode(lam), enumerate_basis(1, 30))
    even, odd, _ = sector_blocks(model)
    assert dense_spectrum(even)[0] == pytest.approx(float(E_plus), abs=1e-12)
    assert dense_spectrum(odd)[0] == pytest.approx(float(E_minus), abs=1e-12)


@functools.cache
def f0_blocks(N, n_max):
    """The CSR (even, odd) f = 0 blocks at s 0.1, alpha 0.3, Lambda 2, delta 0.5, and P."""
    bath = discretize(BathSpec(s=0.1, alpha=0.3, omega_c=1.0), DiscretizationSpec(2.0, N))
    basis = enumerate_basis(N + 1, n_max)
    even, odd, _ = sector_blocks(assemble_full(ModelParams(0.5), bath, basis))
    return even.tocsr(), odd.tocsr(), basis.parity


def lanczos_lowest(block):
    (energy,), vectors = _lowest_eigenpairs(block, 1)
    return energy, vectors[:, 0]


def davidson_lowest(block):
    """The sector path's Davidson solve, given only the block's product and diagonal."""
    energy, vector, _, residual, _ = _davidson_lowest(block.__matmul__, block.diagonal(), 1e-10, 500)
    assert residual <= 1e-10
    return energy, vector


@functools.cache
def converged_f0_pair(N, n_max, lowest=lanczos_lowest):
    """(E+, E-, |phi+ . P phi-|) of the f = 0 blocks, each solved by lowest."""
    even, odd, parity = f0_blocks(N, n_max)
    (E_plus, phi_plus), (E_minus, phi_minus) = lowest(even), lowest(odd)
    return E_plus, E_minus, abs(phi_plus @ (parity * phi_minus))


# the converged f = 0 rows of ROADMAP's "Read this first" table
@pytest.mark.parametrize(
    "N, n_max, E_plus, gap, overlap",
    [
        (3, 16, -0.4252940563378, 2.502235e-2, 0.763003),
        (3, 20, -0.4252940563384, 2.502235e-2, 0.763003),
        (4, 20, -0.4700706342373, 2.104154e-3, 0.894070),
    ],
)
def test_sector_blocks_give_the_converged_f0_rows(N, n_max, E_plus, gap, overlap):
    # ARPACK and the sector path's Davidson solve meet the same pins, and
    # agree in E+ and E- (measured within 2.2e-15)
    lanczos = converged_f0_pair(N, n_max)
    davidson = converged_f0_pair(N, n_max, davidson_lowest)
    for E_even, E_odd, parity_overlap in (lanczos, davidson):
        assert E_even == pytest.approx(E_plus, abs=1e-10)
        assert E_odd - E_even == pytest.approx(gap, rel=1e-6)
        assert parity_overlap == pytest.approx(overlap, abs=1e-6)
    assert np.abs(np.subtract(davidson[:2], lanczos[:2])).max() <= 1e-12


@pytest.mark.parametrize("N, n_max", [(0, 30), (3, 8), (4, 20)])  # dim 31, 495, 53130
def test_sector_blocks_are_the_f0_sector_operators(N, n_max):
    # the f = 0 recipe: with b = sum omega n and P the boson parity, the even
    # block is diag(b) + V - (delta/2) P and the odd one diag(b) - V +
    # (delta/2) P; P V P = -V, so P odd P shares diag(b) + V with the even
    # block and differs only in the sign of the tunneling term
    bath = discretize(BathSpec(s=0.1, alpha=0.3, omega_c=1.0), DiscretizationSpec(2.0, N))
    basis = enumerate_basis(N + 1, n_max)
    model = assemble_full(ModelParams(0.5), bath, basis)
    even, odd, _ = sector_blocks(model)
    b = scipy.sparse.diags_array(basis.occupations @ np.asarray(bath.omega))
    V = coupling_matrix(bath, basis)
    P = scipy.sparse.diags_array(basis.parity.astype(float))
    scale = float(abs(model.hamiltonian).sum(axis=1).max())  # ||H||_inf, 7.4 to 25
    # measured at most 3.6e-15
    for block, expected in (
        (even, b + V - 0.25 * P),
        (odd, b - V + 0.25 * P),
        (P @ odd @ P, b + V + 0.25 * P),
    ):
        assert abs(block - expected).max() <= 1e-15 * scale


def test_converged_f0_row_holds_from_n_max_16_to_20():
    assert abs(converged_f0_pair(3, 16)[0] - converged_f0_pair(3, 20)[0]) < 1e-11


def test_cross_module_ground_energy():
    # lowest sector energy reproduces the dense ground at converged n_max
    basis = enumerate_basis(1, 14)
    bath = single_mode(0.3)
    params = ModelParams(delta=0.2)
    dense = np.linalg.eigvalsh(assemble_full(params, bath, basis).hamiltonian.toarray())[0]
    even = ground_state(assemble_sector(bath, params, basis, Sector.EVEN)).energy
    odd = ground_state(assemble_sector(bath, params, basis, Sector.ODD)).energy
    assert min(even, odd) == pytest.approx(dense, abs=1e-9)


# ---------------------------------------------------------------- parity operator


def test_parity_involutory():
    basis = enumerate_basis(2, 4)
    Pi = spin_model(basis).parity.toarray()
    assert np.array_equal(Pi, Pi.T)
    assert np.array_equal(Pi @ Pi, np.eye(2 * basis.dim))


def test_parity_commutes_at_zero_field():
    bath = DiscretizedBath.from_modes((1.0, 0.4), (0.35, 0.2))
    basis = enumerate_basis(2, 6)
    model = assemble_full(ModelParams(delta=0.7), bath, basis)
    Pi = model.parity.toarray()
    H = model.hamiltonian.toarray()
    assert np.linalg.norm(H @ Pi - Pi @ H) < 1e-13


@pytest.mark.parametrize("epsilon", [1e-3, 0.1, 1.0])
def test_parity_breaking_norm_equals_epsilon(epsilon):
    bath = single_mode(0.4)
    basis = enumerate_basis(1, 8)
    model = assemble_full(ModelParams(delta=0.3, epsilon=epsilon), bath, basis)
    assert parity_commutator_norm(model) == pytest.approx(epsilon, rel=1e-12)


# ---------------------------------------------------------------- block rotation


def test_unitary_access_is_unitary():
    basis = enumerate_basis(2, 5)
    U = spin_model(basis).rotation.toarray()
    assert np.abs(U @ U.T - np.eye(2 * basis.dim)).max() < 1e-14


def test_rotation_unitarity_defect_bounds_and_catches_a_perturbed_U(monkeypatch):
    basis = enumerate_basis(2, 5)
    model = spin_model(basis)
    U = model.rotation
    unitarity, parity_defect = rotation_defects(model)
    exact = np.linalg.norm((U @ U.T).toarray() - np.eye(2 * basis.dim), 2)
    assert exact <= unitarity < 1e-14 and parity_defect < 1e-14
    # one off-diagonal entry of 1e-9 must fail oracle-check's < 1e-14 check
    perturbed = U.tolil()
    perturbed[0, 1] += 1e-9
    monkeypatch.setitem(model.__dict__, "rotation", perturbed.tocsr())
    unitarity, _ = rotation_defects(model)
    assert not unitarity < 1e-14
    assert unitarity >= 1e-9 / math.sqrt(2)


def test_rotation_and_parity_are_built_once_per_basis():
    model = spin_model(enumerate_basis(2, 5))
    for name in ("rotation", "parity"):
        matrix = getattr(model, name)
        assert getattr(model, name) is matrix
        for array in (matrix.data, matrix.indices, matrix.indptr):
            with pytest.raises(ValueError):
                array[0] = 0
    assert spin_model(enumerate_basis(2, 4)).rotation.shape == (2 * 15, 2 * 15)


def test_rotation_transports_parity_to_sigma_z():
    basis = enumerate_basis(2, 5)
    model = spin_model(basis)
    U = model.rotation.toarray()
    Pi = model.parity.toarray()
    dim = basis.dim
    sigma_z = np.diag(np.concatenate([np.ones(dim), -np.ones(dim)]))
    assert np.abs(U @ Pi @ U.T - sigma_z).max() < 1e-14


@pytest.mark.parametrize(
    "omegas,lams,n_max",
    [
        ((1.0,), (0.45,), 12),
        ((1.0, 0.4), (0.3, 0.18), 8),
        ((1.0, 0.5, 0.25), (0.2, 0.12, 0.06), 5),
    ],
)
def test_rotation_block_diagonalizes_exactly(omegas, lams, n_max):
    bath = DiscretizedBath.from_modes(omegas, lams)
    basis = enumerate_basis(len(omegas), n_max)
    model = assemble_full(ModelParams(delta=0.6), bath, basis)
    upper, lower, off = sector_blocks(model)
    assert off < 1e-12
    assert isinstance(upper, scipy.sparse.csr_array) and isinstance(lower, scipy.sparse.csr_array)
    union = np.sort(
        np.concatenate([np.linalg.eigvalsh(upper.toarray()), np.linalg.eigvalsh(lower.toarray())])
    )
    dense = np.linalg.eigvalsh(model.hamiltonian.toarray())
    # exact spectrum partition: the rotation is unitary on the truncated space
    assert np.abs(union - dense).max() < 1e-9


def _dense_partition_deviation(model, even_block, odd_block) -> float:
    """max_i |lambda_i(H) - lambda_i(even (+) odd)| from three dense spectra."""
    union = np.sort(np.concatenate([dense_spectrum(even_block), dense_spectrum(odd_block)]))
    return float(np.abs(dense_spectrum(model.hamiltonian) - union).max())


# acceptance criterion 7's configs: (modes, n_max, s, alpha)
CRITERION_7 = [(1, 12, 0.5, 0.3), (2, 8, 0.1, 0.2), (3, 5, 1.0, 0.15)]


def _criterion_7_model(mode_count, n_max, s, alpha, epsilon=0.0):
    spec = BathSpec(s=s, alpha=alpha, omega_c=1.0)
    bath = discretize(spec, DiscretizationSpec(Lambda=2.0, N=mode_count - 1))
    return assemble_full(ModelParams(0.7, epsilon), bath, enumerate_basis(mode_count, n_max))


@pytest.mark.parametrize("mode_count, n_max, s, alpha", CRITERION_7)
def test_partition_bound_covers_the_dense_deviation(mode_count, n_max, s, alpha):
    # the bound is on the exact eigenvalues; dsyevd's own rounding, up to
    # about n eps ||H|| per eigenvalue, is the dense route's allowance
    model = _criterion_7_model(mode_count, n_max, s, alpha)
    unitarity, _ = rotation_defects(model)
    even_block, odd_block, off = sector_blocks(model)
    bound = partition_bound(model, unitarity, off)
    H = model.hamiltonian
    allowance = H.shape[0] * np.finfo(float).eps * float(abs(H).sum(axis=1).max())
    assert bound < 1e-9
    assert _dense_partition_deviation(model, even_block, odd_block) <= bound + allowance


def test_partition_bound_fails_a_broken_partition():
    # epsilon = 1e-6 couples the two blocks of U H U': the deviation is real
    # and the bound, which holds it, no longer passes the check's 1e-9
    for config in CRITERION_7:
        model = _criterion_7_model(*config, epsilon=1e-6)
        unitarity, _ = rotation_defects(model)
        even_block, odd_block, off = sector_blocks(model)
        bound = partition_bound(model, unitarity, off)
        # the symmetric parts of the blocks, whose spectra the bound is about
        even_block, odd_block = ((A + A.T) / 2.0 for A in (even_block, odd_block))
        assert bound >= _dense_partition_deviation(model, even_block, odd_block)
        assert bound > 1e-9


def test_partition_bound_grows_with_the_unitarity_defect():
    # Ostrowski's term: a defect delta of U U' - I can move each eigenvalue
    # by delta ||H||, which the bound adds to the rounding terms
    model = _criterion_7_model(2, 8, 0.1, 0.2)
    unitarity, _ = rotation_defects(model)
    _, _, off = sector_blocks(model)
    norm = float(abs(model.hamiltonian).sum(axis=1).max())
    base = partition_bound(model, unitarity, off)
    assert partition_bound(model, unitarity + 1e-9, off) == pytest.approx(
        base + 1e-9 * norm, rel=1e-12
    )
    assert partition_bound(model, unitarity, off + 1e-9) == pytest.approx(base + 1e-9, rel=1e-12)


def test_with_bias_rewrites_only_the_diagonal():
    # one assembly at epsilon = 0, biased, stores the zero diagonal entries
    # that an assembly from diagonal matrices drops; the Lanczos pair, whose
    # products read every stored entry, is the same to the bit
    bath = DiscretizedBath.from_modes((1.0, 0.45), (0.3, -0.2))
    basis = enumerate_basis(2, 5)
    dim = basis.dim
    unbiased = assemble_full(ModelParams(0.6), bath, basis)
    H0 = unbiased.hamiltonian
    assert H0.nnz == np.count_nonzero(H0.data) + 2  # the vacuum's diagonal entries
    V = coupling_matrix(bath, basis)
    boson = basis.occupations @ np.asarray(bath.omega)
    tunneling = -0.3 * scipy.sparse.eye_array(dim)
    for epsilon in (-0.5, 0.0, 0.25, 1e-9):
        biased = unbiased.with_bias(epsilon).hamiltonian
        assert np.shares_memory(biased.indices, H0.indices)
        upper = scipy.sparse.diags_array(boson + epsilon / 2.0) + V
        lower = scipy.sparse.diags_array(boson - epsilon / 2.0) - V
        reference = scipy.sparse.block_array(
            [[upper, tunneling], [tunneling, lower]], format="csr"
        )
        assert np.array_equal(biased.toarray(), reference.toarray())
        for got, expected in zip(_lowest_eigenpairs(biased, 2), _lowest_eigenpairs(reference, 2)):
            assert np.array_equal(got, expected)
    assert np.array_equal(H0.data, unbiased.with_bias(0.0).hamiltonian.data)


def test_every_nondegenerate_eigenvector_has_definite_parity():
    bath = DiscretizedBath.from_modes((1.0, 0.37), (0.4, 0.15))
    basis = enumerate_basis(2, 7)
    model = assemble_full(ModelParams(delta=0.5), bath, basis)
    vals, vecs = np.linalg.eigh(model.hamiltonian.toarray())
    Pi = model.parity.toarray()
    gaps = np.diff(vals)
    for i in range(len(vals)):
        isolated = (i == 0 or gaps[i - 1] > 1e-8) and (i == len(vals) - 1 or gaps[i] > 1e-8)
        if not isolated:
            continue
        expectation = vecs[:, i] @ Pi @ vecs[:, i]
        assert abs(expectation) > 1 - 1e-8


def test_dense_spectrum_and_ground_pair_match_a_full_eigh():
    # the spectrum is dsyevd's values-only path, bit for bit; the ground
    # pair from Lanczos on the CSR H agrees with dsyevr's
    two_modes = DiscretizedBath.from_modes((1.0, 0.37), (0.4, 0.15))
    cases = [
        (single_mode(0.3), 1, ModelParams(delta=0.5), 1),
        (single_mode(0.3), 1, ModelParams(delta=-0.5), -1),
        (single_mode(0.3), 1, ModelParams(delta=0.5, epsilon=0.2), MIXED),
        (two_modes, 7, ModelParams(delta=0.5), 1),
        (two_modes, 7, ModelParams(delta=-0.5), -1),
        (two_modes, 7, ModelParams(delta=0.5, epsilon=0.05), MIXED),
    ]
    for bath, n_max, params, label in cases:
        model = assemble_full(params, bath, enumerate_basis(bath.mode_count, n_max))
        H = model.hamiltonian.toarray()
        vals, vecs = np.linalg.eigh(H)
        spectrum = dense_spectrum(model.hamiltonian)
        assert np.abs(spectrum - vals).max() < 1e-12
        assert np.array_equal(spectrum, scipy.linalg.eigvalsh(H, driver="evd"))
        pair_vals, pair_vecs = _lowest_eigenpairs(model.hamiltonian, 2)
        assert pair_vals.shape == (2,) and pair_vecs.shape == (H.shape[0], 2)
        assert np.abs(pair_vals - vals[:2]).max() < 1e-12
        for i in range(2):
            assert abs(abs(pair_vecs[:, i] @ vecs[:, i]) - 1.0) < 1e-10
        ref_vals, ref_vecs = scipy.linalg.eigh(H, subset_by_index=[0, 1])
        assert np.abs(pair_vals - ref_vals).max() < 1e-12
        assert np.all(np.abs(np.sum(pair_vecs * ref_vecs, axis=0)) >= 1.0 - 1e-10)
        assert ground_parity(model) == label


def test_dense_spectrum_refuses_a_nonfinite_entry_before_forming_a_dense_array(monkeypatch):
    # the stored entries are checked, with the error scipy's own finiteness
    # check raises on the dense array
    dense = np.diag([1.0, 2.0, 3.0])
    dense[0, 2] = dense[2, 0] = math.nan
    A = scipy.sparse.csr_array(dense)
    with pytest.raises(ValueError) as scipy_error:
        scipy.linalg.eigvalsh(dense)

    def refuse(*args, **kwargs):
        raise AssertionError("dense_spectrum formed a dense array")

    monkeypatch.setattr(scipy.sparse.csr_array, "toarray", refuse)
    for value in (math.nan, math.inf):
        A.data[~np.isfinite(A.data)] = value
        with pytest.raises(ValueError) as error:
            dense_spectrum(A)
        assert str(error.value) == str(scipy_error.value)


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_lanczos_rescales_h_outside_the_safe_range(scale):
    # every entry of H scales with the energy unit; the Lanczos solve scales
    # H by a power of two first and dsyevd scales it itself, so both agree
    # with dsyevr's and dsyevd's results to the eigenvalues' size
    bath = DiscretizedBath.from_modes((scale, 0.37 * scale), (0.4 * scale, 0.15 * scale))
    model = assemble_full(ModelParams(delta=0.5 * scale), bath, enumerate_basis(2, 3))
    H = model.hamiltonian.toarray()
    reference = scipy.linalg.eigvalsh(H, driver="evd")
    assert np.abs(dense_spectrum(model.hamiltonian) - reference).max() < 1e-13 * scale
    vals, vecs = _lowest_eigenpairs(model.hamiltonian, 2)
    ref_vals, ref_vecs = scipy.linalg.eigh(H, subset_by_index=[0, 1])
    assert np.abs(vals - ref_vals).max() < 1e-13 * scale
    assert np.all(np.abs(np.sum(vecs * ref_vecs, axis=0)) >= 1.0 - 1e-10)


def test_displaced_sector_spectra_match_dense_at_low_end():
    # the displaced truncation spans a different subspace, so only
    # n_max-converged eigenvalues are comparable
    bath = single_mode(0.3)
    params = ModelParams(delta=0.2)
    low = 6

    def union_bottom(n_max):
        basis = enumerate_basis(1, n_max)
        spectra = [
            np.linalg.eigvalsh(assemble_sector(bath, params, basis, sector).entries)
            for sector in Sector
        ]
        return np.sort(np.concatenate(spectra))[:low]

    at_14, at_16 = union_bottom(14), union_bottom(16)
    assert np.abs(at_14 - at_16).max() < 1e-10  # converged
    dense = np.linalg.eigvalsh(
        assemble_full(params, bath, enumerate_basis(1, 14)).hamiltonian.toarray()
    )[:low]
    assert np.abs(at_14 - dense).max() < 1e-9


def test_upper_block_matches_even_displaced_spectrum_at_low_end():
    bath = single_mode(0.3)
    params = ModelParams(delta=0.2)
    basis = enumerate_basis(1, 14)
    upper, _, _ = sector_blocks(assemble_full(params, bath, basis))
    block_low = np.linalg.eigvalsh(upper.toarray())[:5]
    even_low = np.linalg.eigvalsh(assemble_sector(bath, params, basis, Sector.EVEN).entries)[:5]
    assert np.abs(block_low - even_low).max() < 1e-9


# ---------------------------------------------------------------- ground parity


def test_ground_parity_decoupled_even():
    model = assemble_full(ModelParams(delta=0.8), silent_bath(1.0), enumerate_basis(1, 4))
    assert ground_parity(model) == 1


def test_ground_parity_negative_delta_odd():
    model = assemble_full(ModelParams(delta=-0.5), silent_bath(1.0), enumerate_basis(1, 4))
    assert ground_parity(model) == -1


def test_ground_parity_randomized_zero_field_suite():
    rng = np.random.default_rng(7)
    for _ in range(8):
        mode_count = int(rng.integers(1, 3))
        omegas = tuple(sorted(rng.uniform(0.2, 1.0, mode_count), reverse=True))
        lams = tuple(rng.uniform(0.0, 0.4, mode_count))
        delta = float(rng.uniform(0.05, 1.0))
        model = assemble_full(
            ModelParams(delta=delta),
            DiscretizedBath.from_modes(omegas, lams),
            enumerate_basis(mode_count, 6),
        )
        assert ground_parity(model) in (1, -1)


def test_ground_parity_mixed_at_broken_symmetry():
    model = assemble_full(
        ModelParams(delta=0.3, epsilon=0.3), single_mode(0.4), enumerate_basis(1, 8)
    )
    assert ground_parity(model) == MIXED


@pytest.mark.parametrize("scale", [1e-160, 1.0, 1e160])
def test_ground_parity_label_does_not_depend_on_the_energy_unit(scale):
    # the gap is 0.22 of the scale at every scale, so the floor that
    # refuses a degenerate gap must scale with H too
    bath = DiscretizedBath.from_modes((scale, 0.37 * scale), (0.4 * scale, 0.15 * scale))
    model = assemble_full(ModelParams(delta=0.5 * scale), bath, enumerate_basis(2, 3))
    assert ground_parity(model) == 1


def test_ground_parity_degenerate_raises():
    # delta = 0, epsilon = 0: the two spin blocks are identical
    model = assemble_full(ModelParams(delta=0.0), silent_bath(1.0), enumerate_basis(1, 3))
    with pytest.raises(AccuracyError):
        ground_parity(model)


# ---------------------------------------------------------------- magnetization


def sector_grounds(bath, params, basis):
    plus = ground_state(assemble_sector(bath, params, basis, Sector.EVEN))
    minus = ground_state(assemble_sector(bath, params, basis, Sector.ODD))
    return plus, minus


def test_magnetization_vanishes_at_pure_angles():
    plus, minus = sector_grounds(single_mode(0.4), ModelParams(0.3), enumerate_basis(1, 10))
    assert magnetization(0.0, plus, minus) == 0.0
    assert abs(magnetization(math.pi / 2, plus, minus)) < 1e-15


def test_magnetization_uncoupled_reference():
    plus, minus = sector_grounds(silent_bath(1.0), ModelParams(0.3), enumerate_basis(1, 6))
    assert float(plus.coefficients @ minus.coefficients) == pytest.approx(1.0, abs=1e-14)
    assert magnetization(math.pi / 4, plus, minus) == pytest.approx(-1.0, abs=1e-14)


def test_magnetization_odd_in_theta_and_bounded():
    bath = DiscretizedBath.from_modes((1.0, 0.4), (0.5, 0.2))
    plus, minus = sector_grounds(bath, ModelParams(0.4), enumerate_basis(2, 8))
    omega = float(plus.coefficients @ minus.coefficients)
    assert abs(omega) <= 1.0 + 1e-12
    for theta in (0.2, 0.9, 1.4):
        assert magnetization(-theta, plus, minus) == pytest.approx(
            -magnetization(theta, plus, minus), rel=1e-13
        )


def test_magnetization_reduction_against_dense_sigma_z():
    # rebuild both sector grounds in the undisplaced full space and evaluate
    # <sigma_z> on the superposition directly
    bath = single_mode(0.3)
    params = ModelParams(delta=0.2)
    basis = enumerate_basis(1, 14)
    plus, minus = sector_grounds(bath, params, basis)
    upper, lower, _ = sector_blocks(assemble_full(params, bath, basis))
    x = np.linalg.eigh(upper.toarray())[1][:, 0]
    y = np.linalg.eigh(lower.toarray())[1][:, 0]
    # displaced -> undisplaced conversion fixes the sign conventions
    convert = displacement_matrix(-bath.q[0], basis.dim, buffer=26)
    parity = np.diag([(-1.0) ** n[0] for n in basis_states(basis)])
    x_ref = convert @ plus.coefficients
    y_ref = parity @ convert @ minus.coefficients
    assert np.abs(x - np.sign(x @ x_ref) * x_ref).max() < 1e-8
    assert np.abs(y - np.sign(y @ y_ref) * y_ref).max() < 1e-8
    if x @ x_ref < 0:
        x = -x
    if y @ y_ref < 0:
        y = -y
    for theta in (0.3, 0.7, 1.1):
        dense_value = -math.sin(2 * theta) * float(x @ parity @ y)
        assert magnetization(theta, plus, minus) == pytest.approx(dense_value, abs=1e-8)


def test_dense_magnetization_odd_in_epsilon():
    bath = single_mode(0.4)
    basis = enumerate_basis(1, 12)
    for epsilon in (0.05, 0.2):
        forward = ground_sigma_z(assemble_full(ModelParams(0.3, epsilon), bath, basis))
        backward = ground_sigma_z(assemble_full(ModelParams(0.3, -epsilon), bath, basis))
        assert backward == pytest.approx(-forward, abs=1e-10)
        assert abs(forward) <= 1.0
    at_zero = ground_sigma_z(assemble_full(ModelParams(0.3, 0.0), bath, basis))
    assert abs(at_zero) < 1e-10


# ---------------------------------------------------------------- frozen spin


def test_frozen_spin_commutes():
    assert frozen_spin_check(single_mode(0.5), enumerate_basis(1, 8)) < 1e-13
    bath = DiscretizedBath.from_modes((1.0, 0.3), (0.4, 0.12))
    assert frozen_spin_check(bath, enumerate_basis(2, 5)) < 1e-13


def test_frozen_spin_zero_coupling_exact():
    assert frozen_spin_check(silent_bath(1.0), enumerate_basis(1, 4)) == 0.0


def test_tunneling_breaks_sigma_z_conservation():
    bath = single_mode(0.4)
    basis = enumerate_basis(1, 6)
    model = assemble_full(ModelParams(delta=0.5), bath, basis)
    dim = basis.dim
    sz = np.diag(np.concatenate([np.ones(dim), -np.ones(dim)]))
    H = model.hamiltonian.toarray()
    norm = np.linalg.norm(H @ sz - sz @ H, 2)
    assert norm == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------- commutator norms


@pytest.fixture
def no_eigensolve(monkeypatch):
    """Make any symmetric eigensolve fail: the commutator norms must need none."""

    def refuse(*args, **kwargs):
        raise AssertionError("a commutator norm ran an eigensolve")

    monkeypatch.setattr(scipy.linalg, "eigvalsh", refuse)


def test_oracle_commutator_norms_are_exact_without_an_eigensolve(no_eigensolve):
    # [H, Pi] has at most one nonzero per row and column,
    # (b_n + eps/2) - (b_n - eps/2) up to sign: the V and tunneling terms
    # cancel exactly, so its norm is its largest entry, |eps| up to the
    # rounding of the boson energy b_n, also at omega_c 1e7.  [H', sigma_z]
    # vanishes identically at delta = 0.
    basis = enumerate_basis(2, 6)
    Pi = spin_model(basis).parity
    cases = [(1.0, eps) for eps in (0.0, 1e-200, 0.25, -1e-3, 1e7)] + [(1e7, 3e6)]
    for omega_c, epsilon in cases:
        bath = DiscretizedBath.from_modes(
            (omega_c, 0.4 * omega_c), (0.35 * omega_c, 0.2 * omega_c)
        )
        model = assemble_full(ModelParams(0.7 * omega_c, epsilon), bath, basis)
        H = model.hamiltonian
        commutator = (H @ Pi - Pi @ H).toarray()
        nonzero = commutator != 0.0
        assert nonzero.sum(axis=0).max() <= 1 and nonzero.sum(axis=1).max() <= 1
        norm = parity_commutator_norm(model)
        assert norm == np.abs(commutator).max()
        rounding = 4 * np.finfo(float).eps * float(abs(H).sum(axis=1).max())
        assert abs(norm - abs(epsilon)) <= rounding, (omega_c, epsilon)
        assert norm == pytest.approx(abs(epsilon), rel=1e-9, abs=0.0)
        assert frozen_spin_check(bath, basis) == 0.0
