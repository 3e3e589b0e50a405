import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from sbmlab.bath import DiscretizedBath
from sbmlab.errors import AccuracyError, CapacityError
from sbmlab.fockspace import displacement_matrix, enumerate_basis
from sbmlab.oracle import (
    MIXED,
    assemble_full,
    dense_spectrum,
    frozen_spin_check,
    ground_pair,
    ground_parity,
    ground_sigma_z,
    magnetization,
    parity_commutator_norm,
    parity_matrix,
    parity_overlap,
    rotation_defects,
    sector_blocks,
    spectral_norm,
    unitary_U,
)
from sbmlab.sectors import ModelParams, Sector, assemble_sector, ground_state


def single_mode(q, omega=1.0):
    return DiscretizedBath.from_modes((omega,), (q * omega,))


def silent_bath(*omegas):
    return DiscretizedBath.from_modes(tuple(omegas), (0.0,) * len(omegas))


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
    expected = sorted(omega * n[0] + sign * 0.5 for n in basis for sign in (+1, -1))
    assert np.allclose(vals, expected, atol=1e-14)


def test_coupling_matches_a_loop_over_states():
    # V filled from the ladder maps equals a per-state loop over index_of
    bath = DiscretizedBath.from_modes((1.0, 0.5, 0.25), (0.3, -0.2, 0.1))
    basis = enumerate_basis(3, 4)
    V = np.zeros((basis.dim, basis.dim))
    for i, n in enumerate(basis):
        if sum(n) == basis.n_max:
            continue
        for k, lam_k in enumerate(bath.lam):
            j = basis.index_of(n[:k] + (n[k] + 1,) + n[k + 1 :])
            V[i, j] = V[j, i] = lam_k * math.sqrt(n[k] + 1)
    H = assemble_full(ModelParams(delta=0.0), bath, basis).hamiltonian.toarray()
    boson = np.diag([float(np.dot(n, bath.omega)) for n in basis])
    assert np.array_equal(H[: basis.dim, : basis.dim], boson + V)


def test_hamiltonian_is_one_csr_array_matching_a_dense_build():
    # the textbook dense assembly, spin-up block first
    bath = DiscretizedBath.from_modes((1.0, 0.45), (0.3, -0.2))
    basis = enumerate_basis(2, 5)
    dim = basis.dim
    boson = np.diag([float(np.dot(n, bath.omega)) for n in basis])
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


def test_assemble_capacity_and_mode_mismatch():
    with pytest.raises(CapacityError):
        assemble_full(ModelParams(0.1), silent_bath(*([1.0 / (k + 1) for k in range(6)])), enumerate_basis(6, 8))
    with pytest.raises(ValueError):
        assemble_full(ModelParams(0.1), single_mode(0.3), enumerate_basis(2, 3))


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
    Pi = parity_matrix(basis).toarray()
    assert np.array_equal(Pi, Pi.T)
    assert np.array_equal(Pi @ Pi, np.eye(2 * basis.dim))


def test_parity_commutes_at_zero_field():
    bath = DiscretizedBath.from_modes((1.0, 0.4), (0.35, 0.2))
    basis = enumerate_basis(2, 6)
    model = assemble_full(ModelParams(delta=0.7), bath, basis)
    Pi = parity_matrix(basis).toarray()
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
    U = unitary_U(basis).toarray()
    assert np.abs(U @ U.T - np.eye(2 * basis.dim)).max() < 1e-14


def test_rotation_unitarity_defect_bounds_and_catches_a_perturbed_U(monkeypatch):
    from sbmlab import oracle

    basis = enumerate_basis(2, 5)
    U = unitary_U(basis)
    unitarity, parity_defect = rotation_defects(basis)
    exact = np.linalg.norm((U @ U.T).toarray() - np.eye(2 * basis.dim), 2)
    assert exact <= unitarity < 1e-14 and parity_defect < 1e-14
    # one off-diagonal entry of 1e-9 must fail oracle-check's < 1e-14 check
    perturbed = U.tolil()
    perturbed[0, 1] += 1e-9
    monkeypatch.setattr(oracle, "unitary_U", lambda enumeration: perturbed.tocsr())
    unitarity, _ = rotation_defects(basis)
    assert not unitarity < 1e-14
    assert unitarity >= 1e-9 / math.sqrt(2)


def test_rotation_transports_parity_to_sigma_z():
    basis = enumerate_basis(2, 5)
    U = unitary_U(basis).toarray()
    Pi = parity_matrix(basis).toarray()
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
    union = np.sort(np.concatenate([np.linalg.eigvalsh(upper), np.linalg.eigvalsh(lower)]))
    dense = np.linalg.eigvalsh(model.hamiltonian.toarray())
    # exact spectrum partition: the rotation is unitary on the truncated space
    assert np.abs(union - dense).max() < 1e-9


def test_every_nondegenerate_eigenvector_has_definite_parity():
    bath = DiscretizedBath.from_modes((1.0, 0.37), (0.4, 0.15))
    basis = enumerate_basis(2, 7)
    model = assemble_full(ModelParams(delta=0.5), bath, basis)
    vals, vecs = np.linalg.eigh(model.hamiltonian.toarray())
    Pi = parity_matrix(basis).toarray()
    gaps = np.diff(vals)
    for i in range(len(vals)):
        isolated = (i == 0 or gaps[i - 1] > 1e-8) and (i == len(vals) - 1 or gaps[i] > 1e-8)
        if not isolated:
            continue
        expectation = vecs[:, i] @ Pi @ vecs[:, i]
        assert abs(expectation) > 1 - 1e-8


def test_dense_spectrum_and_ground_pair_match_a_full_eigh():
    bath = DiscretizedBath.from_modes((1.0, 0.37), (0.4, 0.15))
    basis = enumerate_basis(2, 7)
    for params in (ModelParams(delta=0.5), ModelParams(delta=0.5, epsilon=0.05)):
        model = assemble_full(params, bath, basis)
        vals, vecs = np.linalg.eigh(model.hamiltonian.toarray())
        assert np.abs(dense_spectrum(model) - vals).max() < 1e-12
        pair_vals, pair_vecs = ground_pair(model)
        assert pair_vals.shape == (2,) and pair_vecs.shape == (2 * basis.dim, 2)
        assert np.abs(pair_vals - vals[:2]).max() < 1e-12
        for i in range(2):
            assert abs(abs(pair_vecs[:, i] @ vecs[:, i]) - 1.0) < 1e-10


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
    block_low = np.linalg.eigvalsh(upper)[:5]
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
    assert parity_overlap(plus, minus) == pytest.approx(1.0, abs=1e-14)
    assert magnetization(math.pi / 4, plus, minus) == pytest.approx(-1.0, abs=1e-14)


def test_magnetization_odd_in_theta_and_bounded():
    bath = DiscretizedBath.from_modes((1.0, 0.4), (0.5, 0.2))
    plus, minus = sector_grounds(bath, ModelParams(0.4), enumerate_basis(2, 8))
    omega = parity_overlap(plus, minus)
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
    x = np.linalg.eigh(upper)[1][:, 0]
    y = np.linalg.eigh(lower)[1][:, 0]
    # displaced -> undisplaced conversion fixes the sign conventions
    convert = displacement_matrix(-bath.q[0], basis.dim, buffer=26)
    parity = np.diag([(-1.0) ** n[0] for n in basis])
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


def test_magnetization_validation():
    plus, minus = sector_grounds(single_mode(0.4), ModelParams(0.3), enumerate_basis(1, 6))
    with pytest.raises(ValueError):
        magnetization(0.3, minus, plus)
    other_plus, _ = sector_grounds(single_mode(0.4), ModelParams(0.3), enumerate_basis(1, 9))
    with pytest.raises(ValueError):
        magnetization(0.3, other_plus, minus)


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


# ---------------------------------------------------------------- spectral norm


def _norm_cases(rng, n):
    G = rng.standard_normal((n, n))
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    yield "general", G
    yield "symmetric", G + G.T
    yield "antisymmetric", G - G.T
    yield "rank-1", np.outer(u, v)
    yield "scaled 1e-16", 1e-16 * G


@pytest.mark.parametrize("n", [1, 2, 3, 7, 31, 100, 300])
def test_spectral_norm_matches_svd(n):
    rng = np.random.default_rng(n)
    for kind, A in _norm_cases(rng, n):
        reference = np.linalg.norm(A, 2)
        if reference == 0.0:  # the 1 x 1 antisymmetric case
            assert spectral_norm(A) == 0.0, kind
        else:
            assert abs(spectral_norm(A) - reference) <= 1e-13 * reference, kind
    for shape in ((n, 3), (3, n)):
        A = rng.standard_normal(shape)
        assert abs(spectral_norm(A) - np.linalg.norm(A, 2)) <= 1e-13 * np.linalg.norm(A, 2)


def test_spectral_norm_of_zero_is_exactly_zero():
    for n in (1, 5, 64):
        value = spectral_norm(np.zeros((n, n)))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_spectral_norm_of_sparse_input_equals_the_dense_result():
    rng = np.random.default_rng(17)
    cases = [(kind, A) for n in (1, 2, 7, 40) for kind, A in _norm_cases(rng, n)]
    mostly_zero = rng.standard_normal((60, 25)) * (rng.random((60, 25)) < 0.1)
    cases += [("sparse 60 x 25", mostly_zero), ("sparse 25 x 60", mostly_zero.T)]
    for kind, A in cases:
        dense = spectral_norm(A)
        sparse = spectral_norm(scipy.sparse.csr_array(A))
        reference = np.linalg.norm(A, 2)
        assert abs(sparse - dense) <= 1e-13 * reference, kind
        assert abs(sparse - reference) <= 1e-13 * reference, kind


@pytest.fixture
def no_eigensolve(monkeypatch):
    """Make any symmetric eigensolve fail: the exact cases must need none."""

    def refuse(*args, **kwargs):
        raise AssertionError("spectral_norm ran an eigensolve")

    monkeypatch.setattr(scipy.linalg, "eigvalsh", refuse)


def test_spectral_norm_of_sparse_zero_is_exactly_zero(no_eigensolve):
    stored_zeros = scipy.sparse.csr_array(
        (np.array([0.0, -0.0, 0.0]), (np.array([0, 1, 3]), np.array([2, 0, 3]))), shape=(4, 4)
    )
    signed_zeros = -np.zeros((3, 5))
    for A in (scipy.sparse.csr_array((6, 6)), stored_zeros, signed_zeros):
        value = spectral_norm(A)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_spectral_norm_of_a_scaled_signed_permutation_is_its_largest_entry(no_eigensolve):
    # |c| times an orthogonal matrix: both bounds meet at |c|, bit for bit
    rng = np.random.default_rng(23)
    for n in (1, 2, 7, 100):
        for c in (1.0, 0.37, -3.1e-7, 2.5e12, float(rng.uniform(-5.0, 5.0))):
            A = np.zeros((n, n))
            A[np.arange(n), rng.permutation(n)] = c * rng.choice([-1.0, 1.0], n)
            for form in (A, scipy.sparse.csr_array(A)):
                assert spectral_norm(form) == abs(c), (n, c)


def test_oracle_commutator_norms_are_exact_without_an_eigensolve(no_eigensolve):
    # [H, Pi] has one entry per row and column, (b_n + eps/2) - (b_n - eps/2)
    # up to sign: its norm is its largest entry, |eps| up to the rounding of
    # the boson energy b_n.  [H', sigma_z] vanishes identically at delta = 0.
    bath = DiscretizedBath.from_modes((1.0, 0.4), (0.35, 0.2))
    basis = enumerate_basis(2, 6)
    Pi = parity_matrix(basis).toarray()
    for epsilon in (0.0, 0.25, -1e-3):
        model = assemble_full(ModelParams(delta=0.7, epsilon=epsilon), bath, basis)
        H = model.hamiltonian.toarray()
        norm = parity_commutator_norm(model)
        assert norm == np.abs(H @ Pi - Pi @ H).max()
        assert norm == pytest.approx(abs(epsilon), rel=1e-12)
    assert frozen_spin_check(bath, basis) == 0.0
