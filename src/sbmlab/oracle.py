"""Full-space cross-checks in the spin (x) Fock product basis.

The Hamiltonian stays brute force on purpose:

    H = (epsilon/2) sigma_z - (delta/2) sigma_x
        + sum_k omega_k a'_k a_k + sum_k lambda_k (a'_k + a_k) sigma_z

is assembled over the undisplaced number basis (spin-up block first) as
one sparse CSR array, and its spectrum comes from a dense solve of the
whole H.  The coupling V comes from the enumeration's ladder maps
`raising(k)` and the boson parity P below is its `parity` vector, the two
maps the sector path builds E and P from.  The parity operator
Pi = sigma_x (x) exp(i pi sum a'a) commutes with H exactly when
epsilon = 0, and the rotation U of the 2x2 block form

    U = (1/sqrt 2) [[I, P], [-P, I]],   P = diag boson parity

block-diagonalizes the truncated H exactly: the boson-number-parity
grading survives truncation, so the off-diagonal blocks of U H U' vanish
to rounding, not merely to truncation accuracy.

H, Pi, U and every product of them stay sparse.  Only LAPACK inputs are
dense, and each LAPACK call computes only what its check reads: the
eigenvalues of H for the spectrum partition (`dense_spectrum`), its two
lowest eigenpairs for the gap floor and the parity label (`ground_pair`),
its lowest eigenpair for a biased <sigma_z> (`ground_sigma_z`), and the
eigenvalues of the two dim x dim blocks of U H U' (`sector_blocks`).  A
spectral norm is exact without a solve where its elementwise lower bound
meets its Hoelder upper bound, as for every commutator checked here: they
are zero, or, for [H, Pi] at epsilon != 0, have one entry per row and
column.  Otherwise it falls back to the top eigenvalue of A'A.  The
unitarity defect is a bound on the sparse U U' - I.

The displaced-basis sector matrices of :mod:`sbmlab.sectors` span a
different truncated subspace than the blocks above, so their spectra
agree with the dense ones only where the truncation has converged (the
low end); comparisons at the spectrum top are meaningless at any fixed
cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from sbmlab.bath import DiscretizedBath
from sbmlab.errors import AccuracyError, CapacityError
from sbmlab.fockspace import BasisEnumeration
from sbmlab.sectors import GroundStateResult, ModelParams, Sector

DENSE_DIM_CAP = 2000

# ground_parity returns +1, -1, or this marker when |<Pi>| is not close to 1
MIXED = 0

# a dense ground-state gap below this is a truncation pathology, not physics
GAP_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class FullModel:
    params: ModelParams
    bath: DiscretizedBath
    enumeration: BasisEnumeration
    hamiltonian: scipy.sparse.csr_array

    @property
    def dim(self) -> int:
        """Fock-space dimension; the Hamiltonian is twice this size."""
        return self.enumeration.dim


def _coupling_matrix(
    bath: DiscretizedBath, enumeration: BasisEnumeration
) -> scipy.sparse.csr_array:
    """sum_k lambda_k (a'_k + a_k) truncated to the enumeration, sparse."""
    occ = enumeration.occupation_array()
    rows, cols, values = [], [], []
    for k, lam_k in enumerate(bath.lam):
        raised = enumeration.raising(k)
        source = np.nonzero(raised >= 0)[0]  # -1 where n + e_k leaves the basis
        target = raised[source]
        value = lam_k * np.sqrt(occ[source, k] + 1.0)
        rows += [target, source]
        cols += [source, target]
        values += [value, value]
    coo = (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols)))
    return scipy.sparse.csr_array(coo, shape=(enumeration.dim, enumeration.dim))


def assemble_full(
    params: ModelParams, bath: DiscretizedBath, enumeration: BasisEnumeration
) -> FullModel:
    """H over spin (x) Fock as one CSR array, spin-up block first."""
    if enumeration.mode_count != bath.mode_count:
        raise ValueError(
            f"enumeration mode count {enumeration.mode_count} does not match "
            f"bath mode count {bath.mode_count}"
        )
    if enumeration.dim > DENSE_DIM_CAP:
        raise CapacityError(
            f"dense path caps at Fock dimension {DENSE_DIM_CAP}, "
            f"got {enumeration.dim}"
        )
    boson = enumeration.occupation_array() @ np.asarray(bath.omega)
    V = _coupling_matrix(bath, enumeration)
    half_eps = params.epsilon / 2.0
    tunneling = -params.delta / 2.0 * scipy.sparse.eye_array(enumeration.dim)
    H = scipy.sparse.block_array(
        [
            [scipy.sparse.diags_array(boson + half_eps) + V, tunneling],
            [tunneling, scipy.sparse.diags_array(boson - half_eps) - V],
        ],
        format="csr",
    )
    return FullModel(params=params, bath=bath, enumeration=enumeration, hamiltonian=H)


def parity_matrix(enumeration: BasisEnumeration) -> scipy.sparse.csr_array:
    """Pi = sigma_x (x) diag((-1)**total), sparse. Involutory and symmetric."""
    P = scipy.sparse.diags_array(enumeration.parity)
    return scipy.sparse.block_array([[None, P], [P, None]], format="csr")


def unitary_U(enumeration: BasisEnumeration) -> scipy.sparse.csr_array:
    """Block rotation (1/sqrt 2) [[I, P], [-P, I]] used to decouple the sectors, sparse."""
    P = scipy.sparse.diags_array(enumeration.parity)
    eye = scipy.sparse.eye_array(enumeration.dim)
    return scipy.sparse.block_array([[eye, P], [-P, eye]], format="csr") / math.sqrt(2.0)


def _sparse_sigma_z(dim: int) -> scipy.sparse.dia_array:
    return scipy.sparse.diags_array(np.concatenate([np.ones(dim), -np.ones(dim)]))


def _lapack_input(A: scipy.sparse.sparray) -> np.ndarray:
    """A as a dense Fortran-ordered array that LAPACK may overwrite without a copy."""
    return A.toarray(order="F")


def _hoelder_bound(magnitude: np.ndarray | scipy.sparse.sparray) -> float:
    """sqrt(||A||_1 ||A||_inf) >= ||A||_2 from |A|: its largest column and row sums."""
    return math.sqrt(float(magnitude.sum(axis=0).max()) * float(magnitude.sum(axis=1).max()))


def spectral_norm(A: np.ndarray | scipy.sparse.sparray) -> float:
    """Largest singular value of a dense or sparse A.

    max |a_ij| <= ||A||_2 <= sqrt(||A||_1 ||A||_inf), so where the two
    bounds meet their common value is the norm, with no solve; that covers
    the zero matrix (+0.0) and any matrix with at most one nonzero per row
    and column (a scaled signed permutation).  Otherwise the norm is the
    sqrt of the top eigenvalue of A'A, from one symmetric eigensolve for
    that eigenvalue alone instead of a full SVD.
    """
    magnitude = abs(A)
    lower = float(magnitude.max())
    upper = _hoelder_bound(magnitude)
    if upper <= lower:
        return lower
    gram = A.T @ A
    if scipy.sparse.issparse(gram):
        gram = _lapack_input(gram)
    n = A.shape[1]
    top = scipy.linalg.eigvalsh(gram, subset_by_index=[n - 1, n - 1], overwrite_a=True)[0]
    return math.sqrt(max(0.0, float(top)))


def rotation_defects(enumeration: BasisEnumeration) -> tuple[float, float]:
    """(bound on the spectral norm of U U' - I, max |U Pi U' - sigma_z (x) I|).

    Both are rounding noise.  The first is the Hoelder bound on the norm of
    the sparse A = U U' - I, so the check it feeds can only be stricter than
    one on the spectral norm.
    """
    U = unitary_U(enumeration)
    dim = enumeration.dim
    unitarity = _hoelder_bound(abs(U @ U.T - scipy.sparse.eye_array(2 * dim, format="csr")))
    rotated_parity = U @ parity_matrix(enumeration) @ U.T - _sparse_sigma_z(dim)
    parity_defect = float(abs(rotated_parity).max())
    return unitarity, parity_defect


def sector_blocks(model: FullModel) -> tuple[np.ndarray, np.ndarray, float]:
    """(upper, lower, off-diagonal Frobenius norm) of U H U'.

    With epsilon = 0 the off-diagonal norm is rounding noise; the upper
    block is the even-parity Hamiltonian in the undisplaced basis and the
    lower block the odd one.  The product stays sparse; only the two
    diagonal blocks, which eigvalsh needs, are returned dense.
    """
    U = unitary_U(model.enumeration)
    rotated = U @ model.hamiltonian @ U.T
    dim = model.enumeration.dim
    upper = rotated[:dim, :dim].toarray()
    lower = rotated[dim:, dim:].toarray()
    off = float(np.linalg.norm(rotated[:dim, dim:].data))
    return upper, lower, off


def dense_spectrum(model: FullModel) -> np.ndarray:
    """Every eigenvalue of H, ascending, from one values-only symmetric solve.

    The 'evd' driver reduces to tridiagonal form and runs the root-free QR
    iteration (LAPACK dsterf), the same path as numpy's eigvalsh.
    """
    return scipy.linalg.eigvalsh(_lapack_input(model.hamiltonian), overwrite_a=True, driver="evd")


def ground_pair(model: FullModel) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest eigenvalues of H and their eigenvectors (as columns), for ground_parity."""
    return scipy.linalg.eigh(
        _lapack_input(model.hamiltonian), subset_by_index=[0, 1], overwrite_a=True
    )


def ground_parity(model: FullModel) -> int:
    """Parity label of the dense ground state: +1, -1, or MIXED.

    MIXED (|<Pi>| not within 1e-8 of 1) must never occur at epsilon = 0
    with delta != 0; it is the expected outcome once epsilon breaks the
    symmetry.  A dense gap below GAP_FLOOR signals a truncation pathology
    rather than physics and raises AccuracyError.
    """
    vals, vecs = ground_pair(model)
    if vals[1] - vals[0] < GAP_FLOOR:
        raise AccuracyError(
            f"dense ground state numerically degenerate: gap {vals[1] - vals[0]:.3e}"
        )
    dim = model.enumeration.dim
    up, down = vecs[:dim, 0], vecs[dim:, 0]
    # <psi|Pi|psi> = 2 <up|P|down> for Pi = sigma_x (x) P
    expectation = 2.0 * float((up * model.enumeration.parity) @ down)
    if expectation > 1.0 - 1e-8:
        return 1
    if expectation < -(1.0 - 1e-8):
        return -1
    return MIXED


def ground_sigma_z(model: FullModel) -> float:
    """<sigma_z> of the dense ground state, from a solve for the lowest eigenpair only."""
    _, vecs = scipy.linalg.eigh(
        _lapack_input(model.hamiltonian), subset_by_index=[0, 0], overwrite_a=True
    )
    psi = vecs[:, 0]
    dim = model.enumeration.dim
    return float(psi[:dim] @ psi[:dim] - psi[dim:] @ psi[dim:])


def parity_commutator_norm(model: FullModel) -> float:
    """Spectral norm of [H, Pi]: |epsilon| up to the rounding of the diagonal of H.

    The commutator is the monomial matrix with entries
    +-[(b_n + epsilon/2) - (b_n - epsilon/2)], b_n the boson energy of state n.
    """
    Pi = parity_matrix(model.enumeration)
    H = model.hamiltonian
    return spectral_norm(H @ Pi - Pi @ H)


def parity_overlap(plus: GroundStateResult, minus: GroundStateResult) -> float:
    """Boson-parity overlap between the two sector ground states.

    In the displaced representation of the even sector and the rotated
    displaced representation of the odd one, the operator insertion
    exp(i pi sum a'a) is absorbed by the basis change and the overlap
    collapses to the plain inner product of coefficient vectors.
    """
    if plus.sector is not Sector.EVEN or minus.sector is not Sector.ODD:
        raise ValueError(
            f"expected (even, odd) ground states, got ({plus.sector.value}, {minus.sector.value})"
        )
    if plus.coefficients.shape != minus.coefficients.shape:
        raise ValueError(
            "ground states live on different enumerations: "
            f"{plus.coefficients.shape} vs {minus.coefficients.shape}"
        )
    return float(plus.coefficients @ minus.coefficients)


def magnetization(theta: float, plus: GroundStateResult, minus: GroundStateResult) -> float:
    """M(theta) = -sin(2 theta) * <even ground | boson parity | odd ground>."""
    return -math.sin(2.0 * theta) * parity_overlap(plus, minus)


def frozen_spin_check(bath: DiscretizedBath, enumeration: BasisEnumeration) -> float:
    """Norm of [H', sigma_z (x) I] for the delta = 0 Hamiltonian; structurally zero.

    With no tunneling both spin blocks are closed, so the commutator
    vanishes identically rather than to rounding.
    """
    model = assemble_full(ModelParams(delta=0.0, epsilon=0.0), bath, enumeration)
    sz = _sparse_sigma_z(enumeration.dim)
    H = model.hamiltonian
    return spectral_norm(H @ sz - sz @ H)
