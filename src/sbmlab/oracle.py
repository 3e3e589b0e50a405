"""Dense full-space cross-checks in the spin (x) Fock product basis.

The Hamiltonian stays brute force on purpose:

    H = (epsilon/2) sigma_z - (delta/2) sigma_x
        + sum_k omega_k a'_k a_k + sum_k lambda_k (a'_k + a_k) sigma_z

is assembled as a dense symmetric matrix over the undisplaced number
basis (spin-up block first), and `dense_spectrum` diagonalizes it
completely.  The coupling V comes from the enumeration's ladder maps
`raising(k)` and the boson parity P below is its `parity` vector, the two
maps the sector path builds E and P from.  The parity operator
Pi = sigma_x (x) exp(i pi sum a'a) commutes with H exactly when
epsilon = 0, and the rotation U of the 2x2 block form

    U = (1/sqrt 2) [[I, P], [-P, I]],   P = diag boson parity

block-diagonalizes the truncated H exactly: the boson-number-parity
grading survives truncation, so the off-diagonal blocks of U H U' vanish
to rounding, not merely to truncation accuracy.

Pi and U hold at most two nonzeros per row, so every product with them
runs on sparse arrays; only H, the commutator [H, Pi] and U H U' are
dense.  A spectral norm comes from the top eigenvalue of A'A, the
unitarity defect from a bound on the sparse U U' - I, and the ground
state of a biased H from a one-eigenpair solve, never from an SVD or a
full spectrum.

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
    hamiltonian: np.ndarray

    @property
    def dim(self) -> int:
        """Fock-space dimension; the Hamiltonian is twice this size."""
        return self.enumeration.dim


def _coupling_matrix(bath: DiscretizedBath, enumeration: BasisEnumeration) -> np.ndarray:
    """sum_k lambda_k (a'_k + a_k) truncated to the enumeration."""
    occ = enumeration.occupation_array()
    V = np.zeros((enumeration.dim, enumeration.dim))
    for k, lam_k in enumerate(bath.lam):
        raised = enumeration.raising(k)
        source = np.nonzero(raised >= 0)[0]  # -1 where n + e_k leaves the basis
        target = raised[source]
        V[target, source] = V[source, target] = lam_k * np.sqrt(occ[source, k] + 1.0)
    return V


def assemble_full(
    params: ModelParams, bath: DiscretizedBath, enumeration: BasisEnumeration
) -> FullModel:
    """Dense H over spin (x) Fock, spin-up block first."""
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
    dim = enumeration.dim
    boson = np.diag(enumeration.occupation_array() @ np.asarray(bath.omega))
    V = _coupling_matrix(bath, enumeration)
    half_eps = params.epsilon / 2.0
    half_delta = params.delta / 2.0
    H = np.zeros((2 * dim, 2 * dim))
    H[:dim, :dim] = boson + V + half_eps * np.eye(dim)
    H[dim:, dim:] = boson - V - half_eps * np.eye(dim)
    H[:dim, dim:] = -half_delta * np.eye(dim)
    H[dim:, :dim] = -half_delta * np.eye(dim)
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


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value of A, as sqrt of the top eigenvalue of A'A.

    One symmetric eigensolve for a single eigenvalue replaces the full SVD
    of np.linalg.norm(A, 2); the zero matrix gives exactly 0.0.
    """
    n = A.shape[1]
    top = scipy.linalg.eigvalsh(A.T @ A, subset_by_index=[n - 1, n - 1])[0]
    return math.sqrt(max(0.0, float(top)))


def rotation_defects(enumeration: BasisEnumeration) -> tuple[float, float]:
    """(bound on the spectral norm of U U' - I, max |U Pi U' - sigma_z (x) I|).

    Both are rounding noise.  The first is the Hoelder bound
    sqrt(||A||_1 ||A||_inf) >= ||A||_2 of the sparse A = U U' - I (largest
    column and row sums of |A|), so the check it feeds can only be stricter
    than one on the spectral norm.
    """
    U = unitary_U(enumeration)
    dim = enumeration.dim
    defect = abs(U @ U.T - scipy.sparse.eye_array(2 * dim, format="csr"))
    unitarity = math.sqrt(float(defect.sum(axis=0).max() * defect.sum(axis=1).max()))
    rotated_parity = U @ parity_matrix(enumeration) @ U.T - _sparse_sigma_z(dim)
    parity_defect = float(abs(rotated_parity).max())
    return unitarity, parity_defect


def sector_blocks(model: FullModel) -> tuple[np.ndarray, np.ndarray, float]:
    """(upper, lower, off-diagonal norm) of U H U'.

    With epsilon = 0 the off-diagonal norm is rounding noise; the upper
    block is the even-parity Hamiltonian in the undisplaced basis and the
    lower block the odd one.
    """
    U = unitary_U(model.enumeration)
    rotated = U @ model.hamiltonian @ U.T
    dim = model.enumeration.dim
    upper = rotated[:dim, :dim]
    lower = rotated[dim:, dim:]
    off = float(np.linalg.norm(rotated[:dim, dim:]))
    return upper, lower, off


def dense_spectrum(model: FullModel) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of the dense Hamiltonian."""
    return np.linalg.eigh(model.hamiltonian)


def ground_parity(model: FullModel) -> int:
    """Parity label of the dense ground state: +1, -1, or MIXED.

    MIXED (|<Pi>| not within 1e-8 of 1) must never occur at epsilon = 0
    with delta != 0; it is the expected outcome once epsilon breaks the
    symmetry.  A dense gap below GAP_FLOOR signals a truncation pathology
    rather than physics and raises AccuracyError.
    """
    vals, vecs = dense_spectrum(model)
    return spectrum_parity(model, vals, vecs)


def spectrum_parity(model: FullModel, vals: np.ndarray, vecs: np.ndarray) -> int:
    """ground_parity from an eigendecomposition the caller already holds."""
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
    _, vecs = scipy.linalg.eigh(model.hamiltonian, subset_by_index=[0, 0])
    psi = vecs[:, 0]
    dim = model.enumeration.dim
    return float(psi[:dim] @ psi[:dim] - psi[dim:] @ psi[dim:])


def parity_commutator_norm(model: FullModel) -> float:
    """Spectral norm of [H, Pi]; equals |epsilon| exactly."""
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
