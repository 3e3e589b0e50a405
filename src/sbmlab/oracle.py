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

H, Pi, U and every product of them stay sparse, and `assemble_full`
refuses an H whose CSR arrays would exceed fockspace.MAX_OPERATOR_BYTES.
The ground states come from implicitly restarted Lanczos (ARPACK) on the
CSR H, one routine for the ground state of a biased <sigma_z>
(`ground_sigma_z`) and for the two lowest eigenpairs behind the parity
label and its gap floor (`ground_parity`), so neither forms a dense H.
`dense_spectrum` is the one place that forms a dense array: a values-only
LAPACK solve of a sparse symmetric matrix, at epsilon = 0 once for each of
the two dim x dim blocks of U H U' (`sector_blocks`, kept sparse) and once
for H, one dense input at a time.  oracle-check, which makes them,
refuses a Fock dimension over DENSE_DIM_CAP.  A spectral norm is exact
without a solve for a matrix with at most one nonzero per row and column,
as every commutator checked here is: they are zero, or, for [H, Pi] at
epsilon != 0, monomial.  Otherwise it is a Hoelder upper bound.  The
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
from sbmlab.errors import AccuracyError, CapacityError, SolverError
from sbmlab.fockspace import MAX_OPERATOR_BYTES, BasisEnumeration
from sbmlab.sectors import GAP_FLOOR, ModelParams

# largest Fock dimension oracle-check takes: its spectrum checks at
# epsilon = 0 hold dense arrays of the size of H, (2 dim)^2 doubles
DENSE_DIM_CAP = 2000

# ground_parity returns +1, -1, or this marker when |<Pi>| is not close to 1
MIXED = 0


@dataclass(frozen=True, eq=False)
class FullModel:
    """H over spin (x) Fock, twice the enumeration's dimension."""

    enumeration: BasisEnumeration
    hamiltonian: scipy.sparse.csr_array


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
    """H over spin (x) Fock as one CSR array, spin-up block first.

    Raises CapacityError, before allocating anything, when the CSR arrays
    of H would exceed fockspace.MAX_OPERATOR_BYTES.
    """
    modes, n_max, dim = enumeration.mode_count, enumeration.n_max, enumeration.dim
    if modes != bath.mode_count:
        raise ValueError(
            f"enumeration mode count {modes} does not match bath mode count {bath.mode_count}"
        )
    # each spin block holds dim diagonal and dim tunneling entries, and V two
    # entries per mode and state that the mode can raise (total below n_max);
    # an entry is a float64 value and an int64 column index; the assembly
    # holds about 4.3 times these bytes at its peak
    entries = 4 * dim + 4 * modes * math.comb(n_max - 1 + modes, modes)
    nbytes = 16 * entries + 8 * (2 * dim + 1)
    if nbytes > MAX_OPERATOR_BYTES:
        raise CapacityError(
            f"the full H of {modes} modes at n_max={n_max} (Fock dim {dim}) has {entries} "
            f"entries, {nbytes} bytes as CSR, above the cap "
            f"MAX_OPERATOR_BYTES = {MAX_OPERATOR_BYTES}"
        )
    boson = enumeration.occupation_array() @ np.asarray(bath.omega)
    V = _coupling_matrix(bath, enumeration)
    half_eps = params.epsilon / 2.0
    tunneling = -params.delta / 2.0 * scipy.sparse.eye_array(dim)
    H = scipy.sparse.block_array(
        [
            [scipy.sparse.diags_array(boson + half_eps) + V, tunneling],
            [tunneling, scipy.sparse.diags_array(boson - half_eps) - V],
        ],
        format="csr",
    )
    return FullModel(enumeration=enumeration, hamiltonian=H)


def parity_matrix(enumeration: BasisEnumeration) -> scipy.sparse.csr_array:
    """Pi = sigma_x (x) diag((-1)**total), sparse. Involutory and symmetric."""
    P = scipy.sparse.diags_array(enumeration.parity)
    return scipy.sparse.block_array([[None, P], [P, None]], format="csr")


def unitary_U(enumeration: BasisEnumeration) -> scipy.sparse.csr_array:
    """Block rotation (1/sqrt 2) [[I, P], [-P, I]] used to decouple the sectors, sparse."""
    P = scipy.sparse.diags_array(enumeration.parity)
    eye = scipy.sparse.eye_array(enumeration.dim)
    return scipy.sparse.block_array([[eye, P], [-P, eye]], format="csr") / math.sqrt(2.0)


def _hoelder_bound(magnitude: np.ndarray | scipy.sparse.sparray) -> float:
    """sqrt(||A||_1) sqrt(||A||_inf) >= ||A||_2 from |A|: its largest column and row sums.

    Each factor is a square root, so the bound is finite wherever the sums are.
    """
    return math.sqrt(float(magnitude.sum(axis=0).max())) * math.sqrt(
        float(magnitude.sum(axis=1).max())
    )


def spectral_norm(A: np.ndarray | scipy.sparse.sparray) -> float:
    """Largest singular value of a dense or sparse monomial A, else an upper bound on it.

    With at most one nonzero in each row and column (a scaled signed
    permutation, the zero matrix included, which gives +0.0) the norm is
    max |a_ij|, with no solve.  Otherwise this returns the Hoelder bound
    sqrt(||A||_1) sqrt(||A||_inf), so a check against it can only be
    stricter than one against the norm.
    """
    magnitude = abs(A)
    nonzero = magnitude != 0
    if max(nonzero.sum(axis=0).max(), nonzero.sum(axis=1).max()) <= 1:
        return float(magnitude.max())
    return _hoelder_bound(magnitude)


def rotation_defects(enumeration: BasisEnumeration) -> tuple[float, float]:
    """(bound on the spectral norm of U U' - I, max |U Pi U' - sigma_z (x) I|).

    Both are rounding noise.  The first is the Hoelder bound on the norm of
    the sparse A = U U' - I, so the check it feeds can only be stricter than
    one on the spectral norm.
    """
    U = unitary_U(enumeration)
    dim = enumeration.dim
    unitarity = _hoelder_bound(abs(U @ U.T - scipy.sparse.eye_array(2 * dim, format="csr")))
    sigma_z = scipy.sparse.diags_array(np.concatenate([np.ones(dim), -np.ones(dim)]))
    rotated_parity = U @ parity_matrix(enumeration) @ U.T - sigma_z
    parity_defect = float(abs(rotated_parity).max())
    return unitarity, parity_defect


def sector_blocks(model: FullModel) -> tuple[scipy.sparse.sparray, scipy.sparse.sparray, float]:
    """(upper, lower, off-diagonal Frobenius norm) of U H U', the blocks sparse.

    With epsilon = 0 the off-diagonal norm is rounding noise; the upper
    block is the even-parity Hamiltonian in the undisplaced basis and the
    lower block the odd one.
    """
    U = unitary_U(model.enumeration)
    rotated = U @ model.hamiltonian @ U.T
    dim = model.enumeration.dim
    off = float(np.linalg.norm(rotated[:dim, dim:].data))
    return rotated[:dim, :dim], rotated[dim:, dim:], off


def _lowest_eigenpairs(H: scipy.sparse.csr_array, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenvalues of the CSR H, ascending, and their eigenvectors as columns.

    Implicitly restarted Lanczos (ARPACK's dsaupd through
    scipy.sparse.linalg.eigsh, tol 0: to machine precision; Lehoucq,
    Sorensen and Yang 1998) needs only products with the sparse H, so no
    dense H is formed, and it shares no code with the sector path's
    Davidson solve.  H is first scaled by 2^-e, e the binary exponent of
    ||H||_inf, which is exact and keeps ARPACK's arithmetic inside the
    double range at any energy unit; the eigenvalues are scaled back.  The
    start vector is a fixed seed-0 normal draw, so the result does not
    depend on what ran before in the process.  Raises SolverError when
    ARPACK does not converge.
    """
    import scipy.sparse.linalg

    exponent = math.frexp(float(abs(H).sum(axis=1).max()))[1]
    scaled = scipy.sparse.csr_array((np.ldexp(H.data, -exponent), H.indices, H.indptr), H.shape)
    start = np.random.default_rng(0).standard_normal(H.shape[0])
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(scaled, k=k, which="SA", tol=0.0, v0=start)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise SolverError(
            f"lanczos ground state of the full H (size {H.shape[0]}) "
            f"did not converge: {exc}",
            diagnostics={"solver": "eigsh", "size": H.shape[0], "converged": len(exc.eigenvalues)},
        ) from exc
    return np.ldexp(vals, exponent), vecs


def dense_spectrum(A: scipy.sparse.sparray) -> np.ndarray:
    """Every eigenvalue of the sparse symmetric A, ascending, from one values-only dense solve.

    dsyevd overwrites the Fortran-ordered dense copy and scales it into
    LAPACK's safe range itself.  Only the stored entries are checked for
    infs and NaNs, with scipy's error, so no dense mask is formed.
    """
    if not np.isfinite(A.data).all():
        raise ValueError("array must not contain infs or NaNs")
    return scipy.linalg.eigvalsh(
        A.toarray(order="F"), driver="evd", overwrite_a=True, check_finite=False
    )


def ground_parity(model: FullModel) -> int:
    """Parity label of the ground state of the full H: +1, -1, or MIXED.

    MIXED (|<Pi>| not within 1e-8 of 1) must never occur at epsilon = 0
    with delta != 0; it is the expected outcome once epsilon breaks the
    symmetry.  The two lowest eigenpairs come from Lanczos on the CSR H.
    A gap below GAP_FLOOR ||H||_inf signals a truncation pathology rather
    than physics and raises AccuracyError.  So does a gap below
    n eps ||H||_inf: each Ritz value lies within its residual of an
    eigenvalue of H, ARPACK accepts a residual of eps |theta|, and each
    product with H rounds by up to about n eps ||H||_inf.  Both floors
    scale with H, so the label does not depend on the energy unit.
    """
    H = model.hamiltonian
    vals, vecs = _lowest_eigenpairs(H, 2)
    gap = vals[1] - vals[0]
    norm = float(abs(H).sum(axis=1).max())
    if gap < max(GAP_FLOOR, H.shape[0] * np.finfo(float).eps) * norm:
        raise AccuracyError(f"dense ground state numerically degenerate: gap {gap:.3e}")
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
    """<sigma_z> of the ground state of H, from Lanczos on the CSR H."""
    _, vecs = _lowest_eigenpairs(model.hamiltonian, 1)
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
