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
Only LAPACK inputs are dense, and each LAPACK call computes only what its
check reads; oracle-check, which makes them, refuses a Fock dimension over
DENSE_DIM_CAP.  H is reduced to tridiagonal form once per model
(`FullModel.tridiagonal`, one Householder reduction).  That one
reduction gives the eigenvalues of H for the spectrum partition
(`dense_spectrum`) and its two lowest eigenpairs for the gap floor and
the parity label (`ground_pair`).  A biased <sigma_z>
(`ground_sigma_z`) reads only the ground state, which implicitly
restarted Lanczos (ARPACK) finds from products with the CSR H, so the
bias scan never forms a dense H.  The partition also needs
the eigenvalues of the two dim x dim blocks of U H U'
(`sector_blocks`).  A spectral norm is exact without a solve where its
elementwise lower bound meets its Hoelder upper bound, as for every
commutator checked here: they are zero, or, for [H, Pi] at epsilon != 0,
have one entry per row and column.  Otherwise it falls back to the top
eigenvalue of A'A.  The unitarity defect is a bound on the sparse U U' - I.

The displaced-basis sector matrices of :mod:`sbmlab.sectors` span a
different truncated subspace than the blocks above, so their spectra
agree with the dense ones only where the truncation has converged (the
low end); comparisons at the spectrum top are meaningless at any fixed
cutoff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg import lapack

from sbmlab.bath import DiscretizedBath
from sbmlab.errors import AccuracyError, CapacityError, SolverError
from sbmlab.fockspace import MAX_OPERATOR_BYTES, BasisEnumeration
from sbmlab.sectors import GAP_FLOOR, ModelParams

# largest Fock dimension oracle-check takes: its spectrum checks and parity
# label hold dense arrays of the size of H, (2 dim)^2 doubles
DENSE_DIM_CAP = 2000

# ground_parity returns +1, -1, or this marker when |<Pi>| is not close to 1
MIXED = 0


class Tridiagonal(NamedTuple):
    """sigma H = Q T Q' from one Householder reduction (LAPACK dsytrd, lower storage).

    T has diagonal d and off-diagonal e.  Q, a product of n - 1 reflectors,
    fixes the first coordinate; the reflectors are the (n-1) x (n-1) block
    A(2:n, 1:n-1) of the reduced array in LAPACK's QR storage, with scale
    factors tau.  sigma is 1 unless H lies outside LAPACK's safe range.
    """

    d: np.ndarray
    e: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray
    sigma: float


@dataclass(frozen=True, eq=False)
class FullModel:
    """H over spin (x) Fock, twice the enumeration's dimension, and its one reduction."""

    enumeration: BasisEnumeration
    hamiltonian: scipy.sparse.csr_array

    @functools.cached_property
    def tridiagonal(self) -> Tridiagonal:
        """H reduced once, on first use, for dense_spectrum and ground_pair alike."""
        return _reduce(self.hamiltonian)


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
    sigma_z = scipy.sparse.diags_array(np.concatenate([np.ones(dim), -np.ones(dim)]))
    rotated_parity = U @ parity_matrix(enumeration) @ U.T - sigma_z
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


def _reduce(H: scipy.sparse.sparray) -> Tridiagonal:
    """One in-place dsytrd of the dense H, its reflector block compacted in the same buffer.

    As dsyevr does, H is first scaled so that max |H_ij| lies between
    sqrt(safmin / eps) and min(sqrt(eps / safmin), safmin^(-1/4)); outside
    that range bisection need not converge.  f2py would copy the strided
    block A(2:n, 1:n-1) before dormqr reads it, a second dense n x n array.
    Instead column j moves from flat offset j n + 1 to j (n - 1), in order
    of j: no destination lies past its source.
    """
    tiny, eps = np.finfo(float).tiny, np.finfo(float).eps
    low, high = math.sqrt(tiny / eps), min(math.sqrt(eps / tiny), tiny**-0.25)
    peak = float(abs(H).max())
    sigma = min(max(peak, low), high) / peak if peak > 0.0 else 1.0
    A = _lapack_input(H)
    if sigma != 1.0:
        A *= sigma
    n = A.shape[0]
    lwork, _ = lapack.dsytrd_lwork(n, lower=1)
    c, d, e, tau, _ = lapack.dsytrd(A, lower=1, lwork=int(lwork), overwrite_a=1)
    flat = c.ravel(order="F")
    m = n - 1
    for j in range(m):
        flat[j * m : (j + 1) * m] = flat[j * n + 1 : (j + 1) * n]
    return Tridiagonal(d, e, flat[: m * m].reshape((m, m), order="F"), tau, sigma)


def dense_spectrum(model: FullModel) -> np.ndarray:
    """Every eigenvalue of H, ascending, from the model's one tridiagonal reduction.

    The root-free QR iteration (LAPACK dsterf) on T is the values-only
    path of dsyevd, so this equals scipy.linalg.eigvalsh(H, driver="evd").
    """
    t = model.tridiagonal
    return scipy.linalg.eigvalsh_tridiagonal(t.d, t.e, lapack_driver="sterf") * (1.0 / t.sigma)


def ground_pair(model: FullModel) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest eigenvalues of H and their eigenvectors (as columns), for ground_parity.

    They come from the model's one tridiagonal reduction as in dsyevr:
    bisection and inverse iteration on T (dstebz, dstein), then Q applied
    to the eigenvectors of T (dormqr, as dormtr does for lower storage).
    """
    t = model.tridiagonal
    vals, vecs = scipy.linalg.eigh_tridiagonal(
        t.d, t.e, select="i", select_range=(0, 1), lapack_driver="stebz"
    )
    tail = vecs[1:]  # Q leaves the first row alone
    work = lapack.dormqr("L", "N", t.reflectors, t.tau, tail, lwork=-1)[1]
    vecs[1:] = lapack.dormqr("L", "N", t.reflectors, t.tau, tail, lwork=int(work[0]))[0]
    return vals * (1.0 / t.sigma), vecs


def ground_parity(model: FullModel) -> int:
    """Parity label of the dense ground state: +1, -1, or MIXED.

    MIXED (|<Pi>| not within 1e-8 of 1) must never occur at epsilon = 0
    with delta != 0; it is the expected outcome once epsilon breaks the
    symmetry.  A dense gap below GAP_FLOOR ||H||_inf signals a truncation
    pathology rather than physics and raises AccuracyError.  So does a gap
    below n eps ||H||_inf, LAPACK's bound p(n) eps ||H|| on the rounding of
    each computed eigenvalue with p(n) = n.  Both floors scale with H, so
    the label does not depend on the energy unit.
    """
    vals, vecs = ground_pair(model)
    gap = vals[1] - vals[0]
    H = model.hamiltonian
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
    """<sigma_z> of the ground state of H, from implicitly restarted Lanczos on the CSR H.

    ARPACK (scipy.sparse.linalg.eigsh, tol 0: to machine precision;
    Lehoucq, Sorensen and Yang 1998) needs only products with the sparse
    H, so no dense H or reduction is formed, and it shares no code with
    the sector path's Davidson solve.  The start vector is a fixed seed-0
    normal draw, so the result does not depend on what ran before in the
    process.  Raises SolverError when ARPACK does not converge.
    """
    import scipy.sparse.linalg

    H = model.hamiltonian
    start = np.random.default_rng(0).standard_normal(H.shape[0])
    try:
        _, vecs = scipy.sparse.linalg.eigsh(H, k=1, which="SA", tol=0.0, v0=start)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise SolverError(
            f"lanczos ground state of the full H (size {H.shape[0]}) "
            f"did not converge: {exc}",
            diagnostics={"solver": "eigsh", "size": H.shape[0], "converged": len(exc.eigenvalues)},
        ) from exc
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
