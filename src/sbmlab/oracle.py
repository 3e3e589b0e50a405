"""Full-space cross-checks in the spin (x) Fock product basis.

The Hamiltonian stays brute force on purpose:

    H = (epsilon/2) sigma_z - (delta/2) sigma_x
        + sum_k omega_k a'_k a_k + sum_k lambda_k (a'_k + a_k) sigma_z

is assembled over the undisplaced number basis (spin-up block first) as
one sparse CSR array.  The coupling V comes from the enumeration's ladder maps
`raising(k)` and the boson parity P below is its `parity` vector, the two
maps the sector path builds E and P from.  The parity operator
Pi = sigma_x (x) exp(i pi sum a'a) commutes with H exactly when
epsilon = 0, and the rotation U of the 2x2 block form

    U = (1/sqrt 2) [[I, P], [-P, I]],   P = diag boson parity

block-diagonalizes the truncated H exactly: the boson-number-parity
grading survives truncation, so the off-diagonal blocks of U H U' vanish
to rounding, not merely to truncation accuracy.

H, Pi, U and every product of them stay sparse, and no dense array is
formed anywhere: `assemble_full` refuses an H whose build would hold
more than fockspace.MAX_OPERATOR_BYTES at its peak, and that cap is the
only size limit of oracle-check.  H stores every diagonal entry, so
`FullModel.with_bias` moves the local field by rewriting, with scipy's
setdiag, the values of the diagonal of one assembly.  The
ground states come from implicitly restarted Lanczos (ARPACK) on the
CSR H, one routine for the ground state of a biased <sigma_z>
(`ground_sigma_z`) and for the two lowest eigenpairs behind the parity
label and its gap floor (`ground_parity`); ARPACK gets a bare matvec of
the CSR H, whose products are bit-identical to the default wrapper's.  Pi
maps H(epsilon) onto H(-epsilon) exactly once [H(0), Pi] is exactly 0
(`parity_commutator_norm`), so the bias scan solves only epsilon >= 0 and
writes sigma_z(-epsilon) = -sigma_z(epsilon).  The spectrum partition is
not measured by eigensolves but bounded: `partition_bound` turns the
unitarity defect and the off-diagonal norm of the sparse U H U'
(`sector_blocks`) into a rigorous bound on how far the spectrum of H lies
from the union of the two block spectra.  The norm of [H, Pi] is its
largest entry, exact with no solve (parity_commutator_norm says why);
the unitarity defect, a bound on the sparse U U' - I, and every norm in
the partition bound are Hoelder upper bounds.

The displaced-basis sector matrices of :mod:`sbmlab.sectors` span a
different truncated subspace than the blocks above, so their spectra
agree with those of the blocks only where the truncation has converged
(the low end); comparisons at the spectrum top are meaningless at any fixed
cutoff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from sbmlab.bath import DiscretizedBath
from sbmlab.errors import AccuracyError, CapacityError, SolverError
from sbmlab.fockspace import MAX_OPERATOR_BYTES, BasisEnumeration
from sbmlab.sectors import GAP_FLOOR, ModelParams

# ground_parity returns +1, -1, or this marker when |<Pi>| is not close to 1
MIXED = 0


def _read_only(matrix: scipy.sparse.csr_array) -> scipy.sparse.csr_array:
    """matrix with its data, indices and indptr made read-only, for a cached property to share."""
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False
    return matrix


@dataclass(frozen=True, eq=False)
class FullModel:
    """H over spin (x) Fock, twice the enumeration's dimension.

    Every diagonal entry of H is stored, also a zero one.  Its parity Pi
    and rotation U are built on first use and kept, read-only.
    """

    enumeration: BasisEnumeration
    hamiltonian: scipy.sparse.csr_array

    @functools.cached_property
    def parity(self) -> scipy.sparse.csr_array:
        """Pi = sigma_x (x) diag((-1)**total), sparse and read-only. Involutory and symmetric."""
        P = scipy.sparse.diags_array(self.enumeration.parity)
        return _read_only(scipy.sparse.block_array([[None, P], [P, None]], format="csr"))

    @functools.cached_property
    def rotation(self) -> scipy.sparse.csr_array:
        """U = (1/sqrt 2) [[I, P], [-P, I]], decoupling the sectors; sparse and read-only."""
        P = scipy.sparse.diags_array(self.enumeration.parity)
        eye = scipy.sparse.eye_array(self.enumeration.dim)
        return _read_only(
            scipy.sparse.block_array([[eye, P], [-P, eye]], format="csr") / math.sqrt(2.0)
        )

    def with_bias(self, epsilon: float) -> FullModel:
        """H + (epsilon/2) sigma_z: on the model at epsilon 0, H at local field epsilon.

        The values are copied and the index arrays shared, so neither V nor
        the tunneling blocks nor the CSR pattern is built again.  setdiag
        writes the diagonal read back from H, shifted by +-epsilon/2, and
        since H stores every diagonal entry it only rewrites values.
        """
        H = self.hamiltonian
        shift = np.repeat([epsilon / 2.0, -epsilon / 2.0], self.enumeration.dim)
        biased = scipy.sparse.csr_array((H.data.copy(), H.indices, H.indptr), shape=H.shape)
        biased.setdiag(H.diagonal() + shift)
        return replace(self, hamiltonian=biased)


def assemble_full(
    params: ModelParams, bath: DiscretizedBath, enumeration: BasisEnumeration
) -> FullModel:
    """H over spin (x) Fock as one CSR array, spin-up block first, written in place.

    Row n of the up block holds, in column order, V's entries at n - e_k
    (k ascending), the diagonal b_n + epsilon/2, V's entries at n + e_k (k
    descending) and the tunneling -delta/2; row n of the down block holds
    the tunneling first, then -V and b_n - epsilon/2 in the same order.
    That is the order of the graded-lex ranks, so the entries are written
    slot by slot into the final CSR arrays, which are those of the sorted
    block array [[b + epsilon/2 + V, -delta/2], [-delta/2, b - epsilon/2 - V]].
    A zero entry (lambda_k = 0, or delta = 0) is not stored, except on the
    diagonal: there FullModel.with_bias's setdiag only rewrites values,
    where a missing entry would be inserted and the biased copy would get
    index arrays of its own, rebuilt from all nnz entries.  Raises
    CapacityError, before allocating anything, when the bytes the build
    holds at its peak would exceed fockspace.MAX_OPERATOR_BYTES.
    """
    modes, n_max, dim = enumeration.mode_count, enumeration.n_max, enumeration.dim
    if modes != bath.mode_count:
        raise ValueError(
            f"enumeration mode count {modes} does not match bath mode count {bath.mode_count}"
        )
    # each spin block holds dim diagonal and dim tunneling entries, and V two
    # entries per mode and state that the mode can raise (total below n_max);
    # an entry is a float64 value and an int64 column index.  Next to these
    # CSR arrays the build holds the boson energies (8 dim bytes), the
    # enumeration's int32 ladder maps and the int64 temporaries of their
    # build (counted as 12 dim modes bytes), at most eight int64 or float64
    # temporaries of length dim (64 dim bytes), and about 20 KiB of Python
    # objects, counted as 64 KiB
    entries = 4 * dim + 4 * modes * math.comb(n_max - 1 + modes, modes)
    csr_bytes = 16 * entries + 8 * (2 * dim + 1)
    peak_bytes = csr_bytes + 72 * dim + 12 * modes * dim + 2**16
    if peak_bytes > MAX_OPERATOR_BYTES:
        raise CapacityError(
            f"the full H of {modes} modes at n_max={n_max} (Fock dim {dim}) has {entries} "
            f"entries, {csr_bytes} bytes as CSR and {peak_bytes} bytes at the peak of its "
            f"build, above the cap MAX_OPERATOR_BYTES = {MAX_OPERATOR_BYTES}"
        )
    occ = enumeration.occupations
    boson = occ @ np.asarray(bath.omega)
    tunneling = -params.delta / 2.0
    ladders = [(k, enumeration.raising(k)) for k in range(modes) if bath.lam[k] != 0.0]
    # the up block's row sizes, summed in place into its half of indptr
    indptr = np.zeros(2 * dim + 1, dtype=np.int64)
    sizes = indptr[1 : dim + 1]
    sizes += 1 + (tunneling != 0.0)
    for k, raised in ladders:
        sizes += occ[:, k] > 0
        sizes += raised >= 0
    np.cumsum(sizes, out=sizes)
    indptr[dim + 1 :] = indptr[dim] + sizes
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    states = np.arange(dim)

    def coupling(k, raised):
        """(n, n + e_k, lambda_k sqrt(n_k + 1)) wherever n + e_k is a state."""
        source = np.flatnonzero(raised >= 0)
        return source, raised[source], bath.lam[k] * np.sqrt(occ[source, k] + 1.0)

    for block, sign in enumerate((1.0, -1.0)):
        offset = block * dim
        cursor = indptr[offset : offset + dim].copy()  # the next free slot of each row

        def put(rows, columns, values):
            at = cursor[rows]
            indices[at] = columns
            data[at] = values
            cursor[rows] = at + 1

        if block and tunneling:
            put(states, states, tunneling)
        for k, raised in ladders:
            source, target, value = coupling(k, raised)
            put(target, source + offset, sign * value)
        put(states, states + offset, boson + sign * (params.epsilon / 2.0))
        for k, raised in reversed(ladders):
            source, target, value = coupling(k, raised)
            put(source, target + offset, sign * value)
        if not block and tunneling:
            put(states, states + dim, tunneling)
    H = scipy.sparse.csr_array((data, indices, indptr), shape=(2 * dim, 2 * dim))
    return FullModel(enumeration, H)


def _hoelder_bound(magnitude: np.ndarray | scipy.sparse.sparray) -> float:
    """sqrt(||A||_1) sqrt(||A||_inf) >= ||A||_2 from |A|: its largest column and row sums.

    Each factor is a square root, so the bound is finite wherever the sums are.
    """
    return math.sqrt(float(magnitude.sum(axis=0).max())) * math.sqrt(
        float(magnitude.sum(axis=1).max())
    )


def rotation_defects(model: FullModel) -> tuple[float, float]:
    """(bound on the spectral norm of U U' - I, max |U Pi U' - sigma_z (x) I|).

    Both are rounding noise.  The first is the Hoelder bound on the norm of
    the sparse A = U U' - I, so the check it feeds can only be stricter than
    one on the spectral norm.
    """
    U = model.rotation
    dim = model.enumeration.dim
    unitarity = _hoelder_bound(abs(U @ U.T - scipy.sparse.eye_array(2 * dim, format="csr")))
    sigma_z = scipy.sparse.diags_array(np.concatenate([np.ones(dim), -np.ones(dim)]))
    rotated_parity = U @ model.parity @ U.T - sigma_z
    parity_defect = float(abs(rotated_parity).max())
    return unitarity, parity_defect


def sector_blocks(model: FullModel) -> tuple[scipy.sparse.sparray, scipy.sparse.sparray, float]:
    """(upper, lower, off-diagonal Frobenius norm) of U H U', the blocks sparse.

    The norm is the larger of the two off-diagonal blocks' (they are equal
    where the computed U H U' is symmetric, as it is at epsilon = 0).  With
    epsilon = 0 it is rounding noise; the upper block is the even-parity
    Hamiltonian in the undisplaced basis and the lower block the odd one.
    """
    U = model.rotation
    rotated = U @ model.hamiltonian @ U.T
    dim = model.enumeration.dim
    off = max(
        float(np.linalg.norm(rotated[:dim, dim:].data)),
        float(np.linalg.norm(rotated[dim:, :dim].data)),
    )
    return rotated[:dim, :dim], rotated[dim:, dim:], off


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff: the relative error bound of k-term sums."""
    ku = k * np.finfo(float).eps / 2.0
    return ku / (1.0 - ku)


def partition_bound(model: FullModel, unitarity: float, off_norm: float) -> float:
    """Upper bound on max_i |lambda_i(H) - lambda_i(even (+) odd)|, from sparse norms only.

    unitarity and off_norm are what rotation_defects and sector_blocks
    return.  R = fl(fl(U H) U') is the computed rotation, even and odd its
    diagonal blocks, and their symmetric parts where R is not symmetric
    (at epsilon = 0 it is).  The deviation is split along
    H -> U H U' -> R -> even (+) odd:

    - Ostrowski: lambda_i(U H U') = theta_i lambda_i(H) with theta_i
      between the extreme eigenvalues of U U', which lie within
      delta = unitarity + gamma_k |||U| |U'||| of 1 (the second term is
      the rounding of forming U U', k the most nonzeros in a row of U).
      This moves each eigenvalue by at most delta ||H||.
    - Rounding: each entry of U H sums at most k products, and so does
      each entry of (U H) U', so |R - U H U'| <= gamma_2k |U| |H| |U'|
      entrywise, and by Weyl each eigenvalue moves by at most
      gamma_2k |||U| |H| |U'|||.  Taking symmetric parts moves R no
      further from the symmetric U H U'.
    - Weyl: dropping the off-diagonal blocks moves each eigenvalue by at
      most their spectral norm, which off_norm bounds.

    Every norm of a nonnegative matrix is _hoelder_bound, an upper bound,
    so a check against the sum can only be stricter than one against the
    deviation itself (up to the rounding of the bound's own sums, a
    relative 2 dim u).  Costs one sparse product |U| |H| |U'|.
    """
    U = abs(model.rotation)
    H = abs(model.hamiltonian)
    k = int(np.diff(U.indptr).max())
    defect = unitarity + _gamma(k) * _hoelder_bound(U @ U.T)
    rounding = _gamma(2 * k) * _hoelder_bound(U @ H @ U.T)
    return off_norm + defect * _hoelder_bound(H) + rounding


def norm_inf(H: scipy.sparse.sparray) -> float:
    """||H||_inf, the largest absolute row sum: the energy scale of the oracle's checks."""
    return float(abs(H).sum(axis=1).max())


def _lowest_eigenpairs(H: scipy.sparse.csr_array, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenvalues of the CSR H, ascending, and their eigenvectors as columns.

    Implicitly restarted Lanczos (ARPACK's dsaupd through
    scipy.sparse.linalg.eigsh, tol 0: to machine precision; Lehoucq,
    Sorensen and Yang 1998) needs only products with the sparse H, so no
    dense H is formed, and it shares no code with the sector path's
    Davidson solve.  H is first scaled by 2^-e, e the binary exponent of
    ||H||_inf, which is exact and keeps ARPACK's arithmetic inside the
    double range at any energy unit; the eigenvalues are scaled back.
    ARPACK sees the scaled H as a LinearOperator whose matvec is the CSR
    product itself, which skips the matmat layers of eigsh's default
    wrapper; the same CSR kernel computes every product either way, so the
    result is bit-identical.  The start vector is a fixed seed-0 normal
    draw, so the result does not depend on what ran before in the process.
    Raises SolverError when ARPACK does not converge.
    """
    import scipy.sparse.linalg

    exponent = math.frexp(norm_inf(H))[1]
    scaled = scipy.sparse.csr_array((np.ldexp(H.data, -exponent), H.indices, H.indptr), H.shape)
    operator = scipy.sparse.linalg.LinearOperator(
        scaled.shape, matvec=scaled.__matmul__, dtype=float
    )
    start = np.random.default_rng(0).standard_normal(H.shape[0])
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(operator, k=k, which="SA", tol=0.0, v0=start)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise SolverError(
            f"lanczos ground state of the full H (size {H.shape[0]}) "
            f"did not converge: {exc}"
        ) from exc
    return np.ldexp(vals, exponent), vecs


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
    if gap < max(GAP_FLOOR, H.shape[0] * np.finfo(float).eps) * norm_inf(H):
        raise AccuracyError(f"full-H ground state numerically degenerate: gap {gap:.3e}")
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

    Pi swaps the states (up, n) and (down, n), times the boson parity of
    n.  The V and tunneling terms of H commute with it exactly, so the
    commutator is the monomial matrix with entries
    +-[(b_n + epsilon/2) - (b_n - epsilon/2)], b_n the boson energy of
    state n: at most one nonzero per row and column, and its spectral
    norm is its largest entry, with no solve.
    """
    Pi = model.parity
    H = model.hamiltonian
    return float(abs(H @ Pi - Pi @ H).max())
