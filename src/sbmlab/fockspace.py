"""Occupation-number bookkeeping and the displaced parity operator.

States of N+1 boson modes are labelled by multi-indices n = (n_0, ..., n_N)
with a total-excitation cutoff sum(n) <= n_max.  BasisEnumeration holds them
as one read-only occupation array ordered by the closed-form graded-lex
rank.  Its ladder maps raising(k), n -> n + e_k, and its parity vector build
E and P below and the dense oracle's coupling V.  The central object is the
overlap table of the parity operator exp(i*pi*sum a'a) between displaced
number states D(-q)|n>:

    D_{m,n} = exp(-2 sum_k q_k**2) * Dt_{m,n},   Dt_{m,n} = prod_k L_{m_k,n_k}(q_k)

with the single-mode alternating sum (nondegeneracy.lmn_exact evaluates it
in rational arithmetic)

    L_{m,n}(q) = sum_{j=0}^{min(m,n)} (-1)**j sqrt(m! n!) (2q)**(m+n-2j)
                 / ((m-j)! (n-j)! j!).

Per mode exp(-2q**2) L_{m,n}(q) = (-1)**n <m|D(2q)|n>, and Glauber's normal
ordering D(2q) = exp(-2q**2) exp(2q a') exp(-2q a) (Phys. Rev. 131, 2766,
1963) turns this into Dt_{m,n} = (-1)**|n| <m|exp(2q.a') exp(-2q.a)|n>.

exp(-2q.a) only lowers occupations, so it maps the simplex sum(n) <= n_max
into itself and the truncated operator is exactly

    Dt = P E' P E P,   E = S exp(-2q.a) S,   P = diag((-1)**|n|),

with S the projection on the simplex (P E' P is S exp(2q.a') S).  E is one
sparse matrix with C(n_max + 2M, 2M) entries for M modes.  At q = 0 it is
the identity and Dt = P: the signed Kronecker delta, not the plain
identity.  The polaron factor stays out of Dt, whose entries are
polynomials in q and stay in double range where the factor does not.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse
from scipy.linalg import expm

from sbmlab.errors import AccuracyError, CapacityError

MultiIndex = tuple[int, ...]

# total-occupation cap.  An entry of Dt is an alternating sum whose terms
# outgrow it as occupation and q grow: at one mode and n_max = 60 its worst
# relative error against exact arithmetic is 6e-13 at q = 0.2, 4e-10 at
# q = 0.5 and 6e-5 at q = 1, and higher caps lose the rest
N_MAX_CAP = 60

MAX_BASIS_DIM = 2_000_000

# largest lowering series lowering_series builds, at a float64 value and an
# int32 column index per entry; the build holds up to about three times this
# at its peak, and a basis well inside MAX_BASIS_DIM can ask for far more
MAX_OPERATOR_BYTES = 2**30
_ENTRY_BYTES = 12


class BasisEnumeration:
    """Fixed bijection between multi-indices and dense indices 0..dim-1.

    The states are one read-only dim x mode_count int64 occupation array.
    Its order is graded lexicographic (total occupation first, then
    lexicographic within each total), defined by the closed-form rank alone:
    row i is the state whose rank is i.  The order is part of the on-disk
    file format, so it must never change.
    """

    def __init__(self, mode_count: int, n_max: int):
        if mode_count < 1:
            raise ValueError(f"need at least one mode, got mode_count={mode_count}")
        if n_max < 0:
            raise ValueError(f"total occupation cutoff must be >= 0, got n_max={n_max}")
        if n_max > N_MAX_CAP:
            raise CapacityError(f"n_max={n_max} exceeds the supported cap {N_MAX_CAP}")
        dim = math.comb(n_max + mode_count, mode_count)
        if dim > MAX_BASIS_DIM:
            raise CapacityError(f"basis dimension {dim} exceeds the maximum {MAX_BASIS_DIM}")
        self.mode_count = mode_count
        self.n_max = n_max
        self.dim = dim
        # _binomial[p, R] = C(R + p, p) for rank, each row the running sum of the last
        self._binomial = np.ones((mode_count + 1, n_max + 1), dtype=np.int64)
        for p in range(1, mode_count + 1):
            self._binomial[p] = np.cumsum(self._binomial[p - 1])
        # every state, one mode at a time: each row of total t takes 0..n_max - t;
        # int8 holds any occupation up to N_MAX_CAP
        occ = np.zeros((1, 0), dtype=np.int8)
        totals = np.zeros(1, dtype=np.int64)
        for _ in range(mode_count):
            counts = n_max + 1 - totals
            column = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            occ = np.column_stack((np.repeat(occ, counts, axis=0), column.astype(np.int8)))
            totals = np.repeat(totals, counts) + column
        self._occupations = np.empty((dim, mode_count), dtype=np.int64)
        self._occupations[self.rank(occ)] = occ
        self._occupations.flags.writeable = False
        # read-only boson parity (-1)**sum(n) of every state, as float
        self.parity = 1.0 - 2.0 * (self._occupations.sum(axis=1) % 2)
        self.parity.flags.writeable = False

    def index_of(self, n: MultiIndex) -> int:
        occ = np.asarray(n)
        if occ.shape != (self.mode_count,) or occ.dtype.kind not in "iu" or not (
            occ.min() >= 0 and occ.sum() <= self.n_max
        ):
            raise ValueError(
                f"multi-index {tuple(n)} is not in the enumeration "
                f"(mode_count={self.mode_count}, n_max={self.n_max})"
            )
        return int(self.rank(occ[None, :])[0])

    def multi_index_of(self, i: int) -> MultiIndex:
        if not 0 <= i < self.dim:
            raise ValueError(f"dense index {i} out of range 0..{self.dim - 1}")
        return tuple(self._occupations[i].tolist())

    def rank(self, occupations: np.ndarray) -> np.ndarray:
        """Dense indices of the rows of an integer occupation array, in closed form.

        The graded-lex rank of a state of total t counts the C(t + M - 1, M)
        states of lower total, and then, for each mode i, the states of
        total t that agree on the modes before i and hold less in mode i:
        C(R_i + p, p) - C(R_{i+1} + p, p), where R_i is the occupation of
        modes i.. and p = M - 1 - i the number of modes after i.  Every
        binomial involved is at most dim, so none overflows int64.  Each row
        must be a state of this enumeration.
        """
        modes, binomial = self.mode_count, self._binomial
        occ = np.asarray(occupations)
        remaining = occ.sum(axis=1, dtype=np.int64)
        rank = np.concatenate(([0], binomial[modes, :-1]))[remaining]
        for i in range(modes - 1):
            after = remaining - occ[:, i]
            rank += binomial[modes - 1 - i, remaining] - binomial[modes - 1 - i, after]
            remaining = after
        return rank

    def raising(self, k: int) -> np.ndarray:
        """int32 index of n + e_k for every state n, or -1 where it leaves the basis.

        The rank of n - e_k over the states with n_k > 0, inverted; int32
        holds every index below MAX_BASIS_DIM.
        """
        if not 0 <= k < self.mode_count:
            raise ValueError(f"mode {k} out of range 0..{self.mode_count - 1}")
        occupied = np.nonzero(self._occupations[:, k])[0]
        lowered = self._occupations[occupied]
        lowered[:, k] -= 1
        raised = np.full(self.dim, -1, dtype=np.int32)
        raised[self.rank(lowered)] = occupied
        return raised

    def occupation_array(self) -> np.ndarray:
        """The read-only dim x mode_count int64 occupations, row i = multi_index_of(i)."""
        return self._occupations

    def __len__(self) -> int:
        return self.dim

    def __iter__(self):
        return map(tuple, self._occupations.tolist())


def enumerate_basis(mode_count: int, n_max: int) -> BasisEnumeration:
    """Graded-lexicographic basis with dim = C(n_max + mode_count, mode_count)."""
    return BasisEnumeration(mode_count, n_max)


def lowering_series(enumeration: BasisEnumeration, q) -> scipy.sparse.csr_array:
    """E = S exp(-2 q.a) S over the enumeration, one CSR matrix.

    The factor exp(-2 q_k a_k) of mode k holds, in the row of m, the entry
    (-2 q_k)**r sqrt((m_k + r)! / m_k!) / r! in the column of m + r e_k for
    every r that stays in the basis; the ladder map enumeration.raising(k)
    steps from one column to the next.  The factors commute, and
    their product has at most C(n_max + 2M, 2M) entries for M modes: one
    per pair of a state and a lowering that fits in it.  Raises CapacityError,
    before allocating anything, when those entries would exceed
    MAX_OPERATOR_BYTES.
    """
    modes, n_max = enumeration.mode_count, enumeration.n_max
    if len(q) != modes:
        raise ValueError(
            f"{len(q)} displacements do not match the enumeration mode count {modes}"
        )
    entries = math.comb(n_max + 2 * modes, 2 * modes)
    if entries * _ENTRY_BYTES > MAX_OPERATOR_BYTES:
        raise CapacityError(
            f"the lowering series of {modes} modes at n_max={n_max} has {entries} "
            f"entries, {entries * _ENTRY_BYTES} bytes, above the cap "
            f"MAX_OPERATOR_BYTES = {MAX_OPERATOR_BYTES}"
        )
    occ = enumeration.occupation_array()
    dim = enumeration.dim
    # every factor has n_max - sum(m) + 1 entries in row m; int32 indices
    # hold any dim <= MAX_BASIS_DIM and any entry count under the cap
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(n_max + 1 - occ.sum(axis=1), out=indptr[1:])
    series = None
    for k, qk in enumerate(q):
        raising = enumeration.raising(k)
        indices = np.empty(indptr[-1], dtype=np.int32)
        data = np.empty(indptr[-1])
        row = col = np.arange(dim, dtype=np.int32)
        value = np.ones(dim)
        for r in range(n_max + 1):
            if r:
                col = raising[col]
                kept = col >= 0
                row, col = row[kept], col[kept]
                value = value[kept] * (-2.0 * qk) * np.sqrt(occ[col, k]) / r
            indices[indptr[row] + r] = col
            data[indptr[row] + r] = value
        factor = scipy.sparse.csr_array((data, indices, indptr), shape=(dim, dim))
        series = factor if series is None else factor @ series
    return series


def parity_phase(n: MultiIndex) -> int:
    """Boson-number parity (-1)**sum(n)."""
    return 1 if sum(n) % 2 == 0 else -1


def displacement_matrix(
    q: float, dim: int, buffer: int = 10, checked_columns: int = 0
) -> np.ndarray:
    """dim x dim block of <m|exp(q(a'-a))|n> in the number basis.

    The generator is exponentiated in an enlarged space of dimension
    dim + buffer and then truncated, which keeps the retained block accurate
    for occupations well below dim.  Columns near the truncation edge leak
    into the discarded space for any finite buffer (the displaced state
    D(q)|n> centers near n + q**2), so no blanket norm guarantee is
    possible; callers declare via checked_columns how many leading columns
    must retain norm >= 1 - 1e-8, and an AccuracyError reports any that
    do not.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if buffer < 0:
        raise ValueError(f"buffer must be >= 0, got {buffer}")
    if not 0 <= checked_columns <= dim:
        raise ValueError(
            f"checked_columns must lie in 0..dim, got {checked_columns}"
        )
    big = dim + buffer
    ladder = np.diag(np.sqrt(np.arange(1, big)), k=1)  # annihilation operator
    generator = q * (ladder.T - ladder)
    full = expm(generator)
    block = np.ascontiguousarray(full[:dim, :dim])
    if checked_columns:
        norms = np.linalg.norm(block[:, :checked_columns], axis=0)
        bad = np.nonzero(norms < 1.0 - 1e-8)[0]
        if bad.size:
            raise AccuracyError(
                f"displacement truncation leaked: column {bad[0]} of "
                f"displacement_matrix(q={q}, dim={dim}, buffer={buffer}) "
                f"has norm {norms[bad[0]]:.12f} < 1 - 1e-8"
            )
    return block
