"""Occupation-number bookkeeping and the displaced parity operator.

States of N+1 boson modes are labelled by multi-indices n = (n_0, ..., n_N)
with a total-excitation cutoff sum(n) <= n_max.  BasisEnumeration holds them
as one read-only occupation array in graded lexicographic order, which is
lexicographic in (total, n_0, ..., n_{N-1}), and each row's total in totals.
Its ladder maps raising(k), n -> n + e_k, and its parity vector build E and P
below and the oracle's coupling V.  Nothing about a basis depends on q, so
enumerate_basis keeps the last one in a one-slot memo, and a basis builds its
ladder maps and the index pattern of E's factors (lowering_pattern) once,
read-only: a sweep that changes only q fills one small value table per mode
and point.  The central object is the overlap table of the parity operator
exp(i*pi*sum a'a) between displaced number states D(-q)|n>:

    D_{m,n} = exp(-2 sum_k q_k**2) * Dt_{m,n},   Dt_{m,n} = prod_k L_{m_k,n_k}(q_k)

with the single-mode alternating sum (the tests' exact reference evaluates
it in rational arithmetic)

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

import functools
import math

import numpy as np
import scipy.sparse

from sbmlab.errors import CapacityError

# total-occupation cap.  An entry of Dt is an alternating sum whose terms
# outgrow it as occupation and q grow: at one mode and n_max = 60 its worst
# relative error against exact arithmetic is 2.0e-12 at q = 0.2, 1.6e-9 at
# q = 0.5 and 5.2e-4 at q = 1, next to the diagonal; higher caps lose the rest
N_MAX_CAP = 60

MAX_BASIS_DIM = 2_000_000

# largest lowering series lowering_series builds, at a float64 value and an
# int32 column index per entry; the build holds up to about three times this
# at its peak, and a basis well inside MAX_BASIS_DIM can ask for far more
MAX_OPERATOR_BYTES = 2**30
_ENTRY_BYTES = 12


class BasisEnumeration:
    """Fixed bijection between multi-indices and dense indices 0..dim-1.

    The states are the read-only dim x mode_count int64 array occupations in
    graded lexicographic order, lexicographic in (total, n_0, ..., n_{M-2})
    for M modes: row i is the state of graded-lex rank i, and the read-only
    totals[i] its total.  The order is part of the on-disk file format.
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
        # at small n_max dim grows only as a power of mode_count, and the
        # int64 occupation array can outgrow memory inside MAX_BASIS_DIM
        occupation_bytes = 8 * dim * mode_count
        if occupation_bytes > MAX_OPERATOR_BYTES:
            raise CapacityError(
                f"the occupation array of {mode_count} modes at n_max={n_max} (dim {dim}) "
                f"takes {occupation_bytes} bytes, above the cap "
                f"MAX_OPERATOR_BYTES = {MAX_OPERATOR_BYTES}"
            )
        self.mode_count = mode_count
        self.n_max = n_max
        self.dim = dim
        # _binomial[p, R] = C(R + p, p), each row the running sum of the last
        self._binomial = np.ones((mode_count, n_max + 1), dtype=np.int64)
        for p in range(1, mode_count):
            self._binomial[p] = np.cumsum(self._binomial[p - 1])
        # from the budgets 0..n_max, a prefix of budget b extends by n_k = 0..b to budget
        # b - n_k, and heads C(b + p, p) rows, p its free modes before the last
        budget = np.arange(n_max + 1)
        self.totals = np.repeat(budget, self._binomial[mode_count - 1])
        self.totals.flags.writeable = False
        self.occupations = np.empty((dim, mode_count), dtype=np.int64)
        for k in range(mode_count - 1):
            counts = budget + 1
            column = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            budget = np.repeat(budget, counts) - column
            self.occupations[:, k] = np.repeat(column, self._binomial[mode_count - 2 - k, budget])
        self.occupations[:, -1] = budget
        self.occupations.flags.writeable = False
        # read-only boson parity (-1)**sum(n) of every state, as float
        self.parity = 1.0 - 2.0 * (self.totals % 2)
        self.parity.flags.writeable = False

    def raising(self, k: int) -> np.ndarray:
        """Read-only int32 index of n + e_k for every state n, or -1 where it leaves the basis."""
        if not 0 <= k < self.mode_count:
            raise ValueError(f"mode {k} out of range 0..{self.mode_count - 1}")
        return self._ladder_maps[k]

    @functools.cached_property
    def _ladder_maps(self) -> tuple[np.ndarray, ...]:
        """Every mode's ladder map, read-only int32 rows of one array, built on first use.

        For n of total t < n_max, R_i the occupation of modes i.. and p_i =
        M - 1 - i, Pascal's rule on each term of the rank that n + e_k moves
        gives one running sum over the modes:

            rank(n + e_k) - rank(n) = C(t + M - 1, M - 1) + C(R_k + p_k, p_k - 1)
                + sum_{i<k} [C(R_i + p_i, p_i - 1) - C(R_{i+1} + p_i, p_i - 1)],

        the C(R_k ...) term absent for k = M - 1.  The states of total
        n_max, the last rows, raise out of the basis.
        """
        modes, binomial = self.mode_count, self._binomial
        inner = self.dim - binomial[modes - 1, self.n_max]
        occ = self.occupations[:inner]
        remaining = self.totals[:inner]
        maps = np.full((modes, self.dim), -1, dtype=np.int32)
        step = np.arange(inner) + binomial[modes - 1, remaining]
        for k in range(modes - 1):
            pascal, after = binomial[modes - 2 - k], remaining - occ[:, k]
            maps[k, :inner] = step + pascal[remaining + 1]
            step += pascal[remaining + 1] - pascal[after + 1]
            remaining = after
        maps[-1, :inner] = step
        maps.flags.writeable = False
        return tuple(maps)

    @functools.cached_property
    def lowering_pattern(self) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
        """Where the entries of each factor exp(-2 q_k a_k) of lowering_series sit.

        Every factor holds, in the row of m, one entry per r = 0..n_max -
        sum(m), in the column of m + r e_k; its value depends on q_k, m_k
        and r alone.  Returns the indptr that all factors share and, per
        mode, the column of each entry and the cell m_k * (n_max + 1) + r
        of the value table that supplies it.  Nothing here depends on q, so
        it is built on first use and kept; every array is int32 (indices
        below MAX_BASIS_DIM, entry counts under MAX_OPERATOR_BYTES) and
        read-only.
        """
        indptr = np.zeros(self.dim + 1, dtype=np.int32)
        np.cumsum(self.n_max + 1 - self.totals, out=indptr[1:])
        indptr.flags.writeable = False
        return indptr, tuple(self._factor_pattern(k, indptr) for k in range(self.mode_count))

    def _factor_pattern(self, k: int, indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Columns and value-table cells of the factor of mode k, one ladder step in r at a time."""
        n_max, raising = self.n_max, self.raising(k)
        indices = np.empty(indptr[-1], dtype=np.int32)
        cells = np.empty(indptr[-1], dtype=np.int32)
        first_cell = self.occupations[:, k] * (n_max + 1)
        row = col = np.arange(self.dim, dtype=np.int32)
        for r in range(n_max + 1):
            if r:
                col = raising[col]
                kept = col >= 0
                row, col = row[kept], col[kept]
            position = indptr[row] + r
            indices[position] = col
            cells[position] = first_cell[row] + r
        indices.flags.writeable = cells.flags.writeable = False
        return indices, cells


@functools.lru_cache(maxsize=1, typed=True)
def enumerate_basis(mode_count: int, n_max: int) -> BasisEnumeration:
    """Graded-lexicographic basis with dim = C(n_max + mode_count, mode_count).

    The last basis is kept and returned again for the same arguments, so a
    sweep that changes only q reuses its ladder maps and lowering pattern.
    """
    return BasisEnumeration(mode_count, n_max)


def lowering_series(enumeration: BasisEnumeration, q) -> scipy.sparse.csr_array:
    """E = S exp(-2 q.a) S over the enumeration, one CSR matrix.

    The factor exp(-2 q_k a_k) of mode k holds, in the row of m, the entry
    (-2 q_k)**r sqrt((m_k + r)! / m_k!) / r! in the column of m + r e_k for
    every r that stays in the basis; enumeration.lowering_pattern places
    the entries, and a table of these values over (m_k, r) fills them.  The
    factors commute, and their product has at most C(n_max + 2M, 2M)
    entries for M modes: one per pair of a state and a lowering that fits
    in it.  Raises CapacityError, before allocating anything, when those
    entries and what the enumeration keeps for them together would exceed
    MAX_OPERATOR_BYTES.
    """
    modes, n_max, dim = enumeration.mode_count, enumeration.n_max, enumeration.dim
    if len(q) != modes:
        raise ValueError(
            f"{len(q)} displacements do not match the enumeration mode count {modes}"
        )
    entries = math.comb(n_max + 2 * modes, 2 * modes)
    # the enumeration keeps an int32 ladder map per mode, and per factor an
    # int32 column and table cell for each of its C(n_max + M + 1, M + 1)
    # entries, next to the shared int32 indptr
    kept = modes * (4 * dim + 8 * math.comb(n_max + modes + 1, modes + 1)) + 4 * (dim + 1)
    if entries * _ENTRY_BYTES + kept > MAX_OPERATOR_BYTES:
        raise CapacityError(
            f"the lowering series of {modes} modes at n_max={n_max} has {entries} "
            f"entries, {entries * _ENTRY_BYTES} bytes, and its kept pattern {kept} bytes, "
            f"above the cap MAX_OPERATOR_BYTES = {MAX_OPERATOR_BYTES}"
        )
    indptr, patterns = enumeration.lowering_pattern
    # values[k, m, r] = (-2 q_k)**r sqrt((m + r)! / m!) / r!, one ladder step at a time
    occupation = np.arange(n_max + 1)
    values = np.zeros((modes, n_max + 1, n_max + 1))
    values[:, :, 0] = 1.0
    step = -2.0 * np.asarray(q, dtype=float)[:, None]
    for r in range(1, n_max + 1):
        m = slice(n_max + 1 - r)
        values[:, m, r] = values[:, m, r - 1] * step * np.sqrt(occupation[m] + r) / r
    series = None
    for (indices, cells), table in zip(patterns, values):
        factor = scipy.sparse.csr_array(
            (table.ravel()[cells], indices, indptr), shape=(dim, dim)
        )
        series = factor if series is None else factor @ series
    return series
