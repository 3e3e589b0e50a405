"""Occupation-number bookkeeping and displaced-oscillator matrix elements.

States of N+1 boson modes are labelled by multi-indices n = (n_0, ..., n_N)
with a total-excitation cutoff sum(n) <= n_max.  The central object is the
overlap table of the parity operator exp(i*pi*sum a'a) between displaced
number states D(-q)|n>:

    D_{m,n} = exp(-2 sum_k q_k**2) * prod_k L_{m_k, n_k}(q_k)

with the single-mode alternating sum

    L_{m,n}(q) = sum_{j=0}^{min(m,n)} (-1)**j sqrt(m! n!) (2q)**(m+n-2j)
                 / ((m-j)! (n-j)! j!).

At q = 0 this reduces to the signed Kronecker delta (-1)**n * delta_{m,n}
(the j = min(m,n) term survives with sign (-1)**m), not the plain identity;
the sign is the parity eigenvalue of |n>.  Equivalently, as used by the
dense cross-checks, exp(-2q**2) L_{m,n}(q) = (-1)**n <m|exp(2q(a'-a))|n>.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from sbmlab.bath import DiscretizedBath, prefactor
from sbmlab.errors import AccuracyError, CapacityError

MultiIndex = tuple[int, ...]

# total-occupation cap; beyond this the alternating sum in lmn_single is not
# trusted without extended precision
N_MAX_CAP = 60

MAX_BASIS_DIM = 2_000_000

# largest D table (dim**2 float64 entries) dmn_table allocates; a basis well
# inside MAX_BASIS_DIM can still ask for terabytes here
MAX_TABLE_BYTES = 4 * 2**30

# rows of D finished per pass in dmn_table, which bounds its temporaries
# to a few block-sized gathers
_TABLE_ROW_BLOCK = 64

# switch from exact integer factorials to log-gamma evaluation
_EXACT_SUM_LIMIT = 30


def _compositions(total: int, parts: int):
    """All length-`parts` tuples of nonnegative ints summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class BasisEnumeration:
    """Fixed bijection between multi-indices and dense indices 0..dim-1.

    Ordering is graded lexicographic: states sort by total occupation first,
    then lexicographically within each total.  The ordering is part of the
    on-disk file format, so it must never change.
    """

    def __init__(self, mode_count: int, n_max: int, max_dim: int = MAX_BASIS_DIM):
        if mode_count < 1:
            raise ValueError(f"need at least one mode, got mode_count={mode_count}")
        if n_max < 0:
            raise ValueError(f"total occupation cutoff must be >= 0, got n_max={n_max}")
        if n_max > N_MAX_CAP:
            raise CapacityError(
                f"n_max={n_max} exceeds the supported cap {N_MAX_CAP}"
            )
        dim = math.comb(n_max + mode_count, mode_count)
        if dim > max_dim:
            raise CapacityError(
                f"basis dimension {dim} exceeds the configured maximum {max_dim}"
            )
        self.mode_count = mode_count
        self.n_max = n_max
        self._states: tuple[MultiIndex, ...] = tuple(
            state
            for total in range(n_max + 1)
            for state in _compositions(total, mode_count)
        )
        self._index: dict[MultiIndex, int] = {s: i for i, s in enumerate(self._states)}
        assert len(self._states) == dim

    @property
    def dim(self) -> int:
        return len(self._states)

    @property
    def states(self) -> tuple[MultiIndex, ...]:
        return self._states

    def index_of(self, n: MultiIndex) -> int:
        try:
            return self._index[tuple(n)]
        except KeyError:
            raise ValueError(
                f"multi-index {tuple(n)} is not in the enumeration "
                f"(mode_count={self.mode_count}, n_max={self.n_max})"
            ) from None

    def multi_index_of(self, i: int) -> MultiIndex:
        if not 0 <= i < len(self._states):
            raise ValueError(f"dense index {i} out of range 0..{len(self._states) - 1}")
        return self._states[i]

    def occupation_array(self) -> np.ndarray:
        """dim x mode_count integer array of occupations, row i = multi_index_of(i)."""
        return np.array(self._states, dtype=np.int64).reshape(self.dim, self.mode_count)

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self):
        return iter(self._states)


def enumerate_basis(mode_count: int, n_max: int, max_dim: int = MAX_BASIS_DIM) -> BasisEnumeration:
    """Graded-lexicographic basis with dim = C(n_max + mode_count, mode_count)."""
    return BasisEnumeration(mode_count, n_max, max_dim=max_dim)


def lmn_single(m: int, n: int, q: float) -> float:
    """Single-mode factor L_{m,n}(q) of the displaced parity overlap.

    Alternating sum over j = 0..min(m,n); exact integer factorials are used
    up to m+n = 30, log-gamma magnitudes beyond.  At q = 0 only the
    j = min(m,n) term of a diagonal element survives, giving (-1)**n on the
    diagonal and 0 elsewhere.
    """
    if m < 0 or n < 0:
        raise ValueError(f"occupation numbers must be >= 0, got ({m}, {n})")
    if m > N_MAX_CAP or n > N_MAX_CAP:
        raise CapacityError(f"occupation above supported cap {N_MAX_CAP}: ({m}, {n})")
    if q == 0.0:
        return float((-1) ** n) if m == n else 0.0
    x = 2.0 * q
    if m + n <= _EXACT_SUM_LIMIT:
        root = math.sqrt(math.factorial(m) * math.factorial(n))
        terms = [
            (-1.0) ** j
            * x ** (m + n - 2 * j)
            * root
            / (math.factorial(m - j) * math.factorial(n - j) * math.factorial(j))
            for j in range(min(m, n) + 1)
        ]
        return math.fsum(terms)
    log_root = 0.5 * (math.lgamma(m + 1) + math.lgamma(n + 1))
    log_absx = math.log(abs(x))
    sign_x = 1.0 if x > 0 else -1.0
    terms = []
    for j in range(min(m, n) + 1):
        power = m + n - 2 * j
        magnitude = math.exp(
            log_root
            + power * log_absx
            - math.lgamma(m - j + 1)
            - math.lgamma(n - j + 1)
            - math.lgamma(j + 1)
        )
        terms.append((-1.0) ** j * sign_x**power * magnitude)
    return math.fsum(terms)


def lmn_table(q: float, size: int) -> np.ndarray:
    """size x size table of lmn_single values for one mode."""
    out = np.empty((size, size))
    for m in range(size):
        for n in range(m, size):
            out[m, n] = out[n, m] = lmn_single(m, n, q)
    return out


def _check_pair(bath: DiscretizedBath, m: MultiIndex, n: MultiIndex) -> None:
    if len(m) != bath.mode_count or len(n) != bath.mode_count:
        raise ValueError(
            f"multi-index lengths ({len(m)}, {len(n)}) do not match "
            f"the bath mode count {bath.mode_count}"
        )
    if any(v < 0 for v in m) or any(v < 0 for v in n):
        raise ValueError("occupation numbers must be >= 0")


def dmn(bath: DiscretizedBath, m: MultiIndex, n: MultiIndex) -> float:
    """Displaced parity overlap D_{m,n} = prefactor * prod_k L_{m_k,n_k}(q_k)."""
    _check_pair(bath, m, n)
    value = prefactor(bath)
    for mk, nk, qk in zip(m, n, bath.q):
        value *= lmn_single(mk, nk, qk)
        if value == 0.0:
            break
    return value


def d0n_closed(bath: DiscretizedBath, n: MultiIndex) -> float:
    """Closed form of the vacuum row: prefactor * prod_k (2 q_k)**n_k / sqrt(n_k!)."""
    _check_pair(bath, n, n)
    value = prefactor(bath)
    for nk, qk in zip(n, bath.q):
        value *= (2.0 * qk) ** nk / math.sqrt(math.factorial(nk))
    return value


def dmn_table(bath: DiscretizedBath, basis: BasisEnumeration) -> np.ndarray:
    """Full D_{m,n} matrix over an enumeration, assembled mode by mode.

    Each entry is prefactor * L^(0) * L^(1) * ... multiplied in mode order.
    Rows are filled in blocks of _TABLE_ROW_BLOCK, so apart from the result
    only block-sized temporaries are allocated.  Raises CapacityError before
    allocating when the table would exceed MAX_TABLE_BYTES.
    """
    if basis.mode_count != bath.mode_count:
        raise ValueError(
            f"enumeration mode count {basis.mode_count} does not match "
            f"bath mode count {bath.mode_count}"
        )
    dim = basis.dim
    if dim * dim * 8 > MAX_TABLE_BYTES:
        raise CapacityError(
            f"the D table of basis dimension {dim} needs {dim * dim * 8} bytes, "
            f"above the cap MAX_TABLE_BYTES = {MAX_TABLE_BYTES}"
        )
    occ = basis.occupation_array()
    # row m of columns[k] is L_{m, n_k}(q_k) for every state n of the basis
    columns = [lmn_table(qk, basis.n_max + 1)[:, occ[:, k]] for k, qk in enumerate(bath.q)]
    polaron = prefactor(bath)
    out = np.empty((dim, dim))
    for start in range(0, dim, _TABLE_ROW_BLOCK):
        rows = slice(start, start + _TABLE_ROW_BLOCK)
        block = out[rows]
        block.fill(polaron)
        for k, gathered in enumerate(columns):
            block *= gathered[occ[rows, k]]
    return out


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
