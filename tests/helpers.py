"""References that the tests compare the package against, written the direct way.

basis_states lists the states of a basis as tuples, parity_phase is the
boson parity of one multi-index, and displacement_matrix the single-mode
displacement operator as a dense matrix exponential.  beta2_reference
sums the discrete tail term by term in any number type, lmn_exact is the
single-mode overlap factor in rational arithmetic, frozen_spin_check the
commutator of the delta = 0 Hamiltonian with sigma_z,
lowering_series_reference fills each factor of the lowering series entry
by entry along the ladder maps, coupling_matrix and block_hamiltonian
build V and H from sparse blocks, magnetization is <sigma_z> of a
mixture of the two sector ground states, dense_spectrum every
eigenvalue of a sparse symmetric matrix from one dense solve, and
sector_dense a small sector operator made dense through its own product.
The package needs none of them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg import expm

from sbmlab.bath import DiscretizedBath
from sbmlab.errors import AccuracyError
from sbmlab.fockspace import BasisEnumeration
from sbmlab.oracle import assemble_full
from sbmlab.sectors import GroundStateResult, ModelParams, SectorMatrix


def basis_states(enumeration: BasisEnumeration) -> list[tuple[int, ...]]:
    """Every state of the enumeration as a tuple of occupations, in rank order."""
    return [tuple(n) for n in enumeration.occupations.tolist()]


def parity_phase(n: tuple[int, ...]) -> int:
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


def beta2_reference(s, Lambda, N: int):
    """(beta0/4) * sum_{k=0..N} Lambda**(k(1-s)), term by term in the number type of s and Lambda.

    No expm1 and no closed-form geometric sum: with Fractions and an
    integer s every power is rational and the value is exact, with
    mpmath.mpf it is good to the working precision.  beta0 is
    4 * beta2_reference(s, Lambda, 0).
    """
    x1 = Lambda ** (-s - 1)
    x2 = Lambda ** (-s - 2)
    beta0 = (s + 2) ** 2 * (1 - x1) ** 3 / ((s + 1) ** 3 * (1 - x2) ** 2)
    return beta0 / 4 * sum(Lambda ** (k * (1 - s)) for k in range(N + 1))


def lmn_exact(m: int, n: int, q: Fraction) -> tuple[Fraction, int]:
    """Single-mode overlap factor as (rational, radicand): L = rational * sqrt(radicand).

    The alternating sum of the displaced overlap is rational once the
    common sqrt(m! n!) is factored out; the radicand m!*n! is returned
    unevaluated so the result stays exact.
    """
    if m < 0 or n < 0:
        raise ValueError(f"occupation numbers must be >= 0, got ({m}, {n})")
    q = Fraction(q)
    x = 2 * q
    acc = Fraction(0)
    for j in range(min(m, n) + 1):
        term = Fraction(
            (-1) ** j,
            math.factorial(m - j) * math.factorial(n - j) * math.factorial(j),
        )
        acc += term * x ** (m + n - 2 * j)
    return acc, math.factorial(m) * math.factorial(n)


def frozen_spin_check(bath: DiscretizedBath, enumeration: BasisEnumeration) -> float:
    """Largest entry of [H', sigma_z (x) I] for the delta = 0 Hamiltonian; structurally zero.

    With no tunneling both spin blocks are closed, so the commutator
    vanishes identically rather than to rounding, and a largest entry of 0
    is its norm.
    """
    model = assemble_full(ModelParams(delta=0.0, epsilon=0.0), bath, enumeration)
    dim = enumeration.dim
    sz = scipy.sparse.diags_array(np.concatenate([np.ones(dim), -np.ones(dim)]))
    H = model.hamiltonian
    return float(abs(H @ sz - sz @ H).max())


def lowering_series_reference(enumeration: BasisEnumeration, q) -> scipy.sparse.csr_array:
    """E = S exp(-2 q.a) S with every factor filled along its ladder map, no kept pattern.

    Row m of the factor of mode k holds, at position r, the column of
    m + r e_k and the value (-2 q_k)**r sqrt((m_k + r)! / m_k!) / r!, found
    by r steps of enumeration.raising(k) and the same recurrence, in the
    same order of operations, as fockspace.lowering_series.
    """
    occ = enumeration.occupations
    dim, n_max = enumeration.dim, enumeration.n_max
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


def coupling_matrix(bath: DiscretizedBath, enumeration: BasisEnumeration) -> scipy.sparse.csr_array:
    """sum_k lambda_k (a'_k + a_k) over the enumeration, from COO triplets along the ladder maps."""
    occ = enumeration.occupations
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


def block_hamiltonian(
    params: ModelParams, bath: DiscretizedBath, enumeration: BasisEnumeration
) -> scipy.sparse.csr_array:
    """H from sparse blocks by scipy.sparse.block_array, spin-up block first.

    A placeholder diagonal of ones keeps every diagonal entry stored
    through the block sums, which drop zero entries elsewhere; the
    diagonal is then overwritten with b_n +- epsilon/2.
    """
    dim = enumeration.dim
    boson = enumeration.occupations @ np.asarray(bath.omega)
    V = coupling_matrix(bath, enumeration)
    eye = scipy.sparse.eye_array(dim)
    tunneling = -params.delta / 2.0 * eye
    H = scipy.sparse.block_array([[eye + V, tunneling], [tunneling, eye - V]], format="csr")
    rows = np.repeat(np.arange(2 * dim), np.diff(H.indptr))
    half_eps = params.epsilon / 2.0
    H.data[np.flatnonzero(H.indices == rows)] = np.concatenate([boson + half_eps, boson - half_eps])
    return H


def magnetization(theta: float, plus: GroundStateResult, minus: GroundStateResult) -> float:
    """M(theta) = -sin(2 theta) * <even ground | boson parity | odd ground>.

    The odd sector's rotated basis absorbs the boson parity, so the overlap
    is the dot product of the coefficient vectors.
    """
    return -math.sin(2.0 * theta) * float(plus.coefficients @ minus.coefficients)


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


def sector_dense(matrix: SectorMatrix) -> np.ndarray:
    """The sector operator as a dense array, one column per product with a unit vector."""
    return np.column_stack([matrix.apply(column) for column in np.eye(matrix.diagonal.size)])
