"""References that the tests compare the package against, written the direct way.

parity_phase is the boson parity of one multi-index, and
displacement_matrix the single-mode displacement operator as a dense
matrix exponential.  beta2_reference sums the discrete tail term by term
in any number type, lmn_exact is the single-mode overlap factor in
rational arithmetic, frozen_spin_check the commutator of the
delta = 0 Hamiltonian with sigma_z, lowering_series_reference fills
each factor of the lowering series entry by entry along the ladder maps,
magnetization is <sigma_z> of a mixture of the two sector ground
states, and dense_spectrum every eigenvalue of a sparse symmetric
matrix from one dense solve.  The package needs none of them.
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
from sbmlab.oracle import assemble_full, spectral_norm
from sbmlab.sectors import GroundStateResult, ModelParams, parity_overlap


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
    """Norm of [H', sigma_z (x) I] for the delta = 0 Hamiltonian; structurally zero.

    With no tunneling both spin blocks are closed, so the commutator
    vanishes identically rather than to rounding.
    """
    model = assemble_full(ModelParams(delta=0.0, epsilon=0.0), bath, enumeration)
    dim = enumeration.dim
    sz = scipy.sparse.diags_array(np.concatenate([np.ones(dim), -np.ones(dim)]))
    H = model.hamiltonian
    return spectral_norm(H @ sz - sz @ H)


def lowering_series_reference(enumeration: BasisEnumeration, q) -> scipy.sparse.csr_array:
    """E = S exp(-2 q.a) S with every factor filled along its ladder map, no kept pattern.

    Row m of the factor of mode k holds, at position r, the column of
    m + r e_k and the value (-2 q_k)**r sqrt((m_k + r)! / m_k!) / r!, found
    by r steps of enumeration.raising(k) and the same recurrence, in the
    same order of operations, as fockspace.lowering_series.
    """
    occ = enumeration.occupation_array()
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


def magnetization(theta: float, plus: GroundStateResult, minus: GroundStateResult) -> float:
    """M(theta) = -sin(2 theta) * <even ground | boson parity | odd ground>."""
    return -math.sin(2.0 * theta) * parity_overlap(plus, minus)


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
