"""Exact reports on a two-case argument that the sector levels differ; not a proof.

Suppose the even and odd sector Hamiltonians shared their lowest
eigenvalue, with displaced-basis coefficients c+_n, c-_n and nonzero
vacuum components c+_0, c-_0.  Subtracting the vacuum rows of the two
eigenvalue equations (divided by c+_0 and c-_0 respectively) leaves

    2 + (1/c+_0) sum_{n != 0} c-_n prod_k (2 q_k)^{n_k} / sqrt(n_k!)
      = -(1/c-_0) sum_{n != 0} c+_n prod_k (2 q_k)^{n_k} / sqrt(n_k!)

which the argument asks to hold identically in q_1..q_N.  Case 1: each
multi-index n has its own monomial q^n (monomial independence).  Case 2:
the constant terms, 2 and 0, cannot match.

Both verdicts are read in integer arithmetic from the occupation array of
the basis: case 1 holds when no two rows are equal, case 2 when exactly
one row has total 0.  Both hold for every basis enumerate_basis returns.
That proves nothing: the c+-_n are functions of q, not constants; and
"lowest" is never used, so shared excited levels would be ruled out too,
yet they exist (one mode, omega 1, delta 0.5, lambda = sqrt(15)/8: level
1 of both sectors is 49/64, Judd, J. Phys. C 12, 1685, 1979).  What
keeps the ground pair apart is the sign theorem: for delta > 0 the
untruncated ground state is unique and even (Perron-Frobenius; Spohn,
Commun. Math. Phys. 123, 277, 1989).  The witness is exact in Fraction;
no floating point enters this module.  The report text, HYPOTHESIS
included, is pinned by sha256 in the tests and the benchmark reference.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from sbmlab.errors import CapacityError
from sbmlab.fockspace import enumerate_basis

PROOF_DIM_CAP = 10_000

HYPOTHESIS = (
    "assumes nonzero vacuum components c+_0 and c-_0 of both sector "
    "ground states (checked empirically by the eigensolver suite)"
)


@dataclass(frozen=True)
class ProofReport:
    N: int
    n_max: int
    case1_verdict: str
    case2_verdict: str
    witness: tuple[Fraction, Fraction]
    monomial_count: int
    hypothesis: str = HYPOTHESIS

    @property
    def holds(self) -> bool:
        return self.case1_verdict == "holds" and self.case2_verdict == "holds"

    def to_text(self) -> str:
        left, right = self.witness
        lines = [
            f"non-degeneracy check for {self.N} mode(s), total occupation <= {self.n_max}",
            f"monomials enumerated: {self.monomial_count}",
            "",
            "case 1 (monomial independence): distinct occupation vectors give",
            "  distinct monomials q^n, so a vanishing expansion forces every",
            f"  coefficient to zero -> {self.case1_verdict}",
            "case 2 (constant terms): matching the degree-zero coefficients of",
            "  the two vacuum-row expansions requires",
            f"  left constant {left} == right constant {right},",
            f"  which no coefficient assignment can repair -> {self.case2_verdict}",
            "",
            f"hypothesis: {self.hypothesis}",
            f"conclusion: degenerate sector ground levels are impossible "
            f"({'holds' if self.holds else 'FAILS'})",
        ]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        """The fields in order, the witness as two strings, then holds."""
        left, right = self.witness
        witness = {"left_constant": str(left), "right_constant": str(right)}
        return {**asdict(self), "witness": witness, "holds": self.holds}


def _proof_basis(N: int, n_max: int):
    if N < 1:
        raise ValueError(f"need at least one mode, got N={N}")
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got n_max={n_max}")
    dim = math.comb(n_max + N, N)
    if dim > PROOF_DIM_CAP:
        raise CapacityError(f"appendix basis dimension {dim} exceeds cap {PROOF_DIM_CAP}")
    return enumerate_basis(N, n_max)


def _rows_distinct(rows: np.ndarray) -> bool:
    """Whether no two rows of the 2-D array are equal.

    Equal rows have equal bytes, so sorting the rows as opaque byte strings
    (one void item per row, a view of a contiguous array) puts any two equal
    rows next to each other.  The neighbours are compared in blocks of 257
    sorted rows that overlap by one, so no more than 257 rows are ever
    copied at once.
    """
    block = 257
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(keys)
    for start in range(0, len(order) - 1, block - 1):
        chunk = rows[order[start : start + block]]
        if (chunk[1:] == chunk[:-1]).all(axis=1).any():
            return False
    return True


def constant_term_contradiction(N: int, n_max: int) -> ProofReport:
    """Both cases of the argument over the occupation array of one basis.

    Case 1 (monomial independence) holds when no two occupation vectors
    coincide: each then keeps its own monomial, and its weight 2^|n| is
    nonzero, which forces all c_n = 0 when the expansion vanishes
    identically.  Case 2 compares the constant terms of both vacuum-row
    expansions.  The left side is 2 plus the odd-sector expansion, the
    right side is minus the even-sector expansion, both summed over n != 0;
    a polynomial identity between them would need equal constant terms,
    but these are 2 and 0 exactly.
    """
    basis = _proof_basis(N, n_max)
    occupations = basis.occupations
    independent = _rows_distinct(occupations)
    # both sums skip c_0, so an unknown could reach a constant term only
    # through another row of total 0; the weights multiply unknowns and add
    # nothing constant, so with the vacuum the only such row the constant
    # terms are 2 and 0, which differ
    vacuum_only = np.count_nonzero(occupations.sum(axis=1) == 0) == 1
    return ProofReport(
        N=N,
        n_max=n_max,
        case1_verdict="holds" if independent else "fails",
        case2_verdict="holds" if vacuum_only else "fails",
        witness=(Fraction(2), Fraction(0)),
        monomial_count=basis.dim,
    )
