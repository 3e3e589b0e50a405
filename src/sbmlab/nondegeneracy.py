"""Exact-arithmetic check that the two parity-sector ground levels differ.

The argument is mechanized, not numerical.  Suppose the even and odd
sector Hamiltonians had a common lowest eigenvalue, with displaced-basis
eigenvector coefficients c+_n and c-_n and nonzero vacuum components
c+_0, c-_0.  Subtracting the vacuum rows of the two eigenvalue equations
(divided by c+_0 and c-_0 respectively) leaves the polynomial identity

    2 + (1/c+_0) sum_{n != 0} c-_n prod_k (2 q_k)^{n_k} / sqrt(n_k!)
      = -(1/c-_0) sum_{n != 0} c+_n prod_k (2 q_k)^{n_k} / sqrt(n_k!)

which must hold identically in the displacement variables q_1..q_N.
Two exhaustive cases dispose of it:

1. every multi-index n maps to a distinct monomial q^n, so a vanishing
   expansion forces every coefficient to vanish (monomial independence);

2. the constant terms cannot match: the left side's is 2 and the right
   side has none, so no choice of coefficients with nonzero vacuum
   components satisfies the identity.

Both verdicts are read, in integer arithmetic, from the occupation array
of the basis: row n stands for both the unknown c_n and its monomial q^n,
so no symbol objects are needed.  Each weight 2^|n| is a nonzero integer
by construction, and the sqrt(n!) factors are formal positive units
absorbed into the unknowns (only their positivity and the monomial
degrees matter).  The witness is exact in Fraction; no floating point
enters this module.
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
        raise CapacityError(f"proof enumeration dimension {dim} exceeds cap {PROOF_DIM_CAP}")
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
    occupations = basis.occupation_array()
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
