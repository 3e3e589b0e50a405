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

Everything here runs in exact rational arithmetic.  An expansion is one
flat map from multi-index n to a Fraction weight: the key n stands for
both the unknown c_n and its monomial q^n, so no symbol objects are
needed.  The sqrt(n!) factors are formal positive units absorbed into
the unknowns (only their positivity and the monomial degrees matter).
No floating point enters this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from sbmlab.errors import CapacityError
from sbmlab.fockspace import MultiIndex, enumerate_basis

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
        return {
            "N": self.N,
            "n_max": self.n_max,
            "case1_verdict": self.case1_verdict,
            "case2_verdict": self.case2_verdict,
            "witness": {
                "left_constant": str(self.witness[0]),
                "right_constant": str(self.witness[1]),
            },
            "monomial_count": self.monomial_count,
            "hypothesis": self.hypothesis,
            "holds": self.holds,
        }


def _proof_basis(N: int, n_max: int):
    if N < 1:
        raise ValueError(f"need at least one mode, got N={N}")
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got n_max={n_max}")
    dim = math.comb(n_max + N, N)
    if dim > PROOF_DIM_CAP:
        raise CapacityError(f"proof enumeration dimension {dim} exceeds cap {PROOF_DIM_CAP}")
    return enumerate_basis(N, n_max)


def _expansion(basis) -> dict[MultiIndex, Fraction]:
    """sum_n c_n (2q)^n as {n: 2^|n|}, in one pass over the basis.

    The key n names both the unknown c_n and its monomial q^n, and the
    value is the weight of c_n on that monomial; the sign of a sector's
    side scales every weight and changes neither verdict.
    """
    return {n: Fraction(2 ** sum(n)) for n in basis}


def _independence_verdict(terms: dict[MultiIndex, Fraction], dim: int) -> str:
    # one key per stored monomial: dim keys from dim occupation vectors mean
    # no two collide, and each carries its own unknown with a nonzero weight
    return "holds" if len(terms) == dim and all(terms.values()) else "fails"


def monomial_independence_check(N: int, n_max: int) -> str:
    """Certify that occupation vectors map injectively onto monomials.

    Builds sum_n c_n (2q)^n as a map from multi-index to weight and checks
    that every occupation vector keeps its own monomial with a nonzero
    rational weight.  Together these force all c_n = 0 when the expansion
    vanishes identically.
    """
    basis = _proof_basis(N, n_max)
    return _independence_verdict(_expansion(basis), basis.dim)


def constant_term_contradiction(N: int, n_max: int) -> ProofReport:
    """Compare the constant terms of both vacuum-row expansions.

    The left side is 2 plus the odd-sector expansion, the right side is
    minus the even-sector expansion, both summed over n != 0; a polynomial
    identity between them would need equal constant terms, but these are
    2 and 0 exactly.
    """
    basis = _proof_basis(N, n_max)
    terms = _expansion(basis)
    vacuum = (0,) * N
    # both sums skip c_0, so an unknown could reach a constant term only
    # through another key of degree zero; the weights multiply unknowns and
    # add nothing constant, so the constant terms are 2 and 0, which differ
    symbolic = any(sum(n) == 0 for n in terms if n != vacuum)
    case2 = "fails" if symbolic else "holds"
    return ProofReport(
        N=N,
        n_max=n_max,
        case1_verdict=_independence_verdict(terms, basis.dim),
        case2_verdict=case2,
        witness=(Fraction(2), Fraction(0)),
        monomial_count=basis.dim,
    )


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


def closed_form_square_check(n: MultiIndex, q_rational) -> str:
    """Exactly verify L_{0,n}**2 == prod_k (2 q_k)**(2 n_k) / n_k!.

    Squaring removes the formal sqrt(n!) unit, so both sides are plain
    rationals and the comparison is exact.
    """
    q_values = [Fraction(v) for v in q_rational]
    if len(n) != len(q_values):
        raise ValueError(
            f"occupation vector length {len(n)} does not match {len(q_values)} displacements"
        )
    left = Fraction(1)
    right = Fraction(1)
    for nk, qk in zip(n, q_values):
        rational, radicand = lmn_exact(0, nk, qk)
        left *= rational * rational * radicand
        right *= (2 * qk) ** (2 * nk) / Fraction(math.factorial(nk))
    return "holds" if left == right else "fails"
