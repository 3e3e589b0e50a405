import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sbmlab.errors import CapacityError
from sbmlab.fockspace import enumerate_basis, lowering_series
from sbmlab.nondegeneracy import (
    ProofReport,
    closed_form_square_check,
    constant_term_contradiction,
    lmn_exact,
    monomial_independence_check,
)

# ---------------------------------------------------------------- case 1


@pytest.mark.parametrize("N,n_max", [(1, 4), (2, 3), (3, 4)])
def test_monomial_independence_holds(N, n_max):
    assert monomial_independence_check(N, n_max) == "holds"


def test_monomial_independence_capacity_and_validation():
    with pytest.raises(CapacityError):
        monomial_independence_check(6, 20)  # C(26,6) = 230230 monomials
    with pytest.raises(ValueError):
        monomial_independence_check(0, 3)
    with pytest.raises(ValueError):
        monomial_independence_check(1, 0)


# ---------------------------------------------------------------- case 2


def test_contradiction_minimal_case():
    report = constant_term_contradiction(1, 1)
    assert report.case1_verdict == "holds"
    assert report.case2_verdict == "holds"
    assert report.witness == (Fraction(2), Fraction(0))
    assert report.monomial_count == 2
    assert report.holds


@pytest.mark.parametrize("N,n_max,count", [(2, 4, 15), (3, 3, 20), (2, 5, 21)])
def test_contradiction_reports_monomial_count(N, n_max, count):
    report = constant_term_contradiction(N, n_max)
    assert report.holds
    assert report.monomial_count == count == math.comb(n_max + N, N)


@pytest.mark.parametrize("N", [1, 2])
def test_contradiction_independent_of_cutoff(N):
    reports = [constant_term_contradiction(N, n_max) for n_max in range(1, 6)]
    assert all(r.holds for r in reports)
    assert len({r.witness for r in reports}) == 1


def test_contradiction_near_the_cap():
    # C(22, 4) = 7315 monomials, below PROOF_DIM_CAP: the proof does not
    # depend on how many degrees of freedom the bath has
    report = constant_term_contradiction(4, 18)
    assert report.monomial_count == 7315
    assert report.witness == (Fraction(2), Fraction(0))
    assert report.holds


def test_report_exactness_types():
    report = constant_term_contradiction(2, 2)
    assert isinstance(report.witness[0], Fraction)
    assert isinstance(report.witness[1], Fraction)
    assert isinstance(report.monomial_count, int)


def test_report_formats():
    report = constant_term_contradiction(2, 3)
    text = report.to_text()
    assert "left constant 2 == right constant 0" in text
    assert "holds" in text
    assert "hypothesis" in text
    blob = report.to_json_dict()
    assert blob["witness"] == {"left_constant": "2", "right_constant": "0"}
    assert blob["holds"] is True
    assert blob["N"] == 2 and blob["n_max"] == 3


# ---------------------------------------------------------------- squares


def test_square_check_trivial_points():
    assert closed_form_square_check((0,), [Fraction(7, 3)]) == "holds"
    assert closed_form_square_check((2,), [Fraction(0)]) == "holds"


def test_square_check_reference_value():
    # L_{0,3}(1/2) = (1/6) sqrt(6), so L^2 = 1/6
    rational, radicand = lmn_exact(0, 3, Fraction(1, 2))
    assert rational == Fraction(1, 6)
    assert radicand == 6
    assert rational * rational * radicand == Fraction(1, 6)
    assert closed_form_square_check((3,), [Fraction(1, 2)]) == "holds"


def test_square_check_multimode_and_permutations():
    n = (2, 0, 3)
    q = [Fraction(1, 3), Fraction(-1, 2), Fraction(2, 5)]
    assert closed_form_square_check(n, q) == "holds"
    for perm in itertools.permutations(range(3)):
        permuted_n = tuple(n[i] for i in perm)
        permuted_q = [q[i] for i in perm]
        assert closed_form_square_check(permuted_n, permuted_q) == "holds"


def test_square_check_validation():
    with pytest.raises(ValueError):
        closed_form_square_check((1, 2), [Fraction(1, 2)])


# ---------------------------------------------------------------- exact vs float


def test_lmn_exact_vacuum_row_closed_form():
    q = Fraction(2, 7)
    for n in range(8):
        rational, radicand = lmn_exact(0, n, q)
        assert rational == (2 * q) ** n / math.factorial(n)
        assert radicand == math.factorial(n)


@pytest.mark.parametrize("q", [Fraction(1, 4), Fraction(-2, 3), Fraction(7, 5)])
def test_lmn_exact_matches_floating_point(q):
    # 1e-10: the float operator's alternating sums lose digits to
    # cancellation once (2q)^(m+n) dwarfs the result, e.g. m=n=12 at q=7/5
    E = lowering_series(enumerate_basis(1, 12), [float(q)]).toarray()
    P = np.diag((-1.0) ** np.arange(13))
    dt = P @ E.T @ P @ E @ P
    for m in range(0, 13, 3):
        for n in range(0, 13, 4):
            rational, radicand = lmn_exact(m, n, q)
            exact_value = float(rational) * math.sqrt(radicand)
            assert dt[m, n] == pytest.approx(exact_value, rel=1e-10, abs=1e-18)


def test_lmn_exact_validation():
    with pytest.raises(ValueError):
        lmn_exact(-1, 0, Fraction(1, 2))
