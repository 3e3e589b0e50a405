import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import lmn_exact

from sbmlab.errors import CapacityError
from sbmlab.fockspace import enumerate_basis, lowering_series
from sbmlab.nondegeneracy import ProofReport, constant_term_contradiction

# ---------------------------------------------------------------- case 1


@pytest.mark.parametrize("N,n_max", [(1, 4), (2, 3), (3, 4)])
def test_monomial_independence_holds(N, n_max):
    assert constant_term_contradiction(N, n_max).case1_verdict == "holds"


def test_monomial_independence_capacity_and_validation():
    with pytest.raises(CapacityError):
        constant_term_contradiction(6, 20)  # C(26,6) = 230230 monomials
    with pytest.raises(ValueError):
        constant_term_contradiction(0, 3)
    with pytest.raises(ValueError):
        constant_term_contradiction(1, 0)


class Rows:
    """A stand-in basis whose occupation array is the given rows."""

    def __init__(self, rows):
        self.occupations = np.asarray(rows, dtype=np.int64)
        self.dim = len(rows)


def test_verdicts_are_read_from_the_occupation_array(monkeypatch):
    # a basis with a repeated row breaks monomial independence, and one with
    # a second row of total 0 breaks the constant-term argument; no real
    # basis has either, so a fake one stands in
    import sbmlab.nondegeneracy

    for rows, verdicts in (
        ([[0, 0], [1, 0], [0, 1]], ("holds", "holds")),
        ([[0, 0], [1, 0], [1, 0]], ("fails", "holds")),
        ([[0, 0], [1, 0], [1, -1]], ("holds", "fails")),
        ([[0, 0], [1, 0], [0, 0]], ("fails", "fails")),
    ):
        monkeypatch.setattr(sbmlab.nondegeneracy, "enumerate_basis", lambda N, n_max: Rows(rows))
        report = constant_term_contradiction(2, 1)
        assert (report.case1_verdict, report.case2_verdict) == verdicts


def test_case1_finds_a_repeated_row_far_from_its_twin(monkeypatch):
    # case 1 compares sorted neighbours in blocks of 257 rows: a copy of row
    # 0 as row 599 of 600 lies in another block of the occupation array, and
    # the copy of every other row checks the seams between sorted blocks
    import sbmlab.nondegeneracy

    distinct = enumerate_basis(4, 9).occupations[:600]
    for twin in range(599):
        rows = distinct.copy()
        rows[-1] = rows[twin]
        monkeypatch.setattr(sbmlab.nondegeneracy, "enumerate_basis", lambda N, n_max: Rows(rows))
        assert constant_term_contradiction(4, 9).case1_verdict == "fails", twin
    monkeypatch.setattr(sbmlab.nondegeneracy, "enumerate_basis", lambda N, n_max: Rows(distinct))
    assert constant_term_contradiction(4, 9).case1_verdict == "holds"


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


def test_square_check_reference_value():
    # L_{0,3}(1/2) = (1/6) sqrt(6), so L^2 = 1/6
    rational, radicand = lmn_exact(0, 3, Fraction(1, 2))
    assert rational == Fraction(1, 6)
    assert radicand == 6
    assert rational * rational * radicand == Fraction(1, 6)


# ---------------------------------------------------------------- exact vs float


def test_lmn_exact_vacuum_row_closed_form():
    # L_{0,n} = (2q)**n / sqrt(n!), so L_{0,n}**2 = (2q)**(2n) / n!
    for q in (Fraction(2, 7), Fraction(7, 3), Fraction(-1, 2), Fraction(0)):
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
