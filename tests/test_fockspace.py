import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmlab.bath import DiscretizedBath, prefactor
from sbmlab.errors import AccuracyError, CapacityError
from sbmlab.fockspace import (
    _TABLE_ROW_BLOCK,
    dmn,
    dmn_table,
    d0n_closed,
    displacement_matrix,
    enumerate_basis,
    lmn_single,
    lmn_table,
    parity_phase,
)


def single_mode(q, omega=1.0):
    return DiscretizedBath.from_modes((omega,), (q * omega,))


# ---------------------------------------------------------------- enumeration


def test_enumerate_one_mode():
    basis = enumerate_basis(1, 3)
    assert basis.dim == 4
    assert list(basis) == [(0,), (1,), (2,), (3,)]


def test_enumerate_two_modes_graded_lex():
    basis = enumerate_basis(2, 2)
    assert basis.dim == math.comb(4, 2) == 6
    assert list(basis) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_enumerate_vacuum_only():
    basis = enumerate_basis(3, 0)
    assert basis.dim == 1
    assert basis.multi_index_of(0) == (0, 0, 0)


@given(mode_count=st.integers(1, 4), n_max=st.integers(0, 6))
@settings(max_examples=30)
def test_enumeration_is_a_graded_lex_bijection(mode_count, n_max):
    basis = enumerate_basis(mode_count, n_max)
    assert basis.dim == math.comb(n_max + mode_count, mode_count)
    states = list(basis)
    assert len(set(states)) == basis.dim
    for i, state in enumerate(states):
        assert basis.index_of(state) == i
        assert basis.multi_index_of(i) == state
    keys = [(sum(s), s) for s in states]
    assert keys == sorted(keys)


def test_enumeration_capacity_and_validation():
    with pytest.raises(CapacityError):
        enumerate_basis(8, 60)
    with pytest.raises(CapacityError):
        enumerate_basis(1, 61)
    with pytest.raises(ValueError):
        enumerate_basis(0, 3)
    with pytest.raises(ValueError):
        enumerate_basis(1, -1)
    with pytest.raises(ValueError):
        enumerate_basis(1, 3).index_of((5,))
    with pytest.raises(ValueError):
        enumerate_basis(1, 3).multi_index_of(4)


# ---------------------------------------------------------------- lmn_single


@pytest.mark.parametrize("q", [-1.3, 0.0, 0.2, 1.7])
def test_lmn_vacuum_element(q):
    assert lmn_single(0, 0, q) == 1.0


@pytest.mark.parametrize("n", range(9))
def test_lmn_first_row_closed_form(n):
    q = 0.37
    expected = (2 * q) ** n / math.sqrt(math.factorial(n))
    assert lmn_single(0, n, q) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("q", [-0.8, 0.1, 0.5, 1.2])
def test_lmn_one_one(q):
    assert lmn_single(1, 1, q) == pytest.approx(4 * q * q - 1, rel=1e-13, abs=1e-14)


def test_lmn_zero_displacement_is_signed_kronecker():
    # at q=0 only the j=min(m,n) term of a diagonal element survives,
    # carrying the boson-parity sign (-1)**n
    for m in range(6):
        for n in range(6):
            expected = float((-1) ** n) if m == n else 0.0
            assert lmn_single(m, n, 0.0) == expected


@given(
    m=st.integers(0, 12),
    n=st.integers(0, 12),
    q=st.floats(-2.0, 2.0),
)
@settings(max_examples=80)
def test_lmn_symmetry_and_reflection(m, n, q):
    val = lmn_single(m, n, q)
    assert lmn_single(n, m, q) == val
    mirrored = lmn_single(m, n, -q)
    assert mirrored == pytest.approx((-1.0) ** (m + n) * val, rel=1e-12, abs=1e-12)


def test_lmn_log_path_against_exact_rational_sum():
    # m+n > 30 exercises the log-gamma branch; rebuild the sum with
    # Fraction coefficients and a single float square root
    m, n, q = 20, 12, 0.73
    x = Fraction(2 * 73, 100)
    acc = Fraction(0)
    for j in range(min(m, n) + 1):
        num = (-1) ** j * x ** (m + n - 2 * j)
        den = (
            math.factorial(m - j) * math.factorial(n - j) * math.factorial(j)
        )
        acc += Fraction(num, den)
    expected = float(acc) * math.sqrt(math.factorial(m) * math.factorial(n))
    assert lmn_single(m, n, q) == pytest.approx(expected, rel=1e-10)


def test_lmn_validation():
    with pytest.raises(ValueError):
        lmn_single(-1, 0, 0.5)
    with pytest.raises(CapacityError):
        lmn_single(61, 0, 0.5)


def test_lmn_table_matches_singles():
    q = 0.44
    table = lmn_table(q, 7)
    for m in range(7):
        for n in range(7):
            assert table[m, n] == lmn_single(m, n, q)


# ---------------------------------------------------------------- dmn / d0n


def test_dmn_zero_coupling_is_signed_diagonal():
    bath = DiscretizedBath.from_modes((1.0, 0.5), (0.0, 0.0))
    basis = enumerate_basis(2, 3)
    for m in basis:
        for n in basis:
            expected = float(parity_phase(n)) if m == n else 0.0
            assert dmn(bath, m, n) == expected


def test_dmn_single_mode_vacuum():
    q = 0.63
    assert dmn(single_mode(q), (0,), (0,)) == pytest.approx(
        math.exp(-2 * q * q), rel=1e-14
    )


def test_dmn_single_mode_node():
    # 4q^2 - 1 vanishes at q = 1/2
    assert dmn(single_mode(0.5), (1,), (1,)) == 0.0


def test_dmn_symmetric_on_small_enumeration():
    bath = DiscretizedBath.from_modes((1.0, 0.4, 0.16), (0.45, 0.3, 0.05))
    basis = enumerate_basis(3, 7)  # dim 120 <= 200
    table = dmn_table(bath, basis)
    assert np.array_equal(table, table.T)


def test_dmn_table_matches_pairwise_values():
    bath = DiscretizedBath.from_modes((1.0, 0.3), (0.52, 0.21))
    basis = enumerate_basis(2, 4)
    table = dmn_table(bath, basis)
    for i, m in enumerate(basis):
        for j, n in enumerate(basis):
            assert table[i, j] == pytest.approx(dmn(bath, m, n), rel=1e-12, abs=1e-15)


def whole_matrix_dmn_table(bath, basis):
    """Reference D: one dim x dim product, mode by mode in the same order."""
    occ = basis.occupation_array()
    out = np.full((basis.dim, basis.dim), prefactor(bath))
    for k, qk in enumerate(bath.q):
        table = lmn_table(qk, basis.n_max + 1)
        out *= table[occ[:, k][:, None], occ[:, k][None, :]]
    return out


@pytest.mark.parametrize(
    "omegas,lams,n_max",
    [
        ((1.0,), (0.7,), 40),  # dim 41, one partial block
        ((1.0, 0.5, 0.25), (0.45, 0.15, 0.1), 7),  # dim 120
        ((1.0, 0.5, 0.25, 0.125), (0.52, 0.21, 0.1, 0.04), 8),  # dim 495
        ((1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125), (0.3,) * 6, 5),  # dim 462
    ],
)
def test_dmn_table_row_blocks_equal_whole_matrix_product(omegas, lams, n_max):
    bath = DiscretizedBath.from_modes(omegas, lams)
    basis = enumerate_basis(len(omegas), n_max)
    assert basis.dim % _TABLE_ROW_BLOCK != 0
    assert np.array_equal(dmn_table(bath, basis), whole_matrix_dmn_table(bath, basis))


def test_dmn_validation():
    with pytest.raises(ValueError):
        dmn(single_mode(0.3), (0, 0), (0,))
    with pytest.raises(ValueError):
        dmn(single_mode(0.3), (-1,), (0,))
    with pytest.raises(ValueError):
        dmn_table(single_mode(0.3), enumerate_basis(2, 2))


def test_d0n_vacuum_is_prefactor():
    bath = DiscretizedBath.from_modes((1.0, 0.5), (0.3, 0.25))
    assert d0n_closed(bath, (0, 0)) == prefactor(bath)


def test_d0n_reference_value():
    bath = single_mode(1.0)
    assert d0n_closed(bath, (2,)) == pytest.approx(
        math.exp(-2) * 4 / math.sqrt(2), rel=1e-14
    )
    assert d0n_closed(bath, (2,)) == pytest.approx(0.38282, rel=1e-4)


def test_d0n_silent_mode_occupied():
    bath = DiscretizedBath.from_modes((1.0, 0.5), (0.3, 0.0))
    assert d0n_closed(bath, (0, 1)) == 0.0
    assert dmn(bath, (0, 0), (0, 1)) == 0.0


@given(
    q1=st.floats(-1.5, 1.5),
    q2=st.floats(-1.5, 1.5),
    data=st.data(),
)
@settings(max_examples=60)
def test_d0n_matches_dmn_row(q1, q2, data):
    bath = DiscretizedBath.from_modes((1.0, 0.5), (q1 * 1.0, q2 * 0.5))
    basis = enumerate_basis(2, 6)
    n = data.draw(st.sampled_from(basis.states))
    zero = (0, 0)
    assert d0n_closed(bath, n) == pytest.approx(
        dmn(bath, zero, n), rel=1e-12, abs=1e-250
    )


# ---------------------------------------------------------------- displacement matrix


def test_displacement_identity_at_zero():
    assert np.array_equal(displacement_matrix(0.0, 9), np.eye(9))


def test_displacement_vacuum_overlap():
    q = 0.8
    block = displacement_matrix(q, 20, buffer=20, checked_columns=1)
    assert block[0, 0] == pytest.approx(math.exp(-q * q / 2), rel=1e-10)


def test_displacement_columns_orthonormal():
    block = displacement_matrix(0.5, 16, checked_columns=6)
    gram = block[:, :6].T @ block[:, :6]
    assert np.abs(gram - np.eye(6)).max() < 1e-8


def test_displacement_transpose_is_inverse_displacement():
    fwd = displacement_matrix(0.7, 24)
    bwd = displacement_matrix(-0.7, 24)
    assert np.abs(fwd[:10, :10].T - bwd[:10, :10]).max() < 1e-12


def test_displacement_leakage_is_reported():
    with pytest.raises(AccuracyError):
        displacement_matrix(1.5, 8, checked_columns=8)


def test_displacement_validation():
    with pytest.raises(ValueError):
        displacement_matrix(0.5, 0)
    with pytest.raises(ValueError):
        displacement_matrix(0.5, 4, buffer=-1)
    with pytest.raises(ValueError):
        displacement_matrix(0.5, 4, checked_columns=9)


# ---------------------------------------------------------------- oracle identities


@pytest.mark.parametrize("q", [0.25, 0.6, 1.0])
def test_parity_sandwich_oracle(q):
    # displaced parity overlap as D(q) (-1)^p D(q)^T in the number basis
    top = 10
    big = top + 31
    bath = single_mode(q)
    block = displacement_matrix(q, big, checked_columns=top + 1)
    sandwich = block @ np.diag((-1.0) ** np.arange(big)) @ block.T
    for m in range(top + 1):
        for n in range(top + 1):
            assert sandwich[m, n] == pytest.approx(
                dmn(bath, (m,), (n,)), rel=1e-8, abs=1e-8
            )


@pytest.mark.parametrize("q", [0.3, 0.85])
def test_double_displacement_oracle(q):
    # equivalent route: D_{m,n} = (-1)^n <m|exp(2q(a'-a))|n>
    top = 10
    big = top + 41
    bath = single_mode(q)
    block = displacement_matrix(2 * q, big, checked_columns=top + 1)
    for m in range(top + 1):
        for n in range(top + 1):
            expected = (-1.0) ** n * block[m, n]
            assert dmn(bath, (m,), (n,)) == pytest.approx(expected, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------- parity phase


def test_parity_phase_examples():
    assert parity_phase((0, 0, 0)) == 1
    assert parity_phase((1, 0, 2)) == -1
    assert parity_phase((1, 1)) == 1


@given(
    m=st.lists(st.integers(0, 9), min_size=1, max_size=5),
    n=st.lists(st.integers(0, 9), min_size=1, max_size=5),
)
@settings(max_examples=40)
def test_parity_phase_multiplicative(m, n):
    size = min(len(m), len(n))
    m, n = tuple(m[:size]), tuple(n[:size])
    combined = tuple(a + b for a, b in zip(m, n))
    assert parity_phase(combined) == parity_phase(m) * parity_phase(n)
