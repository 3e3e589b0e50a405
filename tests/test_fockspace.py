import hashlib
import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    basis_states,
    displaced_parity_dense,
    displacement_matrix,
    lmn_exact,
    lowering_series_reference,
    parity_phase,
)

from sbmlab.bath import BathSpec, DiscretizationSpec, DiscretizedBath, discretize
from sbmlab.errors import AccuracyError, CapacityError
from sbmlab.fockspace import (
    MAX_OPERATOR_BYTES,
    N_MAX_CAP,
    BasisEnumeration,
    enumerate_basis,
    lowering_series,
)
from sbmlab.sectors import DisplacedParity, ModelParams, Sector, assemble_sector, solve_sectors


def dense_dt(q, basis):
    """Dt = P E' P E P in dense matrices, P = diag((-1)**|n|)."""
    E = lowering_series(basis, q).toarray()
    P = np.diag([float(parity_phase(n)) for n in basis_states(basis)])
    return P @ E.T @ P @ E @ P


def single_mode(q, omega=1.0):
    return DiscretizedBath.from_modes((omega,), (q * omega,))


def single_mode_dt(q, n_max):
    return dense_dt([q], enumerate_basis(1, n_max))


def compositions(total, parts):
    """All length-`parts` tuples of nonnegative ints summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def graded_lex(mode_count, n_max):
    """The graded-lex order built recursively, a reference independent of rank."""
    return [state for total in range(n_max + 1) for state in compositions(total, mode_count)]


def exact_l(m, n, q):
    """L_{m,n}(q) from exact rational arithmetic, rounded once."""
    rational, radicand = lmn_exact(m, n, Fraction(q))
    return float(rational) * math.sqrt(radicand)


# ---------------------------------------------------------------- enumeration


def test_enumerate_one_mode():
    basis = enumerate_basis(1, 3)
    assert basis.dim == 4
    assert basis_states(basis) == [(0,), (1,), (2,), (3,)]


def test_enumerate_two_modes_graded_lex():
    basis = enumerate_basis(2, 2)
    assert basis.dim == math.comb(4, 2) == 6
    assert basis_states(basis) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_enumerate_vacuum_only():
    basis = enumerate_basis(3, 0)
    assert basis.dim == 1
    assert basis.occupations.tolist() == [[0, 0, 0]]


@given(mode_count=st.integers(1, 4), n_max=st.integers(0, 6))
@settings(max_examples=30)
def test_enumeration_is_a_graded_lex_bijection(mode_count, n_max):
    basis = enumerate_basis(mode_count, n_max)
    assert basis.dim == math.comb(n_max + mode_count, mode_count)
    states = basis_states(basis)
    assert len(set(states)) == basis.dim
    keys = [(sum(s), s) for s in states]
    assert keys == sorted(keys)


def test_occupation_bytes_count_toward_the_operator_cap(monkeypatch):
    # 40 modes at n_max 1: dim 41, 8 * 41 * 40 = 13120 bytes of int64 occupations
    import sbmlab.fockspace

    monkeypatch.setattr(sbmlab.fockspace, "MAX_OPERATOR_BYTES", 13120)
    assert BasisEnumeration(40, 1).occupations.nbytes == 13120
    monkeypatch.setattr(sbmlab.fockspace, "MAX_OPERATOR_BYTES", 13119)
    with pytest.raises(CapacityError, match="takes 13120 bytes"):
        BasisEnumeration(40, 1)


def test_enumeration_capacity_and_validation():
    with pytest.raises(CapacityError):
        enumerate_basis(8, 60)
    with pytest.raises(CapacityError):
        enumerate_basis(1, 61)
    with pytest.raises(ValueError):
        enumerate_basis(0, 3)
    with pytest.raises(ValueError):
        enumerate_basis(1, -1)


def test_basis_arrays_are_read_only():
    basis = enumerate_basis(2, 3)
    with pytest.raises(ValueError):
        basis.occupations[1, 0] = 5
    with pytest.raises(ValueError):
        basis.parity[0] = -1.0


@given(mode_count=st.integers(1, 6), n_max=st.integers(0, 6))
@settings(max_examples=30)
def test_rank_is_the_enumeration_index(mode_count, n_max):
    states = graded_lex(mode_count, n_max)
    basis = enumerate_basis(mode_count, n_max)
    assert basis_states(basis) == states
    occ = np.array(states, dtype=np.int64).reshape(len(states), mode_count)
    assert np.array_equal(basis.occupations, occ)


def assert_raising_is_the_brute_force_raise(basis):
    """Every raising(k) against n + e_k looked up row by row in the occupation array.

    The rows are distinct (the order tests check that), so matching the
    raised rows pins every map entry; -1 must sit exactly on total n_max.
    """
    occ = basis.occupations
    full = occ.sum(axis=1) == basis.n_max
    for k in range(basis.mode_count):
        raised = basis.raising(k)
        assert raised.dtype == np.int32
        assert np.array_equal(raised < 0, full)
        expected = occ[~full].copy()
        expected[:, k] += 1
        assert np.array_equal(occ[raised[~full]], expected)


def test_rank_at_thirty_modes():
    # a base-(n_max + 1) key would need 5**30 > 2**63 here
    states = graded_lex(30, 4)
    basis = BasisEnumeration(30, 4)
    assert np.array_equal(basis.occupations, np.array(states))
    assert_raising_is_the_brute_force_raise(basis)


def test_ladder_maps_at_a_thousand_modes():
    # graded lex at n_max 1: the vacuum, then e_999, e_998, ..., e_0
    basis = BasisEnumeration(1000, 1)
    expected = np.vstack((np.zeros(1000, dtype=np.int64), np.eye(1000, dtype=np.int64)[::-1]))
    assert np.array_equal(basis.occupations, expected)
    started = time.perf_counter()
    basis.raising(0)
    assert time.perf_counter() - started < 1.0
    assert_raising_is_the_brute_force_raise(basis)


def test_enumeration_at_four_thousand_modes():
    # the rows are generated in order, one column per mode: a copy of the
    # whole 128 MB state array per mode, or a sort of it, would take seconds
    started = time.perf_counter()
    basis = BasisEnumeration(4000, 1)
    assert time.perf_counter() - started < 2.0
    # graded lex at n_max 1: the vacuum, then e_3999, e_3998, ..., e_0
    rows, cols = np.nonzero(basis.occupations)
    assert np.array_equal(rows, np.arange(1, 4001))
    assert np.array_equal(cols, np.arange(3999, -1, -1))
    assert basis.occupations.sum() == 4000


# sha256 of occupations.tobytes() and of every raising(k).tobytes() in
# mode order, taken from the closed-form graded-lex rank, a construction of
# the order independent of the sort
ORDER_SHA256 = {
    (6, 5): (
        "d480b4c024541959d1e3388620c918345f0d6466de6f2a29cdd333d87136d66d",
        "f6bd2878007d4e4ab618f0202993cc3fa03f5509ae340c11c5037aac2a250f6b",
    ),
    (8, 6): (
        "ef01cda17092d272d30e5cf07680c205c06d4ed0d9afef6f421b2cb951e3f4b1",
        "74df9d11b19db86a843c71377348bff4a04a1be3eb4b06bfa7174165802d938d",
    ),
    (13, 4): (
        "6d1c13727428d9e3b1c28a88410f637590c23fd35fd2d9d37496aea299112d6b",
        "986a6572b88dd94093e3e1f53ba2db139d3adb938944e4034dcbbc5843bb6ecd",
    ),
}


@pytest.mark.parametrize("mode_count, n_max", sorted(ORDER_SHA256))
def test_order_and_ladder_maps_keep_their_bytes(mode_count, n_max):
    # the order is an on-disk format: a change shows here before in any CSV
    basis = BasisEnumeration(mode_count, n_max)
    maps = b"".join(basis.raising(k).tobytes() for k in range(mode_count))
    assert (
        hashlib.sha256(basis.occupations.tobytes()).hexdigest(),
        hashlib.sha256(maps).hexdigest(),
    ) == ORDER_SHA256[mode_count, n_max]


@pytest.mark.parametrize("mode_count, n_max", sorted(ORDER_SHA256))
def test_totals_are_the_read_only_row_sums(mode_count, n_max):
    basis = BasisEnumeration(mode_count, n_max)
    assert np.array_equal(basis.totals, basis.occupations.sum(axis=1))
    assert np.array_equal(basis.parity, (-1.0) ** basis.totals)
    with pytest.raises(ValueError):
        basis.totals[0] = 1


@given(mode_count=st.integers(1, 4), n_max=st.integers(0, 5))
@settings(max_examples=30)
def test_raising_and_parity_match_the_states(mode_count, n_max):
    basis = enumerate_basis(mode_count, n_max)
    states = basis_states(basis)
    index = {state: i for i, state in enumerate(states)}
    for k in range(mode_count):
        raised = [index.get(s[:k] + (s[k] + 1,) + s[k + 1 :], -1) for s in states]
        assert basis.raising(k).tolist() == raised
    assert basis.parity.tolist() == [float(parity_phase(s)) for s in states]
    with pytest.raises(ValueError):
        basis.raising(mode_count)


# ---------------------------------------------------------------- L_{m,n}: one-mode Dt


@pytest.mark.parametrize("q", [-1.3, 0.0, 0.2, 1.7])
def test_lmn_vacuum_element(q):
    assert single_mode_dt(q, 4)[0, 0] == 1.0


@pytest.mark.parametrize("n", range(9))
def test_lmn_first_row_closed_form(n):
    q = 0.37
    expected = (2 * q) ** n / math.sqrt(math.factorial(n))
    assert single_mode_dt(q, 8)[0, n] == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("q", [-0.8, 0.1, 0.5, 1.2])
def test_lmn_one_one(q):
    assert single_mode_dt(q, 3)[1, 1] == pytest.approx(4 * q * q - 1, rel=1e-13, abs=1e-14)


def test_lmn_zero_displacement_is_signed_kronecker():
    # at q = 0 the lowering series is the identity, so Dt is the boson
    # parity (-1)**n on the diagonal
    expected = np.diag((-1.0) ** np.arange(6))
    assert np.array_equal(single_mode_dt(0.0, 5), expected)


@given(q=st.floats(-2.0, 2.0))
@settings(max_examples=80)
def test_lmn_symmetry_and_reflection(q):
    forward = single_mode_dt(q, 12)
    assert np.array_equal(forward, forward.T)
    occupation = np.arange(13)
    signs = (-1.0) ** (occupation[:, None] + occupation[None, :])
    assert single_mode_dt(-q, 12) == pytest.approx(signs * forward, rel=1e-12, abs=1e-12)


def test_lmn_high_occupation_against_exact_rational_sum():
    # m + n = 32: a 13-term alternating sum
    m, n, q = 20, 12, 0.73
    assert single_mode_dt(q, 20)[m, n] == pytest.approx(exact_l(m, n, q), rel=1e-10)


def test_dt_at_the_occupation_cap_against_exact_rational_sums():
    # the cap's error figure at q = 0.5: every entry of Dt within two of the
    # diagonal, where the worst ones sit (1.6e-9 at (55, 55)), as the solves
    # apply it, against L_{m,n} summed in rationals and rounded once.  The
    # bound is relative, so the exact zero L_{1,1}(1/2) = 0 must come out 0
    q = 0.5
    basis = enumerate_basis(1, N_MAX_CAP)
    dt = DisplacedParity(lowering_series(basis, [-q]), basis.parity)
    columns = [dt.apply(column) for column in np.eye(basis.dim)]
    for m in range(basis.dim):
        for n in range(max(0, m - 2), min(basis.dim, m + 3)):
            exact = exact_l(m, n, q)
            assert abs(columns[n][m] - exact) <= 1e-8 * abs(exact), (m, n)


def test_lmn_validation():
    # occupations above N_MAX_CAP never reach the operator
    with pytest.raises(CapacityError):
        enumerate_basis(1, N_MAX_CAP + 1)


def test_lmn_table_matches_singles():
    q = 0.44
    table = single_mode_dt(q, 6)
    for m in range(7):
        for n in range(7):
            assert table[m, n] == pytest.approx(exact_l(m, n, q), rel=1e-13, abs=1e-15)


# ---------------------------------------------------------------- D_{m,n}: several modes


def test_dmn_zero_coupling_is_signed_diagonal():
    basis = enumerate_basis(2, 3)
    expected = np.diag([float(parity_phase(n)) for n in basis_states(basis)])
    assert np.array_equal(dense_dt((0.0, 0.0), basis), expected)


def test_dmn_single_mode_vacuum():
    # the sector matrix scales Dt by the polaron factor: D_00 = exp(-2 q**2)
    q = 0.63
    matrix = assemble_sector(single_mode(q), ModelParams(-2.0), enumerate_basis(1, 0), Sector.EVEN)
    assert matrix.entries[0, 0] + q * q == pytest.approx(math.exp(-2 * q * q), rel=1e-14)


def test_dmn_single_mode_node():
    # 4q^2 - 1 vanishes at q = 1/2
    assert single_mode_dt(0.5, 4)[1, 1] == 0.0


def test_dmn_symmetric_on_small_enumeration():
    basis = enumerate_basis(3, 7)  # dim 120
    dt = dense_dt((0.45, 0.75, 0.3125), basis)
    assert np.array_equal(dt, dt.T)


def test_dmn_table_matches_pairwise_values():
    q = (0.52, 0.7)
    basis = enumerate_basis(2, 4)
    dt = dense_dt(q, basis)
    for i, m in enumerate(basis_states(basis)):
        for j, n in enumerate(basis_states(basis)):
            expected = exact_l(m[0], n[0], q[0]) * exact_l(m[1], n[1], q[1])
            assert dt[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-15)


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
    # rows of Dt from the matrix-free product, 64 at a time, are the rows of
    # the dense Dt exactly, and that is the mode-by-mode product of the
    # single-mode tables up to summation order
    q = [lam / omega for omega, lam in zip(omegas, lams)]
    basis = enumerate_basis(len(q), n_max)
    parity = np.array([float(parity_phase(n)) for n in basis_states(basis)])
    dt = DisplacedParity(lowering_series(basis, -np.asarray(q)), parity)
    dense = displaced_parity_dense(basis, q)
    unit = np.eye(basis.dim)
    for start in range(0, basis.dim, 64):
        rows = np.array([dt.apply(e) for e in unit[start : start + 64]])
        assert np.array_equal(rows, dense[start : start + 64])
    occ = basis.occupations
    whole = np.ones((basis.dim, basis.dim))
    for k, qk in enumerate(q):
        single = displaced_parity_dense(enumerate_basis(1, n_max), [qk])
        whole *= single[occ[:, k][:, None], occ[:, k][None, :]]
    assert np.abs(dense - whole).max() <= 1e-13 * np.abs(whole).max()


def test_dmn_validation():
    for mode_count, n_max in ((1, 6), (3, 4), (5, 3)):
        basis = enumerate_basis(mode_count, n_max)
        series = lowering_series(basis, [0.3] * mode_count)
        assert series.nnz == math.comb(n_max + 2 * mode_count, 2 * mode_count)
    with pytest.raises(ValueError):
        lowering_series(enumerate_basis(2, 2), [0.3])


# ---------------------------------------------------------------- E: its pattern

displacement = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(-3.0, 3.0, allow_nan=False),
)


def assert_same_csr(actual, expected):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(actual, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def assert_full_pattern(series, basis):
    # every pair of a state and a lowering that fits in it has its entry,
    # placed as at a q where no entry is 0
    generic = lowering_series(basis, np.ones(basis.mode_count))
    assert series.nnz == math.comb(basis.n_max + 2 * basis.mode_count, 2 * basis.mode_count)
    assert np.array_equal(series.indptr, generic.indptr)
    assert np.array_equal(series.indices, generic.indices)


@given(
    mode_count=st.integers(1, 6),
    n_max=st.integers(0, 6),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_lowering_series_is_the_fill_loop_bit_for_bit(mode_count, n_max, data):
    # the series written along the ladder maps gives the same CSR arrays as
    # filling every factor along its ladder map, once each row's columns
    # are sorted, for zero, negative and mixed displacements and on every
    # later call; where an entry is 0 (a q_k of +-0, or an underflowed
    # product) the series keeps it and the reference's product drops it,
    # so the two agree once both drop their zeros
    basis = enumerate_basis(mode_count, n_max)
    for _ in range(3):
        q = data.draw(st.lists(displacement, min_size=mode_count, max_size=mode_count))
        series = lowering_series(basis, q)
        reference = lowering_series_reference(basis, q)
        reference.sort_indices()
        if np.all(series.data != 0.0):
            assert_same_csr(series, reference)
            continue
        assert_full_pattern(series, basis)
        nonzero = series.copy()
        nonzero.eliminate_zeros()
        reference.eliminate_zeros()
        assert_same_csr(nonzero, reference)


@pytest.mark.parametrize("mode_count,n_max", [(2, 3), (6, 5), (8, 6)])
def test_lowering_series_pattern_does_not_depend_on_q(mode_count, n_max):
    # a zero or underflowed displacement leaves E's pattern whole, with its
    # zero entries stored, and the displaced parity built from it is still
    # P R' P R P to the bit, R the sorted fill-loop reference, which drops them
    rng = np.random.default_rng(mode_count * 100 + n_max)
    basis = enumerate_basis(mode_count, n_max)
    p = basis.parity
    generic = rng.uniform(0.05, 1.2, mode_count)
    plus_zero, minus_zero = generic.copy(), generic.copy()
    plus_zero[mode_count // 2], minus_zero[mode_count // 2] = 0.0, -0.0
    for q in (plus_zero, minus_zero, np.zeros(mode_count), generic * 1e-170):
        series = lowering_series(basis, q)
        assert_full_pattern(series, basis)
        reference = lowering_series_reference(basis, q)
        reference.sort_indices()
        dt = DisplacedParity(lowering_series(basis, -q), p)
        x = rng.standard_normal(basis.dim)
        assert np.array_equal(dt.apply(x), p * (reference.T @ (p * (reference @ (p * x)))))


def test_kept_ladder_maps_and_pattern_are_read_only():
    basis = BasisEnumeration(3, 3)
    for k in range(3):
        assert basis.raising(k).dtype == np.int32
        with pytest.raises(ValueError):
            basis.raising(k)[0] = 1
    assert np.shares_memory(basis.raising(2), basis.raising(2))
    E = lowering_series(basis, [0.4, 0.0, -0.7])
    for array in (E.data, E.indices, E.indptr):
        with pytest.raises(ValueError):
            array[0] = array[0]


@pytest.mark.parametrize("mode_count", range(1, 9))
def test_lowering_series_is_sorted_and_read_only_at_every_mode_count(mode_count):
    # every row's columns ascend, and no array of the series can be written,
    # also where the series is a product of factors and shares nothing kept
    basis = enumerate_basis(mode_count, 3)
    series = lowering_series(basis, np.linspace(0.2, 0.9, mode_count))
    starts = np.repeat(series.indptr[:-1], np.diff(series.indptr))
    first = np.arange(series.nnz) == starts
    assert np.all(first[1:] | (np.diff(series.indices) > 0))
    for array in (series.data, series.indices, series.indptr):
        with pytest.raises(ValueError):
            array[0] = array[0]


@pytest.mark.parametrize("mode_count,n_max", [(2, 3), (3, 4), (6, 5), (8, 6), (13, 4)])
def test_displaced_diagonal_writes_nothing_and_moves_no_product(mode_count, n_max):
    # diag(Dt) squares a copy of G: the series keeps its indices and data,
    # and apply gives the same bits before and after it
    rng = np.random.default_rng(mode_count * 100 + n_max)
    basis = enumerate_basis(mode_count, n_max)
    q = rng.uniform(0.05, 1.2, mode_count)
    dt = DisplacedParity(lowering_series(basis, -q), basis.parity)
    indices, data = dt.lowering.indices.copy(), dt.lowering.data.copy()
    xs = rng.standard_normal((5, basis.dim))
    before = [dt.apply(x) for x in xs]
    dt.diagonal
    assert np.array_equal(dt.lowering.indices, indices)
    assert np.array_equal(dt.lowering.data, data)
    for x, image in zip(xs, before):
        assert np.array_equal(dt.apply(x), image)


@given(
    mode_count=st.integers(1, 6),
    n_max=st.integers(0, 6),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_displaced_parity_is_p_e_p_e_p_bit_for_bit(mode_count, n_max, data):
    # G = P E P is the series at -q with every entry's sign flipped exactly,
    # and IEEE sums are sign-symmetric: G' P G x is P E' P E P x to the bit
    basis = enumerate_basis(mode_count, n_max)
    p = basis.parity
    for _ in range(3):
        q = data.draw(st.lists(displacement, min_size=mode_count, max_size=mode_count))
        E = lowering_series(basis, q)
        dt = DisplacedParity(lowering_series(basis, -np.asarray(q)), p)
        x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(basis.dim)
        assert np.array_equal(dt.apply(x), p * (E.T @ (p * (E @ (p * x)))))


def test_enumerate_basis_keeps_only_the_last_basis():
    enumerate_basis.cache_clear()
    first = enumerate_basis(3, 4)
    assert enumerate_basis(3, 4) is first
    assert enumerate_basis(2, 4) is not first
    assert enumerate_basis(3, 4) is not first
    info = enumerate_basis.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 3, 1)
    with pytest.raises(CapacityError):
        enumerate_basis(1, N_MAX_CAP + 1)
    assert enumerate_basis.cache_info().currsize == 1


def test_kept_pattern_counts_toward_the_operator_cap(monkeypatch):
    # 9 modes at n_max 12: the series (C(30, 18) = 86493225 entries, 12
    # bytes each), its int32 indptr and the 9 int32 ladder maps take
    # 1049675904 bytes, under the cap.  Only the sizes are read before the
    # check, so the 21 MiB enumeration need not exist: past the check the
    # build asks the sizes for the basis itself
    import sbmlab.fockspace

    modes, n_max = 9, 12
    dim = math.comb(n_max + modes, modes)
    entries = math.comb(n_max + 2 * modes, 2 * modes)
    count = 12 * entries + 4 * (dim + 1) + 4 * modes * dim
    assert count == 1049675904 <= MAX_OPERATOR_BYTES
    sizes = SimpleNamespace(mode_count=modes, n_max=n_max, dim=dim)
    monkeypatch.setattr(sbmlab.fockspace, "MAX_OPERATOR_BYTES", count - 1)
    with pytest.raises(CapacityError, match="indptr and ladder maps 11757204 bytes"):
        lowering_series(sizes, [0.1] * modes)
    monkeypatch.setattr(sbmlab.fockspace, "MAX_OPERATOR_BYTES", count)
    with pytest.raises(AttributeError):
        lowering_series(sizes, [0.1] * modes)


def test_underflowed_prefactor_refuses_d():
    # s = 0.125, alpha = 1, N = 10: exp(-2 sum q**2) = 8e-349 is 0.0 in double,
    # which would make D vanish and the two sectors coincide
    spec = BathSpec(s=0.125, alpha=1.0, omega_c=1.0)
    bath = discretize(spec, DiscretizationSpec(2.0, 10))
    basis = enumerate_basis(bath.mode_count, 1)
    with pytest.raises(AccuracyError):
        assemble_sector(bath, ModelParams(0.5), basis, Sector.EVEN)
    with pytest.raises(AccuracyError):
        solve_sectors(bath, ModelParams(0.5), basis.n_max)


def test_subnormal_prefactor_refuses_d():
    # exp(-710) is a subnormal double
    bath = single_mode(math.sqrt(355.0))
    with pytest.raises(AccuracyError):
        assemble_sector(bath, ModelParams(0.5), enumerate_basis(1, 2), Sector.ODD)


# ---------------------------------------------------------------- D_{0,n}: the vacuum row


def test_d0n_vacuum_is_prefactor():
    # Dt_00 = 1 exactly, so D_00 is the polaron factor itself
    assert dense_dt((0.3, 0.5), enumerate_basis(2, 3))[0, 0] == 1.0


def test_d0n_reference_value():
    assert single_mode_dt(1.0, 3)[0, 2] == pytest.approx(4 / math.sqrt(2), rel=1e-14)
    # with the polaron factor: D_02 = exp(-2) 4 / sqrt(2)
    assert math.exp(-2) * single_mode_dt(1.0, 3)[0, 2] == pytest.approx(0.38282, rel=1e-4)


def test_d0n_silent_mode_occupied():
    basis = enumerate_basis(2, 2)
    dt = dense_dt((0.3, 0.0), basis)
    index = {state: i for i, state in enumerate(basis_states(basis))}
    assert dt[0, index[(0, 1)]] == 0.0


@given(
    q1=st.floats(-1.5, 1.5),
    q2=st.floats(-1.5, 1.5),
    data=st.data(),
)
@settings(max_examples=60)
def test_d0n_matches_dmn_row(q1, q2, data):
    basis = enumerate_basis(2, 6)
    n = data.draw(st.sampled_from(basis_states(basis)))
    closed = 1.0
    for nk, qk in zip(n, (q1, q2)):
        closed *= (2.0 * qk) ** nk / math.sqrt(math.factorial(nk))
    index = {state: i for i, state in enumerate(basis_states(basis))}
    assert dense_dt((q1, q2), basis)[0, index[n]] == pytest.approx(
        closed, rel=1e-12, abs=1e-250
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
    block = displacement_matrix(q, big, checked_columns=top + 1)
    sandwich = block @ np.diag((-1.0) ** np.arange(big)) @ block.T
    d = math.exp(-2 * q * q) * single_mode_dt(q, top)
    for m in range(top + 1):
        for n in range(top + 1):
            assert sandwich[m, n] == pytest.approx(d[m, n], rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("q", [0.3, 0.85])
def test_double_displacement_oracle(q):
    # equivalent route: D_{m,n} = (-1)^n <m|exp(2q(a'-a))|n>
    top = 10
    big = top + 41
    block = displacement_matrix(2 * q, big, checked_columns=top + 1)
    d = math.exp(-2 * q * q) * single_mode_dt(q, top)
    for m in range(top + 1):
        for n in range(top + 1):
            expected = (-1.0) ** n * block[m, n]
            assert d[m, n] == pytest.approx(expected, rel=1e-10, abs=1e-12)


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
