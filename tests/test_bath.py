import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from helpers import beta2_reference

from sbmlab.bath import (
    BathSpec,
    Convention,
    DiscretizationSpec,
    DiscretizedBath,
    beta0,
    beta1,
    beta2,
    discretize,
    log_prefactor,
    spectral_density,
    sum_q_squared,
)
from sbmlab.errors import AccuracyError
from sbmlab.sectors import ModelParams, polaron_factor


def make_spec(s=1.0, alpha=0.1, omega_c=1.0):
    return BathSpec(s=s, alpha=alpha, omega_c=omega_c)


# ---------------------------------------------------------------- spectral density


def test_spectral_density_at_cutoff_edge():
    spec = make_spec(s=1.0, alpha=0.1)
    assert spectral_density(spec, 1.0 - 1e-12) == pytest.approx(2 * math.pi * 0.1, rel=1e-9)


def test_spectral_density_subohmic_point():
    spec = make_spec(s=0.5, alpha=0.25)
    assert spectral_density(spec, 0.25) == pytest.approx(2 * math.pi * 0.25 * 0.5, rel=1e-14)


@pytest.mark.parametrize("omega", [0.0, -0.3, 1.0, 1.5])
def test_spectral_density_domain(omega):
    with pytest.raises(ValueError):
        spectral_density(make_spec(), omega)


@given(
    s=st.floats(0.05, 4.0),
    alpha=st.floats(0.0, 2.0),
    omega_c=st.floats(0.1, 10.0),
    x=st.floats(1e-6, 1.0 - 1e-9),
)
def test_spectral_density_power_law_oracle(s, alpha, omega_c, x):
    # independent evaluation through exp/log instead of the ** operator
    omega = x * omega_c
    spec = BathSpec(s=s, alpha=alpha, omega_c=omega_c)
    expected = 2 * math.pi * alpha * math.exp((1 - s) * math.log(omega_c) + s * math.log(omega))
    assert spectral_density(spec, omega) == pytest.approx(expected, rel=1e-10, abs=1e-300)


# ---------------------------------------------------------------- beta1


def test_beta1_superohmic_limit_value():
    # the integral at s = 2 is 1 - omega1/omega_c, not its omega1 -> 0 limit 1
    assert beta1(make_spec(s=2.0), 1e-13) == 1.0 - 1e-13


@pytest.mark.parametrize(
    "s, ratio, omega_c",
    [
        (s, ratio, omega_c)
        for s in (1.0001, 1.001, 1.01, 1.1, 1.5, 2.0, 4.0)
        for ratio in (1e-13, 1e-20, 1e-100, 1e-300)
        for omega_c in (1.0, 1.7, 1e200, 1e-200)
        if ratio * omega_c > 0.0  # omega1 a positive double
    ],
)
def test_beta1_superohmic_matches_mpmath(s, ratio, omega_c):
    # just above the ohmic boundary the integral converges slowly: at
    # s = 1.0001 and omega1 = 1e-13*omega_c it is 29.89, far from 1/(s-1)
    omega1 = ratio * omega_c
    with mpmath.workdps(50):
        exponent = mpmath.mpf(s) - 1
        exact = (1 - (mpmath.mpf(omega1) / mpmath.mpf(omega_c)) ** exponent) / exponent
        value = beta1(BathSpec(s=s, alpha=0.3, omega_c=omega_c), omega1)
        assert abs(value / exact - 1) < mpmath.mpf(10) ** -15


def test_beta1_ohmic_log():
    spec = make_spec(s=1.0, omega_c=math.e)
    assert beta1(spec, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_beta1_subohmic_point():
    assert beta1(make_spec(s=0.5), 0.25) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("omega1", [0.0, -1e-4, 1.0, 2.0])
def test_beta1_rejects_cutoff_outside_band(omega1):
    with pytest.raises(ValueError, match="infrared cutoff must satisfy 0 < omega1 < omega_c"):
        beta1(make_spec(), omega1)


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 1.5, 2.0])
def test_sum_q_squared_continuous_quadrature_oracle(s):
    spec, omega1 = BathSpec(s=s, alpha=0.37, omega_c=1.7), 0.017

    def integrand(w):
        return spectral_density(spec, w) / (math.pi * w * w)

    ref, err = quad(integrand, omega1, spec.omega_c, epsabs=0.0, epsrel=1e-12, limit=400)
    assert err < 1e-9 * abs(ref)
    assert 2 * spec.alpha * beta1(spec, omega1) == pytest.approx(ref, rel=1e-8)


def test_beta1_continuity_at_s1():
    delta = 1e-6
    mid = beta1(make_spec(s=1.0), 1e-4)
    lo = beta1(make_spec(s=1.0 - delta), 1e-4)
    hi = beta1(make_spec(s=1.0 + delta), 1e-4)
    assert lo == pytest.approx(mid, rel=1e-4)
    assert hi == pytest.approx(mid, rel=1e-4)


@given(
    s=st.floats(0.05, 4.0),
    ratio=st.floats(1e-10, 1.0 - 1e-9),
)
def test_beta1_nonnegative(s, ratio):
    assert beta1(BathSpec(s=s, alpha=0.3, omega_c=1.0), ratio) >= 0.0


def test_sum_q_squared_continuous_examples():
    def sum_q_squared_continuous(spec, omega1):
        return 2 * spec.alpha * beta1(spec, omega1)

    assert sum_q_squared_continuous(make_spec(alpha=0.0), 1e-4) == 0.0
    assert sum_q_squared_continuous(make_spec(s=2.0, alpha=0.5), 1e-13) == 1.0 - 1e-13
    nearly_empty = sum_q_squared_continuous(make_spec(s=0.5, alpha=1.0), 1.0 - 1e-13)
    assert abs(nearly_empty) < 1e-9


# ---------------------------------------------------------------- beta0 / beta2


def test_beta0_exact_reference_point():
    val = 4 * beta2_reference(Fraction(1), Fraction(2), 0)
    assert val == Fraction(243, 392)
    assert beta0(1.0, 2.0) == pytest.approx(float(val), rel=1e-15)


def test_beta0_large_lambda_limit():
    assert beta0(1.0, 1e12) == pytest.approx(9 / 8, rel=1e-9)


def test_beta0_high_precision_oracle_irrational_case():
    # s = 0.1 makes Lambda**(-s-1) irrational, so cross-check against mpmath
    with mpmath.workdps(50):
        ref = 4 * beta2_reference(mpmath.mpf(1) / 10, mpmath.mpf(2), 0)
        assert beta0(0.1, 2.0) == pytest.approx(float(ref), rel=1e-12)


def test_beta0_exact_fractional_exponent_case():
    # Lambda = 9/4 with s = 1/2 keeps every needed power rational
    x1 = Fraction(8, 27)
    x2 = Fraction(32, 243)
    expected = Fraction(25, 4) * (1 - x1) ** 3 / (Fraction(27, 8) * (1 - x2) ** 2)
    with mpmath.workdps(50):
        val = 4 * beta2_reference(mpmath.mpf(1) / 2, mpmath.mpf(9) / 4, 0)
        exact = mpmath.mpf(expected.numerator) / expected.denominator
        assert abs(val / exact - 1) < mpmath.mpf(10) ** -45
    assert beta0(0.5, 2.25) == pytest.approx(float(expected), rel=1e-13)


def test_beta2_ohmic_reference_point():
    assert beta2(1.0, 2.0, 3) == pytest.approx(float(Fraction(243, 392)), rel=1e-14)


def test_beta2_subohmic_growth_ratio():
    # geometric growth ratio tends to Lambda**(1-s)
    target = 2.0**0.9
    ratio = beta2(0.1, 2.0, 60) / beta2(0.1, 2.0, 59)
    assert ratio == pytest.approx(target, rel=1e-12)


@pytest.mark.parametrize("s,Lambda", [(0.1, 2.0), (1.0, 2.0), (2.5, 1.4)])
def test_beta2_single_mode_is_quarter_beta0(s, Lambda):
    assert beta2(s, Lambda, 0) == pytest.approx(0.25 * beta0(s, Lambda), rel=1e-15)


def test_beta2_continuity_at_s1():
    delta = 1e-6
    mid = beta2(1.0, 2.0, 12)
    assert beta2(1.0 - delta, 2.0, 12) == pytest.approx(mid, rel=1e-4)
    assert beta2(1.0 + delta, 2.0, 12) == pytest.approx(mid, rel=1e-4)


@pytest.mark.parametrize(
    "s,Lambda,N",
    [
        (Fraction(1), Fraction(2), 7),
        (Fraction(3, 2), Fraction(4), 5),
        (Fraction(3), Fraction(2), 4),
        (Fraction(1, 2), Fraction(9, 4), 6),
    ],
)
def test_beta2_exact_matches_float(s, Lambda, N):
    with mpmath.workdps(50):
        exact = beta2_reference(
            mpmath.mpf(s.numerator) / s.denominator,
            mpmath.mpf(Lambda.numerator) / Lambda.denominator,
            N,
        )
    approx = beta2(float(s), float(Lambda), N)
    assert approx == pytest.approx(float(exact), rel=1e-13)


def test_beta2_exact_affine_in_N_at_s1():
    vals = [beta2_reference(Fraction(1), Fraction(2), N) for N in range(12)]
    second = [vals[k + 2] - 2 * vals[k + 1] + vals[k] for k in range(10)]
    assert all(d == Fraction(0) for d in second)
    assert vals[1] - vals[0] == Fraction(243, 392) / 4


@given(
    s=st.floats(0.05, 3.0),
    Lambda=st.floats(1.05, 4.0),
    N=st.integers(0, 40),
)
@settings(max_examples=60)
def test_beta2_positive_and_nondecreasing(s, Lambda, N):
    # for s well above 1 the increment can fall below one ulp, so >= here;
    # strict growth is asserted in the explicit sub-ohmic test
    lo = beta2(s, Lambda, N)
    hi = beta2(s, Lambda, N + 1)
    assert lo > 0
    assert hi >= lo


# ---------------------------------------------------------------- discretization


def test_discretize_invariants():
    spec = make_spec(s=0.7, alpha=0.3)
    bath = discretize(spec, DiscretizationSpec(Lambda=2.0, N=8))
    assert bath.mode_count == 9
    assert all(a > b for a, b in zip(bath.omega, bath.omega[1:]))
    assert all(q == l / w for q, l, w in zip(bath.q, bath.lam, bath.omega))


@pytest.mark.parametrize("s", [0.1, 1.0, 2.0])
@pytest.mark.parametrize("Lambda", [1.5, 2.0, 3.0])
def test_modesum_matches_beta2_closed_form(s, Lambda):
    alpha = 0.23
    spec = make_spec(s=s, alpha=alpha)
    bath = discretize(spec, DiscretizationSpec(Lambda=Lambda, N=50))
    target = 2 * alpha * beta2(s, Lambda, 50)
    assert sum_q_squared(bath) == pytest.approx(target, rel=1e-10)


def test_discretize_zero_coupling():
    spec = make_spec(alpha=0.0)
    bath = discretize(spec, DiscretizationSpec(Lambda=2.0, N=4))
    assert bath.lam == (0.0,) * 5
    assert bath.q == (0.0,) * 5
    assert log_prefactor(bath) == 0.0


def test_conventions_differ_by_factor_two_in_q():
    spec = make_spec(s=0.8, alpha=0.4)
    quarter = discretize(spec, DiscretizationSpec(2.0, 6, Convention.PAPER_QUARTER))
    mean = discretize(spec, DiscretizationSpec(2.0, 6, Convention.MEAN_OMEGA))
    assert mean.omega == quarter.omega
    assert all(qm == 2.0 * qq for qm, qq in zip(mean.q, quarter.q))


def test_bin_integrals_against_quadrature():
    spec = make_spec(s=0.7, alpha=0.31, omega_c=1.3)
    disc = DiscretizationSpec(Lambda=2.5, N=6, convention=Convention.MEAN_OMEGA)
    bath = discretize(spec, disc)
    for k in range(disc.N + 1):
        hi = spec.omega_c * disc.Lambda ** (-k)
        lo = spec.omega_c * disc.Lambda ** (-(k + 1))
        j_int, _ = quad(lambda w: spectral_density(spec, w), lo, hi, epsrel=1e-13)
        wj_int, _ = quad(lambda w: w * spectral_density(spec, w), lo, hi, epsrel=1e-13)
        assert bath.lam[k] ** 2 == pytest.approx(j_int / math.pi, rel=1e-10)
        assert bath.omega[k] == pytest.approx(wj_int / j_int, rel=1e-10)


def test_mean_omega_tracks_continuum_integral():
    # with a fine grid the mean-omega mode sum approaches 2*alpha*beta1; at
    # s 1.01 and 1.001 the lower edge is 6.9e-14*omega_c, where the integral
    # (2*alpha*beta1 15.68 and 17.91) is still far below its omega1 -> 0 limit
    alpha = 0.3
    for s, Lambda, N in [(1.5, 1.05, 300), (1.01, 1.05, 620), (1.001, 1.05, 620)]:
        spec = BathSpec(s=s, alpha=alpha, omega_c=1.0)
        bath = discretize(spec, DiscretizationSpec(Lambda, N, Convention.MEAN_OMEGA))
        continuum = 2 * alpha * beta1(spec, Lambda ** (-(N + 1)))  # the grid's lower edge
        assert sum_q_squared(bath) == pytest.approx(continuum, rel=0.02), s


def test_divergence_for_small_s_and_convergence_above_one():
    increasing = [beta2(0.5, 2.0, N) for N in range(31)]
    assert all(b > a for a, b in zip(increasing, increasing[1:]))
    assert beta2(0.5, 2.0, 300) > 1e3 * beta2(0.5, 2.0, 10)
    # super-ohmic tail is Cauchy
    assert abs(beta2(1.5, 2.0, 81) - beta2(1.5, 2.0, 80)) < 1e-8


# ---------------------------------------------------------------- prefactor


def test_prefactor_trivial_points():
    silent = DiscretizedBath.from_modes((1.0, 0.5), (0.0, 0.0))
    assert log_prefactor(silent) == 0.0
    single = DiscretizedBath.from_modes((1.0,), (1.0,))
    assert log_prefactor(single) == -2.0


def test_prefactor_decreasing_in_mode_count():
    spec = make_spec(s=0.1, alpha=0.1)
    values = [log_prefactor(discretize(spec, DiscretizationSpec(2.0, N))) for N in range(12)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[0] < 0.0


@given(
    s=st.floats(0.05, 3.0),
    alpha=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
    N=st.integers(0, 12),
)
@settings(max_examples=40)
def test_prefactor_in_unit_interval(s, alpha, N):
    # exp(-2 sum q**2) in (0, 1] is log_prefactor <= 0, and 1 iff alpha = 0
    bath = discretize(make_spec(s=s, alpha=alpha), DiscretizationSpec(2.0, N))
    value = log_prefactor(bath)
    if alpha == 0.0:
        assert value == 0.0
    else:
        assert value < 0.0


@pytest.mark.parametrize("s,alpha,N", [(0.5, 0.2, 3), (0.1, 0.3, 11), (1.0, 1e-6, 0), (3.0, 1.0, 12)])
def test_prefactor_in_double_range_is_the_float_exp(s, alpha, N):
    bath = discretize(make_spec(s=s, alpha=alpha), DiscretizationSpec(2.0, N))
    p = polaron_factor(bath, ModelParams(delta=0.5))
    assert p >= sys.float_info.min
    assert p.hex() == math.exp(-2.0 * sum_q_squared(bath)).hex()


def test_prefactor_below_double_range_matches_mpmath():
    # sum q**2 = 400.76 here: exp(-2 sum q**2) is 8e-349, which a double flushes to 0
    bath = discretize(make_spec(s=0.125, alpha=1.0), DiscretizationSpec(2.0, 10))
    total = sum_q_squared(bath)
    assert total == pytest.approx(400.76, abs=0.005)
    assert log_prefactor(bath) == -2.0 * total
    assert math.exp(log_prefactor(bath)) == 0.0
    with mpmath.workdps(50):
        exact = mpmath.log10(mpmath.exp(-2 * mpmath.mpf(total)))
        assert abs(log_prefactor(bath) / math.log(10) / exact - 1) < 1e-15
    assert float(exact) == pytest.approx(-348.10, abs=0.005)
    with pytest.raises(AccuracyError, match=r"10\^-348.10 is below the normal double range"):
        polaron_factor(bath, ModelParams(delta=0.5))


def test_prefactor_subnormal_double_is_not_returned():
    # exp(-710) is a subnormal double with about 13 significant bits missing
    bath = DiscretizedBath.from_modes((1.0,), (math.sqrt(355.0),))
    assert log_prefactor(bath) == pytest.approx(-710.0, rel=1e-15)
    assert 0.0 < math.exp(log_prefactor(bath)) < sys.float_info.min
    with pytest.raises(AccuracyError, match=r"exp\(-710\)"):
        polaron_factor(bath, ModelParams(delta=0.5))


def test_prefactor_without_finite_exponent_raises():
    # |log_prefactor| = 2e18 and 8e18 are finite logs whose factor is 0.0;
    # an infinite or NaN q cannot reach the factor, since the bath refuses it
    for q in (1e9, 2e9):
        bath = DiscretizedBath.from_modes((1.0,), (q,))
        with pytest.raises(AccuracyError):
            polaron_factor(bath, ModelParams(delta=0.5))
    assert log_prefactor(DiscretizedBath.from_modes((1.0,), (2e9,))) == -8e18
    for q in (math.inf, math.nan):
        with pytest.raises(ValueError, match="mode 0 is not finite"):
            DiscretizedBath.from_modes((1.0,), (q,))


# ---------------------------------------------------------------- validation


def test_bathspec_validation():
    with pytest.raises(ValueError):
        BathSpec(s=0.0, alpha=0.1, omega_c=1.0)
    with pytest.raises(ValueError):
        BathSpec(s=1.0, alpha=-0.1, omega_c=1.0)
    with pytest.raises(ValueError):
        BathSpec(s=1.0, alpha=0.1, omega_c=0.0)


def test_discretization_spec_validation():
    with pytest.raises(ValueError):
        DiscretizationSpec(Lambda=1.0, N=3)
    with pytest.raises(ValueError):
        DiscretizationSpec(Lambda=2.0, N=-1)


def test_discretized_bath_validation():
    with pytest.raises(ValueError):
        DiscretizedBath(omega=(1.0, 2.0), lam=(0.1, 0.1))
    with pytest.raises(ValueError):
        DiscretizedBath(omega=(), lam=())
    with pytest.raises(ValueError):
        DiscretizedBath(omega=(1.0, -0.5), lam=(0.1, 0.1))
    with pytest.raises(ValueError, match="omega and lam must have equal length"):
        DiscretizedBath.from_modes((1.0, 0.5), (0.1,))


def test_discretized_bath_refuses_a_mode_outside_the_double_range():
    # checked before the frequency order, so an infinite omega_0 is named as
    # such and not as a break in the order
    for omega, lam, k in [
        ((2.0, math.inf), (0.1, 0.1), 1),
        ((math.nan, 1.0), (0.1, 0.1), 0),
        ((2.0, 1.0), (0.1, -math.inf), 1),
    ]:
        with pytest.raises(ValueError, match=f"mode {k} is not finite"):
            DiscretizedBath.from_modes(omega, lam)
    # near the top of the parser's omega_c range discretize itself overflows:
    # omega_0 at omega_c 1.7e308, lambda_k at omega_c 1e303 with alpha 1e12
    for omega_c, alpha, N in [(1.7e308, 0.1, 0), (1.7e308, 0.1, 2), (1e303, 1e12, 2)]:
        with pytest.raises(ValueError, match="mode 0 is not finite"):
            discretize(BathSpec(0.5, alpha, omega_c), DiscretizationSpec(2.0, N))
