"""Power-law spectral densities and their logarithmic discretization.

The bath is characterized by J(omega) = 2*pi*alpha*omega_c**(1-s)*omega**s
on 0 < omega < omega_c.  Two families of quantities live here:

* the continuum integral beta1 = integral of omega_c**(1-s)*omega**(s-2)
  from omega1 to omega_c, which controls the displacement sum
  sum_k q_k**2 = 2*alpha*beta1 and diverges for s <= 1 as omega1 -> 0;

* the discrete analogues beta0 and beta2(N) obtained when the interval
  (0, omega_c) is split into logarithmic bins [Lambda**-(k+1), Lambda**-k]
  * omega_c, one boson mode per bin.  beta2 grows geometrically in N for
  s < 1 and linearly for s = 1, so the discretized displacement sum
  inherits the continuum divergence.

beta0, beta1 and beta2 are evaluated in floating point.  The tests check
beta0 and beta2 against the term-by-term sum in exact rationals and in
50-digit mpmath, and beta1 against its closed form in 50-digit mpmath
for s > 1 from just above the ohmic boundary, with omega1 down to
1e-300 * omega_c.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum


class Convention(Enum):
    """Normalization of the per-bin coupling weight.

    MEAN_OMEGA sets lambda_k**2 to the full bin integral of J/pi, which
    makes the mode sum of q_k**2 track the continuum value 2*alpha*beta1.
    PAPER_QUARTER multiplies that weight by 1/4, which makes the mode sum
    equal 2*alpha*beta2 exactly.  The two q_k lists differ by a global
    factor of 2.
    """

    MEAN_OMEGA = "mean-omega"
    PAPER_QUARTER = "paper-quarter"

    @property
    def weight(self) -> float:
        return 1.0 if self is Convention.MEAN_OMEGA else 0.25


@dataclass(frozen=True)
class BathSpec:
    """Continuum bath parameters.

    s: spectral exponent (s < 1 sub-ohmic, s = 1 ohmic, s > 1 super-ohmic)
    alpha: dimensionless dissipation strength, >= 0
    omega_c: hard upper cutoff, > 0
    """

    s: float
    alpha: float
    omega_c: float

    def __post_init__(self) -> None:
        if not self.s > 0:
            raise ValueError(f"spectral exponent must be positive, got s={self.s}")
        if self.alpha < 0:
            raise ValueError(f"dissipation strength must be >= 0, got alpha={self.alpha}")
        if not self.omega_c > 0:
            raise ValueError(f"cutoff must be positive, got omega_c={self.omega_c}")


@dataclass(frozen=True)
class DiscretizationSpec:
    """Logarithmic grid: modes k = 0..N on bins [Lambda**-(k+1), Lambda**-k]*omega_c."""

    Lambda: float
    N: int
    convention: Convention = Convention.PAPER_QUARTER

    def __post_init__(self) -> None:
        if not self.Lambda > 1:
            raise ValueError(f"discretization parameter must exceed 1, got Lambda={self.Lambda}")
        if self.N < 0 or int(self.N) != self.N:
            raise ValueError(f"mode index bound must be a nonnegative integer, got N={self.N}")


@dataclass(frozen=True)
class DiscretizedBath:
    """Immutable (omega, lambda) mode lists; the displacements q derive from them.

    Every omega_k and lambda_k is finite, and the omega_k are positive and
    strictly decreasing.
    """

    omega: tuple[float, ...]
    lam: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.omega) != len(self.lam):
            raise ValueError("omega and lam must have equal length")
        if len(self.omega) == 0:
            raise ValueError("a discretized bath needs at least one mode")
        for k, (w, l) in enumerate(zip(self.omega, self.lam)):
            if not (math.isfinite(w) and math.isfinite(l)):
                raise ValueError(f"mode {k} is not finite: omega={w}, lambda={l}")
        if any(w <= 0 for w in self.omega):
            raise ValueError("all mode frequencies must be positive")
        if any(b >= a for a, b in zip(self.omega, self.omega[1:])):
            raise ValueError("mode frequencies must be strictly decreasing")

    @classmethod
    def from_modes(cls, omega: tuple[float, ...], lam: tuple[float, ...]) -> "DiscretizedBath":
        """Build a bath from (omega, lambda) pairs, each converted to float."""
        return cls(omega=tuple(float(w) for w in omega), lam=tuple(float(l) for l in lam))

    @functools.cached_property
    def q(self) -> tuple[float, ...]:
        """The displacements q_k = lambda_k / omega_k, taken once on first use."""
        return tuple(l / w for l, w in zip(self.lam, self.omega))

    @property
    def mode_count(self) -> int:
        return len(self.omega)


def spectral_density(spec: BathSpec, omega: float) -> float:
    """J(omega) = 2*pi*alpha*omega_c**(1-s)*omega**s, defined on 0 < omega < omega_c."""
    if not 0 < omega < spec.omega_c:
        raise ValueError(
            f"spectral density is defined on 0 < omega < omega_c, got omega={omega}"
        )
    return 2.0 * math.pi * spec.alpha * spec.omega_c ** (1.0 - spec.s) * omega**spec.s


def beta1(spec: BathSpec, omega1: float) -> float:
    """Infrared integral controlling the continuum displacement sum.

    Equals integral of omega_c**(1-s)*omega**(s-2) d omega over
    [omega1, omega_c], 0 < omega1 < omega_c.  Every s != 1 takes the one
    expression [1 - (omega_c/omega1)**(1-s)]/(s - 1), evaluated through
    expm1 so the s -> 1 limit ln(omega_c/omega1) is approached smoothly;
    s = 1 is that limit itself.
    """
    if not 0 < omega1 < spec.omega_c:
        raise ValueError(
            f"infrared cutoff must satisfy 0 < omega1 < omega_c, got omega1={omega1}"
        )
    s = spec.s
    log_ratio = math.log(spec.omega_c / omega1)
    if s == 1.0:
        return log_ratio
    return -math.expm1((1.0 - s) * log_ratio) / (s - 1.0)


def beta0(s: float, Lambda: float) -> float:
    """Per-bin constant (s+2)**2 (1-Lambda**(-s-1))**3 / [(s+1)**3 (1-Lambda**(-s-2))**2]."""
    if not Lambda > 1:
        raise ValueError(f"discretization parameter must exceed 1, got Lambda={Lambda}")
    if not s > 0:
        raise ValueError(f"spectral exponent must be positive, got s={s}")
    x1 = Lambda ** (-s - 1.0)
    x2 = Lambda ** (-s - 2.0)
    return (s + 2.0) ** 2 * (1.0 - x1) ** 3 / ((s + 1.0) ** 3 * (1.0 - x2) ** 2)


def beta2(s: float, Lambda: float, N: int) -> float:
    """Discrete displacement sum divided by 2*alpha under the quarter-weight convention.

    Equals (beta0/4) * sum_{k=0..N} Lambda**(k*(1-s)), i.e. a geometric sum
    that becomes (N+1) at s = 1.  The s != 1 branch is written with expm1
    so it joins the s = 1 branch continuously.
    """
    if N < 0 or int(N) != N:
        raise ValueError(f"mode index bound must be a nonnegative integer, got N={N}")
    b0 = beta0(s, Lambda)
    if s == 1.0:
        return 0.25 * b0 * (N + 1)
    u = (1.0 - s) * math.log(Lambda)
    return 0.25 * b0 * math.expm1(u * (N + 1)) / math.expm1(u)


def discretize(spec: BathSpec, disc: DiscretizationSpec) -> DiscretizedBath:
    """One boson mode per logarithmic bin.

    Bin k spans [Lambda**-(k+1), Lambda**-k]*omega_c.  The coupling weight
    is lambda_k**2 = c * integral of J over the bin / pi (c = 1 or 1/4 by
    convention) and omega_k is the J-weighted mean frequency of the bin.
    Both integrals are power laws and are evaluated in closed form:

        integral J  d omega = 2*pi*alpha*omega_c**2/(s+1)*(1-x1)*Lambda**(-k(s+1))
        integral wJ d omega = 2*pi*alpha*omega_c**3/(s+2)*(1-x2)*Lambda**(-k(s+2))

    with x1 = Lambda**(-s-1), x2 = Lambda**(-s-2).  The resulting
    displacements obey q_k**2 = 2*c*alpha*beta0*Lambda**(k(1-s)), so the
    quarter-weight convention satisfies sum q**2 = 2*alpha*beta2 exactly.
    """
    s, alpha, wc = spec.s, spec.alpha, spec.omega_c
    L = disc.Lambda
    c = disc.convention.weight
    x1 = L ** (-s - 1.0)
    x2 = L ** (-s - 2.0)
    # omega_k carries no alpha, so it stays well defined at zero coupling
    omega_scale = wc * (s + 1.0) * (1.0 - x2) / ((s + 2.0) * (1.0 - x1))
    lam_scale = wc * math.sqrt(2.0 * c * alpha * (1.0 - x1) / (s + 1.0))
    omega = []
    lam = []
    for k in range(disc.N + 1):
        omega.append(omega_scale * L ** (-float(k)))
        lam.append(lam_scale * L ** (-k * (s + 1.0) / 2.0))
    return DiscretizedBath.from_modes(tuple(omega), tuple(lam))


def sum_q_squared(bath: DiscretizedBath) -> float:
    """Total squared displacement of a discretized bath."""
    return math.fsum(x * x for x in bath.q)


def log_prefactor(bath: DiscretizedBath) -> float:
    """Natural logarithm of the polaron factor exp(-2 sum_k q_k**2); exact in double.

    The factor itself leaves the double range (math.exp of this reads 0.0
    once sum q**2 passes about 372), so it is carried as its logarithm:
    <= 0, and 0 iff all q vanish.
    """
    return -2.0 * sum_q_squared(bath)
