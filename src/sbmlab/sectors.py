"""Parity-sector Hamiltonians in the displaced number basis.

At zero local field the model splits into two decoupled blocks labelled by
the parity of sigma_x together with the total boson number.  In the
displaced basis D(-q)|n> both blocks have the same diagonal,
sum_k omega_k (n_k - q_k**2), and a tunneling block proportional to the
displaced parity operator D = exp(-2 sum q**2) * Dt (fockspace):

    even block:  diag - (delta/2) D
    odd block:   diag + (delta/2) D

The odd block is represented in the boson-parity-rotated basis, under
which it differs from the even block only by the sign of the tunneling
term.  Both sectors therefore share one diagonal and one DisplacedParity,
Dt = P E' P E P from the lowering series E, and negating delta exchanges
the two matrices exactly.  The rotation also absorbs the boson parity
exp(i pi sum a'a), so the overlap <phi+|exp(i pi sum a'a)|phi-> of the
two ground states is the dot product of their coefficient vectors.
solve_sectors is the one entry point from a bath to the pair: it owns
the order of the refusals.

Every sector, whatever its size, is solved by one thick-restart Davidson
iteration that applies Dt as two sparse products; no solve forms a dense
matrix.  A solve that misses its tolerance is a SolverError, or an
AccuracyError once its search space spans the whole basis, where the
residual left is rounding.  The dense forms (SectorMatrix.entries, and
DisplacedParity.dense, the same sparse product P E' P E P made dense)
are references for tests and benchmarks only.

Because the two sectors differ only in the tunneling term, their gap
also follows from the two ground states without subtracting energies
(gap_identity), in log form, so it survives where the gap is below the
rounding of the energies or below the double range.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse

from sbmlab.bath import DiscretizedBath, log_prefactor
from sbmlab.errors import AccuracyError, SolverError
from sbmlab.fockspace import BasisEnumeration, enumerate_basis, lowering_series

# residual tolerance and iteration budget of a solve; config.SolverSettings reads them
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 500

# search-space size at which the Davidson solver restarts from its lowest
# half of Ritz vectors
_DAVIDSON_RESTART = 40

# smallest |diag - theta| the Davidson preconditioner divides by, in units of
# the solve's energy unit; on a Lambda = 2 grid boson energies coincide
# exactly, so diag - theta can be 0
_MIN_DENOMINATOR = 1e-8

# a gap below this fraction of its energy scale (the sector energies in a
# sweep, ||H||_inf in the full-space oracle) is rounding or a truncation
# pathology, not physics
GAP_FLOOR = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Spin parameters: tunneling delta and local field epsilon.

    delta = 0 is allowed (the two spin blocks then decouple) but makes the
    sector gap meaningless; epsilon must vanish for the sector
    decomposition to exist at all.
    """

    delta: float
    epsilon: float = 0.0


class Sector(Enum):
    EVEN = "even"
    ODD = "odd"

    @property
    def tunneling_sign(self) -> float:
        return -1.0 if self is Sector.EVEN else 1.0


@dataclass(frozen=True, eq=False)
class DisplacedParity:
    """Dt = P E' P E P, shared by the two sectors of a pair.

    lowering is the series E of fockspace.lowering_series and parity the
    diagonal of the boson parity P; neither is written to.
    """

    lowering: scipy.sparse.csr_array
    parity: np.ndarray

    @functools.cached_property
    def lowering_transposed(self) -> scipy.sparse.csc_array:
        """E' as a CSC view over E's own arrays, built once on first use."""
        return self.lowering.T

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Dt x as two sparse products."""
        p = self.parity
        return p * (self.lowering_transposed @ (p * (self.lowering @ (p * x))))

    @functools.cached_property
    def diagonal(self) -> np.ndarray:
        """diag(Dt) = (E o E)' P, taken once on first use: it squares a copy of E."""
        return self.lowering.power(2).T @ self.parity

    @property
    def dense(self) -> np.ndarray:
        """Dt = P E' P E P as a new dense array, a reference that no solve uses."""
        P = scipy.sparse.diags_array(self.parity)
        return (P @ self.lowering_transposed @ P @ self.lowering @ P).toarray()


@dataclass(frozen=True, eq=False)
class SectorMatrix:
    """One sector as the operator diag(diagonal) + coupling * Dt.

    diagonal and displaced_parity are shared with the other sector and
    never written to; coupling is tunneling_sign * half_delta * polaron
    factor, half_delta = delta/2.
    """

    sector: Sector
    diagonal: np.ndarray
    displaced_parity: DisplacedParity
    coupling: float
    half_delta: float

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix, a new array on every access.

        A reference for tests and benchmarks; no solve uses it.  Dt is
        scaled first and the diagonal added after.
        """
        entries = self.coupling * self.displaced_parity.dense
        entries[np.diag_indices_from(entries)] += self.diagonal
        return entries

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product without forming the dense matrix."""
        return self.diagonal * x + self.coupling * self.displaced_parity.apply(x)

    def untruncated_residual(self, dt_x: np.ndarray) -> float:
        """sigma = sqrt((delta/2)^2 - ||coupling Dt x||^2) for a unit vector x, given Dt x.

        Untruncated, coupling * Dt is tunneling_sign (delta/2) W with
        W = D(2q) P orthogonal.  The basis keeps the diagonal term and the
        part of W x inside it, so ||(H - E) x||^2 against the untruncated
        sector is ||(H_B - E) x||^2 + sigma^2: sigma is what the truncation
        drops from the residual.  Raises AccuracyError when sigma^2 is
        negative beyond rounding (below -GAP_FLOOR (delta/2)^2), where Dt
        has lost its digits.
        """
        kept = self.coupling * dt_x
        square = self.half_delta**2 - float(kept @ kept)
        if square < -GAP_FLOOR * self.half_delta**2:
            raise AccuracyError(
                f"untruncated residual of the {self.sector.value} sector has square "
                f"{square:.3e} < 0: the truncated tunneling term has lost its digits"
            )
        return math.sqrt(max(square, 0.0))


@dataclass(frozen=True, eq=False)
class GroundStateResult:
    energy: float
    coefficients: np.ndarray
    residual: float
    iterations: int
    untruncated_residual: float
    # Dt applied to coefficients, taken once for the untruncated residual
    # and read again by gap_identity
    dt_coefficients: np.ndarray


def polaron_factor(bath: DiscretizedBath, params: ModelParams) -> float:
    """The polaron factor exp(log_prefactor) as a double, which every D entry is scaled by.

    Raises ValueError unless epsilon = 0, where no sector decomposition
    exists, and then AccuracyError unless the factor is a normal double (>=
    sys.float_info.min, which also rules out NaN): a factor flushed to
    0.0, or to a subnormal with few digits left, would make the two sectors
    identical and their gap a rounding artifact.  The message names the
    factor by its log.
    """
    if params.epsilon != 0.0:
        raise ValueError(
            "sector decomposition requires epsilon = 0; "
            f"got epsilon={params.epsilon} (use the full-space oracle instead)"
        )
    log_value = log_prefactor(bath)
    value = math.exp(log_value)
    if not value >= sys.float_info.min:
        raise AccuracyError(
            f"polaron factor exp({log_value:.6g}) = 10^{log_value / math.log(10):.2f} "
            "is below the normal double range; D cannot be formed in double precision"
        )
    return value


def _sector_pair(
    bath: DiscretizedBath, params: ModelParams, enumeration: BasisEnumeration, polaron: float
) -> dict[Sector, SectorMatrix]:
    """Both sector operators over one diagonal sum omega (n - q**2) and one lowering series.

    lowering_series raises CapacityError before allocating a series over
    fockspace.MAX_OPERATOR_BYTES, and ValueError when the bath and the
    enumeration differ in mode count.
    """
    lowering = lowering_series(enumeration, bath.q)
    omega = np.asarray(bath.omega)
    q = np.asarray(bath.q)
    diagonal = enumeration.occupations @ omega - float(omega @ (q * q))
    displaced_parity = DisplacedParity(lowering, enumeration.parity)
    return {
        sector: SectorMatrix(
            sector=sector,
            diagonal=diagonal,
            displaced_parity=displaced_parity,
            coupling=sector.tunneling_sign * (params.delta / 2.0) * polaron,
            half_delta=params.delta / 2.0,
        )
        for sector in Sector
    }


def assemble_sector(
    bath: DiscretizedBath,
    params: ModelParams,
    enumeration: BasisEnumeration,
    sector: Sector,
) -> SectorMatrix:
    """diag(sum omega(n - q**2)) -+ (delta/2) D over the enumeration."""
    return _sector_pair(bath, params, enumeration, polaron_factor(bath, params))[sector]


def _davidson_lowest(
    matrix: SectorMatrix, tol: float, max_iter: int, min_denominator: float
) -> tuple[float, np.ndarray, int, float, bool]:
    """Lowest eigenpair by Davidson's method (J. Comput. Phys. 17, 87, 1975).

    Starts from the coordinate vector of the smallest diagonal entry and
    grows the search space by the residual preconditioned with
    (diag - theta)^-1, one operator application per iteration.  The
    projected matrix V H V' gains one row and column per new vector.  A
    full search space restarts thick (Stathopoulos, Saad & Wu, SIAM J. Sci.
    Comput. 19, 227, 1998): it keeps its lowest half of Ritz vectors and
    their images, so no operator application is repeated and nearly
    degenerate low eigenvalues stay resolved.  Convergence is declared, and
    a residual reported, only from an explicit ||Hx - theta x||, which is
    taken once per pair.  Returns (energy, vector, iterations, residual,
    exhausted) of the first pair within tol, or of the best pair found when
    max_iter runs out or the search space cannot grow; exhausted is True
    when the search space spans the whole basis, where the Ritz pair is
    exact up to rounding and no iteration can lower its residual.  The
    preconditioner clamps |diag - theta| below at min_denominator.
    """
    diag = matrix.diagonal + matrix.coupling * matrix.displaced_parity.diagonal
    n = diag.size
    V = np.zeros((_DAVIDSON_RESTART, n))
    HV = np.empty((_DAVIDSON_RESTART, n))
    G = np.empty((_DAVIDSON_RESTART, _DAVIDSON_RESTART))
    V[0, np.argmin(diag)] = 1.0
    HV[0] = matrix.apply(V[0])
    G[0, 0] = V[0] @ HV[0]
    size = 1
    best: tuple[float, float, np.ndarray, bool] | None = None
    for iteration in range(1, max(1, max_iter) + 1):
        vals, vecs = np.linalg.eigh(G[:size, :size])
        theta, y = float(vals[0]), vecs[:, 0]
        x = y @ V[:size]
        x /= np.linalg.norm(x)
        r = y @ HV[:size] - theta * x
        r_norm = float(np.linalg.norm(r))
        explicit = r_norm <= tol
        if explicit:
            r = matrix.apply(x) - theta * x
            r_norm = float(np.linalg.norm(r))
        if best is None or r_norm < best[0]:
            best = (r_norm, theta, x, explicit)
        if best[0] <= tol or iteration == max_iter:
            break
        if size == _DAVIDSON_RESTART:
            keep = size // 2
            V[:keep] = vecs[:, :keep].T @ V[:size]
            HV[:keep] = vecs[:, :keep].T @ HV[:size]
            G[:keep, :keep] = np.diag(vals[:keep])
            size = keep
        denominator = diag - theta
        small = np.abs(denominator) < min_denominator
        denominator[small] = np.copysign(min_denominator, denominator[small])
        t = r / denominator
        scale = np.linalg.norm(t)
        for _ in range(2):
            t -= (V[:size] @ t) @ V[:size]
        norm = np.linalg.norm(t)
        if norm <= 1e-8 * scale:
            break  # the correction lies in the search space, which cannot grow
        V[size] = t / norm
        HV[size] = matrix.apply(V[size])
        G[size, : size + 1] = G[: size + 1, size] = V[: size + 1] @ HV[size]
        size += 1
    residual, energy, vector, explicit = best
    if not explicit:
        residual = float(np.linalg.norm(matrix.apply(vector) - energy * vector))
    return energy, vector, iteration, residual, size == n


def ground_state(
    matrix: SectorMatrix,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    energy_unit: float = 1.0,
) -> GroundStateResult:
    """Lowest eigenpair of a sector matrix by Davidson iteration, at any size.

    tol and the preconditioner's clamp are in units of energy_unit, so a
    model written in other units takes the same steps; the residual
    reported stays absolute.  The residual is recomputed explicitly and
    must meet tol * energy_unit within max_iter iterations, the vector is
    normalized, and the vacuum coefficient is made nonnegative.  The
    untruncated residual of the vector costs one more application of Dt,
    whose image the result keeps.  A residual above tol * energy_unit
    raises AccuracyError when the search space spans the whole basis,
    where it is the rounding floor of the operator, and SolverError
    otherwise.
    """
    tol = tol * energy_unit
    energy, vector, iterations, residual, exhausted = _davidson_lowest(
        matrix, tol, max_iter, _MIN_DENOMINATOR * energy_unit
    )
    if exhausted and not residual <= tol:
        raise AccuracyError(
            f"davidson solve of the {matrix.sector.value} sector has best residual "
            f"{residual:.3e} above tol {tol} with its search space spanning the whole "
            f"basis (dim {vector.size} after {iterations} iterations); the residual is the "
            "rounding floor of the operator"
        )
    if not residual <= tol:
        raise SolverError(
            f"davidson solve of the {matrix.sector.value} sector did not reach residual "
            f"{tol} ({iterations} iterations); best residual {residual:.3e} "
            f"at energy {energy:.12g}",
            diagnostics={
                "sector": matrix.sector.value,
                "iterations": iterations,
                "residual": residual,
            },
        )
    vector = vector / np.linalg.norm(vector)
    nonzero = np.nonzero(vector)[0]
    if vector[0] < 0.0 or (vector[0] == 0.0 and nonzero.size and vector[nonzero[0]] < 0.0):
        vector = -vector
    dt_vector = matrix.displaced_parity.apply(vector)
    return GroundStateResult(
        energy=energy,
        coefficients=vector,
        residual=residual,
        iterations=iterations,
        untruncated_residual=matrix.untruncated_residual(dt_vector),
        dt_coefficients=dt_vector,
    )


def solve_sectors(
    bath: DiscretizedBath,
    params: ModelParams,
    n_max: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    energy_unit: float = 1.0,
) -> tuple[GroundStateResult, GroundStateResult]:
    """(even, odd) ground states over the basis sum(n) <= n_max, from one diagonal and one E.

    tol is in units of energy_unit, as in ground_state.

    Refusals come in this order: polaron_factor's ValueError for epsilon
    != 0 and AccuracyError for a polaron factor that no double holds, both
    before the basis is enumerated, also where it would be over
    fockspace.MAX_BASIS_DIM (no basis can solve such a point);
    CapacityError from the basis, then from the lowering series, each
    before allocating over its cap; then the solves' errors.
    """
    polaron = polaron_factor(bath, params)
    enumeration = enumerate_basis(bath.mode_count, n_max)
    pair = _sector_pair(bath, params, enumeration, polaron)
    return (
        ground_state(pair[Sector.EVEN], tol, max_iter, energy_unit),
        ground_state(pair[Sector.ODD], tol, max_iter, energy_unit),
    )


def gap_identity(
    plus: GroundStateResult, minus: GroundStateResult, delta: float, log_factor: float, tol: float
) -> dict | None:
    """log10 |E- - E+| and its sign from the ground states, without subtracting energies.

    The sectors share their diagonal, so H- - H+ = delta e^(-2 sum q^2) Dt
    and, exactly for exact eigenvectors,

        E- - E+ = delta e^(-2 sum q^2) <phi+|Dt|phi-> / <phi+|phi->.

    log_factor is -2 sum q^2 (bath.log_prefactor), so the log stays finite
    where the gap underflows a double.  The relative error is about
    tol / |<phi+|phi->|.  Returns {"log10_abs_gap", "sign"}, or None where
    |<phi+|phi->| <= 100 tol or delta <phi+|Dt|phi-> is zero.  Dt phi- is
    the one ground_state kept, so no application of Dt is repeated.
    """
    overlap = float(plus.coefficients @ minus.coefficients)
    numerator = float(plus.coefficients @ minus.dt_coefficients)
    if not abs(overlap) > 100.0 * tol or delta == 0.0 or numerator == 0.0:
        return None
    log10_abs_gap = (
        math.log10(abs(delta))
        + log_factor / math.log(10.0)
        + math.log10(abs(numerator))
        - math.log10(abs(overlap))
    )
    sign = np.sign(delta) * np.sign(numerator) * np.sign(overlap)
    return {"log10_abs_gap": log10_abs_gap, "sign": int(sign)}
