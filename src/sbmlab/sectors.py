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
the two matrices exactly.

Every sector, whatever its size, is solved by one thick-restart Davidson
iteration that applies Dt as two sparse products; no solve forms a dense
matrix.  The dense forms (SectorMatrix.entries, DisplacedParity.dense)
are references for tests and benchmarks only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse

from sbmlab.bath import DiscretizedBath, prefactor
from sbmlab.errors import AccuracyError, SolverError
from sbmlab.fockspace import BasisEnumeration, lowering_series

# residual tolerance and iteration budget of a solve; config.SolverSettings reads them
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 500

# search-space size at which the Davidson solver restarts from its lowest
# half of Ritz vectors
_DAVIDSON_RESTART = 40

# smallest |diag - theta| the Davidson preconditioner divides by; on a
# Lambda = 2 grid boson energies coincide exactly, so diag - theta can be 0
_MIN_DENOMINATOR = 1e-8


@dataclass(frozen=True)
class ModelParams:
    """Spin parameters: tunneling delta and local field epsilon.

    delta = 0 is allowed (used by frozen-spin cross-checks) but makes the
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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Dt x as two sparse products."""
        p, E = self.parity, self.lowering
        return p * (E.T @ (p * (E @ (p * x))))

    def diagonal(self) -> np.ndarray:
        """diag(Dt) = (E o E)' P."""
        return self.lowering.power(2).T @ self.parity

    @property
    def dense(self) -> np.ndarray:
        """Dt as a new dense array, a reference that no solve uses.

        One sparse x dense product (P E') (P E P), with the signs put on the
        entries of E, which leaves the result exactly symmetric.
        """
        E, p = self.lowering, self.parity
        column_sign = p[E.indices]
        row_sign = np.repeat(p, np.diff(E.indptr))
        left = scipy.sparse.csr_array((E.data * column_sign, E.indices, E.indptr), shape=E.shape)
        right = scipy.sparse.csr_array(
            (E.data * (row_sign * column_sign), E.indices, E.indptr), shape=E.shape
        )
        return left.T @ right.toarray()


@dataclass(frozen=True, eq=False)
class SectorMatrix:
    """One sector as the operator diag(diagonal) + coupling * Dt.

    diagonal and displaced_parity are shared with the other sector and
    never written to; coupling is tunneling_sign * (delta/2) * polaron
    factor.
    """

    sector: Sector
    diagonal: np.ndarray
    displaced_parity: DisplacedParity
    coupling: float

    @property
    def dim(self) -> int:
        return self.diagonal.shape[0]

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


@dataclass(frozen=True, eq=False)
class GroundStateResult:
    energy: float
    coefficients: np.ndarray
    residual: float
    sector: Sector
    iterations: int


def _polaron_double(bath: DiscretizedBath) -> float:
    """The polaron factor as a double, which every D entry is scaled by.

    Raises AccuracyError where prefactor() has no normal double to give
    (it returns a Decimal there): a factor flushed to 0.0, or to a subnormal
    with few digits left, would make the two sectors identical and their
    gap a rounding artifact.
    """
    value = prefactor(bath)
    if not isinstance(value, float):
        raise AccuracyError(
            f"polaron factor {value:.3e} is below the normal double range; "
            "D cannot be formed in double precision"
        )
    return value


def _sector_pair(
    bath: DiscretizedBath, params: ModelParams, enumeration: BasisEnumeration
) -> dict[Sector, SectorMatrix]:
    """Both sector operators over one diagonal sum omega (n - q**2) and one lowering series.

    lowering_series raises CapacityError before allocating a series that
    would not fit fockspace.MAX_OPERATOR_BYTES.
    """
    if params.epsilon != 0.0:
        raise ValueError(
            "sector decomposition requires epsilon = 0; "
            f"got epsilon={params.epsilon} (use the dense oracle instead)"
        )
    if enumeration.mode_count != bath.mode_count:
        raise ValueError(
            f"enumeration mode count {enumeration.mode_count} does not match "
            f"bath mode count {bath.mode_count}"
        )
    lowering = lowering_series(enumeration, bath.q)
    polaron = _polaron_double(bath)
    omega = np.asarray(bath.omega)
    q = np.asarray(bath.q)
    diagonal = enumeration.occupation_array() @ omega - float(omega @ (q * q))
    displaced_parity = DisplacedParity(lowering, enumeration.parity)
    return {
        sector: SectorMatrix(
            sector=sector,
            diagonal=diagonal,
            displaced_parity=displaced_parity,
            coupling=sector.tunneling_sign * (params.delta / 2.0) * polaron,
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
    return _sector_pair(bath, params, enumeration)[sector]


def _davidson_lowest(
    matrix: SectorMatrix, tol: float, max_iter: int
) -> tuple[float, np.ndarray, int, float]:
    """Lowest eigenpair by Davidson's method (J. Comput. Phys. 17, 87, 1975).

    Starts from the coordinate vector of the smallest diagonal entry and
    grows the search space by the residual preconditioned with
    (diag - theta)^-1, one operator application per iteration.  The
    projected matrix V H V' gains one row and column per new vector.  A
    full search space restarts thick (Stathopoulos, Saad & Wu, SIAM J. Sci.
    Comput. 19, 227, 1998): it keeps its lowest half of Ritz vectors and
    their images, so no operator application is repeated and nearly
    degenerate low eigenvalues stay resolved.  Convergence is declared, and
    a residual reported, only from an explicit ||Hx - theta x||.  Returns
    (energy, vector, iterations, residual) of the first pair within tol, or
    of the best pair found when max_iter runs out or the search space
    cannot grow.
    """
    diag = matrix.diagonal + matrix.coupling * matrix.displaced_parity.diagonal()
    n = diag.size
    V = np.zeros((_DAVIDSON_RESTART, n))
    HV = np.empty((_DAVIDSON_RESTART, n))
    G = np.empty((_DAVIDSON_RESTART, _DAVIDSON_RESTART))
    V[0, np.argmin(diag)] = 1.0
    HV[0] = matrix.apply(V[0])
    G[0, 0] = V[0] @ HV[0]
    size = 1
    best: tuple[float, float, np.ndarray] | None = None
    for iteration in range(1, max(1, max_iter) + 1):
        vals, vecs = np.linalg.eigh(G[:size, :size])
        theta, y = float(vals[0]), vecs[:, 0]
        x = y @ V[:size]
        x /= np.linalg.norm(x)
        r = y @ HV[:size] - theta * x
        if np.linalg.norm(r) <= tol:
            r = matrix.apply(x) - theta * x
        r_norm = float(np.linalg.norm(r))
        if best is None or r_norm < best[0]:
            best = (r_norm, theta, x)
        if best[0] <= tol or iteration == max_iter:
            break
        if size == _DAVIDSON_RESTART:
            keep = size // 2
            V[:keep] = vecs[:, :keep].T @ V[:size]
            HV[:keep] = vecs[:, :keep].T @ HV[:size]
            G[:keep, :keep] = np.diag(vals[:keep])
            size = keep
        denominator = diag - theta
        small = np.abs(denominator) < _MIN_DENOMINATOR
        denominator[small] = np.copysign(_MIN_DENOMINATOR, denominator[small])
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
    _, energy, vector = best
    residual = float(np.linalg.norm(matrix.apply(vector) - energy * vector))
    return energy, vector, iteration, residual


def ground_state(
    matrix: SectorMatrix, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> GroundStateResult:
    """Lowest eigenpair of a sector matrix by Davidson iteration, at any size.

    The residual is recomputed explicitly and must meet tol within max_iter
    iterations, the vector is normalized, and the vacuum coefficient is
    made nonnegative.
    """
    energy, vector, iterations, residual = _davidson_lowest(matrix, tol, max_iter)
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
    return GroundStateResult(
        energy=energy,
        coefficients=vector,
        residual=residual,
        sector=matrix.sector,
        iterations=iterations,
    )


def solve_sectors(
    bath: DiscretizedBath,
    params: ModelParams,
    enumeration: BasisEnumeration,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[GroundStateResult, GroundStateResult]:
    """(even, odd) ground states from one shared diagonal and one lowering series."""
    pair = _sector_pair(bath, params, enumeration)
    return (
        ground_state(pair[Sector.EVEN], tol, max_iter),
        ground_state(pair[Sector.ODD], tol, max_iter),
    )

