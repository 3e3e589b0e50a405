"""Parity-sector Hamiltonians in the displaced number basis.

At zero local field the model splits into two decoupled blocks labelled by
the parity of sigma_x together with the total boson number.  In the
displaced basis D(-q)|n> both blocks have the same diagonal,
sum_k omega_k (n_k - q_k**2), and a dense tunneling block proportional to
the displaced parity table D_{m,n}:

    even block:  diag - (delta/2) D
    odd block:   diag + (delta/2) D

The odd block is represented in the boson-parity-rotated basis, under
which it differs from the even block only by the sign of the tunneling
term.  Both sectors therefore share a single D table, and negating delta
exchanges the two matrices exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from sbmlab.bath import DiscretizedBath
from sbmlab.errors import SolverError
from sbmlab.fockspace import BasisEnumeration, dmn_table

DENSE_CUTOFF = 512

# search-space size at which the Davidson solver restarts from its Ritz vector
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
class SectorMatrix:
    """One sector as the operator diag(diagonal) + coupling * table.

    diagonal and table (the D matrix) are shared with the other sector and
    never written to; coupling is tunneling_sign * delta / 2.
    """

    sector: Sector
    enumeration: BasisEnumeration
    diagonal: np.ndarray
    table: np.ndarray
    coupling: float

    @property
    def dim(self) -> int:
        return self.diagonal.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix, a new array on every access.

        D is scaled first and the diagonal added after.  The dense solves,
        and so the CSV bytes of every dense row, depend on this order.
        """
        entries = self.coupling * self.table
        entries[np.diag_indices_from(entries)] += self.diagonal
        return entries

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product without forming the dense matrix."""
        return self.diagonal * x + self.coupling * (self.table @ x)


@dataclass(frozen=True, eq=False)
class GroundStateResult:
    energy: float
    coefficients: np.ndarray
    residual: float
    sector: Sector
    iterations: int
    path: str  # "dense" or "davidson"


def _sector_pair(
    bath: DiscretizedBath, params: ModelParams, enumeration: BasisEnumeration
) -> dict[Sector, SectorMatrix]:
    """Both sector operators over one diagonal sum omega (n - q**2) and one D table.

    dmn_table raises CapacityError before allocating a table that would
    not fit fockspace.MAX_TABLE_BYTES.
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
    table = dmn_table(bath, enumeration)
    omega = np.asarray(bath.omega)
    q = np.asarray(bath.q)
    diagonal = enumeration.occupation_array() @ omega - float(omega @ (q * q))
    return {
        sector: SectorMatrix(
            sector=sector,
            enumeration=enumeration,
            diagonal=diagonal,
            table=table,
            coupling=sector.tunneling_sign * (params.delta / 2.0),
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
    (diag - theta)^-1, one operator application per iteration.  A full
    search space restarts from the current Ritz vector.  Convergence is
    declared, and a residual reported, only from an explicit ||Hx - theta x||.
    Returns (energy, vector, iterations, residual) of the first pair within
    tol, or of the best pair found when max_iter runs out or the search
    space cannot grow.
    """
    diag = matrix.diagonal + matrix.coupling * np.diagonal(matrix.table)
    n = diag.size
    V = np.zeros((_DAVIDSON_RESTART, n))
    HV = np.empty((_DAVIDSON_RESTART, n))
    V[0, np.argmin(diag)] = 1.0
    HV[0] = matrix.apply(V[0])
    size = 1
    best: tuple[float, float, np.ndarray] | None = None
    for iteration in range(1, max(1, max_iter) + 1):
        vals, vecs = np.linalg.eigh(V[:size] @ HV[:size].T)
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
            V[0], HV[0], size = x, matrix.apply(x), 1
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
        size += 1
    _, energy, vector = best
    residual = float(np.linalg.norm(matrix.apply(vector) - energy * vector))
    return energy, vector, iteration, residual


def ground_state(
    matrix: SectorMatrix, tol: float = 1e-10, max_iter: int = 500
) -> GroundStateResult:
    """Lowest eigenpair of a sector matrix.

    Dense diagonalization up to DENSE_CUTOFF, Davidson above.  Either way
    the residual is recomputed explicitly and must meet tol, the vector is
    normalized, and the vacuum coefficient is made nonnegative.
    """
    if matrix.dim <= DENSE_CUTOFF:
        path = "dense"
        H = matrix.entries
        vals, vecs = np.linalg.eigh(H)
        energy = float(vals[0])
        vector = vecs[:, 0]
        iterations = 0
        residual = float(np.linalg.norm(H @ vector - energy * vector))
    else:
        path = "davidson"
        energy, vector, iterations, residual = _davidson_lowest(matrix, tol, max_iter)
    if not residual <= tol:
        raise SolverError(
            f"{path} solve of the {matrix.sector.value} sector did not reach residual "
            f"{tol} ({iterations} iterations); best residual {residual:.3e} "
            f"at energy {energy:.12g}",
            diagnostics={
                "sector": matrix.sector.value,
                "path": path,
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
        path=path,
    )


def solve_sectors(
    bath: DiscretizedBath,
    params: ModelParams,
    enumeration: BasisEnumeration,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> tuple[GroundStateResult, GroundStateResult]:
    """(even, odd) ground states from one shared diagonal and one D table."""
    pair = _sector_pair(bath, params, enumeration)
    return (
        ground_state(pair[Sector.EVEN], tol, max_iter),
        ground_state(pair[Sector.ODD], tol, max_iter),
    )


def sector_gap(
    bath: DiscretizedBath,
    params: ModelParams,
    enumeration: BasisEnumeration,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> float:
    """E_odd - E_even from two independent ground-state solves."""
    if params.delta == 0.0:
        raise ValueError("sector gap is undefined at delta = 0")
    even, odd = solve_sectors(bath, params, enumeration, tol, max_iter)
    return odd.energy - even.energy
