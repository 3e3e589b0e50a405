"""Reference operators for the tests, written the direct way.

parity_phase is the boson parity of one multi-index, and
displacement_matrix the single-mode displacement operator as a dense
matrix exponential.  The package needs neither.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from sbmlab.errors import AccuracyError


def parity_phase(n: tuple[int, ...]) -> int:
    """Boson-number parity (-1)**sum(n)."""
    return 1 if sum(n) % 2 == 0 else -1


def displacement_matrix(
    q: float, dim: int, buffer: int = 10, checked_columns: int = 0
) -> np.ndarray:
    """dim x dim block of <m|exp(q(a'-a))|n> in the number basis.

    The generator is exponentiated in an enlarged space of dimension
    dim + buffer and then truncated, which keeps the retained block accurate
    for occupations well below dim.  Columns near the truncation edge leak
    into the discarded space for any finite buffer (the displaced state
    D(q)|n> centers near n + q**2), so no blanket norm guarantee is
    possible; callers declare via checked_columns how many leading columns
    must retain norm >= 1 - 1e-8, and an AccuracyError reports any that
    do not.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if buffer < 0:
        raise ValueError(f"buffer must be >= 0, got {buffer}")
    if not 0 <= checked_columns <= dim:
        raise ValueError(
            f"checked_columns must lie in 0..dim, got {checked_columns}"
        )
    big = dim + buffer
    ladder = np.diag(np.sqrt(np.arange(1, big)), k=1)  # annihilation operator
    generator = q * (ladder.T - ladder)
    full = expm(generator)
    block = np.ascontiguousarray(full[:dim, :dim])
    if checked_columns:
        norms = np.linalg.norm(block[:, :checked_columns], axis=0)
        bad = np.nonzero(norms < 1.0 - 1e-8)[0]
        if bad.size:
            raise AccuracyError(
                f"displacement truncation leaked: column {bad[0]} of "
                f"displacement_matrix(q={q}, dim={dim}, buffer={buffer}) "
                f"has norm {norms[bad[0]]:.12f} < 1 - 1e-8"
            )
    return block
