"""Laboratory for the zero-bias spin-boson model.

Subpackages cover the ohmic/sub-ohmic bath and its logarithmic
discretization (:mod:`sbmlab.bath`), displaced-oscillator matrix elements
(:mod:`sbmlab.fockspace`), the two parity-sector Hamiltonians
(:mod:`sbmlab.sectors`), a full-space cross-check
(:mod:`sbmlab.oracle`), an exact-arithmetic non-degeneracy argument
(:mod:`sbmlab.nondegeneracy`), and a command-line front end
(:mod:`sbmlab.cli`).
"""

from sbmlab.errors import (
    AccuracyError,
    CapacityError,
    ConfigError,
    SbmlabError,
    SolverError,
)

__all__ = [
    "AccuracyError",
    "CapacityError",
    "ConfigError",
    "SbmlabError",
    "SolverError",
]

__version__ = "0.3.0"
