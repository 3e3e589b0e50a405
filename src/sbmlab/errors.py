"""Exception types shared across the package.

Each maps to a distinct command-line exit code so scripted callers can
tell misconfiguration apart from resource limits and solver trouble.
"""


class SbmlabError(Exception):
    """Base class for package errors.

    diagnostics holds what the code knew when it gave up (for a solve: sector,
    iterations, best residual), for run manifests.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(SbmlabError):
    """Invalid or inconsistent run configuration (exit code 2)."""


class CapacityError(SbmlabError):
    """Requested basis or matrix exceeds a hard size cap (exit code 3)."""


class SolverError(SbmlabError):
    """Eigensolver failed to reach the requested residual (exit code 4)."""


class AccuracyError(SbmlabError):
    """A numerical result failed its own internal accuracy check."""
