"""Exception types shared across the package, and the required-field check
the JSON file readers share."""


class GameViError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(GameViError, ValueError):
    """Block or operand shapes are inconsistent."""


class Infeasible(GameViError, RuntimeError):
    """The constraint polyhedron was certified empty.

    Attributes
    ----------
    slack : float or None
        Maximal achievable constraint slack (negative when infeasible).
    """

    def __init__(self, message, slack=None):
        super().__init__(message)
        self.slack = slack


class InvalidSplitting(GameViError, ValueError):
    """A matrix splitting violates the convergence conditions.

    Carries ``mu``, the smallest eigenvalue of the symmetric part of the
    matrix being split, when available.
    """

    def __init__(self, message, mu=None):
        super().__init__(message)
        self.mu = mu


class NonFiniteData(GameViError, ValueError):
    """Problem data contain NaN or infinite entries."""


class InvalidConfig(GameViError, ValueError):
    """A solver configuration violates its documented contract."""


class NotStronglyMonotone(GameViError, ValueError):
    """Algorithm requires mu > 0 but the operator is not strongly monotone."""


class NoConvergence(GameViError, RuntimeError):
    """An iterative equation solver failed to reach its tolerance."""


class SingularA(GameViError, ValueError):
    """The dynamics matrix must be invertible for this diagnostic."""


class SpecError(GameViError, ValueError):
    """A scenario specification or data file is inconsistent or incomplete."""


def require_fields(payload, names, path):
    """Raise SpecError naming the fields of ``names`` missing from the
    JSON object ``payload`` read from ``path``."""
    missing = [name for name in names if name not in payload]
    if missing:
        raise SpecError(f"{path}: missing required field(s) {', '.join(missing)}")
