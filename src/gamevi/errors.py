"""Exception types shared across the package, and the JSON file boundary
the data-file readers share."""

import contextlib
import json


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


class NotSymmetric(GameViError, ValueError):
    """A matrix that must be symmetric is not (to 1e-12, relative)."""


class NoConvergence(GameViError, RuntimeError):
    """An iterative equation solver failed to reach its tolerance."""


class SingularA(GameViError, ValueError):
    """The dynamics matrix must be invertible for this diagnostic."""


class SpecError(GameViError, ValueError):
    """A scenario specification or data file is inconsistent or incomplete."""


@contextlib.contextmanager
def spec_file(path, names):
    """Yield the JSON object read from ``path`` once it has the fields
    ``names``. An unparsable file, a missing field, and a KeyError, TypeError
    or ValueError raised while the body converts the values (a record without
    a field, a string where a number belongs, a ragged matrix) raise
    SpecError naming the file; the package's own errors pass through."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        missing = [name for name in names if name not in payload]
        if missing:
            raise SpecError(f"{path}: missing required field(s) {', '.join(missing)}")
        yield payload
    except GameViError:
        raise
    except KeyError as exc:
        raise SpecError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{path}: {exc}") from exc
