"""Exception types shared across the package, and the readers of a config
field that raise :class:`InvalidConfig` naming it."""

from contextlib import contextmanager


class PadelabError(Exception):
    """Base class for all padelab failures."""


class SolveFailure(PadelabError):
    """Linear solve could not meet its residual bound at the working precision."""


class RootFailure(PadelabError):
    """Polynomial root refinement did not meet its residual bound."""


class QuadFailure(PadelabError):
    """Adaptive quadrature exceeded its panel budget before converging."""


class PointOnSupport(PadelabError):
    """Evaluation point coincides with the support of the measure."""


class PointAtPole(PadelabError):
    """Evaluation point coincides with a pole of the rational part."""


class UnwrapFailure(PadelabError):
    """Argument samples jump by >= pi/2; the sampling grid is too coarse."""


class PoleOnNode(PadelabError):
    """A pole of the rational part coincides with an interpolation node."""


class DegenerateChoice(PadelabError, ValueError):
    """An approximant or its error-formula factors cannot be formed.

    Raised when n is too small relative to s; it is also a ValueError, since
    such an n is an invalid argument.
    """


class ConvergenceFailure(PadelabError):
    """Collocation solve did not produce an admissible measure after refinement."""


class CarrierHit(PadelabError):
    """Potential evaluated exactly on a carrier point of a discrete measure."""


class MassMismatch(PadelabError):
    """Two measures expected to share total mass do not."""


class InvalidConfig(PadelabError):
    """Problem configuration is malformed or inconsistent."""


def _checked_int(value, field: str, least: int) -> int:
    """A config field or an override as an int >= least: an integral number
    or a string of digits, never a boolean."""
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise TypeError
        out = int(value)
    except (TypeError, ValueError):
        raise InvalidConfig(f"{field} must be an integer, got {value!r}") from None
    if out < least:
        raise InvalidConfig(f"{field} must be >= {least}, got {out}")
    return out


def _known_keys(section, keys, prefix: str) -> None:
    """Raise :class:`InvalidConfig` naming the first key of the config
    object ``section`` that is not in ``keys``, a misspelling that would
    otherwise be ignored; a section that is not an object is left to the
    reader of its fields."""
    if isinstance(section, dict):
        for key in section:
            if key not in keys:
                raise InvalidConfig(f"unknown key {prefix}{key} "
                                    f"(expected one of {', '.join(keys)})")


@contextmanager
def _reading(what: str):
    """Raise the OSError (a missing file), ValueError (which covers bad JSON
    and malformed literals), KeyError or TypeError of reading ``what``, a
    config field or a file, as :class:`InvalidConfig` naming it."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise InvalidConfig(f"{what}: {reason}") from exc
