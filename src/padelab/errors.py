"""Exception types shared across the package."""


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
