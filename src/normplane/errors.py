"""Exception types shared across the package."""


class NormPlaneError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidNorm(NormPlaneError):
    """A norm specification violates its invariants."""


class ZeroVector(NormPlaneError):
    """An operation requiring nonzero vectors received a zero vector."""


class DegenerateInput(NormPlaneError):
    """Coincident or otherwise degenerate input points."""


class DuplicatePoints(NormPlaneError):
    """A point set contains (numerically) identical points."""


class DegenerateSegment(NormPlaneError):
    """A segment whose endpoints coincide."""


class TiesPresent(NormPlaneError):
    """Pairwise distances are not all distinct within tolerance."""


class StructureViolation(NormPlaneError):
    """A structural invariant of the furthest-neighbor graph failed.

    Usually signals numerical trouble or an undetected distance tie.
    """


class NotStrictlyConvex(NormPlaneError):
    """The operation requires a strictly convex norm."""


class BudgetExceeded(NormPlaneError):
    """The perturbation ran out of displacement budget or move allowance."""


class TooLarge(NormPlaneError):
    """Input too large for an exhaustive (oracle) computation."""


class ParseError(NormPlaneError):
    """Malformed input file or norm string."""


class IoError(NormPlaneError):
    """File could not be read or written."""
