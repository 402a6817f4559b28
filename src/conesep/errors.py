"""Exception types shared across the engine."""


class ConesepError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(ConesepError):
    """Operands live in different ambient dimensions."""


class ZeroGenerator(ConesepError):
    """A generator ray is (numerically) the zero vector."""


class EmptyCone(ConesepError):
    """A cone was requested from an empty generator list."""


class TrivialRegion(ConesepError):
    """The region is {0} or the whole space where a proper cone is required."""


class ZeroDirection(ConesepError):
    """An LMO, support or NNLS query was made with a zero or non-finite
    direction."""


class DegenerateCone(ConesepError):
    """A norm-linear pair (x*, alpha) outside the non-trivial range."""


class Inconclusive(ConesepError):
    """No certified verdict: the distance lies in the tolerance dead band,
    or the solve ended uncertified; the message says which."""


class NotSolid(ConesepError):
    """The cone has empty interior where a solid cone is required."""


class NotConvex(ConesepError):
    """A single convex piece is required but a compound region was given."""


class NotNested(ConesepError):
    """Interpolation requires the inner cone to be contained in the outer one."""


class NonPositiveRay(ConesepError):
    """A base functional is not strictly positive on some generator."""


class DimensionTooHigh(ConesepError):
    """Facet enumeration is only available up to dimension 4."""


class DimensionNot2D(ConesepError):
    """The renderer and closed-form boundary rays only exist in dimension 2."""


class InstanceError(ConesepError):
    """An instance or certificate document failed to parse or validate."""
