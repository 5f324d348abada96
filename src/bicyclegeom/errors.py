"""Exception taxonomy for geometric failure modes.

Every degeneracy that an operation can hit maps to its own class, so
callers can distinguish "bad input" from "geometrically undefined here".
"""


class GeometryError(Exception):
    """Base class for all geometric failure modes in this package."""


class DimensionMismatch(GeometryError):
    """Operands live in different (or unsupported) dimensions."""


class DegenerateLine(GeometryError):
    """A reflection axis / bisector is undefined (coincident endpoints)."""


class WrongArity(GeometryError):
    """Wrong number of vertices for the requested predicate."""


class NoRealFixedPoint(GeometryError):
    """Elliptic monodromy: the fixed-point quadratic has no real roots."""


class PoleAtEllEqualsA(GeometryError):
    """Length parameter coincides with an edge length; the step formula has a pole."""


class DegenerateMonodromy(GeometryError):
    """Monodromy matrix is singular or scalar where a generic one is required."""


class EllipticMonodromy(GeometryError):
    """No closed companion polygon exists: the monodromy has no real fixed direction."""


class ClosureFailure(GeometryError):
    """A propagated polygon that should close does not, within tolerance."""


class NotConcentricAlternating(GeometryError):
    """Input is not a 2k-gon alternating between two concentric circles."""


class ChordTooLong(GeometryError):
    """Requested chord length exceeds the circumcircle diameter."""


class ZeroArea(GeometryError):
    """Signed area vanishes; the circumcenter of mass is undefined."""


class DegenerateTriangle(GeometryError):
    """Collinear triangle: circumcenter at infinity."""


class SignAssignmentFailure(GeometryError):
    """No consistent orientation of signed radii exists for this chain."""


class PoleOnChain(GeometryError):
    """A chain radius equals the half frame length; the eigenvalue product has a pole."""
