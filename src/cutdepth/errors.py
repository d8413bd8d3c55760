"""Exception hierarchy shared by all cutdepth modules."""


class CutDepthError(Exception):
    """Base class for every error raised by this package."""


class NotPositiveDefinite(CutDepthError):
    """A Cholesky pivot fell below threshold; the matrix is numerically
    rank deficient (typically: redundant equality rows)."""


class Singular(CutDepthError):
    """A square solve hit a pivot below threshold."""


class DegenerateConstraint(CutDepthError):
    """A constraint normal is orthogonal to the affine hull, so the
    inequality is either vacuous on the hull or empties the set."""


class NumericOverflow(CutDepthError):
    """A row norm or the hull's Gram matrix overflows double precision; the
    input must be rescaled."""


class IterationLimit(CutDepthError):
    """The simplex solver exceeded its pivot budget (numerical cycling)."""


class EmptyPolyhedron(CutDepthError):
    """The polyhedron itself is infeasible."""


class PointOutsideHull(CutDepthError):
    """A query point does not satisfy the affine-hull equalities."""


class PointOutsidePolyhedron(CutDepthError):
    """A query point violates an inequality of the polyhedron."""


class AllZeroAlpha(CutDepthError):
    """Every cut coefficient is below the eligibility threshold."""


class OnDisjunctionBoundary(CutDepthError):
    """The disjunction value at the point is integral, so the point is
    not cut off and the per-point bound is meaningless."""


class DimensionTooSmall(CutDepthError):
    """The requested dimension is below the operation's minimum."""


class DimensionTooLarge(CutDepthError):
    """The requested dimension would make enumeration intractable."""


class RankDeficientBasis(CutDepthError):
    """A lattice basis does not have full column rank."""


class CertificationError(CutDepthError):
    """A constructed object failed its own invariant certification."""


class InstanceError(CutDepthError):
    """An instance file is malformed; the message names the offending field."""
