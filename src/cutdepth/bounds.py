"""A priori depth bounds: split disjunctions, intersection cuts from a
corner tableau, and dimensional bounds on the depth of the integer hull."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroAlpha,
    DimensionTooSmall,
    NotPositiveDefinite,
    NumericOverflow,
    OnDisjunctionBoundary,
    RankDeficientBasis,
)
from .linalg import as_matrix, as_vector, cholesky_factor, largest_eigenvalue
from .polyhedron import (
    DEGENERATE_NORM_TOL,
    AffineSpace,
    project_onto_direction_space,
)

INTEGRALITY_TOL = 1e-9
# strict-positivity cutoff for intersection-cut coefficients
ALPHA_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Disjunction:
    """The integer split coeffs @ x <= threshold or coeffs @ x >= threshold + 1."""

    coeffs: np.ndarray
    threshold: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", as_vector(self.coeffs, "coeffs"))
        object.__setattr__(self, "threshold", int(self.threshold))
        if np.abs(self.coeffs - np.round(self.coeffs)).max(initial=0.0) > 0:
            raise ValueError("disjunction coefficients must be integers")
        if not np.any(self.coeffs != 0.0):
            raise ValueError("disjunction coefficients must not all be zero")

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True)
class SplitBound:
    """Either a finite bound or the degenerate case in which the disjunction
    is constant on the hull (no integer points; every cut point allowed)."""

    value: float | None

    @classmethod
    def finite(cls, value: float) -> "SplitBound":
        if not value > 0.0:
            raise ValueError("split bound must be positive")
        return cls(value)

    @classmethod
    def covers_hull(cls) -> "SplitBound":
        return cls(None)

    @property
    def is_covers_hull(self) -> bool:
        return self.value is None


def split_depth_bound(space: AffineSpace, disjunction: Disjunction) -> SplitBound:
    """Upper bound on the depth of any cut derived from the disjunction:
    the inverse length of the disjunction's projection onto the hull."""
    if disjunction.dim != space.dim:
        raise ValueError(
            f"disjunction has dimension {disjunction.dim}, expected {space.dim}"
        )
    nrm = _projected_norm(space, disjunction)
    if nrm < DEGENERATE_NORM_TOL:
        return SplitBound.covers_hull()
    return SplitBound.finite(1.0 / nrm)


def _projected_norm(space: AffineSpace, disjunction: Disjunction) -> float:
    """Length of the disjunction's projection onto the hull's direction
    space; NumericOverflow when it exceeds the double range."""
    proj = project_onto_direction_space(space, disjunction.coeffs)
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(proj))
    if not math.isfinite(nrm):
        raise NumericOverflow("the disjunction's projected norm overflows; rescale it")
    return nrm


def split_point_depth_bound(
    space: AffineSpace, disjunction: Disjunction, x
) -> float:
    """Per-point bound: the larger fractional distance of coeffs @ x to the
    surrounding integers, divided by the projected disjunction length.

    The point must sit strictly between the two sides: an integral value
    raises OnDisjunctionBoundary since such a point is never cut off.
    Returns +inf when the disjunction is constant on the hull.
    """
    x = as_vector(x, "x")
    if x.shape[0] != space.dim:
        raise ValueError(f"x has length {x.shape[0]}, expected {space.dim}")
    value = float(disjunction.coeffs @ x)
    frac = value - math.floor(value)
    if min(frac, 1.0 - frac) <= INTEGRALITY_TOL:
        raise OnDisjunctionBoundary(
            f"disjunction value {value} is integral within {INTEGRALITY_TOL}"
        )
    nrm = _projected_norm(space, disjunction)
    if nrm < DEGENERATE_NORM_TOL:
        return math.inf
    return max(frac, 1.0 - frac) / nrm


def steepest_edge_lengths(tableau) -> np.ndarray:
    """Per-column lengths sqrt(sum_i tableau[i,j]^2 + 1): the Euclidean
    distance traveled per unit increase of one nonbasic variable."""
    tableau = as_matrix(tableau, "tableau")
    return np.sqrt((tableau**2).sum(axis=0) + 1.0)


def intersection_cut_bound(tableau, coeffs) -> float:
    """Upper bound on the depth of the cut coeffs @ s >= 1 over the corner
    with the given tableau: min over eligible columns of edge length over
    coefficient."""
    tableau = as_matrix(tableau, "tableau")
    coeffs = as_vector(coeffs, "coeffs")
    if coeffs.shape[0] != tableau.shape[1]:
        raise ValueError(
            f"coeffs have length {coeffs.shape[0]}, expected {tableau.shape[1]}"
        )
    if coeffs.min() < 0.0:
        raise ValueError("intersection-cut coefficients must be nonnegative")
    eligible = coeffs > ALPHA_TOL
    if not eligible.any():
        raise AllZeroAlpha(f"no coefficient exceeds {ALPHA_TOL}")
    lengths = steepest_edge_lengths(tableau)
    return float((lengths[eligible] / coeffs[eligible]).min())


def integer_hull_depth_bound(n: int) -> float:
    """Dimensional bound sqrt((n+1)/2) on the depth of the integer hull of a
    full-dimensional set, hence on the depth of every valid cut."""
    if n < 2:
        raise DimensionTooSmall(f"bound requires n >= 2, got {n}")
    return math.sqrt((n + 1) / 2.0)


def integer_hull_depth_bound_weak(n: int) -> float:
    """The simpler sqrt(n) bound (rounding every coordinate); dominated by
    integer_hull_depth_bound but kept for comparison."""
    if n < 2:
        raise DimensionTooSmall(f"bound requires n >= 2, got {n}")
    return math.sqrt(float(n))


def lattice_integer_hull_bound(basis) -> float:
    """Bound for sets whose hull is spanned by the given lattice basis:
    sqrt of the largest eigenvalue of the Gram matrix times the
    d-dimensional bound."""
    basis = as_matrix(basis, "basis")
    d = basis.shape[1]
    if d < 2:
        raise DimensionTooSmall(f"bound requires a basis of rank >= 2, got {d}")
    gram = basis.T @ basis
    try:
        cholesky_factor(gram)
    except NotPositiveDefinite as exc:
        raise RankDeficientBasis("basis does not have full column rank") from exc
    return math.sqrt(largest_eigenvalue(gram)) * integer_hull_depth_bound(d)
