"""Depth of cutting planes over polyhedra.

The depth of a point is its distance to the boundary measured inside the
affine hull; the depth of a cut is the largest depth among the points it
removes. This package computes both (closed form for points and corner
cones, a linear program otherwise) along with the a priori bounds that
valid cuts must respect, and ships generators for the extremal
constructions that make those bounds essentially tight.
"""

from .bounds import (
    Disjunction,
    SplitBound,
    integer_hull_depth_bound,
    integer_hull_depth_bound_weak,
    intersection_cut_bound,
    lattice_integer_hull_bound,
    split_depth_bound,
    split_point_depth_bound,
    steepest_edge_lengths,
)
from .constructions import (
    ConeConstruction,
    LatticePolytope,
    depth_lower_bound_cone,
    enclosing_lattice_polytope,
    max_distance_bruteforce,
    max_distance_greedy,
)
from .corner import (
    CornerCone,
    CornerData,
    build_corner,
    corner_cut_depth,
    standard_form_model,
)
from .depth import (
    DepthKind,
    DepthResult,
    cut_depth,
    cut_depth_standard_form,
    from_standard_form,
    point_depth,
    volume_lower_bound,
)
from .errors import (
    AllZeroAlpha,
    CertificationError,
    CutDepthError,
    DegenerateConstraint,
    DimensionTooLarge,
    DimensionTooSmall,
    EmptyPolyhedron,
    InstanceError,
    IterationLimit,
    NotPositiveDefinite,
    OnDisjunctionBoundary,
    PointOutsideHull,
    PointOutsidePolyhedron,
    RankDeficientBasis,
    Singular,
)
from .linalg import cholesky_solve, largest_eigenvalue, solve_square
from .lp import LinearProgram, LpOutcome, LpStatus, SolveStats, solve
from .polyhedron import (
    AffineSpace,
    Cut,
    HPolyhedron,
    NormalizedPolyhedron,
    StandardFormModel,
    normalize,
    project_onto_direction_space,
    shrink,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSpace",
    "AllZeroAlpha",
    "CertificationError",
    "ConeConstruction",
    "CornerCone",
    "CornerData",
    "Cut",
    "CutDepthError",
    "DegenerateConstraint",
    "DepthKind",
    "DepthResult",
    "DimensionTooLarge",
    "DimensionTooSmall",
    "Disjunction",
    "EmptyPolyhedron",
    "HPolyhedron",
    "InstanceError",
    "IterationLimit",
    "LatticePolytope",
    "LinearProgram",
    "LpOutcome",
    "LpStatus",
    "NormalizedPolyhedron",
    "NotPositiveDefinite",
    "OnDisjunctionBoundary",
    "PointOutsideHull",
    "PointOutsidePolyhedron",
    "RankDeficientBasis",
    "Singular",
    "SolveStats",
    "SplitBound",
    "StandardFormModel",
    "build_corner",
    "cholesky_solve",
    "corner_cut_depth",
    "cut_depth",
    "cut_depth_standard_form",
    "depth_lower_bound_cone",
    "enclosing_lattice_polytope",
    "from_standard_form",
    "integer_hull_depth_bound",
    "integer_hull_depth_bound_weak",
    "intersection_cut_bound",
    "largest_eigenvalue",
    "lattice_integer_hull_bound",
    "max_distance_bruteforce",
    "max_distance_greedy",
    "normalize",
    "point_depth",
    "project_onto_direction_space",
    "shrink",
    "solve",
    "solve_square",
    "split_depth_bound",
    "split_point_depth_bound",
    "standard_form_model",
    "steepest_edge_lengths",
    "volume_lower_bound",
]
