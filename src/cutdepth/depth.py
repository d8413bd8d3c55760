"""Depth computations: point depth in closed form, cut depth by LP.

The depth of a point is its distance to the boundary measured inside the
affine hull; the depth of a cut is the largest depth among the points it
removes. For a normalized polyhedron the former is a row-margin minimum
and the latter is a linear program over the shrunken bodies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import lp
from .errors import EmptyPolyhedron, PointOutsideHull, PointOutsidePolyhedron
from .linalg import as_vector, frozen
from .polyhedron import Cut, NormalizedPolyhedron, StandardFormModel, bound_rows

# membership tolerance for point queries
POINT_TOL = 1e-7


class DepthKind(Enum):
    FINITE = "finite"
    UNBOUNDED = "unbounded"
    NOT_VIOLATED = "not-violated"


@dataclass(frozen=True, eq=False)
class DepthResult:
    """Outcome of a cut-depth computation.

    Finite results carry the value and, when the LP attained it, a deepest
    removed point. Unbounded results surface a recession direction along
    which removed points of arbitrary depth exist. LP results carry the
    SolveStats of the solve that produced them; a cut re-optimized from the
    body's cached optimum shows dual pivots only, no phase 1 or 2 pivots,
    and one read off the depth LP's dual has dualized set.
    """

    kind: DepthKind
    value: float | None = None
    point: np.ndarray | None = None
    ray: np.ndarray | None = None
    stats: lp.SolveStats | None = None

    def __post_init__(self):
        if self.kind == DepthKind.FINITE:
            if self.value is None or not (self.value >= 0.0):
                raise ValueError("finite depth must carry a value >= 0")
        elif self.value is not None:
            raise ValueError(f"{self.kind.value} results carry no value")

    @classmethod
    def finite(
        cls, value: float, point: np.ndarray | None = None, stats: lp.SolveStats | None = None
    ) -> "DepthResult":
        return cls(DepthKind.FINITE, value=value, point=point, stats=stats)

    @classmethod
    def unbounded(
        cls, ray: np.ndarray | None = None, stats: lp.SolveStats | None = None
    ) -> "DepthResult":
        return cls(DepthKind.UNBOUNDED, ray=ray, stats=stats)

    @classmethod
    def not_violated(cls, stats: lp.SolveStats | None = None) -> "DepthResult":
        return cls(DepthKind.NOT_VIOLATED, stats=stats)

    @property
    def is_finite(self) -> bool:
        return self.kind == DepthKind.FINITE


def point_depth(poly: NormalizedPolyhedron, x) -> float:
    """Depth of a feasible point: the minimum row margin offsets - normals @ x.

    Returns +inf when the polyhedron has no inequality rows. Raises
    PointOutsideHull / PointOutsidePolyhedron when x is not a member within
    POINT_TOL.
    """
    x = as_vector(x, "x")
    if x.shape[0] != poly.dim:
        raise ValueError(f"x has length {x.shape[0]}, expected {poly.dim}")
    if not poly.space.contains(x, POINT_TOL):
        raise PointOutsideHull("x does not satisfy the affine-hull equalities")
    if poly.num_rows == 0:
        return math.inf
    margins = poly.offsets - poly.normals @ x
    worst = float(margins.min())
    if worst < -POINT_TOL:
        raise PointOutsidePolyhedron(f"x violates a row by {-worst:.3e}")
    # a member within POINT_TOL; roundoff below zero is a boundary point
    return max(worst, 0.0)


def cut_depth(poly: NormalizedPolyhedron, cut: Cut) -> DepthResult:
    """Depth of the cut coeffs @ x >= rhs with respect to the polyhedron.

    Finite with the optimum and an attaining point when the depth LP is
    bounded; Unbounded when it is not (the integer set is empty or the cut
    is invalid); NotViolated when the cut removes nothing. Raises
    EmptyPolyhedron when the polyhedron itself is infeasible.

    The depth LP is the body's cut-free program (poly.chebyshev, solved once
    per body) plus the cut row, so the cut is scored by re-optimizing that
    one row from the cached optimum. A body whose cut-free program is
    unbounded has no such optimum; there the depth LP is solved from scratch,
    on the dual side when it has more rows than columns (see _dual_side).
    """
    if cut.dim != poly.dim:
        raise ValueError(f"cut has dimension {cut.dim}, expected {poly.dim}")
    base = poly.chebyshev
    if base.status == lp.LpStatus.INFEASIBLE:
        raise EmptyPolyhedron("the polyhedron has no feasible point")
    if base.status == lp.LpStatus.OPTIMAL:
        row = np.zeros(base.program.num_cols)
        row[: poly.dim] = cut.coeffs
        outcome = lp.add_row(base, row, cut.rhs)
    elif (result := _dual_side(poly, cut)) is not None:
        return result
    else:
        outcome = lp.solve(poly.depth_program(cut))
    return _depth_result(outcome, poly.dim)


def cut_depth_standard_form(model: StandardFormModel, cut: Cut) -> DepthResult:
    """Depth of a cut over { x : A x = b, lower <= x <= upper }: cut_depth
    over model.body, the model's normalized rows, which are built and whose
    cut-free program is solved once per model."""
    return cut_depth(model.body, cut)


def from_standard_form(model: StandardFormModel) -> NormalizedPolyhedron:
    """Normalized polyhedron over the hull { x : A x = b } with one row per
    finite variable bound (see bound_rows)."""
    normals, offsets, dropped = bound_rows(model)
    return NormalizedPolyhedron(frozen(normals), frozen(offsets), model.space, dropped)


def _dual_side(poly: NormalizedPolyhedron, cut: Cut) -> DepthResult | None:
    """The depth read off an optimum of poly.dual_depth_program(cut), whose
    n + 1 rows make its tableau far smaller than the depth program's when
    the body has many rows. The deepest point x and lam are minus its row
    duals times the objective's scale. None, for the caller to solve the
    depth program directly, when that program (m + 1 + p rows on n + 1
    columns) has no more rows than columns, and unless the dual is optimal
    and (x, lam) certifies: every body row, the cut row and the hull hold to
    FEASIBILITY_TOL times their own scales, as in the solver's phase 1.
    Otherwise the depth program is infeasible or unbounded, or too close to
    it for the dual's answer to stand."""
    if poly.num_rows + poly.space.num_equalities <= poly.dim:
        return None
    program, scale = poly.dual_depth_program(cut)
    outcome = lp.solve(program)
    if outcome.status != lp.LpStatus.OPTIMAL:
        return None
    n = poly.dim
    # 0.0 - v and max(0.0, v) turn a -0.0 dual into +0.0
    x = 0.0 - scale * outcome.duals[:n]
    lam = max(0.0, -scale * float(outcome.duals[n]))
    tol = lp.FEASIBILITY_TOL
    size = np.abs(x)
    slack = poly.offsets - poly.normals @ x - lam
    if (slack < -tol * np.maximum(np.abs(poly.offsets), np.abs(poly.normals) @ size + lam)).any():
        return None
    if cut.rhs - cut.coeffs @ x < -tol * max(abs(cut.rhs), float(np.abs(cut.coeffs) @ size)):
        return None
    space = poly.space
    residual = np.abs(space.A @ x - space.b)
    if (residual > tol * np.maximum(np.abs(space.b), np.abs(space.A) @ size)).any():
        return None
    return DepthResult.finite(lam, x, replace(outcome.stats, dualized=True))


def _depth_result(outcome: lp.LpOutcome, n: int) -> DepthResult:
    """The depth read off a depth LP over (x, lam) whose body is known to
    be nonempty, because its cut-free program is feasible: so an infeasible
    depth LP means that the cut removes nothing."""
    if outcome.status == lp.LpStatus.INFEASIBLE:
        return DepthResult.not_violated(outcome.stats)
    if outcome.status == lp.LpStatus.UNBOUNDED:
        return DepthResult.unbounded(outcome.ray[:n], outcome.stats)
    return DepthResult.finite(max(outcome.objective, 0.0), outcome.x[:n], outcome.stats)


def volume_lower_bound(n: int, depth: float) -> float:
    """Half the volume of an n-ball of the given radius.

    Any point at this depth that a cut removes contributes at least such a
    half-ball to the removed volume.
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not (depth >= 0.0) or not math.isfinite(depth):
        raise ValueError(f"depth must be finite and >= 0, got {depth}")
    n = int(n)
    ball = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * depth**n
    return 0.5 * ball
