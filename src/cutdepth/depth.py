"""Depth computations: point depth in closed form, cut depth by LP.

The depth of a point is its distance to the boundary measured inside the
affine hull; the depth of a cut is the largest depth among the points it
removes. For a normalized polyhedron the former is a row-margin minimum
and the latter is a linear program over the shrunken bodies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import lp
from .errors import EmptyPolyhedron, NumericOverflow, PointOutsideHull, PointOutsidePolyhedron
from .linalg import as_vector, frozen
from .polyhedron import Cut, NormalizedPolyhedron, StandardFormModel, bound_rows

# membership tolerance for point queries, relative to each row's scale
POINT_TOL = 1e-7


class DepthKind(Enum):
    FINITE = "finite"
    UNBOUNDED = "unbounded"
    NOT_VIOLATED = "not-violated"


@dataclass(frozen=True, eq=False)
class DepthResult:
    """Outcome of a cut-depth computation.

    Finite results carry the value and, when the LP attained it, a deepest
    removed point. Unbounded results surface a ray along which removed
    points of arbitrary depth exist: from the corner closed form or a
    re-priced unit-depth slice, a recession direction of the body on which
    the cut decreases; from a depth LP solved as written, the LP's
    improving ray over x. LP results carry the SolveStats of the solve that
    produced them; a cut re-optimized from the body's cached optimum shows
    dual pivots only, no phase 1 or 2 pivots, and none at all when it
    removes the cached Chebyshev centre, which is then its deepest point
    (lp.add_row answers it in O(n), with no tableau copy). One read off a
    dual has dualized set: the dual of a tall cone's unit-depth slice (a
    finite or not-violated cut, certified by its duality gap; see
    _slice_depth), or the dual of the depth LP. One that re-priced the
    cached vertex of any other cone's unit-depth slice shows phase 2 pivots
    only, and on a simplicial cone none at all, whatever its kind.
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
    PointOutsideHull / PointOutsidePolyhedron when a hull residual or a
    row's violation exceeds POINT_TOL times its lp.row_scale, so that
    membership depends neither on the data's scale nor on where it lies.
    """
    x = as_vector(x, "x")
    if x.shape[0] != poly.dim:
        raise ValueError(f"x has length {x.shape[0]}, expected {poly.dim}")
    space = poly.space
    if (np.abs(space.b - space.A @ x) > POINT_TOL * lp.row_scale(space.A, space.b, x)).any():
        raise PointOutsideHull("x does not satisfy the affine-hull equalities")
    if poly.num_rows == 0:
        return math.inf
    margins = poly.offsets - poly.normals @ x
    worst = float(margins.min())
    if (margins < -POINT_TOL * lp.row_scale(poly.normals, poly.offsets, x)).any():
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
    unbounded has no such optimum. When all its rows are tight at one apex
    (poly.unit_slice, built on its first cut), the cut is scored by the
    corner closed form generalized to its unit-depth slice (_slice_depth):
    a tall body (more rows, hull rows included, than columns) makes one
    n-row solve of the slice's cached dual, any other re-prices one cached
    vertex of the slice program, with no pivot and no tableau copy on a
    simplicial cone. A re-price that proves the depth unbounded gives the
    ray too; a tall body's slice leaves the depth LP to solve as written,
    for the ray. Otherwise, or when the slice's answer or ray does not
    check out, the depth LP is solved from scratch, through its LP dual
    when that certifies an optimum (lp.solve_dual).
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
    else:
        result = _slice_depth(poly, cut)
        if result is not None:
            return result
        program = poly.depth_program(cut)
        outcome = lp.solve_dual(program) or lp.solve(program)
    return _depth_result(outcome, poly.dim)


def _slice_depth(poly: NormalizedPolyhedron, cut: Cut) -> DepthResult | None:
    """The depth of a cut over apex + lam * K1 (poly.unit_slice), or None
    for the caller to solve the depth program.

    With delta = rhs - coeffs @ apex and mu = min coeffs @ z over K1, the
    removed points reach depth delta / mu: the corner closed form, with the
    corner's one depth direction replaced by the slice program's optimum z.
    mu comes from the slice program with the objective -coeffs: on a tall
    body from its cached dual with the rhs swapped (lp.read_dual), on any
    other by re-pricing its cached vertex (lp.reprice). The optimum must
    certify itself: close its duality gap (lp.gap_closes) and meet the
    slice rows (lp.feasible), which unit_slice checked once for the cached
    vertex and which a re-price checks again only when a pivot moved z.
    mu must be clearly positive: above FEASIBILITY_TOL times
    |coeffs| @ |z|. A cut that misses the apex by more than FEASIBILITY_TOL
    times max(|rhs|, |coeffs| @ |apex|) removes nothing; any other has
    depth max(delta, 0) / mu at apex + lam * z.

    When the slice program is unbounded, so is the depth. A re-price's ray
    r over z is the answer's ray when it checks out as a recession
    direction of the body on which the cut decreases (_is_descent_ray),
    else None; a tall body's dual gives no ray, so the depth program,
    solved as written, gives it.
    """
    unit = poly.unit_slice
    if unit is None:
        return None
    objective = frozen(-cut.coeffs)
    if unit.vertex is None:
        dual, scale = unit.dual
        dual = dual.with_rhs(objective)
        answer = lp.solve(dual)
        if answer.status == lp.LpStatus.INFEASIBLE:
            return _depth_result(lp.solve(poly.depth_program(cut)), poly.dim)
        outcome = lp.read_dual(unit.program.with_objective(objective), (dual, scale), answer)
        if outcome is None:
            return None
    else:
        outcome = lp.reprice(unit.vertex, objective)
        if outcome.status == lp.LpStatus.UNBOUNDED:
            if not _is_descent_ray(poly, cut.coeffs, outcome.ray):
                return None
            return DepthResult.unbounded(outcome.ray, outcome.stats)
        if outcome.stats.phase2_pivots:
            # the slice program's = rows are the hull rows, after the body's
            equal = np.arange(unit.program.num_rows) >= poly.num_rows
            if not lp.feasible(outcome.program, outcome.x, equal):
                return None
        if not lp.gap_closes(outcome.program, outcome.x, outcome.duals):
            return None
    z = outcome.x
    mu = -outcome.objective
    abs_coeffs = np.abs(cut.coeffs)
    if not mu > lp.FEASIBILITY_TOL * float(abs_coeffs @ np.abs(z)):
        return None
    delta = cut.rhs - float(cut.coeffs @ unit.apex)
    if delta < -lp.FEASIBILITY_TOL * max(abs(cut.rhs), float(abs_coeffs @ np.abs(unit.apex))):
        return DepthResult.not_violated(outcome.stats)
    lam = max(delta, 0.0) / mu
    if not math.isfinite(lam):
        raise NumericOverflow("the cut's depth overflows; rescale the cut")
    return DepthResult.finite(lam, unit.apex + lam * z, outcome.stats)


def _is_descent_ray(poly: NormalizedPolyhedron, coeffs: np.ndarray, ray: np.ndarray) -> bool:
    """Whether ray is a recession direction of the body on which the cut
    decreases: normals @ ray <= 0, space.A @ ray = 0 and coeffs @ ray < 0,
    each beyond roundoff, lp._ROUNDOFF times |row|_1 |ray|_inf: the scale of
    the error that a computed ray's entries carry, as unit_slice allows the
    apex."""
    size = lp._ROUNDOFF * np.abs(ray).max(initial=0.0)
    hull = poly.space.A
    return bool(
        (poly.normals @ ray <= size * np.abs(poly.normals).sum(axis=1)).all()
        and (np.abs(hull @ ray) <= size * np.abs(hull).sum(axis=1)).all()
        and coeffs @ ray < -size * np.abs(coeffs).sum()
    )


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
