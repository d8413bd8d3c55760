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
    return worst


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
        outcome = lp.add_row(base, np.append(cut.coeffs, 0.0), cut.rhs)
    else:
        # the depth program has m + 1 + p rows on n + 1 columns
        if poly.num_rows + poly.space.num_equalities > poly.dim:
            result = _dual_side(poly, cut)
            if result is not None:
                return result
        outcome = lp.solve(poly.depth_program(cut))
    return _depth_result(outcome, poly.dim)


def _dual_side(poly: NormalizedPolyhedron, cut: Cut) -> DepthResult | None:
    """The depth read off an optimum of poly.dual_depth_program(cut), whose
    n + 1 rows make its tableau far smaller than the depth program's when
    the body has many rows. The deepest point x and lam are minus its row
    duals times the objective's scale. None unless the dual is optimal and
    (x, lam) certifies: every body row, the cut row and the hull hold to
    FEASIBILITY_TOL times their own scales, as in the solver's phase 1. The
    depth program is then infeasible or unbounded, or too close to it for
    the dual's answer to stand, and the caller solves it directly."""
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
    """The depth read off a depth LP over (x, lam, ...) whose polyhedron is
    known to be nonempty."""
    if outcome.status == lp.LpStatus.INFEASIBLE:
        return DepthResult.not_violated(outcome.stats)
    if outcome.status == lp.LpStatus.UNBOUNDED:
        return DepthResult.unbounded(outcome.ray[:n], outcome.stats)
    return DepthResult.finite(max(outcome.objective, 0.0), outcome.x[:n], outcome.stats)


def _standard_form_program(
    model: StandardFormModel, cut: Cut | None
) -> lp.LinearProgram:
    """The sparse-friendly depth LP over a standard-form model.

    Equality rows are kept untouched; every finite bound contributes one row
    x_j -/+ |gamma_j| lam -/+ slack = bound. Variables are
    (x, lam, one slack per bound row); cut is None for plain feasibility.
    """
    rows, _ = bound_rows(model)
    n = model.dim
    space = model.space
    p = space.num_equalities
    k = len(rows)
    num_rows = k + p + (1 if cut is not None else 0)
    num_cols = n + 1 + k
    A = np.zeros((num_rows, num_cols))
    rhs = np.zeros(num_rows)
    relations: list[str] = []
    for i, r in enumerate(rows):
        A[i, r.var] = 1.0
        sign = 1.0 if r.is_upper else -1.0
        A[i, n] = sign * r.norm
        A[i, n + 1 + i] = sign
        rhs[i] = r.value
        relations.append(lp.EQUAL)
    if p:
        A[k : k + p, :n] = space.A
        rhs[k : k + p] = space.b
    relations += [lp.EQUAL] * p
    if cut is not None:
        A[k + p, :n] = cut.coeffs
        rhs[k + p] = cut.rhs
        relations.append(lp.LESS_EQUAL)
    objective = np.zeros(num_cols)
    objective[n] = 1.0
    domains = (lp.FREE,) * n + (lp.NONNEGATIVE,) * (1 + k)
    return lp.LinearProgram(frozen(objective), frozen(A), tuple(relations), frozen(rhs), domains)


def cut_depth_standard_form(model: StandardFormModel, cut: Cut) -> DepthResult:
    """Depth of a cut over { x : A x = b, lower <= x <= upper }.

    Agrees with cut_depth over from_standard_form(model); the formulation
    here keeps the equality rows intact and attaches the shrink variable to
    the bound rows only.
    """
    if cut.dim != model.dim:
        raise ValueError(f"cut has dimension {cut.dim}, expected {model.dim}")
    outcome = lp.solve(_standard_form_program(model, cut))
    if outcome.status == lp.LpStatus.INFEASIBLE:
        feas = lp.solve(_standard_form_program(model, None))
        if feas.status == lp.LpStatus.INFEASIBLE:
            raise EmptyPolyhedron("the model has no feasible point")
    return _depth_result(outcome, model.dim)


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
