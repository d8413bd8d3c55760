"""Corner relaxations as translated simple pointed cones.

A corner is given by a fractional base point f and a tableau R with
x = f + R s, s >= 0. Its LP relaxation has the vertex (f, 0) and one
recession ray per nonbasic variable, so cut depth reduces to a closed
form: the vertex of the shrunken body moves linearly along a fixed
direction, read off the body's rows, until it crosses the cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .depth import DepthResult, from_standard_form
from .errors import Singular
# unused here: kept because benchmarks/tracer.py wraps cutdepth.corner.solve_square
from .linalg import as_matrix, as_vector, solve_square  # noqa: F401
from .polyhedron import AffineSpace, NormalizedPolyhedron, StandardFormModel

INTEGRALITY_TOL = 1e-9
# sign tolerances in the unboundedness / violation case analysis
RAY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CornerData:
    """x = base_point + tableau @ s with s >= 0.

    base_point must have a fractional entry whenever it is non-empty; the
    zero-row case (no basic variables) encodes a plain orthant over s.
    """

    base_point: np.ndarray
    tableau: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base_point", as_vector(self.base_point, "base_point"))
        object.__setattr__(self, "tableau", as_matrix(self.tableau, "tableau"))
        m = self.base_point.shape[0]
        if self.tableau.shape[0] != m:
            raise ValueError(
                f"tableau has {self.tableau.shape[0]} rows, expected {m}"
            )
        if m:
            frac = np.abs(self.base_point - np.round(self.base_point))
            if float(frac.max()) <= INTEGRALITY_TOL:
                raise ValueError(
                    "base_point is integral; the corner carries no fractionality"
                )

    @property
    def num_basic(self) -> int:
        return self.base_point.shape[0]

    @property
    def num_nonbasic(self) -> int:
        return self.tableau.shape[1]


def standard_form_model(data: CornerData) -> StandardFormModel:
    """The corner relaxation over variables (x, s): x - R s = f, s >= 0."""
    m, n = data.num_basic, data.num_nonbasic
    A = np.hstack([np.eye(m), -data.tableau])
    space = AffineSpace(A, data.base_point)
    lower = np.concatenate([np.full(m, -math.inf), np.zeros(n)])
    upper = np.full(m + n, math.inf)
    return StandardFormModel(space, lower, upper)


@dataclass(frozen=True, eq=False)
class CornerCone:
    """The relaxation's vertex, shrink direction, and recession rays.

    Every row is tight at the vertex (f, 0). Ray j is (tableau column j, e_j)
    in (x, s) coordinates, and row j, the bound s_j >= 0 projected onto the
    hull, is orthogonal to every other ray; so q = rays @ w with
    w_j = -1 / (row j @ ray j) has normals @ q = -1, and the vertex of the
    body shrunk by lam is vertex + lam * depth_direction.
    """

    body: NormalizedPolyhedron
    vertex: np.ndarray
    depth_direction: np.ndarray
    rays: np.ndarray

    @property
    def num_basic(self) -> int:
        return self.body.dim - self.rays.shape[1]

    @property
    def num_nonbasic(self) -> int:
        return self.rays.shape[1]

    @property
    def dim(self) -> int:
        return self.body.dim


def build_corner(data: CornerData) -> CornerCone:
    """Assemble the cone: normalized body, vertex, and depth direction."""
    model = standard_form_model(data)
    body = from_standard_form(model)
    n = data.num_nonbasic
    if body.num_rows != n:
        raise Singular(
            f"expected {n} inequality rows for a simple cone, got {body.num_rows}"
        )
    rays = np.vstack([data.tableau, np.eye(n)])
    vertex = np.concatenate([data.base_point, np.zeros(n)])
    depth_direction = rays @ (-1.0 / np.einsum("ij,ji->i", body.normals, rays))
    return CornerCone(body, vertex, depth_direction, rays)


def embed_cut_coeffs(corner: CornerData | CornerCone, coeffs: np.ndarray) -> np.ndarray:
    """Lift cut coefficients to (x, s) space; s-space cuts get zero
    coefficients on the basic variables."""
    coeffs = as_vector(coeffs, "coeffs")
    m, n = corner.num_basic, corner.num_nonbasic
    if coeffs.shape[0] == m + n:
        return coeffs
    if coeffs.shape[0] == n:
        return np.concatenate([np.zeros(m), coeffs])
    raise ValueError(f"cut has dimension {coeffs.shape[0]}, expected {n} or {m + n}")


def corner_cut_depth(cone: CornerCone, cut) -> DepthResult:
    """Closed-form depth of coeffs @ x >= rhs over the corner relaxation.

    Cases: a recession ray on which the cut decreases makes the depth
    unbounded; a vertex already violating the cut means nothing is removed;
    a depth direction that never reaches the cut is unbounded again;
    otherwise the crossing point gives the depth directly.
    """
    alpha = embed_cut_coeffs(cone, cut.coeffs)
    beta = float(cut.rhs)
    ray_products = alpha @ cone.rays
    worst = int(np.argmin(ray_products))
    if ray_products[worst] < -RAY_TOL:
        return DepthResult.unbounded(ray=cone.rays[:, worst].copy())
    at_vertex = float(alpha @ cone.vertex)
    if at_vertex > beta + RAY_TOL:
        return DepthResult.not_violated()
    along = float(alpha @ cone.depth_direction)
    if along <= RAY_TOL:
        return DepthResult.unbounded(ray=cone.depth_direction.copy())
    lam = max((beta - at_vertex) / along, 0.0)
    return DepthResult.finite(lam, cone.vertex + lam * cone.depth_direction)
