"""Worst-case constructions and the brute-force oracles that certify them.

Three generators live here: a lattice polytope that encloses an arbitrary
point within radius sqrt((n+1)/2); the exhaustive maximization showing that
radius is essentially tight for the construction; and a cone whose integer
hull has depth sqrt(3+n)/2, the deepest known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import CertificationError, DimensionTooLarge, DimensionTooSmall
from .linalg import as_vector
from .polyhedron import AffineSpace, Cut, HPolyhedron

# enumeration over {0,1}^n vertex sets
MAX_ENUMERATION_DIM = 20
# exhaustive pair search is 4^n
MAX_BRUTEFORCE_DIM = 16
# the cone has 2^(n-1) facets
MAX_CONE_DIM = 12

_CONTAINMENT_TOL = 1e-8

_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _popcount(codes: np.ndarray) -> np.ndarray:
    return _POP8[codes & 0xFF] + _POP8[(codes >> 8) & 0xFF] + _POP8[(codes >> 16) & 0xFF]


def _bit_grid(n: int) -> np.ndarray:
    """All of {0,1}^n as a (2^n, n) float array, in code order."""
    codes = np.arange(1 << n, dtype=np.int64)
    return ((codes[:, None] >> np.arange(n)) & 1).astype(float)


@dataclass(frozen=True, eq=False)
class LatticePolytope:
    """A lattice polytope containing `point`, all of whose vertices stay
    strictly within radius sqrt((n+1)/2) of it.

    Built by shifting the point into the unit box, mirroring coordinates
    above one half, and capping the coordinate sum of the 0/1 vertex set;
    reflections and cap record that construction.
    """

    point: np.ndarray
    reflections: np.ndarray
    cap: int
    vertices: np.ndarray

    @property
    def dim(self) -> int:
        return self.point.shape[0]


def enclosing_lattice_polytope(y) -> LatticePolytope:
    """Construct and certify the enclosing lattice polytope for y.

    Certifies both invariants before returning: every vertex distance is
    strictly below sqrt((n+1)/2), and y is a convex combination of the
    vertices (LP feasibility, residuals within 1e-8).
    """
    y = as_vector(y, "y")
    n = y.shape[0]
    if n < 2:
        raise DimensionTooSmall(f"construction requires n >= 2, got {n}")
    if n > MAX_ENUMERATION_DIM:
        raise DimensionTooLarge(
            f"vertex enumeration over {{0,1}}^{n} exceeds the {MAX_ENUMERATION_DIM} cap"
        )
    shifts = np.floor(y)
    inside = y - shifts
    reflections = (inside > 0.5).astype(np.int64)
    mirrored = np.where(reflections == 1, 1.0 - inside, inside)
    total = float(mirrored.sum())
    cap = int(round(total)) if abs(total - round(total)) < 1e-9 else math.ceil(total)
    grid = _bit_grid(n)
    kept = grid[grid.sum(axis=1) <= cap]
    vertices = np.where(reflections == 1, 1.0 - kept, kept) + shifts

    bound = math.sqrt((n + 1) / 2.0)
    worst = float(np.linalg.norm(vertices - y, axis=1).max())
    if worst >= bound:
        raise CertificationError(
            f"vertex at distance {worst} violates the radius bound {bound}"
        )
    _certify_containment(vertices, y)
    return LatticePolytope(y, reflections, cap, vertices)


def _certify_containment(vertices: np.ndarray, y: np.ndarray) -> None:
    """LP feasibility: y must be a convex combination of the vertices."""
    count, n = vertices.shape
    A = np.vstack([vertices.T, np.ones(count)])
    rhs = np.append(y, 1.0)
    program = lp.LinearProgram(
        np.zeros(count),
        A,
        (lp.EQUAL,) * (n + 1),
        rhs,
        (lp.NONNEGATIVE,) * count,
    )
    out = lp.solve(program)
    if out.status != lp.LpStatus.OPTIMAL:
        raise CertificationError("query point is not inside the vertex hull")
    resid = float(np.abs(A @ out.x - rhs).max())
    if resid > _CONTAINMENT_TOL:
        raise CertificationError(f"containment residual {resid} exceeds {_CONTAINMENT_TOL}")


def max_distance_bruteforce(n: int) -> float:
    """Exhaustive maximum of the squared distance between a mirrored point
    (coordinates in {0, 1/2}) and a capped 0/1 vertex.

    Every pair (point code, vertex code) is evaluated; the vertex is
    feasible when its coordinate sum stays within the point's sum ceiling.
    """
    if n < 2:
        raise DimensionTooSmall(f"search requires n >= 2, got {n}")
    if n > MAX_BRUTEFORCE_DIM:
        raise DimensionTooLarge(
            f"4^{n} pair enumeration exceeds the {MAX_BRUTEFORCE_DIM} cap"
        )
    codes = np.arange(1 << n, dtype=np.int64)
    ones = _popcount(codes)
    best = 0.0
    for ycode in range(1 << n):
        half_count = int(ones[ycode])
        cap = (half_count + 1) // 2  # ceil of half_count / 2
        feasible = ones <= cap
        overlap = _popcount(codes & ycode)
        # squared distance: 1/4 per half-coordinate, 1 per one outside them
        d2 = 0.25 * half_count + (ones - overlap)
        value = float(d2[feasible].max())
        if value > best:
            best = value
    return best


def max_distance_greedy(n: int) -> float:
    """The same maximum from the direct greedy construction: k full-unit
    coordinates with k = floor((n+1)/3), the rest contributing 1/4 each."""
    if n < 2:
        raise DimensionTooSmall(f"construction requires n >= 2, got {n}")
    k = (n + 1) // 3
    return k + 0.25 * (n - k)


@dataclass(frozen=True, eq=False)
class ConeConstruction:
    """A full-dimensional cone whose integer hull is deep, together with the
    point witnessing the depth and the valid cut attaining it."""

    polyhedron: HPolyhedron
    reference_point: np.ndarray
    cut: Cut

    @property
    def dim(self) -> int:
        return self.polyhedron.A.shape[1]


def depth_lower_bound_cone(n: int, epsilon: float) -> ConeConstruction:
    """Cone over 2^(n-1) facets whose first coordinate is capped near 1.

    Facet j is (1, t - 1/2) for t in {0,1}^(n-1) with right-hand side
    1 + |t|_1 / 2 - epsilon; every integer point satisfies x_1 <= 0, so the
    cut -x_1 >= 0 is valid and its depth approaches sqrt(3+n)/2 as epsilon
    vanishes.
    """
    if n < 2:
        raise DimensionTooSmall(f"construction requires n >= 2, got {n}")
    if n > MAX_CONE_DIM:
        raise DimensionTooLarge(
            f"2^{n - 1} facets exceed the {MAX_CONE_DIM}-dimension cap"
        )
    if not (0.0 < epsilon < 0.25):
        raise ValueError(f"epsilon must lie in (0, 0.25), got {epsilon}")
    tags = _bit_grid(n - 1)
    A = np.column_stack([np.ones(tags.shape[0]), tags - 0.5])
    b = 1.0 + 0.5 * tags.sum(axis=1) - epsilon
    poly = HPolyhedron(A, b, AffineSpace.full_space(n))
    reference = np.full(n, 0.5)
    reference[0] = 1.0
    coeffs = np.zeros(n)
    coeffs[0] = -1.0
    return ConeConstruction(poly, reference, Cut(coeffs, 0.0))
