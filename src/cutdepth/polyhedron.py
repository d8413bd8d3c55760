"""Polyhedron representations and normalization onto an affine hull.

A polyhedron is given either in inequality form { x in hull : A x <= b } or
in solver standard form { x : A x = b, lower <= x <= upper }. Both are
rewritten over the hull with unit-norm, in-hull constraint rows, which is
the form every depth computation consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lp
from .errors import DegenerateConstraint
from .linalg import as_matrix, as_vector, cholesky_factor, cholesky_solve_factored, frozen

# Rows whose projected normal is shorter than this are orthogonal to the hull.
DEGENERATE_NORM_TOL = 1e-10
# Unit-norm and in-hull tolerances for normalized rows; the in-hull one
# bounds the cosine between a normalized row and each hull row.
UNIT_NORM_TOL = 1e-10
IN_HULL_TOL = 1e-9
# Tolerance when checking a fixed variable's implied value against its bound.
IMPLIED_BOUND_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AffineSpace:
    """The affine space { x : A x = b } with A of full row rank (p may be 0)."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", as_matrix(self.A, "A"))
        object.__setattr__(self, "b", as_vector(self.b, "b"))
        if self.b.shape[0] != self.A.shape[0]:
            raise ValueError(
                f"b has length {self.b.shape[0]}, expected {self.A.shape[0]}"
            )
        # full row rank is certified by the Cholesky factorization succeeding
        self.gram_factor

    @classmethod
    def full_space(cls, n: int) -> "AffineSpace":
        return cls(np.zeros((0, n)), np.zeros(0))

    @property
    def dim(self) -> int:
        """Ambient dimension n."""
        return self.A.shape[1]

    @property
    def num_equalities(self) -> int:
        return self.A.shape[0]

    @cached_property
    def gram_factor(self) -> np.ndarray:
        """Cholesky factor of A A^T, shared by all projections onto the hull."""
        return cholesky_factor(self.A @ self.A.T)


def _project_rows(space: AffineSpace, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project every row a_i of rows onto the direction space { d : A d = 0 }.

    Returns (gammas, mus) with gamma_i = a_i + A^T mu_i and A gamma_i = 0,
    from one multi-right-hand-side solve. On the hull, gamma_i @ x =
    a_i @ x + mu_i @ b, which is what turns right-hand sides into
    hull-relative offsets.
    """
    if space.num_equalities == 0:
        return rows.copy(), np.zeros((rows.shape[0], 0))
    mus = cholesky_solve_factored(space.gram_factor, -(space.A @ rows.T)).T
    gammas = mus @ space.A
    gammas += rows
    return gammas, mus


def project_onto_direction_space(space: AffineSpace, a) -> np.ndarray:
    """Component of a lying in the direction space of the affine hull."""
    a = as_vector(a, "a")
    if a.shape[0] != space.dim:
        raise ValueError(f"a has length {a.shape[0]}, expected {space.dim}")
    gammas, _ = _project_rows(space, a[None, :])
    return gammas[0]


@dataclass(frozen=True, eq=False)
class HPolyhedron:
    """{ x in space : A x <= b }."""

    A: np.ndarray
    b: np.ndarray
    space: AffineSpace

    def __post_init__(self):
        object.__setattr__(self, "A", as_matrix(self.A, "A"))
        object.__setattr__(self, "b", as_vector(self.b, "b"))
        if self.A.shape[1] != self.space.dim:
            raise ValueError(
                f"A has {self.A.shape[1]} columns, expected {self.space.dim}"
            )
        if self.b.shape[0] != self.A.shape[0]:
            raise ValueError(
                f"b has length {self.b.shape[0]}, expected {self.A.shape[0]}"
            )

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class NormalizedPolyhedron:
    """{ x in space : normals @ x <= offsets } with unit-norm in-hull rows."""

    normals: np.ndarray
    offsets: np.ndarray
    space: AffineSpace
    # rows for bounds on variables fixed by the equalities are dropped; this
    # counter records how many (presolve-style diagnostic)
    dropped_bounds: int = 0

    def __post_init__(self):
        object.__setattr__(self, "normals", as_matrix(self.normals, "normals"))
        object.__setattr__(self, "offsets", as_vector(self.offsets, "offsets"))
        if self.normals.shape[1] != self.space.dim:
            raise ValueError(
                f"normals have {self.normals.shape[1]} columns, expected {self.space.dim}"
            )
        if self.offsets.shape[0] != self.normals.shape[0]:
            raise ValueError(
                f"offsets have length {self.offsets.shape[0]}, "
                f"expected {self.normals.shape[0]}"
            )
        if self.num_rows:
            # einsum builds no full-size squared copy, unlike np.linalg.norm
            norms = np.sqrt(np.einsum("ij,ij->i", self.normals, self.normals))
            if float(np.abs(norms - 1.0).max()) > UNIT_NORM_TOL:
                raise ValueError("normalized rows must have unit Euclidean norm")
            if self.space.num_equalities:
                A = self.space.A
                hull_norms = np.sqrt(np.einsum("ij,ij->i", A, A))
                if (np.abs(A @ self.normals.T) > IN_HULL_TOL * hull_norms[:, None]).any():
                    raise ValueError("normalized rows must lie in the hull's direction space")

    @property
    def num_rows(self) -> int:
        return self.normals.shape[0]

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def depth_program(self, cut: "Cut | None" = None) -> lp.LinearProgram:
        """max lam s.t. normals @ x + lam <= offsets, cut.coeffs @ x <= cut.rhs
        when a cut is given, x on the hull, lam >= 0. Variables are (x, lam)."""
        n = self.dim
        m = self.num_rows
        k = m + (cut is not None)
        p = self.space.num_equalities
        A = np.zeros((k + p, n + 1))
        rhs = np.zeros(k + p)
        A[:m, :n] = self.normals
        A[:m, n] = 1.0
        rhs[:m] = self.offsets
        if cut is not None:
            A[m, :n] = cut.coeffs
            rhs[m] = cut.rhs
        A[k:, :n] = self.space.A
        rhs[k:] = self.space.b
        objective = np.zeros(n + 1)
        objective[n] = 1.0
        relations = (lp.LESS_EQUAL,) * k + (lp.EQUAL,) * p
        domains = (lp.FREE,) * n + (lp.NONNEGATIVE,)
        return lp.LinearProgram(frozen(objective), frozen(A), relations, frozen(rhs), domains)

    @cached_property
    def chebyshev(self) -> lp.LpOutcome:
        """The cut-free depth program, solved on first use: optimal at a
        Chebyshev centre with the body's depth (the largest depth of any
        point), unbounded when points of any depth exist, infeasible when
        the body is empty. Its optimal tableau is the warm start of every
        cut-depth LP over the body."""
        return lp.solve(self.depth_program())


def normalize(poly: HPolyhedron) -> NormalizedPolyhedron:
    """Rewrite an inequality-form polyhedron with unit-norm in-hull rows.

    Row i becomes gamma_i / |gamma_i| with offset (b_i + mu_i @ space.b) / |gamma_i|,
    where gamma_i is the projection of the i-th normal onto the direction
    space. Raises DegenerateConstraint for rows orthogonal to the hull.
    """
    space = poly.space
    gammas, mus = _project_rows(space, poly.A)
    norms = np.linalg.norm(gammas, axis=1)
    degenerate = np.flatnonzero(norms < DEGENERATE_NORM_TOL)
    if degenerate.size:
        raise DegenerateConstraint(
            f"row {degenerate[0]}: normal is orthogonal to the affine hull"
        )
    offsets = (poly.b + mus @ space.b) / norms
    gammas /= norms[:, None]
    return NormalizedPolyhedron(frozen(gammas), frozen(offsets), space)


def shrink(poly: NormalizedPolyhedron, lam: float) -> NormalizedPolyhedron:
    """The body of points at depth >= lam: offsets move inward by lam."""
    if not (lam >= 0.0) or not math.isfinite(lam):
        raise ValueError(f"lam must be a finite value >= 0, got {lam}")
    return NormalizedPolyhedron(
        poly.normals, frozen(poly.offsets - lam), poly.space, poly.dropped_bounds
    )


@dataclass(frozen=True, eq=False)
class StandardFormModel:
    """Solver-style input { x : A x = b, lower <= x <= upper }.

    Bound entries may be -inf / +inf; infinity handling is confined to
    bound_rows below. Depth is measured over body, the model rewritten as a
    NormalizedPolyhedron with one unit row per finite bound.
    """

    space: AffineSpace
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", as_vector(self.lower, "lower", allow_infinite=True))
        object.__setattr__(self, "upper", as_vector(self.upper, "upper", allow_infinite=True))
        n = self.space.dim
        if self.lower.shape[0] != n or self.upper.shape[0] != n:
            raise ValueError(
                f"bounds have lengths {self.lower.shape[0]}/{self.upper.shape[0]}, expected {n}"
            )
        if np.any(self.lower > self.upper):
            raise ValueError("lower bounds must not exceed upper bounds")
        if np.any(self.lower == math.inf) or np.any(self.upper == -math.inf):
            raise ValueError("bounds must leave a non-empty interval per variable")

    @property
    def dim(self) -> int:
        return self.space.dim

    @cached_property
    def body(self) -> NormalizedPolyhedron:
        """from_standard_form(self), built on first use; its chebyshev is
        the model's one cut-free depth solve, shared by every cut."""
        # from_standard_form lives in depth.py, so that the bound projection
        # is a call to depth.bound_rows, the name benchmarks/tracer.py wraps;
        # the import is deferred because depth imports this module
        from .depth import from_standard_form

        return from_standard_form(self)


def bound_rows(model: StandardFormModel) -> tuple[np.ndarray, np.ndarray, int]:
    """Unit normals and offsets of one in-hull row per finite bound, for each
    variable its lower row before its upper row, plus the dropped-row count.

    A bound's row is the coordinate direction projected onto the hull's
    direction space and scaled to unit length. Variables fixed by the
    equalities (that projection is zero) get no row: their implied value is
    checked against the bound and the row is dropped if implied, while a
    violated bound raises DegenerateConstraint.
    """
    space = model.space
    bounded = np.flatnonzero((model.lower > -math.inf) | (model.upper < math.inf))
    gammas, mus = _project_rows(space, np.eye(space.dim)[bounded])
    norms = np.linalg.norm(gammas, axis=1)
    shifts = mus @ space.b
    bounds = np.column_stack([model.lower[bounded], model.upper[bounded]])
    fixed = norms < DEGENERATE_NORM_TOL
    implied = -shifts  # e_j = -A^T mu, so x_j = -mu @ b on the hull
    violated = fixed[:, None] & np.column_stack(
        [implied < bounds[:, 0] - IMPLIED_BOUND_TOL, implied > bounds[:, 1] + IMPLIED_BOUND_TOL]
    )
    if violated.any():
        i, upper = np.argwhere(violated)[0]
        raise DegenerateConstraint(
            f"variable {int(bounded[i])} is fixed to {float(implied[i])} by the equalities, "
            f"violating its {'upper' if upper else 'lower'} bound {float(bounds[i, upper])}"
        )
    finite = np.isfinite(bounds)
    dropped = int(finite[fixed].sum())
    finite[fixed] = False
    # row-major: for each variable, the lower row and then the upper row
    var, upper = np.nonzero(finite)
    sign = np.where(upper, 1.0, -1.0)
    normals = gammas[var] / norms[var, None] * sign[:, None]
    offsets = (bounds[var, upper] + shifts[var]) / norms[var] * sign
    return normals, offsets, dropped


@dataclass(frozen=True, eq=False)
class Cut:
    """The inequality coeffs @ x >= rhs."""

    coeffs: np.ndarray
    rhs: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", as_vector(self.coeffs, "coeffs"))
        object.__setattr__(self, "rhs", float(self.rhs))
        if not math.isfinite(self.rhs):
            raise ValueError("cut right-hand side must be finite")
        if not np.any(self.coeffs != 0.0):
            raise ValueError("cut coefficients must not all be zero")

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]
