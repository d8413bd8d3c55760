"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's own solvers where that
would make a check circular: vertex enumeration uses numpy solves, the
depth bisection drives shrink-feasibility directly, and the standard-form
depth is solved by SciPy's HiGHS in the model's own variables, and the
depth over a normalized body by HiGHS on its rows.
"""

import itertools
import math

import numpy as np
import pytest

from cutdepth import lp
from cutdepth.depth import DepthKind
from cutdepth.polyhedron import Cut, NormalizedPolyhedron, StandardFormModel, shrink


def lp_optimum_by_vertex_enumeration(program: lp.LinearProgram):
    """Optimal value of a bounded LP by enumerating candidate vertices.

    Stacks the relation rows with x_j = 0 hyperplanes for nonnegative
    variables, solves every n-subset, keeps feasible solutions, and returns
    (best value, best point) or None when no feasible vertex exists.
    """
    m, n = program.A.shape
    planes = [(program.A[i], program.rhs[i]) for i in range(m)]
    for j, dom in enumerate(program.domains):
        if dom == lp.NONNEGATIVE:
            e = np.zeros(n)
            e[j] = 1.0
            planes.append((e, 0.0))
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        A_sub = np.array([planes[k][0] for k in combo])
        b_sub = np.array([planes[k][1] for k in combo])
        try:
            x = np.linalg.solve(A_sub, b_sub)
        except np.linalg.LinAlgError:
            continue
        if not _feasible(program, x):
            continue
        value = float(program.objective @ x)
        if best is None or value > best[0]:
            best = (value, x)
    return best


def _feasible(program: lp.LinearProgram, x: np.ndarray, tol: float = 1e-9) -> bool:
    lhs = program.A @ x
    for i, rel in enumerate(program.relations):
        if rel == lp.LESS_EQUAL and lhs[i] > program.rhs[i] + tol:
            return False
        if rel == lp.GREATER_EQUAL and lhs[i] < program.rhs[i] - tol:
            return False
        if rel == lp.EQUAL and abs(lhs[i] - program.rhs[i]) > tol:
            return False
    for j, dom in enumerate(program.domains):
        if dom == lp.NONNEGATIVE and x[j] < -tol:
            return False
    return True


def assert_outcome_invariants(program: lp.LinearProgram, outcome: lp.LpOutcome):
    """Check the solve-result contract: feasibility of optimal points within
    1e-7 and row-consistency of unbounded rays within 1e-9."""
    if outcome.status == lp.LpStatus.OPTIMAL:
        assert _feasible(program, outcome.x, tol=1e-7)
        assert outcome.objective == float(program.objective @ outcome.x)
    elif outcome.status == lp.LpStatus.UNBOUNDED:
        assert _feasible(program, outcome.x, tol=1e-7)
        lhs = program.A @ outcome.ray
        for i, rel in enumerate(program.relations):
            if rel == lp.LESS_EQUAL:
                assert lhs[i] <= 1e-9
            elif rel == lp.GREATER_EQUAL:
                assert lhs[i] >= -1e-9
            else:
                assert abs(lhs[i]) <= 1e-9
        for j, dom in enumerate(program.domains):
            if dom == lp.NONNEGATIVE:
                assert outcome.ray[j] >= -1e-9
        assert float(program.objective @ outcome.ray) > 0.0
    else:
        assert outcome.x is None and outcome.ray is None


def checked_solve(program: lp.LinearProgram) -> lp.LpOutcome:
    outcome = lp.solve(program)
    assert_outcome_invariants(program, outcome)
    return outcome


def point_depth_by_bisection(poly: NormalizedPolyhedron, x: np.ndarray) -> float:
    """max { lam : x feasible in shrink(poly, lam) } by bisection."""
    if poly.num_rows == 0:
        return math.inf

    def feasible(lam: float) -> bool:
        body = shrink(poly, lam)
        return bool((body.normals @ x <= body.offsets).all())

    if not feasible(0.0):
        raise AssertionError("bisection oracle expects a feasible point")
    lo, hi = 0.0, 1.0
    while feasible(hi):
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def monte_carlo_cutoff_area(lo, hi, cut_coeffs, cut_rhs, samples: int, seed: int) -> float:
    """Monte-Carlo area of { x in box : cut_coeffs @ x < cut_rhs }."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, (samples, lo.shape[0]))
    frac = float(np.mean(pts @ np.asarray(cut_coeffs, dtype=float) < cut_rhs))
    return frac * float(np.prod(hi - lo))


def standard_form_depth_by_highs(model: StandardFormModel, cut: Cut):
    """(kind, value) of the cut's depth over a nonempty standard-form model,
    by SciPy's HiGHS on the depth LP written in the model's own variables
    rather than over its normalized rows:

        max lam  s.t.  A x = b,  x_j - s_j lam >= l_j,  x_j + s_j lam <= u_j,
                       cut.coeffs @ x <= cut.rhs,  lam >= 0,

    with s_j = sqrt(P_jj), the length of e_j projected onto the hull's
    direction space, P = I - pinv(A) A. A variable with P_jj ~ 0 is fixed by
    the equalities and its bounds are dropped. Depth is positively
    homogeneous, so the data are divided by their largest magnitude before
    the solve, and HiGHS's absolute tolerances see unit-sized numbers at
    every scale. Skips the calling test when SciPy is missing.
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    A, n = model.space.A, model.dim
    P = np.eye(n) - np.linalg.pinv(A) @ A
    free = np.diag(P) > 1e-12
    s = np.sqrt(np.where(free, np.diag(P), 0.0))
    finite = [v[np.isfinite(v)] for v in (model.lower, model.upper)]
    scale = float(np.abs(np.concatenate([model.space.b, *finite, [cut.rhs]])).max()) or 1.0
    rows, rhs = [], []
    for j in np.flatnonzero(free):
        for sign, bound in ((-1.0, model.lower[j]), (1.0, model.upper[j])):
            if math.isfinite(bound):
                rows.append(np.append(sign * np.eye(n)[j], s[j]))
                rhs.append(sign * bound / scale)
    rows.append(np.append(cut.coeffs, 0.0))
    rhs.append(cut.rhs / scale)
    p = model.space.num_equalities
    res = linprog(
        -np.eye(n + 1)[n],
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        A_eq=np.column_stack([A, np.zeros(p)]) if p else None,
        b_eq=model.space.b / scale if p else None,
        bounds=[(None, None)] * n + [(0.0, None)],
        method="highs",
    )
    if res.status == 0:
        return DepthKind.FINITE, max(-float(res.fun), 0.0) * scale
    return {2: DepthKind.NOT_VIOLATED, 3: DepthKind.UNBOUNDED}[res.status], None


def depth_by_highs(poly: NormalizedPolyhedron, cut: Cut):
    """(kind, value) of the cut's depth over a nonempty normalized body, by
    SciPy's HiGHS on the depth LP over the body's rows, max lam s.t.
    normals @ x + lam <= offsets, cut.coeffs @ x <= cut.rhs, x on the hull,
    lam >= 0. Skips the calling test when SciPy is missing."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n, p = poly.dim, poly.space.num_equalities
    res = linprog(
        -np.eye(n + 1)[n],
        A_ub=np.vstack([np.column_stack([poly.normals, np.ones(poly.num_rows)]),
                        np.append(cut.coeffs, 0.0)]),
        b_ub=np.append(poly.offsets, cut.rhs),
        A_eq=np.column_stack([poly.space.A, np.zeros(p)]) if p else None,
        b_eq=poly.space.b if p else None,
        bounds=[(None, None)] * n + [(0.0, None)],
        method="highs",
    )
    if res.status == 0:
        return DepthKind.FINITE, max(-float(res.fun), 0.0)
    return {2: DepthKind.NOT_VIOLATED, 3: DepthKind.UNBOUNDED}[res.status], None
