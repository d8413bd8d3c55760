"""Self-contained dense two-phase simplex solver, with a dual simplex that
re-optimizes an optimum after one more row (add_row), a phase 2 that
re-optimizes it under another objective (solve started from it, as reprice
calls it), and solve_dual, which solves a program with many more rows than
columns through its LP dual.

Maximizes a linear objective subject to <=, =, >= rows over free or
nonnegative variables, one column per variable; a free column enters in
whichever direction improves the objective and, once basic, never
leaves. The tableau is condensed (Tucker form): it stores only the nonbasic
columns and the rhs, one row per basic variable plus a reduced-cost row, so
a pivot touches m x (nonbasic + 1) entries and never the identity of the
basic columns. Deterministic: Dantzig pricing, leaving-row ties broken by
lowest basis id, switching to Bland's rule (by original column id) after a
fixed number of degenerate pivots. An optimum keeps its final tableau, from
which the row duals are read and from which add_row and reprice start; a row
that the optimum already meets costs add_row one dot product and no tableau
copy, and an objective under which the optimal basis stays optimal costs
reprice one pricing pass and no pivot. An answer read from elsewhere, as
solve_dual's off the dual, stands only when certifies passes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import IterationLimit, NumericOverflow
from .linalg import as_matrix, as_vector, frozen

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
FREE = "free"
NONNEGATIVE = "nonneg"

# phase 1 reports infeasible when some row's artificial exceeds this times
# the larger of the row's |rhs| and the sum of its |terms|, so the verdict
# depends neither on the data's scale nor on the other rows'
FEASIBILITY_TOL = 1e-7
PIVOT_TOL = 1e-9
MAX_PIVOTS = 100_000
# add_row holds the program's rows to this relative tolerance, roundoff only
_ROUNDOFF = 1e-12
# a ratio this small means the pivot will not move the objective
_DEGENERATE_RATIO = 1e-12

# +1 for <=, -1 for >=, 0 for =; a row negated to make its rhs >= 0 flips it
_SENSE = {LESS_EQUAL: 1.0, EQUAL: 0.0, GREATER_EQUAL: -1.0}
# whether a domain is free; its keys are the valid domains
_IS_FREE = {FREE: True, NONNEGATIVE: False}
# the LP dual's row for each column domain and column for each row relation
_DUAL_RELATION = {FREE: EQUAL, NONNEGATIVE: GREATER_EQUAL}
_DUAL_DOMAIN = {LESS_EQUAL: NONNEGATIVE, EQUAL: FREE}


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """max objective @ x subject to A x (rel) rhs, x_j free or >= 0."""

    objective: np.ndarray
    A: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    domains: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "objective", as_vector(self.objective, "objective"))
        object.__setattr__(self, "A", as_matrix(self.A, "A"))
        object.__setattr__(self, "rhs", as_vector(self.rhs, "rhs"))
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "domains", tuple(self.domains))
        m, n = self.A.shape
        if self.objective.shape[0] != n:
            raise ValueError(f"objective has length {self.objective.shape[0]}, expected {n}")
        if self.rhs.shape[0] != m:
            raise ValueError(f"rhs has length {self.rhs.shape[0]}, expected {m}")
        if len(self.relations) != m:
            raise ValueError(f"{len(self.relations)} relations for {m} rows")
        if len(self.domains) != n:
            raise ValueError(f"{len(self.domains)} domains for {n} columns")
        # set differences, not loops: a dual has one domain per body row
        if unknown := set(self.relations).difference(_SENSE):
            raise ValueError(f"unknown relation {unknown.pop()!r}")
        if unknown := set(self.domains).difference(_IS_FREE):
            raise ValueError(f"unknown domain {unknown.pop()!r}")

    def with_objective(self, objective) -> "LinearProgram":
        """This program with another objective, of which only the objective
        is validated: the rows, and so the layout, are this program's."""
        objective = as_vector(objective, "objective")
        if objective.shape != self.objective.shape:
            raise ValueError(f"objective has length {objective.shape[0]}, expected {self.num_cols}")
        program = object.__new__(LinearProgram)
        program.__dict__.update(self.__dict__, objective=objective)
        return program

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_cols(self) -> int:
        return self.A.shape[1]

    @cached_property
    def _layout(self) -> "_Layout":
        """How solve lays this program out as columns; see _Layout."""
        n = self.num_cols
        row_sign = np.where(self.rhs < 0.0, -1.0, 1.0)
        sense = np.fromiter(map(_SENSE.__getitem__, self.relations), float, self.num_rows)
        sense *= row_sign
        ineq = sense != 0.0
        art = sense <= 0.0
        slack_id = n + np.cumsum(ineq) - 1
        art_start = n + int(ineq.sum())
        art_id = art_start + np.cumsum(art) - 1
        ids = art_start + int(art.sum())
        free = np.zeros(ids, dtype=bool)
        free[:n] = np.fromiter(map(_IS_FREE.__getitem__, self.domains), bool, n)
        # a slack enters its (negated) row with coefficient sense, an artificial
        # with +1; undoing the negation gives the dual of the row as written
        return _Layout(
            free, row_sign, sense, slack_id, art_id, art_start, ids,
            col_id=np.where(ineq, slack_id, art_id),
            dual_sign=np.where(ineq, sense, 1.0) * row_sign,
        )


@dataclass(frozen=True)
class SolveStats:
    """What the simplex did: pivots per phase, dual simplex pivots (add_row),
    degenerate pivots over all of them, whether Bland's rule took over, and
    redundant rows dropped after phase 1. dualized is set by read_dual (for
    solve_dual), which reads a program's answer off its LP dual's duals."""

    phase1_pivots: int = 0
    phase2_pivots: int = 0
    degenerate_pivots: int = 0
    bland: bool = False
    dropped_rows: int = 0
    dual_pivots: int = 0
    dualized: bool = False


@dataclass(frozen=True, eq=False)
class LpOutcome:
    """Solve result. Optimal carries x, the objective value and one dual per
    row (>= 0 on <= rows, <= 0 on >= rows, free on = rows, 0 on rows dropped
    as redundant), so that rhs @ duals equals the objective; Unbounded
    carries a feasible point and an improving ray; Infeasible carries
    neither. Every outcome carries its SolveStats. An optimum whose x or
    objective is not finite (the data overflowed the pivots) raises
    NumericOverflow instead.

    An optimum from solve or reprice also keeps the program, its final
    condensed tableau and the original column ids of the tableau's basic
    rows and nonbasic columns: the warm start of add_row and reprice.
    """

    status: LpStatus
    x: np.ndarray | None = None
    objective: float | None = None
    ray: np.ndarray | None = None
    stats: SolveStats = SolveStats()
    duals: np.ndarray | None = None
    program: LinearProgram | None = None
    tableau: np.ndarray | None = None
    basis: np.ndarray | None = None
    nonbasic: np.ndarray | None = None


class _Layout(NamedTuple):
    """How solve lays a program out as columns, by id: one structural column
    per variable in program order, then a slack per inequality row in row
    order, then an artificial per >= or = row; rows with a negative rhs are
    negated first, which swaps <= and >=."""

    free: np.ndarray  # by id: whether the column is a free variable
    row_sign: np.ndarray  # -1 on negated rows
    sense: np.ndarray  # +1 <=, -1 >=, 0 = after the negation
    slack_id: np.ndarray  # per row; meaningful on inequality rows
    art_id: np.ndarray  # per row; meaningful on >= and = rows
    art_start: int
    ids: int  # number of column ids
    col_id: np.ndarray  # per row: the slack, or on = rows the artificial
    dual_sign: np.ndarray  # per row: dual = dual_sign * reduced cost of col_id


def _pivot(T: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, row: int, col: int) -> None:
    """Tucker pivot: exchange the basic variable of row with the nonbasic
    variable of col. Every row, the reduced-cost row included, is updated."""
    inverse = 1.0 / T[row, col]
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.multiply.outer(factors, T[row])
    factors *= -inverse
    T[:, col] = factors
    T[row, col] = inverse
    basis[row], nonbasic[col] = nonbasic[col], basis[row]


class _Phase(NamedTuple):
    pivots: int
    degenerate: int
    bland: bool
    # position of the entering column that proved unboundedness, if any
    unbounded: int | None


_SKIPPED = _Phase(0, 0, False, None)


def _run_simplex(
    T: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, bland_threshold: int, budget: int,
    priced: int, free: np.ndarray | None,
) -> _Phase:
    """Pivot until optimal or unbounded, at most budget times.

    T is the condensed tableau: row i < m belongs to the basic variable
    basis[i], column j to the nonbasic variable nonbasic[j] (original column
    ids), row m holds the reduced costs and the last column the rhs. Only
    the first priced columns may enter; the rest are carried along. free
    masks the free column ids, None when there are none: a free column is
    priced by minus its |reduced cost|, so it enters moving down when that
    improves the objective, and a free basic variable never leaves.
    """
    m = basis.shape[0]
    reduced = T[m, :priced]
    rhs = T[:m, -1]
    pivots = degenerate = 0
    bland = False
    while reduced.size:
        gain = reduced
        if free is not None:
            gain = np.where(free[nonbasic[:priced]], -np.abs(reduced), reduced)
        if bland:
            candidates = (gain < -PIVOT_TOL).nonzero()[0]
            if candidates.size == 0:
                break
            enter = int(candidates[nonbasic[candidates].argmin()])
        else:
            enter = int(gain.argmin())
            if gain[enter] >= -PIVOT_TOL:
                break
        # the column signed by the direction in which the entering variable moves
        col = T[:m, enter] if reduced[enter] < 0.0 else -T[:m, enter]
        eligible = (col > PIVOT_TOL).nonzero()[0]
        if free is not None:
            eligible = eligible[~free[basis[eligible]]]
        if eligible.size == 0:
            return _Phase(pivots, degenerate, bland, enter)
        ratios = rhs[eligible] / col[eligible]
        best = ratios.min()
        tied = eligible[ratios <= best + _DEGENERATE_RATIO * (1.0 + abs(best))]
        leave = int(tied[basis[tied].argmin()])
        if rhs[leave] / col[leave] < _DEGENERATE_RATIO:
            degenerate += 1
            if degenerate > bland_threshold:
                bland = True
        _pivot(T, basis, nonbasic, leave, enter)
        pivots += 1
        if pivots > budget:
            raise IterationLimit(f"simplex exceeded {MAX_PIVOTS} pivots")
    return _Phase(pivots, degenerate, bland, None)


def _stats(phase1: _Phase, phase2: _Phase, dropped_rows: int) -> SolveStats:
    return SolveStats(
        phase1.pivots,
        phase2.pivots,
        phase1.degenerate + phase2.degenerate,
        phase1.bland or phase2.bland,
        dropped_rows,
    )


def _optimum(
    lay: _Layout, objective: np.ndarray, T: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray]:
    """(x, objective @ x, duals) at an optimal tableau of a program with the
    given objective; a row whose column is basic, or that was dropped, has
    dual 0. Raises NumericOverflow when x or its objective is not finite."""
    m = basis.shape[0]
    point = np.zeros(lay.ids)
    point[basis] = T[:m, -1]
    x = point[: objective.shape[0]] + 0.0  # + 0.0 turns -0.0 into 0.0
    if not np.isfinite(x).all():
        raise NumericOverflow("the LP's optimum overflows; rescale the input")
    value = float(objective @ x)
    if not math.isfinite(value):
        raise NumericOverflow("the LP's optimal value overflows; rescale the input")
    reduced = np.zeros(lay.ids)
    reduced[nonbasic] = T[m, :-1]
    return x, value, lay.dual_sign * reduced[lay.col_id]


def solve(lp: LinearProgram, start: LpOutcome | None = None) -> LpOutcome:
    """Solve the program; see LpOutcome for the result contract.

    start, an optimum that solve kept for a program with lp's rows (reprice
    passes one), skips phase 1: its final basis is feasible under any
    objective, so phase 2 resumes from a copy of its tableau (start is left
    as it was) with the reduced costs priced afresh.
    """
    if start is not None:
        rows = ("A", "relations", "rhs", "domains")
        if start.tableau is None or any(
            getattr(start.program, name) is not getattr(lp, name) for name in rows
        ):
            raise ValueError("start must be an optimum kept by solve for a program with these rows")
        priced = int((start.nonbasic < lp._layout.art_start).sum())
        T, basis, nonbasic = start.tableau.copy(), start.basis.copy(), start.nonbasic.copy()
        return _phase2(lp, T, basis, nonbasic, priced, _SKIPPED, 0)
    m, n = lp.num_rows, lp.num_cols
    lay = lp._layout
    free = lay.free if lay.free.any() else None
    art_start = lay.art_start
    le = lay.sense > 0.0
    ge = lay.sense < 0.0
    art = ~le
    b = lp.rhs * lay.row_sign

    # the slacks of <= rows and the artificials start basic, the rest nonbasic
    basis = np.where(art, lay.art_id, lay.slack_id)
    nonbasic = np.concatenate([np.arange(n), lay.slack_id[ge]])
    T = np.zeros((m + 1, nonbasic.shape[0] + 1))
    T[:m, :n] = lp.A * lay.row_sign[:, None]
    ge_rows = ge.nonzero()[0]
    T[ge_rows, np.arange(n, n + ge_rows.shape[0])] = -1.0
    T[:m, -1] = b

    bland_threshold = 3 * (m + n)
    ids = lay.ids
    phase1 = _SKIPPED
    drop: list[int] = []
    priced = nonbasic.shape[0]
    if art.any():
        # phase 1 maximizes minus the sum of the artificials
        T[m] = -T[:m][art].sum(axis=0)
        phase1 = _run_simplex(T, basis, nonbasic, bland_threshold, MAX_PIVOTS, priced, free)
        # an artificial is row r's violation; compare it with the size of the
        # terms of row r at the phase 1 point, so each row has its own scale
        point = np.zeros(ids)
        point[basis] = T[:m, -1]
        magnitude = np.abs(lp.A[art]) @ np.abs(point[:n])
        magnitude[ge[art]] += point[lay.slack_id[ge]]
        if (point[art_start:] > FEASIBILITY_TOL * np.maximum(b[art], magnitude)).any():
            return LpOutcome(LpStatus.INFEASIBLE, stats=_stats(phase1, _SKIPPED, 0))
        # drive leftover artificials out of the basis, dropping redundant rows
        for i in (basis >= art_start).nonzero()[0].tolist():
            options = ((np.abs(T[i, :-1]) > PIVOT_TOL) & (nonbasic < art_start)).nonzero()[0]
            if options.size:
                _pivot(T, basis, nonbasic, i, int(options[nonbasic[options].argmin()]))
            else:
                drop.append(i)
        # the artificials of = rows stay, after the other columns, as columns
        # that never enter again: their reduced costs are those rows' duals
        keep = nonbasic < art_start
        held = np.zeros(ids, dtype=bool)
        held[lay.art_id[lay.sense == 0.0]] = True
        held = held[nonbasic]
        order = np.concatenate([keep.nonzero()[0], held.nonzero()[0], [-1]])
        T = T.take(order, axis=1)  # T[:, order] would come back in Fortran order
        nonbasic = nonbasic[order[:-1]]
        if drop:
            T = np.delete(T, drop, axis=0)
            basis = np.delete(basis, drop)
        priced = int(keep.sum())

    return _phase2(lp, T, basis, nonbasic, priced, phase1, len(drop))


def reprice(base: LpOutcome, objective) -> LpOutcome:
    """Re-optimize base's program under another objective: solve, started
    from base, an optimum from solve or reprice.

    Phase 2 runs the same pivot loop as solve's from a copy of base's
    tableau. The outcome is OPTIMAL or UNBOUNDED; its stats count phase 2
    pivots only (no phase 1, no rows dropped), and an optimum keeps the
    program with the new objective and its tableau, for the next reprice
    or add_row.
    """
    return solve(base.program.with_objective(objective), start=base)


def _phase2(
    lp: LinearProgram, T: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, priced: int,
    phase1: _Phase, dropped_rows: int,
) -> LpOutcome:
    """Phase 2 from a feasible basis: price lp's objective into T's
    reduced-cost row, pivot, and read the optimum or the improving ray."""
    lay = lp._layout
    m, n = basis.shape[0], lp.num_cols
    ids = lay.ids
    cost = np.zeros(ids)
    cost[:n] = lp.objective
    T[m] = cost[basis] @ T[:m]
    T[m, :-1] -= cost[nonbasic]
    bland_threshold = 3 * (lp.num_rows + n)
    budget = MAX_PIVOTS - phase1.pivots
    free = lay.free if lay.free.any() else None
    phase2 = _run_simplex(T, basis, nonbasic, bland_threshold, budget, priced, free)
    stats = _stats(phase1, phase2, dropped_rows)
    if phase2.unbounded is None:
        x, objective, duals = _optimum(lay, lp.objective, T, basis, nonbasic)
        return LpOutcome(
            LpStatus.OPTIMAL, x=x, objective=objective, stats=stats, duals=duals,
            program=lp, tableau=T, basis=basis, nonbasic=nonbasic,
        )
    point = np.zeros(ids)
    point[basis] = T[:m, -1]
    # a free column with a positive reduced cost improves moving down
    step = 1.0 if T[m, phase2.unbounded] < 0.0 else -1.0
    ray = np.zeros(ids)
    ray[nonbasic[phase2.unbounded]] = step
    ray[basis] = -step * T[:m, phase2.unbounded]
    return LpOutcome(LpStatus.UNBOUNDED, x=point[:n] + 0.0, ray=ray[:n] + 0.0, stats=stats)


def dual(program: LinearProgram) -> tuple[LinearProgram, float]:
    """The LP dual of a program of <= and = rows (ValueError on >= rows),
    and the scale of its objective: min rhs @ y s.t. A^T y = objective on
    free columns and >= objective on nonnegative ones, y >= 0 on <= rows and
    free on = rows, posed as max of -rhs / scale. scale is the largest
    |rhs| (1 when all are 0), so the pivot tolerance sees data of unit size.
    """
    try:
        domains = tuple(map(_DUAL_DOMAIN.__getitem__, program.relations))
    except KeyError:
        raise ValueError("dual takes programs of <= and = rows only") from None
    scale = float(np.abs(program.rhs).max(initial=0.0)) or 1.0
    relations = tuple(map(_DUAL_RELATION.__getitem__, program.domains))
    dual_program = LinearProgram(
        frozen(program.rhs / -scale), frozen(program.A.T.copy()), relations, program.objective,
        domains,
    )
    return dual_program, scale


def row_scale(A: np.ndarray, rhs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row's scale at x, the larger of |rhs_i| and |A_i| @ |x|."""
    return np.maximum(np.abs(rhs), np.abs(A) @ np.abs(x))


def solve_dual(
    program: LinearProgram, kept: tuple[LinearProgram, float] | None = None
) -> LpOutcome | None:
    """Solve a program of <= and = rows with more rows than columns through
    its smaller LP dual: kept, the pair dual(program) returns, when the
    caller keeps one, else dual(program) built here. None, for the caller to
    solve the program as written, when it has no more rows than columns;
    else read_dual's answer.
    """
    if program.num_rows <= program.num_cols:
        return None
    dual_program, scale = kept or dual(program)
    return read_dual(program, (dual_program, scale), solve(dual_program))


def read_dual(
    program: LinearProgram, kept: tuple[LinearProgram, float], outcome: LpOutcome
) -> LpOutcome | None:
    """program's optimum read off outcome, the solve of kept =
    dual(program): x is minus the dual's row duals times scale, clamped at 0
    on nonnegative columns; the optimum also carries the dual's optimum y
    as duals and stats with dualized set, but no tableau. None when the dual
    is not optimal or certifies(program, x, y) fails: then the program is
    infeasible or unbounded, or too close to it for the dual's answer to
    stand.
    """
    if outcome.status != LpStatus.OPTIMAL:
        return None
    dual_program, scale = kept
    x = 0.0 - scale * outcome.duals  # 0.0 - v turns a -0.0 dual into +0.0
    free = np.fromiter(map(_IS_FREE.__getitem__, program.domains), bool, program.num_cols)
    x[~free] = np.maximum(x[~free], 0.0)
    y = outcome.x
    # the = rows are the dual's free columns
    if not certifies(program, x, y, dual_program._layout.free[: program.num_rows]):
        return None
    stats = replace(outcome.stats, dualized=True)
    return LpOutcome(
        LpStatus.OPTIMAL, x=x, objective=float(program.objective @ x), stats=stats, duals=y
    )


def certifies(program: LinearProgram, x: np.ndarray, y: np.ndarray, equal: np.ndarray) -> bool:
    """Whether x and the row duals y certify an optimum of program, whose
    = rows equal masks: x meets every row to FEASIBILITY_TOL times its
    row_scale, and the duality gap |objective @ x - rhs @ y| is within
    FEASIBILITY_TOL times the larger of |objective| @ |x| and |rhs| @ |y|.
    The gap catches a misscaled x that feasibility alone would pass, as on
    a cone, whose rows still hold when x grows.
    """
    slack = program.rhs - program.A @ x
    allowed = FEASIBILITY_TOL * row_scale(program.A, program.rhs, x)
    if (slack < -allowed).any() or (slack[equal] > allowed[equal]).any():
        return False
    gap = abs(float(program.objective @ x) - float(program.rhs @ y))
    size = max(float(np.abs(program.objective) @ np.abs(x)), float(np.abs(program.rhs) @ np.abs(y)))
    return gap <= FEASIBILITY_TOL * size


def add_row(base: LpOutcome, coeffs, rhs: float) -> LpOutcome:
    """Re-optimize base's program with the row coeffs @ x <= rhs appended.

    base must be an optimum from solve. When base.x meets the row exactly
    (coeffs @ base.x <= rhs, no tolerance), it stays optimal: the answer is
    base's x (a copy) and objective, its duals with a 0 for the new row and
    zero stats, in O(n) with no tableau copy. Otherwise its basis stays dual
    feasible with the new row's slack added to it, so a dual simplex on a
    copy of its tableau (base is left as it was) ends OPTIMAL or
    INFEASIBLE; duals cover the appended row last. The leaving row is the
    most negative basic variable beyond its tolerance (free variables may
    go negative; they never leave), the entering column the least ratio of
    reduced cost to |row entry| among negative entries and those on free
    columns, which may enter either way, ties to the lowest column id, and
    Bland's rule (lowest-id leaving row) takes over after 3(m + n)
    degenerate pivots. The appended row may end violated by FEASIBILITY_TOL times its
    scale, taken as in solve's phase 1 (the larger of |rhs| and the sum of
    its |terms| at the current point), and the program's own rows, which
    base already meets, by roundoff (_ROUNDOFF times their scales); a basic
    variable is held to the sum of these allowances over the rows its
    tableau row combines, weighted by the multipliers. So the verdict
    depends neither on the data's scale nor on unrelated rows, and
    INFEASIBLE means that the new row misses the program's feasible set by
    more than its own tolerance.
    """
    lp = base.program
    coeffs = as_vector(coeffs, "coeffs")
    rhs = float(rhs)
    if coeffs.shape[0] != lp.num_cols:
        raise ValueError(f"coeffs has length {coeffs.shape[0]}, expected {lp.num_cols}")
    if coeffs @ base.x <= rhs:
        # the new row's slack joins the basis at a value >= 0; nothing moves
        return LpOutcome(
            LpStatus.OPTIMAL, x=base.x.copy(), objective=base.objective,
            duals=np.append(base.duals, 0.0),
        )
    lay = lp._layout
    rows, ids = lp.num_rows, lay.ids
    # the appended row is row `rows`; its slack, id `ids`, starts basic
    lay = lay._replace(
        free=np.append(lay.free, False),
        ids=ids + 1,
        col_id=np.append(lay.col_id, ids),
        dual_sign=np.append(lay.dual_sign, 1.0),
    )
    # the row whose slack or artificial each id is, -1 on structural ids
    owner = np.full(ids + 1, -1)
    owner[lay.col_id] = np.arange(rows + 1)
    n = lp.num_cols
    a = np.zeros(ids)
    a[:n] = coeffs
    m = base.basis.shape[0]
    T = np.empty((m + 2, base.tableau.shape[1]))
    T[:m] = base.tableau[:m]
    T[m + 1] = base.tableau[m]
    # the row in terms of the nonbasic columns: a_N - a_B T, rhs - a_B T_rhs
    np.matmul(-a[base.basis], base.tableau[:m], out=T[m])
    T[m, :-1] += a[base.nonbasic]
    T[m, -1] += rhs
    basis = np.append(base.basis, ids)
    nonbasic = base.nonbasic.copy()
    priced = int((nonbasic < lay.art_start).sum())
    m += 1
    free = lay.free if lay.free.any() else None

    b = np.append(lp.rhs, rhs)
    abs_coeffs = np.abs(coeffs)
    # each row's allowance, with a spare zero at index -1 for structural ids
    allowed = np.zeros(rows + 2)
    bland_threshold = 3 * (m + n)
    pivots = degenerate = 0
    bland = False
    values = T[:m, -1]
    reduced = T[m, :priced]
    # a row far beyond the body's scale overflows the pivots; the optimum's
    # check in _optimum turns that into NumericOverflow
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            negative = (values < 0.0).nonzero()[0]
            if free is not None:
                negative = negative[~free[basis[negative]]]
            if negative.size:
                point = np.zeros(ids + 1)
                point[basis] = values
                size = np.abs(point[:n])
                # a tableau row weighs the program's rows by its entries in their
                # slack and artificial columns, and its basic variable's own row by 1
                weigh = owner[nonbasic]
                own = owner[basis[negative]]
                need = np.concatenate([weigh, own])
                need = need[(need >= 0) & (need < rows)]
                allowed[need] = _ROUNDOFF * np.maximum(np.abs(b[need]), np.abs(lp.A[need]) @ size)
                allowed[rows] = FEASIBILITY_TOL * max(abs(rhs), float(abs_coeffs @ size))
                tol = allowed[own] + np.abs(T[negative, :-1]) @ allowed[weigh]
                negative = negative[values[negative] < -tol]
            if negative.size == 0:
                x, objective, duals = _optimum(lay, lp.objective, T, basis, nonbasic)
                stats = SolveStats(degenerate_pivots=degenerate, bland=bland, dual_pivots=pivots)
                return LpOutcome(
                    LpStatus.OPTIMAL, x=x, objective=objective, stats=stats, duals=duals
                )
            if bland:
                leave = int(negative[basis[negative].argmin()])
            else:
                leave = int(negative[values[negative].argmin()])
            row = T[leave, :priced]
            if free is not None:
                # a free column may enter moving either way
                row = np.where(free[nonbasic[:priced]], -np.abs(row), row)
            eligible = (row < -PIVOT_TOL).nonzero()[0]
            if eligible.size == 0:
                stats = SolveStats(degenerate_pivots=degenerate, bland=bland, dual_pivots=pivots)
                return LpOutcome(LpStatus.INFEASIBLE, stats=stats)
            ratios = np.maximum(reduced[eligible], 0.0) / -row[eligible]
            best = ratios.min()
            tied = eligible[ratios <= best + _DEGENERATE_RATIO * (1.0 + best)]
            enter = int(tied[nonbasic[tied].argmin()])
            if best < _DEGENERATE_RATIO:
                degenerate += 1
                if degenerate > bland_threshold:
                    bland = True
            _pivot(T, basis, nonbasic, leave, enter)
            pivots += 1
            if pivots > MAX_PIVOTS:
                raise IterationLimit(f"dual simplex exceeded {MAX_PIVOTS} pivots")
