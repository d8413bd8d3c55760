"""Self-contained dense two-phase simplex solver.

Maximizes a linear objective subject to <=, =, >= rows over free or
nonnegative variables; free variables are split into positive and negative
parts. The tableau is condensed (Tucker form): it stores only the nonbasic
columns and the rhs, one row per basic variable plus a reduced-cost row, so
a pivot touches m x (nonbasic + 1) entries and never the identity of the
basic columns. Deterministic: Dantzig pricing, leaving-row ties broken by
lowest basis id, switching to Bland's rule (by original column id) after a
fixed number of degenerate pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import IterationLimit
from .linalg import as_matrix, as_vector

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
# a ratio this small means the pivot will not move the objective
_DEGENERATE_RATIO = 1e-12

_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)
# +1 for <=, -1 for >=, 0 for =; a row negated to make its rhs >= 0 flips it
_SENSE = {LESS_EQUAL: 1.0, EQUAL: 0.0, GREATER_EQUAL: -1.0}
_DOMAINS = (FREE, NONNEGATIVE)


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
        for rel in self.relations:
            if rel not in _RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
        for dom in self.domains:
            if dom not in _DOMAINS:
                raise ValueError(f"unknown domain {dom!r}")

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_cols(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class SolveStats:
    """What the simplex did: pivots per phase, degenerate pivots over both
    phases, whether Bland's rule took over, and redundant rows dropped after
    phase 1."""

    phase1_pivots: int = 0
    phase2_pivots: int = 0
    degenerate_pivots: int = 0
    bland: bool = False
    dropped_rows: int = 0


@dataclass(frozen=True, eq=False)
class LpOutcome:
    """Solve result. Optimal carries x and the objective value; Unbounded
    carries a feasible point and an improving ray; Infeasible carries
    neither. Every outcome from solve carries its SolveStats."""

    status: LpStatus
    x: np.ndarray | None = None
    objective: float | None = None
    ray: np.ndarray | None = None
    stats: SolveStats = SolveStats()


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
    T: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, bland_threshold: int, budget: int
) -> _Phase:
    """Pivot until optimal or unbounded, at most budget times.

    T is the condensed tableau: row i < m belongs to the basic variable
    basis[i], column j to the nonbasic variable nonbasic[j] (original column
    ids), row m holds the reduced costs and the last column the rhs.
    """
    m = basis.shape[0]
    reduced = T[m, :-1]
    rhs = T[:m, -1]
    pivots = degenerate = 0
    bland = False
    while reduced.size:
        if bland:
            candidates = (reduced < -PIVOT_TOL).nonzero()[0]
            if candidates.size == 0:
                break
            enter = int(candidates[nonbasic[candidates].argmin()])
        else:
            enter = int(reduced.argmin())
            if reduced[enter] >= -PIVOT_TOL:
                break
        col = T[:m, enter]
        eligible = (col > PIVOT_TOL).nonzero()[0]
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


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve the program; see LpOutcome for the result contract."""
    m, n = lp.num_rows, lp.num_cols

    # structural columns: one per nonnegative variable, a +/- pair per free one
    free = np.array([dom == FREE for dom in lp.domains], dtype=bool)
    width = np.where(free, 2, 1)
    var = np.repeat(np.arange(n), width)
    sign = np.ones(var.shape[0])
    sign[np.cumsum(width)[free] - 1] = -1.0
    ns = var.shape[0]

    # rows with a negative rhs are negated, which swaps <= and >=
    row_sign = np.where(lp.rhs < 0.0, -1.0, 1.0)
    sense = np.array([_SENSE[rel] for rel in lp.relations]) * row_sign
    le = sense > 0.0
    ge = sense < 0.0
    ineq = le | ge
    art = ~le
    b = lp.rhs * row_sign

    # column ids: structural, then one slack per inequality row in row order
    # (+1 on <=, -1 on >=), then one artificial per >= or = row; the slacks
    # of <= rows and the artificials start basic, the rest nonbasic
    slack_id = ns + np.cumsum(ineq) - 1
    art_start = ns + int(ineq.sum())
    basis = np.where(art, art_start + np.cumsum(art) - 1, slack_id)
    nonbasic = np.concatenate([np.arange(ns), slack_id[ge]])
    T = np.zeros((m + 1, nonbasic.shape[0] + 1))
    T[:m, :ns] = lp.A[:, var] * sign * row_sign[:, None]
    ge_rows = ge.nonzero()[0]
    T[ge_rows, np.arange(ns, ns + ge_rows.shape[0])] = -1.0
    T[:m, -1] = b

    bland_threshold = 3 * (m + n)
    phase1 = _SKIPPED
    drop: list[int] = []
    if art.any():
        # phase 1 maximizes minus the sum of the artificials
        T[m] = -T[:m][art].sum(axis=0)
        phase1 = _run_simplex(T, basis, nonbasic, bland_threshold, MAX_PIVOTS)
        if phase1.unbounded is not None:  # pragma: no cover - phase 1 objective is bounded
            raise RuntimeError("phase 1 reported unbounded; tableau is corrupt")
        # an artificial is row r's violation; compare it with the size of the
        # terms of row r at the phase 1 point, so each row has its own scale
        point = np.zeros(art_start + int(art.sum()))
        point[basis] = T[:m, -1]
        magnitude = np.abs(lp.A[art]) @ np.bincount(var, weights=point[:ns], minlength=n)
        magnitude[ge[art]] += point[slack_id[ge]]
        if (point[art_start:] > FEASIBILITY_TOL * np.maximum(b[art], magnitude)).any():
            return LpOutcome(LpStatus.INFEASIBLE, stats=_stats(phase1, _SKIPPED, 0))
        # drive leftover artificials out of the basis, dropping redundant rows
        for i in (basis >= art_start).nonzero()[0].tolist():
            options = ((np.abs(T[i, :-1]) > PIVOT_TOL) & (nonbasic < art_start)).nonzero()[0]
            if options.size:
                _pivot(T, basis, nonbasic, i, int(options[nonbasic[options].argmin()]))
            else:
                drop.append(i)
        keep = nonbasic < art_start
        T = np.delete(T[:, np.append(keep, True)], drop, axis=0)
        nonbasic = nonbasic[keep]
        basis = np.delete(basis, drop)
        m = basis.shape[0]

    cost = np.zeros(art_start)
    cost[:ns] = sign * lp.objective[var]
    T[m] = cost[basis] @ T[:m]
    T[m, :-1] -= cost[nonbasic]
    phase2 = _run_simplex(T, basis, nonbasic, bland_threshold, MAX_PIVOTS - phase1.pivots)
    stats = _stats(phase1, phase2, len(drop))

    def fold(values: np.ndarray) -> np.ndarray:
        return np.bincount(var, weights=sign * values[:ns], minlength=n)

    point = np.zeros(art_start)
    point[basis] = T[:m, -1]
    x = fold(point)
    if phase2.unbounded is not None:
        ray = np.zeros(art_start)
        ray[nonbasic[phase2.unbounded]] = 1.0
        ray[basis] = -T[:m, phase2.unbounded]
        return LpOutcome(LpStatus.UNBOUNDED, x=x, ray=fold(ray), stats=stats)
    return LpOutcome(LpStatus.OPTIMAL, x=x, objective=float(lp.objective @ x), stats=stats)
