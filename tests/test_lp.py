from dataclasses import replace

import numpy as np
import pytest

from cutdepth import lp
from cutdepth.constructions import depth_lower_bound_cone
from cutdepth.errors import IterationLimit
from cutdepth.lp import (
    EQUAL,
    FREE,
    GREATER_EQUAL,
    LESS_EQUAL,
    NONNEGATIVE,
    LinearProgram,
    LpStatus,
)
from cutdepth.polyhedron import AffineSpace, Cut, HPolyhedron, normalize

from oracles import assert_outcome_invariants, checked_solve, lp_optimum_by_vertex_enumeration


def make_lp(objective, A, relations, rhs, domains):
    return LinearProgram(
        np.asarray(objective, dtype=float),
        np.asarray(A, dtype=float),
        tuple(relations),
        np.asarray(rhs, dtype=float),
        tuple(domains),
    )


class TestBasicOutcomes:
    def test_optimal_box(self):
        prog = make_lp(
            [1.0, 1.0],
            [[1.0, 0.0], [0.0, 1.0]],
            [LESS_EQUAL, LESS_EQUAL],
            [1.0, 2.0],
            [NONNEGATIVE, NONNEGATIVE],
        )
        out = checked_solve(prog)
        assert out.status == LpStatus.OPTIMAL
        assert out.objective == pytest.approx(3.0, abs=1e-9)
        np.testing.assert_allclose(out.x, [1.0, 2.0], atol=1e-9)

    def test_infeasible(self):
        prog = make_lp(
            [1.0],
            [[1.0], [1.0]],
            [GREATER_EQUAL, LESS_EQUAL],
            [2.0, 1.0],
            [FREE],
        )
        out = checked_solve(prog)
        assert out.status == LpStatus.INFEASIBLE

    def test_unbounded_with_ray(self):
        prog = make_lp(
            [1.0, 0.0],
            [[0.0, 1.0]],
            [LESS_EQUAL],
            [1.0],
            [NONNEGATIVE, NONNEGATIVE],
        )
        out = checked_solve(prog)
        assert out.status == LpStatus.UNBOUNDED
        ray = out.ray / np.linalg.norm(out.ray)
        np.testing.assert_allclose(ray, [1.0, 0.0], atol=1e-12)

    def test_equality_rows(self):
        prog = make_lp(
            [0.0, 1.0],
            [[1.0, 1.0]],
            [EQUAL],
            [2.0],
            [NONNEGATIVE, NONNEGATIVE],
        )
        out = checked_solve(prog)
        assert out.status == LpStatus.OPTIMAL
        assert out.objective == pytest.approx(2.0, abs=1e-9)

    def test_free_variable_negative_optimum(self):
        prog = make_lp(
            [-1.0],
            [[1.0]],
            [GREATER_EQUAL],
            [-5.0],
            [FREE],
        )
        out = checked_solve(prog)
        assert out.status == LpStatus.OPTIMAL
        assert out.objective == pytest.approx(5.0, abs=1e-9)
        assert out.x[0] == pytest.approx(-5.0, abs=1e-9)

    def test_redundant_equalities_ok(self):
        # duplicated equality row must not break phase 1 cleanup
        prog = make_lp(
            [1.0, 1.0],
            [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]],
            [EQUAL, EQUAL, LESS_EQUAL],
            [2.0, 2.0, 1.5],
            [NONNEGATIVE, NONNEGATIVE],
        )
        out = checked_solve(prog)
        assert out.status == LpStatus.OPTIMAL
        assert out.objective == pytest.approx(2.0, abs=1e-9)

    def test_no_rows(self):
        prog = make_lp([1.0], np.zeros((0, 1)), [], [], [NONNEGATIVE])
        out = checked_solve(prog)
        assert out.status == LpStatus.UNBOUNDED


def random_bounded_instance(rng):
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 8))
    anchor = rng.uniform(0.0, 2.0, n)
    A = rng.uniform(-2.0, 2.0, (m, n))
    relations = []
    rhs = np.zeros(m)
    for i in range(m):
        rel = (LESS_EQUAL, GREATER_EQUAL, EQUAL)[int(rng.integers(0, 3))]
        margin = float(rng.uniform(0.0, 2.0))
        value = float(A[i] @ anchor)
        if rel == LESS_EQUAL:
            rhs[i] = value + margin
        elif rel == GREATER_EQUAL:
            rhs[i] = value - margin
        else:
            rhs[i] = value
        relations.append(rel)
    # cap the total mass so the feasible set is a polytope
    A = np.vstack([A, np.ones(n)])
    relations.append(LESS_EQUAL)
    rhs = np.append(rhs, float(np.sum(anchor) + rng.uniform(1.0, 4.0)))
    objective = rng.uniform(-1.0, 1.0, n)
    return make_lp(objective, A, relations, rhs, [NONNEGATIVE] * n)


class TestAgainstVertexOracle:
    def test_hundred_seeded_instances(self):
        rng = np.random.default_rng(1)
        solved = 0
        for _ in range(100):
            prog = random_bounded_instance(rng)
            out = checked_solve(prog)
            oracle = lp_optimum_by_vertex_enumeration(prog)
            if out.status == LpStatus.INFEASIBLE:
                assert oracle is None
                continue
            assert out.status == LpStatus.OPTIMAL
            assert oracle is not None
            assert out.objective == pytest.approx(oracle[0], abs=1e-6)
            solved += 1
        assert solved >= 90  # anchored construction keeps instances feasible


class TestDeterminism:
    def test_bit_identical_outcomes(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            prog = random_bounded_instance(rng)
            a = lp.solve(prog)
            b = lp.solve(prog)
            assert a.status == b.status
            if a.status == LpStatus.OPTIMAL:
                assert a.x.tobytes() == b.x.tobytes()
                assert a.objective == b.objective


class TestDegenerateInstances:
    def test_highly_degenerate_vertex(self):
        # five rows meet at the optimum and three more at the origin, where
        # the simplex starts, so its first pivots are degenerate
        prog = make_lp(
            [1.0, 1.0],
            [
                [1.0, 0.0],
                [0.0, 1.0],
                [1.0, 1.0],
                [2.0, 1.0],
                [1.0, 2.0],
                [1.0, -1.0],
                [-1.0, 1.0],
                [1.0, -2.0],
            ],
            [LESS_EQUAL] * 8,
            [1.0, 1.0, 2.0, 3.0, 3.0, 0.0, 0.0, 0.0],
            [NONNEGATIVE, NONNEGATIVE],
        )
        out = checked_solve(prog)
        assert out.status == LpStatus.OPTIMAL
        assert out.objective == pytest.approx(2.0, abs=1e-9)
        assert out.stats.degenerate_pivots >= 1

    def test_cycling_example_switches_to_bland(self):
        # Beale's example cycles under Dantzig pricing with lowest-index
        # leaving ties; Bland's rule must take over and reach the optimum
        prog = make_lp(
            [0.75, -20.0, 0.5, -6.0],
            [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
            [LESS_EQUAL] * 3,
            [0.0, 0.0, 1.0],
            [NONNEGATIVE] * 4,
        )
        out = checked_solve(prog)
        assert out.status == LpStatus.OPTIMAL
        assert out.objective == pytest.approx(1.25, abs=1e-9)
        assert out.stats.bland
        assert out.stats.degenerate_pivots > 3 * (3 + 4)


class TestSolveStats:
    def test_phases_and_dropped_rows(self):
        # the duplicated equality leaves an artificial that cannot be driven out
        prog = make_lp(
            [1.0, 1.0],
            [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]],
            [EQUAL, EQUAL, LESS_EQUAL],
            [2.0, 2.0, 1.5],
            [NONNEGATIVE, NONNEGATIVE],
        )
        stats = lp.solve(prog).stats
        assert stats.phase1_pivots >= 1
        assert stats.dropped_rows == 1
        assert not stats.bland

    def test_no_phase_one_without_artificials(self):
        prog = make_lp(
            [1.0, 1.0],
            [[1.0, 0.0], [0.0, 1.0]],
            [LESS_EQUAL, LESS_EQUAL],
            [1.0, 2.0],
            [NONNEGATIVE, NONNEGATIVE],
        )
        stats = lp.solve(prog).stats
        assert stats.phase1_pivots == 0
        assert stats.phase2_pivots == 2

    def test_pivot_budget_spans_both_phases(self, monkeypatch):
        prog = make_lp(
            [1.0, 2.0],
            [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
            [GREATER_EQUAL, LESS_EQUAL, LESS_EQUAL],
            [1.0, 2.0, 2.0],
            [NONNEGATIVE, NONNEGATIVE],
        )
        stats = lp.solve(prog).stats
        assert stats.phase1_pivots >= 1 and stats.phase2_pivots >= 1
        total = stats.phase1_pivots + stats.phase2_pivots
        monkeypatch.setattr(lp, "MAX_PIVOTS", total)
        assert lp.solve(prog).status == LpStatus.OPTIMAL
        monkeypatch.setattr(lp, "MAX_PIVOTS", total - 1)
        with pytest.raises(IterationLimit):
            lp.solve(prog)

    def test_infeasible_stops_after_phase_one(self):
        prog = make_lp([1.0], [[1.0], [1.0]], [GREATER_EQUAL, LESS_EQUAL], [2.0, 1.0], [FREE])
        out = lp.solve(prog)
        assert out.status == LpStatus.INFEASIBLE
        assert out.stats.phase2_pivots == 0


class TestRowScaledFeasibility:
    """Each row's phase 1 violation is measured against that row's own scale,
    so a large rhs elsewhere does not hide a violation."""

    def test_far_row_does_not_hide_an_infeasible_pair(self):
        prog = make_lp(
            [1.0, 1.0],
            [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
            [LESS_EQUAL, GREATER_EQUAL, LESS_EQUAL],
            [1e8, 1.0, 0.5],
            [NONNEGATIVE, NONNEGATIVE],
        )
        assert lp.solve(prog).status == LpStatus.INFEASIBLE

    def test_small_violation_on_a_small_row_is_infeasible(self):
        # x2 <= -1e-6 against 0 <= x2 with x1 <= 100 in the same program
        prog = make_lp(
            [0.0, 0.0],
            [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
            [LESS_EQUAL, LESS_EQUAL, LESS_EQUAL],
            [100.0, 1.0, -1e-6],
            [NONNEGATIVE, NONNEGATIVE],
        )
        assert lp.solve(prog).status == LpStatus.INFEASIBLE

    def test_tiny_rows_are_judged_at_their_own_scale(self):
        prog = make_lp([1.0], [[1.0], [1.0]], [GREATER_EQUAL, LESS_EQUAL], [1e-300, 0.0], [FREE])
        assert lp.solve(prog).status == LpStatus.INFEASIBLE

def assert_duals_certify(program, outcome, rows=None):
    """The duals are feasible for the dual of max c @ x (>= 0 on <= rows,
    <= 0 on >= rows, A^T y >= c on nonnegative columns and = c on free ones)
    and rhs @ duals equals the objective, all within 1e-9 relative."""
    A, rhs = program.A, program.rhs
    if rows is not None:
        A, rhs = np.vstack([A, rows[0]]), np.append(rhs, rows[1])
    relations = np.asarray(program.relations + (LESS_EQUAL,) * (A.shape[0] - program.num_rows))
    y = outcome.duals
    assert y.shape == (A.shape[0],)
    scale = 1.0 + np.abs(y).max(initial=0.0)
    assert (y[relations == LESS_EQUAL] >= -1e-9 * scale).all()
    assert (y[relations == GREATER_EQUAL] <= 1e-9 * scale).all()
    reduced = A.T @ y - program.objective
    size = np.abs(A).T @ np.abs(y) + np.abs(program.objective) + 1.0
    free = np.array([d == FREE for d in program.domains], dtype=bool)
    assert (reduced[~free] >= -1e-9 * size[~free]).all()
    assert (np.abs(reduced[free]) <= 1e-9 * size[free]).all()
    gap = abs(float(rhs @ y) - outcome.objective)
    assert gap <= 1e-9 * max(1.0, float(np.abs(rhs * y).sum()), abs(outcome.objective))


class TestDuals:
    def test_signs_of_negated_and_greater_equal_rows(self):
        # max 2 x1 - x2 - x3 s.t. -x1 >= -3, x2 >= 1, x3 - x1 = -1, x3 free;
        # the first and the last row are negated inside the solver
        prog = make_lp(
            [2.0, -1.0, -1.0],
            [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]],
            [GREATER_EQUAL, GREATER_EQUAL, EQUAL],
            [-3.0, 1.0, -1.0],
            [NONNEGATIVE, NONNEGATIVE, FREE],
        )
        out = lp.solve(prog)
        assert out.status == LpStatus.OPTIMAL
        assert out.objective == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(out.duals, [-1.0, -1.0, -1.0], atol=1e-12)
        assert_duals_certify(prog, out)

    def test_dropped_row_gets_zero(self):
        prog = make_lp(
            [1.0, 1.0],
            [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]],
            [EQUAL, EQUAL, LESS_EQUAL],
            [2.0, 2.0, 1.5],
            [NONNEGATIVE, NONNEGATIVE],
        )
        out = lp.solve(prog)
        assert out.stats.dropped_rows == 1
        assert_duals_certify(prog, out)

    def test_vertex_oracle_programs(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            prog = random_bounded_instance(rng)
            out = lp.solve(prog)
            if out.status == LpStatus.OPTIMAL:
                assert_duals_certify(prog, out)


class TestAddRow:
    """add_row re-optimizes an optimum after one more <= row."""

    def _extended(self, prog, row, rhs):
        return make_lp(
            prog.objective, np.vstack([prog.A, row]), prog.relations + (LESS_EQUAL,),
            np.append(prog.rhs, rhs), prog.domains,
        )

    def test_matches_a_cold_solve_and_leaves_the_base(self):
        rng = np.random.default_rng(21)
        checked = infeasible = 0
        while checked < 60:
            prog = random_bounded_instance(rng)
            base = lp.solve(prog)
            if base.status != LpStatus.OPTIMAL:
                continue
            before = base.tableau.tobytes(), base.basis.tobytes(), base.nonbasic.tobytes()
            row = rng.uniform(-1.0, 1.0, prog.num_cols)
            # between cutting through the optimum and missing the body
            rhs = float(row @ base.x) - float(rng.uniform(0.0, 3.0))
            warm = lp.add_row(base, row, rhs)
            cold = checked_solve(self._extended(prog, row, rhs))
            assert warm.status == cold.status
            assert before == (base.tableau.tobytes(), base.basis.tobytes(), base.nonbasic.tobytes())
            assert warm.stats.phase1_pivots == warm.stats.phase2_pivots == 0
            if cold.status == LpStatus.OPTIMAL:
                assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
                assert_outcome_invariants(self._extended(prog, row, rhs), warm)
                assert_duals_certify(prog, warm, rows=(row, rhs))
            else:
                infeasible += 1
            checked += 1
        assert 0 < infeasible < checked

    def test_a_slack_row_takes_no_pivot(self):
        prog = make_lp([1.0, 1.0], np.eye(2), [LESS_EQUAL] * 2, [1.0, 2.0], [NONNEGATIVE] * 2)
        base = lp.solve(prog)
        out = lp.add_row(base, [1.0, 0.0], 5.0)
        assert out.stats.dual_pivots == 0
        assert out.objective == base.objective
        np.testing.assert_allclose(out.duals, [1.0, 1.0, 0.0])

    def _optimum_and_row(self):
        """A random bounded optimum, a row and the row's value at the optimum."""
        rng = np.random.default_rng(5)
        base = lp.solve(prog := random_bounded_instance(rng))
        while base.status != LpStatus.OPTIMAL:
            base = lp.solve(prog := random_bounded_instance(rng))
        row = rng.standard_normal(prog.num_cols)
        return prog, base, row, float(row @ base.x)

    @pytest.mark.parametrize("slack", [0.5, 0.0], ids=["strictly-met", "met-exactly"])
    def test_a_row_the_optimum_meets_keeps_it(self, slack):
        prog, base, row, value = self._optimum_and_row()
        before = base.tableau.tobytes(), base.basis.tobytes(), base.nonbasic.tobytes()
        out = lp.add_row(base, row, value + slack)
        assert out.status == LpStatus.OPTIMAL
        assert out.x.tobytes() == base.x.tobytes()
        assert not np.shares_memory(out.x, base.x)
        assert out.objective == base.objective
        assert out.duals.tobytes() == np.append(base.duals, 0.0).tobytes()
        assert_duals_certify(prog, out, rows=(row, value + slack))
        assert out.stats == lp.SolveStats()
        assert before == (base.tableau.tobytes(), base.basis.tobytes(), base.nonbasic.tobytes())

    def test_a_row_missed_by_roundoff_takes_the_dual_simplex(self, monkeypatch):
        prog, base, row, value = self._optimum_and_row()
        rhs = value - 1e-15 * abs(value)
        assert rhs < value
        # only the dual simplex reads its answer off a tableau
        reads = []
        optimum = lp._optimum
        monkeypatch.setattr(lp, "_optimum", lambda *args: reads.append(1) or optimum(*args))
        out = lp.add_row(base, row, rhs)
        assert reads
        extended = self._extended(prog, row, rhs)
        cold = checked_solve(extended)
        assert out.status == cold.status == LpStatus.OPTIMAL
        assert out.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
        assert_outcome_invariants(extended, out)
        assert_duals_certify(prog, out, rows=(row, rhs))

    def test_a_binding_row_takes_dual_pivots(self):
        prog = make_lp([1.0, 1.0], np.eye(2), [LESS_EQUAL] * 2, [1.0, 2.0], [NONNEGATIVE] * 2)
        out = lp.add_row(lp.solve(prog), [1.0, 1.0], 2.0)
        assert out.stats.dual_pivots >= 1
        assert out.objective == pytest.approx(2.0, abs=1e-12)
        assert lp.add_row(lp.solve(prog), [1.0, 1.0], -1.0).status == LpStatus.INFEASIBLE

    def test_a_free_variable_enters_moving_down(self):
        # max y s.t. y <= 1 over (x free, y >= 0): x is in no row and stays
        # nonbasic, so meeting x + y <= 0.5 takes x down, not y
        prog = make_lp([0.0, 1.0], [[0.0, 1.0]], [LESS_EQUAL], [1.0], [FREE, NONNEGATIVE])
        base = lp.solve(prog)
        assert base.status == LpStatus.OPTIMAL and 0 in base.nonbasic
        out = lp.add_row(base, [1.0, 1.0], 0.5)
        assert out.status == LpStatus.OPTIMAL
        assert out.objective == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out.x, [-0.5, 1.0], atol=1e-12)
        assert out.stats.dual_pivots == 1
        assert_outcome_invariants(self._extended(prog, [1.0, 1.0], 0.5), out)


class TestReprice:
    """reprice re-optimizes an optimum under another objective from its
    tableau; the result matches solve on the program with that objective."""

    def _agrees(self, base, objective):
        """reprice(base, objective) against a cold solve; returns it."""
        program = replace(base.program, objective=np.asarray(objective, dtype=float))
        before = base.tableau.tobytes(), base.basis.tobytes(), base.nonbasic.tobytes()
        out = lp.reprice(base, objective)
        cold = checked_solve(program)
        assert before == (base.tableau.tobytes(), base.basis.tobytes(), base.nonbasic.tobytes())
        assert out.status == cold.status
        assert out.stats.phase1_pivots == out.stats.dual_pivots == 0
        assert_outcome_invariants(program, out)
        if cold.status == LpStatus.OPTIMAL:
            size = float(np.abs(program.objective) @ np.abs(cold.x))
            assert out.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9 * size)
            assert_duals_certify(program, out)
            assert out.program.objective.tobytes() == program.objective.tobytes()
        return out

    def test_matches_solve_under_the_new_objective(self):
        rng = np.random.default_rng(23)
        checked = pivoted = 0
        while checked < 80:
            # <=, >= and = rows over nonnegative columns, then free columns too
            prog = random_bounded_instance(rng) if checked % 2 else _boxed_program(rng)
            base = lp.solve(prog)
            if base.status != LpStatus.OPTIMAL:
                continue
            out = self._agrees(base, rng.standard_normal(prog.num_cols))
            pivoted += out.stats.phase2_pivots > 0
            # an optimum from reprice is itself a warm start
            back = self._agrees(out, prog.objective)
            assert back.objective == pytest.approx(base.objective, rel=1e-9, abs=1e-9)
            checked += 1
        assert pivoted > 40

    def test_a_dropped_row_keeps_a_zero_dual(self):
        prog = make_lp(
            [1.0, 1.0],
            [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]],
            [EQUAL, EQUAL, LESS_EQUAL],
            [2.0, 2.0, 1.5],
            [NONNEGATIVE, NONNEGATIVE],
        )
        base = lp.solve(prog)
        assert base.stats.dropped_rows == 1
        for objective in ([2.0, -1.0], [-1.0, 3.0]):
            out = self._agrees(base, objective)
            assert (out.duals[:2] == 0.0).any()

    def test_rejects_a_malformed_objective(self):
        base = lp.solve(make_lp([1.0, 1.0], np.eye(2), [LESS_EQUAL] * 2, [1.0, 2.0],
                                [NONNEGATIVE] * 2))
        for objective in ([1.0], [1.0, np.nan], [np.inf, 0.0]):
            with pytest.raises(ValueError):
                lp.reprice(base, objective)

    def test_solve_refuses_a_start_of_other_rows(self):
        prog = make_lp([1.0, 1.0], np.eye(2), [LESS_EQUAL] * 2, [1.0, 2.0], [NONNEGATIVE] * 2)
        base = lp.solve(prog)
        assert lp.solve(prog.with_objective([2.0, 1.0]), start=base).objective == 4.0
        # equal rows, but not the start's own, which its tableau describes
        with pytest.raises(ValueError):
            lp.solve(replace(prog, rhs=np.array([1.0, 2.0])), start=base)
        # an unbounded outcome keeps no tableau
        unbounded = lp.solve(make_lp([1.0], [[-1.0]], [LESS_EQUAL], [1.0], [NONNEGATIVE]))
        with pytest.raises(ValueError):
            lp.solve(prog, start=unbounded)

    def test_unbounded_objectives(self):
        for prog in _unbounded_programs(37, 10):
            base = lp.solve(replace(prog, objective=np.zeros(prog.num_cols)))
            assert base.status == LpStatus.OPTIMAL
            out = self._agrees(base, prog.objective)
            assert out.status == LpStatus.UNBOUNDED


def _highs(program):
    """(status, objective) of the program by SciPy's HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    rel = np.asarray(program.relations)
    A_ub = np.vstack([program.A[rel == LESS_EQUAL], -program.A[rel == GREATER_EQUAL]])
    b_ub = np.concatenate([program.rhs[rel == LESS_EQUAL], -program.rhs[rel == GREATER_EQUAL]])
    eq = rel == EQUAL
    bounds = [(None, None) if d == FREE else (0.0, None) for d in program.domains]
    res = linprog(
        -program.objective,
        A_ub=A_ub if A_ub.shape[0] else None,
        b_ub=b_ub if A_ub.shape[0] else None,
        A_eq=program.A[eq] if eq.any() else None,
        b_eq=program.rhs[eq] if eq.any() else None,
        bounds=bounds,
        method="highs",
    )
    status = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}[res.status]
    return status, (-float(res.fun) if res.status == 0 else None)


def _dense_depth_programs(seed, rows, n, hull):
    """Depth LPs on a random body around x0 inside [-1, 1]^n: a cut that
    removes x0 (finite), one whose halfspace misses the box (infeasible) and
    a random one."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-0.3, 0.3, n)
    k = rows - 2 * n
    A = rng.standard_normal((k, n))
    b = A @ x0 + np.linalg.norm(A, axis=1) * rng.uniform(0.2, 1.0, k)
    A = np.vstack([A, np.eye(n), -np.eye(n)])
    b = np.concatenate([b, np.ones(2 * n)])
    if hull:
        L = rng.standard_normal((hull, n))
        space = AffineSpace(L, L @ x0)
    else:
        space = AffineSpace.full_space(n)
    body = normalize(HPolyhedron(A, b, space))
    a = rng.standard_normal(n)
    cuts = [
        Cut(a, float(a @ x0) + 0.3 * float(np.linalg.norm(a))),
        Cut(a, -float(np.abs(a).sum()) - 1.0),
        Cut(rng.standard_normal(n), float(rng.uniform(-1.0, 1.0))),
    ]
    return [body.depth_program(cut) for cut in cuts]


def _boxed_program(rng):
    """A feasible, bounded program of <= and = rows around a point x0 >= 0,
    with free and nonnegative columns and every column boxed to x0 +/- 2t,
    so that it has more rows than columns; t sets the data's scale."""
    n, k = int(rng.integers(2, 7)), int(rng.integers(1, 8))
    p = int(rng.integers(0, n))
    t = 10.0 ** int(rng.integers(-4, 5))
    x0 = t * rng.uniform(0.1, 1.0, n)
    G, L = rng.standard_normal((k, n)), rng.standard_normal((p, n))
    A = np.vstack([G, np.eye(n), -np.eye(n), L])
    rhs = np.concatenate([G @ x0 + t * rng.uniform(0.1, 1.0, k), x0 + 2 * t, 2 * t - x0, L @ x0])
    relations = [LESS_EQUAL] * (k + 2 * n) + [EQUAL] * p
    domains = [FREE if free else NONNEGATIVE for free in rng.random(n) < 0.5]
    return make_lp(rng.standard_normal(n), A, relations, rhs, domains)


class TestDual:
    """lp.dual and lp.solve_dual against solve on the program as written."""

    def test_layout(self):
        prog = make_lp(
            [1.0, 2.0], [[1.0, 0.0], [3.0, 1.0], [0.0, 1.0]], [LESS_EQUAL, EQUAL, LESS_EQUAL],
            [4.0, -8.0, 0.0], [FREE, NONNEGATIVE],
        )
        dual, scale = lp.dual(prog)
        assert scale == 8.0
        np.testing.assert_array_equal(dual.A, prog.A.T)
        np.testing.assert_array_equal(dual.objective, [-0.5, 1.0, -0.0])
        np.testing.assert_array_equal(dual.rhs, prog.objective)
        assert dual.relations == (EQUAL, GREATER_EQUAL)
        assert dual.domains == (NONNEGATIVE, FREE, NONNEGATIVE)
        assert lp.dual(make_lp([1.0], [[1.0]], [LESS_EQUAL], [0.0], [FREE]))[1] == 1.0

    def test_rejects_greater_equal_rows(self):
        prog = make_lp([1.0], [[1.0], [1.0]], [LESS_EQUAL, GREATER_EQUAL], [1.0, 0.0], [FREE])
        with pytest.raises(ValueError):
            lp.dual(prog)

    def test_strong_duality(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            prog = _boxed_program(rng)
            primal = checked_solve(prog)
            dual, scale = lp.dual(prog)
            answer = checked_solve(dual)
            assert primal.status == answer.status == LpStatus.OPTIMAL
            scale_of_value = np.abs(prog.objective) @ np.abs(primal.x)
            assert -scale * answer.objective == pytest.approx(
                primal.objective, rel=1e-9, abs=1e-9 * scale_of_value
            )

    def test_solve_dual_agrees_with_solve(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            prog = _boxed_program(rng)
            primal = checked_solve(prog)
            out = lp.solve_dual(prog)
            assert out.status == LpStatus.OPTIMAL
            assert out.stats.dualized and not primal.stats.dualized
            assert_outcome_invariants(prog, out)
            scale_of_value = np.abs(prog.objective) @ np.abs(primal.x)
            assert out.objective == pytest.approx(
                primal.objective, rel=1e-9, abs=1e-9 * scale_of_value
            )
            assert (out.x[np.array(prog.domains) == NONNEGATIVE] >= 0.0).all()
            assert_duals_certify(prog, out)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_solve_dual_holds_equal_rows_from_both_sides(self, monkeypatch, factor):
        # max -x s.t. x = 1, x <= 5, x <= 6: a misscaled dual reads x = factor,
        # which meets both <= rows but misses the = row from one side
        prog = make_lp([-1.0], [[1.0], [1.0], [1.0]], [EQUAL, LESS_EQUAL, LESS_EQUAL],
                       [1.0, 5.0, 6.0], [FREE])
        assert lp.solve_dual(prog).x == pytest.approx([1.0])
        honest = lp.dual

        def misscaled(program):
            dual_program, scale = honest(program)
            return dual_program, factor * scale

        monkeypatch.setattr(lp, "dual", misscaled)
        assert lp.solve_dual(prog) is None

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_solve_dual_certifies_the_gap(self, factor):
        # max x_1 + x_2 over x_1 <= -1, x_2 <= -1, x_1 + x_2 <= -3, a cone's
        # unit slice: a misscaled dual reads factor times an optimum, which
        # still meets every row when factor >= 1, so only the gap rejects it
        prog = make_lp([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [LESS_EQUAL] * 3,
                       [-1.0, -1.0, -3.0], [FREE] * 2)
        dual_program, scale = lp.dual(prog)
        out = lp.solve_dual(prog, (dual_program, scale))
        assert out.objective == pytest.approx(-3.0) and out.stats.dualized
        assert out.objective == pytest.approx(prog.rhs @ out.duals)
        assert lp.solve_dual(prog, (dual_program, factor * scale)) is None

    def test_solve_dual_declines(self):
        square = make_lp([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [LESS_EQUAL] * 2, [1.0, 2.0],
                         [NONNEGATIVE] * 2)
        assert checked_solve(square).status == LpStatus.OPTIMAL
        assert lp.solve_dual(square) is None
        # x <= -1 with x >= 0 is infeasible, so the dual is unbounded
        infeasible = make_lp([1.0], [[1.0], [1.0]], [LESS_EQUAL] * 2, [-1.0, 1.0], [NONNEGATIVE])
        assert lp.solve_dual(infeasible) is None
        # x free with only upper bounds: max -x is unbounded, the dual infeasible
        unbounded = make_lp([-1.0], [[1.0], [2.0]], [LESS_EQUAL] * 2, [1.0, 1.0], [FREE])
        assert lp.solve_dual(unbounded) is None


def _unbounded_programs(seed, count):
    """max c @ x over A x <= b, x >= 0 where column 0 of A is nonpositive
    and c_0 > 0, so x_0 can grow without bound; every other program also
    comes with x_0 free and the signs of A[:, 0] and c_0 flipped, so that
    x_0 falls without bound and the ray moves it down."""
    rng = np.random.default_rng(seed)
    programs = []
    for i in range(count):
        m, n = int(rng.integers(3, 12)), int(rng.integers(2, 8))
        A = rng.uniform(-1.0, 1.0, (m, n))
        A[:, 0] = -np.abs(A[:, 0])
        c = rng.uniform(-1.0, 1.0, n)
        c[0] = abs(c[0]) + 0.1
        b = rng.uniform(0.5, 2.0, m)
        programs.append(make_lp(c, A, [LESS_EQUAL] * m, b, [NONNEGATIVE] * n))
        if i % 2:
            flip = np.ones(n)
            flip[0] = -1.0
            programs.append(make_lp(c * flip, A * flip, [LESS_EQUAL] * m, b,
                                    [FREE] + [NONNEGATIVE] * (n - 1)))
    return programs


class TestAgainstHighs:
    """Differential test against SciPy's HiGHS (skipped without SciPy)."""

    @staticmethod
    def _agree(programs, expected=None):
        for program in programs:
            out = checked_solve(program)
            status, value = _highs(program)
            assert out.status == status
            if expected is not None:
                assert out.status == expected
            if status == LpStatus.OPTIMAL:
                assert out.objective == pytest.approx(value, rel=1e-7, abs=1e-7)
                assert_duals_certify(program, out)

    @pytest.mark.parametrize("hull", [0, 3])
    def test_dense_depth_programs(self, hull):
        for seed in range(4):
            self._agree(_dense_depth_programs(seed, 80, 20, hull))

    def test_deep_cone(self):
        body = normalize(depth_lower_bound_cone(8, 1e-4).polyhedron)
        rng = np.random.default_rng(5)
        cuts = [Cut(np.eye(8)[0] * -1.0, 0.0)]
        for _ in range(4):
            coeffs = rng.uniform(-0.2, 0.2, 8)
            coeffs[0] = -1.0
            cuts.append(Cut(coeffs, rng.uniform(-0.5, 0.0)))
        self._agree([body.depth_program(cut) for cut in cuts])

    def test_dual_of_deep_cone(self):
        # the dual depth programs cut_depth solves on cones: optimal for
        # finite cuts, infeasible for an unbounded cut and unbounded for a
        # cut that removes nothing; the second body carries a 2-row hull
        rng = np.random.default_rng(9)
        cone = depth_lower_bound_cone(8, 1e-4).polyhedron
        lifted = np.hstack([cone.A, np.zeros((cone.num_rows, 2))])
        L = rng.standard_normal((2, 10))
        hull = AffineSpace(L, L @ rng.standard_normal(10))
        for body in (normalize(cone), normalize(HPolyhedron(lifted, cone.b, hull))):
            n = body.dim
            cuts = [Cut(-np.eye(n)[0], 0.0), Cut(np.eye(n)[0], 0.0)]
            cuts.append(Cut(-body.normals[0], -body.offsets[0] - 1.0))
            for _ in range(3):
                coeffs = np.zeros(n)
                coeffs[:8] = rng.uniform(-0.2, 0.2, 8)
                coeffs[0] = -1.0
                cuts.append(Cut(coeffs, rng.uniform(-0.5, 0.0)))
            programs = [lp.dual(body.depth_program(cut))[0] for cut in cuts]
            statuses = [checked_solve(program).status for program in programs]
            assert statuses[:3] == [LpStatus.OPTIMAL, LpStatus.INFEASIBLE, LpStatus.UNBOUNDED]
            self._agree(programs)

    def test_infeasible_programs(self):
        rng = np.random.default_rng(11)
        programs = []
        for _ in range(10):
            prog = random_bounded_instance(rng)
            # x_0 >= total cap + 1 contradicts the cap row sum(x) <= cap
            row = np.zeros(prog.num_cols)
            row[0] = 1.0
            programs.append(
                make_lp(
                    prog.objective,
                    np.vstack([prog.A, row]),
                    prog.relations + (GREATER_EQUAL,),
                    np.append(prog.rhs, prog.rhs[-1] + 1.0),
                    prog.domains,
                )
            )
        self._agree(programs, LpStatus.INFEASIBLE)

    def test_unbounded_programs(self):
        self._agree(_unbounded_programs(7, 10), LpStatus.UNBOUNDED)

    def test_random_bounded_programs(self):
        rng = np.random.default_rng(13)
        self._agree([random_bounded_instance(rng) for _ in range(30)])
