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

    def test_a_binding_row_takes_dual_pivots(self):
        prog = make_lp([1.0, 1.0], np.eye(2), [LESS_EQUAL] * 2, [1.0, 2.0], [NONNEGATIVE] * 2)
        out = lp.add_row(lp.solve(prog), [1.0, 1.0], 2.0)
        assert out.stats.dual_pivots >= 1
        assert out.objective == pytest.approx(2.0, abs=1e-12)
        assert lp.add_row(lp.solve(prog), [1.0, 1.0], -1.0).status == LpStatus.INFEASIBLE


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


def _unbounded_programs(seed, count):
    """max c @ x over A x <= b, x >= 0 where column 0 of A is nonpositive
    and c_0 > 0, so x_0 can grow without bound."""
    rng = np.random.default_rng(seed)
    programs = []
    for _ in range(count):
        m, n = int(rng.integers(3, 12)), int(rng.integers(2, 8))
        A = rng.uniform(-1.0, 1.0, (m, n))
        A[:, 0] = -np.abs(A[:, 0])
        c = rng.uniform(-1.0, 1.0, n)
        c[0] = abs(c[0]) + 0.1
        b = rng.uniform(0.5, 2.0, m)
        programs.append(make_lp(c, A, [LESS_EQUAL] * m, b, [NONNEGATIVE] * n))
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
            programs = [body.dual_depth_program(cut)[0] for cut in cuts]
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
