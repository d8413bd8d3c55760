import math

import numpy as np
import pytest

from cutdepth import lp
from cutdepth.cli.suites import random_corner
from cutdepth.constructions import depth_lower_bound_cone
from cutdepth.corner import standard_form_model
from cutdepth.depth import (
    DepthKind,
    cut_depth,
    cut_depth_standard_form,
    point_depth,
    volume_lower_bound,
)
from cutdepth.errors import (
    EmptyPolyhedron,
    PointOutsideHull,
    PointOutsidePolyhedron,
)
from cutdepth.polyhedron import (
    AffineSpace,
    Cut,
    HPolyhedron,
    StandardFormModel,
    from_standard_form,
    normalize,
    shrink,
)

from oracles import point_depth_by_bisection


def box(lo, hi):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.shape[0]
    A = np.vstack([-np.eye(n), np.eye(n)])
    b = np.concatenate([-lo, hi])
    return normalize(HPolyhedron(A, b, AffineSpace.full_space(n)))


def halfspace(coeffs, rhs, n):
    """{ x : coeffs @ x >= rhs } as a normalized polyhedron."""
    A = -np.asarray(coeffs, dtype=float).reshape(1, n)
    return normalize(HPolyhedron(A, [-rhs], AffineSpace.full_space(n)))


class TestPointDepth:
    def test_center_of_unit_square(self):
        Q = box([0.0, 0.0], [1.0, 1.0])
        assert point_depth(Q, [0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)

    def test_off_center(self):
        Q = box([0.0, 0.0], [1.0, 1.0])
        assert point_depth(Q, [0.2, 0.7]) == pytest.approx(0.2, abs=1e-12)

    def test_segment_interior_point(self):
        space = AffineSpace([[1.0, 1.0]], [1.0])
        P = HPolyhedron([[1.0, 0.0], [-1.0, 0.0]], [1.0, 0.0], space)
        Q = normalize(P)
        # in-hull distance from (0.3, 0.7) to the endpoint (0, 1)
        assert point_depth(Q, [0.3, 0.7]) == pytest.approx(math.sqrt(0.18), abs=1e-9)

    def test_no_rows_is_unbounded(self):
        Q = normalize(HPolyhedron(np.zeros((0, 2)), [], AffineSpace.full_space(2)))
        assert point_depth(Q, [3.0, 4.0]) == math.inf

    def test_outside_hull(self):
        space = AffineSpace([[1.0, 1.0]], [1.0])
        Q = normalize(HPolyhedron([[1.0, 0.0]], [1.0], space))
        with pytest.raises(PointOutsideHull):
            point_depth(Q, [0.0, 0.0])

    def test_outside_polyhedron(self):
        Q = box([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(PointOutsidePolyhedron):
            point_depth(Q, [1.5, 0.5])

    def test_matches_shrink_bisection(self):
        rng = np.random.default_rng(31)
        Q = box([0.0, -1.0, 0.5], [2.0, 1.0, 3.5])
        for _ in range(25):
            x = rng.uniform([0.0, -1.0, 0.5], [2.0, 1.0, 3.5])
            d = point_depth(Q, x)
            assert d == pytest.approx(point_depth_by_bisection(Q, x), abs=1e-9)


class TestCutDepth:
    def test_box_example(self):
        Q = box([0.25, 0.0], [1.0, 1.0])
        res = cut_depth(Q, Cut([1.0, 0.0], 1.0))
        assert res.kind == DepthKind.FINITE
        assert res.value == pytest.approx(0.375, abs=1e-9)
        # the attaining point must be that deep and must be removed
        assert point_depth(Q, res.point) == pytest.approx(res.value, abs=1e-7)
        assert res.point[0] <= 1.0 + 1e-9

    def test_halfspace_tightness(self):
        eps = 0.3
        Q = halfspace([1.0, 0.0], eps / 3.0, 2)
        res = cut_depth(Q, Cut([1.0, 0.0], 1.0))
        assert res.kind == DepthKind.FINITE
        assert res.value == pytest.approx(1.0 - eps / 3.0, abs=1e-9)

    def test_unbounded_direction(self):
        Q = halfspace([0.0, 1.0], 0.0, 2)
        res = cut_depth(Q, Cut([1.0, 0.0], 1.0))
        assert res.kind == DepthKind.UNBOUNDED
        assert res.ray is not None

    def test_not_violated(self):
        Q = box([0.0, 0.0], [1.0, 1.0])
        res = cut_depth(Q, Cut([-1.0, -1.0], -10.0))
        assert res.kind == DepthKind.NOT_VIOLATED

    def test_boundary_touching_cut_is_finite_zero(self):
        Q = box([0.0, 0.0], [1.0, 1.0])
        res = cut_depth(Q, Cut([1.0, 0.0], 0.0))  # removes only the x1 = 0 face
        assert res.kind == DepthKind.FINITE
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_empty_polyhedron(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0]])
        Q = normalize(HPolyhedron(A, [0.0, -1.0], AffineSpace.full_space(2)))
        with pytest.raises(EmptyPolyhedron):
            cut_depth(Q, Cut([1.0, 0.0], 1.0))

    def test_no_rows_returns_unbounded(self):
        Q = normalize(HPolyhedron(np.zeros((0, 2)), [], AffineSpace.full_space(2)))
        res = cut_depth(Q, Cut([1.0, 0.0], 1.0))
        assert res.kind == DepthKind.UNBOUNDED

    def test_dominates_depth_of_removed_points(self):
        rng = np.random.default_rng(8)
        Q = box([0.0, 0.0, 0.0], [2.0, 1.0, 1.5])
        cut = Cut([1.0, 1.0, 0.0], 1.5)
        res = cut_depth(Q, cut)
        assert res.kind == DepthKind.FINITE
        for _ in range(200):
            x = rng.uniform([0.0] * 3, [2.0, 1.0, 1.5])
            if cut.coeffs @ x < cut.rhs - 1e-9:
                assert cut_depth(Q, cut).value >= point_depth(Q, x) - 1e-7
        # and the optimum is itself a removed point's depth
        assert res.value >= point_depth(Q, res.point) - 1e-7

    def test_monotone_under_relaxation(self):
        Q = box([0.25, 0.0], [1.0, 1.0])
        cut = Cut([1.0, 0.0], 1.0)
        base = cut_depth(Q, cut)
        for drop in range(Q.num_rows):
            keep = [i for i in range(Q.num_rows) if i != drop]
            relaxed = normalize(
                HPolyhedron(Q.normals[keep], Q.offsets[keep], Q.space)
            )
            res = cut_depth(relaxed, cut)
            if res.kind == DepthKind.FINITE:
                assert res.value >= base.value - 1e-7
            else:
                assert res.kind == DepthKind.UNBOUNDED

    def test_full_dimensional_bound(self):
        # boxes whose integer hull is nonempty: valid cuts stay below
        # sqrt((n+1)/2)
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            lo = rng.uniform(-2.0, 0.4, n)
            hi = lo + rng.uniform(1.2, 3.0, n)
            Q = box(lo, hi)
            j = int(rng.integers(0, n))
            coeffs = np.zeros(n)
            coeffs[j] = 1.0
            res = cut_depth(Q, Cut(coeffs, float(np.ceil(lo[j]))))
            if res.kind == DepthKind.FINITE:
                assert res.value < math.sqrt((n + 1) / 2.0) + 1e-7


class TestCutDepthStandardForm:
    def test_unit_square(self):
        model = StandardFormModel(AffineSpace.full_space(2), np.zeros(2), np.ones(2))
        res = cut_depth_standard_form(model, Cut([1.0, 1.0], 1.0))
        assert res.kind == DepthKind.FINITE
        assert res.value == pytest.approx(0.5, abs=1e-9)

    def test_corner_worked_example(self):
        space = AffineSpace([[1.0, -1.0, 1.0]], [0.5])
        model = StandardFormModel(
            space, [-math.inf, 0.0, 0.0], [math.inf] * 3
        )
        res = cut_depth_standard_form(model, Cut([0.0, 2.0, 2.0], 1.0))
        assert res.kind == DepthKind.FINITE
        assert res.value == pytest.approx(math.sqrt(6.0) / 8.0, abs=1e-9)

    def test_not_violated(self):
        model = StandardFormModel(AffineSpace.full_space(2), np.zeros(2), np.ones(2))
        res = cut_depth_standard_form(model, Cut([-1.0, -1.0], -10.0))
        assert res.kind == DepthKind.NOT_VIOLATED

    def test_empty_model(self):
        space = AffineSpace([[1.0, 1.0]], [5.0])
        model = StandardFormModel(space, np.zeros(2), np.ones(2))
        with pytest.raises(EmptyPolyhedron):
            cut_depth_standard_form(model, Cut([1.0, 0.0], 1.0))

    def test_variable_pinned_by_bounds_flattens_depth(self):
        # lower == upper leaves the body flat inside the declared hull, so
        # every depth is zero; declaring the pin as an equality row instead
        # shrinks the hull and restores the segment's one-dimensional depth
        flat = StandardFormModel(AffineSpace.full_space(2), [0.0, 0.5], [1.0, 0.5])
        res = cut_depth_standard_form(flat, Cut([1.0, 0.0], 1.0))
        assert res.kind == DepthKind.FINITE
        assert res.value == 0.0
        pinned = StandardFormModel(
            AffineSpace([[0.0, 1.0]], [0.5]), [0.0, -math.inf], [1.0, math.inf]
        )
        res = cut_depth_standard_form(pinned, Cut([1.0, 0.0], 1.0))
        assert res.value == pytest.approx(0.5, abs=1e-9)

    def test_agrees_with_inequality_form(self):
        rng = np.random.default_rng(77)
        agreed = 0
        while agreed < 50:
            n = int(rng.integers(2, 5))
            p = int(rng.integers(0, 2))
            if p:
                L = rng.uniform(-1.0, 1.0, (1, n))
                if np.linalg.norm(L) < 0.3:
                    continue
                space = AffineSpace(L, rng.uniform(-0.5, 0.5, 1))
            else:
                space = AffineSpace.full_space(n)
            lower = rng.uniform(-1.0, 0.0, n)
            upper = lower + rng.uniform(0.5, 2.0, n)
            lower[rng.uniform(size=n) < 0.2] = -math.inf
            upper[rng.uniform(size=n) < 0.2] = math.inf
            model = StandardFormModel(space, lower, upper)
            cut = Cut(rng.uniform(-1.0, 1.0, n), float(rng.uniform(-0.5, 0.5)))
            try:
                via_model = cut_depth_standard_form(model, cut)
            except EmptyPolyhedron:
                with pytest.raises(EmptyPolyhedron):
                    cut_depth(from_standard_form(model), cut)
                continue
            via_rows = cut_depth(from_standard_form(model), cut)
            assert via_model.kind == via_rows.kind
            if via_model.kind == DepthKind.FINITE:
                assert via_model.value == pytest.approx(via_rows.value, abs=1e-7)
            agreed += 1


def _scale_instances():
    """(model, [cut, ...]) pairs: the unit box with a vacuous and a finite
    cut, plus seeded random corners whose cuts cover every kind."""
    unit_box = StandardFormModel(AffineSpace.full_space(2), [0.0, 0.0], [1.0, 1.0])
    yield unit_box, [Cut([1.0, 0.0], -1.0), Cut([1.0, 1.0], 1.5)]
    rng = np.random.default_rng(3)
    for index in range(10):
        corner = random_corner(rng, index)
        m = corner.data.num_basic
        cuts = [Cut(np.concatenate([np.zeros(m), c.coeffs]), c.rhs) for c, _ in corner.cuts]
        yield standard_form_model(corner.data), cuts


def _scaled(model, t):
    space = AffineSpace(model.space.A, t * model.space.b)
    return StandardFormModel(space, t * model.lower, t * model.upper)


class TestScaleInvariance:
    """Depth is positively homogeneous: scaling the body and the cut's rhs by
    t > 0 keeps the kind and scales a finite depth by t."""

    @pytest.mark.parametrize(
        "depth_of",
        [
            lambda model, cut: cut_depth(from_standard_form(model), cut),
            cut_depth_standard_form,
        ],
        ids=["inequality-lp", "standard-form-lp"],
    )
    def test_kind_and_value_scale_with_the_body(self, depth_of):
        for model, cuts in _scale_instances():
            for cut in cuts:
                reference = depth_of(model, cut)
                for t in 10.0 ** np.arange(-8, 9):
                    result = depth_of(_scaled(model, t), Cut(cut.coeffs, t * cut.rhs))
                    assert result.kind == reference.kind, (t, cut)
                    if reference.kind == DepthKind.FINITE:
                        expected = t * reference.value
                        assert result.value == pytest.approx(expected, rel=1e-9, abs=1e-12 * t)

    def test_box_cut_that_removes_nothing(self):
        for h in (1e-8, 1.0, 1e8):
            Q = box([0.0, 0.0], [h, h])
            assert cut_depth(Q, Cut([1.0, 0.0], -h)).kind == DepthKind.NOT_VIOLATED

    def test_long_side_does_not_hide_a_short_one(self):
        Q = box([0.0, 0.0], [100.0, 1.0])
        assert cut_depth(Q, Cut([0.0, 1.0], -1e-6)).kind == DepthKind.NOT_VIOLATED


def _dense_body(rng, rows, n, hull, duplicates=0):
    """Random rows around an interior point x0 plus the box [-1, 1]^n, the
    first rows repeated `duplicates` times, on a hull through x0 if asked."""
    x0 = rng.uniform(-0.3, 0.3, n)
    k = rows - 2 * n
    A = rng.standard_normal((k, n))
    b = A @ x0 + np.linalg.norm(A, axis=1) * rng.uniform(0.2, 1.0, k)
    A = np.vstack([A, np.eye(n), -np.eye(n), A[:duplicates]])
    b = np.concatenate([b, np.ones(2 * n), b[:duplicates]])
    if hull:
        L = rng.standard_normal((hull, n))
        return normalize(HPolyhedron(A, b, AffineSpace(L, L @ x0))), x0
    return normalize(HPolyhedron(A, b, AffineSpace.full_space(n))), x0


def _cold(body, cut):
    """(kind, value) of the depth LP solved from scratch."""
    outcome = lp.solve(body.depth_program(cut))
    if outcome.status == lp.LpStatus.INFEASIBLE:
        return DepthKind.NOT_VIOLATED, None
    assert outcome.status == lp.LpStatus.OPTIMAL
    return DepthKind.FINITE, max(outcome.objective, 0.0)


def _is_warm(result):
    return result.stats.phase1_pivots == result.stats.phase2_pivots == 0


class TestWarmStart:
    """Bodies with a bounded cut-free LP score cuts by re-optimizing the
    cached Chebyshev-centre optimum; the result matches a cold solve."""

    def _bodies(self):
        rng = np.random.default_rng(17)
        for hull, duplicates in ((0, 0), (3, 0), (0, 6), (2, 4)):
            body, x0 = _dense_body(rng, 60, 12, hull, duplicates)
            cuts = []
            for i in range(9):
                a = rng.standard_normal(12)
                rhs = [
                    float(a @ x0) + 0.3 * float(np.linalg.norm(a)),  # removes x0
                    float(rng.uniform(-1.0, 1.0)),
                    -float(np.abs(a).sum()) - 1.0,  # misses the box
                ][i % 3]
                cuts.append(Cut(a, rhs))
            yield body, cuts
        # the Chebyshev centres of [0, 1] x [0, 3] fill a segment
        cuts = [Cut(c, r) for c, r in (([1, 0], 0.5), ([0, 1], 1.0), ([0, -1], -3.0),
                                       ([1, 1], 0.0), ([-1, 0], -0.25), ([0, 1], -1.0))]
        yield box([0.0, 0.0], [1.0, 3.0]), cuts

    def test_warm_matches_cold(self):
        kinds = set()
        for body, cuts in self._bodies():
            assert body.chebyshev.status == lp.LpStatus.OPTIMAL
            for cut in cuts:
                result = cut_depth(body, cut)
                kind, value = _cold(body, cut)
                assert _is_warm(result)
                assert result.kind == kind
                kinds.add(kind)
                if kind == DepthKind.FINITE:
                    assert result.value == pytest.approx(value, rel=1e-9, abs=1e-12)
                    assert point_depth(body, result.point) >= result.value - 1e-9
                    assert cut.coeffs @ result.point <= cut.rhs + 1e-9
        assert kinds == {DepthKind.FINITE, DepthKind.NOT_VIOLATED}

    def test_scoring_leaves_the_cache_unchanged(self):
        rng = np.random.default_rng(4)
        body, x0 = _dense_body(rng, 80, 15, 2)
        a, b = rng.standard_normal((2, 15))
        A = Cut(a, float(a @ x0) + 0.2)
        B = Cut(b, float(b @ x0) + 0.4)
        first, _, again = cut_depth(body, A), cut_depth(body, B), cut_depth(body, A)
        assert first.stats.dual_pivots > 0
        assert again.value == first.value
        assert again.point.tobytes() == first.point.tobytes()
        assert again.stats == first.stats

    def test_empty_body_raises_on_every_call(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0]])
        Q = normalize(HPolyhedron(A, [0.0, -1.0], AffineSpace.full_space(2)))
        for _ in range(2):
            with pytest.raises(EmptyPolyhedron):
                cut_depth(Q, Cut([1.0, 0.0], 1.0))
        assert Q.chebyshev.status == lp.LpStatus.INFEASIBLE

    def test_touching_and_vacuous_cuts_at_every_scale(self):
        # a rotated, shifted box, so that the touching cuts meet it at a
        # vertex and along a facet away from the origin
        angle = 0.3
        rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        A = np.vstack([-np.eye(2), np.eye(2)]) @ rotation.T
        shift = np.array([2.0, -1.0])
        low, high = np.zeros(2), np.array([1.0, 3.0])
        b = np.concatenate([-low, high]) + A @ shift
        corner = rotation @ low + shift
        facet = rotation[:, 0]  # normal of the facet through the corner
        diagonal = rotation @ np.ones(2)
        for t in 10.0 ** np.arange(-8, 9):
            body = normalize(HPolyhedron(A, t * b, AffineSpace.full_space(2)))
            touching = [
                Cut(facet, t * float(facet @ corner)),
                Cut(diagonal, t * float(diagonal @ corner)),
            ]
            vacuous = [Cut(facet, t * (float(facet @ corner) - 1e-3))]
            for cut in touching:
                result = cut_depth(body, cut)
                assert _is_warm(result)
                assert result.kind == DepthKind.FINITE, (t, cut)
                assert result.value <= 1e-9 * t
            for cut in vacuous:
                result = cut_depth(body, cut)
                assert _is_warm(result)
                assert result.kind == DepthKind.NOT_VIOLATED, (t, cut)

    def test_cone_takes_the_cold_path(self):
        body = normalize(depth_lower_bound_cone(6, 1e-4).polyhedron)
        assert body.chebyshev.status == lp.LpStatus.UNBOUNDED
        result = cut_depth(body, Cut(-np.eye(6)[0], 0.0))
        assert result.kind == DepthKind.FINITE
        assert result.stats.dual_pivots == 0 and result.stats.phase2_pivots > 0
        assert result.value == pytest.approx(math.sqrt(3.0 + 6) / 2.0, abs=1e-3)


class TestClosedFormVsShrinkLp:
    def test_point_depth_equals_max_feasible_shrink(self):
        Q = box([0.0, 0.0], [2.0, 1.0])
        x = np.array([0.8, 0.4])
        d = point_depth(Q, x)
        body = shrink(Q, d)
        assert (body.normals @ x <= body.offsets + 1e-12).all()
        body = shrink(Q, d + 1e-9)
        assert (body.normals @ x > body.offsets).any()


class TestVolumeLowerBound:
    def test_half_unit_disc(self):
        assert volume_lower_bound(2, 1.0) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_worked_value(self):
        assert volume_lower_bound(2, 0.375) == pytest.approx(0.5 * math.pi * 0.140625, abs=1e-12)

    def test_zero_depth(self):
        for n in (1, 2, 3, 7):
            assert volume_lower_bound(n, 0.0) == 0.0

    def test_odd_dimension(self):
        # V_3(r) = 4/3 pi r^3
        assert volume_lower_bound(3, 2.0) == pytest.approx(0.5 * 4.0 / 3.0 * math.pi * 8.0, abs=1e-9)
