import math

import numpy as np
import pytest

from cutdepth import lp
from cutdepth.cli.suites import random_corner
from cutdepth.constructions import depth_lower_bound_cone
from cutdepth.corner import CornerData, build_corner, standard_form_model
from cutdepth.depth import (
    DepthKind,
    _depth_result,
    cut_depth,
    cut_depth_standard_form,
    from_standard_form,
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
    NormalizedPolyhedron,
    StandardFormModel,
    normalize,
    shrink,
)

from oracles import depth_by_highs, point_depth_by_bisection, standard_form_depth_by_highs


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

    def test_boundary_points_have_depth_zero(self):
        # the vertex and points on the rays of a corner lie on its boundary;
        # roundoff below zero in their margins is not reported
        cone = build_corner(CornerData([0.5, 1.25], [[1.0, -1.0], [0.5, 1.0]]))
        assert point_depth(cone.body, cone.vertex) == 0.0
        depths = [
            point_depth(cone.body, cone.vertex + t * ray)
            for t in (0.3, 1.7, 10.0)
            for ray in cone.rays.T
        ]
        assert min(depths) == 0.0 and max(depths) < 1e-12

    @pytest.mark.parametrize("hull", [False, True])
    def test_membership_is_relative_to_the_data(self, hull):
        # a rotated box of width t shifted by (3, -7) t, optionally lifted
        # onto a tilted plane in R^3: its vertex is a member, while a point
        # half a width outside it or t off the plane is not, at every scale
        c, s = math.cos(0.3), math.sin(0.3)
        rotation = np.array([[c, -s], [s, c]])
        A = np.vstack([rotation.T, -rotation.T])
        for t in 10.0 ** np.arange(-10, 13):
            shift = np.array([3.0, -7.0]) * t
            b = np.array([t, t, 0.0, 0.0]) + A @ shift
            vertex = shift + rotation @ np.array([1.0, 1.0]) * t
            outside = shift + rotation @ np.array([1.5, 0.5]) * t
            if hull:
                L = np.array([[0.2, -0.4, 1.0]])
                space = AffineSpace(L, [0.0])
                body = normalize(HPolyhedron(np.hstack([A, np.zeros((4, 1))]), b, space))
                vertex, outside = (np.append(x, -L[0, :2] @ x) for x in (vertex, outside))
                with pytest.raises(PointOutsideHull):
                    point_depth(body, vertex + [0.0, 0.0, t])
            else:
                body = normalize(HPolyhedron(A, b, AffineSpace.full_space(2)))
            # the vertex lies on two rows; their margins are 0 up to roundoff
            assert point_depth(body, vertex) <= 1e-15 * t, t
            with pytest.raises(PointOutsidePolyhedron):
                point_depth(body, outside)

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


def _corner_models(seed, count):
    """(model, [cut, ...]) for seeded random corners, whose cut-free LP is
    unbounded and whose cuts cover every kind."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        corner = random_corner(rng, index)
        m = corner.data.num_basic
        cuts = [Cut(np.concatenate([np.zeros(m), c.coeffs]), c.rhs) for c, _ in corner.cuts]
        yield standard_form_model(corner.data), cuts


def _scale_instances():
    """(model, [cut, ...]) pairs: the unit box with a vacuous and a finite
    cut, plus seeded random corners whose cuts cover every kind."""
    unit_box = StandardFormModel(AffineSpace.full_space(2), [0.0, 0.0], [1.0, 1.0])
    yield unit_box, [Cut([1.0, 0.0], -1.0), Cut([1.0, 1.0], 1.5)]
    yield from _corner_models(3, 10)


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

    def test_cone_kind_and_value_scale_with_the_body(self):
        cone = depth_lower_bound_cone(6, 1e-4).polyhedron
        body = normalize(cone)
        cuts = _cone_cuts(np.random.default_rng(6), 6) + [
            Cut(-body.normals[0], -body.offsets[0] - 1.0),  # not violated
            Cut(np.eye(6)[0], 0.0),  # unbounded
        ]
        for cut in cuts:
            reference = cut_depth(body, cut)
            for t in 10.0 ** np.arange(-8, 9):
                scaled = normalize(HPolyhedron(cone.A, t * cone.b, cone.space))
                result = cut_depth(scaled, Cut(cut.coeffs, t * cut.rhs))
                assert result.kind == reference.kind, (t, cut)
                assert result.stats.dualized == reference.stats.dualized
                if reference.kind == DepthKind.FINITE:
                    expected = t * reference.value
                    assert result.value == pytest.approx(expected, rel=1e-9, abs=1e-12 * t)

    @pytest.mark.parametrize(
        "depth_of",
        [
            lambda space, lo, hi, cut: cut_depth(
                normalize(HPolyhedron(np.vstack([-np.eye(6), np.eye(6)]), [*-lo, *hi], space)), cut
            ),
            lambda space, lo, hi, cut: cut_depth_standard_form(
                StandardFormModel(space, lo, hi), cut
            ),
        ],
        ids=["inequality-lp", "standard-form-lp"],
    )
    def test_kind_and_value_do_not_depend_on_the_hull_rows_scale(self, depth_of):
        # (t L, t xi) is the same hull as (L, xi) for every t > 0
        rng = np.random.default_rng(12)
        for _ in range(100):
            lo, hi = rng.uniform(-1.0, 0.0, 6), rng.uniform(1.0, 2.0, 6)
            L, x0 = rng.standard_normal((3, 6)), rng.uniform(lo, hi)
            a = rng.standard_normal(6)
            cut = Cut(a, float(a @ x0) + float(rng.uniform(-1.0, 3.0)))
            reference = None
            for t in 10.0 ** np.arange(-6, 9, 2):
                result = depth_of(AffineSpace(t * L, t * (L @ x0)), lo, hi, cut)
                reference = reference or result
                assert result.kind == reference.kind, t
                if reference.kind == DepthKind.FINITE:
                    assert result.value == pytest.approx(reference.value, rel=1e-12, abs=1e-12)

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


def _through_the_centre(body, coeffs):
    """The cut coeffs @ x >= coeffs @ centre at the body's cached Chebyshev
    centre, whose depth is the body's own."""
    return Cut(coeffs, float(coeffs @ body.chebyshev.x[: body.dim]))


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
            yield body, cuts + [_through_the_centre(body, a)]
        # the Chebyshev centres of [0, 1] x [0, 3] fill a segment
        cuts = [Cut(c, r) for c, r in (([1, 0], 0.5), ([0, 1], 1.0), ([0, -1], -3.0),
                                       ([1, 1], 0.0), ([-1, 0], -0.25), ([0, 1], -1.0))]
        body = box([0.0, 0.0], [1.0, 3.0])
        yield body, cuts + [_through_the_centre(body, np.array([1.0, 1.0]))]

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
        # a cut that removes the centre is answered at the centre: editing
        # the point it returns must not move the cached one
        C = Cut(a, _through_the_centre(body, a).rhs + 0.1)
        first = cut_depth(body, C)
        point, centre = first.point.tobytes(), body.chebyshev.x.tobytes()
        assert first.value == body.chebyshev.objective
        first.point[:] = 7.0
        again = cut_depth(body, C)
        assert body.chebyshev.x.tobytes() == centre
        assert again.point.tobytes() == point
        assert again.value == first.value
        assert again.stats == first.stats == lp.SolveStats()

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
        # 32 rows on 6 columns: the cold solve runs on the dual side
        assert result.stats.dual_pivots == 0 and result.stats.dualized
        assert result.value == pytest.approx(math.sqrt(3.0 + 6) / 2.0, abs=1e-3)


def _cone_cuts(rng, n, tilts=4):
    """The cone's valid cut -x_1 >= 0 and seeded tilts of it, all of finite
    depth."""
    cuts = [Cut(-np.eye(n)[0], 0.0)]
    for _ in range(tilts):
        coeffs = rng.uniform(-0.2, 0.2, n)
        coeffs[0] = -1.0
        cuts.append(Cut(coeffs, rng.uniform(-0.5, 0.0)))
    return cuts


def _lifted_cone(rng, n):
    """The deep cone in R^n lifted onto a 2-row hull in R^(n+2): the first n
    coordinates keep the cone's rows, the hull fixes the last two."""
    cone = depth_lower_bound_cone(n, 1e-4).polyhedron
    A = np.hstack([cone.A, np.zeros((cone.num_rows, 2))])
    L = rng.standard_normal((2, n + 2))
    return normalize(HPolyhedron(A, cone.b, AffineSpace(L, L @ rng.standard_normal(n + 2))))


def _random_cone(rng, rows=30, n=5):
    """(A, apex, c): a pointed cone { x : A x <= A apex } around a seeded
    recession direction, and -c, the sum of its unit rows, which lies
    inside its dual cone."""
    A = rng.standard_normal((rows, n))
    d = rng.standard_normal(n)
    inward = np.abs(rng.standard_normal(rows)) * np.linalg.norm(A, axis=1)
    A -= np.outer(A @ d + inward, d) / (d @ d)
    apex = rng.uniform(-2.0, 2.0, n)
    c = -(A / np.linalg.norm(A, axis=1)[:, None]).sum(axis=0)
    return A, apex, c


def _random_cone_cuts(rng, apex, c, count=4):
    """Cuts of finite depth around c, whose normals lie inside the dual cone."""
    n = c.shape[0]
    cuts = []
    for _ in range(count):
        coeffs = c + 0.3 * np.linalg.norm(c) * rng.standard_normal(n) / np.sqrt(n)
        depth = rng.uniform(0.1, 2.0) * np.linalg.norm(coeffs)
        cuts.append(Cut(coeffs, float(coeffs @ apex) + depth))
    return cuts


def _primal(body, cut):
    """The depth LP solved as written, as cut_depth's fallback solves it."""
    outcome = lp.solve(body.depth_program(cut))
    return _depth_result(outcome, body.dim)


def _recorded_solves(monkeypatch):
    """The list of programs that lp.solve solves from scratch from here on;
    a re-price (a solve with a start) is not one."""
    programs = []
    solve = lp.solve

    def recorded(program, start=None):
        if start is None:
            programs.append(program)
        return solve(program, start=start)

    monkeypatch.setattr(lp, "solve", recorded)
    return programs


class TestDualSide:
    """A body without a cached optimum (a cone) whose depth program has more
    rows than columns is scored on a dual: the n-row dual of its unit-depth
    slice when every row is tight at one apex, else the (n + 1)-row dual of
    its depth program. The result matches the depth program solved as
    written."""

    def _agree(self, body, cuts):
        for cut in cuts:
            result = cut_depth(body, cut)
            reference = _primal(body, cut)
            assert result.stats.dualized and result.stats.dual_pivots == 0
            assert result.kind == reference.kind == DepthKind.FINITE
            assert result.value == pytest.approx(reference.value, rel=1e-9, abs=1e-12)
            assert point_depth(body, result.point) >= result.value - 1e-9
            assert cut.coeffs @ result.point <= cut.rhs + 1e-9

    @pytest.mark.parametrize("n", range(3, 10))
    def test_cone_matches_the_primal(self, n):
        body = normalize(depth_lower_bound_cone(n, 1e-4).polyhedron)
        self._agree(body, _cone_cuts(np.random.default_rng(n), n))

    def test_cone_on_a_hull_matches_the_primal(self):
        rng = np.random.default_rng(8)
        body = _lifted_cone(rng, 5)
        assert body.chebyshev.status == lp.LpStatus.UNBOUNDED
        cuts = [Cut(np.append(cut.coeffs, [0.0, 0.0]), cut.rhs) for cut in _cone_cuts(rng, 5)]
        self._agree(body, cuts)

    def test_random_cones_at_every_scale(self):
        # pointed cones around a recession direction d, with cuts whose
        # normals lie inside the dual cone, so every depth is finite; these
        # need phase 2 pivots, which see the dual objective's scale
        for seed in range(6):
            rng = np.random.default_rng(seed)
            A, apex, c = _random_cone(rng)
            body = normalize(HPolyhedron(A, A @ apex, AffineSpace.full_space(5)))
            for cut in _random_cone_cuts(rng, apex, c):
                reference = cut_depth(body, cut)
                assert reference.stats.dualized and reference.stats.phase2_pivots > 0
                for t in 10.0 ** np.arange(-8, 9):
                    scaled = normalize(HPolyhedron(A, t * (A @ apex), AffineSpace.full_space(5)))
                    result = cut_depth(scaled, Cut(cut.coeffs, t * cut.rhs))
                    assert result.stats.dualized, (seed, t)
                    assert result.value == pytest.approx(t * reference.value, rel=1e-9)

    def test_not_violated_and_unbounded_cuts_take_the_primal(self):
        cone = depth_lower_bound_cone(6, 1e-4).polyhedron
        body = normalize(cone)
        # the body lies strictly inside its first facet, and the cone holds
        # points with x_1 <= 0 at any depth
        vacuous = Cut(-body.normals[0], -body.offsets[0] - 1.0)
        deep = Cut(np.eye(6)[0], 0.0)
        result = cut_depth(body, vacuous)
        assert result.kind == _primal(body, vacuous).kind == DepthKind.NOT_VIOLATED
        assert result.stats.dualized
        result = cut_depth(body, deep)
        reference = _primal(body, deep)
        assert result.kind == reference.kind == DepthKind.UNBOUNDED
        assert not result.stats.dualized
        assert result.ray.tobytes() == reference.ray.tobytes()
        assert (body.normals @ result.ray <= 1e-9).all() and deep.coeffs @ result.ray < 0.0

    def _slice_agrees(self, body, cuts, monkeypatch):
        """Each cut costs one lp.solve, of the body.dim-row slice dual, and
        gets the kind and, within 1e-9, the value of the depth program
        solved as written; returns the kinds seen."""
        assert body.chebyshev.status == lp.LpStatus.UNBOUNDED
        programs = _recorded_solves(monkeypatch)
        kinds = set()
        for cut in cuts:
            programs.clear()
            result = cut_depth(body, cut)
            assert [program.num_rows for program in programs] == [body.dim]
            assert result.stats.dualized
            reference = _primal(body, cut)
            assert result.kind == reference.kind
            if result.is_finite:
                assert result.value == pytest.approx(reference.value, rel=1e-9, abs=1e-12)
                assert point_depth(body, result.point) >= result.value - 1e-9
                scale = max(abs(cut.rhs), float(np.abs(cut.coeffs) @ np.abs(result.point)))
                assert cut.coeffs @ result.point <= cut.rhs + lp.FEASIBILITY_TOL * scale
            kinds.add(result.kind)
        return kinds

    def test_slice_matches_the_primal_on_random_cones(self, monkeypatch):
        kinds = set()
        for seed in range(6):
            rng = np.random.default_rng(seed)
            A, apex, c = _random_cone(rng)
            body = normalize(HPolyhedron(A, A @ apex, AffineSpace.full_space(5)))
            # one cut beyond the first facet, one through the apex
            vacuous = Cut(-body.normals[0], -body.offsets[0] - 0.5)
            touching = Cut(c, float(c @ apex))
            cuts = _random_cone_cuts(rng, apex, c) + [vacuous, touching]
            kinds |= self._slice_agrees(body, cuts, monkeypatch)
        assert kinds == {DepthKind.FINITE, DepthKind.NOT_VIOLATED}

    def test_slice_matches_the_primal_on_a_hull(self, monkeypatch):
        rng = np.random.default_rng(9)
        body = _lifted_cone(rng, 7)
        cuts = [Cut(np.append(cut.coeffs, [0.0, 0.0]), cut.rhs) for cut in _cone_cuts(rng, 7)]
        assert self._slice_agrees(body, cuts, monkeypatch) == {DepthKind.FINITE}
        # a cut constant on the hull has mu = 0, so the depth program answers
        row, value = body.space.A[0], body.space.b[0]
        for cut, kind in ((Cut(row, value + 1.0), DepthKind.UNBOUNDED),
                          (Cut(row, value - 1.0), DepthKind.NOT_VIOLATED)):
            result = cut_depth(body, cut)
            assert result.kind == _primal(body, cut).kind == kind

    @pytest.mark.parametrize("n", range(3, 12))
    def test_deep_cone_cuts_beyond_its_first_facet(self, n, monkeypatch):
        body = normalize(depth_lower_bound_cone(n, 1e-4).polyhedron)
        normal, offset = body.normals[0], body.offsets[0]
        # a miss by 1e-8 relative is within the tolerance: finite 0
        near_miss = Cut(-normal, -offset - 1e-8 * offset)
        vacuous = Cut(-normal, -offset - 1.0)
        kinds = self._slice_agrees(body, [near_miss, vacuous], monkeypatch)
        assert kinds == {DepthKind.FINITE, DepthKind.NOT_VIOLATED}
        assert cut_depth(body, near_miss).value == 0.0
        # x_1 >= 0 has unbounded depth: the slice dual is not optimal, and
        # the depth program as written gives the ray
        deep = Cut(np.eye(n)[0], 0.0)
        result = cut_depth(body, deep)
        assert result.kind == _primal(body, deep).kind == DepthKind.UNBOUNDED
        assert not result.stats.dualized

    def test_slice_against_highs(self):
        kinds = set()
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(3, 7))
            A, apex, c = _random_cone(rng, int(rng.integers(2 * n, 40)), n)
            body = normalize(HPolyhedron(A, A @ apex, AffineSpace.full_space(n)))
            cuts = _random_cone_cuts(rng, apex, c) + [
                Cut(-body.normals[0], -body.offsets[0] - 0.5),  # removes nothing
                Cut(-c, -float(c @ apex)),  # removes points far along the cone
            ]
            for cut in cuts:
                kind, value = depth_by_highs(body, cut)
                result = cut_depth(body, cut)
                assert result.kind == kind, (seed, cut)
                if kind == DepthKind.FINITE:
                    assert result.value == pytest.approx(value, rel=1e-6, abs=1e-7)
                kinds.add(kind)
        assert kinds == {DepthKind.FINITE, DepthKind.NOT_VIOLATED, DepthKind.UNBOUNDED}

    def test_bodies_without_an_apex_keep_the_depth_program(self):
        # { x >= 0, x_1 + x_2 >= 1 } has no point where all three rows are
        # tight, and neither has the deep cone with one offset moved by 1e-3
        corner = normalize(
            HPolyhedron([[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]], [0.0, 0.0, -1.0],
                        AffineSpace.full_space(2))
        )
        corner_cuts = [Cut([1.0, 1.0], 2.0), Cut([1.0, 0.0], 1.0), Cut([1.0, 1.0], 0.5),
                       Cut([-1.0, -1.0], -3.0)]
        cone = depth_lower_bound_cone(6, 1e-4).polyhedron
        offsets = cone.b.copy()
        offsets[3] += 1e-3
        moved = normalize(HPolyhedron(cone.A, offsets, cone.space))
        moved_cuts = _cone_cuts(np.random.default_rng(6), 6) + [Cut(np.eye(6)[0], 0.0)]
        kinds = set()
        for body, cuts in ((corner, corner_cuts), (moved, moved_cuts)):
            for cut in cuts:
                result = cut_depth(body, cut)
                program = body.depth_program(cut)
                today = _depth_result(lp.solve_dual(program) or lp.solve(program), body.dim)
                assert result.kind == today.kind
                assert result.stats == today.stats
                if result.is_finite:
                    assert result.value == today.value
                    assert result.point.tobytes() == today.point.tobytes()
                kinds.add(result.kind)
            assert body.unit_slice is None
        assert kinds == {DepthKind.FINITE, DepthKind.NOT_VIOLATED, DepthKind.UNBOUNDED}

    def test_only_tall_bodies_keep_the_slice_dual(self):
        # a tall body keeps the slice's dual, a square one a vertex of the
        # slice program, and a body with a cached optimum builds no slice
        tall = normalize(depth_lower_bound_cone(5, 1e-4).polyhedron)
        square = normalize(depth_lower_bound_cone(2, 1e-4).polyhedron)
        warm = box([0.0, 0.0], [1.0, 3.0])
        for body in (tall, square, warm):
            cut_depth(body, Cut(-np.eye(body.dim)[0], 0.0))
        assert tall.unit_slice.dual is not None and tall.unit_slice.vertex is None
        assert square.unit_slice.dual is None
        assert square.unit_slice.vertex.status == lp.LpStatus.OPTIMAL
        assert "unit_slice" not in warm.__dict__

    def test_square_program_stays_primal(self):
        # n = 2: two body rows and the cut on three columns (x, lam)
        body = normalize(depth_lower_bound_cone(2, 1e-4).polyhedron)
        cut = Cut([-1.0, 0.0], 0.0)
        result = cut_depth(body, cut)
        assert not result.stats.dualized
        assert result.value == _primal(body, cut).value

    def test_uncertified_answer_falls_back(self, monkeypatch):
        body = normalize(depth_lower_bound_cone(5, 1e-4).polyhedron)
        cut = Cut(-np.eye(5)[0], 0.0)
        honest = lp.dual

        def misscaled(program):
            dual_program, scale = honest(program)
            return dual_program, 2.0 * scale

        monkeypatch.setattr(lp, "dual", misscaled)
        result = cut_depth(body, cut)
        reference = _primal(body, cut)
        assert not result.stats.dualized
        assert result.value == reference.value
        assert result.point.tobytes() == reference.point.tobytes()


def _square_cone(rng, n, hull=0):
    """(body, cuts): a simplicial cone { x : A x <= A apex } from n seeded
    rows in R^n, or in R^(n + hull) on `hull` seeded hull rows, so that it
    has as many rows, hull rows included, as columns; with cuts of every
    kind. -A^T w with w > 0 lies inside the dual cone: such a cut through
    the apex or beyond it has finite depth, one short of it removes
    nothing. A^T w lies outside: its cuts have unbounded depth."""
    A = rng.standard_normal((n, n))
    apex = rng.uniform(-2.0, 2.0, n)
    cuts = []
    for _ in range(3):
        inside = -A.T @ rng.uniform(0.1, 1.0, n)
        edge = float(np.linalg.norm(inside))
        for rhs in (rng.uniform(0.1, 2.0) * edge, 0.0, -edge):
            cuts.append(Cut(inside, float(inside @ apex) + rhs))
        outside = A.T @ rng.uniform(0.1, 1.0, n)
        cuts.append(Cut(outside, float(outside @ apex) + rng.uniform(-1.0, 1.0)))
    if not hull:
        return HPolyhedron(A, A @ apex, AffineSpace.full_space(n)), cuts
    L = rng.standard_normal((hull, n + hull))
    lifted = np.hstack([A, np.zeros((n, hull))])
    point = np.append(apex, rng.standard_normal(hull))
    cuts = [Cut(np.append(cut.coeffs, np.zeros(hull)), cut.rhs) for cut in cuts]
    return HPolyhedron(lifted, A @ apex, AffineSpace(L, L @ point)), cuts


def _square_cones():
    for seed in range(8):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 7))
        yield _square_cone(rng, n, hull=seed % 3)


def _scaled_cone(cone, cuts, t):
    """The cone and its cuts with every offset and rhs scaled by t."""
    scaled = HPolyhedron(cone.A, t * cone.b, AffineSpace(cone.space.A, t * cone.space.b))
    return normalize(scaled), [Cut(cut.coeffs, t * cut.rhs) for cut in cuts]


class TestSquareSlice:
    """A body without a cached optimum that is not tall (no more rows, hull
    rows included, than columns) re-prices one cached vertex of its unit-depth
    slice per cut (lp.reprice); an unbounded cut solves the depth program."""

    def test_square_cones_at_every_scale(self):
        kinds = set()
        for cone, cuts in _square_cones():
            for t in 10.0 ** np.arange(-8, 9, 2):
                body, scaled = _scaled_cone(cone, cuts, t)
                assert body.chebyshev.status == lp.LpStatus.UNBOUNDED
                for cut in scaled:
                    result = cut_depth(body, cut)
                    reference = _primal(body, cut)
                    assert result.kind == reference.kind, (t, cut)
                    assert not result.stats.dualized
                    kinds.add(result.kind)
                    if result.kind == DepthKind.UNBOUNDED:
                        assert result.ray.tobytes() == reference.ray.tobytes()
                        continue
                    assert result.stats.phase1_pivots == 0
                    if result.is_finite:
                        expected = pytest.approx(reference.value, rel=1e-9, abs=1e-12 * t)
                        assert result.value == expected
                        size = max(abs(cut.rhs), float(np.abs(cut.coeffs) @ np.abs(result.point)))
                        assert cut.coeffs @ result.point <= cut.rhs + 1e-9 * size
                        depth = point_depth(body, result.point)
                        assert depth >= result.value * (1.0 - 1e-9) - 1e-12 * t
                assert body.unit_slice.vertex is not None
        assert kinds == {DepthKind.FINITE, DepthKind.NOT_VIOLATED, DepthKind.UNBOUNDED}

    def test_square_cones_against_highs(self):
        kinds = set()
        for cone, cuts in _square_cones():
            body = normalize(cone)
            for cut in cuts:
                kind, value = depth_by_highs(body, cut)
                result = cut_depth(body, cut)
                assert result.kind == kind, cut
                if kind == DepthKind.FINITE:
                    assert result.value == pytest.approx(value, rel=1e-6, abs=1e-7)
                kinds.add(kind)
        assert kinds == {DepthKind.FINITE, DepthKind.NOT_VIOLATED, DepthKind.UNBOUNDED}

    def test_unbounded_slice_solves_only_the_depth_program(self, monkeypatch):
        # the slice proves the depth unbounded, so only the ray is left to
        # find: no solve of the depth program's dual
        for body in (normalize(depth_lower_bound_cone(7, 1e-4).polyhedron),
                     normalize(_square_cone(np.random.default_rng(3), 4)[0])):
            deep = Cut(np.eye(body.dim)[0], 0.0)
            cut_depth(body, deep)
            programs = _recorded_solves(monkeypatch)
            result = cut_depth(body, deep)
            monkeypatch.undo()
            reference = _primal(body, deep)
            assert result.kind == reference.kind == DepthKind.UNBOUNDED
            assert result.ray.tobytes() == reference.ray.tobytes()
            rows = [program.num_rows for program in programs[:-1]]
            assert rows == ([body.dim] if body.unit_slice.vertex is None else [])
            assert programs[-1].A.tobytes() == body.depth_program(deep).A.tobytes()

    def test_apex_residuals_get_a_roundoff_floor(self):
        # rows 3 and 4 of this corner's [normals; A] have a zero rhs and zero
        # terms at the apex, so lstsq's roundoff is all their residual
        corner = CornerData([-1.75, -0.875, 0.0, 0.0],
                            [[-0.5, -0.375], [1.625, -1.25], [0.0, -1.0], [-2.0, 1.0]])
        body = standard_form_model(corner).body
        assert body.unit_slice.vertex is not None
        np.testing.assert_allclose(body.unit_slice.apex[:4], corner.base_point, atol=1e-15)
        # a residual of 1e-3 is no roundoff
        cone = depth_lower_bound_cone(6, 1e-4).polyhedron
        offsets = cone.b.copy()
        offsets[3] += 1e-3
        assert normalize(HPolyhedron(cone.A, offsets, cone.space)).unit_slice is None


def _bounded_model(rng, n, equalities, pin=False):
    """A seeded box model around an interior point x0, on `equalities`
    random hull rows through x0; with pin, one more hull row fixes x_0 to
    x0[0], so that x_0's bounds are implied and dropped."""
    x0 = rng.uniform(-0.3, 0.3, n)
    lower = x0 - rng.uniform(0.5, 1.5, n)
    upper = x0 + rng.uniform(0.5, 1.5, n)
    L = rng.standard_normal((equalities, n))
    if pin:
        L = np.vstack([L, np.eye(n)[0]])
    return StandardFormModel(AffineSpace(L, L @ x0), lower, upper)


def _box_cuts(rng, model, count=6):
    """In turn, cuts that keep the model's cached centre but cut into the
    box, so that the warm path pivots; cuts that remove the centre; and
    cuts that miss the box."""
    centre = model.body.chebyshev.x[: model.dim]
    reach = np.maximum(np.abs(model.lower), np.abs(model.upper))
    cuts = []
    for i in range(count):
        a = rng.standard_normal(model.dim)
        step = 0.2 * float(np.linalg.norm(a))
        rhs = [a @ centre - step, a @ centre + step, -(np.abs(a) @ reach) - 1.0][i % 3]
        cuts.append(Cut(a, float(rhs)))
    return cuts


def _same_depth(result, reference):
    assert result.kind == reference.kind
    if reference.kind == DepthKind.FINITE:
        assert result.value == pytest.approx(reference.value, rel=1e-9, abs=1e-12)


class TestStandardFormWarmStart:
    """A standard-form model solves its cut-free program once (model.body.chebyshev);
    with an optimum there, each cut re-optimizes it by one added row, and
    the result matches a cold solve of the same program."""

    def _models(self):
        rng = np.random.default_rng(29)
        for n, equalities, pin in ((4, 0, False), (6, 2, False), (5, 1, True), (3, 0, True)):
            model = _bounded_model(rng, n, equalities, pin)
            yield model, _box_cuts(rng, model)

    def test_warm_matches_cold_and_the_inequality_form(self):
        kinds, pivoted = set(), 0
        for model, cuts in self._models():
            assert model.body.chebyshev.status == lp.LpStatus.OPTIMAL
            rows = from_standard_form(model)
            for cut in cuts:
                result = cut_depth_standard_form(model, cut)
                assert _is_warm(result)
                _same_depth(result, _primal(model.body, cut))
                _same_depth(result, cut_depth(rows, cut))
                kinds.add(result.kind)
                pivoted += result.stats.dual_pivots > 0
        assert kinds == {DepthKind.FINITE, DepthKind.NOT_VIOLATED}
        assert pivoted >= 4

    def test_not_violated_cut_costs_no_solve(self, monkeypatch):
        model, cuts = next(_corner_models(4, 1))
        finite, vacuous = cuts[:2]
        assert cut_depth_standard_form(model, finite).kind == DepthKind.FINITE
        assert model.body.chebyshev.status == lp.LpStatus.UNBOUNDED
        programs = _recorded_solves(monkeypatch)
        # the vertex cached by the first cut is re-priced; nothing is solved
        assert cut_depth_standard_form(model, vacuous).kind == DepthKind.NOT_VIOLATED
        assert programs == []

    def test_empty_model_raises_on_every_call(self):
        model = StandardFormModel(AffineSpace([[1.0, 1.0]], [5.0]), np.zeros(2), np.ones(2))
        for _ in range(2):
            with pytest.raises(EmptyPolyhedron):
                cut_depth_standard_form(model, Cut([1.0, 0.0], 1.0))
        assert model.body.chebyshev.status == lp.LpStatus.INFEASIBLE

    def test_scoring_leaves_the_cache_unchanged(self):
        rng = np.random.default_rng(12)
        model = _bounded_model(rng, 8, 2)
        A, B = _box_cuts(rng, model, 4)[::3]
        first, _, again = (cut_depth_standard_form(model, cut) for cut in (A, B, A))
        assert first.stats.dual_pivots > 0
        assert again.value == first.value
        assert again.point.tobytes() == first.point.tobytes()
        assert again.stats == first.stats


class TestStandardFormOracle:
    """cut_depth_standard_form against HiGHS on the depth LP written in the
    model's own variables, with the bound rows scaled by sqrt(P_jj) instead
    of normalized (oracles.standard_form_depth_by_highs)."""

    def _kind(self, model, cut, scale=1.0):
        kind, value = standard_form_depth_by_highs(model, cut)
        result = cut_depth_standard_form(model, cut)
        assert result.kind == kind, cut
        if kind == DepthKind.FINITE:
            assert result.value == pytest.approx(value, rel=1e-6, abs=1e-9 * scale)
        return kind

    def test_seeded_boxes(self):
        rng = np.random.default_rng(31)
        kinds = set()
        for n, equalities, pin in ((4, 0, False), (6, 2, False), (5, 1, True), (3, 0, True)):
            model = _bounded_model(rng, n, equalities, pin)
            if pin:
                assert model.body.dropped_bounds == 2
            kinds.update(self._kind(model, cut) for cut in _box_cuts(rng, model))
        assert kinds == {DepthKind.FINITE, DepthKind.NOT_VIOLATED}

    def test_corners_across_scales(self):
        kinds = set()
        for index, (model, cuts) in enumerate(_corner_models(13, 20)):
            t = 10.0 ** (4 * (index % 5) - 8)
            scaled = _scaled(model, t)
            kinds.update(self._kind(scaled, Cut(cut.coeffs, t * cut.rhs), t) for cut in cuts)
        assert kinds == {DepthKind.FINITE, DepthKind.NOT_VIOLATED, DepthKind.UNBOUNDED}


def _reordered(body, order):
    """The body with its rows taken in the given order, repeats allowed."""
    return NormalizedPolyhedron(body.normals[order], body.offsets[order], body.space)


def _permuted(model, perm):
    """The model with its variables reordered: x'_i = x_perm[i]."""
    space = AffineSpace(model.space.A[:, perm], model.space.b)
    return StandardFormModel(space, model.lower[perm], model.upper[perm])


class TestOrderInvariance:
    """Reordering and repeating a body's rows, or renaming a model's
    variables along with the cut, describes the same depth problem: the
    kind stays and a finite value moves by roundoff only, on the warm and
    the cold paths."""

    def _bodies(self, rng):
        for hull in (0, 3):
            body, _ = _dense_body(rng, 40, 8, hull)
            centre = body.chebyshev.x[:8]
            cuts = []
            for a in rng.standard_normal((3, 8)):
                step = 0.2 * float(np.linalg.norm(a))
                cuts.append(Cut(a, float(a @ centre) - step))  # pivots
                cuts.append(Cut(a, float(a @ centre) + step))  # removes the centre
                cuts.append(Cut(a, -float(np.abs(a).sum()) - 1.0))  # misses the box
            yield body, cuts
        cone = normalize(depth_lower_bound_cone(6, 1e-4).polyhedron)
        lifted = _lifted_cone(rng, 5)
        lifted_cuts = [Cut(np.append(c.coeffs, [0.0, 0.0]), c.rhs) for c in _cone_cuts(rng, 5)]
        for body, cuts in ((cone, _cone_cuts(rng, 6)), (lifted, lifted_cuts)):
            vacuous = Cut(-body.normals[0], -body.offsets[0] - 1.0)
            deep = Cut(np.eye(body.dim)[0], 0.0)
            yield body, cuts + [vacuous, deep]

    def test_inequality_rows_permuted_and_repeated(self):
        rng = np.random.default_rng(41)
        kinds = set()
        for body, cuts in self._bodies(rng):
            m = body.num_rows
            perm = rng.permutation(m)
            orders = [perm, np.concatenate([perm, perm[: m // 3]]), np.repeat(np.arange(m), 2)]
            for cut in cuts:
                reference = cut_depth(body, cut)
                kinds.add((reference.kind, _is_warm(reference)))
                for order in orders:
                    _same_depth(cut_depth(_reordered(body, order), cut), reference)
        assert kinds >= {
            (DepthKind.FINITE, True), (DepthKind.NOT_VIOLATED, True),
            (DepthKind.FINITE, False), (DepthKind.NOT_VIOLATED, False),
            (DepthKind.UNBOUNDED, False),
        }

    def test_standard_form_variables_permuted_with_the_cut(self):
        rng = np.random.default_rng(43)
        instances = list(_corner_models(9, 10))
        for equalities, pin in ((0, False), (2, False), (1, True)):
            model = _bounded_model(rng, 6, equalities, pin)
            instances.append((model, _box_cuts(rng, model)))
        kinds = set()
        for model, cuts in instances:
            perms = [rng.permutation(model.dim) for _ in range(2)] + [np.arange(model.dim)[::-1]]
            for cut in cuts:
                reference = cut_depth_standard_form(model, cut)
                kinds.add((reference.kind, _is_warm(reference)))
                for perm in perms:
                    renamed = Cut(cut.coeffs[perm], cut.rhs)
                    _same_depth(cut_depth_standard_form(_permuted(model, perm), renamed), reference)
        # the corners' finite and not-violated cuts re-price a cached vertex
        # of their unit-depth slice without a pivot; unbounded ones solve
        assert kinds == {
            (DepthKind.FINITE, True), (DepthKind.NOT_VIOLATED, True), (DepthKind.UNBOUNDED, False),
        }


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
