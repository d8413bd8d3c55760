import math

import numpy as np
import pytest

from cutdepth.corner import (
    CornerData,
    build_corner,
    corner_cut_depth,
    standard_form_model,
)
from cutdepth.depth import DepthKind, cut_depth_standard_form
from cutdepth.lp import LpStatus, row_scale
from cutdepth.polyhedron import Cut, shrink

SQ6 = math.sqrt(6.0)


def orthant(n):
    return build_corner(CornerData(np.zeros(0), np.zeros((0, n))))


class TestCornerData:
    def test_integral_base_point_rejected(self):
        with pytest.raises(ValueError):
            CornerData([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]])

    def test_empty_base_point_allowed(self):
        data = CornerData(np.zeros(0), np.zeros((0, 3)))
        assert data.num_basic == 0
        assert data.num_nonbasic == 3


class TestBuildCorner:
    def test_orthant(self):
        cone = orthant(2)
        np.testing.assert_allclose(cone.vertex, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(cone.depth_direction, [1.0, 1.0], atol=1e-12)

    def test_two_column_corner(self):
        cone = build_corner(CornerData([0.5], [[1.0, -1.0]]))
        np.testing.assert_allclose(cone.vertex, [0.5, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            cone.depth_direction, [0.0, 2.0 / SQ6, 2.0 / SQ6], atol=1e-12
        )

    def test_single_column_corner(self):
        cone = build_corner(CornerData([0.5], [[1.0]]))
        np.testing.assert_allclose(cone.vertex, [0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            cone.depth_direction, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12
        )

    def test_invariants(self):
        rng = np.random.default_rng(4)
        # tableau entries up to 2, 1e3 and 1e5; each residual is held to a
        # tolerance relative to its row's scale (lp.row_scale)
        for top in (2.0, 1e3, 1e5):
            for _ in range(20):
                m = int(rng.integers(1, 4))
                n = int(rng.integers(2, 5))
                data = _random_corner(rng, m, n)
                data = CornerData(data.base_point, data.tableau * (top / 2.0))
                cone = build_corner(data)
                body, q = cone.body, cone.depth_direction
                N, A, ones = body.normals, body.space.A, np.ones(n)
                # all rows tight at the vertex
                tight = body.offsets - N @ cone.vertex
                assert (np.abs(tight) <= 1e-12 * row_scale(N, body.offsets, cone.vertex)).all()
                # normals @ q = -1 and equalities @ q = 0
                assert (np.abs(N @ q + ones) <= 1e-12 * row_scale(N, ones, q)).all()
                assert (np.abs(A @ q) <= 1e-12 * row_scale(A, np.zeros(m), q)).all()
                # q is a nonnegative combination of the rays: its s-part is the
                # coefficient vector
                s_part = q[m:]
                assert s_part.min() > 0.0
                np.testing.assert_allclose(cone.rays @ s_part, q, rtol=1e-15)

    def test_vertex_is_the_base_point(self):
        rng = np.random.default_rng(5)
        for data in [_random_corner(rng, 3, 5) for _ in range(10)] + [_cli_corner()[0]]:
            expected = np.concatenate([data.base_point, np.zeros(data.num_nonbasic)])
            assert np.array_equal(build_corner(data).vertex, expected)

    def test_direction_matches_the_stacked_solve(self):
        rng = np.random.default_rng(6)
        corners = [
            _random_corner(rng, int(rng.integers(1, 6)), int(rng.integers(2, 9))) for _ in range(50)
        ]
        for data in corners + [_cli_corner()[0]]:
            cone = build_corner(data)
            reference = _stacked_direction(cone)
            assert np.abs(cone.depth_direction - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_shrunken_vertex_moves_linearly(self):
        cone = build_corner(CornerData([0.5], [[1.0, -1.0]]))
        for lam in (0.1, 1.0, 10.0):
            body = shrink(cone.body, lam)
            v = cone.vertex + lam * cone.depth_direction
            assert np.abs(body.offsets - body.normals @ v).max() <= 1e-8


class TestCornerCutDepth:
    def test_orthant_diagonal_cut(self):
        res = corner_cut_depth(orthant(2), Cut([1.0, 1.0], 1.0))
        assert res.kind == DepthKind.FINITE
        assert res.value == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(res.point, [0.5, 0.5], atol=1e-12)

    def test_orthant_single_coordinate_cut(self):
        # the other axis ray is orthogonal to the cut, not decreasing on it
        res = corner_cut_depth(orthant(2), Cut([1.0, 0.0], 1.0))
        assert res.kind == DepthKind.FINITE
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_worked_example(self):
        cone = build_corner(CornerData([0.5], [[1.0, -1.0]]))
        res = corner_cut_depth(cone, Cut([2.0, 2.0], 1.0))
        assert res.kind == DepthKind.FINITE
        assert res.value == pytest.approx(SQ6 / 8.0, abs=1e-12)

    def test_decreasing_ray_unbounded(self):
        res = corner_cut_depth(orthant(2), Cut([-1.0, 0.0], 1.0))
        assert res.kind == DepthKind.UNBOUNDED
        assert res.ray is not None

    def test_vertex_past_cut_not_violated(self):
        res = corner_cut_depth(orthant(2), Cut([1.0, 1.0], -1.0))
        assert res.kind == DepthKind.NOT_VIOLATED

    def test_flat_direction_unbounded(self):
        # zero tableau row: the cut on the basic variable never tightens
        cone = build_corner(CornerData([0.5], [[0.0, 0.0]]))
        res = corner_cut_depth(cone, Cut([1.0, 0.0, 0.0], 1.0))
        assert res.kind == DepthKind.UNBOUNDED

    def test_full_space_cut_accepted(self):
        cone = build_corner(CornerData([0.5], [[1.0, -1.0]]))
        res = corner_cut_depth(cone, Cut([0.0, 2.0, 2.0], 1.0))
        assert res.value == pytest.approx(SQ6 / 8.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            corner_cut_depth(orthant(2), Cut([1.0, 0.0, 0.0, 0.0], 1.0))


class TestAgainstDepthLp:
    def test_random_corners_agree(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(2, 7))
            data = _random_corner(rng, m, n)
            cone = build_corner(data)
            cut = _valid_cut(rng, data)
            closed = corner_cut_depth(cone, cut)
            full = Cut(np.concatenate([np.zeros(m), cut.coeffs]), cut.rhs)
            via_lp = cut_depth_standard_form(standard_form_model(data), full)
            assert closed.kind == via_lp.kind
            if closed.kind == DepthKind.FINITE:
                assert closed.value == pytest.approx(via_lp.value, abs=1e-7)

    def test_large_corner_agrees(self):
        # the 40x80 corner of the cli-corner benchmark, seed 1, and the
        # rounding cuts of its first 10 rows
        data, cuts = _cli_corner()
        cone = build_corner(data)
        model = standard_form_model(data)
        for cut in cuts[:10]:
            closed = corner_cut_depth(cone, cut)
            full = Cut(np.concatenate([np.zeros(data.num_basic), cut.coeffs]), cut.rhs)
            via_lp = cut_depth_standard_form(model, full)
            assert closed.kind == via_lp.kind == DepthKind.FINITE
            assert closed.value == pytest.approx(via_lp.value, rel=1e-9)

    def test_phase_1_without_a_leaving_row(self):
        # phase 1 of this cone's cut-free program prices in a column whose
        # reduced cost is roundoff and finds no row to leave; its point is
        # then judged by the feasibility test, as any phase-1 point is
        data = CornerData([-1.625], [[-10.25, 16.375, 81.625, 4512.875, -306.75, 0.5]])
        cone = build_corner(data)
        model = standard_form_model(data)
        assert model.body.chebyshev.status == LpStatus.UNBOUNDED
        on_s = np.array([0.0, 1, 1, 1, 1, 1, 1])
        cuts = [
            (Cut(on_s, 1.0), DepthKind.FINITE),
            (Cut(on_s, -1.0), DepthKind.NOT_VIOLATED),
            (Cut(np.ones(7), 1.0), DepthKind.UNBOUNDED),
            (Cut(np.eye(7)[0], 5.0), DepthKind.UNBOUNDED),
        ]
        for cut, kind in cuts:
            closed = corner_cut_depth(cone, cut)
            via_lp = cut_depth_standard_form(model, cut)
            assert closed.kind == via_lp.kind == kind
            if kind == DepthKind.FINITE:
                assert closed.value == pytest.approx(via_lp.value, rel=1e-12)


def _random_corner(rng, m, n):
    while True:
        tableau = rng.integers(-16, 17, (m, n)) / 8.0
        base = rng.integers(-16, 17, m) / 8.0
        frac = np.abs(base - np.round(base)) > 1e-9
        rows_ok = frac & (np.abs(tableau).max(axis=1) > 0)
        if rows_ok.any():
            return CornerData(base, tableau)


def _cli_corner(seed=1, basic=40, nonbasic=80):
    """A seeded corner drawn as the cli-corner benchmark draws its instance,
    with the rounding cut alpha @ s >= 1 of each of its rows."""
    rng = np.random.default_rng(seed)
    tableau = rng.integers(-16, 17, (basic, nonbasic)) / 8.0
    base = rng.integers(-16, 16, basic) + rng.integers(1, 8, basic) / 8.0
    frac = base - np.floor(base)
    cuts = [
        Cut(np.where(r >= 0, r / (1.0 - f), -r / f), 1.0) for r, f in zip(tableau, frac)
    ]
    return CornerData(base, tableau), cuts


def _stacked_direction(cone):
    """The depth direction as a square solve of the stacked system gives it:
    normals @ q = -1 on every row and A @ q = 0 on every hull row."""
    body = cone.body
    stacked = np.vstack([body.normals, body.space.A])
    rhs = np.concatenate([-np.ones(body.num_rows), np.zeros(body.space.num_equalities)])
    return np.linalg.solve(stacked, rhs)


def _valid_cut(rng, data):
    """Single-row rounding cut: valid for the corner's mixed-integer set."""
    frac = np.abs(data.base_point - np.round(data.base_point)) > 1e-9
    rows = np.nonzero(frac & (np.abs(data.tableau).max(axis=1) > 0))[0]
    i = int(rng.choice(rows))
    f = data.base_point[i] - math.floor(data.base_point[i])
    r = data.tableau[i]
    coeffs = np.where(r >= 0, r / (1.0 - f), -r / f)
    return Cut(coeffs, 1.0)
