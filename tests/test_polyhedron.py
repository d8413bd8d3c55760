import math

import numpy as np
import pytest

from cutdepth.depth import from_standard_form
from cutdepth.errors import DegenerateConstraint, NotPositiveDefinite
from cutdepth.polyhedron import (
    AffineSpace,
    Cut,
    HPolyhedron,
    NormalizedPolyhedron,
    StandardFormModel,
    normalize,
    project_onto_direction_space,
    shrink,
)

SQ2 = math.sqrt(2.0)


def unit_square():
    A = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    b = np.array([0.0, 1.0, 0.0, 1.0])
    return HPolyhedron(A, b, AffineSpace.full_space(2))


class TestAffineSpace:
    def test_full_space(self):
        space = AffineSpace.full_space(3)
        assert space.dim == 3
        assert space.num_equalities == 0

    def test_redundant_rows_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            AffineSpace([[1.0, 1.0], [2.0, 2.0]], [0.0, 0.0])


class TestProjection:
    def test_projects_out_hull_component(self):
        space = AffineSpace([[1.0, 1.0]], [0.0])
        gamma = project_onto_direction_space(space, [1.0, 0.0])
        np.testing.assert_allclose(gamma, [0.5, -0.5], atol=1e-12)

    def test_full_space_is_identity(self):
        space = AffineSpace.full_space(2)
        np.testing.assert_allclose(
            project_onto_direction_space(space, [3.0, 4.0]), [3.0, 4.0]
        )

    def test_row_space_vector_vanishes(self):
        space = AffineSpace([[1.0, 1.0]], [0.0])
        gamma = project_onto_direction_space(space, [1.0, 1.0])
        np.testing.assert_allclose(gamma, [0.0, 0.0], atol=1e-12)


class TestNormalize:
    def test_rescales_full_space_row(self):
        P = HPolyhedron([[2.0, 0.0]], [4.0], AffineSpace.full_space(2))
        Q = normalize(P)
        np.testing.assert_allclose(Q.normals, [[1.0, 0.0]])
        np.testing.assert_allclose(Q.offsets, [2.0])

    def test_segment_row(self):
        space = AffineSpace([[1.0, 1.0]], [1.0])
        P = HPolyhedron([[1.0, 0.0]], [1.0], space)
        Q = normalize(P)
        np.testing.assert_allclose(Q.normals, [[1 / SQ2, -1 / SQ2]], atol=1e-12)
        np.testing.assert_allclose(Q.offsets, [1 / SQ2], atol=1e-12)
        # (1, 0) lies on the face, so its margin must be zero
        margin = Q.offsets[0] - Q.normals[0] @ np.array([1.0, 0.0])
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_row_refused(self):
        space = AffineSpace([[1.0, 1.0]], [0.0])
        P = HPolyhedron([[1.0, 1.0]], [5.0], space)
        with pytest.raises(DegenerateConstraint):
            normalize(P)
        # the message names the first degenerate row, wherever it sits
        P = HPolyhedron([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [1.0, 1.0]], [1.0] * 4, space)
        with pytest.raises(DegenerateConstraint, match=r"^row 2:"):
            normalize(P)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            p = int(rng.integers(0, min(3, n)))
            space = _random_space(rng, n, p)
            P = _random_polyhedron(rng, space, int(rng.integers(1, 7)))
            Q = normalize(P)
            Q2 = normalize(HPolyhedron(Q.normals, Q.offsets, space))
            np.testing.assert_allclose(Q2.normals, Q.normals, atol=1e-9)
            np.testing.assert_allclose(Q2.offsets, Q.offsets, atol=1e-9)

    def test_membership_equivalence(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            n = int(rng.integers(2, 6))
            p = int(rng.integers(0, min(3, n)))
            space = _random_space(rng, n, p)
            P = _random_polyhedron(rng, space, int(rng.integers(1, 7)))
            Q = normalize(P)
            pts = _sample_hull_points(rng, space, 10_000)
            margins_raw = P.b - pts @ P.A.T
            margins_norm = Q.offsets - pts @ Q.normals.T
            in_raw = (margins_raw >= -1e-7).all(axis=1)
            in_norm = (margins_norm >= -1e-7).all(axis=1)
            clear = np.minimum(
                np.abs(margins_raw).min(axis=1), np.abs(margins_norm).min(axis=1)
            ) > 1e-6
            assert (in_raw[clear] == in_norm[clear]).all()

    def test_rows_satisfy_type_invariants(self):
        rng = np.random.default_rng(23)
        space = _random_space(rng, 4, 2)
        P = _random_polyhedron(rng, space, 5)
        Q = normalize(P)
        norms = np.linalg.norm(Q.normals, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-10
        assert np.abs(space.A @ Q.normals.T).max() <= 1e-9


class TestBodyArrays:
    """A body takes over the read-only arrays the package builds for it and
    copies everything else; either way its arrays are read-only and checked."""

    def test_built_arrays_are_taken_over(self):
        Q = normalize(unit_square())
        R = NormalizedPolyhedron(Q.normals, Q.offsets, Q.space)
        assert R.normals is Q.normals and R.offsets is Q.offsets
        assert shrink(Q, 0.25).normals is Q.normals
        assert not Q.normals.flags.writeable and not Q.offsets.flags.writeable

    def test_caller_arrays_are_copied(self):
        normals = np.array([[1.0, 0.0], [0.0, 1.0]])
        R = NormalizedPolyhedron(normals, np.ones(2), AffineSpace.full_space(2))
        normals[0, 0] = -1.0
        assert R.normals[0, 0] == 1.0 and not R.normals.flags.writeable
        view = normals[:, :]
        view.setflags(write=False)
        assert NormalizedPolyhedron(view, np.ones(2), AffineSpace.full_space(2)).normals is not view

    def test_read_only_arrays_are_still_checked(self):
        space = AffineSpace.full_space(2)
        bad = np.array([[2.0, 0.0]])
        bad.setflags(write=False)
        with pytest.raises(ValueError, match="unit Euclidean norm"):
            NormalizedPolyhedron(bad, np.ones(1), space)
        nan = np.array([np.nan])
        nan.setflags(write=False)
        with pytest.raises(ValueError, match="non-finite"):
            NormalizedPolyhedron(np.array([[1.0, 0.0]]), nan, space)


class TestShrink:
    def test_quarter(self):
        Q = normalize(unit_square())
        S = shrink(Q, 0.25)
        np.testing.assert_allclose(S.offsets, [-0.25, 0.75, -0.25, 0.75])

    def test_zero_is_identity(self):
        Q = normalize(unit_square())
        S = shrink(Q, 0.0)
        np.testing.assert_allclose(S.normals, Q.normals)
        np.testing.assert_allclose(S.offsets, Q.offsets)

    def test_half_collapses_square_to_center(self):
        Q = normalize(unit_square())
        S = shrink(Q, 0.5)
        center = np.array([0.5, 0.5])
        assert (S.offsets - S.normals @ center >= -1e-12).all()
        # any deviation breaks feasibility
        for d in np.eye(2):
            for s in (1.0, -1.0):
                x = center + 1e-6 * s * d
                assert (S.offsets - S.normals @ x < 0).any()

    def test_monotone(self):
        rng = np.random.default_rng(2)
        Q = normalize(unit_square())
        lams = sorted(rng.uniform(0.0, 0.6, 2))
        pts = rng.uniform(-0.2, 1.2, (500, 2))
        tight = shrink(Q, lams[1])
        loose = shrink(Q, lams[0])
        feas_tight = (pts @ tight.normals.T <= tight.offsets).all(axis=1)
        feas_loose = (pts @ loose.normals.T <= loose.offsets).all(axis=1)
        assert (~feas_tight | feas_loose).all()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            shrink(normalize(unit_square()), -0.1)


class TestFromStandardForm:
    def test_unit_square(self):
        model = StandardFormModel(
            AffineSpace.full_space(2), np.zeros(2), np.ones(2)
        )
        Q = from_standard_form(model)
        assert Q.num_rows == 4
        got = {tuple(np.round(r, 12)) for r in Q.normals}
        assert got == {(-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0)}

    def test_corner_style_rows(self):
        space = AffineSpace([[1.0, -1.0, 1.0]], [0.5])
        model = StandardFormModel(
            space, [-math.inf, 0.0, 0.0], [math.inf, math.inf, math.inf]
        )
        Q = from_standard_form(model)
        assert Q.num_rows == 2
        # both projected bound directions have length sqrt(6)/3
        expected = math.sqrt(6.0) / 3.0
        np.testing.assert_allclose(
            [np.linalg.norm(g) for g in (Q.normals * 1.0)], [1.0, 1.0]
        )
        row0 = Q.normals[0] * expected  # un-normalize to inspect the projection
        np.testing.assert_allclose(np.abs(row0), [1 / 3, 2 / 3, 1 / 3], atol=1e-12)

    def test_fixed_variable_bound_dropped(self):
        space = AffineSpace([[1.0, 0.0]], [2.0])
        model = StandardFormModel(space, [0.0, 0.0], [math.inf, math.inf])
        Q = from_standard_form(model)
        assert Q.num_rows == 1
        assert Q.dropped_bounds == 1
        np.testing.assert_allclose(Q.normals, [[0.0, -1.0]], atol=1e-12)

    def test_fixed_variable_bound_violated(self):
        space = AffineSpace([[1.0, 0.0]], [-1.0])
        model = StandardFormModel(space, [0.0, 0.0], [math.inf, math.inf])
        with pytest.raises(DegenerateConstraint):
            from_standard_form(model)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            StandardFormModel(AffineSpace.full_space(1), [1.0], [0.0])

    def test_rows_match_a_loop_over_the_bounds(self):
        # reference: one bound at a time, for each variable its lower row
        # and then its upper row, offsets taken from a point x0 on the hull
        rng = np.random.default_rng(3)
        for n, p in ((4, 0), (5, 2), (6, 3)):
            x0 = rng.uniform(-1.0, 1.0, n)
            L = rng.standard_normal((p, n))
            if p:
                L[-1] = np.eye(n)[2]  # pins x_2, whose bounds are dropped
            space = AffineSpace(L, L @ x0)
            lower = np.where(rng.uniform(size=n) < 0.3, -math.inf, x0 - 1.0)
            upper = np.where(rng.uniform(size=n) < 0.3, math.inf, x0 + 1.0)
            Q = from_standard_form(StandardFormModel(space, lower, upper))
            normals, offsets, dropped = [], [], 0
            for j in range(n):
                gamma = project_onto_direction_space(space, np.eye(n)[j])
                norm = np.linalg.norm(gamma)
                for sign, bound in ((-1.0, lower[j]), (1.0, upper[j])):
                    if not math.isfinite(bound):
                        continue
                    if norm < 1e-10:
                        dropped += 1
                        continue
                    normals.append(sign * gamma / norm)
                    offsets.append(sign * (bound - x0[j] + gamma @ x0) / norm)
            np.testing.assert_allclose(Q.normals, np.reshape(normals, (-1, n)), atol=1e-12)
            np.testing.assert_allclose(Q.offsets, offsets, atol=1e-12)
            assert Q.dropped_bounds == dropped

    def test_violated_upper_bound_named(self):
        space = AffineSpace([[0.0, 1.0]], [2.0])
        model = StandardFormModel(space, [0.0, 0.0], [1.0, 1.0])
        message = "variable 1 is fixed to 2.0 by the equalities, violating its upper bound 1.0"
        with pytest.raises(DegenerateConstraint, match=message):
            from_standard_form(model)


class TestCut:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Cut([0.0, 0.0], 1.0)

    def test_fields(self):
        c = Cut([1.0, 2.0], 3)
        assert c.dim == 2
        assert c.rhs == 3.0


def _random_space(rng, n, p):
    while True:
        L = rng.uniform(-2.0, 2.0, (p, n))
        try:
            return AffineSpace(L, rng.uniform(-1.0, 1.0, p))
        except NotPositiveDefinite:
            continue


def _particular_point(space):
    if space.num_equalities == 0:
        return np.zeros(space.dim)
    return space.A.T @ np.linalg.solve(space.A @ space.A.T, space.b)


def _random_polyhedron(rng, space, m):
    x0 = _particular_point(space)
    A = rng.uniform(-2.0, 2.0, (m, space.dim))
    b = A @ x0 + rng.uniform(0.2, 2.0, m)
    return HPolyhedron(A, b, space)


def _sample_hull_points(rng, space, count):
    raw = rng.uniform(-2.0, 2.0, (count, space.dim))
    if space.num_equalities == 0:
        return raw
    # project each sample onto the hull (independent of package projection)
    G = space.A @ space.A.T
    corr = np.linalg.solve(G, space.A @ raw.T - space.b[:, None])
    return raw - (space.A.T @ corr).T
