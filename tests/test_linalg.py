import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutdepth.errors import NotPositiveDefinite, Singular
from cutdepth.linalg import (
    cholesky_factor,
    cholesky_solve,
    cholesky_solve_factored,
    largest_eigenvalue,
    solve_square,
)

# LAPACK factorizes this matrix; only the relative pivot threshold rejects it
NEARLY_SINGULAR = [[1.0, 1.0], [1.0, 1.0 + 1e-14]]


class TestCholeskySolve:
    def test_diagonal(self):
        w = cholesky_solve(np.diag([4.0, 9.0]), [8.0, 27.0])
        np.testing.assert_allclose(w, [2.0, 3.0], atol=1e-12)

    def test_identity(self):
        w = cholesky_solve(np.eye(3), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-12)

    def test_two_by_two(self):
        S = np.array([[2.0, 1.0], [1.0, 2.0]])
        w = cholesky_solve(S, [3.0, 3.0])
        np.testing.assert_allclose(S @ w, [3.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-12)

    def test_rank_deficient_raises(self):
        # duplicated row makes the Gram matrix singular
        L = np.array([[1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(NotPositiveDefinite):
            cholesky_solve(L @ L.T, [1.0, 1.0])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky_solve([[1.0, 0.5], [0.0, 1.0]], [1.0, 1.0])

    def test_threshold_rejects_nearly_singular(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_solve(NEARLY_SINGULAR, [1.0, 1.0])

    def test_matrix_rhs_matches_column_solves(self):
        rng = np.random.default_rng(19)
        M = rng.uniform(-1.0, 1.0, (4, 4))
        factor = cholesky_factor(M.T @ M + np.eye(4))
        rhs = rng.uniform(-3.0, 3.0, (4, 3))
        w = cholesky_solve_factored(factor, rhs)
        assert w.shape == (4, 3)
        for k in range(3):
            np.testing.assert_allclose(
                w[:, k], cholesky_solve_factored(factor, rhs[:, k]), rtol=1e-12, atol=1e-12
            )

    def test_residual_on_random_spd(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            M = rng.uniform(-1.0, 1.0, (n, n))
            S = M.T @ M + np.eye(n)
            rhs = rng.uniform(-5.0, 5.0, n)
            w = cholesky_solve(S, rhs)
            resid = np.abs(S @ w - rhs).max()
            assert resid <= 1e-9 * (1.0 + np.abs(rhs).max())


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.floats(-1, 1, allow_nan=False), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(st.floats(-3, 3, allow_nan=False), min_size=n, max_size=n),
        )
    )
)
def test_cholesky_solve_residual_property(data):
    rows, rhs = data
    M = np.array(rows)
    S = M.T @ M + np.eye(M.shape[0])
    w = cholesky_solve(S, rhs)
    assert np.abs(S @ w - np.array(rhs)).max() <= 1e-9 * (1.0 + np.abs(rhs).max())


class TestSolveSquare:
    def test_identity(self):
        np.testing.assert_allclose(solve_square(np.eye(2), [5.0, -1.0]), [5.0, -1.0])

    def test_permutation(self):
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(solve_square(M, [2.0, 7.0]), [7.0, 2.0])

    def test_substitution(self):
        M = np.array([[1.0, 1.0], [1.0, -1.0]])
        w = solve_square(M, [3.0, 1.0])
        np.testing.assert_allclose(M @ w, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(w, [2.0, 1.0], atol=1e-12)

    def test_singular_raises(self):
        with pytest.raises(Singular):
            solve_square([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])

    def test_threshold_rejects_nearly_singular(self):
        with pytest.raises(Singular):
            solve_square(NEARLY_SINGULAR, [1.0, 1.0])

    def test_matrix_rhs_matches_column_solves(self):
        rng = np.random.default_rng(23)
        M = rng.uniform(-2.0, 2.0, (5, 5)) + 4.0 * np.eye(5)
        rhs = rng.uniform(-4.0, 4.0, (5, 2))
        w = solve_square(M, rhs)
        assert w.shape == (5, 2)
        for k in range(2):
            np.testing.assert_allclose(
                w[:, k], solve_square(M, rhs[:, k]), rtol=1e-12, atol=1e-12
            )

    def test_round_trip_on_well_conditioned(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 40:
            n = int(rng.integers(1, 9))
            M = rng.uniform(-2.0, 2.0, (n, n))
            if np.linalg.cond(M) >= 1e6:
                continue
            rhs = rng.uniform(-4.0, 4.0, n)
            w = solve_square(M, rhs)
            assert np.abs(M @ w - rhs).max() <= 1e-8 * (1.0 + np.abs(rhs).max())
            done += 1


class TestLargestEigenvalue:
    def test_identity(self):
        assert largest_eigenvalue(np.eye(3)) == pytest.approx(1.0, abs=1e-7)

    def test_diagonal(self):
        assert largest_eigenvalue(np.diag([1.0, 4.0])) == pytest.approx(4.0, abs=1e-7)

    def test_two_by_two(self):
        # characteristic polynomial roots are 1 and 3
        lam = largest_eigenvalue([[2.0, 1.0], [1.0, 2.0]])
        assert lam == pytest.approx(3.0, abs=1e-7)

    def test_all_ones_start_not_dominant(self):
        # all-ones is the eigenvector of the *smallest* eigenvalue here
        S = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert largest_eigenvalue(S) == pytest.approx(3.0, abs=1e-7)

    def test_zero_matrix(self):
        assert largest_eigenvalue(np.zeros((3, 3))) == 0.0

    def test_dominates_rayleigh_quotients(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            M = rng.uniform(-1.0, 1.0, (n, n))
            S = M.T @ M
            lam = largest_eigenvalue(S)
            for _ in range(100):
                u = rng.normal(size=n)
                assert lam >= (u @ S @ u) / (u @ u) - 1e-7
