"""Dense linear-algebra kernels on top of numpy.linalg: SPD solves, square
solves, largest eigenvalue.

All routines work on plain float64 numpy arrays and are pure functions of
their inputs. LAPACK does the factorizations; fixed relative thresholds on
the factors' diagonals decide rank deficiency, so error behavior is
reproducible across runs and does not depend on how close to breakdown
LAPACK itself gets.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite, Singular

# Relative threshold on the diagonals of the Cholesky and QR factors.
PIVOT_RTOL = 1e-12
# Relative symmetry tolerance on inputs declared symmetric.
SYMMETRY_RTOL = 1e-12


def frozen(arr: np.ndarray) -> np.ndarray:
    """Make an array that the caller has just built read-only and return it,
    so that as_vector and as_matrix take it over without copying."""
    arr.setflags(write=False)
    return arr


def _read_only(v) -> np.ndarray:
    """v itself when it is a read-only float64 array owning its data, which
    no one can change; otherwise a read-only float64 copy."""
    if type(v) is np.ndarray and not v.flags.writeable:
        if v.flags.owndata and v.dtype == np.float64:
            return v
    return frozen(np.array(v, dtype=float, copy=True))


def as_vector(v, name: str = "vector", allow_infinite: bool = False) -> np.ndarray:
    """Coerce to a read-only 1-D float64 array, rejecting NaN (and, unless
    allowed, infinities)."""
    arr = _read_only(v)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if allow_infinite:
        if np.isnan(arr).any():
            raise ValueError(f"{name} contains NaN entries")
    elif not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a read-only 2-D float64 array with finite entries."""
    arr = _read_only(M)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _as_rhs(rhs, n: int) -> np.ndarray:
    """A finite right-hand side of n rows: a vector, or a matrix with one
    column per system."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise ValueError(f"rhs has shape {rhs.shape}, expected {n} rows")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs contains non-finite entries")
    return rhs


def _require_symmetric(S: np.ndarray, name: str) -> None:
    if S.shape[0] != S.shape[1]:
        raise ValueError(f"{name} must be square, got shape {S.shape}")
    if S.size == 0:
        return
    scale = max(1.0, float(np.abs(S).max()))
    if float(np.abs(S - S.T).max()) > SYMMETRY_RTOL * scale:
        raise ValueError(f"{name} is not symmetric within tolerance")


def cholesky_factor(S) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive-definite matrix.

    Raises NotPositiveDefinite when LAPACK fails, or when a pivot (a squared
    diagonal entry of the factor) is at or below PIVOT_RTOL times the largest
    diagonal entry of the input, which signals rank deficiency.
    """
    S = as_matrix(S, "S")
    _require_symmetric(S, "S")
    try:
        factor = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    pivots = np.diag(factor) ** 2
    limit = PIVOT_RTOL * float(np.diag(S).max(initial=0.0))
    low = np.flatnonzero(pivots <= limit)
    if low.size:
        j = int(low[0])
        raise NotPositiveDefinite(
            f"pivot {pivots[j]:.3e} at index {j} is at or below threshold {limit:.3e}"
        )
    return factor


def cholesky_solve_factored(factor: np.ndarray, rhs) -> np.ndarray:
    """Solve S w = rhs given the lower-triangular factor of S.

    rhs is a vector or a matrix with one column per system.
    """
    rhs = _as_rhs(rhs, factor.shape[0])
    return np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))


def cholesky_solve(S, rhs) -> np.ndarray:
    """Solve S w = rhs for symmetric positive-definite S."""
    return cholesky_solve_factored(cholesky_factor(S), rhs)


def solve_square(M, rhs) -> np.ndarray:
    """Solve M w = rhs by QR factorization; rhs is a vector or a matrix with
    one column per system.

    Raises Singular when the smallest absolute diagonal entry of R is zero
    or below PIVOT_RTOL times the largest absolute entry of M.
    """
    M = as_matrix(M, "M")
    n = M.shape[0]
    if M.shape[1] != n:
        raise ValueError(f"M must be square, got shape {M.shape}")
    rhs = _as_rhs(rhs, n)
    if n == 0:
        return np.zeros(rhs.shape)
    q, r = np.linalg.qr(M)
    diag = np.abs(np.diag(r))
    k = int(np.argmin(diag))
    limit = PIVOT_RTOL * float(np.abs(M).max())
    if diag[k] < limit or diag[k] == 0.0:
        raise Singular(f"R[{k},{k}] = {diag[k]:.3e} below threshold {limit:.3e}")
    return np.linalg.solve(r, q.T @ rhs)


def largest_eigenvalue(S) -> float:
    """Largest eigenvalue of a symmetric positive-semidefinite matrix."""
    S = as_matrix(S, "S")
    _require_symmetric(S, "S")
    if S.shape[0] == 0:
        raise ValueError("S must be non-empty")
    return float(np.linalg.eigvalsh(S)[-1])
