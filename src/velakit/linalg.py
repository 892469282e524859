"""Dense regression and eigen kernels used by every estimator.

All kernels operate on float64 row-major arrays, are dimension-capped at
MAX_DIM, and surface rank problems as typed errors instead of silently
pseudo-inverting. OLS runs through a QR factorization; the normal-equations
route via `cholesky_factor` is kept independent so tests can use it as an
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, NumericalError, SingularMatrixError, ValidationError

MAX_DIM = 64
PIVOT_RTOL = 1e-10
SYMMETRY_RTOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a finite 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.shape[0] > 10**6 or m.shape[1] > MAX_DIM:
        raise ValidationError(f"{name} exceeds the supported size (cols capped at {MAX_DIM})")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(m)


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit of Y on X.

    coefficients has shape (regressors, responses); residual_covariance is
    the dof-normalized cross-product eps'eps / dof with dof = rows - cols(X).
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    residual_covariance: np.ndarray
    dof: int


def ols_fit(X, Y) -> OlsFit:
    """Multi-response OLS via QR, with explicit rank-deficiency detection.

    Raises SingularMatrixError naming the offending column when a diagonal
    of R falls below PIVOT_RTOL relative to the largest one.
    """
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    n, k = X.shape
    if Y.shape[0] != n:
        raise ValidationError(f"X has {n} rows but Y has {Y.shape[0]}")
    if n <= k:
        raise ValidationError(f"need more rows than regressors (rows={n}, cols={k})")

    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    scale = diag.max() if diag.size else 0.0
    if scale == 0.0:
        raise SingularMatrixError("all regressors are zero", column=0)
    bad = np.nonzero(diag < PIVOT_RTOL * scale)[0]
    if bad.size:
        j = int(bad[0])
        raise SingularMatrixError(
            f"regressor matrix is rank deficient at column {j} "
            f"(pivot {diag[j]:.3e} vs scale {scale:.3e})",
            column=j,
        )
    coef = np.linalg.solve(R, Q.T @ Y)
    resid = Y - X @ coef
    dof = n - k
    cov = (resid.T @ resid) / dof
    return OlsFit(coefficients=coef, residuals=resid, residual_covariance=cov, dof=dof)


def _pivots_clear(S: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Whether every pivot L_jj^2 of a factor clears PIVOT_RTOL * S_jj twice over.

    Works on one matrix or a stack (reducing the last two axes). The
    margin keeps a factor from LAPACK, whose pivots round differently from
    the column loop's, to cases the loop accepts too; closer calls go to
    the loop.
    """
    d = np.diagonal(S, axis1=-2, axis2=-1)
    lj = np.diagonal(L, axis1=-2, axis2=-1)
    return ((d > 0) & (lj * lj > 2.0 * PIVOT_RTOL * d)).all(axis=-1)


def _stacked_ols(X: np.ndarray, Y: np.ndarray):
    """ols_fit of each Y[i] on X[i] for (n, rows, cols) stacks, in one pass.

    Returns (coefficients, residuals), or None when ols_fit could raise for
    some member: too few rows or too many columns, or a diagonal of R that
    does not clear PIVOT_RTOL relative to the largest by a factor of two
    (rounding then cannot make this path accept a fit ols_fit rejects).
    """
    rows, cols = X.shape[-2:]
    if not cols < rows <= 10**6 or max(cols, Y.shape[-1]) > MAX_DIM:
        return None
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    scale = diag.max(axis=-1, keepdims=True)
    if not ((scale > 0) & (diag > 2.0 * PIVOT_RTOL * scale)).all():
        return None
    coef = np.linalg.solve(R, Q.swapaxes(-1, -2) @ Y)
    if cols == 1:
        # numpy's stacked matmul is slow over a single inner column; the
        # time-last broadcast product is the same single product per entry
        resid = (coef[..., 0, :, None] * X[..., None, :, 0]).swapaxes(-1, -2)
    else:
        resid = X @ coef
    # in place: a second block-sized temporary costs more than the product
    np.subtract(Y, resid, out=resid)
    return coef, resid


def cholesky_factor(S) -> np.ndarray:
    """Lower-triangular L with L L' = S for symmetric positive-definite S.

    Factored by LAPACK; when that fails, or a pivot is too close to
    PIVOT_RTOL times its diagonal entry, a column loop decides and reports
    the failing pivot index. Used both for whitening the cointegration
    eigenproblem and as the independent normal-equations oracle for ols_fit.
    """
    S = as_matrix(S, "S")
    n, m = S.shape
    if n != m:
        raise ValidationError(f"S must be square, got {n}x{m}")
    scale = np.abs(S).max() if n else 0.0
    if n and np.abs(S - S.T).max() > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValidationError("S is not symmetric within tolerance")
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        L = None
    if L is not None and _pivots_clear(S, L):
        return L

    L = np.zeros_like(S)
    for j in range(n):
        pivot = S[j, j] - L[j, :j] @ L[j, :j]
        # compare each pivot to its own diagonal entry so badly scaled but
        # well-conditioned matrices (ones column next to tiny moments) pass
        if S[j, j] <= 0.0 or pivot <= PIVOT_RTOL * S[j, j]:
            raise NotPositiveDefiniteError(
                f"non-positive-definite pivot {pivot:.3e} at index {j}"
            )
        L[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            L[j + 1 :, j] = (S[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def symmetric_eigendecomposition(S) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of symmetric S."""
    S = as_matrix(S, "S")
    n, m = S.shape
    if n != m:
        raise ValidationError(f"S must be square, got {n}x{m}")
    scale = np.abs(S).max() if n else 0.0
    if n and np.abs(S - S.T).max() > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValidationError("S is not symmetric within tolerance")
    try:
        w, V = np.linalg.eigh((S + S.T) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"symmetric eigendecomposition failed: {exc}") from exc
    order = np.argsort(w)[::-1]
    return w[order], V[:, order]


def general_eigenvalues(A) -> np.ndarray:
    """Complex eigenvalues of a general square matrix, sorted by descending modulus."""
    A = as_matrix(A, "A")
    n, m = A.shape
    if n != m:
        raise ValidationError(f"A must be square, got {n}x{m}")
    try:
        w = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
    return w[order]


def solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve L X = B for lower-triangular L."""
    return np.linalg.solve(L, B)


def solve_upper(U: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve U X = B for upper-triangular U."""
    return np.linalg.solve(U, B)


def pd_inverse(S: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via its Cholesky factor."""
    L = cholesky_factor(S)
    eye = np.eye(S.shape[0])
    return solve_upper(L.T, solve_lower(L, eye))
