"""Dense regression and eigen kernels used by every estimator.

All kernels operate on float64 row-major arrays, are dimension-capped at
MAX_DIM, and surface rank problems as typed errors instead of silently
pseudo-inverting. OLS runs through the R factor of [X | Y], which gives the
coefficients and the residual factor (the factor of the residual moments);
the normal-equations route via `cholesky_factor` is kept independent so
tests can use it as an oracle.

The stacked kernels (`_stacked_ols`, `_stacked_cholesky`, `_each`) run a
stack of matrices in one pass and judge each member alone: a failing
member gets its own typed error (from `_stacked_cholesky`, its first
failing pivot's index) and never fails its neighbours.
`_stacked_ols` is the only least-squares code; `ols_fit` is its n=1 call,
and the only code that forms residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, NumericalError, SingularMatrixError, ValidationError

MAX_DIM = 64
MAX_ROWS = 10**6
PIVOT_RTOL = 1e-10
SYMMETRY_RTOL = 1e-10
# the message of a factor whose pivot j fails; a singular matrix's pivot is
# rounding noise, so the message names the rule, not the value
_NOT_POSITIVE_DEFINITE = f"non-positive-definite pivot <={PIVOT_RTOL:g}*diag at index {{}}"


def _check_size(name: str, rows: int, cols: int) -> None:
    """ValidationError naming the cap that fired when a matrix exceeds
    MAX_ROWS rows or MAX_DIM columns."""
    for count, cap, what in ((rows, MAX_ROWS, "rows"), (cols, MAX_DIM, "cols")):
        if count > cap:
            raise ValidationError(
                f"{name} exceeds the supported size ({what} capped at {cap}, got {count})")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a finite 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    _check_size(name, *m.shape)
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(m)


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit of Y on X; coefficients has shape (regressors,
    responses)."""

    coefficients: np.ndarray
    residuals: np.ndarray


def ols_fit(X, Y) -> OlsFit:
    """Multi-response OLS, the n=1 call of _stacked_ols.

    Raises SingularMatrixError naming the offending column when a diagonal
    of R falls below PIVOT_RTOL relative to the largest one.
    """
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    if Y.shape[0] != X.shape[0]:
        raise ValidationError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
    coef, _, _, errors = _stacked_ols(X[None], Y[None])
    if errors:
        raise errors[0]
    return OlsFit(coefficients=coef[0], residuals=Y - X @ coef[0])


def _failing_pivots(d: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Where a pivot L_jj^2 of a factor of S fails to clear PIVOT_RTOL * S_jj,
    d holding S's diagonal; a NaN pivot fails. Works on one factor (m,) or a
    stack (n, m)."""
    lj = np.diagonal(L, axis1=-2, axis2=-1)
    return ~((d > 0) & (lj * lj > PIVOT_RTOL * d))


def _symmetric(S: np.ndarray) -> np.ndarray:
    """Whether each member of a stack is symmetric within SYMMETRY_RTOL."""
    asym = S - S.swapaxes(-1, -2)
    scale = np.maximum(np.abs(S).max(axis=(-2, -1)), 1.0)
    return np.abs(asym, out=asym).max(axis=(-2, -1)) <= SYMMETRY_RTOL * scale


def _each(fn, A: np.ndarray, *rest):
    """fn(A, *rest) for a stack, and the mask of members for which it raises.

    numpy.linalg raises LinAlgError for a whole stack when one member
    fails. Then each member runs alone, as its n=1 slice, and the stack
    runs again with the identity as A for the members that raise: their
    results are placeholders.
    """
    try:
        return fn(A, *rest), np.zeros(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    failed = np.zeros(len(A), dtype=bool)
    for i in range(len(A)):
        try:
            fn(A[i : i + 1], *(b[i : i + 1] for b in rest))
        except np.linalg.LinAlgError:
            failed[i] = True
    A = np.where(failed[:, None, None], np.eye(A.shape[-1]), A)
    return fn(A, *rest), failed


def _pivot_errors(diag: np.ndarray) -> dict:
    """The pivot rule of a stack of triangular factors of regressor
    matrices, from their |diagonals| (n, cols): a member with a pivot below
    PIVOT_RTOL relative to its largest, or with no nonzero pivot, maps to a
    SingularMatrixError naming the first such column."""
    scale = diag.max(axis=-1, keepdims=True, initial=0.0)
    clear = (scale[..., 0] > 0) & (diag >= PIVOT_RTOL * scale).all(axis=-1)
    errors = {}
    for i in np.flatnonzero(~clear) if not clear.all() else ():
        if scale[i, 0] == 0:
            errors[i] = SingularMatrixError("all regressors are zero", column=0)
            continue
        j = int(np.argmax(diag[i] < PIVOT_RTOL * scale[i]))
        # the failing pivot is rounding noise: the message names the rule
        errors[i] = SingularMatrixError(
            f"regressor matrix is rank deficient at column {j} "
            f"(pivot <{PIVOT_RTOL:g}*scale vs scale {scale[i, 0]:.3e})", column=j)
    return errors


def _stacked_ols(X: np.ndarray, Y: np.ndarray):
    """OLS of each Y[i] on X[i] for (n, rows, cols) stacks, in one pass
    through the R factor of each [X[i] | Y[i]], with no Q.

    The factor's leading block is X's; the coefficients solve it against
    the X-Y block. Its trailing block F, min(rows - cols, m) x m for Y's m
    columns, is the residual factor: F'F = E'E for the residuals E = Y -
    X coef. Returns (coefficients, F, pivots, errors): pivots (n, cols)
    holds |diag R|, and errors maps each member that fails _pivot_errors's
    rule to its SingularMatrixError; that member's coefficients are
    placeholders. Too few rows, or too many columns, raises ValidationError
    for the whole stack.
    """
    rows, cols = X.shape[-2:]
    _check_size("X", rows, cols)
    if rows <= cols:
        raise ValidationError(f"need more rows than regressors (rows={rows}, cols={cols})")
    R = np.linalg.qr(np.concatenate((X, Y), axis=-1), mode="r")
    diag = np.abs(np.diagonal(R[..., :cols, :cols], axis1=-2, axis2=-1))
    errors = _pivot_errors(diag)
    coef, _ = _each(np.linalg.solve, R[..., :cols, :cols], R[..., :cols, cols:])
    return coef, R[..., cols:, cols:], diag, errors


def cholesky_factor(S) -> np.ndarray:
    """Lower-triangular L with L L' = S for symmetric positive-definite S.

    The n=1 call of _stacked_cholesky, after checking that S is a finite,
    square, symmetric matrix; raises NotPositiveDefiniteError naming the
    first failing pivot. It is also the independent normal-equations oracle
    for ols_fit.
    """
    S = as_matrix(S, "S")
    n, m = S.shape
    if n != m:
        raise ValidationError(f"S must be square, got {n}x{m}")
    if n and not _symmetric(S):
        raise ValidationError("S is not symmetric within tolerance")
    (L,), failing = _stacked_cholesky(S[None])
    if failing:
        raise NotPositiveDefiniteError(_NOT_POSITIVE_DEFINITE.format(failing[0]))
    return L


def _column_cholesky(S: np.ndarray):
    """The column loop of the Cholesky factor: (L, j), j the index of the
    first pivot that does not clear PIVOT_RTOL times its diagonal entry (a
    NaN pivot does not), where the loop stops, L then being incomplete;
    None when L factors S."""
    n = len(S)
    L = np.zeros_like(S)
    for j in range(n):
        pivot = S[j, j] - L[j, :j] @ L[j, :j]
        # compare each pivot to its own diagonal entry so badly scaled but
        # well-conditioned matrices (ones column next to tiny moments) pass
        if not (S[j, j] > 0.0 and pivot > PIVOT_RTOL * S[j, j]):
            return L, j
        L[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            L[j + 1 :, j] = (S[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L, None


def symmetric_eigendecomposition(S) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of symmetric S."""
    S = as_matrix(S, "S")
    n, m = S.shape
    if n != m:
        raise ValidationError(f"S must be square, got {n}x{m}")
    if n and not _symmetric(S):
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


def _stacked_cholesky(S: np.ndarray):
    """The Cholesky factor of each member of an (n, m, m) stack.

    LAPACK factors the stack in one call (see _each); a member it fails, or
    whose pivots fail (_failing_pivots), goes to the column loop
    (_column_cholesky), which decides. Returns (factors, failing), failing
    mapping each member the loop rejects to its first failing pivot's
    index; that member's entry in factors is a placeholder LAPACK's call
    left (the identity where it raised), invertible for callers that solve
    with it. Symmetry and finiteness are the caller's to check.
    """
    L, failed = _each(np.linalg.cholesky, S)
    failing = {}
    suspect = failed | _failing_pivots(np.diagonal(S, axis1=1, axis2=2), L).any(axis=1)
    for i in np.flatnonzero(suspect) if suspect.any() else ():
        factor, j = _column_cholesky(S[i])
        if j is None:
            L[i] = factor
        else:
            failing[i] = j
    return L, failing


def pd_inverse(S: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via its Cholesky factor."""
    L = cholesky_factor(S)
    return np.linalg.solve(L.T, np.linalg.solve(L, np.eye(L.shape[0])))
