"""Error-correction model estimation at a fixed cointegration rank.

beta comes from the Johansen eigenproblem (or is supplied), normalized so
its leading r x r block is the identity; alpha and the short-run matrices
follow by per-equation OLS conditional on beta. Standard errors for the
free beta rows use the conditional (fixed-alpha) asymptotic covariance, and
the headline chi-square is the joint Wald test that every non-normalized
beta coefficient is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonNormalizableError, NumericalError, ValidationError
from .johansen import (
    CASES,
    RESTRICTED_CONSTANT,
    UNRESTRICTED_CONSTANT,
    concentrate,
    solve_cointegration_eigenproblem,
)
from .lag_selection import information_criteria, level_matrix
from .linalg import _pivots_clear, _stacked_ols, general_eigenvalues, ols_fit, pd_inverse
from .panel import VARIABLES

UNIT_ROOT_TOL = 1e-2
STABLE_MARGIN = 1e-6


@dataclass(frozen=True)
class VecmModel:
    vars: tuple[str, ...]
    k: int
    r: int
    case: str
    alpha: np.ndarray  # p x r loadings
    beta: np.ndarray  # p(+1) x r, constant row last under rconst
    gamma: tuple[np.ndarray, ...]  # k-1 matrices, each p x p
    mu: np.ndarray  # p, unrestricted deterministics
    sigma: np.ndarray  # p x p ML residual covariance
    loglik: float
    aic: float
    bic: float
    beta_se: np.ndarray  # aligned to beta; 0 rows for the identity block
    beta_z: np.ndarray  # aligned to beta; NaN where undefined
    wald_chi2: float
    wald_dof: int
    eigenvalues: np.ndarray
    T_eff: int
    n_params: int
    beta_source: str = "eigen"
    level_means: np.ndarray = field(default=None, repr=False)
    residuals: np.ndarray = field(default=None, repr=False)

    @property
    def p(self) -> int:
        return len(self.vars)

    @property
    def has_restricted_constant(self) -> bool:
        return self.case == RESTRICTED_CONSTANT

    def beta_variables(self) -> np.ndarray:
        """beta rows for the variables only (drops the constant row)."""
        return self.beta[: self.p]


def _phillips_normalize(beta: np.ndarray, r: int) -> np.ndarray:
    """Scale columns so the leading r x r block is the identity."""
    top = beta[:r, :r]
    scale = np.abs(beta).max()
    if scale == 0 or abs(np.linalg.det(top)) < 1e-10 * max(scale**r, 1e-300):
        raise NumericalError(
            "cannot normalize beta: leading block is singular "
            "(dependent variable may not enter the cointegrating space)"
        )
    return beta @ np.linalg.inv(top)


def estimate_vecm(data, vars=None, k: int = 1, r: int = 1,
                  case: str = RESTRICTED_CONSTANT, beta=None) -> VecmModel:
    """Estimate the rank-r error-correction model.

    When ``beta`` is supplied the eigenproblem step is skipped and the
    remaining coefficients are the per-equation OLS estimates conditional
    on that cointegrating matrix.
    """
    z, names = level_matrix(data, vars)
    T, p = z.shape
    if case not in CASES:
        raise ValidationError(f"case must be one of {CASES}, got {case!r}")
    if r == 0:
        raise ValidationError(
            "rank 0 means no error correction; difference the data and fit a "
            "VAR instead (rank tests remain available via rank_test)"
        )
    if not 1 <= r <= p - 1:
        raise ValidationError(f"rank must satisfy 1 <= r <= p-1={p - 1}, got {r}")

    m = concentrate(z, names, k=k, case=case)
    lam, beta_candidates = solve_cointegration_eigenproblem(m)
    p_aug = m.S11.shape[0]

    if beta is None:
        beta_hat = _phillips_normalize(beta_candidates[:, :r].copy(), r)
        beta_source = "eigen"
    else:
        beta_hat = np.asarray(beta, dtype=float)
        if beta_hat.ndim == 1:
            beta_hat = beta_hat[:, None]
        if beta_hat.shape != (p_aug, r):
            raise ValidationError(
                f"beta must have shape ({p_aug}, {r}), got {beta_hat.shape}"
            )
        beta_source = "fixed"

    # conditional regression: dz_t on (beta'z*_{t-1}, lagged dz, deterministics)
    dz = np.diff(z, axis=0)
    rows = np.arange(k, T)
    T_eff = T - k
    Y = dz[rows - 1]
    lvl = z[rows - 1]
    if case == RESTRICTED_CONSTANT:
        lvl = np.column_stack([lvl, np.ones(T_eff)])
    ec = lvl @ beta_hat

    blocks = [ec]
    for i in range(1, k):
        blocks.append(dz[rows - 1 - i])
    if case == UNRESTRICTED_CONSTANT:
        blocks.append(np.ones((T_eff, 1)))
    X = np.column_stack(blocks)
    fit = ols_fit(X, Y)

    coef = fit.coefficients
    alpha = coef[:r].T
    gammas = tuple(coef[r + (i - 1) * p : r + i * p].T for i in range(1, k))
    mu = coef[-1].copy() if case == UNRESTRICTED_CONSTANT else np.zeros(p)
    resid = fit.residuals
    sigma = resid.T @ resid / T_eff

    n_params = p * X.shape[1] + r * (p_aug - r)
    loglik, aic, bic, _ = information_criteria(fit, T_eff, n_params)

    beta_se, beta_z, wald, wald_dof = _beta_inference(m.R1, beta_hat, alpha, sigma, r)

    return VecmModel(
        vars=names,
        k=k,
        r=r,
        case=case,
        alpha=alpha,
        beta=beta_hat,
        gamma=gammas,
        mu=mu,
        sigma=sigma,
        loglik=loglik,
        aic=aic,
        bic=bic,
        beta_se=beta_se,
        beta_z=beta_z,
        wald_chi2=wald,
        wald_dof=wald_dof,
        eigenvalues=lam[: min(p, lam.size)],
        T_eff=T_eff,
        n_params=n_params,
        beta_source=beta_source,
        level_means=z.mean(axis=0),
        residuals=resid,
    )


def _stacked_fit(W: np.ndarray, X: np.ndarray | None, candidates: np.ndarray, r: int):
    """The rank-r fit of estimate_vecm for a stack, from the regressand W,
    the short-run regressors X and the beta candidates of
    johansen._stacked_rank_test: the rank test's moments, reused.

    Returns (beta (n, p_aug, r), coefficients (n, r + short-run columns, p),
    residuals (n, T_eff, p)) of the Phillips normalization and the
    conditional regression of dz_t on (beta'z*_{t-1}, lagged dz,
    deterministics), or None where a check of estimate_vecm's could fail:
    the rank, the determinant test of _phillips_normalize (by a factor of
    two, like the pivots), the pivots of the regression and the nonsingular
    residual covariance that information_criteria needs.
    """
    p_aug = candidates.shape[1]
    p = W.shape[2] - p_aug
    if not 1 <= r <= p - 1:
        return None
    beta = candidates[:, :, :r]
    top = beta[:, :r, :r]
    scale = np.abs(beta).max(axis=(1, 2))
    if not (np.abs(np.linalg.det(top)) >= 2e-10 * np.maximum(scale**r, 1e-300)).all():
        return None
    beta = beta @ np.linalg.inv(top)
    ec = W[:, :, p:] @ beta
    fit = _stacked_ols(ec if X is None else np.concatenate([ec, X], axis=2), W[:, :, :p])
    if fit is None:
        return None
    coef, resid = fit
    # information_criteria needs det(sigma) > 0. While the smallest
    # eigenvalue of sigma stays above 1e-10 of the largest, the scalar
    # path's sigma, which differs from it only by rounding, is positive
    # definite too, and so is its computed determinant
    w = np.linalg.eigvalsh(resid.swapaxes(1, 2) @ resid)
    if not (w[:, 0] > 1e-10 * w[:, -1]).all():
        return None
    return beta, coef, resid


def _stacked_models(z: np.ndarray, names: list[tuple[str, ...]], k: int, r: int,
                    case: str, W: np.ndarray, X: np.ndarray | None, S11: np.ndarray,
                    lam: np.ndarray, candidates: np.ndarray):
    """estimate_vecm for every series of an (n, T, p) stack, from the
    moments and eigenvectors its rank test already computed.

    ``names`` holds each series' variable names; W, X, S11, lam and
    candidates are the outputs of johansen._stacked_rank_test(vectors=True)
    for the same stack. Returns one
    VecmModel per series, equal to estimate_vecm's up to rounding, or None
    where a check of estimate_vecm's could fail or _beta_inference could
    take another branch (see _stacked_fit and _stacked_beta_inference).
    """
    n, T, p = z.shape
    fit = _stacked_fit(W, X, candidates, r)
    if fit is None:
        return None
    beta, coef, resid = fit
    T_eff = T - k
    alpha = coef[:, :r].swapaxes(1, 2)
    sigma = resid.swapaxes(1, 2) @ resid / T_eff
    p_aug = beta.shape[1]
    n_params = p * coef.shape[1] + r * (p_aug - r)
    # information_criteria, whose sigma is this one: _stacked_fit has
    # checked that it is positive definite
    _, logdet = np.linalg.slogdet(sigma)
    loglik = -(T_eff / 2.0) * (p * math.log(2.0 * math.pi) + logdet + p)
    aic = (-2.0 * loglik + 2.0 * n_params) / T_eff
    bic = (-2.0 * loglik + n_params * math.log(T_eff)) / T_eff
    # R1'R1 restricted to the free coordinates, from the rank test's S11
    inference = _stacked_beta_inference(T_eff * S11[:, r:, r:], beta, alpha, sigma)
    if inference is None:
        return None
    beta_se, beta_z, wald = inference
    n_short = p * (k - 1)
    return [
        VecmModel(
            vars=names[i],
            k=k,
            r=r,
            case=case,
            alpha=alpha[i],
            beta=beta[i],
            gamma=tuple(coef[i, r + j : r + j + p].T for j in range(0, n_short, p)),
            mu=coef[i, -1].copy() if case == UNRESTRICTED_CONSTANT else np.zeros(p),
            sigma=sigma[i],
            loglik=float(loglik[i]),
            aic=float(aic[i]),
            bic=float(bic[i]),
            beta_se=beta_se[i],
            beta_z=beta_z[i],
            wald_chi2=float(wald[i]),
            wald_dof=(p_aug - r) * r,
            eigenvalues=lam[i, :p],
            T_eff=T_eff,
            n_params=n_params,
            level_means=z[i].mean(axis=0),
            residuals=resid[i],
        )
        for i in range(n)
    ]


def _beta_inference(R1: np.ndarray, beta: np.ndarray, alpha: np.ndarray,
                    sigma: np.ndarray, r: int):
    """Conditional standard errors and joint Wald test for the free beta rows.

    With beta normalized to (I_r, b')' the free block b has asymptotic
    covariance kron((R12'R12)^-1, (alpha' Sigma^-1 alpha)^-1), R12 being the
    concentrated level residuals of the non-normalized coordinates.
    """
    p_aug = beta.shape[0]
    n_free = p_aug - r
    beta_se = np.zeros_like(beta)
    beta_z = np.full_like(beta, np.nan)
    if n_free == 0:
        return beta_se, beta_z, 0.0, 0
    identity_ok = np.allclose(beta[:r, :r], np.eye(r), atol=1e-8)
    R12 = R1[:, r:]
    try:
        outer = pd_inverse(R12.T @ R12)
        # symmetrized: for a nearly singular sigma the rounding of the
        # product alone can exceed the symmetry tolerance of pd_inverse
        inner = alpha.T @ pd_inverse(sigma) @ alpha
        inner = pd_inverse(0.5 * (inner + inner.T))
    except NumericalError:
        return beta_se, beta_z, float("nan"), n_free * r
    cov = np.kron(outer, inner)  # vec ordering: free row j outer, column i inner
    diag = np.sqrt(np.maximum(np.diag(cov), 0.0)).reshape(n_free, r)
    beta_se[r:] = diag
    if identity_ok:
        with np.errstate(divide="ignore", invalid="ignore"):
            beta_z[r:] = np.where(diag > 0, beta[r:] / diag, np.nan)
    b_vec = beta[r:].reshape(-1)
    try:
        wald = float(b_vec @ np.linalg.solve(cov, b_vec))
    except np.linalg.LinAlgError:
        wald = float("nan")
    return beta_se, beta_z, wald, n_free * r


def _stacked_beta_inference(gram: np.ndarray, beta: np.ndarray, alpha: np.ndarray,
                            sigma: np.ndarray):
    """_beta_inference for stacks, from the Gram matrices R12'R12 (n, n_free,
    n_free) of the free coordinates' concentrated level residuals.

    The standard errors take the diagonals of the two inverses from their
    inverse Cholesky factors, and the Wald statistic is
    tr(b' R12'R12 b alpha' sigma^-1 alpha), the same quadratic form without
    the inverted covariance. Returns (beta_se, beta_z, wald), or None where
    _beta_inference could take another branch: a Cholesky pivot of the Gram
    matrix, sigma or alpha' sigma^-1 alpha that does not clear PIVOT_RTOL
    by a factor of two, or a leading block of beta that is not clearly the
    identity.
    """
    n, p_aug, r = beta.shape
    if not (np.abs(beta[:, :r, :r] - np.eye(r)) <= 0.5e-8).all():
        return None
    try:
        L_gram = np.linalg.cholesky(gram)
        L_sigma = np.linalg.cholesky(sigma)
        whitened = np.linalg.solve(L_sigma, alpha)
        info = whitened.swapaxes(1, 2) @ whitened  # alpha' sigma^-1 alpha
        L_info = np.linalg.cholesky(info)
        if not (_pivots_clear(gram, L_gram) & _pivots_clear(sigma, L_sigma)
                & _pivots_clear(info, L_info)).all():
            return None
        # diag(S^-1) holds the squared column norms of L^-1
        outer = np.linalg.solve(L_gram, np.broadcast_to(np.eye(p_aug - r), gram.shape))
        inner = np.linalg.solve(L_info, np.broadcast_to(np.eye(r), info.shape))
    except np.linalg.LinAlgError:
        return None
    diag = np.sqrt((outer**2).sum(axis=1)[:, :, None] * (inner**2).sum(axis=1)[:, None, :])
    b = beta[:, r:]
    wald = ((gram @ b @ info) * b).sum(axis=(1, 2))
    beta_se = np.zeros_like(beta)
    beta_se[:, r:] = diag
    beta_z = np.full_like(beta, np.nan)
    beta_z[:, r:] = np.where(diag > 0, b / diag, np.nan)
    return beta_se, beta_z, wald


@dataclass(frozen=True)
class CointegratingEquation:
    """Long-run relation solved for the dependent (first) variable."""

    dependent: str
    coefficients: dict[str, float]  # structural zeros for omitted variables
    intercept: float
    z_scores: dict[str, float]  # only variables present in the model
    significant_at_5pct: dict[str, bool]
    intercept_z: float | None


Z_CRIT_5PCT = 1.96


def normalize_cointegrating_equation(model: VecmModel) -> CointegratingEquation:
    """Rewrite beta'z* = 0 as dependent = sum(coef * var) + intercept (r=1)."""
    if model.r != 1:
        raise ValidationError(f"normalization needs rank 1, got r={model.r}")
    beta = model.beta[:, 0]
    b_dep = beta[0]
    scale = np.abs(beta).max()
    if abs(b_dep) < 1e-10 * max(scale, 1e-300) or b_dep == 0.0:
        raise NonNormalizableError(
            f"coefficient on {model.vars[0]} is numerically zero; cannot solve "
            "the cointegrating relation for it"
        )
    present = model.vars[1:]
    if set(model.vars) <= set(VARIABLES):
        all_indep = tuple(v for v in VARIABLES if v != model.vars[0])
    else:
        all_indep = present

    coefficients = {v: 0.0 for v in all_indep}
    z_scores: dict[str, float] = {}
    significant: dict[str, bool] = {}
    for idx, name in enumerate(present, start=1):
        coefficients[name] = float(-beta[idx] / b_dep)
        z = model.beta_z[idx, 0]
        if np.isfinite(z):
            z_scores[name] = float(-z) if b_dep > 0 else float(z)
            significant[name] = bool(abs(z) >= Z_CRIT_5PCT)
    if model.has_restricted_constant:
        intercept = float(-beta[-1] / b_dep)
        zc = model.beta_z[-1, 0]
        intercept_z = (float(-zc) if b_dep > 0 else float(zc)) if np.isfinite(zc) else None
    else:
        means = model.level_means
        fitted = sum(
            coefficients[name] * means[model.vars.index(name)] for name in present
        )
        intercept = float(means[0] - fitted)
        intercept_z = None
    return CointegratingEquation(
        dependent=model.vars[0],
        coefficients=coefficients,
        intercept=intercept,
        z_scores=z_scores,
        significant_at_5pct=significant,
        intercept_z=intercept_z,
    )


def companion_matrix(alpha: np.ndarray, beta_vars: np.ndarray,
                     gammas: tuple[np.ndarray, ...]) -> np.ndarray:
    """Companion form of the level VAR implied by (alpha, beta, Gamma_i)."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    beta_vars = np.atleast_2d(np.asarray(beta_vars, dtype=float))
    p = alpha.shape[0]
    k = len(gammas) + 1
    pi = alpha @ beta_vars.T
    A = [np.zeros((p, p)) for _ in range(k)]
    A[0] = np.eye(p) + pi + (gammas[0] if k > 1 else 0.0)
    for i in range(2, k):
        A[i - 1] = gammas[i - 1] - gammas[i - 2]
    if k > 1:
        A[k - 1] = -gammas[k - 2]
    top = np.hstack(A)
    if k == 1:
        return top
    lower = np.hstack([np.eye(p * (k - 1)), np.zeros((p * (k - 1), p))])
    return np.vstack([top, lower])


def stability_check(model: VecmModel) -> tuple[np.ndarray, int, bool]:
    """Companion-root moduli, count near the unit circle, and stability.

    A cointegrated VAR(k) with rank r carries exactly p - r common trends,
    so that many moduli should sit within UNIT_ROOT_TOL of one; the model is
    stable when every remaining modulus is strictly inside the circle.
    """
    comp = companion_matrix(model.alpha, model.beta_variables(), model.gamma)
    roots = general_eigenvalues(comp)
    moduli = np.abs(roots)
    unit_count = int(np.sum(np.abs(moduli - 1.0) <= UNIT_ROOT_TOL))
    expected = model.p - model.r
    rest = moduli[expected:]
    stable = bool(unit_count == expected and np.all(rest < 1.0 - STABLE_MARGIN))
    return moduli, unit_count, stable


def predict_one_step(model: VecmModel, history) -> np.ndarray:
    """One-step-ahead level forecast from the most recent k observations."""
    h = np.asarray(history, dtype=float)
    if h.ndim == 1:
        h = h[None, :]
    if h.shape[0] < model.k or h.shape[1] != model.p:
        raise ValidationError(
            f"history must supply at least k={model.k} rows of {model.p} levels, "
            f"got shape {h.shape}"
        )
    h = h[-model.k :]
    z_t = h[-1]
    lvl = np.append(z_t, 1.0) if model.has_restricted_constant else z_t
    dz_next = model.alpha @ (model.beta.T @ lvl) + model.mu
    for i, g in enumerate(model.gamma, start=1):
        dz_next = dz_next + g @ (h[-i] - h[-i - 1])
    return z_t + dz_next


def concentrated_loglik_from_eigenvalues(m, r: int) -> float:
    """Johansen's concentrated log-likelihood at rank r, from the moment
    matrices; equals the residual-based value at the ML estimate."""
    p = m.p
    lam, _ = solve_cointegration_eigenproblem(m)
    sign, logdet = np.linalg.slogdet(m.S00)
    if sign <= 0:
        raise NumericalError("S00 is not positive definite")
    t = m.T_eff
    return -(t / 2.0) * (
        p * math.log(2.0 * math.pi) + p + logdet + float(np.sum(np.log1p(-lam[:r])))
    )
