"""Error-correction model estimation at a fixed cointegration rank.

beta comes from the Johansen eigenproblem (or is supplied), normalized so
its leading r x r block is the identity; alpha and the short-run matrices
follow by per-equation OLS conditional on beta. Standard errors for the
free beta rows use the conditional (fixed-alpha) asymptotic covariance, and
the headline chi-square is the joint Wald test that every non-normalized
beta coefficient is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonNormalizableError, NumericalError, ValidationError
from .johansen import (
    RESTRICTED_CONSTANT,
    UNRESTRICTED_CONSTANT,
    _check_case,
    _flag,
    _raise_first,
    _record,
    _stacked_concentrate,
    _stacked_eigenproblem,
    solve_cointegration_eigenproblem,
)
from .lag_selection import gaussian_criteria, gaussian_loglik, level_matrix
from .linalg import _each, _stacked_cholesky, _stacked_ols, as_matrix, general_eigenvalues
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

    @property
    def p(self) -> int:
        return len(self.vars)

    @property
    def has_restricted_constant(self) -> bool:
        return self.case == RESTRICTED_CONSTANT

    def beta_variables(self) -> np.ndarray:
        """beta rows for the variables only (drops the constant row)."""
        return self.beta[: self.p]


def estimate_vecm(data, vars=None, k: int = 1, r: int = 1,
                  case: str = RESTRICTED_CONSTANT, beta=None) -> VecmModel:
    """Estimate the rank-r error-correction model.

    When ``beta`` is supplied the eigenproblem's vectors are not used and
    the remaining coefficients are the per-equation OLS estimates
    conditional on that cointegrating matrix.
    """
    z, names = level_matrix(data, vars)
    p = z.shape[1]
    _check_case(case)
    if r == 0:
        raise ValidationError(
            "rank 0 means no error correction; difference the data and fit a "
            "VAR instead (rank tests remain available via rank_test)"
        )
    _check_rank(r, p)
    W, X, S00, S01, S11, errors = _stacked_concentrate(z[None], k, case)
    lam, candidates = _stacked_eigenproblem(S00, S01, S11, errors, vectors=True)
    if beta is None:
        beta_hat = _stacked_phillips(candidates, r, errors)
    else:
        _raise_first(errors)
        beta_hat, p_aug = as_matrix(beta, "beta"), S11.shape[1]
        if beta_hat.shape != (p_aug, r):
            raise ValidationError(f"beta must have shape ({p_aug}, {r}), got {beta_hat.shape}")
        beta_hat = beta_hat[None]
    models = _stacked_models(z[None], [names], k, r, case, W, X, S11, lam, beta_hat, errors,
                             beta_source="eigen" if beta is None else "fixed")
    _raise_first(errors)
    return models[0]


def _check_rank(r: int, p: int) -> None:
    if not 1 <= r <= p - 1:
        raise ValidationError(f"rank must satisfy 1 <= r <= p-1={p - 1}, got {r}")


@np.errstate(all="ignore")
def _stacked_phillips(candidates: np.ndarray, r: int, errors: dict) -> np.ndarray:
    """The first r beta candidates of each member of a stack (n, p_aug, r),
    scaled so the leading r x r block is the identity.

    Records NumericalError for a member whose leading block is singular:
    |det| below 1e-10 * scale^r, scale being the largest |coefficient|.
    """
    beta = candidates[:, :, :r]
    top = beta[:, :r, :r]
    scale = np.abs(beta).max(axis=(1, 2))
    singular = (scale == 0) | (np.abs(np.linalg.det(top)) < 1e-10 * np.maximum(scale**r, 1e-300))
    _flag(errors, singular, NumericalError, "cannot normalize beta: leading block is singular "
          "(dependent variable may not enter the cointegrating space)")
    inverse, _ = _each(np.linalg.inv, top)
    return beta @ inverse


@np.errstate(all="ignore")
def _stacked_fit(W: np.ndarray, X: np.ndarray | None, beta: np.ndarray, errors: dict):
    """The conditional regression of estimate_vecm for a stack: dz_t on
    (beta'z*_{t-1}, lagged dz, deterministics), from the regressand W and
    the short-run regressors X of johansen._stacked_concentrate and a beta
    (n, p_aug, r).

    Returns (coefficients (n, r + short-run columns, p), sigma (n, p, p),
    n_params, criteria), criteria being lag_selection.gaussian_criteria's
    (loglik, AIC, BIC, HQIC) of sigma.
    Records the regression's SingularMatrixError and gaussian_criteria's
    ValidationError where det sigma is not positive.
    """
    T_eff = W.shape[1]
    _, p_aug, r = beta.shape
    p = W.shape[2] - p_aug
    ec = W[:, :, p:] @ beta
    coef, resid, _, failures = _stacked_ols(ec if X is None else np.concatenate([ec, X], axis=2),
                                            W[:, :, :p])
    _record(errors, failures)
    sigma = resid.swapaxes(1, 2) @ resid / T_eff
    n_params = p * coef.shape[1] + r * (p_aug - r)
    *criteria, failures = gaussian_criteria(sigma, T_eff, n_params)
    _record(errors, failures)
    return coef, sigma, n_params, criteria


@np.errstate(all="ignore")
def _stacked_models(z: np.ndarray, names: list[tuple[str, ...]], k: int, r: int,
                    case: str, W: np.ndarray, X: np.ndarray | None, S11: np.ndarray,
                    lam: np.ndarray, beta: np.ndarray, errors: dict,
                    beta_source: str = "eigen") -> list[VecmModel | None]:
    """estimate_vecm for every series of an (n, T, p) stack at a given beta
    (n, p_aug, r), from the moments its rank test already computed.

    ``names`` holds each series' variable names; W, X, S11 and lam come
    from johansen._stacked_rank_test for the same stack. Returns one
    VecmModel per member, None for a member with an error in ``errors``.
    """
    n, T, p = z.shape
    _check_rank(r, p)
    coef, sigma, n_params, (loglik, aic, bic, _) = _stacked_fit(W, X, beta, errors)
    T_eff = T - k
    alpha = coef[:, :r].swapaxes(1, 2)
    p_aug = beta.shape[1]
    # R1'R1 restricted to the free coordinates, from the rank test's S11
    beta_se, beta_z, wald = _stacked_beta_inference(T_eff * S11[:, r:, r:], beta, alpha, sigma)
    n_short = p * (k - 1)
    return [
        None if i in errors else VecmModel(
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
            beta_source=beta_source,
            level_means=z[i].mean(axis=0),
        )
        for i in range(n)
    ]


@np.errstate(all="ignore")
def _stacked_beta_inference(gram: np.ndarray, beta: np.ndarray, alpha: np.ndarray,
                            sigma: np.ndarray):
    """Conditional standard errors and joint Wald test for the free beta rows
    of each member of a stack.

    With beta normalized to (I_r, b')' the free block b has asymptotic
    covariance kron((R12'R12)^-1, (alpha' sigma^-1 alpha)^-1), R12 being the
    concentrated level residuals of the non-normalized coordinates (``gram``
    holds R12'R12). The standard errors take the diagonals of the inverses
    from inverse Cholesky factors; the Wald statistic is the quadratic form
    tr(b' R12'R12 b alpha' sigma^-1 alpha). Returns (beta_se, beta_z, wald):
    a member whose Gram matrix, sigma or alpha' sigma^-1 alpha
    cholesky_factor rejects gets se 0, z NaN and Wald NaN; one whose leading
    block is not the identity (np.allclose, atol 1e-8) gets z NaN.
    """
    n, p_aug, r = beta.shape
    L_gram, failures_gram = _stacked_cholesky(gram)
    L_sigma, failures_sigma = _stacked_cholesky(sigma)
    whitened = np.linalg.solve(L_sigma, alpha)
    info = whitened.swapaxes(1, 2) @ whitened  # alpha' sigma^-1 alpha
    L_info, failures_info = _stacked_cholesky(info)
    # diag(S^-1) holds the squared column norms of L^-1
    outer = np.linalg.solve(L_gram, np.broadcast_to(np.eye(p_aug - r), gram.shape))
    inner = np.linalg.solve(L_info, np.broadcast_to(np.eye(r), info.shape))
    diag = np.sqrt((outer**2).sum(axis=1)[:, :, None] * (inner**2).sum(axis=1)[:, None, :])
    b = beta[:, r:]
    wald = ((gram @ b @ info) * b).sum(axis=(1, 2))
    beta_se = np.zeros_like(beta)
    beta_se[:, r:] = diag
    beta_z = np.full_like(beta, np.nan)
    beta_z[:, r:] = np.where(diag > 0, b / diag, np.nan)
    failed = [*{*failures_gram, *failures_sigma, *failures_info}]
    beta_se[failed] = 0.0
    wald[failed] = np.nan
    eye = np.eye(r)  # np.allclose(top, eye, atol=1e-8), without its overhead
    identity = (np.abs(beta[:, :r, :r] - eye) <= 1e-8 + 1e-5 * eye).all(axis=(1, 2))
    beta_z[failed] = np.nan
    beta_z[~identity] = np.nan
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
    lam, _ = solve_cointegration_eigenproblem(m)
    sign, logdet = np.linalg.slogdet(m.S00)
    if sign <= 0:
        raise NumericalError("S00 is not positive definite")
    # det sigma at the rank-r estimate is det S00 * prod_{i <= r} (1 - lambda_i)
    return gaussian_loglik(m.T_eff, m.p, logdet + float(np.sum(np.log1p(-lam[:r]))))
