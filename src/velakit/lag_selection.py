"""Level-VAR fitting and information-criteria lag selection.

All candidate lags are fit on a common sample (rows aligned to k_max) so
criteria are comparable; ties break toward the smaller lag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import ols_fit
from .panel import MacroPanel, VARIABLES

TIE_EPS = 1e-12


def argmin_with_ties(values) -> int:
    """Index of the smallest value; ties within TIE_EPS go to the earliest."""
    best = 0
    for i, v in enumerate(values[1:], start=1):
        if v < values[best] - TIE_EPS:
            best = i
    return best


def max_feasible_lag(T: int, p: int) -> int:
    """Largest lag k whose VAR(k) fit to T observations of p series keeps
    more than two residual degrees of freedom per equation, T - k > (1 +
    p*k) + 2, which is k <= (T - 4) // (p + 1); 0 when no lag does."""
    return max(0, (T - 4) // (p + 1))


def level_matrix(data, vars=None) -> tuple[np.ndarray, tuple[str, ...]]:
    """Accept a LogLevelPanel or a plain (T x p) array; return data + names."""
    if isinstance(data, MacroPanel):
        names = tuple(vars) if vars is not None else VARIABLES
        return data.matrix(names), names
    z = np.asarray(data, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    if vars is not None:
        names = tuple(vars)
        if len(names) != z.shape[1]:
            raise ValidationError(
                f"{len(names)} names given for {z.shape[1]} columns"
            )
    else:
        names = tuple(f"y{i}" for i in range(z.shape[1]))
    if not np.all(np.isfinite(z)):
        raise ValidationError("level data contains non-finite values")
    return z, names


@dataclass(frozen=True)
class VarFit:
    """Per-equation OLS of z_t on (1, z_{t-1}, ..., z_{t-k}), stacked.

    coefficients: ((1 + p*k) x p), the intercept row and then the p rows of
    each lag, z_{t-1} first; sigma_ml uses the T^-1 normalization so
    criteria are comparable across lags.
    """

    vars: tuple[str, ...]
    k: int
    coefficients: np.ndarray
    residuals: np.ndarray
    sigma_ml: np.ndarray
    T_eff: int
    n_params: int


def fit_var(data, vars=None, k: int = 1) -> VarFit:
    """Fit a VAR(k) in levels by per-equation OLS on rows k..T-1."""
    z, names = level_matrix(data, vars)
    T, p = z.shape
    if k < 1:
        raise ValidationError(f"lag order must be >= 1, got {k}")
    T_eff = T - k
    n_regressors = 1 + p * k
    if k > max_feasible_lag(T, p):
        raise ValidationError(
            f"insufficient sample: T_eff={T_eff} for {n_regressors} regressors "
            f"(T={T}, p={p}, k={k})"
        )
    rows = np.arange(k, T)
    X = np.ones((T_eff, n_regressors))
    for i in range(1, k + 1):
        X[:, 1 + (i - 1) * p : 1 + i * p] = z[rows - i]
    Y = z[rows]
    fit = ols_fit(X, Y)
    sigma_ml = (fit.residuals.T @ fit.residuals) / T_eff
    return VarFit(
        vars=names,
        k=k,
        coefficients=fit.coefficients,
        residuals=fit.residuals,
        sigma_ml=sigma_ml,
        T_eff=T_eff,
        n_params=p * n_regressors,
    )


def gaussian_loglik(T, p: int, logdet):
    """Gaussian log-likelihood of T observations of p series at the ML
    covariance Sigma_ml: -(T/2) * (p ln 2pi + ln det Sigma_ml + p)."""
    return -(T / 2.0) * (p * math.log(2.0 * math.pi) + logdet + p)


def gaussian_criteria(sigma: np.ndarray, T, n_params):
    """Log-likelihood and information criteria for a stack of ML residual
    covariances sigma (n, p, p) from T observations, T and n_params each an
    int or one per member, shaped (n,), and math.log taken of each distinct T.

    Returns (loglik, AIC, BIC, HQIC, errors), each value an (n,) array; the
    criteria are per observation, (-2 loglik + penalty) / T. errors maps
    each member whose det sigma is not positive to a ValidationError; its
    values are placeholders.
    """
    sign, logdet = np.linalg.slogdet(sigma)
    sizes, at = np.unique(T, return_inverse=True)
    log_T = np.array([math.log(t) for t in sizes.tolist()])[at]
    loglog_T = np.array([math.log(math.log(t)) for t in sizes.tolist()])[at]
    loglik = gaussian_loglik(T, sigma.shape[-1], logdet)
    deviance = -2.0 * loglik
    aic = (deviance + 2.0 * n_params) / T
    bic = (deviance + n_params * log_T) / T
    hqic = (deviance + 2.0 * n_params * loglog_T) / T
    singular = sign <= 0
    errors = {i: ValidationError("residual covariance is singular")
              for i in np.flatnonzero(singular)} if singular.any() else {}
    return loglik, aic, bic, hqic, errors


@dataclass(frozen=True)
class LagSelectionTable:
    vars: tuple[str, ...]
    sample_size: int
    rows: tuple[dict, ...]  # one per k: {k, loglik, aic, bic, hqic}
    chosen_lag: dict[str, int]  # per criterion


def select_lag(data, vars=None, k_max: int = 4) -> LagSelectionTable:
    """Score VAR(1..k_max) on the common sample, rows k_max..T-1, and pick
    per-criterion argmins; the sample rule is checked once, for k_max."""
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    z, names = level_matrix(data, vars)
    T, p = z.shape
    longest = max_feasible_lag(T, p)
    if k_max > longest:
        raise ValidationError(
            f"k_max={k_max} exceeds {longest}, the longest lag a VAR of "
            f"T={T} observations of p={p} series allows"
        )
    rows = []
    prev_ll = -math.inf
    for k in range(1, k_max + 1):
        fit = fit_var(z[k_max - k :], names, k=k)
        *criteria, errors = gaussian_criteria(fit.sigma_ml[None], fit.T_eff, fit.n_params)
        if errors:
            raise errors[0]
        ll, aic, bic, hqic = (c[0] for c in criteria)
        if ll < prev_ll - 1e-8 * max(1.0, abs(prev_ll)):
            raise ValidationError(
                f"log-likelihood decreased from lag {k - 1} to {k}; "
                "common-sample alignment violated"
            )
        prev_ll = max(prev_ll, ll)
        rows.append({"k": k, "loglik": ll, "aic": aic, "bic": bic, "hqic": hqic})

    chosen = {
        crit: rows[argmin_with_ties([row[crit] for row in rows])]["k"]
        for crit in ("aic", "bic", "hqic")
    }
    return LagSelectionTable(
        vars=names,
        sample_size=T - k_max,
        rows=tuple(rows),
        chosen_lag=chosen,
    )
