"""One-system-at-a-time Johansen/VECM numerics, the reference of the agreement tests.

This is the scalar chain velakit ran before its stacked kernel became the
only estimator: concentration by two QR regressions (ols_fit), whitening
with cholesky_factor, symmetric_eigendecomposition, the Phillips
normalization by an explicit inverse, OLS conditional on beta over the
full design [beta'z*_{t-1}, lagged dz, deterministics] (a second regression,
where the kernel takes alpha, sigma and Gamma from the concentration's
residuals and coefficients), and the conditional covariance of the free
beta rows by explicit inverses. Beside it sits the replication-major block
simulator the Monte Carlo studies ran before the time-major one
(simulate_reference), the one-model-at-a-time normalization of a rank-1
relation the specification search ran before its stacked one
(normalize_equation), the criteria of one fit from its residuals
(information_criteria), and Johansen's concentrated log-likelihood from
the eigenvalues (concentrated_loglik_from_eigenvalues), the oracle of the
likelihood identity.
Numerics only: inputs are assumed valid, and degenerate ones raise
whatever the linalg primitives raise.
"""

from dataclasses import dataclass

import numpy as np

from velakit.errors import NonNormalizableError, NumericalError, ValidationError
from velakit.johansen import TRACE_CRITICAL, solve_cointegration_eigenproblem
from velakit.lag_selection import gaussian_criteria, gaussian_loglik
from velakit.linalg import cholesky_factor, ols_fit, symmetric_eigendecomposition
from velakit.panel import VARIABLES
from velakit.synthetic import BURN_IN, rng_for
from velakit.vecm import Z_CRIT_5PCT, CointegratingEquation, VecmModel


def simulate_reference(spec, reps):
    """Levels of replications ``reps`` as an (n, T, p) array, built in an
    (n, T + BURN_IN + k, p) buffer: replication i draws into row i, and
    each step sums its window's products over the middle axis."""
    p, k = spec.p, spec.k
    n, total = len(reps), spec.T + BURN_IN + k
    z = np.empty((n, total, p))
    if spec.noise_scale > 0 or spec.ec_noise_scale:
        for i, rep in enumerate(reps):
            rng_for(spec.seed, rep).standard_normal(out=z[i])
        if spec.ec_noise_scale is None:
            z *= spec.noise_scale
        else:
            q, _ = np.linalg.qr(spec.beta_true)
            inside = z @ (q @ q.T)
            z -= inside
            z *= spec.noise_scale
            inside *= spec.ec_noise_scale
            z += inside
    else:
        z.fill(0.0)
    z += spec.mu_true
    z[:, :k] = 0.0
    coef = spec.companion()[:p].reshape(p, k, p)[:, ::-1].reshape(p, k * p).T
    for t in range(k, total):
        z[:, t] += (z[:, t - k : t].reshape(n, k * p, 1) * coef).sum(axis=1)
    return z[:, -spec.T :]


@dataclass(frozen=True)
class Moments:
    """The moment matrices of one concentrated system, formed from its
    residuals; velakit's own MomentMatrices holds their factor instead."""

    S00: np.ndarray
    S01: np.ndarray
    S11: np.ndarray
    T_eff: int
    p: int
    case: str


def moments_from_residuals(R0, R1, T_eff, case="rconst"):
    """S00, S01, S11 from concentrated residual matrices."""
    R0, R1 = np.asarray(R0, dtype=float), np.asarray(R1, dtype=float)
    return Moments(S00=R0.T @ R0 / T_eff, S01=R0.T @ R1 / T_eff, S11=R1.T @ R1 / T_eff,
                   T_eff=T_eff, p=R0.shape[1], case=case)


def concentrated_residuals(z, k, case):
    """(R0, R1): dz_t and the level term (with a ones column under rconst),
    each regressed on the lagged differences (and a ones column under uconst)."""
    T = len(z)
    dz = np.diff(z, axis=0)
    rows = np.arange(k, T)
    D0, lvl = dz[rows - 1], z[rows - 1]
    if case == "rconst":
        lvl = np.column_stack([lvl, np.ones(T - k)])
    blocks = [dz[rows - 1 - i] for i in range(1, k)]
    if case == "uconst":
        blocks.append(np.ones((T - k, 1)))
    if not blocks:
        return D0, lvl
    X = np.column_stack(blocks)
    return ols_fit(X, D0).residuals, ols_fit(X, lvl).residuals


def concentrate(z, k=1, case="rconst"):
    return moments_from_residuals(*concentrated_residuals(z, k, case), len(z) - k, case)


def eigenproblem(m):
    """Eigenvalues (descending, clipped at 0) and beta candidates, each
    scaled so its first nonzero coordinate is +1."""
    L1 = cholesky_factor(m.S11)
    L0 = cholesky_factor(m.S00)
    G = np.linalg.solve(L0, m.S01)
    G = np.linalg.solve(L1, G.T).T
    lam, W = symmetric_eigendecomposition(G.T @ G)
    beta = np.linalg.solve(L1.T, W)
    for j in range(beta.shape[1]):
        col = beta[:, j]
        nz = np.nonzero(np.abs(col) > 1e-10 * max(np.abs(col).max(), 1e-300))[0]
        if nz.size:
            beta[:, j] = col / col[nz[0]]
    return np.clip(lam, 0.0, None), beta


def rank_test(z, k=1, case="rconst"):
    """(trace statistics for r = 0..p-1, rank selected at 5%)."""
    m = concentrate(z, k, case)
    p = m.p
    lam = eigenproblem(m)[0][:p]
    trace = np.array([-m.T_eff * np.sum(np.log1p(-lam[r:])) for r in range(p)])
    cv = TRACE_CRITICAL[case]["95%"]
    return trace, next((r for r in range(p) if trace[r] < cv[p - r - 1]), p)


def information_criteria(fit, T, n_params):
    """(loglik, AIC, BIC, HQIC) of gaussian_criteria for Sigma_ml = eps'eps / T
    from a fit's residuals; a singular Sigma_ml raises its ValidationError."""
    resid = np.asarray(fit.residuals, dtype=float).reshape(len(fit.residuals), -1)
    *criteria, errors = gaussian_criteria(((resid.T @ resid) / T)[None], T, n_params)
    if errors:
        raise errors[0]
    return tuple(c[0] for c in criteria)


def concentrated_loglik_from_eigenvalues(m, r):
    """Johansen's concentrated log-likelihood at rank r, from the moment
    matrices; equals the residual-based value at the ML estimate."""
    lam, _ = solve_cointegration_eigenproblem(m)
    sign, logdet = np.linalg.slogdet(m.S00)
    if sign <= 0:
        raise NumericalError("S00 is not positive definite")
    # det sigma at the rank-r estimate is det S00 * prod_{i <= r} (1 - lambda_i)
    return gaussian_loglik(m.T_eff, m.p, logdet + float(np.sum(np.log1p(-lam[:r]))))


def _pd_inverse(S):
    L = cholesky_factor(S)
    return np.linalg.solve(L.T, np.linalg.solve(L, np.eye(len(S))))


def beta_inference(R1, beta, alpha, sigma, r):
    """Standard errors, z-scores and joint Wald statistic of the free beta
    rows from kron((R12'R12)^-1, (alpha' sigma^-1 alpha)^-1)."""
    n_free = beta.shape[0] - r
    beta_se = np.zeros_like(beta)
    beta_z = np.full_like(beta, np.nan)
    R12 = R1[:, r:]
    outer = _pd_inverse(R12.T @ R12)
    inner = alpha.T @ _pd_inverse(sigma) @ alpha
    inner = _pd_inverse(0.5 * (inner + inner.T))
    cov = np.kron(outer, inner)
    diag = np.sqrt(np.maximum(np.diag(cov), 0.0)).reshape(n_free, r)
    beta_se[r:] = diag
    if np.allclose(beta[:r, :r], np.eye(r), atol=1e-8):
        beta_z[r:] = np.where(diag > 0, beta[r:] / np.where(diag > 0, diag, 1.0), np.nan)
    b_vec = beta[r:].reshape(-1)
    return beta_se, beta_z, float(b_vec @ np.linalg.solve(cov, b_vec))


def estimate_vecm(z, k=1, r=1, case="rconst", vars=None):
    """The rank-r error-correction model as a velakit VecmModel."""
    T, p = z.shape
    R0, R1 = concentrated_residuals(z, k, case)
    T_eff = T - k
    lam, candidates = eigenproblem(moments_from_residuals(R0, R1, T_eff, case))
    beta = candidates[:, :r]
    beta = beta @ np.linalg.inv(beta[:r, :r])
    fit = conditional_fit(z, beta, k, case)
    coef, resid = fit.coefficients, fit.residuals
    alpha = coef[:r].T
    n_params = p * coef.shape[0] + r * (beta.shape[0] - r)
    loglik, aic, bic, _ = information_criteria(fit, T_eff, n_params)
    beta_se, beta_z, wald = beta_inference(R1, beta, alpha, resid.T @ resid / T_eff, r)
    return VecmModel(
        vars=tuple(vars) if vars else tuple(f"y{i}" for i in range(p)), k=k, r=r, case=case,
        alpha=alpha, beta=beta,
        gamma=tuple(coef[r + (i - 1) * p : r + i * p].T for i in range(1, k)),
        mu=coef[-1].copy() if case == "uconst" else np.zeros(p),
        sigma=resid.T @ resid / T_eff, loglik=loglik, aic=aic, bic=bic,
        beta_se=beta_se, beta_z=beta_z, wald_chi2=wald, wald_dof=(beta.shape[0] - r) * r,
        eigenvalues=lam[:p], T_eff=T_eff, n_params=n_params,
        level_means=z.mean(axis=0),
    )


def conditional_fit(z, beta, k=1, case="rconst"):
    """The OLS fit of dz_t on (beta'z*_{t-1}, lagged dz, deterministics)."""
    T = len(z)
    dz = np.diff(z, axis=0)
    rows = np.arange(k, T)
    lvl = z[rows - 1]
    if case == "rconst":
        lvl = np.column_stack([lvl, np.ones(T - k)])
    blocks = [lvl @ beta] + [dz[rows - 1 - i] for i in range(1, k)]
    if case == "uconst":
        blocks.append(np.ones((T - k, 1)))
    return ols_fit(np.column_stack(blocks), dz[rows - 1])


def normalize_equation(model):
    """beta'z* = 0 solved for the dependent (first) variable of a rank-1
    model, one coefficient at a time, as a velakit CointegratingEquation."""
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
    z_scores, significant = {}, {}
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
        fitted = sum(coefficients[name] * means[model.vars.index(name)] for name in present)
        intercept = float(means[0] - fitted)
        intercept_z = None
    return CointegratingEquation(
        dependent=model.vars[0], coefficients=coefficients, intercept=intercept,
        z_scores=z_scores, significant_at_5pct=significant, intercept_z=intercept_z,
    )
