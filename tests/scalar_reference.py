"""One-system-at-a-time Johansen/VECM numerics, the reference of the agreement tests.

This is the scalar chain velakit ran before its stacked kernel became the
only estimator: concentration by two QR regressions (ols_fit), whitening
with cholesky_factor, symmetric_eigendecomposition, the Phillips
normalization by an explicit inverse, OLS conditional on beta, and the
conditional covariance of the free beta rows by explicit inverses. Beside
it sits the replication-major block simulator the Monte Carlo studies ran
before the time-major one (simulate_reference).
Numerics only: inputs are assumed valid, and degenerate ones raise
whatever the linalg primitives raise.
"""

import numpy as np

from velakit.johansen import TRACE_CRITICAL, MomentMatrices
from velakit.lag_selection import information_criteria
from velakit.linalg import cholesky_factor, ols_fit, symmetric_eigendecomposition
from velakit.synthetic import BURN_IN, rng_for
from velakit.vecm import VecmModel


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


def moments_from_residuals(R0, R1, T_eff, case="rconst"):
    """S00, S01, S11 from concentrated residual matrices."""
    R0, R1 = np.asarray(R0, dtype=float), np.asarray(R1, dtype=float)
    return MomentMatrices(S00=R0.T @ R0 / T_eff, S01=R0.T @ R1 / T_eff,
                          S11=R1.T @ R1 / T_eff, T_eff=T_eff, p=R0.shape[1], case=case,
                          vars=tuple(f"y{i}" for i in range(R0.shape[1])))


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
