"""Independent numpy oracle for the benchmark's output checks.

Everything here is written from the textbook definitions and shares no code
with velakit: concentration by least squares (np.linalg.lstsq), the
cointegration eigenvalues of S11^-1 S10 S00^-1 S01 by np.linalg.eigvals, the
ADF t-ratio from a least-squares fit, splitmix64 from its published
constants, and the first-order error-correction recursion that generates
data. The benchmark compares velakit's outputs against these values.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
BURN_IN = 50

# 95% trace-test critical values for p - r = 1..6 with the constant
# restricted to the cointegrating relation (Osterwald-Lenum 1992, Table 1*),
# the only deterministic case the workloads use
TRACE_95 = (9.24, 19.96, 34.91, 53.12, 76.07, 102.14)


def splitmix64(x: int) -> int:
    """One step of Vigna's splitmix64: advance by the golden gamma, then mix."""
    z = (x + GOLDEN_GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def replication_rng(base_seed: int, index: int) -> np.random.Generator:
    """PCG64 stream for replication `index` of a study seeded with `base_seed`."""
    return np.random.default_rng(splitmix64(((base_seed & MASK64) + index) & MASK64))


def generate_ecm(alpha, beta, T: int, base_seed: int, index: int,
                 noise_scale: float = 1.0) -> np.ndarray:
    """T levels of z_t = z_{t-1} + alpha beta' z_{t-1} + e_t after a burn-in.

    Starts from zero, draws all innovations at once as noise_scale times
    standard normals, and drops the first BURN_IN + 1 rows.
    """
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    p = alpha.shape[0]
    total = T + BURN_IN + 1
    eps = noise_scale * replication_rng(base_seed, index).standard_normal((total, p))
    pi = alpha @ beta.T
    z = np.zeros((total, p))
    for t in range(1, total):
        z[t] = z[t - 1] + pi @ z[t - 1] + eps[t]
    return z[-T:]


def _residuals(X: np.ndarray | None, Y: np.ndarray) -> np.ndarray:
    if X is None:
        return Y
    coef, *_ = np.linalg.lstsq(X, Y, rcond=None)
    return Y - X @ coef


def concentrate(z, k: int):
    """(R0, R1, T_eff): dz_t and (z_{t-1}, 1) purged of the lagged differences."""
    z = np.asarray(z, dtype=float)
    T = z.shape[0]
    dz = np.diff(z, axis=0)
    T_eff = T - k
    t = np.arange(k, T)  # row t of z is the current level
    D0 = dz[t - 1]
    lvl = np.column_stack([z[t - 1], np.ones(T_eff)])
    cols = [dz[t - 1 - i] for i in range(1, k)]
    X = np.column_stack(cols) if cols else None
    return _residuals(X, D0), _residuals(X, lvl), T_eff


def _moment_product(R0, R1, T_eff):
    S00 = R0.T @ R0 / T_eff
    S01 = R0.T @ R1 / T_eff
    S11 = R1.T @ R1 / T_eff
    return np.linalg.solve(S11, S01.T) @ np.linalg.solve(S00, S01)


def eigenvalues(R0, R1, T_eff) -> np.ndarray:
    """The p largest eigenvalues of S11^-1 S10 S00^-1 S01, descending."""
    lam = np.linalg.eigvals(_moment_product(R0, R1, T_eff)).real
    return np.sort(lam)[::-1][: R0.shape[1]]


def leading_beta(R0, R1, T_eff) -> np.ndarray:
    """Eigenvector of the largest eigenvalue (any scale)."""
    lam, vec = np.linalg.eig(_moment_product(R0, R1, T_eff))
    return vec[:, int(np.argmax(lam.real))].real


def trace_statistics(lam, T_eff: int) -> np.ndarray:
    """-T_eff * sum_{i > r} log(1 - lambda_i) for r = 0..p-1."""
    logs = np.log(1.0 - np.asarray(lam, dtype=float))
    return np.array([-T_eff * logs[r:].sum() for r in range(len(logs))])


def selected_rank(trace) -> int:
    """Smallest r whose trace statistic is below the 95% value, else p."""
    p = len(trace)
    for r in range(p):
        if trace[r] < TRACE_95[p - r - 1]:
            return r
    return p


def decision_is_clear(trace, rel: float = 1e-6) -> bool:
    """False when a statistic sits so close to its critical value that
    rounding alone could flip the decision."""
    p = len(trace)
    return all(abs(trace[r] - TRACE_95[p - r - 1]) > rel * TRACE_95[p - r - 1]
               for r in range(p))


def short_run_given_beta(z, beta, k: int):
    """(alpha, [Gamma_1..Gamma_{k-1}]) by least squares of dz_t on
    (beta' (z_{t-1}, 1), dz_{t-1}, ..., dz_{t-k+1})."""
    z = np.asarray(z, dtype=float)
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    if beta.shape[0] == 1:
        beta = beta.T
    T, p = z.shape
    dz = np.diff(z, axis=0)
    t = np.arange(k, T)
    lvl = np.column_stack([z[t - 1], np.ones(T - k)])
    cols = [lvl @ beta] + [dz[t - 1 - i] for i in range(1, k)]
    coef, *_ = np.linalg.lstsq(np.column_stack(cols), dz[t - 1], rcond=None)
    r = beta.shape[1]
    alpha = coef[:r].T
    gammas = [coef[r + (i - 1) * p: r + i * p].T for i in range(1, k)]
    return alpha, gammas


def adf_statistic(y, lags: int) -> float:
    """t-ratio on y_{t-1} in dy_t = c + g y_{t-1} + sum_i phi_i dy_{t-i} + e_t."""
    y = np.asarray(y, dtype=float)
    dy = np.diff(y)
    resp = dy[lags:]
    n = resp.size
    X = np.column_stack(
        [np.ones(n), y[lags:-1]] + [dy[lags - i: lags - i + n] for i in range(1, lags + 1)]
    )
    coef, *_ = np.linalg.lstsq(X, resp, rcond=None)
    resid = resp - X @ coef
    s2 = resid @ resid / (n - X.shape[1])
    unit = np.zeros(X.shape[1])
    unit[1] = 1.0
    var_g = s2 * np.linalg.solve(X.T @ X, unit)[1]
    return float(coef[1] / math.sqrt(var_g))


def schwert_lags(T: int) -> int:
    """floor(12 (T/100)^(1/4)), capped at T - 10."""
    return min(math.floor(12.0 * (T / 100.0) ** 0.25), T - 10)


def angle_deg(b_hat, b_true) -> float:
    """Angle between two vectors' spans, in degrees."""
    a = np.ravel(np.asarray(b_hat, dtype=float))
    b = np.ravel(np.asarray(b_true, dtype=float))
    b = b / np.linalg.norm(b)
    along = a @ b
    # atan2 of the perpendicular and parallel parts stays accurate near 0
    return math.degrees(math.atan2(np.linalg.norm(a - along * b), abs(along)))


def close(a, b, rtol: float = 1e-7, atol: float = 1e-9) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rtol, atol=atol))
