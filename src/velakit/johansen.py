"""Reduced-rank cointegration analysis: concentration, eigenproblem, rank tests.

The level term enters at t-1 (the usual reparameterization of the lag-k
form; eigenvalues and likelihood are unchanged). Two deterministic cases
are supported: a constant restricted to the cointegrating relation
(``rconst``, the default: the reported long-run equations carry an explicit
intercept) and an unrestricted constant (``uconst``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, NumericalError, ValidationError
from .lag_selection import level_matrix
from .linalg import (
    SYMMETRY_RTOL,
    _pivots_clear,
    _stacked_ols,
    cholesky_factor,
    ols_fit,
    solve_lower,
    solve_upper,
    symmetric_eigendecomposition,
)

RESTRICTED_CONSTANT = "rconst"
UNRESTRICTED_CONSTANT = "uconst"
CASES = (RESTRICTED_CONSTANT, UNRESTRICTED_CONSTANT)

MAX_TABLE_DIM = 6

# Trace and max-eigenvalue critical values for p - r = 1..6, transcribed
# from the standard published tables for the two supported deterministic
# cases and cross-validated by the Monte Carlo harness (synthetic module)
# to within +-10%.
TRACE_CRITICAL = {
    RESTRICTED_CONSTANT: {
        "90%": (7.52, 17.85, 32.00, 49.65, 71.86, 97.18),
        "95%": (9.24, 19.96, 34.91, 53.12, 76.07, 102.14),
        "99%": (12.97, 24.60, 41.07, 60.16, 84.45, 111.01),
    },
    UNRESTRICTED_CONSTANT: {
        "90%": (2.69, 13.33, 26.79, 43.95, 64.84, 89.48),
        "95%": (3.76, 15.41, 29.68, 47.21, 68.52, 94.15),
        "99%": (6.65, 20.04, 35.65, 54.46, 76.07, 103.18),
    },
}

MAXEIG_CRITICAL = {
    RESTRICTED_CONSTANT: {
        "90%": (7.52, 13.75, 19.77, 25.56, 31.66, 37.45),
        "95%": (9.24, 15.67, 22.00, 28.14, 34.40, 40.30),
        "99%": (12.97, 20.20, 26.81, 33.24, 39.79, 46.82),
    },
    UNRESTRICTED_CONSTANT: {
        "90%": (2.69, 12.07, 18.60, 24.73, 30.90, 36.76),
        "95%": (3.76, 14.07, 20.97, 27.07, 33.46, 39.37),
        "99%": (6.65, 18.63, 25.52, 32.24, 38.77, 45.10),
    },
}

_LEVEL_KEY = {0.10: "90%", 0.05: "95%", 0.01: "99%"}


@dataclass(frozen=True)
class MomentMatrices:
    """T-normalized residual cross-products from the concentration step."""

    S00: np.ndarray
    S01: np.ndarray
    S11: np.ndarray
    T_eff: int
    R0: np.ndarray
    R1: np.ndarray
    p: int
    case: str
    vars: tuple[str, ...]


def moments_from_residuals(R0: np.ndarray, R1: np.ndarray, T_eff: int,
                           case: str = RESTRICTED_CONSTANT,
                           vars: tuple[str, ...] = ()) -> MomentMatrices:
    """Assemble S00, S01, S11 from concentrated residual matrices."""
    R0 = np.asarray(R0, dtype=float)
    R1 = np.asarray(R1, dtype=float)
    return MomentMatrices(
        S00=R0.T @ R0 / T_eff,
        S01=R0.T @ R1 / T_eff,
        S11=R1.T @ R1 / T_eff,
        T_eff=T_eff,
        R0=R0,
        R1=R1,
        p=R0.shape[1],
        case=case,
        vars=vars or tuple(f"y{i}" for i in range(R0.shape[1])),
    )


def concentrate(data, vars=None, k: int = 1, case: str = RESTRICTED_CONSTANT) -> MomentMatrices:
    """Project out short-run dynamics and form the moment matrices.

    R0: residuals of dz_t on the k-1 lagged differences (plus an
    unrestricted constant under ``uconst``); R1: residuals of the lagged
    level term (augmented with a ones column under ``rconst``) on the same
    regressors. With no short-run regressors the projection is the identity.
    """
    if case not in CASES:
        raise ValidationError(f"case must be one of {CASES}, got {case!r}")
    if k < 1:
        raise ValidationError(f"lag order must be >= 1, got {k}")
    z, names = level_matrix(data, vars)
    T, p = z.shape
    T_eff = T - k
    n_short = p * (k - 1) + (1 if case == UNRESTRICTED_CONSTANT else 0)
    p_aug = p + (1 if case == RESTRICTED_CONSTANT else 0)
    if T_eff <= n_short + p_aug + 1:
        raise ValidationError(
            f"insufficient sample: T_eff={T_eff} with {n_short} short-run "
            f"regressors and {p_aug} level terms"
        )

    dz = np.diff(z, axis=0)
    rows = np.arange(k, T)  # observation times t = k+1..T, 0-based t index
    D0 = dz[rows - 1]  # dz_t
    lvl = z[rows - 1]  # z_{t-1}
    if case == RESTRICTED_CONSTANT:
        lvl = np.column_stack([lvl, np.ones(T_eff)])

    blocks = []
    for i in range(1, k):
        blocks.append(dz[rows - 1 - i])
    if case == UNRESTRICTED_CONSTANT:
        blocks.append(np.ones((T_eff, 1)))

    if blocks:
        X = np.column_stack(blocks)
        fit0 = ols_fit(X, D0)
        fit1 = ols_fit(X, lvl)
        R0, R1 = fit0.residuals, fit1.residuals
    else:
        R0, R1 = D0, lvl
    return moments_from_residuals(R0, R1, T_eff, case=case, vars=names)


def solve_cointegration_eigenproblem(m: MomentMatrices) -> tuple[np.ndarray, np.ndarray]:
    """Solve |lambda*S11 - S10 S00^-1 S01| = 0 by whitening with Cholesky factors.

    Returns eigenvalues (descending, clipped to [0, 1)) and the
    back-transformed beta candidates, each column scaled so its first
    nonzero coordinate is +1.
    """
    try:
        L1 = cholesky_factor(m.S11)
        L0 = cholesky_factor(m.S00)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(f"degenerate moment matrix: {exc}") from exc
    # G = L0^-1 S01 L1^-T, M = G'G shares eigenvalues with S11^-1 S10 S00^-1 S01
    G = solve_lower(L0, m.S01)
    G = solve_lower(L1, G.T).T
    lam, W = symmetric_eigendecomposition(G.T @ G)
    if lam.size and lam[0] >= 1.0 - 1e-12:
        raise NumericalError(
            "canonical correlation indistinguishable from 1; the level and "
            "difference spaces share an exact linear combination"
        )
    lam = np.clip(lam, 0.0, None)
    beta = solve_upper(L1.T, W)
    for j in range(beta.shape[1]):
        col = beta[:, j]
        nz = np.nonzero(np.abs(col) > 1e-10 * max(np.abs(col).max(), 1e-300))[0]
        if nz.size:
            beta[:, j] = col / col[nz[0]]
    return lam, beta


@dataclass(frozen=True)
class RankTestResult:
    eigenvalues: np.ndarray
    trace_stats: np.ndarray
    maxeig_stats: np.ndarray
    critical_values_5pct: np.ndarray
    maxeig_critical_values_5pct: np.ndarray
    selected_rank: int
    deterministic_case: str
    level: float
    T_eff: int
    p: int


def rank_test(m: MomentMatrices, case: str | None = None, level: float = 0.05) -> RankTestResult:
    """Trace/max-eigenvalue statistics over r = 0..p-1 and the selected rank.

    Selection uses the trace statistic: the smallest r that fails to reject
    at the requested level. If every null rejects the system looks
    stationary in levels and the selected rank is p.
    """
    case = case or m.case
    if case not in CASES:
        raise ValidationError(f"case must be one of {CASES}, got {case!r}")
    if level not in _LEVEL_KEY:
        raise ValidationError(f"level must be one of {sorted(_LEVEL_KEY)}, got {level}")
    p = m.p
    if p > MAX_TABLE_DIM:
        raise ValidationError(
            f"critical values tabulated up to dimension {MAX_TABLE_DIM}, got p={p}"
        )
    lam_all, _ = solve_cointegration_eigenproblem(m)
    lam = lam_all[:p]
    trace, selected = _stacked_trace_test(lam[None], m.T_eff, p, case, _LEVEL_KEY[level])
    cv5 = np.array(TRACE_CRITICAL[case]["95%"][p - 1 :: -1])
    cv5_max = np.array(MAXEIG_CRITICAL[case]["95%"][p - 1 :: -1])
    return RankTestResult(
        eigenvalues=lam,
        trace_stats=trace[0],
        maxeig_stats=-m.T_eff * np.log1p(-lam),
        critical_values_5pct=cv5,
        maxeig_critical_values_5pct=cv5_max,
        selected_rank=int(selected[0]),
        deterministic_case=case,
        level=level,
        T_eff=m.T_eff,
        p=p,
    )


def _stacked_concentrate(z: np.ndarray, k: int, case: str):
    """concentrate for each series of an (n, T, p) stack of levels, in one pass.

    Returns (W, X, S00, S01, S11): W (n, T_eff, p + p_aug) holds the
    regressand dz_t in its first p columns and the level term (z_{t-1},
    and a ones column under rconst) in the rest, X the short-run
    regressors (None when there are none), and the S are the T-normalized
    concentrated moments: blocks of one cross product of the joint
    residuals. Returns None where a check of concentrate's could fail:
    case, lag order, sample size, finite data or the pivots of the
    short-run regression.
    """
    n, T, p = z.shape
    T_eff = T - k
    n_short = p * (k - 1) + (case == UNRESTRICTED_CONSTANT)
    p_aug = p + (case == RESTRICTED_CONSTANT)
    if (case not in CASES or k < 1 or p < 1 or T_eff <= n_short + p_aug + 1
            or not np.isfinite(z).all()):
        return None
    # built time-last, so elementwise work runs along the long axis; W and
    # X are the time-first views of these buffers
    zt = z.swapaxes(1, 2)
    Wt = np.empty((n, p + p_aug, T_eff))
    np.subtract(zt[:, :, k:], zt[:, :, k - 1 : -1], out=Wt[:, :p])
    Wt[:, p : 2 * p] = zt[:, :, k - 1 : -1]
    Wt[:, 2 * p :] = 1.0
    W = R = Wt.swapaxes(1, 2)
    X = None
    if n_short:
        Xt = np.empty((n, n_short, T_eff))
        for i in range(1, k):
            np.subtract(zt[:, :, k - i : T - i], zt[:, :, k - 1 - i : T - 1 - i],
                        out=Xt[:, (i - 1) * p : i * p])
        Xt[:, p * (k - 1) :] = 1.0
        X = Xt.swapaxes(1, 2)
        fit = _stacked_ols(X, W)
        if fit is None:
            return None
        R = fit[1]
    S = R.swapaxes(1, 2) @ R
    S /= T_eff
    return W, X, S[:, :p, :p], S[:, :p, p:], S[:, p:, p:]


def _stacked_eigenproblem(S00: np.ndarray, S01: np.ndarray, S11: np.ndarray,
                          vectors: bool = False):
    """solve_cointegration_eigenproblem for stacked moment matrices, in one pass.

    Returns the eigenvalues (n, p_aug), descending and clipped at 0, and
    with ``vectors`` the beta candidates (n, p_aug, p_aug) scaled as the
    scalar path scales them (None without). Returns None where one of its
    checks could fail: symmetry within SYMMETRY_RTOL, the Cholesky pivots,
    lambda_1 < 1 - 1e-12, a nonzero coordinate in every candidate.
    """

    def symmetric(S):
        scale = np.maximum(np.abs(S).max(axis=(1, 2)), 1.0)
        return np.abs(S - S.swapaxes(1, 2)).max(axis=(1, 2)) <= SYMMETRY_RTOL * scale

    try:
        L1 = np.linalg.cholesky(S11)
        L0 = np.linalg.cholesky(S00)
        G = np.linalg.solve(L0, S01)
        G = np.linalg.solve(L1, G.swapaxes(1, 2)).swapaxes(1, 2)
        M = G.swapaxes(1, 2) @ G
        if vectors:
            lam, W = np.linalg.eigh(M)  # ascending
        else:
            lam, W = np.linalg.eigvalsh(M), None
    except np.linalg.LinAlgError:
        return None
    if not (symmetric(S11) & symmetric(S00) & symmetric(M) & _pivots_clear(S11, L1)
            & _pivots_clear(S00, L0) & (lam[:, -1] < 1.0 - 1e-12)).all():
        return None
    lam = np.clip(lam[:, ::-1], 0.0, None)
    if W is None:
        return lam, None
    beta = np.linalg.solve(L1.swapaxes(1, 2), W[:, :, ::-1])
    size = np.abs(beta)
    nonzero = size > 1e-10 * np.maximum(size.max(axis=1, keepdims=True), 1e-300)
    if not nonzero.any(axis=1).all():
        return None
    first = np.take_along_axis(beta, nonzero.argmax(axis=1)[:, None, :], axis=1)
    return lam, beta / first


def _stacked_trace_test(lam: np.ndarray, T_eff: int, p: int, case: str,
                        key: str = "95%"):
    """Trace statistics (n, p) for r = 0..p-1 and selected ranks (n,) from
    stacked descending eigenvalues (n, >= p).

    The statistic for r sums log(1 - lambda) over the p - r smallest
    eigenvalues, smallest first; the selected rank is the smallest r whose
    statistic falls below the ``key`` critical value for p - r, or p when
    every null rejects.
    """
    log1m = np.log1p(-lam[:, :p])
    trace = -T_eff * np.cumsum(log1m[:, ::-1], axis=1)[:, ::-1]
    below = trace < np.array(TRACE_CRITICAL[case][key][p - 1 :: -1])
    return trace, np.where(below.any(axis=1), below.argmax(axis=1), p)


def _stacked_rank_test(z: np.ndarray, k: int, case: str, vectors: bool = False):
    """concentrate and rank_test for each series of an (n, T, p) stack of
    levels, in one pass.

    Returns (W, X, S11, eigenvalues, candidates, trace, ranks): the
    regressand and short-run regressors and the level moments of
    _stacked_concentrate, the eigenvalues and (with ``vectors``) the beta
    candidates of _stacked_eigenproblem, and the trace statistics and
    selected ranks of _stacked_trace_test; the estimators reuse them.
    Returns None where a check of the scalar path could fail.
    """
    n, T, p = z.shape
    if p > MAX_TABLE_DIM:
        return None
    moments = _stacked_concentrate(z, k, case)
    if moments is None:
        return None
    W, X, S00, S01, S11 = moments
    eig = _stacked_eigenproblem(S00, S01, S11, vectors=vectors)
    if eig is None:
        return None
    lam, candidates = eig
    trace, ranks = _stacked_trace_test(lam, T - k, p, case)
    return W, X, S11, lam, candidates, trace, ranks


def _rank0_trace_stats(z: np.ndarray, case: str) -> np.ndarray:
    """Rank-0 trace statistics of a stack of k=1 systems, one pass for all.

    ``z`` holds n level series as an (n, T, p) array; entry i of the result
    is ``rank_test(concentrate(z[i], k=1, case=case)).trace_stats[0]`` to
    rounding. Every check of the scalar path is made for the whole stack;
    if one fails, or LAPACK raises, the stack is re-run through
    concentrate/rank_test one series at a time, which raises the scalar
    path's typed error.
    """
    # non-finite intermediates only mean a failed check; the scalar re-run
    # reports them
    with np.errstate(all="ignore"):
        ranked = _stacked_rank_test(z, 1, case)
    if ranked is None:
        return np.array([rank_test(concentrate(zi, k=1, case=case), case=case).trace_stats[0]
                         for zi in z])
    return ranked[5][:, 0]
