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
    PIVOT_RTOL,
    SYMMETRY_RTOL,
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
    log1m = np.log1p(-lam)
    trace = -m.T_eff * (np.cumsum(log1m[::-1])[::-1])
    maxeig = -m.T_eff * log1m

    key = _LEVEL_KEY[level]
    cv = np.array([TRACE_CRITICAL[case][key][p - r - 1] for r in range(p)])
    cv5 = np.array([TRACE_CRITICAL[case]["95%"][p - r - 1] for r in range(p)])
    cv5_max = np.array([MAXEIG_CRITICAL[case]["95%"][p - r - 1] for r in range(p)])

    selected = p
    for r in range(p):
        if trace[r] < cv[r]:
            selected = r
            break
    return RankTestResult(
        eigenvalues=lam,
        trace_stats=trace,
        maxeig_stats=maxeig,
        critical_values_5pct=cv5,
        maxeig_critical_values_5pct=cv5_max,
        selected_rank=selected,
        deterministic_case=case,
        level=level,
        T_eff=m.T_eff,
        p=p,
    )


def _rank0_trace_stats(z: np.ndarray, case: str) -> np.ndarray:
    """Rank-0 trace statistics of a stack of k=1 systems, one pass for all.

    ``z`` holds n level series as an (n, T, p) array; entry i of the result
    is ``rank_test(concentrate(z[i], k=1, case=case)).trace_stats[0]`` to
    rounding. The moments, Cholesky whitening and eigenvalues go through
    numpy's broadcasting matmul, cholesky, solve and eigvalsh. Every check
    of the scalar path is made for the whole stack; if one fails, or LAPACK
    raises, the stack is re-run through concentrate/rank_test one series
    at a time, which raises the scalar path's typed error.
    """
    n, T, p = z.shape
    T_eff = T - 1
    stats = None
    # non-finite intermediates only mean a failed check; the scalar re-run
    # reports them
    with np.errstate(all="ignore"):
        if case in CASES and 1 <= p <= MAX_TABLE_DIM and T_eff > p + 2 and np.isfinite(z).all():
            dz = np.diff(z, axis=1)
            lvl = z[:, :-1]
            # column sums as products with a ones vector: a strided sum over
            # axis 1 takes several times longer
            ones = np.ones(T_eff)
            if case == UNRESTRICTED_CONSTANT:
                dz -= (ones @ dz / T_eff)[:, None, :]
                lvl = lvl - (ones @ lvl / T_eff)[:, None, :]
                S11 = lvl.swapaxes(1, 2) @ lvl
                S01 = dz.swapaxes(1, 2) @ lvl
            else:
                # the restricted constant enters through Z'1 and dZ'1 blocks
                S11 = np.empty((n, p + 1, p + 1))
                S11[:, :p, :p] = lvl.swapaxes(1, 2) @ lvl
                S11[:, :p, p] = S11[:, p, :p] = ones @ lvl
                S11[:, p, p] = T_eff
                S01 = np.empty((n, p, p + 1))
                S01[:, :, :p] = dz.swapaxes(1, 2) @ lvl
                S01[:, :, p] = ones @ dz
            S00 = dz.swapaxes(1, 2) @ dz / T_eff
            S11 /= T_eff
            S01 /= T_eff

            def symmetric(S):
                scale = np.maximum(np.abs(S).max(axis=(1, 2)), 1.0)
                return np.abs(S - S.swapaxes(1, 2)).max(axis=(1, 2)) <= SYMMETRY_RTOL * scale

            def pivots_ok(S, L):
                d = np.diagonal(S, axis1=1, axis2=2)
                return ((d > 0) & (np.diagonal(L, axis1=1, axis2=2) ** 2 > PIVOT_RTOL * d)).all(axis=1)

            try:
                L1 = np.linalg.cholesky(S11)
                L0 = np.linalg.cholesky(S00)
                G = np.linalg.solve(L0, S01)
                G = np.linalg.solve(L1, G.swapaxes(1, 2)).swapaxes(1, 2)
                M = G.swapaxes(1, 2) @ G
                lam = np.linalg.eigvalsh(M)  # ascending
            except np.linalg.LinAlgError:
                lam = None
            if lam is not None and (
                symmetric(S11) & symmetric(S00) & symmetric(M)
                & pivots_ok(S11, L1) & pivots_ok(S00, L0) & (lam[:, -1] < 1.0 - 1e-12)
            ).all():
                # the p largest, summed smallest first as rank_test does
                stats = -T_eff * np.log1p(-np.clip(lam[:, -p:], 0.0, None)).sum(axis=1)
    if stats is None:
        stats = np.array([rank_test(concentrate(zi, k=1, case=case), case=case).trace_stats[0]
                          for zi in z])
    return stats
