"""Augmented Dickey-Fuller unit-root testing.

Regression: dy_t = c [+ b*t] + sum_i phi_i dy_{t-i} + gamma*y_{t-1} + e_t.
The test statistic is the t-ratio on gamma, compared left-tailed against
the embedded Dickey-Fuller table for the chosen deterministic case at the
nearest tabulated sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _integers
from .linalg import _stacked_ols

CONSTANT = "constant"
CONSTANT_TREND = "constant+trend"

_TABLE_SIZES = (25, 50, 100, 250, 500, math.inf)

# Dickey-Fuller t-ratio percentiles, finite-sample rows by regression
# sample size. Values validated against the Monte Carlo harness in the
# test suite (tests/test_unit_root.py).
_CRITICAL = {
    CONSTANT: {
        "1%": (-3.75, -3.58, -3.51, -3.46, -3.44, -3.43),
        "5%": (-3.00, -2.93, -2.89, -2.88, -2.87, -2.86),
        "10%": (-2.63, -2.60, -2.58, -2.57, -2.57, -2.57),
    },
    CONSTANT_TREND: {
        "1%": (-4.38, -4.15, -4.04, -3.99, -3.98, -3.96),
        "5%": (-3.60, -3.50, -3.45, -3.43, -3.42, -3.41),
        "10%": (-3.24, -3.18, -3.15, -3.13, -3.13, -3.12),
    },
}


@dataclass(frozen=True)
class AdfResult:
    statistic: float
    lags: int
    deterministic: str
    critical_values: dict[str, float]
    reject_unit_root_at_5pct: bool
    nobs: int


def critical_values(deterministic: str, nobs: int) -> dict[str, float]:
    """Embedded table row for the nearest tabulated sample size."""
    if deterministic not in _CRITICAL:
        raise ValidationError(
            f"deterministic must be '{CONSTANT}' or '{CONSTANT_TREND}', got {deterministic!r}"
        )
    distances = [abs(nobs - s) if s is not math.inf else math.inf for s in _TABLE_SIZES]
    # beyond the last finite row, fall through to the asymptotic column
    idx = int(np.argmin(distances)) if nobs <= 750 else len(_TABLE_SIZES) - 1
    return {level: _CRITICAL[deterministic][level][idx] for level in ("1%", "5%", "10%")}


MIN_YEARS_FOR_LAGS = 12


def default_adf_lags(T: int) -> int:
    """Schwert rule floor(12*(T/100)^0.25), capped so adf_test's length
    precondition T >= lags + 10 still holds."""
    (T,) = _integers(T=T)
    if T < MIN_YEARS_FOR_LAGS:
        raise ValidationError(f"series too short for lag rule (T={T}, need >= 12)")
    schwert = math.floor(12.0 * (T / 100.0) ** 0.25)
    return min(schwert, T - 10)


def adf_test(y, lags: int, deterministic: str = CONSTANT) -> AdfResult:
    """ADF t-test for a unit root in y; rejection is left-tailed at 5%.

    One R factor of [X | dy] gives gamma and its standard error: with
    y_{t-1} the last of X's m columns, se(gamma) = s / |R_mm|, s^2 = f^2 /
    (n - m) being the dof-normalized residual variance, f the factor's
    trailing entry.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValidationError(f"series must be 1-dimensional, got shape {y.shape}")
    T = y.size
    (lags,) = _integers(lags=lags)
    if lags < 0:
        raise ValidationError(f"lags must be non-negative, got {lags}")
    if T < lags + 10:
        raise ValidationError(f"series too short: T={T} < lags+10={lags + 10}")
    if not np.all(np.isfinite(y)):
        raise ValidationError("series contains non-finite values")
    if np.ptp(y) == 0.0:
        raise ValidationError("series is constant; unit-root test undefined")

    dy = np.diff(y)
    # rows t = lags+2 .. T in series time; one per regression observation
    resp = dy[lags:]
    n = resp.size
    crit = critical_values(deterministic, n)
    trend = [np.arange(lags + 2, T + 1, dtype=float)] if deterministic == CONSTANT_TREND else []
    lagged = [dy[lags - i : lags - i + n] for i in range(1, lags + 1)]
    X = np.column_stack([np.ones(n), *trend, *lagged, y[lags:-1]])

    coef, F, pivots, errors = _stacked_ols(X[None], resp[None, :, None])
    if errors:
        raise errors[0]
    # gamma's column is last, so the last diagonal of (X'X)^-1 = R^-1 R^-T
    # is 1 / R_mm^2
    se = abs(float(F[0, 0, 0])) / math.sqrt(n - X.shape[1]) / pivots[0, -1]
    with np.errstate(divide="ignore"):
        statistic = float(coef[0, -1, 0] / se)

    return AdfResult(
        statistic=statistic,
        lags=lags,
        deterministic=deterministic,
        critical_values=crit,
        reject_unit_root_at_5pct=bool(statistic < crit["5%"]),
        nobs=n,
    )
