import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velakit.cli import main
from velakit.errors import SingularMatrixError, ValidationError
from velakit.panel import VARIABLES, interpolate_missing, load_panel, to_log_levels
from velakit.synthetic import rng_for
from velakit.unit_root import adf_test, critical_values, default_adf_lags

DEMO = Path(__file__).resolve().parents[1] / "sample_data" / "demo_panel.csv"


def hand_ols_t_ratio(y):
    """Closed-form t-ratio of the level coefficient in dy_t = c + g*y_{t-1},
    computed from scalar moments only (independent of the package kernels)."""
    y = np.asarray(y, dtype=float)
    dy = np.diff(y)
    x = y[:-1]
    n = dy.size
    sxx = np.sum((x - x.mean()) ** 2)
    g = np.sum((x - x.mean()) * (dy - dy.mean())) / sxx
    c = dy.mean() - g * x.mean()
    resid = dy - c - g * x
    s2 = np.sum(resid**2) / (n - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return g / np.sqrt(s2 / sxx)


def mp_t_ratio(mpmath, y, lags, trend):
    """The ADF t-ratio of adf_test's regression at 50 digits, through the
    normal equations: the float64 inputs (y and its float64 differences)
    are converted exactly, so only the 50-digit arithmetic rounds."""
    dy = np.diff(y)
    with mpmath.workdps(50):
        rows, resp = [], []
        for j in range(lags, len(dy)):  # dy[j] = y[j + 1] - y[j]
            row = [1] + ([j + 2] if trend else []) + list(dy[j - lags : j][::-1]) + [y[j]]
            rows.append([mpmath.mpf(float(v)) for v in row])
            resp.append(mpmath.mpf(float(dy[j])))
        X, Y = mpmath.matrix(rows), mpmath.matrix(resp)
        inverse = (X.T * X) ** -1
        b = inverse * (X.T * Y)
        e = Y - X * b
        m = X.cols
        s2 = sum(v**2 for v in e) / (X.rows - m)
        return float(b[m - 1] / mpmath.sqrt(s2 * inverse[m - 1, m - 1]))


class TestAdfStatistic:
    def test_matches_hand_ols(self):
        # noisy variant of the alternating fixture keeps the regression
        # well-conditioned so the two routes must agree to float precision
        base = np.array([1.0, 0.0] * 10)
        wiggle = 0.05 * np.sin(np.arange(20) * 0.7)
        y = base + wiggle
        res = adf_test(y, lags=0)
        assert res.statistic == pytest.approx(hand_ols_t_ratio(y), abs=1e-10)
        assert res.nobs == 19

    def test_alternating_series_degenerates_to_exact_fit(self):
        # [1,0,1,0,...]: the 19-row regression fits exactly, so both the
        # implementation and the hand computation blow up the same way
        y = np.array([1.0, 0.0] * 10)
        res = adf_test(y, lags=0)
        oracle = hand_ols_t_ratio(y)
        assert res.statistic < -1e6
        assert oracle < -1e6

    def test_linear_ramp_with_trend_is_singular(self):
        y = np.arange(1.0, 31.0)
        with pytest.raises(SingularMatrixError):
            adf_test(y, lags=0, deterministic="constant+trend")

    def test_constant_series_rejected(self):
        with pytest.raises(ValidationError, match="constant"):
            adf_test(np.ones(30), lags=0)

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError, match="too short"):
            adf_test(np.arange(12.0) ** 2, lags=3)

    def test_reject_flag_consistent_with_table(self):
        rng = rng_for(2024, 0)
        y = np.cumsum(rng.standard_normal(150))
        res = adf_test(y, lags=2)
        assert res.reject_unit_root_at_5pct == (res.statistic < res.critical_values["5%"])

    def test_lagged_terms_enter_regression(self):
        rng = rng_for(9, 0)
        e = rng.standard_normal(220)
        y = np.zeros(220)
        for t in range(1, 220):  # AR(1) on differences: augmentation matters
            y[t] = y[t - 1] + 0.6 * (y[t - 1] - y[t - 2] if t > 1 else 0.0) + e[t]
        r0 = adf_test(y, lags=0)
        r4 = adf_test(y, lags=4)
        assert r0.statistic != pytest.approx(r4.statistic)


class TestAdfProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_mean_reversion_gives_smaller_statistic(self, seed):
        rng = rng_for(500, seed)
        e = rng.standard_normal(200)
        walk = np.cumsum(e)
        rev = np.zeros(200)
        for t in range(1, 200):
            rev[t] = 0.2 * rev[t - 1] + e[t]
        s_rev = adf_test(rev, lags=0).statistic
        s_walk = adf_test(walk, lags=0).statistic
        assert s_rev < s_walk

    @pytest.mark.parametrize("seed", range(4))
    def test_shift_invariance_with_constant(self, seed):
        rng = rng_for(700, seed)
        y = np.cumsum(rng.standard_normal(120))
        a = adf_test(y, lags=1).statistic
        b = adf_test(y + 1000.0, lags=1).statistic
        assert a == pytest.approx(b, abs=1e-8)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(30, 90), lags=st.integers(0, 3),
           a=st.floats(1e-2, 1e2), b=st.floats(-100.0, 100.0),
           deterministic=st.sampled_from(["constant", "constant+trend"]))
    def test_affine_invariance(self, seed, T, lags, a, b, deterministic):
        # y -> a*y + b (a > 0) scales gamma and its standard error alike and
        # is absorbed by the constant. Rounding a*y + b perturbs the data by
        # eps * (|b| + a*|y|), which the regression amplifies: 6000 draws
        # measured at most 3.8e-11 relative (the former inv(X'X) route
        # 3.3e-8), so 1e-9 is the bound
        y = np.cumsum(rng_for(seed, 0).standard_normal(T))
        want = adf_test(y, lags=lags, deterministic=deterministic).statistic
        got = adf_test(a * y + b, lags=lags, deterministic=deterministic).statistic
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_size_at_desk_scale(self):
        # smaller companion to the full-size acceptance run
        rej = 0
        reps = 400
        for rep in range(reps):
            rng = rng_for(1234, rep)
            y = np.cumsum(rng.standard_normal(200))
            rej += adf_test(y, lags=0).reject_unit_root_at_5pct
        assert 0.015 <= rej / reps <= 0.10

    def test_embedded_5pct_value_against_monte_carlo(self):
        stats = []
        for rep in range(600):
            rng = rng_for(4321, rep)
            y = np.cumsum(rng.standard_normal(200))
            stats.append(adf_test(y, lags=0).statistic)
        empirical = np.percentile(stats, 5)
        table = critical_values("constant", 199)["5%"]
        assert abs(empirical - table) / abs(table) < 0.10


class TestAdfAgainstHighPrecision:
    @pytest.mark.parametrize("trend", [False, True])
    def test_demo_panel_statistics(self, capsys, trend):
        # every statistic `velakit adf` prints for the demo panel, levels and
        # differences, is within 1e-12 relative of the 50-digit t-ratio
        mpmath = pytest.importorskip("mpmath")
        argv = ["adf", "--input", str(DEMO), "--agency", "DEMO", "--format", "json"]
        assert main(argv + ["--trend"] * trend) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        logs = to_log_levels(interpolate_missing(load_panel(DEMO, "DEMO")))
        assert len(results) == 2 * len(VARIABLES)
        for name in VARIABLES:
            for key, y in ((name, logs.series[name]), (f"d.{name}", np.diff(logs.series[name]))):
                got = results[key]
                want = mp_t_ratio(mpmath, y, got["lags"], trend)
                assert abs(got["statistic"] - want) <= 1e-12 * abs(want), key


class TestCriticalValues:
    def test_nearest_row_lookup(self):
        assert critical_values("constant", 20)["5%"] == -3.00
        assert critical_values("constant", 60)["5%"] == -2.93
        assert critical_values("constant", 120)["5%"] == -2.89
        assert critical_values("constant", 10_000)["5%"] == -2.86

    def test_trend_case_is_further_left(self):
        for n in (25, 100, 500):
            assert critical_values("constant+trend", n)["5%"] < critical_values("constant", n)["5%"]

    def test_levels_ordered(self):
        cv = critical_values("constant", 100)
        assert cv["1%"] < cv["5%"] < cv["10%"]


class TestDefaultLags:
    def test_formula_at_100(self):
        assert default_adf_lags(100) == 12

    def test_small_sample(self):
        # 12 * (23/100)^0.25 = 8.31 -> 8, below the cap of T-10 = 13
        assert default_adf_lags(23) == 8

    def test_cap_binds(self):
        assert default_adf_lags(15) == 5  # schwert 7 capped to 15-10

    def test_below_floor_rejected(self):
        with pytest.raises(ValidationError):
            default_adf_lags(11)
