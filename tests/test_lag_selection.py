import dataclasses
import math

import numpy as np
import pytest

from velakit import lag_selection
from velakit.errors import ValidationError
from velakit.lag_selection import fit_var, gaussian_criteria, select_lag
from velakit.synthetic import rng_for


def simulate_var1(A, T, seed, scale=1.0):
    rng = rng_for(seed, 0)
    p = A.shape[0]
    z = np.zeros((T + 50, p))
    e = rng.standard_normal((T + 50, p)) * scale
    for t in range(1, T + 50):
        z[t] = A @ z[t - 1] + e[t]
    return z[50:]


class TestFitVar:
    def test_recovers_ar1_slope(self):
        z = simulate_var1(np.array([[0.5]]), 500, seed=21)
        fit = fit_var(z, k=1)
        slope = fit.coefficients[1, 0]
        assert abs(slope - 0.5) < 0.1

    def test_exact_linear_system(self):
        A = np.array([[0.6, 0.2], [-0.1, 0.4]])
        rng = rng_for(8, 0)
        z = np.zeros((60, 2))
        z[0] = rng.standard_normal(2) + 5.0
        for t in range(1, 60):
            z[t] = A @ z[t - 1]
        fit = fit_var(z, k=1)
        assert np.abs(fit.coefficients[1:].T - A).max() < 1e-10
        assert np.abs(fit.residuals).max() < 1e-10

    def test_insufficient_sample(self):
        rng = rng_for(3, 0)
        z = rng.standard_normal((15, 5))
        with pytest.raises(ValidationError, match="insufficient sample"):
            fit_var(z, k=2)

    def test_sigma_uses_ml_normalization(self):
        z = simulate_var1(np.array([[0.5]]), 200, seed=4)
        fit = fit_var(z, k=1)
        expected = fit.residuals.T @ fit.residuals / fit.T_eff
        assert fit.sigma_ml == pytest.approx(expected)


class TestInformationCriteria:
    """gaussian_criteria, and select_lag's scoring of its fits through it."""

    def test_aic_penalty_difference(self):
        # same covariance, n_params 10 vs 12, T=100: AIC gap is exactly 0.04
        resid = rng_for(11, 0).standard_normal((100, 2))
        sigma = (resid.T @ resid / 100)[None]
        _, aic10, _, _, _ = gaussian_criteria(sigma, 100, 10)
        _, aic12, _, _, _ = gaussian_criteria(sigma, 100, 12)
        assert aic12[0] - aic10[0] == pytest.approx(0.04)

    def test_loglik_identity_covariance(self):
        # Sigma_ml = I (p=2): loglik = -T (ln 2pi + 1)
        T = 100
        ll, _, _, _, errors = gaussian_criteria(np.eye(2)[None], T, 0)
        assert errors == {}
        assert ll[0] == pytest.approx(-T * (math.log(2 * math.pi) + 1.0))

    def test_singular_member_flagged(self):
        # a rank-one member gets its error; its neighbours are scored alone
        sigma = np.stack([np.eye(2), np.ones((2, 2)), 2 * np.eye(2)])
        ll, *_, errors = gaussian_criteria(sigma, 50, 2)
        assert list(errors) == [1]
        assert isinstance(errors[1], ValidationError)
        assert "singular" in str(errors[1])
        for i in (0, 2):
            assert ll[i] == gaussian_criteria(sigma[i : i + 1], 50, 2)[0][0]

    def test_select_lag_scores_each_fits_ml_covariance(self):
        # each row is gaussian_criteria of its VAR(k) on the common sample
        z = simulate_var1(np.array([[0.7, 0.0], [0.2, 0.5]]), 120, seed=12)
        table = select_lag(z, k_max=3)
        for row in table.rows:
            fit = fit_var(z[3 - row["k"] :], k=row["k"])
            ll, aic, bic, hqic, _ = gaussian_criteria(fit.sigma_ml[None], fit.T_eff,
                                                      fit.n_params)
            assert (row["loglik"], row["aic"], row["bic"], row["hqic"]) == (
                ll[0], aic[0], bic[0], hqic[0])

    def test_singular_covariance_rejected(self, monkeypatch):
        # a fit whose residual covariance is rank one cannot be scored
        real = lag_selection.fit_var

        def rank_one(data, vars=None, k=1):
            fit = real(data, vars, k)
            return dataclasses.replace(fit, sigma_ml=np.ones_like(fit.sigma_ml))

        monkeypatch.setattr(lag_selection, "fit_var", rank_one)
        z = simulate_var1(np.array([[0.5, 0.0], [0.0, 0.5]]), 60, seed=13)
        with pytest.raises(ValidationError, match="residual covariance is singular"):
            select_lag(z, k_max=2)


class TestSelectLag:
    def test_single_candidate(self, log_panel):
        table = select_lag(log_panel, ("sb", "gpc"), k_max=1)
        assert table.chosen_lag == {"aic": 1, "bic": 1, "hqic": 1}

    def test_var1_truth_chosen(self):
        hits_aic = hits_bic = 0
        reps = 200
        A = np.array([[0.6, 0.1], [0.0, 0.4]])
        for rep in range(reps):
            z = simulate_var1(A, 400, seed=1000 + rep)
            table = select_lag(z, k_max=3)
            hits_aic += table.chosen_lag["aic"] == 1
            hits_bic += table.chosen_lag["bic"] == 1
        assert hits_aic / reps >= 0.90
        assert hits_bic / reps >= 0.90

    def test_var2_truth_chosen_by_aic(self):
        reps = 200
        hits = 0
        A1 = np.array([[0.3, 0.0], [0.0, 0.25]])
        A2 = np.array([[0.45, 0.1], [0.05, 0.5]])
        for rep in range(reps):
            rng = rng_for(9000 + rep, 0)
            z = np.zeros((450, 2))
            e = rng.standard_normal((450, 2))
            for t in range(2, 450):
                z[t] = A1 @ z[t - 1] + A2 @ z[t - 2] + e[t]
            table = select_lag(z[50:], k_max=3)
            hits += table.chosen_lag["aic"] == 2
        assert hits / reps >= 0.80

    def test_loglik_nondecreasing_in_k(self):
        z = simulate_var1(np.array([[0.7, 0.0], [0.2, 0.5]]), 300, seed=42)
        table = select_lag(z, k_max=4)
        lls = [row["loglik"] for row in table.rows]
        assert all(b >= a - 1e-8 for a, b in zip(lls, lls[1:]))

    def test_common_sample_size(self):
        z = simulate_var1(np.array([[0.5]]), 100, seed=1)
        table = select_lag(z, k_max=4)
        assert table.sample_size == 96

    def test_bic_never_picks_larger_than_aic(self):
        for rep in range(20):
            z = simulate_var1(np.array([[0.8, 0.1], [0.0, 0.6]]), 250, seed=300 + rep)
            table = select_lag(z, k_max=4)
            assert table.chosen_lag["bic"] <= table.chosen_lag["aic"]

    def test_tie_breaks_to_smaller_k(self):
        from velakit.lag_selection import argmin_with_ties

        assert argmin_with_ties([1.0, 1.0, 1.0]) == 0
        assert argmin_with_ties([2.0, 1.0, 1.0 + 1e-13]) == 1
        assert argmin_with_ties([2.0, 1.0 + 1e-13, 1.0]) == 1  # within 1e-12
        assert argmin_with_ties([2.0, 1.1, 1.0]) == 2

    def test_annotated_error_includes_lag(self):
        rng = rng_for(5, 1)
        z = rng.standard_normal((14, 3))
        with pytest.raises(ValidationError, match="k_max=3 exceeds 2, the longest lag"):
            select_lag(z, k_max=3)
