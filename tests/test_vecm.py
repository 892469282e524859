import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference
from velakit.errors import NonNormalizableError, ValidationError
from velakit.johansen import CASES, _stacked_rank_test, concentrate, rank_test
from velakit.lag_selection import information_criteria
from velakit.synthetic import (
    SyntheticSpec,
    generate_vecm_data,
    random_walk_spec,
    rng_for,
    study_spec,
    subspace_angle_deg,
)
from velakit.vecm import (
    VecmModel,
    _stacked_models,
    _stacked_phillips,
    companion_matrix,
    concentrated_loglik_from_eigenvalues,
    estimate_vecm,
    normalize_cointegrating_equation,
    predict_one_step,
    stability_check,
)


def make_model(alpha, beta, gamma=(), mu=None, case="rconst", vars=None, k=1, r=1,
               level_means=None):
    alpha = np.atleast_2d(np.asarray(alpha, float))
    if alpha.shape[0] == 1 and r == 1 and alpha.shape[1] > 1:
        alpha = alpha.T
    beta = np.asarray(beta, float)
    if beta.ndim == 1:
        beta = beta[:, None]
    p = alpha.shape[0]
    vars = vars or tuple(f"y{i}" for i in range(p))
    return VecmModel(
        vars=vars,
        k=k,
        r=r,
        case=case,
        alpha=alpha,
        beta=beta,
        gamma=tuple(np.asarray(g, float) for g in gamma),
        mu=np.zeros(p) if mu is None else np.asarray(mu, float),
        sigma=np.eye(p),
        loglik=0.0,
        aic=0.0,
        bic=0.0,
        beta_se=np.zeros_like(beta),
        beta_z=np.full_like(beta, np.nan),
        wald_chi2=0.0,
        wald_dof=0,
        eigenvalues=np.zeros(p),
        T_eff=100,
        n_params=0,
        level_means=np.zeros(p) if level_means is None else np.asarray(level_means, float),
    )


class TestEstimate:
    def test_conditional_on_true_beta_equals_ols(self):
        # alpha and Gamma given beta are exactly per-equation least squares
        spec = study_spec(T=300, seed=91)
        z = generate_vecm_data(spec)
        beta_aug = np.array([[1.0], [-2.0], [0.5], [0.0]])  # constant row zero
        model = estimate_vecm(z, k=2, r=1, case="rconst", beta=beta_aug)

        dz = np.diff(z, axis=0)
        rows = np.arange(2, 300)
        lvl = np.column_stack([z[rows - 1], np.ones(rows.size)])
        X = np.column_stack([lvl @ beta_aug, dz[rows - 2]])
        Y = dz[rows - 1]
        coef, *_ = np.linalg.lstsq(X, Y, rcond=None)
        assert np.abs(model.alpha[:, 0] - coef[0]).max() < 1e-8
        assert np.abs(model.gamma[0] - coef[1:4].T).max() < 1e-8

    def test_alpha_near_zero_for_random_walks(self):
        hits = 0
        reps = 100
        for rep in range(reps):
            z = generate_vecm_data(random_walk_spec(3, 500, seed=61), rep)
            model = estimate_vecm(z, k=1, r=1, case="rconst")
            hits += np.abs(model.alpha).max() < 0.1
        assert hits / reps >= 0.9

    def test_beta_recovery_median_angle(self):
        spec = study_spec(T=500, seed=17)
        angles = []
        for rep in range(60):
            z = generate_vecm_data(spec, rep)
            model = estimate_vecm(z, k=1, r=1, case="rconst")
            angles.append(subspace_angle_deg(model.beta_variables(), spec.beta_true))
        assert np.median(angles) < 5.0

    def test_rank_zero_directed_error(self):
        z = generate_vecm_data(study_spec(T=100, seed=1))
        with pytest.raises(ValidationError, match="VAR"):
            estimate_vecm(z, k=1, r=0)

    def test_full_rank_rejected(self):
        z = generate_vecm_data(study_spec(T=100, seed=1))
        with pytest.raises(ValidationError, match="rank"):
            estimate_vecm(z, k=1, r=3)

    def test_normalized_leading_coordinate(self):
        z = generate_vecm_data(study_spec(T=250, seed=5))
        model = estimate_vecm(z, k=2, r=1, case="rconst")
        assert model.beta[0, 0] == pytest.approx(1.0)
        assert model.gamma[0].shape == (3, 3)
        assert model.alpha.shape == (3, 1)

    def test_mu_zero_under_rconst(self):
        z = generate_vecm_data(study_spec(T=250, seed=6))
        model = estimate_vecm(z, k=1, r=1, case="rconst")
        assert model.mu == pytest.approx(np.zeros(3))

    def test_wald_dof(self):
        z = generate_vecm_data(study_spec(T=250, seed=7))
        rc = estimate_vecm(z, k=1, r=1, case="rconst")
        uc = estimate_vecm(z, k=1, r=1, case="uconst")
        assert rc.wald_dof == 3  # two variables + restricted constant
        assert uc.wald_dof == 2

    def test_nearly_singular_sigma_keeps_beta_inference(self):
        # innovations barely leave the cointegration space, so sigma is
        # nearly singular and alpha' sigma^-1 alpha rounds asymmetric
        # beyond tolerance; this replication used to raise ValidationError
        spec = SyntheticSpec(
            p=4, r=2, alpha_true=[[-0.3, 0.1], [0.1, -0.4], [0.2, 0.1], [0.0, 0.2]],
            beta_true=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [0.5, -1.0]],
            ec_noise_scale=1.5e-4, T=100, seed=0)
        model = estimate_vecm(generate_vecm_data(spec, 5), r=2)
        assert np.isfinite(model.beta_se).all()
        assert np.isfinite(model.wald_chi2)


class TestLikelihoodConsistency:
    @pytest.mark.parametrize("case", ["rconst", "uconst"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_eigenvalue_form(self, case, k):
        z = generate_vecm_data(study_spec(T=300, seed=23))
        model = estimate_vecm(z, k=k, r=1, case=case)
        implied = concentrated_loglik_from_eigenvalues(concentrate(z, k=k, case=case), 1)
        assert model.loglik == pytest.approx(implied, abs=1e-6)

    def test_criteria_shared_with_information_criteria(self):
        z = generate_vecm_data(study_spec(T=300, seed=24))
        model = estimate_vecm(z, k=2, r=1, case="rconst")
        fit = scalar_reference.conditional_fit(z, model.beta, k=2, case="rconst")
        ll, aic, bic, _ = information_criteria(fit, model.T_eff, model.n_params)
        assert model.loglik == pytest.approx(ll)
        assert model.aic == pytest.approx(aic)
        assert model.bic == pytest.approx(bic)


class TestNormalize:
    def test_reference_model_fixture(self):
        # four-variable fit shaped like the reported budget equations:
        # beta (sb, gpc, rd, md | const) = (1, -4.9, 4.6, -33.4 | 29.3)
        beta = np.array([1.0, -4.9, 4.6, -33.4, 29.3])
        model = make_model(
            alpha=np.array([[-0.1], [0.05], [0.02], [0.01]]),
            beta=beta,
            vars=("sb", "gpc", "rd", "md"),
            case="rconst",
        )
        eq = normalize_cointegrating_equation(model)
        assert eq.coefficients == pytest.approx(
            {"gpc": 4.9, "rd": -4.6, "md": 33.4, "ed": 0.0, "sd": 0.0}
        )
        assert eq.intercept == pytest.approx(-29.3)
        assert "ed" not in eq.z_scores and "sd" not in eq.z_scores

    def test_degenerate_all_zero(self):
        beta = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        model = make_model(
            alpha=np.zeros((6, 1)),
            beta=beta,
            vars=("sb", "gpc", "rd", "md", "ed", "sd"),
            case="rconst",
        )
        eq = normalize_cointegrating_equation(model)
        assert all(v == 0.0 for v in eq.coefficients.values())
        assert eq.intercept == 0.0

    def test_scaling_invariance(self):
        beta = np.array([2.0, -9.8, 9.2, -66.8, 58.6])
        model = make_model(
            alpha=np.array([[-0.1], [0.05], [0.02], [0.01]]),
            beta=beta,
            vars=("sb", "gpc", "rd", "md"),
            case="rconst",
        )
        eq = normalize_cointegrating_equation(model)
        assert eq.coefficients["gpc"] == pytest.approx(4.9)
        assert eq.intercept == pytest.approx(-29.3)

    def test_non_normalizable(self):
        beta = np.array([0.0, 1.0, -1.0, 0.5])
        model = make_model(
            alpha=np.array([[-0.1], [0.05], [0.02]]),
            beta=beta,
            vars=("sb", "gpc", "rd"),
            case="rconst",
        )
        with pytest.raises(NonNormalizableError):
            normalize_cointegrating_equation(model)

    def test_rank_two_rejected(self):
        model = make_model(
            alpha=np.array([[-0.1, 0.0], [0.05, 0.1], [0.0, -0.2]]),
            beta=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [0.5, 0.2]]),
            vars=("sb", "gpc", "rd"),
            case="rconst",
            r=2,
        )
        with pytest.raises(ValidationError, match="rank 1"):
            normalize_cointegrating_equation(model)

    def test_round_trip_reconstructs_beta(self):
        z = generate_vecm_data(study_spec(T=260, seed=3))
        model = estimate_vecm(z, k=1, r=1, case="rconst", vars=("sb", "gpc", "md"))
        eq = normalize_cointegrating_equation(model)
        rebuilt = np.array(
            [1.0, -eq.coefficients["gpc"], -eq.coefficients["md"], -eq.intercept]
        )
        ratio = rebuilt / model.beta[:, 0]
        assert np.nanmax(np.abs(ratio - ratio[0])) < 1e-10

    def test_uconst_intercept_from_sample_means(self):
        z = generate_vecm_data(study_spec(T=400, seed=8))
        model = estimate_vecm(z, k=1, r=1, case="uconst", vars=("sb", "gpc", "md"))
        eq = normalize_cointegrating_equation(model)
        means = z.mean(axis=0)
        expected = means[0] - eq.coefficients["gpc"] * means[1] - eq.coefficients["md"] * means[2]
        assert eq.intercept == pytest.approx(expected)


class TestStability:
    def test_stable_synthetic_model(self):
        sp = SyntheticSpec(
            p=2, r=1, alpha_true=[[-0.5], [0.25]], beta_true=[[1.0], [-1.0]],
            T=500, seed=3,
        )
        model = estimate_vecm(generate_vecm_data(sp), k=1, r=1, case="rconst")
        moduli, unit_count, stable = stability_check(model)
        assert unit_count == 1
        assert stable
        assert np.all(moduli[1:] < 1.0)

    def test_pure_random_walk_cast_is_unstable(self):
        model = make_model(
            alpha=np.zeros((3, 1)), beta=np.array([1.0, -1.0, 0.0, 0.0]), case="rconst"
        )
        moduli, unit_count, stable = stability_check(model)
        assert moduli == pytest.approx(np.ones(3))
        assert unit_count == 3
        assert not stable

    def test_companion_matches_var_recursion(self):
        # VECM with k=2 recast as a level VAR(2); simulate both, compare
        rng = rng_for(44, 0)
        alpha = np.array([[-0.3], [0.1]])
        beta = np.array([[1.0], [-1.0]])
        gamma = (np.array([[0.2, 0.0], [0.05, -0.1]]),)
        comp = companion_matrix(alpha, beta, gamma)
        z = rng.standard_normal((3, 2))
        pi = alpha @ beta.T
        dz_next = pi @ z[-1] + gamma[0] @ (z[-1] - z[-2])
        z_next = z[-1] + dz_next
        stacked = np.concatenate([z[-1], z[-2]])
        assert comp @ stacked == pytest.approx(np.concatenate([z_next, z[-1]]))


class TestPredict:
    def test_no_dynamics_returns_last_level(self):
        model = make_model(
            alpha=np.zeros((2, 1)), beta=np.array([0.0, 0.0, 0.0]), case="rconst"
        )
        z = predict_one_step(model, np.array([[1.0, 2.0]]))
        assert z == pytest.approx([1.0, 2.0])

    def test_pure_drift(self):
        model = make_model(
            alpha=np.zeros((2, 1)),
            beta=np.array([0.0, 0.0]),
            mu=np.array([0.5, -0.25]),
            case="uconst",
        )
        z = predict_one_step(model, np.array([[1.0, 2.0]]))
        assert z == pytest.approx([1.5, 1.75])

    def test_noiseless_self_consistency(self):
        spec = study_spec(T=40, seed=2, noise_scale=1.0)
        z = generate_vecm_data(spec)
        model = estimate_vecm(z, k=2, r=1, case="uconst")
        # independent oracle: run the error-correction recursion by hand from
        # the fitted parameters and check predict_one_step tracks it exactly
        pi = model.alpha @ model.beta.T
        path = [z[0].copy(), z[1].copy()]
        for _ in range(20):
            dz = pi @ path[-1] + model.gamma[0] @ (path[-1] - path[-2]) + model.mu
            path.append(path[-1] + dz)
        for i in range(20):
            pred = predict_one_step(model, np.vstack(path[i : i + 2]))
            assert pred == pytest.approx(path[i + 2], abs=1e-10)

    def test_insufficient_history(self):
        z = generate_vecm_data(study_spec(T=60, seed=2))
        model = estimate_vecm(z, k=2, r=1)
        with pytest.raises(ValidationError, match="history"):
            predict_one_step(model, z[-1])


class TestBlockPosition:
    """Member i of an n-stack is its n=1 call, bit for bit, wherever it sits."""

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(p=st.integers(2, 6), k=st.integers(1, 3), n=st.integers(1, 32),
           case=st.sampled_from(CASES), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_member_equals_its_n1_call(self, p, k, n, case, seed, data):
        i = data.draw(st.integers(0, n - 1), label="position")
        z = np.stack([np.cumsum(rng_for(seed, j).standard_normal((50, p)), axis=0)
                      for j in range(n)])

        # the rank test as the critical-value study and rank_test run it
        _, _, _, lam, _, trace, ranks, errors = _stacked_rank_test(z, k, case)
        want = rank_test(concentrate(z[i], k=k, case=case), case=case)
        assert i not in errors
        assert np.array_equal(lam[i, :p], want.eigenvalues)
        assert np.array_equal(trace[i], want.trace_stats)
        assert ranks[i] == want.selected_rank

        # the rank-1 fit as the specification search and estimate_vecm run it
        W, X, S11, lam, candidates, trace, ranks, errors = _stacked_rank_test(
            z, k, case, vectors=True)
        one = _stacked_rank_test(z[i : i + 1], k, case, vectors=True)
        assert np.array_equal(trace[i], one[5][0]) and ranks[i] == one[6][0]
        beta = _stacked_phillips(candidates, 1, errors)
        names = [tuple(f"y{j}" for j in range(p))] * n
        got = _stacked_models(z, names, k, 1, case, W, X, S11, lam, beta, errors)[i]
        model = estimate_vecm(z[i], k=k, r=1, case=case)
        for name in ("eigenvalues", "beta", "alpha", "sigma", "beta_se", "beta_z",
                     "wald_chi2", "loglik"):
            assert np.array_equal(getattr(got, name), getattr(model, name), equal_nan=True), name
