import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mp_reference
import scalar_reference
from velakit.errors import NonNormalizableError, ValidationError, VelakitError
from velakit.johansen import CASES, _uncentred, concentrate, rank_test
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
    _stacked_equations,
    _stacked_fit,
    _stacked_models,
    _stacked_phillips,
    companion_matrix,
    estimate_vecm,
    normalize_cointegrating_equation,
    stability_check,
)

from conftest import stacked_rank_test, synthetic_log_panel


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
    def test_conditional_on_estimated_beta_equals_ols(self):
        # alpha and Gamma given beta are exactly per-equation least squares
        # (Frisch-Waugh-Lovell, which holds at any beta)
        spec = study_spec(T=300, seed=91)
        z = generate_vecm_data(spec)
        model = estimate_vecm(z, k=2, r=1, case="rconst")
        beta_aug = model.beta

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


def mp_conditional_fit(mpmath, z, beta, k, case):
    """alpha' (first row), the short-run rows and sigma of the OLS of dz_t on
    (beta'z*_{t-1}, lagged dz, a ones column under uconst) at 40 digits,
    through the normal equations. The float64 levels and beta are converted
    exactly and differenced in 40 digits, so only that arithmetic rounds."""
    T, p = z.shape
    with mpmath.workdps(40):
        levels = [[mpmath.mpf(float(v)) for v in row] for row in z]
        b = [mpmath.mpf(float(v)) for v in beta[:, 0]]
        dz = [[levels[t][j] - levels[t - 1][j] for j in range(p)] for t in range(1, T)]
        rows, resp = [], []
        for t in range(k, T):  # dz[t - 1] = z[t] - z[t - 1]
            level = levels[t - 1] + [1] * (case == "rconst")
            row = [sum(bi * li for bi, li in zip(b, level))]
            for i in range(1, k):
                row += dz[t - 1 - i]
            rows.append(row + [1] * (case == "uconst"))
            resp.append(dz[t - 1])
        X, Y = mpmath.matrix(rows), mpmath.matrix(resp)
        coef = (X.T * X) ** -1 * (X.T * Y)
        E = Y - X * coef
        sigma = E.T * E / (T - k)
        return (np.array(coef.tolist(), dtype=float), np.array(sigma.tolist(), dtype=float))


class TestConditionalFitAgainstHighPrecision:
    """alpha, sigma, Gamma and mu at the estimated beta, from the
    concentration's residuals and coefficients, against the 40-digit
    regression on that beta."""

    @pytest.mark.parametrize("subset, k, case", [
        # the six-variable rconst spec whose S11 is worst conditioned (2.3e7)
        (("sb", "gpc", "rd", "md", "ed", "sd"), 2, "rconst"),
        (("sb", "gpc", "md", "ed"), 3, "uconst"),
    ])
    def test_fields_match(self, subset, k, case):
        mpmath = pytest.importorskip("mpmath")
        panel = synthetic_log_panel(T=60, seed=5)
        model = estimate_vecm(panel, subset, k=k, r=1, case=case)
        coef, sigma = mp_conditional_fit(mpmath, panel.matrix(subset), model.beta, k, case)
        fields = [(model.alpha.T, coef[:1]), (model.sigma, sigma)]
        if k > 1:
            gamma = np.vstack([g.T for g in model.gamma])
            fields.append((gamma, coef[1 : 1 + len(gamma)]))
        if case == "uconst":
            fields.append((model.mu, coef[-1]))
        for got, want in fields:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestBetaAgainstHighPrecision:
    @pytest.mark.parametrize("k", [2, 3])
    def test_six_variable_rconst_beta(self, k):
        # the worst-conditioned rconst spec of the test panels: levels near
        # 10 beside the ones column put cond(S11) at 2.3e7 uncentred, where
        # beta came out 7.5e-10 (k=2) and 1.5e-9 (k=3) from the 40-digit
        # eigenvector; from centred moments it measured 2.4e-13 and 4.7e-14
        pytest.importorskip("mpmath")
        panel = synthetic_log_panel(T=60, seed=5)
        subset = ("sb", "gpc", "rd", "md", "ed", "sd")
        _, beta, _, _ = mp_reference.johansen(panel.matrix(subset), k, "rconst", 40)
        want = np.array([float(v) for v in beta[0]])
        got = estimate_vecm(panel, subset, k=k, r=1, case="rconst").beta[:, 0]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestEquivariance:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(p=st.integers(2, 6), k=st.integers(1, 3), case=st.sampled_from(CASES),
           seed=st.integers(0, 2**32 - 1),
           spread=st.floats(1.0, 10.0, allow_subnormal=False))
    def test_beta_span_under_column_transform(self, p, k, case, seed, spread):
        # z -> z A for a nonsingular A: z A (A^-1 b) = z b, so the rank-1
        # beta of z A spans A^-1 times the variable rows of the beta of z
        # (the constant row under rconst unchanged). The levels carry one
        # cointegrating relation, so the leading eigenvalue is well
        # separated, and the tolerance is the conditioning bound of
        # test_eigenvalues_invariant_under_column_transform
        rng = rng_for(seed, 0)
        w = np.cumsum(rng.standard_normal((50, p)), axis=0)
        w[:, -1] = w[:, :-1].sum(axis=1) + 0.3 * rng.standard_normal(50)
        z = w * rng.uniform(0.01, 1.0, p) + rng.uniform(-10.0, 10.0, p)
        q1, _ = np.linalg.qr(rng.standard_normal((p, p)))
        q2, _ = np.linalg.qr(rng.standard_normal((p, p)))
        A = q1 @ np.diag(rng.uniform(1.0, spread, p)) @ q2
        want = estimate_vecm(z, k=k, r=1, case=case).beta[:, 0]
        want[:p] = np.linalg.solve(A, want[:p])
        got = estimate_vecm(z @ A, k=k, r=1, case=case).beta[:, 0]
        u, v = want / np.linalg.norm(want), got / np.linalg.norm(got)
        sin = np.linalg.norm(v - (v @ u) * u)
        cond = max(np.linalg.cond(concentrate(x, k=k, case=case).S11) for x in (z, z @ A))
        assert sin <= 1e-12 + 10 * np.finfo(float).eps * cond


    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(p=st.integers(2, 6), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_level_shift_moves_only_the_constant(self, p, k, seed):
        # z -> z + delta changes nothing under rconst but the constant row,
        # which moves by -b'delta. Log-panel-like levels (offsets up to 10,
        # mixed scales, one cointegrating relation) and shifts up to 10, on a
        # 2^-20 grid so that z + delta and its differences are exact and any
        # change comes from the estimator. The concentration centres the
        # levels, so the offsets do not enter the rounding, which grows with
        # the centred moments' cond(S11) (up to 4e7 here, from the mixed
        # scales): 1500 such draws measured at most 6.2 * eps * cond, where
        # the uncentred level term [z, 1] passed 100 * eps * cond in one
        # draw of ten and reached 6000 * eps * cond
        rng = rng_for(seed, 0)
        w = np.cumsum(rng.standard_normal((50, p)), axis=0)
        w[:, -1] = w[:, :-1].sum(axis=1) + 0.3 * rng.standard_normal(50)
        z = w * rng.uniform(0.01, 1.0, p) + rng.uniform(-10.0, 10.0, p)
        z, delta = (np.round(x * 2**20) / 2**20 for x in (z, rng.uniform(-10.0, 10.0, p)))
        assert np.array_equal(z + delta - delta, z)
        want = estimate_vecm(z, k=k, r=1, case="rconst")
        got = estimate_vecm(z + delta, k=k, r=1, case="rconst")
        cond = np.linalg.cond(concentrate(z - z.mean(axis=0), k=k, case="rconst").S11)
        tol = 1e-12 + 100 * np.finfo(float).eps * cond
        # the moved constant is a sum of terms up to |b|'|delta|, which sets
        # its scale
        constant = want.beta[p] - want.beta[:p].T @ delta
        terms = np.abs(want.beta[p]) + np.abs(want.beta[:p]).T @ np.abs(delta)
        assert np.abs(got.beta[p] - constant).max() <= tol * terms.max()
        fields = [(got.eigenvalues, want.eigenvalues), (got.beta[:p], want.beta[:p]),
                  (got.alpha, want.alpha), (got.sigma, want.sigma),
                  (got.beta_z[1:p], want.beta_z[1:p])]
        fields += list(zip(got.gamma, want.gamma, strict=True))
        for i, (g, w) in enumerate(fields):
            assert np.abs(g - w).max() <= tol * np.abs(w).max(), i


    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(shape=st.integers(3, 6).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p - 1))),
           k=st.integers(1, 3), delta=st.sampled_from([1e2, 1e4]),
           seed=st.integers(0, 2**32 - 1))
    @example(shape=(4, 3), k=1, delta=1e4, seed=0)
    def test_level_shift_leaves_normalization_alone(self, shape, k, delta, seed):
        # a change of units (B$ to M$) adds a constant to a log series, so
        # whether a fit normalizes must not depend on a level shift: z + delta
        # raises what z raises, or nothing, and moves beta's constant row by
        # -b'delta and nothing else. Random walks at any rank, where the
        # uncentred constant row reaches |b|'delta and, judged beside the
        # leading block, made r = p - 1 fail to normalize for every panel at
        # delta = 1e4. The levels sit on a 2^-20 grid, so z + delta is
        # exact; 3000 such draws moved a field by at most 1.8e-12 of its
        # scale
        p, r = shape
        z = np.round(generate_vecm_data(random_walk_spec(p, 60, seed), 0) * 2**20) / 2**20
        assert np.array_equal(z + delta - delta, z)
        fits = []
        for x in (z, z + delta):
            try:
                fits.append(estimate_vecm(x, k=k, r=r, case="rconst"))
            except VelakitError as exc:
                fits.append(type(exc))
        want, got = fits
        if isinstance(want, type) or isinstance(got, type):
            assert want is got
            return
        tol = 1e-10
        assert np.abs(got.eigenvalues - want.eigenvalues).max() <= tol * want.eigenvalues.max()
        b = want.beta[:p]
        assert np.abs(got.beta[:p] - b).max() <= tol * np.abs(b).max()
        # the moved constant sums terms up to |b|'delta, which set its scale
        moved = want.beta[p] - delta * b.sum(axis=0)
        terms = np.abs(want.beta[p]) + delta * np.abs(b).sum(axis=0)
        assert (np.abs(got.beta[p] - moved) <= tol * terms).all()


class TestLikelihoodConsistency:
    @pytest.mark.parametrize("case", ["rconst", "uconst"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_eigenvalue_form(self, case, k):
        z = generate_vecm_data(study_spec(T=300, seed=23))
        model = estimate_vecm(z, k=k, r=1, case=case)
        implied = scalar_reference.concentrated_loglik_from_eigenvalues(
            concentrate(z, k=k, case=case), 1)
        assert model.loglik == pytest.approx(implied, abs=1e-6)

    def test_criteria_shared_with_information_criteria(self):
        z = generate_vecm_data(study_spec(T=300, seed=24))
        model = estimate_vecm(z, k=2, r=1, case="rconst")
        fit = scalar_reference.conditional_fit(z, model.beta, k=2, case="rconst")
        ll, aic, bic, _ = scalar_reference.information_criteria(fit, model.T_eff,
                                                                model.n_params)
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

    @pytest.mark.parametrize("case", CASES)
    def test_stacked_members_are_their_n1_calls(self, case):
        # one stack of one case mixing lags, named and y* variables, a
        # dependent coefficient of 0 and a rank-2 model (all p=3): each
        # member gets exactly its n=1 call's equation, or its error, and the
        # one-model-at-a-time reference agrees
        z = generate_vecm_data(study_spec(T=260, seed=3))
        named = estimate_vecm(z, k=1, r=1, case=case, vars=("sb", "gpc", "md"))
        zero = make_model(alpha=np.array([[-0.1], [0.05], [0.02]]),
                          beta=np.array([0.0, 1.0, -1.0, 0.5][: 3 + (case == "rconst")]),
                          vars=("sb", "gpc", "rd"), case=case)
        lag2 = estimate_vecm(z, k=2, r=1, case=case, vars=("sb", "gpc", "md"))
        unnamed = estimate_vecm(z, k=3, r=1, case=case)
        rank2 = estimate_vecm(z, k=1, r=2, case=case, vars=("sb", "gpc", "md"))
        models = [named, zero, lag2, unnamed, rank2]
        if case == "rconst":
            # an rconst intercept does not need the level means a model may lack
            models.append(dataclasses.replace(named, level_means=None))
        errors = {}
        got = _stacked_equations(models, errors)
        assert sorted(errors) == [1, 4]
        for i, model in enumerate(models):
            try:
                want = normalize_cointegrating_equation(model)
            except VelakitError as exc:
                assert got[i] is None
                assert type(errors[i]) is type(exc) and str(errors[i]) == str(exc)
                with pytest.raises(type(exc), match="numerically zero|rank 1"):
                    scalar_reference.normalize_equation(model)
                continue
            assert got[i] == want == scalar_reference.normalize_equation(model)
            assert list(got[i].coefficients) == list(want.coefficients)
        assert type(errors[1]) is NonNormalizableError
        assert list(got[0].coefficients) == ["gpc", "rd", "md", "ed", "sd"]
        assert list(got[3].coefficients) == ["y1", "y2"]
        if case == "rconst":
            assert got[0].intercept_z is not None and got[2].intercept_z is not None
            assert got[5] == got[0]
        else:
            assert got[0].intercept_z is None and got[2].intercept_z is None

    def test_stacked_members_skip_recorded_errors(self):
        model = estimate_vecm(generate_vecm_data(study_spec(T=260, seed=3)), k=1, r=1)
        failed = ValidationError("failed upstream")
        errors = {1: failed}
        got = _stacked_equations([model, None, model], errors)
        assert got[1] is None and errors == {1: failed}
        assert got[0] == got[2] == normalize_cointegrating_equation(model)
        assert _stacked_equations([None], {0: failed}) == [None]


class TestMomentFit:
    """_stacked_fit reads only the concentrated moments, yet it is the
    regression of R0 on R1 beta (Frisch-Waugh-Lovell) on the residuals."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(p=st.integers(2, 6), k=st.integers(1, 4), case=st.sampled_from(CASES),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_residual_regression(self, p, k, case, seed, data):
        r = data.draw(st.integers(1, p - 1), label="rank")
        T = 50
        z = np.stack([np.cumsum(rng_for(seed, j).standard_normal((T, p)), axis=0)
                      for j in range(3)])
        _, (L, shift), _, candidates, _, _, errors = stacked_rank_test(z, k, case)
        beta = _stacked_phillips(candidates, r, errors)
        # a member whose leading block is singular has no normalized beta to fit at
        normalized = [i for i in range(3) if i not in errors]
        alpha_t, sigma = _stacked_fit(L, beta, errors)
        assert sorted(errors) == sorted({*range(3)} - {*normalized})
        reported = _uncentred(beta, shift)
        for i in normalized:
            # the uncentred residuals of the scalar reference, at the reported beta
            R0, R1 = scalar_reference.concentrated_residuals(z[i], k, case)
            X = R1 @ reported[i]
            coef = np.linalg.lstsq(X, R0, rcond=None)[0]
            resid = R0 - X @ coef
            for name, got, want in (("alpha'", alpha_t[i], coef),
                                    ("sigma", sigma[i], resid.T @ resid / (T - k))):
                assert got.shape == want.shape, name
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


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
        _, _, lam, _, trace, ranks, errors = stacked_rank_test(z, k, case, vectors=False)
        want = rank_test(concentrate(z[i], k=k, case=case))
        assert i not in errors
        assert np.array_equal(lam[i, :p], want.eigenvalues)
        assert np.array_equal(trace[i], want.trace_stats)
        assert ranks[i] == want.selected_rank

        # the rank-1 fit as the specification search and estimate_vecm run it
        B, moments, lam, candidates, trace, ranks, errors = stacked_rank_test(z, k, case)
        one = stacked_rank_test(z[i : i + 1], k, case)
        assert np.array_equal(trace[i], one[4][0]) and ranks[i] == one[5][0]
        beta = _stacked_phillips(candidates, 1, errors)
        names = [tuple(f"y{j}" for j in range(p))] * n
        got = _stacked_models(z, names, [k] * n, B, 1, case, *moments, lam, beta, errors)[i]
        model = estimate_vecm(z[i], k=k, r=1, case=case)
        for name in ("eigenvalues", "beta", "alpha", "sigma", "beta_se", "beta_z",
                     "wald_chi2", "loglik"):
            assert np.array_equal(getattr(got, name), getattr(model, name), equal_nan=True), name

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("ks", [(2, 1, 3, 1), (1,), (3, 3, 1, 2, 1)])
    def test_members_of_mixed_lags_equal_their_n1_calls(self, ks, r, case):
        # one call whose members differ in lag, in no lag order: each member
        # is its estimate_vecm, bit for bit, whatever lags sit beside it
        z = np.stack([np.cumsum(rng_for(77, j).standard_normal((50, 3)), axis=0)
                      for j in range(len(ks))])
        # each member's concentration and eigenproblem is its own n=1 call's
        parts = [stacked_rank_test(z[j : j + 1], k, case) for j, k in enumerate(ks)]
        B = [part[0][0] for part in parts]
        moments = [np.concatenate(m) for m in zip(*(part[1] for part in parts))]
        lam, candidates = (np.concatenate([part[i] for part in parts]) for i in (2, 3))
        errors = {}
        beta = _stacked_phillips(candidates, r, errors)
        names = [("a", "b", "c")] * len(ks)
        models = _stacked_models(z, names, list(ks), B, r, case, *moments, lam, beta, errors)
        assert errors == {}
        for j, (k, got) in enumerate(zip(ks, models)):
            want = estimate_vecm(z[j], ("a", "b", "c"), k=k, r=r, case=case)
            for name in ("eigenvalues", "alpha", "beta", "mu", "sigma", "beta_se", "beta_z",
                         "level_means", "wald_chi2", "loglik", "aic", "bic"):
                assert np.array_equal(getattr(got, name), getattr(want, name),
                                      equal_nan=True), f"{name} of member {j}"
            assert len(got.gamma) == k - 1
            assert all(np.array_equal(g, w) for g, w in zip(got.gamma, want.gamma))
            assert (got.k, got.T_eff, got.n_params, got.wald_dof) == (
                want.k, want.T_eff, want.n_params, want.wald_dof)
