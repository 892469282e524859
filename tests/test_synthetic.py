import numpy as np
import pytest

from velakit.errors import ValidationError
from velakit.johansen import concentrate, rank_test
from velakit.synthetic import (
    SyntheticSpec,
    generate_vecm_data,
    monte_carlo_critical_values,
    random_walk_spec,
    replication_seed,
    rng_for,
    run_recovery_study,
    study_spec,
    subspace_angle_deg,
)
from velakit.unit_root import adf_test


class TestSpecValidation:
    def test_valid_rank_one(self):
        spec = study_spec()
        assert spec.p == 3 and spec.r == 1

    def test_explosive_rejected(self):
        with pytest.raises(ValidationError, match="unit circle|unit roots"):
            SyntheticSpec(p=2, r=1, alpha_true=[[0.5], [0.5]], beta_true=[[1.0], [-1.0]])

    def test_alpha_zero_with_positive_rank_rejected(self):
        # alpha = 0 leaves p unit roots, not p - r
        with pytest.raises(ValidationError):
            SyntheticSpec(p=2, r=1, alpha_true=[[0.0], [0.0]], beta_true=[[1.0], [-1.0]])

    def test_random_walk_spec_valid(self):
        spec = random_walk_spec(4, 100, seed=1)
        assert spec.r == 0


class TestGenerate:
    def test_deterministic_drift(self):
        spec = SyntheticSpec(
            p=2, r=0, alpha_true=np.zeros((2, 0)), beta_true=np.zeros((2, 0)),
            mu_true=[0.5, -0.2], noise_scale=0.0, T=10, seed=0,
        )
        z = generate_vecm_data(spec)
        diffs = np.diff(z, axis=0)
        assert diffs == pytest.approx(np.tile([0.5, -0.2], (9, 1)))

    def test_same_seed_identical(self):
        spec = study_spec(T=50, seed=123)
        assert generate_vecm_data(spec, 7) == pytest.approx(generate_vecm_data(spec, 7), abs=0.0)

    def test_different_reps_differ(self):
        spec = study_spec(T=50, seed=123)
        assert not np.allclose(generate_vecm_data(spec, 0), generate_vecm_data(spec, 1))

    def test_shape(self):
        z = generate_vecm_data(study_spec(T=64, seed=5))
        assert z.shape == (64, 3)

    def test_cointegrating_combination_is_stationary(self):
        spec = study_spec(T=400, seed=77)
        hits = 0
        reps = 200
        for rep in range(reps):
            combo = generate_vecm_data(spec, rep) @ spec.beta_true[:, 0]
            hits += adf_test(combo, lags=0).reject_unit_root_at_5pct
        assert hits / reps >= 0.9

    def test_seed_mixing_is_documented_rule(self):
        assert replication_seed(0, 0) != replication_seed(0, 1)
        assert replication_seed(5, 0) == replication_seed(5, 0)


class TestCriticalValueStudy:
    def test_percentiles_monotone(self):
        st = monte_carlo_critical_values(1, "rconst", reps=1000, T=400, seed=3)
        assert st.percentiles["90%"] < st.percentiles["95%"] < st.percentiles["99%"]

    def test_bootstrap_se_shrinks_with_reps(self):
        a = monte_carlo_critical_values(1, "rconst", reps=1000, T=400, seed=5)
        b = monte_carlo_critical_values(1, "rconst", reps=4000, T=400, seed=5)
        ratio = a.bootstrap_se["95%"] / b.bootstrap_se["95%"]
        assert 1.3 <= ratio <= 3.2  # ~2 expected for 4x the replications

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            monte_carlo_critical_values(1, "rconst", reps=500, T=400)
        with pytest.raises(ValidationError):
            monte_carlo_critical_values(1, "rconst", reps=1000, T=100)

    def test_reproducible(self):
        a = monte_carlo_critical_values(1, "uconst", reps=1000, T=400, seed=9)
        b = monte_carlo_critical_values(1, "uconst", reps=1000, T=400, seed=9)
        assert a.percentiles == b.percentiles

    @pytest.mark.filterwarnings("error")
    def test_single_bootstrap_resample_rejected(self):
        with pytest.raises(ValidationError, match="bootstrap must be >= 2"):
            monte_carlo_critical_values(1, "rconst", reps=1000, T=400, bootstrap=1)

    @pytest.mark.parametrize("p_minus_r", [0, 7])
    def test_dimension_outside_table_rejected(self, p_minus_r):
        with pytest.raises(ValidationError, match="p_minus_r"):
            monte_carlo_critical_values(p_minus_r, "rconst", reps=1000, T=400)


@pytest.fixture(scope="module")
def ragged_study():
    # 1001 replications and 45 resamples leave a partial last block in both loops
    return monte_carlo_critical_values(2, "uconst", reps=1001, T=400, seed=13,
                                       bootstrap=45, keep_statistics=True)


class TestBlockedCriticalValueStudy:
    def test_statistics_match_single_replication_runs(self, ragged_study):
        want = np.array([
            rank_test(concentrate(np.cumsum(rng_for(13, rep).standard_normal((400, 2)) + 1.0,
                                            axis=0), k=1, case="uconst")).trace_stats[0]
            for rep in range(1001)
        ])
        np.testing.assert_allclose(ragged_study.statistics, want, rtol=1e-10, atol=0.0)

    def test_percentiles_of_statistics(self, ragged_study):
        stats = ragged_study.statistics
        assert ragged_study.percentiles == {
            f"{q}%": float(np.percentile(stats, q)) for q in (90, 95, 99)
        }

    def test_bootstrap_matches_per_resample_loop(self, ragged_study):
        stats = ragged_study.statistics
        boot_rng = rng_for(13, 1001 + 1)
        boots = {q: np.empty(45) for q in (90, 95, 99)}
        for b in range(45):
            sample = stats[boot_rng.integers(0, 1001, size=1001)]
            for q in boots:
                boots[q][b] = np.percentile(sample, q)
        want = {f"{q}%": float(np.std(vals, ddof=1)) for q, vals in boots.items()}
        assert ragged_study.bootstrap_se == want


class TestRecoveryStudy:
    def test_strong_alpha_recovers_rank(self):
        st = run_recovery_study(study_spec(T=400, seed=21), reps=100)
        assert st.rank_accuracy >= 0.8

    def test_beta_angle_small(self):
        st = run_recovery_study(study_spec(T=500, seed=22), reps=100)
        assert st.beta_angle_median_deg < 5.0

    def test_near_noiseless_limit(self):
        # shrinking the disequilibrium innovation pins the long-run relation
        # almost exactly (spherical shrinkage would just rescale the data);
        # 1e-4 keeps the moment matrices inside float64 conditioning
        spec = SyntheticSpec(
            p=3, r=1,
            alpha_true=[[-0.4], [0.2], [0.1]],
            beta_true=[[1.0], [-2.0], [0.5]],
            noise_scale=1.0, ec_noise_scale=1e-4, T=100, seed=23,
        )
        st = run_recovery_study(spec, reps=100)
        assert st.beta_angle_median_deg < 0.1

    def test_requires_minimum_reps(self):
        with pytest.raises(ValidationError):
            run_recovery_study(study_spec(), reps=10)

    def test_angle_helper(self):
        a = np.array([[1.0], [0.0]])
        assert subspace_angle_deg(a, np.array([[0.0], [1.0]])) == pytest.approx(90.0)
        assert subspace_angle_deg(a, 5 * a) == pytest.approx(0.0, abs=1e-12)
        b = np.array([[1.0], [-2.0], [0.5]])
        assert subspace_angle_deg(b, b) == pytest.approx(0.0, abs=1e-12)
        assert subspace_angle_deg(b, 3 * b) == pytest.approx(0.0, abs=1e-12)

    def test_angle_helper_two_columns(self):
        c = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        mixed = c @ np.array([[2.0, 1.0], [-1.0, 3.0]])
        assert subspace_angle_deg(mixed, c) == pytest.approx(0.0, abs=1e-12)
        # rotating the second axis 30 degrees out of the plane
        tilted = np.array([[1.0, 0.0], [0.0, np.cos(np.pi / 6)], [0.0, np.sin(np.pi / 6)]])
        assert subspace_angle_deg(tilted, c) == pytest.approx(30.0, abs=1e-12)
        yz_plane = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert subspace_angle_deg(yz_plane, c) == pytest.approx(90.0, abs=1e-12)
