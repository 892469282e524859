"""Small tests of the benchmark's numpy oracle (no velakit involved).

    python3 perfbench/selftest_oracle.py
"""

import math
import unittest

import numpy as np

import oracle


class OracleTest(unittest.TestCase):
    def test_splitmix64_published_sequence(self):
        # first outputs of the reference splitmix64 generator seeded with 0
        state, outputs = 0, []
        for _ in range(3):
            outputs.append(oracle.splitmix64(state))
            state = (state + oracle.GOLDEN_GAMMA) & oracle.MASK64
        self.assertEqual(outputs, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F])

    def test_trace_statistics_by_hand(self):
        lam = [0.5, 0.1]
        trace = oracle.trace_statistics(lam, 10)
        self.assertAlmostEqual(trace[0], -10 * (math.log(0.5) + math.log(0.9)))
        self.assertAlmostEqual(trace[1], -10 * math.log(0.9))

    def test_selected_rank_against_table(self):
        self.assertEqual(oracle.selected_rank([25.0, 5.0]), 1)  # 25 > 19.96, 5 < 9.24
        self.assertEqual(oracle.selected_rank([19.0, 5.0]), 0)
        self.assertEqual(oracle.selected_rank([25.0, 10.0]), 2)
        self.assertFalse(oracle.decision_is_clear([19.96, 5.0]))

    def test_concentration_without_short_run_terms_is_identity(self):
        z = np.cumsum(np.random.default_rng(1).standard_normal((30, 2)), axis=0)
        R0, R1, T_eff = oracle.concentrate(z, 1)
        self.assertEqual(T_eff, 29)
        np.testing.assert_array_equal(R0, np.diff(z, axis=0))
        np.testing.assert_array_equal(R1, np.column_stack([z[:-1], np.ones(29)]))

    def test_concentrated_residuals_are_orthogonal_to_lags(self):
        z = np.cumsum(np.random.default_rng(2).standard_normal((60, 3)), axis=0)
        R0, R1, _ = oracle.concentrate(z, 3)
        dz = np.diff(z, axis=0)
        t = np.arange(3, 60)
        X = np.column_stack([dz[t - 2], dz[t - 3]])
        self.assertLess(np.abs(X.T @ R0).max(), 1e-9)
        self.assertLess(np.abs(X.T @ R1).max(), 1e-9)

    def test_eigenvalues_are_squared_canonical_correlations(self):
        z = np.cumsum(np.random.default_rng(3).standard_normal((80, 3)), axis=0)
        R0, R1, T_eff = oracle.concentrate(z, 1)
        q0, _ = np.linalg.qr(R0)
        q1, _ = np.linalg.qr(R1)
        canon = np.linalg.svd(q0.T @ q1, compute_uv=False)
        np.testing.assert_allclose(oracle.eigenvalues(R0, R1, T_eff), np.sort(canon**2)[::-1],
                                   rtol=1e-9, atol=1e-12)

    def test_eigenvalues_invariant_to_linear_transforms(self):
        z = np.cumsum(np.random.default_rng(4).standard_normal((70, 2)), axis=0)
        A = np.array([[2.0, 0.3], [-1.0, 0.5]])
        lam = oracle.eigenvalues(*oracle.concentrate(z, 2))
        lam_t = oracle.eigenvalues(*oracle.concentrate(z @ A, 2))
        np.testing.assert_allclose(lam, lam_t, rtol=1e-8)
        self.assertTrue(np.all((lam >= 0) & (lam < 1)))

    def test_adf_without_lags_is_the_simple_regression_t_ratio(self):
        y = np.cumsum(np.random.default_rng(5).standard_normal(40))
        x, dy = y[:-1], np.diff(y)
        sxx = ((x - x.mean()) ** 2).sum()
        g = ((x - x.mean()) * (dy - dy.mean())).sum() / sxx
        c = dy.mean() - g * x.mean()
        resid = dy - c - g * x
        se = math.sqrt(resid @ resid / (len(dy) - 2) / sxx)
        self.assertAlmostEqual(oracle.adf_statistic(y, 0), g / se, places=9)

    def test_recursion_without_error_correction_is_a_random_walk(self):
        T, seed = 20, 99
        z = oracle.generate_ecm(np.zeros((2, 1)), np.ones((2, 1)), T, seed, 3, noise_scale=0.5)
        eps = 0.5 * oracle.replication_rng(seed, 3).standard_normal((T + oracle.BURN_IN + 1, 2))
        np.testing.assert_allclose(z, np.cumsum(eps[1:], axis=0)[-T:], rtol=1e-12, atol=1e-12)

    def test_short_run_given_beta_recovers_alpha(self):
        alpha, beta = np.array([[-0.4], [0.2]]), np.array([[1.0], [-1.0]])
        z = oracle.generate_ecm(alpha, beta, 5000, 7, 0)
        est, gammas = oracle.short_run_given_beta(z, np.array([1.0, -1.0, 0.0]), 1)
        np.testing.assert_allclose(est, alpha, atol=0.05)
        self.assertEqual(gammas, [])

    def test_angle(self):
        self.assertAlmostEqual(oracle.angle_deg([1, 0], [0, 3]), 90.0)
        self.assertAlmostEqual(oracle.angle_deg([1, -2], [-2, 4]), 0.0)


if __name__ == "__main__":
    unittest.main()
