import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velakit.errors import NotPositiveDefiniteError, SingularMatrixError, ValidationError
from velakit.linalg import (
    _stacked_cholesky,
    _stacked_ols,
    as_matrix,
    cholesky_factor,
    general_eigenvalues,
    ols_fit,
    symmetric_eigendecomposition,
)


class TestOls:
    def test_intercept_only_is_the_mean(self):
        fit = ols_fit(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]))
        assert fit.coefficients[0, 0] == pytest.approx(2.0)

    def test_exact_fit_in_column_span(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) / np.sqrt(2)
        b = np.array([[2.0], [-3.0]])
        Y = X @ b
        fit = ols_fit(X, Y)
        assert np.abs(fit.residuals).max() < 1e-12
        assert fit.coefficients == pytest.approx(b)

    def test_duplicated_column_raises(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(10)
        X = np.column_stack([x, x])
        with pytest.raises(SingularMatrixError) as err:
            ols_fit(X, rng.standard_normal(10))
        assert err.value.column == 1

    @pytest.mark.parametrize("cols", [0, 2])
    def test_no_nonzero_regressor_raises(self, cols):
        with pytest.raises(SingularMatrixError, match="all regressors are zero") as err:
            ols_fit(np.zeros((6, cols)), np.ones(6))
        assert err.value.column == 0

    def test_residuals_orthogonal_to_regressors(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 4))
        Y = rng.standard_normal((40, 2))
        fit = ols_fit(X, Y)
        scale = np.abs(X).max() * np.abs(Y).max()
        assert np.abs(X.T @ fit.residuals).max() <= 1e-8 * scale

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_normal_equations_via_cholesky(self, seed):
        # independent oracle: solve X'X b = X'Y through the Cholesky factor
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((60, 5))
        Y = rng.standard_normal((60, 3))
        fit = ols_fit(X, Y)
        L = cholesky_factor(X.T @ X)
        b = np.linalg.solve(L.T, np.linalg.solve(L, X.T @ Y))
        assert np.abs(fit.coefficients - b).max() < 1e-8

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ols_fit(np.ones((5, 1)), np.ones((4, 1)))

    def test_nonfinite_rejected(self):
        X = np.ones((5, 1))
        X[2] = np.nan
        with pytest.raises(ValidationError):
            ols_fit(X, np.ones(5))

    def test_size_caps_name_the_cap_that_fired(self):
        # about 8 MB each; the checks run before any factorization
        tall = np.zeros((10**6 + 1, 1))
        with pytest.raises(ValidationError, match=r"rows capped at 1000000, got 1000001"):
            as_matrix(tall)
        with pytest.raises(ValidationError, match=r"X .*rows capped at 1000000"):
            _stacked_ols(tall[None], tall[None])
        with pytest.raises(ValidationError, match=r"cols capped at 64, got 65"):
            as_matrix(np.zeros((2, 65)))

    @pytest.mark.parametrize("rows, cols", [(41, 1), (41, 2), (5, 3)], ids=["1", "2", "short"])
    def test_stacked_fit_is_the_regression_product(self, rows, cols):
        # F'F is the residual Gram matrix; with rows < cols + 3 the factor
        # has rows - cols rows
        rng = np.random.default_rng(cols)
        X = rng.standard_normal((7, rows, cols))
        Y = rng.standard_normal((7, rows, 3))
        coef, F, _, errors = _stacked_ols(X, Y)
        assert errors == {}
        assert F.shape == (7, min(rows - cols, 3), 3)
        for i in range(7):
            fit = ols_fit(X[i], Y[i])
            assert np.abs(coef[i] - fit.coefficients).max() < 1e-12
            gram = (Y[i] - X[i] @ coef[i]).T @ (Y[i] - X[i] @ coef[i])
            assert np.abs(F[i].T @ F[i] - gram).max() <= 1e-12 * np.abs(gram).max()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4),
           st.integers(-1, 5))
    def test_pivots_are_the_diagonal_of_xs_qr(self, seed, cols, m, broken):
        # the pivots of [X | Y]'s factor are those of X's own QR to
        # rounding; a member with column ``broken`` a combination of the
        # columns before it fails at that column
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((3, 12, cols)) * rng.uniform(0.1, 10.0, cols)
        if 0 <= broken < cols:
            X[1, :, broken] = X[1, :, :broken] @ rng.standard_normal(broken)
        _, _, pivots, errors = _stacked_ols(X, rng.standard_normal((3, 12, m)))
        for i in (0, 2):
            want = np.abs(np.diagonal(np.linalg.qr(X[i], mode="r")))
            assert np.abs(pivots[i] - want).max() <= 1e-12 * want.max()
        if 0 <= broken < cols:
            assert list(errors) == [1]
            assert errors[1].column == broken
            assert ("all regressors are zero" if cols == 1
                    else f"rank deficient at column {broken} ") in str(errors[1])
        else:
            assert errors == {}

    @pytest.mark.parametrize("fault", ["duplicate", "zero"])
    def test_stacked_fit_reports_each_members_error(self, fault):
        # a zero column makes R exactly singular, so LAPACK's solve raises
        # for the whole stack; the members are then solved one by one
        rng = np.random.default_rng(9)
        X = rng.standard_normal((5, 30, 3))
        Y = rng.standard_normal((5, 30, 2))
        X[2, :, 1] = X[2, :, 0] if fault == "duplicate" else 0.0
        coef, _, _, errors = _stacked_ols(X, Y)
        with pytest.raises(SingularMatrixError) as want:
            ols_fit(X[2], Y[2])
        assert list(errors) == [2]
        assert str(errors[2]) == str(want.value) and errors[2].column == want.value.column
        for i in (0, 1, 3, 4):
            fit = ols_fit(X[i], Y[i])
            assert np.abs(coef[i] - fit.coefficients).max() < 1e-12


class TestCholesky:
    def test_identity(self):
        assert cholesky_factor(np.eye(3)) == pytest.approx(np.eye(3))

    def test_diagonal(self):
        L = cholesky_factor([[4.0, 0.0], [0.0, 9.0]])
        assert L == pytest.approx(np.diag([2.0, 3.0]))

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_factor([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            cholesky_factor([[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        S = A @ A.T + n * np.eye(n)
        L = cholesky_factor(S)
        assert np.tril(L) == pytest.approx(L)
        assert np.abs(L @ L.T - S).max() <= 1e-10 * np.abs(S).max()

    def test_fast_path_and_column_loop_agree_near_singularity(self):
        # Gram matrices whose column j is a combination of the others plus a
        # perturbation of relative size delta: pivot ratios near delta**2
        # straddle PIVOT_RTOL = 1e-10 from both sides
        def loop_failing_index(S):
            L = np.zeros_like(S)
            for j in range(len(S)):
                pivot = S[j, j] - L[j, :j] @ L[j, :j]
                if S[j, j] <= 0.0 or pivot <= 1e-10 * S[j, j]:
                    return j
                L[j, j] = np.sqrt(pivot)
                L[j + 1 :, j] = (S[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
            return None

        rng = np.random.default_rng(2024)
        outcomes = set()
        for delta in np.geomspace(1e-3, 1e-7, 41):
            n = int(rng.integers(2, 7))
            j = int(rng.integers(1, n))
            X = rng.standard_normal((50, n)) * rng.uniform(0.1, 10.0, n)
            X[:, j] = X[:, :j] @ rng.standard_normal(j) + delta * np.linalg.norm(X[:, 0]) \
                / np.sqrt(50) * rng.standard_normal(50)
            S = X.T @ X
            want = loop_failing_index(S)
            outcomes.add(want)
            if want is None:
                L = cholesky_factor(S)
                assert np.abs(L @ L.T - S).max() <= 1e-10 * np.abs(S).max()
            else:
                with pytest.raises(NotPositiveDefiniteError, match=f"at index {want}$"):
                    cholesky_factor(S)
        assert None in outcomes and len(outcomes) > 1  # both sides were reached


    def test_stacked_factors_judge_each_member(self):
        # member 1 is indefinite (LAPACK raises for the whole stack) and
        # member 3 singular to rounding (LAPACK factors it, with a pivot far
        # below PIVOT_RTOL); the others factor as cholesky_factor does
        rng = np.random.default_rng(3)
        A = rng.standard_normal((5, 4, 4))
        S = A @ A.swapaxes(1, 2) + np.eye(4)
        S[1] = [[1.0, 2.0, 0, 0], [2.0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]
        v = rng.standard_normal((4, 3))
        S[3] = v @ v.T + 1e-14 * np.eye(4)
        L, errors = _stacked_cholesky(S)
        assert sorted(errors) == [1, 3]
        for i in (1, 3):
            with pytest.raises(NotPositiveDefiniteError) as want:
                cholesky_factor(S[i])
            assert str(errors[i]) == str(want.value)
        for i in (0, 2, 4):
            assert np.array_equal(L[i], cholesky_factor(S[i]))


class TestSymmetricEigen:
    def test_diagonal(self):
        w, V = symmetric_eigendecomposition(np.diag([3.0, 1.0]))
        assert w == pytest.approx([3.0, 1.0])
        assert np.abs(np.abs(V) - np.eye(2)).max() < 1e-12

    def test_exchange_matrix(self):
        w, _ = symmetric_eigendecomposition([[0.0, 1.0], [1.0, 0.0]])
        assert w == pytest.approx([1.0, -1.0])

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_reconstruction_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        A = rng.standard_normal((n, n))
        S = (A + A.T) / 2
        w, V = symmetric_eigendecomposition(S)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.abs(V @ np.diag(w) @ V.T - S).max() <= 1e-8 * np.abs(S).max()
        assert np.abs(V.T @ V - np.eye(n)).max() < 1e-8


class TestGeneralEigenvalues:
    def test_scaled_identity(self):
        w = general_eigenvalues(0.5 * np.eye(2))
        assert w == pytest.approx([0.5, 0.5])

    def test_rotation_has_unit_modulus(self):
        w = general_eigenvalues([[0.0, -1.0], [1.0, 0.0]])
        assert np.abs(w) == pytest.approx([1.0, 1.0])
        assert sorted(np.round(w.imag, 12)) == pytest.approx([-1.0, 1.0])

    def test_companion_of_known_ar2(self):
        # roots 0.9 and 0.3: y_t = 1.2 y_{t-1} - 0.27 y_{t-2}
        comp = np.array([[1.2, -0.27], [1.0, 0.0]])
        w = general_eigenvalues(comp)
        assert np.abs(w) == pytest.approx([0.9, 0.3])

    def test_sorted_by_modulus(self):
        w = general_eigenvalues(np.diag([0.1, -3.0, 1.5]))
        assert np.abs(w) == pytest.approx([3.0, 1.5, 0.1])
