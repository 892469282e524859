import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mp_reference
import scalar_reference
from velakit.errors import (NotPositiveDefiniteError, NumericalError, SingularMatrixError,
                            ValidationError, VelakitError)
from velakit.johansen import (
    CASES,
    MAXEIG_CRITICAL,
    TRACE_CRITICAL,
    MomentMatrices,
    _stacked_concentrate,
    _stacked_trace_test,
    concentrate,
    rank_test,
    solve_cointegration_eigenproblem,
)
from velakit.synthetic import (
    SyntheticSpec,
    generate_vecm_data,
    random_walk_spec,
    rng_for,
    study_spec,
)
from velakit.vecm import estimate_vecm

from conftest import stacked_rank_test


def make_moments(S00, S01, S11, T=100):
    """uconst moments built by hand: the factor of [[S11, S10], [S01, S00]]."""
    S00, S01, S11 = (np.asarray(S, dtype=float) for S in (S00, S01, S11))
    return MomentMatrices(L=np.linalg.cholesky(np.block([[S11, S01.T], [S01, S00]])),
                          T_eff=T, p=len(S00), case="uconst", vars=())


class TestConcentrate:
    def test_k1_rconst_is_unprojected(self):
        # with no short-run regressors the moments are the plain products of
        # dz_t and the centred level term [z_{t-1} - shift, 1], shift being
        # the mean of the level rows; levels far from zero, so centring matters
        rng = rng_for(1, 0)
        z = np.cumsum(rng.standard_normal((80, 2)), axis=0) + [10.0, -40.0]
        m = concentrate(z, k=1, case="rconst")
        assert np.abs(m.shift - z[:-1].mean(axis=0)).max() <= 1e-15 * 40.0
        dz = np.diff(z, axis=0)
        lvl = np.column_stack([z[:-1] - m.shift, np.ones(79)])
        for got, want in ((m.S00, dz.T @ dz / 79), (m.S01, dz.T @ lvl / 79),
                          (m.S11, lvl.T @ lvl / 79)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        # [z, 1] = [z - shift, 1] A maps the moments back to the uncentred ones
        A = np.eye(3)
        A[2, :2] = m.shift
        raw = np.column_stack([z[:-1], np.ones(79)])
        assert np.abs(A.T @ m.S11 @ A - raw.T @ raw / 79).max() <= 1e-14 * (raw.T @ raw / 79).max()
        assert np.abs(m.S01 @ A - dz.T @ raw / 79).max() <= 1e-14 * np.abs(dz.T @ raw / 79).max()
        assert concentrate(z, k=1, case="uconst").shift is None

    def test_equal_residuals_collapse_moments(self):
        # z_t = 2 z_{t-1} makes dz_t equal z_{t-1} exactly, so under uconst
        # the two concentrated residuals, and all three moments of the
        # concentration's factor, coincide; concentrate() names the system
        z = np.outer(2.0 ** np.arange(50), rng_for(2, 0).uniform(0.5, 2.0, 3))
        _, L, _, errors = _stacked_concentrate(z[None], 1, "uconst")
        S = L[0] @ L[0].T
        S11, S01, S00 = S[:3, :3], S[3:, :3], S[3:, 3:]
        assert S00 == pytest.approx(S11, rel=1e-12)
        assert S01 == pytest.approx(S00, rel=1e-12)
        assert list(errors) == [0]
        with pytest.raises(type(errors[0]), match=f"^{re.escape(str(errors[0]))}$"):
            concentrate(z, k=1, case="uconst")

    def test_s01_transpose_symmetry(self):
        rng = rng_for(3, 0)
        z = np.cumsum(rng.standard_normal((90, 3)), axis=0)
        for case in ("rconst", "uconst"):
            m = concentrate(z, k=2, case=case)
            assert m.S00 == pytest.approx(m.S00.T, abs=1e-10)
            assert m.S11 == pytest.approx(m.S11.T, abs=1e-10)

    def test_uconst_demeans(self):
        rng = rng_for(4, 0)
        z = np.cumsum(rng.standard_normal((70, 2)), axis=0) + 50.0
        m = concentrate(z, k=1, case="uconst")
        dz, lvl = np.diff(z, axis=0), z[:-1]
        dz, lvl = dz - dz.mean(axis=0), lvl - lvl.mean(axis=0)
        assert m.S00 == pytest.approx(dz.T @ dz / 69, rel=1e-9)
        assert m.S11 == pytest.approx(lvl.T @ lvl / 69, rel=1e-9)

    def test_no_cointegration_signal_gives_small_eigenvalues(self):
        # independent random walks: canonical correlations are O(1/T)
        meds = []
        for rep in range(30):
            z = generate_vecm_data(random_walk_spec(2, 500, seed=55), rep)
            lam, _ = solve_cointegration_eigenproblem(concentrate(z, k=1, case="rconst"))
            meds.append(lam[:2].max())
        assert np.median(meds) < 0.05

    def test_insufficient_sample(self):
        rng = rng_for(5, 0)
        z = rng.standard_normal((8, 6)).cumsum(axis=0)
        with pytest.raises(ValidationError, match="insufficient"):
            concentrate(z, k=1, case="rconst")

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("p", [3, 6])
    def test_sample_must_cover_the_difference_columns(self, p, k, case):
        # after the short-run regressors are projected out, [R0, R1] has
        # p + p_aug columns; every T_eff from n_short + p_aug + 2 (both
        # edges checked) up to one short of that is rejected as too short,
        # never fitted into a canonical correlation of 1, and T_eff =
        # n_short + p + p_aug fits
        n_short = p * (k - 1) + (case == "uconst")
        p_aug = p + (case == "rconst")
        need = n_short + p + p_aug
        for T_eff in (n_short + p_aug + 2, need - 1):
            z = generate_vecm_data(random_walk_spec(p, T_eff + k, seed=61), 0)
            message = (f"^insufficient sample: T_eff={T_eff} with {n_short} short-run "
                       f"regressors, {p} difference columns and {p_aug} level terms$")
            with pytest.raises(ValidationError, match=message):
                concentrate(z, k=k, case=case)
        z = generate_vecm_data(random_walk_spec(p, need + k, seed=61), 0)
        m = concentrate(z, k=k, case=case)
        assert m.T_eff == need
        assert np.all(rank_test(m).eigenvalues < 1.0)
        estimate_vecm(z, k=k, r=1, case=case)



class TestMomentValidation:
    """Moments hold the concentration's factor L, checked at construction,
    naming the field; S00, S01 and S11 are read off it."""

    @pytest.fixture(scope="class")
    def moments(self):
        z = np.cumsum(rng_for(8, 0).standard_normal((60, 3)), axis=0)
        return concentrate(z, k=1, case="rconst")

    @pytest.mark.parametrize("changes, message", [
        # truncated eigenvalues gave rank 2 from 3-variable moments
        ({"p": 2}, "L must be an (m + p) x (m + p) array with m in (2, 3) for p=2 under "
                   "rconst, got shape (7, 7)"),
        ({"case": "uconst"}, "L must be an (m + p) x (m + p) array with m in (3,) for p=3 "
                             "under uconst"),
        ({"case": "trend"}, "case must be one of"),
        # a float p passed the shape checks and failed in rank_test's slicing
        ({"p": 3.0}, "p must be an integer >= 1, got 3.0"),
        ({"p": 0}, "p must be an integer >= 1, got 0"),
        ({"L": np.eye(5)}, "L must be an (m + p) x (m + p) array with m in (3, 4) for p=3 "
                           "under rconst, got shape (5, 5)"),
        ({"L": np.eye(7)[:, :6]}, "L must be an (m + p) x (m + p) array with m in (3, 4)"),
        ({"L": np.ones(7)}, "L must be an (m + p) x (m + p) array with m in (3, 4)"),
        ({"L": np.eye(7).tolist()}, "L must be an (m + p) x (m + p) array with m in (3, 4) "
                                    "for p=3 under rconst, got shape None"),
        # zero traces from T_eff=0
        ({"T_eff": 0}, "T_eff must be an integer >= 1, got 0"),
        ({"T_eff": 59.0}, "T_eff must be an integer >= 1, got 59.0"),
        ({"T_eff": True}, "T_eff must be an integer >= 1, got True"),
        ({"shift": np.zeros(2)}, "shift must be None, or shaped (3,) beside a constant row, "
                                 "got (2,) with m=4"),
    ])
    def test_inconsistent_field_rejected(self, moments, changes, message):
        with pytest.raises(ValidationError, match="^" + re.escape(message)):
            dataclasses.replace(moments, **changes)

    def test_shift_without_a_constant_row_rejected(self):
        with pytest.raises(ValidationError, match=r"^shift must be None, .* with m=2$"):
            dataclasses.replace(make_moments(np.eye(2), np.zeros((2, 2)), np.eye(2)),
                                shift=np.zeros(2))

    @pytest.mark.parametrize("entry, value, message", [
        ((0, 6), 1e-3, "L is not lower-triangular"),
        ((4, 1), np.nan, "L contains non-finite entries"),
        ((5, 5), np.inf, "L contains non-finite entries"),
        # pivot 2 zero, then rounding noise beside its row's other entries
        ((2, 2), 0.0, "L is degenerate: non-positive-definite pivot <=1e-10*diag at index 2"),
        ((2, 2), 1e-9, "L is degenerate: non-positive-definite pivot <=1e-10*diag at index 2"),
    ])
    def test_bad_factor_rejected(self, moments, entry, value, message):
        # the one place moments built by hand enter: no kernel judges them
        L = moments.L.copy()
        L[entry] = value
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(moments, L=L)

    def test_moments_are_read_off_the_factor(self, moments):
        S = moments.L @ moments.L.T
        assert np.array_equal(moments.S11, S[:4, :4])
        assert np.array_equal(moments.S01, S[4:, :4])
        assert np.array_equal(moments.S00, S[4:, 4:])
        with pytest.raises(AttributeError):
            moments.S00 = np.eye(3)

    def test_consistent_shapes_accepted(self, moments):
        # rconst moments without a constant row, as built by hand, a factor
        # with negative pivots (the QR route's signs are arbitrary), and
        # numpy integer sample sizes
        assert dataclasses.replace(moments, T_eff=np.int64(59)).T_eff == 59
        flipped = dataclasses.replace(moments, L=-moments.L)
        assert np.array_equal(rank_test(flipped).trace_stats, rank_test(moments).trace_stats)
        square = dataclasses.replace(make_moments(np.eye(2), np.zeros((2, 2)), np.eye(2)),
                                     case="rconst")
        assert rank_test(square).selected_rank == 0


class TestEigenproblem:
    def test_zero_cross_moments(self):
        lam, _ = solve_cointegration_eigenproblem(
            make_moments(np.eye(2), np.zeros((2, 2)), np.eye(2))
        )
        assert lam == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_diagonal_case(self):
        lam, _ = solve_cointegration_eigenproblem(
            make_moments(np.eye(2), np.diag([0.8, 0.2]), np.eye(2))
        )
        assert lam == pytest.approx([0.64, 0.04])

    def test_beta_first_nonzero_is_one(self):
        rng = rng_for(6, 0)
        z = np.cumsum(rng.standard_normal((120, 3)), axis=0)
        _, beta = solve_cointegration_eigenproblem(concentrate(z, k=1, case="uconst"))
        for j in range(beta.shape[1]):
            col = beta[:, j]
            nz = np.nonzero(np.abs(col) > 1e-10 * np.abs(col).max())[0]
            assert col[nz[0]] == pytest.approx(1.0)

    def test_eigenvalue_problem_residual(self):
        # generalized eigenproblem check: (S10 S00^-1 S01) b = lam * S11 b
        rng = rng_for(7, 0)
        z = np.cumsum(rng.standard_normal((150, 3)), axis=0)
        m = concentrate(z, k=2, case="rconst")
        lam, beta = solve_cointegration_eigenproblem(m)
        # beta is in the coordinates of [z, 1]; the moments in those of the
        # centred [z - shift, 1], where the constant row is c + b'shift
        beta[-1] += m.shift @ beta[:-1]
        M = m.S01.T @ np.linalg.inv(m.S00) @ m.S01
        for j in range(len(lam)):
            lhs = M @ beta[:, j]
            rhs = lam[j] * m.S11 @ beta[:, j]
            assert np.abs(lhs - rhs).max() < 1e-8 * max(1.0, np.abs(M).max())

    def test_singular_s11_raises(self):
        # moments with an exactly collinear level block have no factor that
        # clears the pivot rule: the R factor of [R1, R0] is refused
        R1 = np.zeros((40, 2))
        R1[:, 0] = np.arange(40.0)
        R1[:, 1] = 2.0 * R1[:, 0]  # exact collinearity
        rng = rng_for(8, 0)
        R0 = rng.standard_normal((40, 2))
        L = np.linalg.qr(np.column_stack([R1, R0]), mode="r").T / np.sqrt(40)
        with pytest.raises(ValidationError, match="^L is degenerate: .* at index 1$"):
            MomentMatrices(L=L, T_eff=40, p=2, case="uconst", vars=())


class TestRankTest:
    def test_trace_formula(self):
        # lam = [0.5, 0.2], T=100: trace(0) = 91.63, trace(1) = 22.31
        s = np.sqrt(np.array([0.5, 0.2]))
        m = make_moments(np.eye(2), np.diag(s), np.eye(2), T=100)
        rt = rank_test(m)
        assert rt.eigenvalues == pytest.approx([0.5, 0.2])
        assert rt.trace_stats[0] == pytest.approx(91.629073, abs=1e-4)
        assert rt.trace_stats[1] == pytest.approx(22.314355, abs=1e-4)

    def test_tiny_eigenvalues_select_zero(self):
        s = np.sqrt(np.array([0.008, 0.002]))
        m = make_moments(np.eye(2), np.diag(s), np.eye(2), T=23)
        rt = rank_test(m)
        assert rt.selected_rank == 0

    def test_trace_is_sum_of_maxeig(self):
        rng = rng_for(9, 0)
        z = np.cumsum(rng.standard_normal((100, 4)), axis=0)
        rt = rank_test(concentrate(z, k=1, case="rconst"))
        for r in range(rt.p):
            assert rt.trace_stats[r] == pytest.approx(rt.maxeig_stats[r:].sum())

    def test_strictly_decreasing_trace(self):
        rng = rng_for(10, 0)
        z = np.cumsum(rng.standard_normal((150, 5)), axis=0)
        rt = rank_test(concentrate(z, k=1, case="uconst"))
        assert np.all(np.diff(rt.trace_stats) < 0)

    def test_dimension_cap(self):
        rng = rng_for(11, 0)
        R = rng.standard_normal((60, 7))
        m = scalar_reference.moments_from_residuals(R, np.cumsum(R, axis=0), 60)
        m = make_moments(m.S00, m.S01, m.S11, T=60)
        with pytest.raises(ValidationError, match="dimension"):
            rank_test(m)

    def test_true_rank_one_recovered(self):
        spec = study_spec(T=400, seed=13)
        hits = 0
        for rep in range(50):
            z = generate_vecm_data(spec, rep)
            rt = rank_test(concentrate(z, k=1, case="rconst"))
            hits += rt.selected_rank == 1
        assert hits / 50 >= 0.8

    @pytest.mark.parametrize("offset", [np.log(1000.0), 1e6])
    def test_scale_shift_invariance_uconst(self, offset):
        # multiplying a series by 1000 before logs is an additive log-shift;
        # a level far from zero leaves the pivot rule's moments alone too
        rng = rng_for(14, 0)
        z = np.cumsum(rng.standard_normal((120, 3)), axis=0)
        shifted = z.copy()
        shifted[:, 1] += offset
        a = rank_test(concentrate(z, k=2, case="uconst"))
        b = rank_test(concentrate(shifted, k=2, case="uconst"))
        assert a.eigenvalues == pytest.approx(b.eigenvalues, abs=1e-8)

    def test_beta_scaling_leaves_statistics_unchanged(self):
        rng = rng_for(15, 0)
        z = np.cumsum(rng.standard_normal((100, 2)), axis=0)
        m = concentrate(z, k=1, case="rconst")
        rt1 = rank_test(m)
        rt2 = rank_test(m)  # statistics depend only on eigenvalues
        assert rt1.trace_stats == pytest.approx(rt2.trace_stats)

    def test_variable_order_does_not_move_eigenvalues(self, log_panel):
        a = rank_test(concentrate(log_panel, ("sb", "gpc", "md"), k=1))
        b = rank_test(concentrate(log_panel, ("md", "sb", "gpc"), k=1))
        assert a.eigenvalues == pytest.approx(b.eigenvalues, abs=1e-10)
        assert a.selected_rank == b.selected_rank

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(p=st.integers(2, 6), k=st.integers(1, 3), case=st.sampled_from(CASES),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_eigenvalues_invariant_under_variable_permutation(self, p, k, case, seed, data):
        # log-panel-like levels: random walks of mixed scale around mixed
        # offsets. Reordering the variables changes only the rounding of
        # the QR and Cholesky steps, which grows with cond(S11) (up to about
        # 3e8 here under rconst's uncentered level term). Tolerance:
        # 1e-12 + 10 * eps * cond(S11); 1500 such draws measured at most
        # 1.1 * eps * cond(S11)
        rng = rng_for(seed, 0)
        z = np.cumsum(rng.standard_normal((50, p)), axis=0) * rng.uniform(0.01, 1.0, p) \
            + rng.uniform(-10.0, 10.0, p)
        perm = data.draw(st.permutations(range(p)), label="order")
        ma, mb = concentrate(z, k=k, case=case), concentrate(z[:, perm], k=k, case=case)
        cond = max(np.linalg.cond(ma.S11), np.linalg.cond(mb.S11))
        gap = np.abs(rank_test(ma).eigenvalues - rank_test(mb).eigenvalues).max()
        assert gap <= 1e-12 + 10 * np.finfo(float).eps * cond

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(p=st.integers(2, 6), k=st.integers(1, 3), case=st.sampled_from(CASES),
           seed=st.integers(0, 2**32 - 1),
           spread=st.floats(1.0, 10.0, allow_subnormal=False))
    def test_eigenvalues_invariant_under_column_transform(self, p, k, case, seed, spread):
        # z -> z A for a nonsingular A moves the level term [z, 1] (or z) by
        # an invertible block, so the canonical correlations do not move.
        # A = Q1 diag(s) Q2 with s in [1, spread] keeps cond(A) <= 10; the
        # rounding then grows with cond(S11) as in the permutation property
        # (1500 such draws measured at most 1.0 * eps * cond(S11))
        rng = rng_for(seed, 0)
        z = np.cumsum(rng.standard_normal((50, p)), axis=0) * rng.uniform(0.01, 1.0, p) \
            + rng.uniform(-10.0, 10.0, p)
        q1, _ = np.linalg.qr(rng.standard_normal((p, p)))
        q2, _ = np.linalg.qr(rng.standard_normal((p, p)))
        A = q1 @ np.diag(rng.uniform(1.0, spread, p)) @ q2
        ma, mb = concentrate(z, k=k, case=case), concentrate(z @ A, k=k, case=case)
        cond = max(np.linalg.cond(ma.S11), np.linalg.cond(mb.S11))
        gap = np.abs(rank_test(ma).eigenvalues - rank_test(mb).eigenvalues).max()
        assert gap <= 1e-12 + 10 * np.finfo(float).eps * cond


class TestTraceAgainstHighPrecision:
    # innovations of 1e-4 inside the cointegration space make the levels
    # nearly collinear: over these 20 replications cond(S11) is 3e8 to 1e10
    # (lambda_1 stays between 0.26 and 0.55), and forming a moment matrix
    # squares that conditioning. Against 50-digit values: rconst k=1 still
    # forms W'W (1.7e-7 off from centred moments, 3.3e-6 from the uncentred
    # [z, 1]); a member with short-run regressors hands the eigenproblem its
    # R factor, never squared (at most 9.2e-11 off on five OpenBLAS kernels,
    # against 6.5e-8 to 4.5e-7 when it formed F'F)
    @pytest.mark.parametrize("case, k, bound", [
        ("rconst", 1, 4e-7), ("rconst", 2, 1e-10), ("rconst", 3, 1e-10),
        ("uconst", 1, 1e-10), ("uconst", 2, 1e-10)])
    def test_nearly_collinear_levels(self, case, k, bound):
        pytest.importorskip("mpmath")
        spec = SyntheticSpec(p=3, r=1, alpha_true=[[-0.4], [0.2], [0.1]],
                             beta_true=[[1.0], [-2.0], [0.5]], ec_noise_scale=1e-4, T=60, seed=5)
        for rep in range(20):
            z = generate_vecm_data(spec, rep)
            want = np.array([float(v) for v in mp_reference.johansen(z, k, case, 50)[3]])
            got = rank_test(concentrate(z, k=k, case=case)).trace_stats
            assert np.abs(got / want - 1.0).max() <= bound, rep

    def test_canonical_correlation_near_one(self):
        # z2_t = z1_{t-1} + 1e-4 eta_t: z2_{t-1} - z1_{t-1} is dz2_t to within
        # 1e-4 eta, so 1 - lambda_1 is 0.6e-8 to 1.5e-8 here, below the pivot
        # rule's 1e-10 relative pivot and short of the 1 - 1e-12 cliff. The
        # rconst k=1 route forms W'W: at most 2.5e-7 off the 50-digit traces on
        # five OpenBLAS kernels
        pytest.importorskip("mpmath")
        for rep in range(10):
            e = rng_for(17, rep).standard_normal((60, 2))
            z = np.empty((60, 2))
            z[:, 0] = np.cumsum(e[:, 0])
            z[:, 1] = 1e-4 * e[:, 1]
            z[1:, 1] += z[:-1, 0]
            lam, _, _, trace = mp_reference.johansen(z, 1, "rconst", 50)
            assert 1 - lam[0] < 2e-8, rep
            want = np.array([float(v) for v in trace])
            got = rank_test(concentrate(z, k=1, case="rconst")).trace_stats
            assert np.abs(got / want - 1.0).max() <= 5e-7, rep


class TestCriticalTables:
    def test_tables_monotone_in_dimension(self):
        for case, table in TRACE_CRITICAL.items():
            for level, row in table.items():
                assert all(a < b for a, b in zip(row, row[1:])), (case, level)

    def test_levels_ordered(self):
        for tab in (TRACE_CRITICAL, MAXEIG_CRITICAL):
            for case in tab:
                for i in range(6):
                    assert tab[case]["90%"][i] < tab[case]["95%"][i] < tab[case]["99%"][i]

    def test_restricted_constant_dominates(self):
        # the restricted constant adds a dimension to the eigenproblem, so
        # its critical values sit above the unrestricted ones
        for i in range(6):
            assert TRACE_CRITICAL["rconst"]["95%"][i] > TRACE_CRITICAL["uconst"]["95%"][i]


def random_walk_stack(n, T, p, case, seed=31):
    drift = 1.0 if case == "uconst" else 0.0
    return np.stack([np.cumsum(rng_for(seed, i).standard_normal((T, p)) + drift, axis=0)
                     for i in range(n)])


def n1_trace_r0(z, case):
    """The rank-0 trace statistic of one system from the public n=1 calls."""
    return rank_test(concentrate(z, k=1, case=case)).trace_stats[0]


class TestStackedRank0Kernel:
    @pytest.mark.parametrize("case", ["rconst", "uconst"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_agrees_with_scalar_path(self, case, p):
        z = random_walk_stack(40, 400, p, case)
        want = np.array([scalar_reference.rank_test(zi, 1, case)[0][0] for zi in z])
        *_, trace, _, errors = stacked_rank_test(z, 1, case, vectors=False)
        assert errors == {}
        np.testing.assert_allclose(trace[:, 0], want, rtol=1e-10, atol=0.0)
        assert np.array_equal(trace[:, 0], [n1_trace_r0(zi, case) for zi in z])

    @pytest.mark.parametrize("case", ["rconst", "uconst"])
    @pytest.mark.parametrize("fault", ["constant", "duplicate", "nonfinite", "exact_relation"])
    def test_degenerate_member_raises_scalar_error(self, case, fault):
        # the faulty member records the error its n=1 call raises; its
        # neighbours are unaffected
        z = random_walk_stack(6, 400, 2, case)
        if fault == "constant":
            z[3, :, 1] = 7.0
        elif fault == "duplicate":
            z[3, :, 1] = z[3, :, 0]
        elif fault == "nonfinite":
            z[3, 10, 0] = np.inf
        else:
            # dz_t = 0.01 z_{t-1}: canonical correlation 1
            z[3, :, 0] = 1.01 ** np.arange(400)
        with pytest.raises(VelakitError) as n1:
            n1_trace_r0(z[3], case)
        *_, trace, _, errors = stacked_rank_test(z, 1, case, vectors=False)
        assert type(errors[3]) is type(n1.value)
        assert str(errors[3]) == str(n1.value)
        healthy = [0, 1, 2, 4, 5]
        assert list(errors) == [3]
        assert np.array_equal(trace[healthy, 0], [n1_trace_r0(z[i], case) for i in healthy])


DEGENERATE = r"degenerate moment matrix: non-positive-definite pivot \S+ at index "
RANK_DEFICIENT = r"regressor matrix is rank deficient at column {} \(pivot \S+ vs scale \S+\)$"
FAULTS = {
    "constant": (NotPositiveDefiniteError, DEGENERATE + "1$"),
    "duplicate": (NotPositiveDefiniteError, DEGENERATE + "1$"),
    "collinear": (NotPositiveDefiniteError, DEGENERATE + "2$"),
    "exact_relation": (NumericalError, "canonical correlation indistinguishable from 1; the "
                                       "level and difference spaces share an exact linear "
                                       "combination$"),
    "nonfinite": (ValidationError, "level data contains non-finite values$"),
}
# at k=2 the lagged differences carry the constant, duplicate and collinear
# columns, so the short-run regression fails first. They also span the
# exact relation's level, leaving under rconst a level column that is a
# multiple of the ones column (its pivot 3 fails); under uconst that level
# column is left as rounding noise, whose pivot 0 fails against the level's
# moment before the projection
FAULTS_K2 = {
    **FAULTS,
    "constant": (SingularMatrixError, RANK_DEFICIENT.format(1)),
    "duplicate": (SingularMatrixError, RANK_DEFICIENT.format(1)),
    "collinear": (SingularMatrixError, RANK_DEFICIENT.format(2)),
    "exact_relation": (NotPositiveDefiniteError, DEGENERATE + "3$"),
}
# z_1 = z_0 + t: under uconst the centred differences coincide while the
# levels do not, so S11 is positive definite and S00's own pivot 1 fails
DEGENERATE_SYSTEMS = [(fault, case, 1) for fault in FAULTS for case in CASES] + [
    (fault, case, 2) for fault in FAULTS_K2 for case in CASES] + [
    ("duplicate_differences", "uconst", 1)]


def expected_error(fault, case, k):
    """The error class and message pattern of a degenerate system."""
    if (fault, case, k) == ("exact_relation", "uconst", 2):
        return NotPositiveDefiniteError, DEGENERATE + "0$"
    if fault == "duplicate_differences":
        return NotPositiveDefiniteError, DEGENERATE + "1$"
    return (FAULTS if k == 1 else FAULTS_K2)[fault]


def degenerate_stack(fault, case):
    """Six random walks whose member 3 has the fault."""
    z = random_walk_stack(6, 400, 3, case)
    if fault == "constant":
        z[3, :, 1] = 7.0
    elif fault == "duplicate":
        z[3, :, 1] = z[3, :, 0]
    elif fault == "collinear":
        z[3, :, 2] = z[3, :, 0] - 2.0 * z[3, :, 1]
    elif fault == "nonfinite":
        z[3, 10, 0] = np.inf
    elif fault == "duplicate_differences":
        z[3, :, 1] = z[3, :, 0] + np.arange(400)
    else:
        # dz_t = 0.01 z_{t-1}: canonical correlation 1
        z[3, :, 0] = 1.01 ** np.arange(400)
    return z


class TestDegenerateMoments:
    """Each degenerate system raises one error class and message, alone and
    as a member of a stack, with no short-run regressors (rconst, k=1) and
    through the short-run regression's factor (uconst, or k=2)."""

    @pytest.mark.parametrize("fault, case, k", DEGENERATE_SYSTEMS)
    def test_error_class_and_message(self, fault, case, k):
        # concentrate() raises the system's first error: no degenerate
        # moments are returned for the rank test to judge
        z = degenerate_stack(fault, case)
        kind, message = expected_error(fault, case, k)
        with pytest.raises(kind, match="^" + message) as n1:
            concentrate(z[3], k=k, case=case)
        assert type(n1.value) is kind
        *_, errors = stacked_rank_test(z, k, case, vectors=False)
        assert list(errors) == [3]
        assert type(errors[3]) is kind and str(errors[3]) == str(n1.value)

    @pytest.mark.parametrize("fault, case, k", [
        (fault, case, k) for fault, case, k in DEGENERATE_SYSTEMS
        if expected_error(fault, case, k)[0] in (NotPositiveDefiniteError, NumericalError)
        # a factor built by hand is judged against its own diagonal, where this
        # level column is rounding noise that clears the rule; concentrate()
        # names it from the column's moment before the projection
        and (fault, case, k) != ("exact_relation", "uconst", 2)])
    def test_copied_moments_are_named_alike(self, fault, case, k):
        # concentrate() returns no degenerate moments, so a copy is built by
        # hand: the member's joint factor from its own concentrated residuals
        # (levels centred under rconst, as concentrate() centres them), given
        # to a copy of a healthy member's moments, which refuses it
        z = degenerate_stack(fault, case)
        with pytest.raises(expected_error(fault, case, k)[0]):
            concentrate(z[3], k=k, case=case)
        R0, R1 = scalar_reference.concentrated_residuals(z[3], k, case)
        if case == "rconst":
            R1 = R1 - np.append(z[3, k - 1 : -1].mean(axis=0), 0.0) * R1[:, -1:]
        L = np.linalg.qr(np.column_stack([R1, R0]), mode="r").T / np.sqrt(len(R0))
        healthy = concentrate(z[0], k=k, case=case)
        with pytest.raises(ValidationError, match=r"^L is degenerate: non-positive-definite "
                                                  r"pivot \S+ at index \d+$"):
            dataclasses.replace(healthy, L=L)

    @pytest.mark.parametrize("case, k", [(case, k) for case in CASES for k in (1, 2)])
    def test_copied_moments_agree(self, case, k):
        # a copy holds the same factor, so every result is the same bit for bit
        moments = concentrate(random_walk_stack(1, 400, 3, case)[0], k=k, case=case)
        carried = rank_test(moments)
        copied = rank_test(dataclasses.replace(moments, vars=("a", "b", "c")))
        for field in dataclasses.fields(carried):
            assert np.array_equal(getattr(copied, field.name), getattr(carried, field.name)), \
                field.name


class TestPerMemberSampleSize:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(p=st.integers(1, 6), n=st.integers(1, 12), case=st.sampled_from(CASES),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_rows_equal_their_scalar_calls(self, p, n, case, seed, data):
        # a stack whose members differ in lag passes one T_eff per member;
        # each row is its scalar call, bit for bit, selected rank included
        T_eff = np.array(data.draw(st.lists(st.integers(10, 500), min_size=n, max_size=n)))
        # descending eigenvalues spread over [0, 1), so every rank occurs
        lam = -np.sort(-rng_for(seed, 0).uniform(0.0, 0.6, (n, p + 1)) ** 3, axis=1)
        trace, ranks = _stacked_trace_test(lam, T_eff, p, case)
        for i in range(n):
            want_trace, want_rank = _stacked_trace_test(lam[i : i + 1], int(T_eff[i]), p, case)
            assert np.array_equal(trace[i], want_trace[0])
            assert ranks[i] == want_rank[0]
