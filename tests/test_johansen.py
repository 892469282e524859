import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mp_reference
import scalar_reference
from velakit.errors import NotPositiveDefiniteError, NumericalError, ValidationError, VelakitError
from velakit.johansen import (
    CASES,
    MAXEIG_CRITICAL,
    TRACE_CRITICAL,
    MomentMatrices,
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
    return MomentMatrices(
        S00=np.asarray(S00, float),
        S01=np.asarray(S01, float),
        S11=np.asarray(S11, float),
        T_eff=T,
        p=np.asarray(S00).shape[0],
        case="uconst",
        vars=(),
    )


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
        # the two concentrated residuals, and all three moments, coincide
        z = np.outer(2.0 ** np.arange(50), rng_for(2, 0).uniform(0.5, 2.0, 3))
        m = concentrate(z, k=1, case="uconst")
        assert m.S00 == pytest.approx(m.S11, rel=1e-12)
        assert m.S01 == pytest.approx(m.S00, rel=1e-12)

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
    """Hand-built moments are checked at construction, naming the field."""

    @pytest.fixture(scope="class")
    def moments(self):
        z = np.cumsum(rng_for(8, 0).standard_normal((60, 3)), axis=0)
        return concentrate(z, k=1, case="rconst")

    @pytest.mark.parametrize("changes, message", [
        # truncated eigenvalues gave rank 2 from 3-variable moments
        ({"p": 2}, "S11 must be m x m with m in (2, 3) for p=2 under rconst, got shape (4, 4)"),
        ({"case": "uconst"}, "S11 must be m x m with m in (3,) for p=3 under uconst"),
        ({"case": "trend"}, "case must be one of"),
        # a float p passed the shape checks and failed in rank_test's slicing
        ({"p": 3.0}, "p must be an integer >= 1, got 3.0"),
        ({"p": 0}, "p must be an integer >= 1, got 0"),
        ({"S00": np.eye(2)}, "S00 must have shape (3, 3) for p=3 under rconst, got (2, 2)"),
        ({"S01": np.zeros((3, 3))}, "S01 must have shape (3, 4) for p=3 under rconst, got (3, 3)"),
        ({"S11": np.zeros(4)}, "S11 must be m x m with m in (3, 4)"),
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

    @pytest.mark.parametrize("name", ["S00", "S11"])
    def test_asymmetric_moments_rejected(self, moments, name):
        # the one place hand-built moments enter: no kernel scans for symmetry
        S = getattr(moments, name).copy()
        S[0, -1] += 1e-3
        with pytest.raises(ValidationError, match=f"^{name} is not symmetric within tolerance$"):
            dataclasses.replace(moments, **{name: S})

    def test_consistent_shapes_accepted(self, moments):
        # rconst moments without a constant row, as built by hand, and
        # numpy integer sample sizes
        assert dataclasses.replace(moments, T_eff=np.int64(59)).T_eff == 59
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
        R1 = np.zeros((40, 2))
        R1[:, 0] = np.arange(40.0)
        R1[:, 1] = 2.0 * R1[:, 0]  # exact collinearity
        rng = rng_for(8, 0)
        R0 = rng.standard_normal((40, 2))
        m = scalar_reference.moments_from_residuals(R0, R1, 40)
        with pytest.raises(NotPositiveDefiniteError, match="degenerate"):
            solve_cointegration_eigenproblem(m)


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

    def test_scale_shift_invariance_uconst(self):
        # multiplying a series by 1000 before logs is an additive log-shift
        rng = rng_for(14, 0)
        z = np.cumsum(rng.standard_normal((120, 3)), axis=0)
        shifted = z.copy()
        shifted[:, 1] += np.log(1000.0)
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
    def test_near_unit_canonical_correlation(self):
        # innovations of 1e-4 inside the cointegration space put lambda_1
        # within about 1e-8 of 1, so log(1 - lambda_1) amplifies the
        # eigenvalue's rounding. Against 50-digit values the traces from
        # centred moments measured at most 1.7e-7 off over these 20
        # replications, those from the uncentred [z, 1] up to 3.3e-6
        pytest.importorskip("mpmath")
        spec = SyntheticSpec(p=3, r=1, alpha_true=[[-0.4], [0.2], [0.1]],
                             beta_true=[[1.0], [-2.0], [0.5]], ec_noise_scale=1e-4, T=60, seed=5)
        for rep in range(20):
            z = generate_vecm_data(spec, rep)
            want = np.array([float(v) for v in mp_reference.johansen(z, 1, "rconst", 50)[3]])
            got = rank_test(concentrate(z, k=1, case="rconst")).trace_stats
            assert np.abs(got / want - 1.0).max() <= 4e-7, rep


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
FAULTS = {
    "constant": (NotPositiveDefiniteError, DEGENERATE + "1$"),
    "duplicate": (NotPositiveDefiniteError, DEGENERATE + "1$"),
    "collinear": (NotPositiveDefiniteError, DEGENERATE + "2$"),
    "exact_relation": (NumericalError, "canonical correlation indistinguishable from 1; the "
                                       "level and difference spaces share an exact linear "
                                       "combination$"),
    "nonfinite": (ValidationError, "level data contains non-finite values$"),
}


class TestDegenerateMoments:
    """Each degenerate system raises one error class and message, alone and
    as a member of a stack."""

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("fault", FAULTS)
    def test_error_class_and_message(self, fault, case):
        z = random_walk_stack(6, 400, 3, case)
        if fault == "constant":
            z[3, :, 1] = 7.0
        elif fault == "duplicate":
            z[3, :, 1] = z[3, :, 0]
        elif fault == "collinear":
            z[3, :, 2] = z[3, :, 0] - 2.0 * z[3, :, 1]
        elif fault == "nonfinite":
            z[3, 10, 0] = np.inf
        else:
            # dz_t = 0.01 z_{t-1}: canonical correlation 1
            z[3, :, 0] = 1.01 ** np.arange(400)
        kind, message = FAULTS[fault]
        with pytest.raises(kind, match="^" + message) as n1:
            rank_test(concentrate(z[3], k=1, case=case))
        assert type(n1.value) is kind
        *_, errors = stacked_rank_test(z, 1, case, vectors=False)
        assert list(errors) == [3]
        assert type(errors[3]) is kind and re.match(message, str(errors[3]))

    @pytest.mark.parametrize("solve", [rank_test, solve_cointegration_eigenproblem])
    def test_singular_s00_beside_a_positive_definite_s11(self, solve):
        m = make_moments([[1.0, 1.0], [1.0, 1.0]], np.zeros((2, 2)), np.eye(2))
        with pytest.raises(NotPositiveDefiniteError, match="^" + DEGENERATE + "1$"):
            solve(m)


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
