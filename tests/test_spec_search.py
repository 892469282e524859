import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mp_reference
import scalar_reference
from velakit.errors import NoAdmissibleSpecError, ValidationError, VelakitError
from velakit.johansen import (
    _stacked_concentrate,
    _stacked_eigenproblem,
    _stacked_trace_test,
    concentrate,
    rank_test,
)
from velakit.panel import VARIABLES, LogLevelPanel
from velakit.spec_search import (
    FittedSpec,
    RejectedSpec,
    SpecificationReport,
    _fit_group,
    build_correlation_table,
    enumerate_specifications,
    fit_specifications,
    run_specification_search,
)
from velakit.synthetic import generate_vecm_data, random_walk_spec, rng_for
from velakit.vecm import (
    CointegratingEquation,
    _stacked_models,
    _stacked_phillips,
    estimate_vecm,
    normalize_cointegrating_equation,
)

from conftest import stacked_rank_test, synthetic_log_panel


class TestEnumerate:
    def test_single_maximal_subset(self):
        subsets = enumerate_specifications(min_size=6)
        assert subsets == [VARIABLES]

    def test_min_size_five_counts(self):
        subsets = enumerate_specifications(min_size=5)
        assert len(subsets) == 6
        assert subsets[0] == VARIABLES
        assert all(len(s) == 5 for s in subsets[1:])

    def test_all_contain_dependent(self):
        subsets = enumerate_specifications(min_size=2)
        assert all("sb" in s for s in subsets)
        assert len(subsets) == 2**5 - 1  # every non-empty regressor subset

    def test_ordering(self):
        subsets = enumerate_specifications(min_size=4)
        sizes = [len(s) for s in subsets]
        assert sizes == sorted(sizes, reverse=True)
        five = [s for s in subsets if len(s) == 5]
        assert five[0] == ("sb", "gpc", "rd", "md", "ed")  # canonical order

    def test_min_size_guard(self):
        with pytest.raises(ValidationError):
            enumerate_specifications(min_size=1)

    @pytest.mark.parametrize("min_size", [7, 8])
    def test_min_size_above_variable_count(self, min_size):
        # no subset is that large, so the request names no candidate at all
        with pytest.raises(ValidationError, match=f"min_size must be <= 6, .* got {min_size}"):
            enumerate_specifications(min_size=min_size)


def equation_stub(dependent="sb", coefficients=None, z_scores=None):
    coefficients = coefficients or {}
    z = z_scores or {}
    full = {v: coefficients.get(v, 0.0) for v in VARIABLES if v != dependent}
    return CointegratingEquation(
        dependent=dependent,
        coefficients=full,
        intercept=0.0,
        z_scores=z,
        significant_at_5pct={k: abs(v) >= 1.96 for k, v in z.items()},
        intercept_z=None,
    )


def spec_stub(subset, coefficients, z_scores, k=1):
    return FittedSpec(
        subset=subset,
        k=k,
        model=None,
        equation=equation_stub(coefficients=coefficients, z_scores=z_scores),
        criteria={"chi2": 1.0, "aic": 0.0, "bic": 0.0, "loglik": 0.0},
    )


def report_of(*specs):
    return SpecificationReport(agency_id="X", case="rconst", specs=tuple(specs), rejected=())


class TestCorrelationTable:
    def test_larger_z_wins_and_flags_conflict(self):
        report = report_of(
            spec_stub(("sb", "gpc", "rd"), {"gpc": 0.7}, {"gpc": 3.1}),
            spec_stub(("sb", "gpc", "md"), {"gpc": -0.2}, {"gpc": 1.0}),
        )
        row = build_correlation_table(report)
        assert row["gpc"]["sign"] == "+"
        assert row["gpc"]["conflict"] is True
        assert row["gpc"]["source_spec"] == 0
        assert row["gpc"]["significant_at_5pct"] is True

    def test_insignificant_coefficient_flagged(self):
        report = report_of(spec_stub(("sb", "gpc"), {"gpc": 0.5}, {"gpc": 1.2}))
        row = build_correlation_table(report)
        assert row["gpc"]["sign"] == "+"
        assert row["gpc"]["significant_at_5pct"] is False

    def test_absent_variable(self):
        report = report_of(spec_stub(("sb", "gpc"), {"gpc": 0.5}, {"gpc": 2.2}))
        row = build_correlation_table(report)
        assert row["sd"]["sign"] == "none"
        assert row["sd"]["source_spec"] is None
        assert row["sd"]["conflict"] is False

    def test_significance_boundary(self):
        just_below = report_of(spec_stub(("sb", "ed"), {"ed": 1.0}, {"ed": 1.9599}))
        at = report_of(spec_stub(("sb", "ed"), {"ed": 1.0}, {"ed": 1.96}))
        above = report_of(spec_stub(("sb", "ed"), {"ed": 1.0}, {"ed": 1.9601}))
        assert build_correlation_table(just_below)["ed"]["significant_at_5pct"] is False
        assert build_correlation_table(at)["ed"]["significant_at_5pct"] is True
        assert build_correlation_table(above)["ed"]["significant_at_5pct"] is True

    def test_source_spec_is_argmax(self):
        report = report_of(
            spec_stub(("sb", "md"), {"md": -0.4}, {"md": -2.5}),
            spec_stub(("sb", "md", "ed"), {"md": -0.6}, {"md": -4.0}),
            spec_stub(("sb", "md", "sd"), {"md": -0.1}, {"md": -1.0}),
        )
        row = build_correlation_table(report)
        assert row["md"]["source_spec"] == 1
        assert row["md"]["sign"] == "-"
        assert row["md"]["conflict"] is False

    def test_agreeing_signs_no_conflict(self):
        report = report_of(
            spec_stub(("sb", "gpc"), {"gpc": 0.7}, {"gpc": 3.0}),
            spec_stub(("sb", "gpc", "md"), {"gpc": 0.3}, {"gpc": 2.0}),
        )
        assert build_correlation_table(report)["gpc"]["conflict"] is False


class TestFitSpecifications:
    def test_planted_relation_survives(self):
        # {sb, gpc, md} carries the cointegrating relation; the subset must
        # survive with rank 1 in most replications
        hits = 0
        reps = 50
        for rep in range(reps):
            panel = synthetic_log_panel(T=400, seed=200 + rep)
            try:
                report = fit_specifications(panel, [("sb", "gpc", "md")], k_candidates=(1, 2))
            except NoAdmissibleSpecError:
                continue
            hits += any(s.subset == ("sb", "gpc", "md") for s in report.specs)
        assert hits / reps >= 0.8

    def test_white_noise_panel_has_no_admissible_spec(self):
        rng = rng_for(606, 0)
        series = {v: rng.standard_normal(400) + 10.0 for v in VARIABLES}
        panel = LogLevelPanel(agency_id="WN", years=np.arange(1600, 2000), series=series)
        with pytest.raises(NoAdmissibleSpecError):
            fit_specifications(panel, [VARIABLES, ("sb", "gpc", "md")])

    def test_duplicate_column_recorded_as_failure(self):
        base = synthetic_log_panel(T=300, seed=42)
        series = {v: base.series[v].copy() for v in VARIABLES}
        series["sd"] = series["ed"].copy()  # exact duplicate
        panel = LogLevelPanel(agency_id="DUP", years=base.years, series=series)
        report = fit_specifications(
            panel,
            [("sb", "gpc", "md", "ed", "sd"), ("sb", "gpc", "md", "ed")],
            k_candidates=(1,),
        )
        dup_failures = [r for r in report.rejected if "sd" in r.subset]
        assert dup_failures and all(
            "NotPositiveDefinite" in r.reason or "Singular" in r.reason
            for r in dup_failures
        )
        assert any(s.subset == ("sb", "gpc", "md", "ed") for s in report.specs)

    def test_rejections_keep_reasons(self):
        panel = synthetic_log_panel(T=120, seed=9)
        report = fit_specifications(panel, [("sb", "rd"), ("sb", "gpc", "md")])
        for r in report.rejected:
            assert r.reason


class TestDeterminism:
    def test_byte_identical_reports(self):
        from velakit.manifest import dump_json

        panel = synthetic_log_panel(T=200, seed=77)
        a = run_specification_search(panel, min_size=5)
        b = run_specification_search(panel, min_size=5)
        payload_a = dump_json({"specs": [dataclasses.asdict(s.model) for s in a.specs],
                               "row": a.correlation_row})
        payload_b = dump_json({"specs": [dataclasses.asdict(s.model) for s in b.specs],
                               "row": b.correlation_row})
        assert payload_a == payload_b


def n1_search(panel, subsets, k_candidates, case):
    """The one-spec-at-a-time loop over the public n=1 calls: (fitted,
    rejected) as (subset, k, model, equation) and (subset, k, reason) lists
    in subset-major, k-ascending order."""
    fitted, rejected = [], []
    for subset in subsets:
        for k in sorted(k_candidates):
            try:
                rt = rank_test(concentrate(panel, subset, k=k, case=case))
                if rt.selected_rank != 1:
                    rejected.append((subset, k, f"selected rank {rt.selected_rank}"))
                    continue
                model = estimate_vecm(panel, subset, k=k, r=1, case=case)
                equation = normalize_cointegrating_equation(model)
            except VelakitError as exc:
                rejected.append((subset, k, f"{type(exc).__name__}: {exc}"))
                continue
            fitted.append((subset, k, model, equation))
    return fitted, rejected


MODEL_ARRAYS = ("eigenvalues", "alpha", "beta", "mu", "sigma", "beta_se", "beta_z",
                "level_means")
MODEL_SCALARS = ("wald_chi2", "loglik", "aic", "bic")


def assert_close(got, want, rtol, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    finite = np.isfinite(want)
    np.testing.assert_array_equal(np.isfinite(got), finite, err_msg=what)
    if finite.any():
        scale = np.abs(want[finite]).max()
        assert np.abs(got[finite] - want[finite]).max() <= rtol * scale, what


def assert_same_model(got, want, what):
    for name in MODEL_ARRAYS + MODEL_SCALARS:
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), \
            f"{name} of {what}"
    assert all(np.array_equal(g, w) for g, w in zip(got.gamma, want.gamma, strict=True)), what


class TestStackedSearch:
    # the default synthetic panel, and the seed whose full six-variable
    # rconst spec agrees least well (see the tolerance below)
    @pytest.mark.parametrize("seed", [4, 5])
    @pytest.mark.parametrize("case", ["rconst", "uconst"])
    def test_matches_scalar_path(self, case, seed):
        panel = synthetic_log_panel(T=60, seed=seed)
        subsets = enumerate_specifications(min_size=2)
        # interleave the sizes: records follow the subset order, not the groups
        subsets = subsets[1::2] + subsets[::2]
        want_fitted, want_rejected = n1_search(panel, subsets, (1, 2, 3), case)
        # against the scalar reference: the moments' rounding differs by
        # about an ulp, which the whitening amplifies by cond(S11): with the
        # level offsets and the ones column that reaches 2e7, and both
        # paths are then up to about 1e-9 from a 40-digit reference
        tolerances = []
        for s, k, _, _ in want_fitted:
            m = scalar_reference.concentrate(panel.matrix(s), k, case)
            tolerances.append(max(1e-10, np.finfo(float).eps * np.linalg.cond(m.S11)))

        report = fit_specifications(panel, subsets, k_candidates=(3, 1, 2), case=case)
        assert [(s.subset, s.k) for s in report.specs] == [(s, k) for s, k, _, _ in want_fitted]
        assert [(r.subset, r.k, r.reason) for r in report.rejected] == want_rejected
        assert len(report.specs) + len(report.rejected) == 3 * len(subsets)
        assert {k for _, k, _, _ in want_fitted} == {1, 2, 3}
        for spec, (_, _, n1_model, equation), rtol in zip(report.specs, want_fitted, tolerances):
            got = spec.model
            what = f"{spec.subset} k={spec.k}"
            # a member of a group is its n=1 call, bit for bit
            assert_same_model(got, n1_model, what)
            model = scalar_reference.estimate_vecm(panel.matrix(spec.subset), spec.k, 1, case)
            for name in MODEL_ARRAYS + MODEL_SCALARS:
                assert_close(getattr(got, name), getattr(model, name), rtol, f"{name} of {what}")
            assert len(got.gamma) == len(model.gamma) == spec.k - 1
            for g, w in zip(got.gamma, model.gamma):
                assert_close(g, w, rtol, f"gamma of {what}")
            assert (got.vars, got.k, got.r, got.case, got.T_eff, got.n_params, got.wald_dof,
                    got.beta_source) == (spec.subset, model.k, model.r, model.case,
                                         model.T_eff, model.n_params, model.wald_dof,
                                         model.beta_source)
            assert spec.criteria == {"chi2": got.wald_chi2, "aic": got.aic, "bic": got.bic,
                                     "loglik": got.loglik}
            assert all(type(spec.criteria[c]) is float for c in spec.criteria)
            assert equation == spec.equation

    @pytest.mark.parametrize("case, seed", [("rconst", 5), ("uconst", 4)])
    def test_matches_40_digit_reference(self, case, seed):
        # every fitted spec's eigenvalues, beta, alpha and trace statistics
        # against the 40-digit chain, each within 1e-11 of the field's
        # largest entry: measured at most 3.0e-13 over the 42 rconst specs
        # and 2.0e-14 over the 28 uconst ones. The scalar-chain comparison
        # above covers the other fields
        pytest.importorskip("mpmath")
        panel = synthetic_log_panel(T=60, seed=seed)
        report = fit_specifications(panel, enumerate_specifications(min_size=2), (1, 2, 3),
                                    case=case)
        assert len(report.specs) == {"rconst": 42, "uconst": 28}[case]
        for spec in report.specs:
            got, what = spec.model, f"{spec.subset} k={spec.k}"
            lam, beta, alpha, trace = mp_reference.johansen(panel.matrix(spec.subset), spec.k,
                                                            case, 40)
            got_trace, _ = _stacked_trace_test(got.eigenvalues[None], got.T_eff, got.p, case)
            for name, value, want in (("eigenvalues", got.eigenvalues, lam[: got.p]),
                                      ("beta", got.beta[:, 0], beta[0]),
                                      ("alpha", got.alpha[:, 0], alpha),
                                      ("trace statistics", got_trace[0], trace)):
                assert_close(value, np.array(want, dtype=float), 1e-11, f"{name} of {what}")

    def test_one_fit_per_subset_size(self, monkeypatch):
        # every lag of a size shares one stack of moments: one _stacked_fit
        # and one gaussian_criteria per size with a rank-1 member, each over
        # that size's rank-1 members of every lag, and no per-spec
        # normalization
        from velakit import vecm

        fits, criteria = [], []
        fit, gaussian_criteria = vecm._stacked_fit, vecm.gaussian_criteria

        def counted_fit(L, beta, errors):
            fits.append((L.shape, beta.shape))
            return fit(L, beta, errors)

        def counted_criteria(sigma, T, n_params):
            criteria.append(np.array(T))
            return gaussian_criteria(sigma, T, n_params)

        monkeypatch.setattr(vecm, "_stacked_fit", counted_fit)
        monkeypatch.setattr(vecm, "gaussian_criteria", counted_criteria)
        monkeypatch.setattr(vecm, "normalize_cointegrating_equation", None)
        panel = synthetic_log_panel(T=60, seed=4)
        report = fit_specifications(panel, enumerate_specifications(min_size=2), (1, 2, 3))
        sizes = sorted({len(s.subset) for s in report.specs}, reverse=True)
        assert {s.k for s in report.specs} == {1, 2, 3}
        want = [sorted(60 - s.k for s in report.specs if len(s.subset) == p) for p in sizes]
        assert fits == [((len(T), 2 * p + 1, 2 * p + 1), (len(T), p + 1, 1))
                        for p, T in zip(sizes, want)]
        assert [sorted(T.tolist()) for T in criteria] == want
        assert any(len(set(T)) > 1 for T in want)

    def test_failing_groups_keep_the_scalar_records(self):
        # sd duplicates ed, so one member of the five-variable group is
        # degenerate; at k=8 the groups of size 4 and 5 are short of sample.
        # Each failing member records the error of its own n=1 call, and
        # the other members of its group are their n=1 fits
        base = synthetic_log_panel(T=40, seed=42)
        series = {v: base.series[v].copy() for v in VARIABLES}
        series["sd"] = series["ed"].copy()
        panel = LogLevelPanel(agency_id="DUP", years=base.years, series=series)
        subsets = [("sb", "gpc", "md", "ed", "sd"), ("sb", "gpc", "rd", "md", "ed"),
                   ("sb", "gpc", "md", "ed"), ("sb", "gpc", "md"), ("sb", "rd", "md")]
        ks = (1, 2, 8)
        want_fitted, want_rejected = n1_search(panel, subsets, ks, "rconst")
        failures = {(s, k): reason for s, k, reason in want_rejected
                    if not reason.startswith("selected rank")}
        assert {s for s, k in failures if k != 8} == {subsets[0]}
        assert failures[subsets[0], 1].startswith(
            "NotPositiveDefiniteError: degenerate moment matrix: non-positive-definite pivot")
        assert failures[subsets[0], 2].startswith(
            "SingularMatrixError: regressor matrix is rank deficient at column 4")
        assert {(len(s), k) for s, k in failures if k == 8} == {(5, 8), (4, 8)}
        assert all(reason.startswith("ValidationError: insufficient sample")
                   for (s, k), reason in failures.items() if k == 8)

        report = fit_specifications(panel, subsets, k_candidates=ks)
        assert [(r.subset, r.k, r.reason) for r in report.rejected] == want_rejected
        assert [(s.subset, s.k) for s in report.specs] == [(s, k) for s, k, _, _ in want_fitted]
        assert {(len(s), k) for s, k, _, _ in want_fitted} >= {(4, 1), (3, 1)}
        for spec, (_, _, model, equation) in zip(report.specs, want_fitted):
            assert_same_model(spec.model, model, f"{spec.subset} k={spec.k}")
            assert spec.equation == equation

        # the degenerate member's neighbour, fitted at rank 1 in the same
        # stack, is its n=1 fit
        z = np.stack([panel.matrix(s) for s in subsets[:2]])
        for k in (1, 2):
            B, moments, lam, candidates, _, _, errors = stacked_rank_test(z, k, "rconst")
            assert list(errors) == [0]
            beta = _stacked_phillips(candidates, 1, errors)
            models = _stacked_models(z, [subsets[0], subsets[1]], [k, k], B, 1, "rconst",
                                     *moments, lam, beta, errors)
            assert models[0] is None
            assert_same_model(models[1], estimate_vecm(panel, subsets[1], k=k, r=1),
                              f"{subsets[1]} k={k}")

    def test_short_subsets_and_bad_case_fall_back(self):
        panel = synthetic_log_panel(T=60, seed=4)
        report = fit_specifications(panel, [("sb",), ("sb", "gpc", "md")], k_candidates=(1,))
        assert report.rejected[0].subset == ("sb",)
        want_fitted, want_rejected = n1_search(panel, [("sb",), ("sb", "gpc", "md")],
                                               (1,), "rconst")
        assert [(r.subset, r.k, r.reason) for r in report.rejected] == want_rejected
        # an unknown case is an invalid argument, not a rejected spec
        with pytest.raises(ValidationError, match="case must be one of"):
            fit_specifications(panel, [("sb", "gpc")], case="nope")

    def test_empty_subset_is_a_rejected_spec(self):
        # the per-subset guard records it; the other subset still fits
        panel = synthetic_log_panel(T=60, seed=4)
        report = fit_specifications(panel, [("sb", "gpc", "md"), ()], k_candidates=(1,))
        assert [s.subset for s in report.specs] == [("sb", "gpc", "md")]
        assert [(r.subset, r.reason) for r in report.rejected] == [
            ((), "ValidationError: no variables given")]

    @pytest.mark.parametrize("ks", [(1, 0), (-1,), (1.0,), (1, "2"), (True,), (1, 1)])
    def test_invalid_lag_candidate_rejected_up_front(self, ks):
        panel = synthetic_log_panel(T=60, seed=4)
        with pytest.raises(ValidationError, match=f"k={ks[-1]!r}"):
            fit_specifications(panel, [("sb", "gpc", "md")], k_candidates=ks)


def duplicated_panel(T, seed):
    """The synthetic panel with sd a copy of ed: a subset holding both is
    degenerate, at any lag."""
    base = synthetic_log_panel(T=T, seed=seed)
    series = {v: base.series[v].copy() for v in VARIABLES}
    series["sd"] = series["ed"].copy()
    return LogLevelPanel(agency_id="DUP", years=base.years, series=series)


def single_lag_records(panel, subsets, k, case):
    """Each subset's record from fit_specifications at the one lag k: a
    FittedSpec, or the reason of its rejection. When no subset is
    admissible at k the call raises; its reasons are then the n=1 calls'."""
    try:
        report = fit_specifications(panel, subsets, (k,), case=case)
    except NoAdmissibleSpecError:
        fitted, rejected = n1_search(panel, subsets, (k,), case)
        assert not fitted
        return {s: reason for s, _, reason in rejected}
    return {r.subset: r if isinstance(r, FittedSpec) else r.reason
            for r in report.specs + report.rejected}


def assert_merges_single_lags(panel, subsets, ks, case):
    """fit_specifications over ks gives, record for record, the subset-major
    merge of its single-lag calls."""
    per_lag = {k: single_lag_records(panel, subsets, k, case) for k in ks}
    want = [(s, k, per_lag[k][s]) for s in subsets for k in sorted(ks)]
    want_fitted = [(s, k, r) for s, k, r in want if isinstance(r, FittedSpec)]
    want_rejected = [(s, k, r) for s, k, r in want if isinstance(r, str)]
    if not want_fitted:
        with pytest.raises(NoAdmissibleSpecError, match=f"[(]{len(want)} attempts[)]"):
            fit_specifications(panel, subsets, ks, case=case)
        return
    report = fit_specifications(panel, subsets, ks, case=case)
    assert [(r.subset, r.k, r.reason) for r in report.rejected] == want_rejected
    assert [(f.subset, f.k) for f in report.specs] == [(s, k) for s, k, _ in want_fitted]
    for got, (_, _, spec) in zip(report.specs, want_fitted):
        assert_same_model(got.model, spec.model, f"{got.subset} k={got.k}")
        assert (got.model.T_eff, got.model.n_params) == (spec.model.T_eff, spec.model.n_params)
        assert got.equation == spec.equation and got.criteria == spec.criteria


class TestMergedLags:
    """All lags of one subset size share one stack after concentration; a
    lag's records do not depend on which other lags share it."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(ks=st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True),
           case=st.sampled_from(["rconst", "uconst"]), seed=st.integers(0, 10**6),
           T=st.sampled_from([40, 60]),
           subsets=st.permutations(enumerate_specifications(min_size=2)),
           count=st.integers(1, 31))
    def test_records_are_the_single_lag_records(self, ks, case, seed, T, subsets, count):
        assert_merges_single_lags(duplicated_panel(T, seed), subsets[:count], ks, case)

    def test_member_errors_keep_their_lag(self):
        # the degenerate subset fails differently at each lag: in the k=1
        # eigenproblem, and in the k=2 concentration, whose error must land
        # on its k=2 member of the merged stack, not on its k=1 member
        panel = duplicated_panel(40, 42)
        subsets = [("sb", "gpc", "rd", "md", "ed"), ("sb", "gpc", "md", "ed", "sd"),
                   ("sb", "gpc", "md")]
        report = fit_specifications(panel, subsets, (2, 1))
        reasons = {(r.subset, r.k): r.reason for r in report.rejected}
        assert reasons[subsets[1], 1].startswith(
            "NotPositiveDefiniteError: degenerate moment matrix: non-positive-definite pivot")
        assert reasons[subsets[1], 2].startswith(
            "SingularMatrixError: regressor matrix is rank deficient at column 4")
        assert_merges_single_lags(panel, subsets, (2, 1), "rconst")

    def test_short_lag_fails_alone(self):
        # at k=8 the sizes 4 and 5 are short of sample; their other lags,
        # and the size-3 subsets at k=8, are still fitted
        panel = duplicated_panel(40, 42)
        subsets = [("sb", "gpc", "rd", "md", "ed"), ("sb", "gpc", "md", "ed"),
                   ("sb", "gpc", "rd", "md"), ("sb", "gpc", "md")]
        report = fit_specifications(panel, subsets, (1, 8))
        short = {(r.subset, r.k) for r in report.rejected
                 if r.reason.startswith("ValidationError: insufficient sample: T_eff=32")}
        assert short == {(s, 8) for s in subsets[:3]}
        assert {(f.subset, f.k) for f in report.specs} >= {(subsets[2], 1), (subsets[3], 1)}
        assert_merges_single_lags(panel, subsets, (1, 8), "rconst")

    def test_oversized_subset_fails_at_every_lag(self):
        # seven distinct columns exceed the critical-value table: one record
        # per lag, each with the reason of the one-system call
        panel = synthetic_log_panel(T=40, seed=42)
        z = np.column_stack([panel.matrix(), np.cumsum(rng_for(42, 7).standard_normal(40))])
        names = (*VARIABLES, "x")
        reason = "ValidationError: critical values tabulated up to dimension 6, got p=7"
        assert n1_search(z, [names], (1, 2), "rconst") == ([], [(names, 1, reason),
                                                                (names, 2, reason)])
        assert _fit_group(z[None], [names], [names], (1, 2), "rconst") == {
            (0, 1): RejectedSpec(names, 1, reason), (0, 2): RejectedSpec(names, 2, reason)}
        with pytest.raises(NoAdmissibleSpecError, match="[(]2 attempts[)]"):
            fit_specifications(z, [names], (1, 2))

    def test_repeated_variable_fails_at_every_lag(self):
        # a subset naming sb twice is an invalid input: the search records the
        # error concentrate raises for it at each lag, before any dimension check
        panel = synthetic_log_panel(T=40, seed=42)
        subsets = [("sb", "gpc", "rd", "md", "ed", "sd", "sb"), ("sb", "gpc", "md")]
        with pytest.raises(ValidationError, match=r"repeated variables \['sb'\]") as n1:
            concentrate(panel, subsets[0], k=2)
        reason = f"ValidationError: {n1.value}"
        report = fit_specifications(panel, subsets, (1, 2))
        assert [(r.subset, r.k, r.reason) for r in report.rejected][:2] == [
            (subsets[0], 1, reason), (subsets[0], 2, reason)]
        assert_merges_single_lags(panel, subsets, (1, 2), "rconst")

    def test_lag_at_the_column_cap_fits(self):
        # at k=33 two series leave 64 short-run regressors, the column cap.
        # The concentration takes them, and the fit adds no column to that
        # regression, so the lag fits, alone and merged with k=1, and equals
        # lstsq on the full 65-column conditional design
        z = np.stack([generate_vecm_data(random_walk_spec(2, 110, seed=9), rep)
                      for rep in range(3)])
        names = [("y0", "y1")] * 6
        B, moments, lam, candidates, _, _, errors = stacked_rank_test(z, 33, "rconst")
        beta = _stacked_phillips(candidates, 1, errors)
        single = _stacked_models(z, names[:3], [33] * 3, B, 1, "rconst", *moments, lam, beta,
                                 errors)
        assert errors == {}

        lags = [_stacked_concentrate(z, k, "rconst") for k in (1, 33)]
        L, shift = (np.concatenate(m) for m in zip(lags[0][1:3], lags[1][1:3]))
        lam, candidates = _stacked_eigenproblem(L, 2, errors, vectors=True)
        beta = _stacked_phillips(candidates, 1, errors)
        merged = _stacked_models(np.concatenate([z, z]), names, [1] * 3 + [33] * 3,
                                 [*lags[0][0], *lags[1][0]], 1, "rconst", L, shift, lam, beta,
                                 errors)
        assert errors == {}
        for i in range(3):
            assert_same_model(merged[i], estimate_vecm(z[i], k=1, r=1), f"k=1 member {i}")
            assert_same_model(merged[3 + i], single[i], f"k=33 member {i}")
            model = estimate_vecm(z[i], k=33, r=1)
            assert_same_model(model, single[i], f"k=33 member {i}")
            dz = np.diff(z[i], axis=0)
            level = np.column_stack([z[i, 32:-1], np.ones(77)])
            design = np.column_stack([level @ model.beta]
                                     + [dz[32 - j : -j] for j in range(1, 33)])
            coef = np.linalg.lstsq(design, dz[32:], rcond=None)[0]
            gamma = np.vstack([g.T for g in model.gamma])
            for got, want in ((model.alpha.T, coef[:1]), (gamma, coef[1:])):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("subsets, ks, what", [
        ([], (1, 2), "subsets"), ([("sb", "gpc")], (), "k_candidates")])
    def test_empty_request_rejected_up_front(self, subsets, ks, what):
        # an empty request is an invalid argument, not a search outcome
        with pytest.raises(ValidationError, match=f"{what} is empty"):
            fit_specifications(synthetic_log_panel(T=60, seed=4), subsets, k_candidates=ks)
