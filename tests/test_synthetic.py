import contextlib
import dataclasses
import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mp_reference
import scalar_reference
from velakit import synthetic
from velakit.errors import ValidationError, VelakitError
from velakit.johansen import concentrate, rank_test
from velakit.synthetic import (
    BURN_IN,
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
from velakit.vecm import estimate_vecm

RANK_ONE = dict(alpha_true=[[-0.4], [0.2], [0.1]], beta_true=[[1.0], [-2.0], [0.5]])


@contextlib.contextmanager
def switch_interval(seconds):
    """The interpreter's thread switch interval set to ``seconds`` (None
    leaves it), and restored on the way out."""
    default = sys.getswitchinterval()
    if seconds is not None:
        sys.setswitchinterval(seconds)
    try:
        yield
    finally:
        sys.setswitchinterval(default)


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs, in order."""
    started, start = [], threading.Thread.start

    def recording(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


def assert_joined(threads):
    """None of ``threads`` is alive now; each is then joined, so a failing
    check leaves no thread behind."""
    alive = [thread.name for thread in threads if thread.is_alive()]
    for thread in threads:
        thread.join(timeout=30)
    assert not alive
    assert not any(thread.is_alive() for thread in threads)


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

    @pytest.mark.parametrize("T", [0, -5, 2.5, True, "400"])
    def test_sample_size_below_one_or_not_integer_rejected(self, T):
        with pytest.raises(ValidationError, match=f"T must be an integer >= 1, got {T!r}"):
            study_spec(T=T)

    @pytest.mark.parametrize("seed", [1.5, True, "7"])
    def test_seed_not_integer_rejected(self, seed):
        message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValidationError, match=message):
            study_spec(seed=seed)

    def test_numpy_integer_seed_is_its_int(self):
        spec = study_spec(T=20, seed=np.int64(-3))
        assert type(spec.seed) is int
        assert np.array_equal(generate_vecm_data(spec, 2),
                              generate_vecm_data(study_spec(T=20, seed=-3), 2))

    @pytest.mark.parametrize("field, value", [
        ("noise_scale", np.nan), ("noise_scale", np.inf), ("noise_scale", -1.0),
        ("noise_scale", "1"), ("noise_scale", True),
        ("ec_noise_scale", -1e-4), ("ec_noise_scale", np.nan), ("ec_noise_scale", np.inf),
    ])
    def test_noise_scale_not_a_finite_nonnegative_number_rejected(self, field, value):
        # a NaN noise_scale used to simulate all-zero levels, since
        # noise_scale > 0 is False for NaN
        message = f"^{field} must be a finite number >= 0, got {re.escape(repr(value))}$"
        with pytest.raises(ValidationError, match=message):
            SyntheticSpec(p=3, r=1, **RANK_ONE, T=60, **{field: value})

    @pytest.mark.parametrize("mu", [[0.0, np.nan, 0.0], [np.inf, 0.0, 0.0], [0.0, 0.0, -np.inf]])
    def test_mu_not_finite_rejected(self, mu):
        with pytest.raises(ValidationError, match="^mu_true must be finite"):
            SyntheticSpec(p=3, r=1, **RANK_ONE, mu_true=mu, T=60)

    @pytest.mark.parametrize("field, value, message", [
        ("alpha_true", [[-0.4], [0.2]], r"alpha_true must have shape \(3, 1\), got \(2, 1\)"),
        ("alpha_true", [-0.4, 0.2, 0.1], r"alpha_true must have shape \(3, 1\), got \(3,\)"),
        ("alpha_true", [[-0.4], [np.nan], [0.1]], "alpha_true must be finite"),
        ("alpha_true", "a", "alpha_true must be a finite array of shape"),
        ("beta_true", [[1.0, 0.0], [-2.0, 0.0], [0.5, 0.0]],
         r"beta_true must have shape \(3, 1\), got \(3, 2\)"),
        ("beta_true", [[1.0], [-np.inf], [0.5]], "beta_true must be finite"),
        ("gamma_true", (np.eye(2),), r"gamma_true\[0\] must have shape \(3, 3\), got \(2, 2\)"),
        ("gamma_true", (0.1 * np.eye(3), np.full((3, 3), np.nan)), r"gamma_true\[1\] must be finite"),
        ("gamma_true", None, "gamma_true must be a tuple of p x p arrays, got NoneType"),
        ("gamma_true", 0.1 * np.eye(3), "gamma_true must be a tuple of p x p arrays, got ndarray"),
        ("mu_true", [0.0, 0.0], r"mu_true must have shape \(3,\), got \(2,\)"),
    ])
    def test_matrix_of_wrong_shape_or_not_finite_rejected(self, field, value, message):
        # a short alpha_true raised a bare ValueError from its reshape, a 2 x 2
        # gamma_true one from broadcasting, and a NaN "A contains non-finite
        # entries" from the companion matrix, naming no field
        with pytest.raises(ValidationError, match=f"^{message}"):
            SyntheticSpec(**{"p": 3, "r": 1, **RANK_ONE, "T": 60, field: value})

    def test_rank_checked_before_the_matrices(self):
        with pytest.raises(ValidationError, match="^rank must satisfy 0 <= r <= p-1, got r=3"):
            SyntheticSpec(p=3, r=3, **RANK_ONE, T=60)

    @pytest.mark.parametrize("field, value", [("p", 3.0), ("p", True), ("p", "3"),
                                              ("r", True), ("r", 1.0), ("r", None)])
    def test_dimension_or_rank_not_integer_rejected(self, field, value):
        # p=3.0 and r=True raised a bare TypeError from the reshape
        message = f"^{field} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValidationError, match=message):
            SyntheticSpec(**{"p": 3, "r": 1, **RANK_ONE, "T": 60, field: value})

    def test_numpy_scales_and_dimensions_accepted(self):
        spec = SyntheticSpec(p=np.int64(3), r=np.int32(1), **RANK_ONE, T=60, seed=2,
                             noise_scale=np.float64(1.0), ec_noise_scale=np.float32(0.5))
        assert (type(spec.p), type(spec.r)) == (int, int)
        want = SyntheticSpec(p=3, r=1, **RANK_ONE, T=60, seed=2, ec_noise_scale=0.5)
        assert np.array_equal(generate_vecm_data(spec), generate_vecm_data(want))

    def test_generator_id_is_fixed(self):
        assert study_spec().generator_id == synthetic.GENERATOR_ID
        with pytest.raises(TypeError):
            SyntheticSpec(p=2, r=0, alpha_true=np.zeros((2, 0)), beta_true=np.zeros((2, 0)),
                          generator_id="other")


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

    @pytest.mark.parametrize("rep", [-1, -(2**70), 1.0, True])
    def test_replication_index_below_zero_or_not_integer_rejected(self, rep):
        with pytest.raises(ValidationError, match="rep must be an integer >= 0"):
            generate_vecm_data(study_spec(T=20), rep)

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

    @pytest.mark.parametrize("spec", [
        study_spec(T=60, seed=3),
        SyntheticSpec(p=3, r=1, **RANK_ONE, mu_true=[0.1, 0.0, -0.2], T=60, seed=4,
                      gamma_true=([[0.3, 0.1, 0.0], [0.0, 0.2, 0.1], [0.1, 0.0, 0.25]],
                                  [[-0.1, 0.0, 0.05], [0.0, 0.1, 0.0], [0.0, 0.0, -0.1]])),
        SyntheticSpec(p=3, r=1, **RANK_ONE, ec_noise_scale=1e-4, T=60, seed=5),
        dataclasses.replace(random_walk_spec(2, 60, seed=6), noise_scale=0.5),
    ], ids=["k1", "k3-mu", "ec-noise", "rank0"])
    def test_matches_per_step_recursion(self, spec):
        # the error-correction form, one step and one replication at a time
        k, total = spec.k, spec.T + 50 + spec.k
        eta = rng_for(spec.seed, 2).standard_normal((total, spec.p))
        if spec.ec_noise_scale is None:
            noise = spec.noise_scale * eta
        else:
            q, _ = np.linalg.qr(spec.beta_true)
            inside = eta @ q @ q.T
            noise = spec.noise_scale * (eta - inside) + spec.ec_noise_scale * inside
        pi = spec.alpha_true @ spec.beta_true.T
        want = np.zeros((total, spec.p))
        for t in range(k, total):
            dz = pi @ want[t - 1] + spec.mu_true + noise[t]
            for i, g in enumerate(spec.gamma_true, start=1):
                dz += g @ (want[t - i] - want[t - i - 1])
            want[t] = want[t - 1] + dz
        got = generate_vecm_data(spec, 2)
        np.testing.assert_allclose(got, want[-spec.T :], rtol=1e-9, atol=1e-12)

    def test_seed_mixing_is_documented_rule(self):
        assert replication_seed(0, 0) != replication_seed(0, 1)
        assert replication_seed(5, 0) == replication_seed(5, 0)

    @pytest.mark.parametrize("seed", [0, 3, -3, 2**31, -(2**63), 2**63 - 1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("index", [0, 5, -1, 2**63 - 1, 2**63 + 7])
    def test_numpy_integers_draw_as_their_ints(self, seed, index):
        # every numpy integer type that holds the value, int64 and uint64
        # past 2**63 included, seeds the stream of the equal int
        def kinds(value):
            return [int, *(t for t, lo, hi in ((np.int64, -(2**63), 2**63),
                                               (np.uint64, 0, 2**64)) if lo <= value < hi)]
        want = rng_for(seed, index).standard_normal(8)
        for seed_type in kinds(seed):
            for index_type in kinds(index):
                got = rng_for(seed_type(seed), index_type(index)).standard_normal(8)
                assert np.array_equal(got, want), (seed_type, index_type)
        # seeds and indices are taken mod 2**64
        assert replication_seed(seed % 2**64, index % 2**64) == replication_seed(seed, index)


EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]


class TestReplicationStreams:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
           indices=st.one_of(st.just([]), st.integers(0, 10**6).map(lambda i: [i]),
                             st.lists(st.integers(0, 10**6), max_size=12)))
    def test_streams_are_the_replications_own_generators(self, seed, indices):
        # same PCG64 state and the same first 64 normals as each replication's
        # own default_rng, for any seed and any (unsorted, gapped) indices
        count = 0
        for index, rng in zip(indices, synthetic._replication_streams(seed, indices)):
            want = np.random.default_rng(replication_seed(seed, index))
            assert rng.bit_generator.state == want.bit_generator.state
            assert np.array_equal(rng.standard_normal(64), want.standard_normal(64))
            count += 1
        assert count == len(indices)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(seeds=st.lists(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
                          min_size=1, max_size=10))
    def test_states_match_numpy_seeding(self, seeds):
        # raw seeds reach the one-word entropy of a seed below 2**32, which
        # mixed replication seeds practically never do
        got = synthetic._pcg64_states(np.array(seeds, dtype=np.uint64))
        assert [{"state": state, "inc": inc} for state, inc in got] == [
            np.random.PCG64(seed).state["state"] for seed in seeds]

    @pytest.mark.parametrize("indices", [[5], [5, 0, 9]])
    def test_streams_draw_as_rng_for(self, indices, monkeypatch):
        if len(indices) == 1:  # a lone stream is numpy's own PCG64: no states computed
            monkeypatch.setattr(synthetic, "_pcg64_states", None)
        streams = synthetic._replication_streams(11, indices)
        for index, rng in zip(indices, streams, strict=True):
            want = rng_for(11, index)
            assert np.array_equal(rng.standard_normal((40, 3)), want.standard_normal((40, 3)))
            assert rng.integers(2**62) == want.integers(2**62)

    def test_seeding_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(synthetic, "_pcg64_states", lambda seeds: [(1, 1)] * len(seeds))
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__} seeds PCG64"):
            next(synthetic._replication_streams(3, range(4)))


# a rank-1 family that is valid for every p in 2..6 and k in 1..3
FAMILY_ALPHA = [-0.4, 0.2, 0.1, 0.0, -0.1, 0.05]
FAMILY_BETA = [1.0, -2.0, 0.5, 0.25, 0.0, -0.5]
FAMILY_GAMMA = (0.3, -0.15)


def family_spec(p, k, T, seed, drift=False, ec_noise_scale=None):
    return SyntheticSpec(
        p=p, r=1, alpha_true=np.array(FAMILY_ALPHA[:p])[:, None],
        beta_true=np.array(FAMILY_BETA[:p])[:, None],
        gamma_true=tuple(g * np.eye(p) for g in FAMILY_GAMMA[: k - 1]),
        mu_true=np.linspace(-0.2, 0.3, p) if drift else None,
        ec_noise_scale=ec_noise_scale, T=T, seed=seed,
    )


class TestTimeMajorSimulator:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(p=st.integers(2, 6), k=st.integers(1, 3), T=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1), drift=st.booleans(),
           ec_noise_scale=st.sampled_from([None, 1e-3]), size=st.integers(1, 70),
           offset=st.integers(0, 10**6), spare=st.integers(0, 3), data=st.data())
    def test_levels_do_not_depend_on_the_block(self, p, k, T, seed, drift, ec_noise_scale,
                                               size, offset, spare, data):
        spec = family_spec(p, k, T, seed, drift, ec_noise_scale)
        block = range(offset, offset + size)
        # a buffer with room for more replications, as a ragged last block gets
        buffer = np.full((size + spare) * (T + BURN_IN + k) * p, np.nan)
        got = synthetic._simulate(spec, block, buffer)
        assert got.shape == (T, p, size)
        j = data.draw(st.integers(0, size - 1), label="column")
        assert np.array_equal(got[:, :, j], generate_vecm_data(spec, block[j]))
        want = scalar_reference.simulate_reference(spec, block)
        got = got.transpose(2, 0, 1)
        if k * p < 8:
            assert np.array_equal(got, want)
        else:
            # the window sum of the reference runs in another order from 8 terms on
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_generate_returns_contiguous_levels(self):
        z = generate_vecm_data(family_spec(4, 2, T=40, seed=9), 3)
        assert z.shape == (40, 4) and z.flags.c_contiguous

    def test_ragged_simulation_block_matches_reference_fit_blocks(self, monkeypatch):
        # 301 replications: one full simulation block and a ragged one of 45
        spec = study_spec(T=120, seed=41)
        study = run_recovery_study(spec, reps=301)
        # the same study from the reference simulator, in stacks of one slice
        monkeypatch.setattr(synthetic, "SIM_BLOCK", synthetic.FIT_BLOCK)
        monkeypatch.setattr(synthetic, "_simulate", lambda spec, reps, buffer: (
            scalar_reference.simulate_reference(spec, reps).transpose(1, 2, 0)))
        want = run_recovery_study(spec, reps=301)
        assert study.per_rep == want.per_rep
        assert study.alpha_rmse == want.alpha_rmse


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

    @pytest.mark.parametrize("p_minus_r", [0, 7])
    def test_dimension_outside_table_rejected(self, p_minus_r):
        with pytest.raises(ValidationError, match="p_minus_r"):
            monte_carlo_critical_values(p_minus_r, "rconst", reps=1000, T=400)

    @pytest.mark.parametrize("name, value", [
        ("reps", 1500.0), ("T", 400.5), ("seed", 1.5), ("seed", True),
        ("reps", np.float64(2000)), ("p_minus_r", 2.0), ("T", "400"),
    ])
    def test_integer_arguments_not_integers_rejected(self, name, value):
        args = dict(p_minus_r=1, case="rconst", reps=1000, T=400, seed=0)
        message = f"^{name} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValidationError, match=message):
            monte_carlo_critical_values(**{**args, name: value})

    def test_numpy_integer_arguments_accepted(self, monkeypatch):
        monkeypatch.setattr(synthetic, "BOOTSTRAP", 5)
        args = dict(p_minus_r=1, case="rconst", reps=1000, T=400)
        want = monte_carlo_critical_values(**args, seed=-3, keep_statistics=True)
        got = monte_carlo_critical_values(
            **{name: np.int64(value) if isinstance(value, int) else value
               for name, value in args.items()}, seed=np.int64(-3), keep_statistics=True)
        assert np.array_equal(got.statistics, want.statistics)
        assert got.bootstrap_se == want.bootstrap_se


@pytest.fixture(scope="module")
def ragged_study():
    # 1001 replications and 45 resamples leave a partial last block in both loops
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthetic, "BOOTSTRAP", 45)
        return monte_carlo_critical_values(2, "uconst", reps=1001, T=400, seed=13,
                                           keep_statistics=True)


class TestBlockedCriticalValueStudy:
    def test_statistics_match_single_replication_runs(self, ragged_study):
        want = np.array([
            rank_test(concentrate(np.cumsum(rng_for(13, rep).standard_normal((400, 2)) + 1.0,
                                            axis=0), k=1, case="uconst")).trace_stats[0]
            for rep in range(1001)
        ])
        # bit for bit: a replication's statistic does not depend on its block
        assert np.array_equal(ragged_study.statistics, want)

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

    @pytest.mark.parametrize("switch", [None, 1e-6], ids=["switch-default", "switch-1us"])
    @pytest.mark.parametrize("fit_block", [1, 7, 64])
    @pytest.mark.parametrize("slices", [1, 3, None], ids=["stack1", "stack3", "stackall"])
    def test_block_sizes_do_not_change_the_study(self, ragged_study, fit_block, slices, switch,
                                                 monkeypatch):
        # a stack of one slice, of three, and of every replication; the
        # reference study, in stacks of 256 and slices of 64, is the one the
        # tests above check exactly. Small stacks draw on the worker thread,
        # also when the interpreter switches threads every microsecond
        monkeypatch.setattr(synthetic, "FIT_BLOCK", fit_block)
        monkeypatch.setattr(synthetic, "SIM_BLOCK", 2048 if slices is None else slices * fit_block)
        monkeypatch.setattr(synthetic, "BOOTSTRAP", 45)
        with switch_interval(switch):
            study = monte_carlo_critical_values(2, "uconst", reps=1001, T=400, seed=13,
                                                keep_statistics=True)
        assert np.array_equal(study.statistics, ragged_study.statistics)
        assert study.percentiles == ragged_study.percentiles
        assert study.bootstrap_se == ragged_study.bootstrap_se

    @pytest.mark.parametrize("reps", [2000, 5000])
    def test_one_eigenproblem_per_moment_stack(self, reps, monkeypatch):
        calls = {"_stacked_concentrate": [], "_stacked_eigenproblem": []}
        for name, members in calls.items():
            def counted(*args, real=getattr(synthetic, name), members=members, **kwargs):
                members.append(len(args[0]))
                return real(*args, **kwargs)
            monkeypatch.setattr(synthetic, name, counted)
        monkeypatch.setattr(synthetic, "BOOTSTRAP", 2)
        monte_carlo_critical_values(1, "rconst", reps=reps, T=400)
        stacks = [min(synthetic.SIM_BLOCK, reps - lo)
                  for lo in range(0, reps, synthetic.SIM_BLOCK)]
        assert calls["_stacked_concentrate"] == [
            min(synthetic.FIT_BLOCK, n - lo) for n in stacks
            for lo in range(0, n, synthetic.FIT_BLOCK)]
        # ceil(reps / SIM_BLOCK) passes, each of at most SIM_BLOCK members
        assert calls["_stacked_eigenproblem"] == stacks


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

    def test_case_checked_before_simulating(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("simulated before the case was checked")
        monkeypatch.setattr(synthetic, "_simulate", unreachable)
        with pytest.raises(ValidationError, match="case"):
            run_recovery_study(study_spec(T=120), reps=100, case="trend")

    @pytest.mark.parametrize("reps", [150.0, True, "150"])
    def test_reps_not_an_integer_rejected(self, reps):
        with pytest.raises(ValidationError, match=f"^reps must be an integer, got {reps!r}$"):
            run_recovery_study(study_spec(T=120), reps=reps)

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


def scalar_replication(spec, rep, case):
    """One replication of the study on the scalar reference: rank test, fit, angle."""
    z = generate_vecm_data(spec, rep)
    trace, rank = scalar_reference.rank_test(z, spec.k, case)
    model = scalar_reference.estimate_vecm(z, spec.k, spec.r, case)
    return (trace[0], rank, subspace_angle_deg(model.beta_variables(), spec.beta_true),
            np.mean((model.alpha - spec.alpha_true) ** 2))


def mp_replication(z, spec, case):
    """One replication of a rank-1 study from the 50-digit eigenproblem
    (mp_reference): rank-0 trace, angle and mean squared alpha error."""
    _, beta, alpha, trace = mp_reference.johansen(z, spec.k, case, 50)
    b = np.array([[float(v)] for v in beta[0][: spec.p]])
    angle = subspace_angle_deg(b, spec.beta_true)
    return float(trace[0]), angle, np.mean((np.array(alpha, dtype=float) - spec.alpha_true[:, 0]) ** 2)


def n1_replication(z, spec, case):
    """One replication through the public n=1 calls (raises its error)."""
    rank_test(concentrate(z, k=spec.k, case=case))
    estimate_vecm(z, k=spec.k, r=spec.r, case=case)


P4_R2 = dict(p=4, r=2, alpha_true=[[-0.3, 0.1], [0.1, -0.4], [0.2, 0.1], [0.0, 0.2]],
             beta_true=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [0.5, -1.0]])


class TestBlockedRecoveryStudy:
    # 101 replications: one full slice of 64 and a partial one
    @pytest.mark.parametrize("spec, case", [
        (study_spec(T=150, seed=31), "rconst"),
        (study_spec(T=150, seed=32), "uconst"),
        (SyntheticSpec(p=3, r=1, **RANK_ONE, T=150, seed=33,
                       gamma_true=([[0.3, 0.1, 0.0], [0.0, 0.2, 0.1], [0.1, 0.0, 0.25]],)),
         "rconst"),
        (SyntheticSpec(**P4_R2, T=150, seed=34), "rconst"),
        (SyntheticSpec(p=3, r=1, **RANK_ONE, ec_noise_scale=1e-4, T=100, seed=23), "rconst"),
    ], ids=["rconst", "uconst", "k2-gamma", "p4-r2", "ec-noise"])
    def test_matches_scalar_path_per_replication(self, spec, case):
        trace, ranks, angles, alpha_sq = (
            np.array(col) for col in zip(*(scalar_replication(spec, rep, case) for rep in range(101))))
        rtol, alpha_rtol = 1e-10, 1e-9
        if spec.ec_noise_scale is not None:
            # lambda_1 is within about 1e-8 of 1, so the traces, angles and
            # alpha errors are checked against 50-digit values: the study's
            # centred moments measured up to 1.2e-6 (traces), 3.2e-10 degrees
            # (angles) and 8.2e-9 (alpha RMSE, whose b'S11 b is about 1e-8)
            # off them; the scalar path's uncentred ones 1.1e-5, 1.8e-9 and 9.7e-9
            pytest.importorskip("mpmath")
            trace, angles, alpha_sq = (np.array(col) for col in zip(*(
                mp_replication(generate_vecm_data(spec, rep), spec, case) for rep in range(101))))
            rtol, alpha_rtol = 3e-6, 2e-8
        study = run_recovery_study(spec, reps=101, case=case)
        rows = study.per_rep
        assert [row["rep"] for row in rows] == list(range(101))
        np.testing.assert_allclose([row["trace_r0"] for row in rows], trace, rtol=rtol, atol=0.0)
        np.testing.assert_allclose([row["beta_angle_deg"] for row in rows], angles,
                                   rtol=0.0, atol=1e-9)
        assert [row["selected_rank"] for row in rows] == ranks.tolist()
        assert study.rank_accuracy == np.mean(ranks == spec.r)
        assert study.alpha_rmse == pytest.approx(np.sqrt(np.mean(alpha_sq)), rel=alpha_rtol)
        assert study.beta_angle_median_deg == pytest.approx(np.median(angles), abs=1e-9)

    @pytest.mark.parametrize("spec", [
        dataclasses.replace(study_spec(T=100, seed=36), noise_scale=0.0),
        # no innovation inside the cointegration space: beta_true'z_t = 0 in
        # exact arithmetic, so S11 is singular
        SyntheticSpec(p=3, r=1, **RANK_ONE, ec_noise_scale=0.0, T=100, seed=20),
    ], ids=["noiseless", "ec-noise"])
    def test_failure_raises_the_scalar_error(self, spec):
        for failing in range(100):
            try:
                n1_replication(generate_vecm_data(spec, failing), spec, "rconst")
            except VelakitError as exc:
                want = exc
                break
        else:
            pytest.fail("the n=1 calls fit every replication")
        # the blocked study fails at the same replication, with its error
        with pytest.raises(VelakitError) as blocked:
            run_recovery_study(spec, reps=100)
        assert blocked.type is type(want)
        assert str(blocked.value) == str(want)


class TestRecoveryBlocks:
    """A replication's row does not depend on its simulation block, its
    concentration slice or its moment stack."""

    @pytest.fixture(scope="class")
    def study300(self):
        # a full simulation block of 256 and a ragged one of 44
        return run_recovery_study(study_spec(T=120, seed=42), reps=300)

    def test_rows_do_not_depend_on_the_number_of_replications(self, study300):
        study = run_recovery_study(study_spec(T=120, seed=42), reps=100)
        assert study.per_rep == study300.per_rep[:100]

    @pytest.mark.parametrize("switch", [None, 1e-6], ids=["switch-default", "switch-1us"])
    @pytest.mark.parametrize("sim_block, fit_block", [(64, 7), (300, 300), (1, 1)])
    def test_block_sizes_do_not_change_the_study(self, study300, sim_block, fit_block, switch,
                                                 monkeypatch):
        # stacks of 64 and of 1 simulate on the worker thread, also when the
        # interpreter switches threads every microsecond
        monkeypatch.setattr(synthetic, "SIM_BLOCK", sim_block)
        monkeypatch.setattr(synthetic, "FIT_BLOCK", fit_block)
        with switch_interval(switch):
            study = run_recovery_study(study_spec(T=120, seed=42), reps=300)
        assert study.per_rep == study300.per_rep
        assert (study.rank_accuracy, study.beta_angle_median_deg, study.alpha_rmse) == (
            study300.rank_accuracy, study300.beta_angle_median_deg, study300.alpha_rmse)

    def test_one_pass_per_simulation_block(self, monkeypatch):
        calls = {name: [] for name in ("_stacked_concentrate", "_stacked_eigenproblem",
                                       "_stacked_fit", "_angles_deg")}
        for name, members in calls.items():
            def counted(*args, real=getattr(synthetic, name), members=members, **kwargs):
                members.append(len(args[0]))
                return real(*args, **kwargs)
            monkeypatch.setattr(synthetic, name, counted)
        run_recovery_study(study_spec(T=120, seed=42), reps=300)
        slices = [min(synthetic.FIT_BLOCK, n - lo) for n in (256, 44)
                  for lo in range(0, n, synthetic.FIT_BLOCK)]
        assert calls.pop("_stacked_concentrate") == slices
        assert calls == {name: [256, 44] for name in calls}

    def test_lowest_failing_replication_raises_its_error(self, started_threads, monkeypatch):
        # replication 150 (third slice of the first simulation block) draws
        # zeros, so its levels are constant and S11 singular, which the
        # eigenproblem finds; replication 200 draws a NaN, which its slice's
        # concentration flags earlier in the pass. The lower one's error
        # wins, also from the second stack when stacks hold 100
        real = synthetic._replication_streams
        spec = study_spec(T=120, seed=42)

        class Rigged:
            def __init__(self, rng, fill):
                self.rng, self.fill = rng, fill

            def standard_normal(self, out):
                self.rng.standard_normal(out=out)
                out[...] = self.fill
                return out

        def rigged(seed, indices):
            for index, rng in zip(indices, real(seed, indices)):
                yield Rigged(rng, {150: 0.0, 200: np.nan}[index]) \
                    if index in (150, 200) else rng

        monkeypatch.setattr(synthetic, "_replication_streams", rigged)
        z = synthetic._simulate(spec, range(150, 151))[:, :, 0]
        assert not z.any()
        with pytest.raises(VelakitError) as want:
            n1_replication(z, spec, "rconst")
        for sim_block in (synthetic.SIM_BLOCK, 100):
            monkeypatch.setattr(synthetic, "SIM_BLOCK", sim_block)
            with pytest.raises(VelakitError) as blocked:
                run_recovery_study(spec, reps=300)
            # the next stack's worker, simulating while the failing stack was
            # fitted, has been joined
            assert_joined(started_threads)
            assert blocked.type is type(want.value) and str(blocked.value) == str(want.value)
        assert "degenerate moment matrix" in str(want.value)


class TestBlockedCriticalValues:
    @pytest.mark.parametrize("case", ["rconst", "uconst"])
    def test_failing_replication_raises_its_error(self, case, started_threads, monkeypatch):
        # replication 101 (second slice of 64) draws a second series that
        # repeats the first, so its level moments are singular; replication
        # 900 draws a non-finite value, which the concentration flags before
        # the eigenproblem sees replication 101, in a later stack of 256 or,
        # with a stack of 2048, in the same one. With stacks of 64 the lowest
        # failure lies in the second stack, after a first that fits
        real = synthetic._replication_streams

        class Repeating:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, out):
                self.rng.standard_normal(out=out)
                out[:, 1] = out[:, 0]
                return out

        class NonFinite(Repeating):
            def standard_normal(self, out):
                self.rng.standard_normal(out=out)
                out[200, 0] = np.nan
                return out

        def rigged(seed, indices):
            for index, rng in zip(indices, real(seed, indices)):
                yield {101: Repeating, 900: NonFinite}.get(index, lambda rng: rng)(rng)

        monkeypatch.setattr(synthetic, "_replication_streams", rigged)
        z = np.empty((400, 2))
        Repeating(rng_for(5, 101)).standard_normal(out=z)
        z = np.cumsum(z + (1.0 if case == "uconst" else 0.0), axis=0)
        with pytest.raises(VelakitError) as want:
            rank_test(concentrate(z, k=1, case=case))
        for sim_block in (synthetic.SIM_BLOCK, 2048, 64):
            monkeypatch.setattr(synthetic, "SIM_BLOCK", sim_block)
            with pytest.raises(VelakitError) as blocked:
                monte_carlo_critical_values(p_minus_r=2, case=case, reps=1000, T=400, seed=5)
            assert_joined(started_threads)
            assert blocked.type is type(want.value)
            assert str(blocked.value) == str(want.value)


class TestNextStackWorker:
    """The next stack's levels are drawn on the study's one worker thread
    while a stack is fitted; its errors and its lifetime stay within the
    study."""

    STUDIES = {
        "cv": lambda: monte_carlo_critical_values(2, "rconst", reps=1000, T=400, seed=5),
        "recovery": lambda: run_recovery_study(study_spec(T=120, seed=42), reps=300),
    }

    @pytest.mark.parametrize("study", STUDIES)
    def test_error_drawing_the_next_stack_raises_after_this_stack(self, study, started_threads,
                                                                 monkeypatch):
        # replication 280 lies in the second stack of 256
        error = RuntimeError("stream 280 failed")
        real_streams, real_study = synthetic._replication_streams, synthetic._stacked_study

        class Failing:
            def standard_normal(self, out):
                raise error

        def rigged(seed, indices):
            for index, rng in zip(indices, real_streams(seed, indices)):
                yield Failing() if index == 280 else rng

        yielded = []

        def recording(*args):
            for row in real_study(*args):
                yielded.append(row[0])
                yield row

        monkeypatch.setattr(synthetic, "_replication_streams", rigged)
        monkeypatch.setattr(synthetic, "_stacked_study", recording)
        with pytest.raises(RuntimeError) as raised:
            self.STUDIES[study]()
        assert_joined(started_threads)
        assert raised.value is error
        assert yielded == [0]

    @pytest.mark.parametrize("study", STUDIES)
    def test_one_thread_draws_every_later_stack(self, study, started_threads):
        # the cv study's four stacks and the recovery study's two
        self.STUDIES[study]()
        assert len(started_threads) == 1
        assert_joined(started_threads)

    def test_closed_study_joins_its_worker(self, started_threads):
        def levels(start, n, buffer):
            if start:  # the worker's draw outlasts the first stack's fit
                time.sleep(0.5)
            return np.cumsum(rng_for(3, start).standard_normal((n, 50, 2)), axis=1)

        study = synthetic._stacked_study(levels, 2 * synthetic.SIM_BLOCK, 1, "rconst", 0, 100)
        assert next(study)[0] == 0
        assert [thread.is_alive() for thread in started_threads] == [True]
        study.close()
        assert_joined(started_threads)
