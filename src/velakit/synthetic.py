"""Seeded generators for cointegrated systems and Monte Carlo harnesses.

Ground truth for the estimators: data are simulated forward from the
error-correction recursion with Gaussian innovations, and each replication
draws from its own stream, ``rng_for(seed, index)``, a default_rng seeded
with a 64-bit mix of (seed, replication index), so results are
order-independent and bit-reproducible.

The studies take their innovations from _replication_streams, which
yields those same streams for a whole range of replications without
building a generator per replication: it computes every replication's
PCG64 state at once (numpy's SeedSequence mixing in uint32 arrays, then
PCG64's seeding step in Python ints) and points one shared generator at
each in turn. Both studies then run one driver, _stacked_study, which
takes the levels of up to SIM_BLOCK = 256 replications at a time, an
(n, T, p) array from the study's own source: the critical-value study
draws and cumulates its random walks into a buffer, the recovery study
simulates its blocks (_simulate, which generate_vecm_data runs for a
single replication) time-major, a (T + BURN_IN + k, p, n) array with
replication i in column i, so the lag window of every replication is one
contiguous slab and each time step is three numpy calls for the whole
block. The driver concentrates each stack in FIT_BLOCK = 64 slices
(johansen._stacked_concentrate) into one stack of joint moment factors,
whose eigenproblem and trace test (and, for a rank r >= 1, Phillips
normalization and fit, vecm._stacked_fit) are then one stacked pass each:
the kernels of the specification search and of the n=1 public calls. One
memory rule holds for both studies: the level buffer takes SIM_BLOCK *
rows * p * 8 bytes, rows being T for the cv study (4.9 MB at p - r = 6
and T = 400) and T + BURN_IN + k for the recovery study (3.4 MB at T=500
and p=3). The cv study's bootstrap sorts each block of resampled
statistics before taking their percentiles. A replication that fails
raises its own typed error, the one its n=1 call raises; the first
failing replication of the first failing stack wins, so the lowest
failing replication of the study raises. Reruns are byte-identical, and a
replication's statistics and levels do not depend on the stack or slice
it is drawn, simulated or fitted in.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, _integers, _is_integer
from .johansen import (
    MAX_TABLE_DIM,
    RESTRICTED_CONSTANT,
    UNRESTRICTED_CONSTANT,
    _check_case,
    _check_dimension,
    _raise_first,
    _record,
    _stacked_concentrate,
    _stacked_eigenproblem,
    _stacked_trace_test,
)
from .linalg import general_eigenvalues
from .vecm import _stacked_fit, _stacked_phillips, companion_matrix

GENERATOR_ID = "pcg64/splitmix64"
BURN_IN = 50
_UNIT_TOL = 1e-8
# replications per stack of both Monte Carlo studies: one level buffer of
# SIM_BLOCK * rows * p * 8 bytes (rows = T for the critical-value study,
# T + BURN_IN + k for the recovery study) and one pass of the eigenproblem,
# trace test and fit per stack
SIM_BLOCK = 256
# replications per concentration slice of a stack, and bootstrap resamples
# per block: enough to amortize the per-call overhead, few enough to keep
# the concentration's buffers, which grow with T, small
FIT_BLOCK = 64
BOOT_BLOCK = 20
# bootstrap resamples of the critical-value study's percentiles
BOOTSTRAP = 200


def _splitmix64(x: int) -> int:
    """64-bit mix used to derive per-replication seeds from a base seed."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def replication_seed(base_seed: int, index: int) -> int:
    """The seed of replication ``index``; also takes a uint64 array of
    indices, whose wrapping arithmetic gives the same seeds. A numpy integer
    seed or index gives the seed of the equal int."""
    if not isinstance(index, np.ndarray):
        index = operator.index(index) & 0xFFFFFFFFFFFFFFFF
    return _splitmix64((operator.index(base_seed) & 0xFFFFFFFFFFFFFFFF) + index)


def rng_for(base_seed: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(replication_seed(base_seed, index))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1


def _hash_constants(init: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier constants of ``steps`` successive SeedSequence
    hash steps, as uint32 arrays: the constant is multiplied by ``mult``
    between its two uses. The chain is kept in Python ints, since numpy
    scalar overflow warns."""
    chain = [init]
    for _ in range(steps):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain[:-1], dtype=np.uint32), np.array(chain[1:], dtype=np.uint32)


# mixing a pool of 4 words takes 4 + 4 * 3 hash steps; generate_state(4,
# uint64) takes 8 output words
_MIX_XOR, _MIX_MULT = _hash_constants(_INIT_A, _MULT_A, 16)
_OUT_XOR, _OUT_MULT = _hash_constants(_INIT_B, _MULT_B, 8)
_SHIFT = np.uint32(16)


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of ``np.random.PCG64(seed)`` for each uint64 seed.

    numpy's SeedSequence mixing runs for all seeds at once in uint32
    arithmetic, the pool a (4, n) array: a seed's two 32-bit words (a seed
    below 2**32 has one, and the missing word hashes as a zero word does)
    and two zero words fill the pool, each word is mixed into the other
    three, and generate_state(4, uint64) hashes the pool into initstate and
    initseq. PCG64 then seeds its LCG from those: inc = 2 * initseq + 1 and
    state = (inc + initstate) * mult + inc, mod 2**128, in Python ints.
    """
    def hashmix(value, xor, mult):
        value = (value ^ xor[:, None]) * mult[:, None]
        return value ^ (value >> _SHIFT)

    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & np.uint64(_MASK32)
    pool[1] = seeds >> np.uint64(32)
    pool = hashmix(pool, _MIX_XOR[:4], _MIX_MULT[:4])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        steps = slice(4 + 3 * src, 7 + 3 * src)
        value = pool[dst] * _MIX_L - hashmix(pool[src], _MIX_XOR[steps], _MIX_MULT[steps]) * _MIX_R
        pool[dst] = value ^ (value >> _SHIFT)
    words = hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_XOR, _OUT_MULT).astype(np.uint64)
    # generate_state's uint64 words are little-endian pairs of its uint32 words
    u0, u1, u2, u3 = (words[1::2] << np.uint64(32) | words[::2]).tolist()
    states = []
    for a, b, c, d in zip(u0, u1, u2, u3):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        states.append(((((a << 64 | b) + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _replication_streams(base_seed: int, indices: Sequence[int]) -> Iterator[np.random.Generator]:
    """The generators ``rng_for(base_seed, i)`` for i in ``indices``, in order,
    as one shared generator re-pointed for each replication.

    The first generator is numpy's own PCG64 of the first seed. With a
    second index, the PCG64 states of all replications are computed at
    once (_pcg64_states), and before each later yield the shared bit
    generator is set to the next one, which is much cheaper than a new
    default_rng. A yielded generator draws exactly what its own rng_for
    would draw, until the next one is yielded. The first computed state is
    checked against numpy's own seeding, so a numpy that seeds PCG64
    differently fails loudly.
    """
    if not len(indices):
        return
    bit_generator, states = np.random.PCG64(replication_seed(base_seed, indices[0])), []
    if len(indices) > 1:
        states = _pcg64_states(replication_seed(base_seed, np.asarray(indices, dtype=np.uint64)))
        if bit_generator.state["state"] != {"state": states[0][0], "inc": states[0][1]}:
            raise RuntimeError(f"numpy {np.__version__} seeds PCG64 differently from the "
                               "SeedSequence mixing that synthetic._pcg64_states reproduces")
    generator = np.random.Generator(bit_generator)
    yield generator
    for state, inc in states[1:]:
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield generator


def _check_array(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """value as a float array; ValidationError naming ``name`` unless it has
    ``shape`` and finite entries."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a finite array of shape {shape}, "
                              f"got {value!r}") from None
    if array.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {array.shape}")
    if not np.isfinite(array).all():
        raise ValidationError(f"{name} must be finite, got {array.tolist()}")
    return array


def _check_scale(name: str, value) -> None:
    """ValidationError naming ``name`` unless value is a finite real number
    >= 0 (an int, float or numpy number, never a bool)."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and np.isfinite(value) and value >= 0):
        raise ValidationError(f"{name} must be a finite number >= 0, got {value!r}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a simulated error-correction system.

    Construction validates each field, raising ValidationError that names
    it: p, r, T and seed are integers (numpy integers too, never bools), the
    noise scales finite numbers >= 0, alpha_true and beta_true finite p x r
    arrays, gamma_true a tuple of finite p x p arrays and mu_true finite of
    length p. It also checks that the implied companion matrix carries
    exactly p - r unit-modulus roots with everything else strictly inside
    the unit circle.
    """

    p: int
    r: int
    alpha_true: np.ndarray  # p x r (p x 0 for pure random walks)
    beta_true: np.ndarray  # p x r, variables only
    gamma_true: tuple[np.ndarray, ...] = ()
    mu_true: np.ndarray = None
    noise_scale: float = 1.0
    # optional separate scale for innovations inside the cointegration
    # space; shrinking it toward zero pins the long-run relation while the
    # common trends keep wandering (the near-deterministic recovery limit)
    ec_noise_scale: float | None = None
    T: int = 400
    seed: int = 0
    generator_id: str = field(default=GENERATOR_ID, init=False)

    def __post_init__(self):
        if not _is_integer(self.T) or self.T < 1:
            raise ValidationError(f"T must be an integer >= 1, got {self.T!r}")
        p, r, seed = _integers(p=self.p, r=self.r, seed=self.seed)
        for name, value in (("p", p), ("r", r), ("seed", seed)):
            object.__setattr__(self, name, value)
        _check_scale("noise_scale", self.noise_scale)
        if self.ec_noise_scale is not None:
            _check_scale("ec_noise_scale", self.ec_noise_scale)
        if not 0 <= r <= p - 1:
            raise ValidationError(f"rank must satisfy 0 <= r <= p-1, got r={r}, p={p}")
        object.__setattr__(self, "alpha_true", _check_array("alpha_true", self.alpha_true, (p, r)))
        object.__setattr__(self, "beta_true", _check_array("beta_true", self.beta_true, (p, r)))
        if not isinstance(self.gamma_true, (tuple, list)):
            raise ValidationError(f"gamma_true must be a tuple of p x p arrays, got "
                                  f"{type(self.gamma_true).__name__}")
        object.__setattr__(self, "gamma_true", tuple(
            _check_array(f"gamma_true[{i}]", g, (p, p)) for i, g in enumerate(self.gamma_true)))
        object.__setattr__(self, "mu_true", np.zeros(p) if self.mu_true is None
                           else _check_array("mu_true", self.mu_true, (p,)))
        if self.ec_noise_scale is not None and r < 1:
            raise ValidationError("ec_noise_scale needs a cointegrated system (r >= 1)")
        moduli = np.abs(general_eigenvalues(self.companion()))
        n_unit = int(np.sum(np.abs(moduli - 1.0) <= _UNIT_TOL))
        n_inside = int(np.sum(moduli < 1.0 - _UNIT_TOL))
        if n_unit != self.p - self.r or n_unit + n_inside != moduli.size:
            raise ValidationError(
                f"invalid dynamics: expected {self.p - self.r} unit roots with the "
                f"rest inside the unit circle, got moduli {np.sort(moduli)[::-1]}"
            )

    @property
    def k(self) -> int:
        return len(self.gamma_true) + 1

    def companion(self) -> np.ndarray:
        """Companion matrix of the level VAR the recursion implies."""
        zeros = np.zeros((self.p, 1))
        return companion_matrix(self.alpha_true if self.r else zeros,
                                self.beta_true if self.r else zeros, self.gamma_true)


def _simulate(spec: SyntheticSpec, reps: range, buffer: np.ndarray | None = None) -> np.ndarray:
    """Levels of replications ``reps``, time-major, the recursion stepping all
    of them at once.

    The levels live in a (T + BURN_IN + k, p, n) array laid over the front of
    ``buffer`` (a flat float64 array of at least that size, when given; else
    a new one), replication i in column i. Each replication draws its
    innovations from its own stream (_replication_streams) into one
    contiguous (total, p) scratch array, which is scaled there and copied
    into its column.
    Returns the last T steps as a (T, p, n) view.
    """
    p, k = spec.p, spec.k
    n, total = len(reps), spec.T + BURN_IN + k
    size = total * p * n
    z = (np.empty(size) if buffer is None else buffer[:size]).reshape(total, p, n)
    if spec.noise_scale > 0 or spec.ec_noise_scale:
        e = np.empty((total, p))
        if spec.ec_noise_scale is not None:
            q, _ = np.linalg.qr(spec.beta_true)
            proj = q @ q.T
        for i, rng in enumerate(_replication_streams(spec.seed, reps)):
            rng.standard_normal(out=e)
            if spec.ec_noise_scale is None:
                e *= spec.noise_scale
            else:
                inside = e @ proj
                e -= inside
                e *= spec.noise_scale
                inside *= spec.ec_noise_scale
                e += inside
            z[:, :, i] = e
    else:
        z.fill(0.0)
    z += spec.mu_true[:, None]
    z[:k] = 0.0
    # the error-correction recursion in level form, z_t = mu + e_t +
    # A_1 z_{t-1} + ... + A_k z_{t-k} with the A_i of the companion matrix.
    # The window z_{t-k}..z_{t-1} of all replications is one contiguous
    # (k*p, n) slab; each step multiplies it into a preallocated product,
    # sums that over the window in a fixed order (never a BLAS kernel, whose
    # choice depends on n) and adds the sum into z_t, so a replication's
    # levels do not depend on the block it is simulated in
    coef = spec.companion()[:p].reshape(p, k, p)[:, ::-1].reshape(p, k * p).T[:, :, None]
    window = z.reshape(total * p, 1, n)
    flat = z.reshape(total * p, n)
    prod, acc = np.empty((k * p, p, n)), np.empty((p, n))
    for t in range(k, total):
        np.multiply(window[(t - k) * p : t * p], coef, out=prod)
        np.add.reduce(prod, axis=0, out=acc)
        step = flat[t * p : (t + 1) * p]
        np.add(step, acc, out=step)
    return z[-spec.T :]


def generate_vecm_data(spec: SyntheticSpec, rep: int = 0) -> np.ndarray:
    """Simulate T observations of the level process (after 50 burn-in steps)."""
    if not _is_integer(rep) or rep < 0:
        raise ValidationError(f"rep must be an integer >= 0, got {rep!r}")
    return np.ascontiguousarray(_simulate(spec, range(rep, rep + 1))[:, :, 0])


def random_walk_spec(p: int, T: int, seed: int) -> SyntheticSpec:
    """p independent driftless random walks (rank 0)."""
    return SyntheticSpec(
        p=p,
        r=0,
        alpha_true=np.zeros((p, 0)),
        beta_true=np.zeros((p, 0)),
        T=T,
        seed=seed,
    )


def study_spec(T: int = 400, seed: int = 0) -> SyntheticSpec:
    """Default 3-dimensional rank-1 system used throughout the validation studies."""
    return SyntheticSpec(
        p=3,
        r=1,
        alpha_true=np.array([[-0.4], [0.2], [0.1]]),
        beta_true=np.array([[1.0], [-2.0], [0.5]]),
        T=T,
        seed=seed,
    )


def _stacked_study(levels, reps: int, k: int, case: str, r: int):
    """Rank test (and rank-r fit, for r >= 1) of replications 0..reps-1, a
    stack of up to SIM_BLOCK at a time.

    ``levels(start, n)`` returns the (n, T, p) levels of replications
    start..start+n-1. Each stack is concentrated in FIT_BLOCK slices into
    one stack of joint moment factors; its eigenproblem and trace test, and
    for r >= 1 its Phillips normalization and factor fit, then run once.
    Raises the error of the stack's first failing replication, and else
    yields (start, trace (n, p), ranks (n,), beta (n, p_aug, r), alpha'
    (n, r, p)), beta and alpha' None when r = 0.
    """
    for start in range(0, reps, SIM_BLOCK):
        z = levels(start, min(SIM_BLOCK, reps - start))
        n, T, p = z.shape
        m = 2 * p + (case == RESTRICTED_CONSTANT)
        L, errors = np.empty((n, m, m)), {}
        for lo in range(0, n, FIT_BLOCK):
            block = slice(lo, lo + FIT_BLOCK)
            _, L[block], _, failures = _stacked_concentrate(z[block], k, case)
            _record(errors, {lo + i: error for i, error in failures.items()})
        lam, candidates = _stacked_eigenproblem(L, p, errors, vectors=r >= 1)
        trace, ranks = _stacked_trace_test(lam, T - k, p, case)
        beta = alpha_t = None
        if r >= 1:
            beta = _stacked_phillips(candidates, r, errors)
            alpha_t, _ = _stacked_fit(L, beta, errors)
        _raise_first(errors)
        yield start, trace, ranks, beta, alpha_t


@dataclass(frozen=True)
class CriticalValueStudy:
    p_minus_r: int
    case: str
    reps: int
    T: int
    seed: int
    generator_id: str
    percentiles: dict[str, float]  # keys 90%, 95%, 99%
    bootstrap_se: dict[str, float]
    statistics: np.ndarray = field(repr=False, default=None)


def monte_carlo_critical_values(p_minus_r: int, case: str, reps: int, T: int,
                                seed: int = 0, keep_statistics: bool = False
                                ) -> CriticalValueStudy:
    """Empirical trace-statistic percentiles under the no-cointegration null.

    The null is p_minus_r independent random walks; the statistic is the
    full-system trace test at r = 0 for the requested deterministic case.
    The restricted-constant table assumes no deterministic trend (driftless
    null); the unrestricted-constant table is derived under a
    trend-generating constant, so its null walks carry a unit drift.
    Bootstrap standard errors come from BOOTSTRAP = 200 resamples of the
    replication statistics.

    Replications run through _stacked_study, drawn and cumulated in stacks
    of SIM_BLOCK; the first failing replication raises its own error.
    p_minus_r, reps, T and seed must be ints or numpy integers.
    """
    _check_case(case)
    p_minus_r, reps, T, seed = _integers(p_minus_r=p_minus_r, reps=reps, T=T, seed=seed)
    if reps < 1000:
        raise ValidationError(f"reps must be >= 1000, got {reps}")
    if T < 400:
        raise ValidationError(f"T must be >= 400, got {T}")
    if not 1 <= p_minus_r <= MAX_TABLE_DIM:
        raise ValidationError(f"p_minus_r must be in 1..{MAX_TABLE_DIM}, got {p_minus_r}")
    drift = 1.0 if case == UNRESTRICTED_CONSTANT else 0.0
    buffer = np.empty((min(SIM_BLOCK, reps), T, p_minus_r))
    streams = _replication_streams(seed, range(reps))

    def levels(start, n):
        z = buffer[:n]
        # zip takes from z first, so the stack's end consumes no stream
        for member, rng in zip(z, streams):
            rng.standard_normal(out=member)
        if drift:
            z += drift
        return np.cumsum(z, axis=1, out=z)

    stats = np.empty(reps)
    for start, trace, *_ in _stacked_study(levels, reps, 1, case, 0):
        stats[start : start + len(trace)] = trace[:, 0]

    qs = (90.0, 95.0, 99.0)
    percentiles = {f"{int(q)}%": float(np.percentile(stats, q)) for q in qs}
    boot_rng = rng_for(seed, reps + 1)
    boots = np.empty((len(qs), BOOTSTRAP))
    for start in range(0, BOOTSTRAP, BOOT_BLOCK):
        idx = boot_rng.integers(0, reps, size=(min(BOOT_BLOCK, BOOTSTRAP - start), reps))
        # sorted rows hold the same order statistics, and numpy selects
        # them from sorted rows faster than from unsorted ones
        resampled = stats[idx]
        resampled.sort(axis=1)
        boots[:, start : start + len(idx)] = np.percentile(resampled, qs, axis=1,
                                                           overwrite_input=True)
    bootstrap_se = {f"{int(q)}%": float(np.std(row, ddof=1)) for q, row in zip(qs, boots)}
    return CriticalValueStudy(
        p_minus_r=p_minus_r,
        case=case,
        reps=reps,
        T=T,
        seed=seed,
        generator_id=GENERATOR_ID,
        percentiles=percentiles,
        bootstrap_se=bootstrap_se,
        statistics=stats if keep_statistics else None,
    )


def _angles_deg(b_hat: np.ndarray, b_true: np.ndarray) -> np.ndarray:
    """subspace_angle_deg of each member of a stack b_hat against b_true."""
    qa, _ = np.linalg.qr(b_hat)
    qb, _ = np.linalg.qr(b_true)
    sin = np.linalg.svd(qa - qb @ (qb.T @ qa), compute_uv=False).max(axis=-1)
    cos = np.linalg.svd(qa.swapaxes(-1, -2) @ qb, compute_uv=False).min(axis=-1)
    return np.degrees(np.arctan2(sin, cos))


def subspace_angle_deg(b_hat: np.ndarray, b_true: np.ndarray) -> float:
    """Largest principal angle between the spans of two coefficient matrices.

    Taken as atan2 of the sine and cosine parts, which stays accurate near
    0 and 90 degrees where acos or asin alone lose precision.
    """
    b_hat = np.atleast_2d(np.asarray(b_hat, dtype=float))
    return float(_angles_deg(b_hat[None], np.atleast_2d(np.asarray(b_true, dtype=float)))[0])


@dataclass(frozen=True)
class RecoveryStudy:
    spec: SyntheticSpec
    reps: int
    case: str
    rank_accuracy: float
    beta_angle_median_deg: float
    alpha_rmse: float
    per_rep: tuple[dict, ...] = field(repr=False, default=())


def run_recovery_study(spec: SyntheticSpec, reps: int,
                       case: str = RESTRICTED_CONSTANT) -> RecoveryStudy:
    """generate -> rank test -> estimate, compared against the true system.

    Replications are simulated in stacks of up to SIM_BLOCK (see _simulate)
    and tested and fitted through _stacked_study; a failing replication
    raises its own error. The case and the dimension are checked before
    anything is simulated.
    """
    _check_case(case)
    (reps,) = _integers(reps=reps)
    if reps < 100:
        raise ValidationError(f"reps must be >= 100, got {reps}")
    if spec.r < 1:
        raise ValidationError("recovery study needs a cointegrated truth (r >= 1)")
    _check_dimension(spec.p)
    trace_r0, angles, alpha_sq = np.empty(reps), np.empty(reps), np.empty(reps)
    ranks = np.empty(reps, dtype=int)
    buffer = np.empty(min(SIM_BLOCK, reps) * (spec.T + BURN_IN + spec.k) * spec.p)

    def levels(start, n):
        return _simulate(spec, range(start, start + n), buffer).transpose(2, 0, 1)

    for start, trace, selected, beta, alpha_t in _stacked_study(levels, reps, spec.k, case,
                                                                spec.r):
        i = slice(start, start + len(trace))
        trace_r0[i], ranks[i] = trace[:, 0], selected
        angles[i] = _angles_deg(beta[:, : spec.p], spec.beta_true)
        alpha_sq[i] = np.mean((alpha_t.swapaxes(1, 2) - spec.alpha_true) ** 2, axis=(1, 2))
    per_rep = tuple(
        {
            "rep": rep,
            "selected_rank": int(ranks[rep]),
            "beta_angle_deg": float(angles[rep]),
            "trace_r0": float(trace_r0[rep]),
        }
        for rep in range(reps)
    )
    return RecoveryStudy(
        spec=spec,
        reps=reps,
        case=case,
        rank_accuracy=int(np.sum(ranks == spec.r)) / reps,
        beta_angle_median_deg=float(np.median(angles)),
        alpha_rmse=float(np.sqrt(np.mean(alpha_sq))),
        per_rep=per_rep,
    )
