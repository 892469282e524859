"""Seeded generators for cointegrated systems and Monte Carlo harnesses.

Ground truth for the estimators: data are simulated forward from the
error-correction recursion with Gaussian innovations, and studies derive a
fresh per-replication generator from (seed, replication index) through a
64-bit mix so results are order-independent and bit-reproducible.

The critical-value study draws each replication from its own generator
into a shared block buffer and computes a whole block of trace statistics
in one stacked pass (johansen._rank0_trace_stats). Its statistics agree
with the per-replication concentrate/rank_test path to 1e-10 relative;
reruns are byte-identical, but the last digits may differ from releases
that ran one replication at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .johansen import (
    CASES,
    MAX_TABLE_DIM,
    RESTRICTED_CONSTANT,
    UNRESTRICTED_CONSTANT,
    _rank0_trace_stats,
    concentrate,
    rank_test,
)
from .linalg import general_eigenvalues
from .vecm import companion_matrix, estimate_vecm

GENERATOR_ID = "pcg64/splitmix64"
BURN_IN = 50
_UNIT_TOL = 1e-8
# replications per stacked block of the critical-value study and bootstrap
# resamples per block: enough to amortize the per-call overhead, few enough
# to keep peak memory flat
CV_BLOCK = 32
BOOT_BLOCK = 20


def _splitmix64(x: int) -> int:
    """64-bit mix used to derive per-replication seeds from a base seed."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def replication_seed(base_seed: int, index: int) -> int:
    return _splitmix64((base_seed & 0xFFFFFFFFFFFFFFFF) + index)


def rng_for(base_seed: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(replication_seed(base_seed, index))


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a simulated error-correction system.

    Construction validates that the implied companion matrix carries
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
    generator_id: str = GENERATOR_ID

    def __post_init__(self):
        alpha = np.asarray(self.alpha_true, dtype=float).reshape(self.p, self.r)
        beta = np.asarray(self.beta_true, dtype=float).reshape(self.p, self.r)
        mu = (
            np.zeros(self.p)
            if self.mu_true is None
            else np.asarray(self.mu_true, dtype=float).reshape(self.p)
        )
        object.__setattr__(self, "alpha_true", alpha)
        object.__setattr__(self, "beta_true", beta)
        object.__setattr__(self, "mu_true", mu)
        object.__setattr__(self, "gamma_true", tuple(np.asarray(g, dtype=float) for g in self.gamma_true))
        if self.noise_scale < 0:
            raise ValidationError("noise_scale must be non-negative")
        if self.ec_noise_scale is not None and self.r < 1:
            raise ValidationError("ec_noise_scale needs a cointegrated system (r >= 1)")
        if not 0 <= self.r <= self.p - 1:
            raise ValidationError(f"rank must satisfy 0 <= r <= p-1, got r={self.r}, p={self.p}")
        comp = companion_matrix(
            alpha if self.r else np.zeros((self.p, 1)),
            beta if self.r else np.zeros((self.p, 1)),
            self.gamma_true,
        )
        moduli = np.abs(general_eigenvalues(comp))
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


def generate_vecm_data(spec: SyntheticSpec, rep: int = 0) -> np.ndarray:
    """Simulate T observations of the level process (after 50 burn-in steps)."""
    rng = rng_for(spec.seed, rep)
    p, k = spec.p, spec.k
    total = spec.T + BURN_IN + k
    z = np.zeros((total, p))
    if spec.noise_scale > 0 or spec.ec_noise_scale:
        eta = rng.standard_normal((total, p))
        if spec.ec_noise_scale is None:
            noise = spec.noise_scale * eta
        else:
            q, _ = np.linalg.qr(spec.beta_true)
            inside = eta @ (q @ q.T)
            noise = spec.noise_scale * (eta - inside) + spec.ec_noise_scale * inside
    else:
        noise = np.zeros((total, p))
    pi = spec.alpha_true @ spec.beta_true.T if spec.r else np.zeros((p, p))
    for t in range(k, total):
        dz = pi @ z[t - 1] + spec.mu_true + noise[t]
        for i, g in enumerate(spec.gamma_true, start=1):
            dz += g @ (z[t - i] - z[t - i - 1])
        z[t] = z[t - 1] + dz
    return z[-spec.T :]


def random_walk_spec(p: int, T: int, seed: int, noise_scale: float = 1.0) -> SyntheticSpec:
    """p independent driftless random walks (rank 0)."""
    return SyntheticSpec(
        p=p,
        r=0,
        alpha_true=np.zeros((p, 0)),
        beta_true=np.zeros((p, 0)),
        T=T,
        seed=seed,
        noise_scale=noise_scale,
    )


def study_spec(p: int = 3, T: int = 400, seed: int = 0,
               noise_scale: float = 1.0) -> SyntheticSpec:
    """Default rank-1 system used throughout the validation studies."""
    if p != 3:
        raise ValidationError("the default study system is 3-dimensional")
    return SyntheticSpec(
        p=3,
        r=1,
        alpha_true=np.array([[-0.4], [0.2], [0.1]]),
        beta_true=np.array([[1.0], [-2.0], [0.5]]),
        T=T,
        seed=seed,
        noise_scale=noise_scale,
    )


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
                                seed: int = 0, bootstrap: int = 200,
                                keep_statistics: bool = False) -> CriticalValueStudy:
    """Empirical trace-statistic percentiles under the no-cointegration null.

    The null is p_minus_r independent random walks; the statistic is the
    full-system trace test at r = 0 for the requested deterministic case.
    The restricted-constant table assumes no deterministic trend (driftless
    null); the unrestricted-constant table is derived under a
    trend-generating constant, so its null walks carry a unit drift.
    Bootstrap standard errors come from resampling the replication
    statistics.
    """
    if case not in CASES:
        raise ValidationError(f"case must be one of {CASES}, got {case!r}")
    if reps < 1000:
        raise ValidationError(f"reps must be >= 1000, got {reps}")
    if T < 400:
        raise ValidationError(f"T must be >= 400, got {T}")
    if not 1 <= p_minus_r <= MAX_TABLE_DIM:
        raise ValidationError(f"p_minus_r must be in 1..{MAX_TABLE_DIM}, got {p_minus_r}")
    if bootstrap < 2:
        raise ValidationError(f"bootstrap must be >= 2, got {bootstrap}")
    drift = 1.0 if case == UNRESTRICTED_CONSTANT else 0.0
    stats = np.empty(reps)
    buffer = np.empty((min(CV_BLOCK, reps), T, p_minus_r))
    for start in range(0, reps, CV_BLOCK):
        z = buffer[: min(CV_BLOCK, reps - start)]
        for i in range(len(z)):
            rng_for(seed, start + i).standard_normal(out=z[i])
        if drift:
            z += drift
        np.cumsum(z, axis=1, out=z)
        stats[start : start + len(z)] = _rank0_trace_stats(z, case)

    qs = (90.0, 95.0, 99.0)
    percentiles = {f"{int(q)}%": float(np.percentile(stats, q)) for q in qs}
    boot_rng = rng_for(seed, reps + 1)
    boots = np.empty((len(qs), bootstrap))
    for start in range(0, bootstrap, BOOT_BLOCK):
        idx = boot_rng.integers(0, reps, size=(min(BOOT_BLOCK, bootstrap - start), reps))
        boots[:, start : start + len(idx)] = np.percentile(stats[idx], qs, axis=1)
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


def subspace_angle_deg(b_hat: np.ndarray, b_true: np.ndarray) -> float:
    """Largest principal angle between the spans of two coefficient matrices.

    Taken as atan2 of the sine and cosine parts, which stays accurate near
    0 and 90 degrees where acos or asin alone lose precision.
    """
    qa, _ = np.linalg.qr(np.atleast_2d(np.asarray(b_hat, dtype=float)))
    qb, _ = np.linalg.qr(np.atleast_2d(np.asarray(b_true, dtype=float)))
    sin = np.linalg.svd(qa - qb @ (qb.T @ qa), compute_uv=False).max()
    cos = np.linalg.svd(qa.T @ qb, compute_uv=False).min()
    return math.degrees(math.atan2(sin, cos))


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
    """generate -> rank test -> estimate, compared against the true system."""
    if reps < 100:
        raise ValidationError(f"reps must be >= 100, got {reps}")
    if spec.r < 1:
        raise ValidationError("recovery study needs a cointegrated truth (r >= 1)")
    angles = np.empty(reps)
    alpha_sq = np.empty(reps)
    hits = 0
    per_rep = []
    for rep in range(reps):
        z = generate_vecm_data(spec, rep)
        m = concentrate(z, k=spec.k, case=case)
        rt = rank_test(m, case=case)
        if rt.selected_rank == spec.r:
            hits += 1
        model = estimate_vecm(z, k=spec.k, r=spec.r, case=case)
        angle = subspace_angle_deg(model.beta_variables(), spec.beta_true)
        angles[rep] = angle
        alpha_sq[rep] = float(np.mean((model.alpha - spec.alpha_true) ** 2))
        per_rep.append(
            {
                "rep": rep,
                "selected_rank": rt.selected_rank,
                "beta_angle_deg": angle,
                "trace_r0": float(rt.trace_stats[0]),
            }
        )
    return RecoveryStudy(
        spec=spec,
        reps=reps,
        case=case,
        rank_accuracy=hits / reps,
        beta_angle_median_deg=float(np.median(angles)),
        alpha_rmse=float(np.sqrt(np.mean(alpha_sq))),
        per_rep=tuple(per_rep),
    )
