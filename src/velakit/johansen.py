"""Reduced-rank cointegration analysis: concentration, eigenproblem, rank tests.

The level term enters at t-1 (the usual reparameterization of the lag-k
form; eigenvalues and likelihood are unchanged). Two deterministic cases
are supported: a constant restricted to the cointegrating relation
(``rconst``, the default: the reported long-run equations carry an explicit
intercept) and an unrestricted constant (``uconst``).

Under rconst the level rows are centred before they are concentrated: the
level term is [z_{t-1} - shift, 1], shift being the mean of the level rows.
It spans what [z_{t-1}, 1] spans, since the ones column absorbs the shift,
but cond(S11) no longer grows with the levels' distance from zero (log
levels near 10 beside a ones column put it near 1e7). The moments keep the
centred coordinates (MomentMatrices.shift), and so does beta in every
kernel; it is mapped to those of [z_{t-1}, 1] once, where it leaves them
(_uncentred: its constant row becomes c - b'shift).

Every estimate comes from one set of stacked kernels (``_stacked_*`` here
and in vecm) that run each stage for n same-shape systems, an (n, T, p)
array of levels, in one pass. The concentration hands the rank test and the
fit one lower-triangular factor L of each joint moment matrix, L L' = S:
the transposed R factor of its short-run regression where one runs, else
the Cholesky factor of S, so each member is factored once. Both routes
judge a degenerate member by one rule: a pivot L_jj^2 fails below 1e-10
times its column's moment before any projection (about the column's mean
under uconst, whose constant is projected out). A problem of the
whole stack (an unknown case, too short a sample) raises; one member's is
recorded in ``errors``, a dict from member index to its first typed error,
and its values from then on are placeholders. The public functions are the
n=1 calls: concentrate() raises its system's first error, so the moments
it returns, whose one array is that factor, are never degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (NotPositiveDefiniteError, NumericalError, ValidationError, _integers,
                     _is_integer)
from .lag_selection import level_matrix
from .linalg import (_NOT_POSITIVE_DEFINITE, _column_cholesky, _each, _failing_pivots,
                     _stacked_cholesky, _stacked_ols)

RESTRICTED_CONSTANT = "rconst"
UNRESTRICTED_CONSTANT = "uconst"
CASES = (RESTRICTED_CONSTANT, UNRESTRICTED_CONSTANT)

MAX_TABLE_DIM = 6

# Trace and max-eigenvalue critical values for p - r = 1..6, transcribed
# from the standard published tables for the two supported deterministic
# cases and cross-validated by the Monte Carlo harness (synthetic module)
# to within +-10%.
TRACE_CRITICAL = {
    RESTRICTED_CONSTANT: {
        "90%": (7.52, 17.85, 32.00, 49.65, 71.86, 97.18),
        "95%": (9.24, 19.96, 34.91, 53.12, 76.07, 102.14),
        "99%": (12.97, 24.60, 41.07, 60.16, 84.45, 111.01),
    },
    UNRESTRICTED_CONSTANT: {
        "90%": (2.69, 13.33, 26.79, 43.95, 64.84, 89.48),
        "95%": (3.76, 15.41, 29.68, 47.21, 68.52, 94.15),
        "99%": (6.65, 20.04, 35.65, 54.46, 76.07, 103.18),
    },
}

MAXEIG_CRITICAL = {
    RESTRICTED_CONSTANT: {
        "90%": (7.52, 13.75, 19.77, 25.56, 31.66, 37.45),
        "95%": (9.24, 15.67, 22.00, 28.14, 34.40, 40.30),
        "99%": (12.97, 20.20, 26.81, 33.24, 39.79, 46.82),
    },
    UNRESTRICTED_CONSTANT: {
        "90%": (2.69, 12.07, 18.60, 24.73, 30.90, 36.76),
        "95%": (3.76, 14.07, 20.97, 27.07, 33.46, 39.37),
        "99%": (6.65, 18.63, 25.52, 32.24, 38.77, 45.10),
    },
}

def _check_case(case: str) -> None:
    if case not in CASES:
        raise ValidationError(f"case must be one of {CASES}, got {case!r}")


def _record(errors: dict, failures: dict) -> None:
    """Add each member's error in ``failures`` unless it has one already."""
    for i, error in failures.items():
        errors.setdefault(i, error)


def _flag(errors: dict, failed: np.ndarray, kind, message: str) -> None:
    """Record kind(message) for each member ``failed`` marks that has no error yet."""
    for i in np.flatnonzero(failed) if failed.any() else ():
        errors.setdefault(i, kind(message))


def _raise_first(errors: dict) -> None:
    if errors:
        raise errors[min(errors)]


_CANONICAL_ONE = ("canonical correlation indistinguishable from 1; the level and difference "
                 "spaces share an exact linear combination")


def _degenerate(errors: dict, i: int, j: int, S00: np.ndarray, p_aug: int) -> None:
    """Record the error of member i, whose joint factor fails at pivot j:
    S11's pivot j for j < p_aug; past it S00's own first failing pivot
    (the Cholesky column loop), and with none, a canonical correlation
    of 1. No error carries a pivot's value, which is rounding noise."""
    if j >= p_aug:
        j = _column_cholesky(S00)[1]
    errors.setdefault(i, NumericalError(_CANONICAL_ONE) if j is None else NotPositiveDefiniteError(
        f"degenerate moment matrix: {_NOT_POSITIVE_DEFINITE.format(j)}"))


@dataclass(frozen=True)
class MomentMatrices:
    """T-normalized residual cross-products from the concentration step,
    held as the lower-triangular factor L = [[L1, 0], [H0', L0]] of the
    joint moment matrix [[S11, S10], [S01, S00]] = L L', S11 being m x m;
    S00, S01 and S11 are read-only properties computed from L.

    Under rconst the level rows are centred before they are concentrated:
    S01 and S11 are the moments of [z_{t-1} - shift, 1], shift being the
    mean of the T_eff level rows z_{k-1}..z_{T-2}, and
    solve_cointegration_eigenproblem maps its beta candidates to the
    coordinates of [z_{t-1}, 1]. shift is None for uncentred moments (uconst,
    whose constant is projected out, or moments built by hand).

    Construction checks each field, raising ValidationError that names it:
    p and T_eff are integers >= 1; L is a finite, lower-triangular
    (m + p) x (m + p) numpy array, with m = p under uconst and m in {p, p + 1}
    under rconst, whose pivots L_jj^2 each clear 1e-10 times the diagonal
    entry of L L'; shift is None, or shaped (p,) when m = p + 1. Moments
    built by hand from S pass L = np.linalg.cholesky([[S11, S10], [S01, S00]]).
    """

    L: np.ndarray
    T_eff: int
    p: int
    case: str
    vars: tuple[str, ...]
    shift: np.ndarray | None = None

    def __post_init__(self):
        _check_case(self.case)
        for name in ("p", "T_eff"):
            value = getattr(self, name)
            if not _is_integer(value) or value < 1:
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
        p, case = self.p, self.case
        widths = (p, p + 1) if case == RESTRICTED_CONSTANT else (p,)
        shape = self.L.shape if isinstance(self.L, np.ndarray) else None
        m = shape[0] - p if shape and len(shape) == 2 and shape[0] == shape[1] else None
        if m not in widths:
            raise ValidationError(f"L must be an (m + p) x (m + p) array with m in {widths} "
                                  f"for p={p} under {case}, got shape {shape}")
        if self.shift is not None and (m != p + 1 or np.shape(self.shift) != (p,)):
            raise ValidationError(f"shift must be None, or shaped ({p},) beside a constant "
                                  f"row, got {np.shape(self.shift)} with m={m}")
        if not np.isfinite(self.L).all():
            raise ValidationError("L contains non-finite entries")
        if np.triu(self.L, 1).any():
            raise ValidationError("L is not lower-triangular")
        failing = _failing_pivots(np.einsum("ij,ij->i", self.L, self.L), self.L)
        if failing.any():
            raise ValidationError(f"L is degenerate: "
                                  f"{_NOT_POSITIVE_DEFINITE.format(failing.argmax())}")

    def _moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """S00, S01 and S11, the blocks of L L'."""
        S, m = self.L @ self.L.T, len(self.L) - self.p
        return S[m:, m:], S[m:, :m], S[:m, :m]

    @property
    def S00(self) -> np.ndarray:
        return self._moments()[0]

    @property
    def S01(self) -> np.ndarray:
        return self._moments()[1]

    @property
    def S11(self) -> np.ndarray:
        return self._moments()[2]


def concentrate(data, vars=None, k: int = 1, case: str = RESTRICTED_CONSTANT) -> MomentMatrices:
    """Project out short-run dynamics and form the moment matrices.

    R0: residuals of dz_t on the k-1 lagged differences (plus an
    unrestricted constant under ``uconst``); R1: residuals of the lagged
    level term (centred, and augmented with a ones column, under ``rconst``)
    on the same regressors. With no short-run regressors the projection is
    the identity. A degenerate system raises its first typed error.
    """
    z, names = level_matrix(data, vars)
    _, L, shift, errors = _stacked_concentrate(z[None], k, case)
    _raise_first(errors)
    return MomentMatrices(L=L[0], T_eff=z.shape[0] - k, p=z.shape[1], case=case, vars=names,
                          shift=shift[0] if case == RESTRICTED_CONSTANT else None)


def solve_cointegration_eigenproblem(m: MomentMatrices) -> tuple[np.ndarray, np.ndarray]:
    """Solve |lambda*S11 - S10 S00^-1 S01| = 0 from the moments' joint factor.

    Returns eigenvalues (descending, clipped to [0, 1)) and the
    back-transformed beta candidates, in the coordinates of the uncentred
    level term whatever the moments' shift, each column scaled so its first
    nonzero coordinate is +1.
    """
    shift = np.zeros((1, m.p)) if m.shift is None else np.asarray(m.shift)[None]
    errors = {}
    lam, beta = _stacked_eigenproblem(m.L[None], m.p, errors, vectors=True)
    _raise_first(errors)
    return lam[0], _uncentred(beta, shift)[0]


def _uncentred(beta: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """beta (n, p_aug, r) in the coordinates of [z_{t-1}, 1], from those of
    [z_{t-1} - shift, 1]: the constant row c becomes c - b'shift."""
    p = shift.shape[1]
    if beta.shape[1] == p:
        return beta
    out = beta.copy()
    out[:, p] -= (shift[:, None] @ beta[:, :p])[:, 0]
    return out


@dataclass(frozen=True)
class RankTestResult:
    eigenvalues: np.ndarray
    trace_stats: np.ndarray
    maxeig_stats: np.ndarray
    critical_values_5pct: np.ndarray
    maxeig_critical_values_5pct: np.ndarray
    selected_rank: int
    deterministic_case: str
    level: float  # always 0.05, the level of selected_rank
    T_eff: int
    p: int


def _check_dimension(p: int) -> None:
    if p > MAX_TABLE_DIM:
        raise ValidationError(
            f"critical values tabulated up to dimension {MAX_TABLE_DIM}, got p={p}"
        )


def rank_test(m: MomentMatrices) -> RankTestResult:
    """Trace/max-eigenvalue statistics over r = 0..p-1 and the selected rank,
    against the 5% critical values of the moments' deterministic case.

    Selection uses the trace statistic: the smallest r that fails to reject
    at 5%. If every null rejects the system looks stationary in levels and
    the selected rank is p.
    """
    case, p = m.case, m.p
    _check_dimension(p)
    errors = {}
    lam, _ = _stacked_eigenproblem(m.L[None], p, errors)
    _raise_first(errors)
    lam = lam[0, :p]
    trace, selected = _stacked_trace_test(lam[None], m.T_eff, p, case)
    cv5 = np.array(TRACE_CRITICAL[case]["95%"][p - 1 :: -1])
    cv5_max = np.array(MAXEIG_CRITICAL[case]["95%"][p - 1 :: -1])
    return RankTestResult(
        eigenvalues=lam,
        trace_stats=trace[0],
        maxeig_stats=-m.T_eff * np.log1p(-lam),
        critical_values_5pct=cv5,
        maxeig_critical_values_5pct=cv5_max,
        selected_rank=int(selected[0]),
        deterministic_case=case,
        level=0.05,
        T_eff=m.T_eff,
        p=p,
    )


@np.errstate(all="ignore")
def _stacked_concentrate(z: np.ndarray, k: int, case: str):
    """concentrate for each series of an (n, T, p) stack of levels, in one pass.

    One regression of W = [z*_{t-1}, dz_t] (z*_{t-1} being z_{t-1} less its
    mean over the sample, and a ones column, under rconst) on the short-run
    regressors (the lagged differences, and a ones column under uconst).
    Centring leaves the span of the level term alone, since the ones column
    absorbs the shift, but keeps cond(S11) from growing with the levels'
    distance from zero. Returns (B, L, shift, errors): B (n, short-run
    columns, p_aug + p) the regression's coefficients; L the lower-triangular
    factor of the joint moments S = [[S11, S10], [S01, S00]] = L L', in
    blocks [[L1, 0], [H0', L0]]; and shift (n, p) the level means subtracted
    (zeros under uconst). With short-run regressors L is F' / sqrt(T_eff), F
    the residual factor the regression returns (its diagonal's signs are
    arbitrary); without, the Cholesky factor of W'W / T_eff, a placeholder
    for a member it rejects. errors holds non-finite levels, the short-run
    regression's SingularMatrixError, and each member whose factor's pivot
    j fails against diag(W'W) / T_eff (W less its column means under
    uconst), named by _degenerate from that j.
    """
    n, T, p = z.shape
    _check_case(case)
    (k,) = _integers(k=k)
    if k < 1:
        raise ValidationError(f"lag order must be >= 1, got {k}")
    T_eff = T - k
    n_short = p * (k - 1) + (case == UNRESTRICTED_CONSTANT)
    p_aug = p + (case == RESTRICTED_CONSTANT)
    # projecting out the n_short regressors leaves [R0, R1] a rank of at most
    # T_eff - n_short; below its p + p_aug columns a canonical correlation is
    # 1 whatever the data
    if T_eff < n_short + p + p_aug:
        raise ValidationError(
            f"insufficient sample: T_eff={T_eff} with {n_short} short-run "
            f"regressors, {p} difference columns and {p_aug} level terms"
        )
    errors = {}
    _flag(errors, ~np.isfinite(z).all(axis=(1, 2)), ValidationError,
          "level data contains non-finite values")
    # built time-last, so elementwise work and the level means run along the
    # long, contiguous axis; W and X are the time-first views of these buffers
    zt = z.swapaxes(1, 2)
    Wt = np.empty((n, p_aug + p, T_eff))
    levels = Wt[:, :p]
    levels[...] = zt[:, :, k - 1 : -1]
    np.subtract(zt[:, :, k:], zt[:, :, k - 1 : -1], out=Wt[:, p_aug:])
    if p_aug > p:
        shift = np.add.reduce(levels, axis=2)
        shift /= T_eff
        levels -= shift[:, :, None]
        Wt[:, p] = 1.0
    else:
        shift = np.zeros((n, p))
    W = Wt.swapaxes(1, 2)
    B = np.zeros((n, 0, p + p_aug))
    if n_short:
        Xt = np.empty((n, n_short, T_eff))
        for i in range(1, k):
            np.subtract(zt[:, :, k - i : T - i], zt[:, :, k - 1 - i : T - 1 - i],
                        out=Xt[:, (i - 1) * p : i * p])
        Xt[:, p * (k - 1) :] = 1.0
        X = Xt.swapaxes(1, 2)
        B, F, _, failures = _stacked_ols(X, W)
        _record(errors, failures)
        # C order, as the Cholesky factors are, so that a member's later products
        # round alike alone and merged into the search's stacks
        L = np.divide(F.swapaxes(1, 2), np.sqrt(T_eff), order="C")
        # the Cholesky route's rule: each pivot against its column's moment
        # before the projection, so a column the regressors span is named;
        # under uconst the moment about the mean, as the constant among the
        # regressors leaves a level's offset out of S
        D = Wt
        if case == UNRESTRICTED_CONSTANT:
            D = Wt - np.add.reduce(Wt, axis=2, keepdims=True) / T_eff
        bad = _failing_pivots(np.einsum("nit,nit->ni", D, D) / T_eff, L)
        for i in np.flatnonzero(bad.any(axis=1)) if bad.any() else ():
            _degenerate(errors, i, int(bad[i].argmax()), L[i, p_aug:] @ L[i, p_aug:].T, p_aug)
    else:
        S = Wt @ W / T_eff
        L, failing = _stacked_cholesky(S)
        for i, j in failing.items():
            _degenerate(errors, i, j, S[i, p_aug:, p_aug:], p_aug)
    return B, L, shift, errors


@np.errstate(all="ignore")
def _stacked_eigenproblem(L: np.ndarray, p: int, errors: dict, vectors: bool = False):
    """solve_cointegration_eigenproblem for a stack of joint factors, in one pass.

    L (n, p_aug + p, p_aug + p) = [[L1, 0], [H0', L0]] is the factor of
    [[S11, S10], [S01, S00]] that _stacked_concentrate returns: L1 L1' =
    S11, H0 = L1^-1 S10 and L0 L0' = S00 - H0'H0. K'K, K = L0^-1 H0', has
    eigenvalues lambda / (1 - lambda), and beta is L1^-T times its
    eigenvectors. A member already in ``errors`` is solved on the identity.
    Returns (eigenvalues (n, p_aug), descending and clipped at 0; with
    ``vectors`` beta candidates (n, p_aug, p_aug) in the moments'
    coordinates, each column's first nonzero coordinate +1, else None),
    recording in ``errors`` a member whose lambda_1 is not below 1 - 1e-12.
    """
    p_aug = L.shape[-1] - p
    if errors:  # a failed member's factor may be singular, or not finite
        L = L.copy()
        L[list(errors)] = np.eye(L.shape[-1])
    K = np.linalg.solve(L[:, p_aug:, p_aug:], L[:, p_aug:, :p_aug])
    M = K.swapaxes(1, 2) @ K
    if vectors:
        (mu, W), failed = _each(np.linalg.eigh, M)  # ascending
    else:
        (mu, failed), W = _each(np.linalg.eigvalsh, M), None
    _flag(errors, failed, NumericalError, "symmetric eigendecomposition failed")
    lam = mu / (1.0 + mu)
    _flag(errors, lam[:, -1] >= 1.0 - 1e-12, NumericalError, _CANONICAL_ONE)
    lam = np.clip(lam[:, ::-1], 0.0, None)
    if W is None:
        return lam, None
    beta = np.linalg.solve(L[:, :p_aug, :p_aug].swapaxes(1, 2), W[:, :, ::-1])
    size = np.abs(beta)
    nonzero = size > 1e-10 * np.maximum(size.max(axis=1, keepdims=True), 1e-300)
    first = np.take_along_axis(beta, nonzero.argmax(axis=1)[:, None, :], axis=1)
    return lam, beta / np.where(nonzero.any(axis=1, keepdims=True), first, 1.0)


@np.errstate(all="ignore")
def _stacked_trace_test(lam: np.ndarray, T_eff, p: int, case: str):
    """Trace statistics (n, p) for r = 0..p-1 and selected ranks (n,) from
    stacked descending eigenvalues (n, >= p).

    ``T_eff`` is the effective sample size, an int or one per member, shaped
    (n,), for a stack whose members differ in lag. The statistic for r sums
    log(1 - lambda) over the p - r smallest eigenvalues, smallest first; the
    selected rank is the smallest r whose statistic falls below the 5%
    critical value for p - r, or p when every null rejects.
    """
    log1m = np.log1p(-lam[:, :p])
    trace = -np.reshape(T_eff, (-1, 1)) * np.cumsum(log1m[:, ::-1], axis=1)[:, ::-1]
    below = trace < np.array(TRACE_CRITICAL[case]["95%"][p - 1 :: -1])
    return trace, np.where(below.any(axis=1), below.argmax(axis=1), p)

