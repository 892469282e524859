"""Error-correction model estimation at a fixed cointegration rank.

beta comes from the Johansen eigenproblem, normalized so its leading
r x r block is the identity. alpha, sigma and the short-run matrices
conditional on beta come from the rank test's concentration
(Frisch-Waugh-Lovell): alpha' is the OLS of R0 on R1 beta and sigma that
regression's residual covariance, both read off the concentration's factor
of the joint moments (_stacked_fit), and the short-run coefficients are
the concentration's B0 - B1 beta alpha'. Under rconst the moments are
those of the centred level term, and so is beta until each model maps it
to [z_{t-1}, 1] (johansen._uncentred); the constant row's standard error
and Wald statistic use the shift's Jacobian. The moments have one shape at
every lag, so a stack's members may each carry their own lag: the
specification search fits a subset size's members of every lag in one
stack, a model's numbers do not depend on the members beside it, and
estimate_vecm is the n=1 call. Standard errors for the free beta rows use
the conditional (fixed-alpha) asymptotic covariance, and the headline
chi-square is the joint Wald test that every non-normalized beta
coefficient is zero. A rank-1 relation solved for its dependent variable
(normalize_cointegrating_equation) is likewise the n=1 call of a stacked
pass over a search's rank-1 models of one subset size, which share their
dimension and deterministic case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonNormalizableError, NumericalError, ValidationError, _is_integer
from .johansen import (
    RESTRICTED_CONSTANT,
    UNRESTRICTED_CONSTANT,
    _check_case,
    _flag,
    _raise_first,
    _record,
    _stacked_concentrate,
    _stacked_eigenproblem,
    _uncentred,
)
from .lag_selection import gaussian_criteria, level_matrix
from .linalg import _each, _stacked_cholesky, _stacked_ols, general_eigenvalues
from .panel import VARIABLES

UNIT_ROOT_TOL = 1e-2
STABLE_MARGIN = 1e-6


@dataclass(frozen=True)
class VecmModel:
    vars: tuple[str, ...]
    k: int
    r: int
    case: str
    alpha: np.ndarray  # p x r loadings
    beta: np.ndarray  # p(+1) x r, constant row last under rconst
    gamma: tuple[np.ndarray, ...]  # k-1 matrices, each p x p
    mu: np.ndarray  # p, unrestricted deterministics
    sigma: np.ndarray  # p x p ML residual covariance
    loglik: float
    aic: float
    bic: float
    beta_se: np.ndarray  # aligned to beta; 0 rows for the identity block
    beta_z: np.ndarray  # aligned to beta; NaN where undefined
    wald_chi2: float
    wald_dof: int
    eigenvalues: np.ndarray
    T_eff: int
    n_params: int
    beta_source: str = "eigen"  # always: beta is the eigenproblem's
    level_means: np.ndarray = field(default=None, repr=False)

    @property
    def p(self) -> int:
        return len(self.vars)

    @property
    def has_restricted_constant(self) -> bool:
        return self.case == RESTRICTED_CONSTANT

    def beta_variables(self) -> np.ndarray:
        """beta rows for the variables only (drops the constant row)."""
        return self.beta[: self.p]


def estimate_vecm(data, vars=None, k: int = 1, r: int = 1,
                  case: str = RESTRICTED_CONSTANT) -> VecmModel:
    """Estimate the rank-r error-correction model."""
    z, names = level_matrix(data, vars)
    p = z.shape[1]
    _check_case(case)
    _check_rank(r, p)
    B, L, shift, errors = _stacked_concentrate(z[None], k, case)
    lam, candidates = _stacked_eigenproblem(L, p, errors, vectors=True)
    beta = _stacked_phillips(candidates, r, errors)
    models = _stacked_models(z[None], [names], [k], B, r, case, L, shift, lam, beta, errors)
    _raise_first(errors)
    return models[0]


def _check_rank(r: int, p: int) -> None:
    if not _is_integer(r):
        raise ValidationError(f"rank must be an integer, got {r!r}")
    if r == 0:
        raise ValidationError(
            "rank 0 means no error correction; difference the data and fit a "
            "VAR instead (rank tests remain available via rank_test)"
        )
    if not 1 <= r <= p - 1:
        raise ValidationError(f"rank must satisfy 1 <= r <= p-1={p - 1}, got {r}")


@np.errstate(all="ignore")
def _stacked_phillips(candidates: np.ndarray, r: int, errors: dict) -> np.ndarray:
    """The first r beta candidates of each member of a stack (n, p_aug, r),
    scaled so the leading r x r block is the identity.

    Records NumericalError for a member whose leading block is singular:
    |det| below 1e-10 * scale^r, scale being the largest centred |coefficient|.
    """
    beta = candidates[:, :, :r]
    top = beta[:, :r, :r]
    scale = np.abs(beta).max(axis=(1, 2))
    singular = (scale == 0) | (np.abs(np.linalg.det(top)) < 1e-10 * np.maximum(scale**r, 1e-300))
    _flag(errors, singular, NumericalError, "cannot normalize beta: leading block is singular "
          "(dependent variable may not enter the cointegrating space)")
    inverse, _ = _each(np.linalg.inv, top)
    return beta @ inverse


@np.errstate(all="ignore")
def _stacked_fit(L: np.ndarray, beta: np.ndarray, errors: dict):
    """alpha' and sigma of the error-correction model at a given beta (n,
    p_aug, r) in the centred coordinates, from the joint moments' factors
    L = [[L1, 0], [H0', L0]] (johansen._stacked_concentrate).

    By Frisch-Waugh-Lovell, alpha' is the r-column OLS of R0 on R1 beta: R1
    is sqrt(T_eff) times orthonormal U times L1', and U'R0 / sqrt(T_eff) =
    H0, so it is the linalg._stacked_ols of H0 on L1'beta, with its pivot
    rule and errors, and with G its residual factor sigma = L0 L0' + G'G.
    Returns (alpha' (n, r, p), sigma (n, p, p)).
    """
    p_aug = beta.shape[1]
    L0 = L[:, p_aug:, p_aug:]
    alpha_t, G, _, failures = _stacked_ols(L[:, :p_aug, :p_aug].swapaxes(1, 2) @ beta,
                                           L[:, p_aug:, :p_aug].swapaxes(1, 2))
    _record(errors, failures)
    return alpha_t, L0 @ L0.swapaxes(1, 2) + G.swapaxes(1, 2) @ G


@np.errstate(all="ignore")
def _stacked_models(z: np.ndarray, names: list[tuple[str, ...]], ks: list[int], B: list,
                    r: int, case: str, L: np.ndarray, shift: np.ndarray, lam: np.ndarray,
                    beta: np.ndarray, errors: dict) -> list[VecmModel | None]:
    """estimate_vecm for every series of an (n, T, p) stack at a given beta
    (n, p_aug, r), centred, from the concentration its rank test already ran.

    Member j has variable names ``names[j]``, lag ``ks[j]`` and coefficients
    ``B[j]`` from johansen._stacked_concentrate at that lag; the joint
    factors L and shift come from the same concentration, and lam from its
    eigenproblem. The members' lags may be any mix: the fit reads only the
    factors, which have one shape at every lag, so _stacked_fit, the beta
    inference (with each member's own T_eff in the Gram matrix T_eff * S11)
    and gaussian_criteria run once, and a member's numbers do not depend on
    the members beside it. Only the short-run rows B0 - B1 beta alpha' are
    taken per member, since B changes shape with k. Returns one VecmModel
    per member, None for a member with an error in ``errors``.
    """
    n, T, p = z.shape
    _check_rank(r, p)
    p_aug = beta.shape[1]
    T_eff = T - np.array(ks)
    n_params = p * (r + np.array([len(Bj) for Bj in B])) + r * (p_aug - r)
    alpha_t, sigma = _stacked_fit(L, beta, errors)
    alpha = alpha_t.swapaxes(1, 2)
    uncentred = _uncentred(beta, shift)
    # R1'R1 restricted to the free coordinates: T_eff * S11[r:, r:], S11 = L1 L1'
    free = L[:, r:p_aug, :p_aug]
    beta_se, beta_z, wald = _stacked_beta_inference(
        T_eff[:, None, None] * (free @ free.swapaxes(1, 2)), uncentred, shift, alpha, sigma)
    loglik, aic, bic, _, failures = gaussian_criteria(sigma, T_eff, n_params)
    _record(errors, failures)
    means, models = z.mean(axis=1), []
    rows = zip(ks, B, T_eff.tolist(), n_params.tolist(), wald.tolist(), loglik.tolist(),
               aic.tolist(), bic.tolist())
    for j, (k, Bj, t, m, w, ll, a, b) in enumerate(rows):
        short = Bj[:, p_aug:] - Bj[:, :p_aug] @ beta[j] @ alpha_t[j]
        models.append(None if j in errors else VecmModel(
            vars=names[j], k=k, r=r, case=case, alpha=alpha[j], beta=uncentred[j],
            gamma=tuple(short[: p * (k - 1)].reshape(k - 1, p, p).swapaxes(1, 2)),
            mu=short[-1] if case == UNRESTRICTED_CONSTANT else np.zeros(p), sigma=sigma[j],
            loglik=ll, aic=a, bic=b, beta_se=beta_se[j], beta_z=beta_z[j], wald_chi2=w,
            wald_dof=(p_aug - r) * r, eigenvalues=lam[j, :p], T_eff=t, n_params=m,
            level_means=means[j]))
    return models


@np.errstate(all="ignore")
def _stacked_beta_inference(gram: np.ndarray, beta: np.ndarray, shift: np.ndarray,
                            alpha: np.ndarray, sigma: np.ndarray):
    """Conditional standard errors and joint Wald test for the free beta rows
    of each member of a stack.

    With beta normalized to (I_r, b')' the free block b has asymptotic
    covariance kron((R12'R12)^-1, (alpha' sigma^-1 alpha)^-1), R12 being the
    concentrated level residuals of the non-normalized coordinates. ``gram``
    holds R12'R12 in the concentration's centred coordinates, where the
    free rows are u = K^-1 b: K is the identity but for the constant row,
    (-shift_free', 1), so u's constant row is c + shift_free'b_free. The
    covariance of b is then K (R12'R12)^-1 K' (the shift's Jacobian; no
    change under uconst). The standard errors take the diagonals from
    inverse Cholesky factors, as the squared column norms of L^-1 K' and of
    the inverse factor of alpha' sigma^-1 alpha; the Wald statistic is the
    quadratic form tr(u' R12'R12 u alpha' sigma^-1 alpha). Returns (beta_se,
    beta_z, wald): a member whose Gram matrix, sigma or alpha' sigma^-1
    alpha cholesky_factor rejects gets se 0, z NaN and Wald NaN; one whose
    leading block is not the identity (np.allclose, atol 1e-8) gets z NaN.
    """
    n, p_aug, r = beta.shape
    L_gram, failures_gram = _stacked_cholesky(gram)
    L_sigma, failures_sigma = _stacked_cholesky(sigma)
    whitened = np.linalg.solve(L_sigma, alpha)
    info = whitened.swapaxes(1, 2) @ whitened  # alpha' sigma^-1 alpha
    L_info, failures_info = _stacked_cholesky(info)
    b = beta[:, r:]
    jacobian, u = np.broadcast_to(np.eye(p_aug - r), gram.shape), b
    if p_aug > shift.shape[1]:
        free = shift[:, r:]
        jacobian = jacobian.copy()
        jacobian[:, :-1, -1] = -free
        u = b.copy()
        u[:, -1] += (free[:, None] @ b[:, :-1])[:, 0]
    # diag(K S^-1 K') holds the squared column norms of L^-1 K'
    outer = np.linalg.solve(L_gram, jacobian)
    inner = np.linalg.solve(L_info, np.broadcast_to(np.eye(r), info.shape))
    diag = np.sqrt((outer**2).sum(axis=1)[:, :, None] * (inner**2).sum(axis=1)[:, None, :])
    wald = ((gram @ u @ info) * u).sum(axis=(1, 2))
    beta_se = np.zeros_like(beta)
    beta_se[:, r:] = diag
    beta_z = np.full_like(beta, np.nan)
    beta_z[:, r:] = np.where(diag > 0, b / diag, np.nan)
    failed = [*{*failures_gram, *failures_sigma, *failures_info}]
    beta_se[failed] = 0.0
    wald[failed] = np.nan
    eye = np.eye(r)  # np.allclose(top, eye, atol=1e-8), without its overhead
    identity = (np.abs(beta[:, :r, :r] - eye) <= 1e-8 + 1e-5 * eye).all(axis=(1, 2))
    beta_z[failed] = np.nan
    beta_z[~identity] = np.nan
    return beta_se, beta_z, wald


@dataclass(frozen=True)
class CointegratingEquation:
    """Long-run relation solved for the dependent (first) variable."""

    dependent: str
    coefficients: dict[str, float]  # structural zeros for omitted variables
    intercept: float
    z_scores: dict[str, float]  # only variables present in the model
    significant_at_5pct: dict[str, bool]
    intercept_z: float | None


Z_CRIT_5PCT = 1.96


def normalize_cointegrating_equation(model: VecmModel) -> CointegratingEquation:
    """Rewrite beta'z* = 0 as dependent = sum(coef * var) + intercept (r=1);
    the n=1 call of _stacked_equations."""
    errors = {}
    (equation,) = _stacked_equations([model], errors)
    _raise_first(errors)
    return equation


@np.errstate(all="ignore")
def _stacked_equations(models: list, errors: dict) -> list[CointegratingEquation | None]:
    """normalize_cointegrating_equation for models of one dimension p and one
    deterministic case, in one pass; the specification search's rank-1
    members of one subset size, or a single model.

    Returns one CointegratingEquation per member, None for a member with an
    error in ``errors`` (whose model may be None). Records ValidationError
    for a model of rank other than 1, and NonNormalizableError for one whose
    dependent coefficient is numerically zero: below 1e-10 times the largest
    |beta|, or exactly 0.
    """
    for i, model in enumerate(models):
        if i not in errors and model.r != 1:
            errors[i] = ValidationError(f"normalization needs rank 1, got r={model.r}")
    live = [i for i in range(len(models)) if i not in errors]
    out = [None] * len(models)
    if not live:
        return out
    stack = [models[i] for i in live]
    p, restricted = stack[0].p, stack[0].has_restricted_constant
    beta, z = (np.array([getattr(m, f)[:, 0] for m in stack]) for f in ("beta", "beta_z"))
    b_dep = beta[:, 0]
    scale = np.abs(beta).max(axis=1)
    zero = (np.abs(b_dep) < 1e-10 * np.maximum(scale, 1e-300)) | (b_dep == 0.0)
    # every coefficient solved for the dependent, with the intercept in a
    # restricted constant's column; the z of a solved coefficient is minus
    # beta's when b_dep > 0 (NaN where beta's is not finite)
    solved = -beta / b_dep[:, None]
    z_eq = np.where(np.isfinite(z), z * np.where(b_dep > 0, -1.0, 1.0)[:, None], np.nan)
    if restricted:
        intercept = solved[:, -1]
    else:
        # the dependent's mean less the fitted level at the means, summed in
        # variable order
        means = np.array([m.level_means for m in stack])
        fitted = 0
        for j in range(1, p):
            fitted = fitted + solved[:, j] * means[:, j]
        intercept = means[:, 0] - fitted
    rows = zip(live, stack, solved.tolist(), z_eq.tolist(), zero.tolist(), intercept.tolist())
    for i, model, coefs, zs, dep_zero, icpt in rows:
        dep, present = model.vars[0], model.vars[1:]
        if dep_zero:
            errors[i] = NonNormalizableError(
                f"coefficient on {dep} is numerically zero; cannot solve "
                "the cointegrating relation for it")
            continue
        indep = tuple(v for v in VARIABLES if v != dep) if set(VARIABLES).issuperset(model.vars) \
            else present
        coefficients = dict.fromkeys(indep, 0.0)
        coefficients.update(zip(present, coefs[1:p]))
        z_scores = {name: zj for name, zj in zip(present, zs[1:p]) if zj == zj}
        out[i] = CointegratingEquation(
            dependent=dep,
            coefficients=coefficients,
            intercept=icpt,
            z_scores=z_scores,
            significant_at_5pct={name: abs(zj) >= Z_CRIT_5PCT for name, zj in z_scores.items()},
            intercept_z=zs[-1] if restricted and zs[-1] == zs[-1] else None,
        )
    return out


def companion_matrix(alpha: np.ndarray, beta_vars: np.ndarray,
                     gammas: tuple[np.ndarray, ...]) -> np.ndarray:
    """Companion form of the level VAR implied by (alpha, beta, Gamma_i)."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    beta_vars = np.atleast_2d(np.asarray(beta_vars, dtype=float))
    p = alpha.shape[0]
    k = len(gammas) + 1
    pi = alpha @ beta_vars.T
    A = [np.zeros((p, p)) for _ in range(k)]
    A[0] = np.eye(p) + pi + (gammas[0] if k > 1 else 0.0)
    for i in range(2, k):
        A[i - 1] = gammas[i - 1] - gammas[i - 2]
    if k > 1:
        A[k - 1] = -gammas[k - 2]
    top = np.hstack(A)
    if k == 1:
        return top
    lower = np.hstack([np.eye(p * (k - 1)), np.zeros((p * (k - 1), p))])
    return np.vstack([top, lower])


def stability_check(model: VecmModel) -> tuple[np.ndarray, int, bool]:
    """Companion-root moduli, count near the unit circle, and stability.

    A cointegrated VAR(k) with rank r carries exactly p - r common trends,
    so that many moduli should sit within UNIT_ROOT_TOL of one; the model is
    stable when every remaining modulus is strictly inside the circle.
    """
    comp = companion_matrix(model.alpha, model.beta_variables(), model.gamma)
    roots = general_eigenvalues(comp)
    moduli = np.abs(roots)
    unit_count = int(np.sum(np.abs(moduli - 1.0) <= UNIT_ROOT_TOL))
    expected = model.p - model.r
    rest = moduli[expected:]
    stable = bool(unit_count == expected and np.all(rest < 1.0 - STABLE_MARGIN))
    return moduli, unit_count, stable

