"""Specification search over variable subsets and the sign/significance rollup.

Every subset containing the dependent budget variable is crossed with the
candidate lag lengths; a fit is admissible when the trace test selects
exactly one cointegrating relation. Same-size subsets run as one flat
stack with a member per (subset, lag), each member carrying its own lag
and short-run coefficients and recording its own failure: each lag is
concentrated on its own, and the stages after it run once per size on
the members' concentrated moments, which have one shape at every lag:
the eigenproblem, the fit (no residuals are kept) and the solved
equations of all the size's rank-1 members, each in one pass.
Admissible fits aggregate into a per-variable correlation row where sign
conflicts are adjudicated by the coefficient with the larger |z|.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .errors import NoAdmissibleSpecError, ValidationError, VelakitError, _integers, _is_integer
from .johansen import (
    RESTRICTED_CONSTANT,
    _check_case,
    _check_dimension,
    _record,
    _stacked_concentrate,
    _stacked_eigenproblem,
    _stacked_trace_test,
)
from .lag_selection import level_matrix
from .vecm import (
    CointegratingEquation,
    VecmModel,
    Z_CRIT_5PCT,
    _stacked_equations,
    _stacked_models,
    _stacked_phillips,
)
from .panel import VARIABLES

DEPENDENT = "sb"
DEFAULT_MIN_SIZE = 4


def enumerate_specifications(min_size: int = DEFAULT_MIN_SIZE) -> list[tuple[str, ...]]:
    """All subsets of VARIABLES containing the dependent, size >= min_size, by
    descending size, then in canonical variable order as combinations yields."""
    (min_size,) = _integers(min_size=min_size)
    if min_size < 2:
        raise ValidationError(f"min_size must be >= 2, got {min_size}")
    if min_size > len(VARIABLES):
        raise ValidationError(
            f"min_size must be <= {len(VARIABLES)}, the number of variables, got {min_size}")
    others = [v for v in VARIABLES if v != DEPENDENT]
    return [(DEPENDENT, *combo) for size in range(len(VARIABLES), min_size - 1, -1)
            for combo in combinations(others, size - 1)]


@dataclass(frozen=True)
class FittedSpec:
    subset: tuple[str, ...]
    k: int
    model: VecmModel
    equation: CointegratingEquation
    criteria: dict[str, float]  # chi2, aic, bic, loglik


@dataclass(frozen=True)
class RejectedSpec:
    subset: tuple[str, ...]
    k: int
    reason: str


@dataclass(frozen=True)
class SpecificationReport:
    agency_id: str
    case: str
    specs: tuple[FittedSpec, ...]
    rejected: tuple[RejectedSpec, ...]
    correlation_row: dict[str, dict] | None = None


def _rejected(subset, k: int, error: VelakitError) -> RejectedSpec:
    return RejectedSpec(subset, k, f"{type(error).__name__}: {error}")


def _fit_group(z: np.ndarray, subsets, names, ks, case: str) -> dict:
    """Rank-test same-size subsets at every lag in ``ks`` and fit those of
    rank 1; returns one record per (subset index, lag).

    ``z`` holds the subsets' levels as an (n, T, p) array. The stack has one
    member per (subset, lag), carrying its subset index, its lag, and its
    short-run coefficients B from the concentration at that lag, which runs
    once per lag since B changes shape with k. The moments all have one
    shape, so the
    eigenproblem, the trace test, the normalization, the rank-1 estimates
    (vecm._stacked_models) and the solved equations (vecm._stacked_equations)
    run once for the whole size. A member that fails records its own typed
    error; a failure of a whole lag (too short a sample for it) is that
    lag's records', and one of the whole size (more variables than the
    critical-value table covers) every record's.
    """
    n, T, p = z.shape
    try:
        _check_dimension(p)
    except VelakitError as exc:
        return {(i, k): _rejected(subsets[i], k, exc) for i in range(n) for k in ks}
    out, errors = {}, {}
    members, moments = [], []  # members: (subset index, lag, B) per stack position
    for k in ks:
        try:
            B, S, shift, failures = _stacked_concentrate(z, k, case)
        except VelakitError as exc:
            out.update(((i, k), _rejected(subsets[i], k, exc)) for i in range(n))
            continue
        _record(errors, {len(members) + i: e for i, e in failures.items()})
        members += zip(range(n), [k] * n, B)
        moments.append((S, shift))
    if not members:
        return out
    S, shift = map(np.concatenate, zip(*moments))
    lam, candidates, L = _stacked_eigenproblem(S, p, errors, vectors=True)
    _, ranks = _stacked_trace_test(lam, np.array([T - k for _, k, *_ in members]), p, case)
    keep = []  # stack positions of the rank-1 members
    for j, ((i, k, *_), rank) in enumerate(zip(members, ranks.tolist())):
        if j in errors:
            out[i, k] = _rejected(subsets[i], k, errors[j])
        elif rank != 1:
            out[i, k] = RejectedSpec(subsets[i], k, f"selected rank {rank}")
        else:
            keep.append(j)
    if not keep:
        return out
    index, lags, B = zip(*(members[j] for j in keep))
    kept = {}
    try:
        beta = _stacked_phillips(candidates[keep], 1, kept)
        models = _stacked_models(z[list(index)], [names[i] for i in index], lags, B, 1, case,
                                 S[keep], L[keep], shift[keep], lam[keep], beta, kept)
    except VelakitError as exc:
        kept, models = dict.fromkeys(range(len(keep)), exc), [None] * len(keep)
    equations = _stacked_equations(models, kept)
    for pos, (i, k, model) in enumerate(zip(index, lags, models)):
        out[i, k] = _rejected(subsets[i], k, kept[pos]) if pos in kept else FittedSpec(
            subsets[i], k, model, equations[pos], {"chi2": model.wald_chi2, "aic": model.aic,
                                                   "bic": model.bic, "loglik": model.loglik})
    return out


def fit_specifications(panel, subsets, k_candidates=(1, 2),
                       case: str = RESTRICTED_CONSTANT) -> SpecificationReport:
    """Fit every subset x lag candidate, keeping rank-1 fits.

    The case, the subsets (at least one) and the lag candidates (at least
    one, distinct integers >= 1) are validated first (ValidationError).
    Failures (selected rank != 1, singular moment matrices, short samples)
    are recorded with their reason rather than dropped silently. Subsets of
    one size are fitted together, at every lag in one stack (_fit_group);
    the records come in subset-major, lag-ascending order.
    """
    _check_case(case)
    subsets = list(subsets)
    if not subsets:
        raise ValidationError("no subsets to fit: subsets is empty")
    ks = list(k_candidates)
    if not ks:
        raise ValidationError("no lag candidates to fit: k_candidates is empty")
    for i, k in enumerate(ks):
        if not _is_integer(k) or k < 1:
            raise ValidationError(f"lag candidate k={k!r} must be an integer >= 1")
        if k in ks[:i]:
            raise ValidationError(f"lag candidate k={k!r} is repeated")
    ks.sort()
    agency = getattr(panel, "agency_id", "?")
    by_size: dict[int, list[int]] = {}
    for pos, subset in enumerate(subsets):
        by_size.setdefault(len(subset), []).append(pos)
    outcome = {}
    for positions in by_size.values():
        group, levels = [], []
        for pos in positions:
            try:
                levels.append(level_matrix(panel, subsets[pos]))
            except VelakitError as exc:
                outcome.update(((pos, k), _rejected(subsets[pos], k, exc)) for k in ks)
            else:
                group.append(pos)
        if not group:
            continue
        out = _fit_group(np.stack([zi for zi, _ in levels]), [subsets[pos] for pos in group],
                         [names for _, names in levels], ks, case)
        outcome.update(((group[i], k), spec) for (i, k), spec in out.items())
    records = [outcome[pos, k] for pos in range(len(subsets)) for k in ks]
    fitted = [r for r in records if isinstance(r, FittedSpec)]
    rejected = [r for r in records if isinstance(r, RejectedSpec)]
    if not fitted:
        raise NoAdmissibleSpecError(
            f"no admissible specification for {agency}: every candidate was "
            f"rejected ({len(rejected)} attempts)"
        )
    return SpecificationReport(
        agency_id=agency, case=case, specs=tuple(fitted), rejected=tuple(rejected)
    )


def build_correlation_table(report: SpecificationReport) -> dict[str, dict]:
    """Per-variable sign/significance summary across admissible specs.

    When specs disagree in sign, the coefficient with the larger |z| wins
    and the row is flagged as conflicting. Variables absent from every
    admissible spec get sign 'none'.
    """
    if not report.specs:
        raise ValidationError("report has no admissible specifications")
    independents = tuple(v for v in VARIABLES if v != DEPENDENT)
    table: dict[str, dict] = {}
    for var in independents:
        entries = []  # (abs_z, coefficient, z, spec_index)
        signs = set()
        for i, spec in enumerate(report.specs):
            if var not in spec.subset:
                continue
            coef = spec.equation.coefficients[var]
            z = spec.equation.z_scores.get(var)
            if z is None or not np.isfinite(z):
                continue
            entries.append((abs(z), coef, z, i))
            if coef != 0.0:
                signs.add(coef > 0)
        if not entries:
            table[var] = {
                "sign": "none",
                "significant_at_5pct": False,
                "source_spec": None,
                "conflict": False,
            }
            continue
        entries.sort(key=lambda e: (-e[0], e[3]))
        abs_z, coef, _, idx = entries[0]
        table[var] = {
            "sign": "+" if coef > 0 else ("-" if coef < 0 else "none"),
            "significant_at_5pct": bool(abs_z >= Z_CRIT_5PCT),
            "source_spec": idx,
            "conflict": len(signs) > 1,
        }
    return table


def run_specification_search(panel, min_size: int = DEFAULT_MIN_SIZE,
                             k_candidates=(1, 2),
                             case: str = RESTRICTED_CONSTANT) -> SpecificationReport:
    """enumerate -> fit -> aggregate, returning a complete report."""
    subsets = enumerate_specifications(min_size)
    report = fit_specifications(panel, subsets, k_candidates=k_candidates, case=case)
    return replace(report, correlation_row=build_correlation_table(report))
