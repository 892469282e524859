"""Specification search over variable subsets and the sign/significance rollup.

Every subset containing the dependent budget variable is crossed with the
candidate lag lengths; a fit is admissible when the trace test selects
exactly one cointegrating relation. Admissible fits aggregate into a
per-variable correlation row where sign conflicts are adjudicated by the
coefficient with the larger |z|.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NoAdmissibleSpecError, ValidationError, VelakitError
from .johansen import (
    RESTRICTED_CONSTANT,
    _stacked_rank_test,
    concentrate,
    rank_test,
)
from .lag_selection import level_matrix
from .vecm import (
    CointegratingEquation,
    VecmModel,
    Z_CRIT_5PCT,
    _stacked_models,
    estimate_vecm,
    normalize_cointegrating_equation,
)
from .panel import VARIABLES

DEPENDENT = "sb"
DEFAULT_MIN_SIZE = 4


def enumerate_specifications(vars=VARIABLES, min_size: int = DEFAULT_MIN_SIZE) -> list[tuple[str, ...]]:
    """All subsets containing the dependent, size >= min_size, ordered by
    descending size then lexicographically in canonical variable order."""
    vars = tuple(vars)
    if DEPENDENT not in vars:
        raise ValidationError(f"variable set must contain {DEPENDENT!r}")
    if min_size < 2:
        raise ValidationError(f"min_size must be >= 2, got {min_size}")
    others = [v for v in vars if v != DEPENDENT]
    order = {name: i for i, name in enumerate(vars)}
    out: list[tuple[str, ...]] = []
    for size in range(len(vars), min_size - 1, -1):
        group = []
        for combo in combinations(others, size - 1):
            subset = (DEPENDENT, *sorted(combo, key=order.get))
            group.append(subset)
        group.sort(key=lambda s: tuple(order[v] for v in s))
        out.extend(group)
    return out


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


def _fitted(subset, k: int, model: VecmModel) -> FittedSpec:
    """A rank-1 fit with its solved equation and criteria (may raise)."""
    return FittedSpec(
        subset=subset,
        k=k,
        model=model,
        equation=normalize_cointegrating_equation(model),
        criteria={
            "chi2": model.wald_chi2,
            "aic": model.aic,
            "bic": model.bic,
            "loglik": model.loglik,
        },
    )


def _fit_one(panel, subset, k: int, case: str) -> FittedSpec | RejectedSpec:
    """Rank-test one subset at one lag and fit it when the rank is 1."""
    try:
        m = concentrate(panel, subset, k=k, case=case)
        rt = rank_test(m, case=case)
        if rt.selected_rank != 1:
            return RejectedSpec(subset, k, f"selected rank {rt.selected_rank}")
        return _fitted(subset, k, estimate_vecm(panel, subset, k=k, r=1, case=case))
    except VelakitError as exc:
        return RejectedSpec(subset, k, f"{type(exc).__name__}: {exc}")


def _fit_group(z: np.ndarray, subsets, names, k: int, case: str):
    """_fit_one for same-size subsets at one lag, in one stacked pass.

    ``z`` holds the subsets' levels as an (n, T, p) array. The group's
    concentration and eigenproblem give the rank decisions, and the same
    moments and eigenvectors the rank-1 estimates (vecm._stacked_models).
    Returns None where a check of the scalar path could fail for some
    member; the caller then runs _fit_one for each.
    """
    if not isinstance(k, (int, np.integer)):
        return None
    # non-finite intermediates only mean a failed check; the scalar re-run
    # reports them
    with np.errstate(all="ignore"):
        ranked = _stacked_rank_test(z, k, case, vectors=True)
        if ranked is None:
            return None
        W, X, S11, lam, candidates, _, ranks = ranked
        keep = np.flatnonzero(ranks == 1)
        models = []
        if keep.size:
            models = _stacked_models(
                z[keep], [names[i] for i in keep], k, 1, case, W[keep],
                None if X is None else X[keep], S11[keep], lam[keep], candidates[keep])
            if models is None:
                return None
    models = iter(models)
    out = []
    try:
        for subset, rank in zip(subsets, ranks.tolist()):
            out.append(_fitted(subset, k, next(models)) if rank == 1
                       else RejectedSpec(subset, k, f"selected rank {rank}"))
    except VelakitError:
        return None
    return out


def fit_specifications(panel, subsets, k_candidates=(1, 2),
                       case: str = RESTRICTED_CONSTANT,
                       agency_id: str | None = None) -> SpecificationReport:
    """Fit every subset x lag candidate, keeping rank-1 fits.

    Failures (selected rank != 1, singular moment matrices, short samples)
    are recorded with their reason rather than dropped silently. Subsets of
    one size are fitted together at each lag (_fit_group); a group that
    fails a check of the scalar path runs one spec at a time instead, so
    the records are those of the scalar path either way, in subset-major,
    lag-ascending order.
    """
    agency = agency_id or getattr(panel, "agency_id", "?")
    subsets = list(subsets)
    ks = sorted(k_candidates)
    by_size: dict[int, list[int]] = {}
    for pos, subset in enumerate(subsets):
        by_size.setdefault(len(subset), []).append(pos)
    outcome = {}
    for positions in by_size.values():
        group = [subsets[pos] for pos in positions]
        try:
            levels = [level_matrix(panel, subset) for subset in group]
        except VelakitError:
            levels = None  # each member records its error on the scalar path
        for k in ks:
            out = levels and _fit_group(np.stack([zi for zi, _ in levels]), group,
                                        [names for _, names in levels], k, case)
            if out is None:
                out = [_fit_one(panel, subset, k, case) for subset in group]
            outcome.update(((pos, k), spec) for pos, spec in zip(positions, out))
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
    subsets = enumerate_specifications(VARIABLES, min_size=min_size)
    report = fit_specifications(panel, subsets, k_candidates=k_candidates, case=case)
    row = build_correlation_table(report)
    return SpecificationReport(
        agency_id=report.agency_id,
        case=report.case,
        specs=report.specs,
        rejected=report.rejected,
        correlation_row=row,
    )
