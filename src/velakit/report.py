"""Fixed-width text rendering for model tables, correlation rows and plans.

Columns have stable widths so the tables can be parsed back; equation
coefficients print with one decimal, standard errors and z-scores with two.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .panel import VARIABLES
from .spec_search import SpecificationReport
from .vecm import CointegratingEquation, VecmModel

if TYPE_CHECKING:
    from .mission import MissionPlan

OMITTED = "—"  # rendered for structural zeros, never "0.00"

_VAR_W = 10
_NUM_W = 12
_Z_W = 9
_FLAG_W = 4


def _rule(width: int) -> str:
    return "-" * width


def _num(value, width: int, decimals: int) -> str:
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return f"{OMITTED:>{width}}"
    return f"{value:>{width}.{decimals}f}"


def render_model_table(model: VecmModel, equation: CointegratingEquation,
                       spec_id: int = 1, agency: str | None = None) -> str:
    """One fitted specification: headline chi-square, long-run coefficient
    rows (estimate, std. err., z, 5% flag), fit statistics footer."""
    title = f"Model Specification {spec_id}, χ² = {model.wald_chi2:.1f}"
    if agency:
        title = f"{agency} {title}"
    width = _VAR_W + 2 * _NUM_W + _Z_W + _FLAG_W
    header = (
        f"{'variable':<{_VAR_W}}{'estimate':>{_NUM_W}}{'std. err.':>{_NUM_W}}"
        f"{'z':>{_Z_W}}{'5%':>{_FLAG_W}}"
    )
    lines = [title, _rule(width), header, _rule(width)]

    dep = equation.dependent
    beta_se_by_var = {}
    for idx, name in enumerate(model.vars[1:], start=1):
        beta_se_by_var[name] = float(model.beta_se[idx, 0])
    order = [v for v in VARIABLES if v != dep] if dep == "sb" else list(
        equation.coefficients
    )
    for name in order:
        coef = equation.coefficients.get(name, 0.0)
        if name not in model.vars:
            lines.append(
                f"{name:<{_VAR_W}}{OMITTED:>{_NUM_W}}{OMITTED:>{_NUM_W}}"
                f"{OMITTED:>{_Z_W}}{'':>{_FLAG_W}}"
            )
            continue
        z = equation.z_scores.get(name)
        se = beta_se_by_var.get(name)
        flag = "*" if equation.significant_at_5pct.get(name) else ""
        lines.append(
            f"{name:<{_VAR_W}}{_num(coef, _NUM_W, 1)}{_num(se, _NUM_W, 2)}"
            f"{_num(z, _Z_W, 2)}{flag:>{_FLAG_W}}"
        )
    lines.append(
        f"{'const':<{_VAR_W}}{_num(equation.intercept, _NUM_W, 1)}"
        f"{OMITTED:>{_NUM_W}}{_num(equation.intercept_z, _Z_W, 2)}{'':>{_FLAG_W}}"
    )
    lines.append(_rule(width))
    lines.append(
        f"loglik {model.loglik:.6f}  AIC {model.aic:.6f}  BIC {model.bic:.6f}"
        f"  T {model.T_eff}  lags {model.k}  case {model.case}"
    )
    return "\n".join(lines) + "\n"


def render_correlation_table(report: SpecificationReport) -> str:
    """Sign/significance rollup across admissible specifications."""
    row = report.correlation_row or {}
    width = _VAR_W + 13 + 13 + 10 + 12
    lines = [
        f"Variable correlation with the {report.agency_id} space budget",
        _rule(width),
        f"{'variable':<{_VAR_W}}{'correlation':>13}{'signif. 5%':>13}"
        f"{'conflict':>10}{'source spec':>12}",
        _rule(width),
    ]
    for name, cell in row.items():
        src = cell["source_spec"]
        lines.append(
            f"{name:<{_VAR_W}}{cell['sign']:>13}"
            f"{('yes' if cell['significant_at_5pct'] else 'no'):>13}"
            f"{('yes' if cell['conflict'] else 'no'):>10}"
            f"{(OMITTED if src is None else str(src)):>12}"
        )
    lines.append(_rule(width))
    lines.append(f"admissible specs: {len(report.specs)}  rejected: {len(report.rejected)}")
    return "\n".join(lines) + "\n"


def render_mission_plan(plan: MissionPlan) -> str:
    """One agency per row: budget, launches, modules, contribution."""
    width = 12 + 14 + 10 + 9 + 16
    lines = [
        "Mission cost sharing",
        _rule(width),
        f"{'agency':<12}{'budget B$/yr':>14}{'launches':>10}{'modules':>9}"
        f"{'contrib. B$':>16}",
        _rule(width),
    ]
    for a in plan.agencies:
        lines.append(
            f"{a.agency_id:<12}{a.annual_budget_busd:>14.2f}{a.launches:>10d}"
            f"{a.modules:>9d}{a.contribution_busd:>16.3f}"
        )
    lines.append(_rule(width))
    lines.append(
        f"{'total':<12}{'':>14}{plan.total_launches:>10d}{plan.total_modules:>9d}"
        f"{plan.cost_busd:>16.3f}"
    )
    lines.append(
        f"pool {plan.pool_busd:.3f} B$  cost {plan.cost_busd:.3f} B$  "
        f"margin {100 * plan.margin_fraction:.1f}%"
        + ("" if plan.feasible else "  [INFEASIBLE]")
    )
    return "\n".join(lines) + "\n"


def render_adf_table(results: dict[str, object]) -> str:
    """ADF summary, one series per row."""
    width = _VAR_W + 6 + 16 + 12 + 12 + 9
    lines = [
        "Unit-root (ADF) tests",
        _rule(width),
        f"{'series':<{_VAR_W}}{'lags':>6}{'deterministic':>16}{'statistic':>12}"
        f"{'5% c.v.':>12}{'reject':>9}",
        _rule(width),
    ]
    for name, res in results.items():
        lines.append(
            f"{name:<{_VAR_W}}{res.lags:>6d}{res.deterministic:>16}"
            f"{_num(res.statistic, 12, 3)}{res.critical_values['5%']:>12.2f}"
            f"{('yes' if res.reject_unit_root_at_5pct else 'no'):>9}"
        )
    lines.append(_rule(width))
    return "\n".join(lines) + "\n"


def render_lag_table(table) -> str:
    width = 4 + 16 + 12 * 3
    lines = [
        f"Lag selection over {', '.join(table.vars)} (common sample T={table.sample_size})",
        _rule(width),
        f"{'k':<4}{'loglik':>16}{'AIC':>12}{'BIC':>12}{'HQIC':>12}",
        _rule(width),
    ]
    for row in table.rows:
        marks = "".join(
            "*" if table.chosen_lag[c] == row["k"] else " " for c in ("aic", "bic", "hqic")
        )
        lines.append(
            f"{row['k']:<4d}{row['loglik']:>16.4f}{row['aic']:>12.4f}"
            f"{row['bic']:>12.4f}{row['hqic']:>12.4f}  {marks}"
        )
    lines.append(_rule(width))
    lines.append(
        "chosen: "
        + "  ".join(f"{c.upper()} k={table.chosen_lag[c]}" for c in ("aic", "bic", "hqic"))
    )
    return "\n".join(lines) + "\n"


def render_rank_table(result) -> str:
    width = 4 + 12 + 12 * 4
    lines = [
        f"Cointegration rank test (case {result.deterministic_case}, "
        f"T={result.T_eff}, level {int(result.level * 100)}%)",
        _rule(width),
        f"{'r':<4}{'eigenvalue':>12}{'trace':>12}{'5% c.v.':>12}"
        f"{'max-eig':>12}{'5% c.v.':>12}",
        _rule(width),
    ]
    for r in range(result.p):
        mark = "  <- selected" if r == result.selected_rank else ""
        lines.append(
            f"{r:<4d}{result.eigenvalues[r]:>12.4f}{result.trace_stats[r]:>12.2f}"
            f"{result.critical_values_5pct[r]:>12.2f}{result.maxeig_stats[r]:>12.2f}"
            f"{result.maxeig_critical_values_5pct[r]:>12.2f}{mark}"
        )
    lines.append(_rule(width))
    lines.append(f"selected rank: {result.selected_rank}")
    return "\n".join(lines) + "\n"
