"""velakit: space-agency budget econometrics and Mars mission cost sharing.

The library side covers the full small-sample cointegration workflow (panel
repair, unit-root testing, lag selection, rank testing, error-correction
estimation, specification search) plus seeded Monte Carlo validation; the
mission side turns pooled agency budgets into an apportioned station plan.
"""

__version__ = "0.1.0"

# Package attributes load on first access (PEP 562), so importing one
# submodule, as the command line does, does not import the others.
_EXPORTS = {
    "errors": (
        "CorruptedBundleError", "NoAdmissibleSpecError", "NonNormalizableError",
        "NotPositiveDefiniteError", "NumericalError", "SingularMatrixError",
        "ValidationError", "VelakitError",
    ),
    "linalg": (
        "OlsFit", "cholesky_factor", "general_eigenvalues", "ols_fit",
        "symmetric_eigendecomposition",
    ),
    "panel": (
        "CSV_COLUMNS", "VARIABLES", "LogLevelPanel", "MacroPanel", "interpolate_missing",
        "load_panel", "to_log_levels",
    ),
    "unit_root": ("AdfResult", "adf_test", "default_adf_lags"),
    "lag_selection": (
        "LagSelectionTable", "VarFit", "fit_var", "select_lag",
    ),
    "johansen": (
        "MomentMatrices", "RankTestResult", "RESTRICTED_CONSTANT", "UNRESTRICTED_CONSTANT",
        "concentrate", "rank_test", "solve_cointegration_eigenproblem",
    ),
    "vecm": (
        "CointegratingEquation", "VecmModel", "estimate_vecm",
        "normalize_cointegrating_equation", "stability_check",
    ),
    "spec_search": (
        "SpecificationReport", "build_correlation_table", "enumerate_specifications",
        "fit_specifications", "run_specification_search",
    ),
    "synthetic": (
        "SyntheticSpec", "generate_vecm_data", "monte_carlo_critical_values",
        "random_walk_spec", "run_recovery_study", "study_spec",
    ),
    "reference_data": (
        "HabitatModule", "LaunchVehicle", "MarsLaunch", "load_reference_tables",
        "query_super_heavy",
    ),
    "mission": (
        "AgencyBudget", "MissionConfig", "MissionPlan", "allocate", "budget_pool",
        "largest_remainder", "load_config", "total_cost",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
