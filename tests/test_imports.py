"""The package exports load lazily and the command line stays lean."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import velakit

SRC = Path(velakit.__file__).resolve().parents[1]

# every name the package exported when it imported all of its submodules eagerly
EXPORTED = (
    "AdfResult", "AgencyBudget", "CSV_COLUMNS", "CointegratingEquation",
    "CorruptedBundleError", "HabitatModule", "LagSelectionTable", "LaunchVehicle",
    "LogLevelPanel", "MacroPanel", "MarsLaunch", "MissionConfig", "MissionPlan",
    "MomentMatrices", "NoAdmissibleSpecError", "NonNormalizableError",
    "NotPositiveDefiniteError", "NumericalError", "OlsFit", "RESTRICTED_CONSTANT",
    "RankTestResult", "SingularMatrixError", "SpecificationReport", "SyntheticSpec",
    "UNRESTRICTED_CONSTANT", "VARIABLES", "ValidationError", "VarFit", "VecmModel",
    "VelakitError", "adf_test", "allocate", "budget_pool", "build_correlation_table",
    "cholesky_factor", "concentrate", "default_adf_lags", "enumerate_specifications",
    "errors", "estimate_vecm", "fit_specifications", "fit_var", "general_eigenvalues",
    "generate_vecm_data", "interpolate_missing", "johansen",
    "lag_selection", "largest_remainder", "linalg", "load_config", "load_panel",
    "load_reference_tables", "mission", "monte_carlo_critical_values",
    "normalize_cointegrating_equation", "ols_fit", "panel",
    "query_super_heavy", "random_walk_spec", "rank_test", "reference_data",
    "run_recovery_study", "run_specification_search", "select_lag",
    "solve_cointegration_eigenproblem", "spec_search", "stability_check", "study_spec",
    "symmetric_eigendecomposition", "synthetic", "to_log_levels", "total_cost",
    "unit_root", "vecm",
)
UNUSED_BY_PIPELINE = ("velakit.mission", "velakit.synthetic", "velakit.reference_data")


def run_fresh(code: str):
    """Run code in a new interpreter and return what it prints as JSON."""
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


def test_cli_import_leaves_unused_modules_unloaded():
    loaded = run_fresh(
        "import json, sys\n"
        "import velakit.cli\n"
        f"print(json.dumps([m for m in {UNUSED_BY_PIPELINE!r} if m in sys.modules]))\n"
    )
    assert loaded == []


def test_package_import_loads_no_submodule():
    loaded = run_fresh(
        "import json, sys\n"
        "import velakit\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('velakit.'))))\n"
    )
    assert loaded == []


def test_every_exported_name_resolves_lazily():
    report = run_fresh(
        "import importlib, json, types\n"
        "import velakit\n"
        f"names = {EXPORTED!r}\n"
        "bad = []\n"
        "for name in names:\n"
        "    value = getattr(velakit, name)\n"
        "    if isinstance(value, types.ModuleType):\n"
        "        ok = value is importlib.import_module('velakit.' + name)\n"
        "    else:\n"
        "        ok = any(getattr(m, name, None) is value for m in\n"
        "                 (importlib.import_module('velakit.' + n) for n in velakit._EXPORTS))\n"
        "    if not ok:\n"
        "        bad.append(name)\n"
        "print(json.dumps(bad))\n"
    )
    assert report == []


def test_star_import_and_dir_list_every_exported_name():
    report = run_fresh(
        "import json\n"
        "import velakit\n"
        "namespace = {}\n"
        "exec('from velakit import *', namespace)\n"
        "print(json.dumps({'all': sorted(velakit.__all__), 'dir': dir(velakit),\n"
        "                  'star': sorted(k for k in namespace if k != '__builtins__')}))\n"
    )
    assert report["all"] == sorted(EXPORTED)
    assert report["star"] == sorted(EXPORTED)
    assert set(EXPORTED) <= set(report["dir"])


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        velakit.no_such_name
