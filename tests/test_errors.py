import numpy as np
import pytest

from velakit.errors import ValidationError
from velakit.johansen import concentrate
from velakit.lag_selection import fit_var, select_lag
from velakit.spec_search import enumerate_specifications, run_specification_search
from velakit.synthetic import generate_vecm_data, study_spec
from velakit.unit_root import adf_test, default_adf_lags
from velakit.vecm import estimate_vecm

from conftest import synthetic_log_panel

Z = generate_vecm_data(study_spec(T=60, seed=3))

# each call takes one integer argument, a count or an order
CALLS = {
    "concentrate.k": (lambda v: concentrate(Z, k=v), "k"),
    "estimate_vecm.k": (lambda v: estimate_vecm(Z, k=v), "k"),
    "estimate_vecm.r": (lambda v: estimate_vecm(Z, r=v), "rank"),
    "fit_var.k": (lambda v: fit_var(Z, k=v), "k"),
    "select_lag.k_max": (lambda v: select_lag(Z, k_max=v), "k_max"),
    "adf_test.lags": (lambda v: adf_test(Z[:, 0], lags=v), "lags"),
    # a sample length: the accepted integer is scaled to T=50
    "default_adf_lags.T": (lambda v: default_adf_lags(v * 25 if isinstance(v, np.integer) else v),
                           "T"),
    "enumerate_specifications.min_size": (lambda v: enumerate_specifications(min_size=v),
                                          "min_size"),
    "run_specification_search.min_size": (
        lambda v: run_specification_search(synthetic_log_panel(), min_size=v), "min_size"),
}


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("value", [1.5, 1.0, True, "1", None, np.int64(2)], ids=repr)
def test_integer_arguments_follow_one_rule(call, value):
    # an int or numpy integer, never a bool or a float that equals one
    fn, name = CALLS[call]
    if isinstance(value, np.integer):
        fn(value)
        return
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {value!r}$"):
        fn(value)


@pytest.mark.parametrize("source", ["panel", "array"])
@pytest.mark.parametrize("fn", [concentrate, estimate_vecm, select_lag, fit_var],
                         ids=lambda fn: fn.__name__)
def test_string_vars_rejected(fn, source):
    # a string would name one variable per character: "sb,gpc" as
    # ['s', 'b', ',', ...] on a panel, "ab" as columns a and b of an array
    data, vars = (synthetic_log_panel(), "sb,gpc") if source == "panel" else (Z[:, :2], "ab")
    with pytest.raises(ValidationError, match=f"^vars must be a sequence of variable names, "
                                              f"got the string {vars!r}$"):
        fn(data, vars=vars)
