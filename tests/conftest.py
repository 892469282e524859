import dataclasses

import numpy as np
import pytest

from velakit.johansen import _stacked_concentrate, _stacked_eigenproblem, _stacked_trace_test
from velakit.panel import CSV_COLUMNS, MacroPanel, VARIABLES
from velakit.synthetic import generate_vecm_data, rng_for, study_spec


def write_panel_csv(path, years, series, agency="DEMO"):
    """series: dict var -> list of values, None for a blank cell."""
    lines = [",".join(CSV_COLUMNS)]
    for i, year in enumerate(years):
        cells = [agency, str(year)]
        for var in VARIABLES:
            v = series[var][i]
            cells.append("" if v is None else repr(float(v)))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def complete_series(years, base=2.0, slope=0.01):
    n = len(years)
    return {
        var: [base + j + slope * i for i in range(n)]
        for j, var in enumerate(VARIABLES)
    }


def make_panel(n_years=23, start=1998, missing=(), agency="DEMO"):
    years = list(range(start, start + n_years))
    series = complete_series(years)
    for var, year in missing:
        series[var][years.index(year)] = None
    arr = {
        var: np.array([np.nan if v is None else v for v in vals], dtype=float)
        for var, vals in series.items()
    }
    return MacroPanel(agency_id=agency, years=np.array(years), series=arr)


def synthetic_log_panel(T=60, seed=4, start=1961, noise_scale=0.05):
    """Six-variable log-level panel: {sb, gpc, md} cointegrated (rank 1),
    {rd, ed, sd} independent random walks."""
    from velakit.panel import LogLevelPanel

    spec = dataclasses.replace(study_spec(T=T, seed=seed), noise_scale=noise_scale)
    z = generate_vecm_data(spec)
    rng = rng_for(seed, 10_001)
    walks = np.cumsum(rng.standard_normal((T, 3)) * noise_scale, axis=0)
    series = {
        "sb": 2.0 + z[:, 0],
        "gpc": 10.0 + z[:, 1],
        "md": 0.8 + z[:, 2],
        "rd": 7.8 + walks[:, 0],
        "ed": 1.5 + walks[:, 1],
        "sd": 0.7 + walks[:, 2],
    }
    years = np.arange(start, start + T)
    return LogLevelPanel(agency_id="SYN", years=years, series=series)


def stacked_rank_test(z, k, case, vectors=True):
    """concentrate and rank_test for each series of an (n, T, p) stack of
    levels, through the stacked kernels in one pass as the search and the
    studies compose them. Returns (B, (L, shift), eigenvalues, beta
    candidates in the moments' coordinates (None without ``vectors``), trace
    statistics, ranks, errors), L being the factors of the joint moments."""
    B, L, shift, errors = _stacked_concentrate(z, k, case)
    lam, candidates = _stacked_eigenproblem(L, z.shape[2], errors, vectors)
    trace, ranks = _stacked_trace_test(lam, z.shape[1] - k, z.shape[2], case)
    return B, (L, shift), lam, candidates, trace, ranks, errors


def write_levels_csv(path, T=48, seed=2027, agency="DEMO", missing=(), corrupt=None):
    """Exponentiated synthetic panel written in the ingestion schema."""
    logs = synthetic_log_panel(T=T, seed=seed)
    years = list(range(2020 - T + 1, 2021))
    series = {}
    for var in VARIABLES:
        vals = [float(np.exp(v)) for v in logs.series[var]]
        series[var] = vals
    for var, year in missing:
        series[var][years.index(year)] = None
    if corrupt is not None:
        var, year, value = corrupt
        series[var][years.index(year)] = value
    return write_panel_csv(path, years, series, agency=agency)


@pytest.fixture
def demo_panel():
    return make_panel()


@pytest.fixture
def log_panel():
    return synthetic_log_panel()
