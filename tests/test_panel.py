import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velakit.errors import ValidationError
from velakit.panel import (
    VARIABLES,
    LogLevelPanel,
    MacroPanel,
    interpolate_missing,
    load_panel,
    to_log_levels,
)

from conftest import complete_series, make_panel, write_panel_csv


class TestLoadPanel:
    def test_complete_file(self, tmp_path):
        years = list(range(1998, 2021))
        path = write_panel_csv(tmp_path / "p.csv", years, complete_series(years))
        panel = load_panel(path, "DEMO")
        assert panel.n_years == 23
        assert panel.missing_cells() == []
        assert list(panel.years) == years

    def test_year_gap_rejected(self, tmp_path):
        years = [y for y in range(1998, 2021) if y != 2005]
        path = write_panel_csv(tmp_path / "p.csv", years, complete_series(years))
        with pytest.raises(ValidationError, match="year index gap at 2005"):
            load_panel(path, "DEMO")

    def test_blank_cell_is_missing(self, tmp_path):
        years = list(range(1998, 2021))
        series = complete_series(years)
        series["sb"][years.index(2010)] = None
        path = write_panel_csv(tmp_path / "p.csv", years, series)
        panel = load_panel(path, "DEMO")
        assert panel.missing_cells() == [("sb", 2010)]

    def test_duplicate_year_rejected(self, tmp_path):
        years = list(range(1998, 2021))
        path = write_panel_csv(tmp_path / "p.csv", years, complete_series(years))
        text = path.read_text().splitlines()
        text.append(text[-1])  # repeat the last row
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValidationError, match="duplicate year"):
            load_panel(path, "DEMO")

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        years = list(range(1998, 2021))
        path = write_panel_csv(tmp_path / "p.csv", years, complete_series(years))
        lines = path.read_text().splitlines()
        cells = lines[6].split(",")  # year 2003, file line 7
        cells[2] = "oops"
        lines[6] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=r":7: .*sb_usd_b"):
            load_panel(path, "DEMO")

    @pytest.mark.parametrize("cell", ["nan", "NaN", "-nan", "inf", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        years = list(range(1998, 2021))
        path = write_panel_csv(tmp_path / "p.csv", years, complete_series(years))
        lines = path.read_text().splitlines()
        cells = lines[6].split(",")  # year 2003, file line 7
        cells[4] = cell
        lines[6] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=r":7: non-finite value .* researchers_per_million"):
            load_panel(path, "DEMO")

    def test_unknown_column_rejected(self, tmp_path):
        years = list(range(1998, 2021))
        path = write_panel_csv(tmp_path / "p.csv", years, complete_series(years))
        lines = path.read_text().splitlines()
        lines[0] += ",bogus"
        lines[1] += ",1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="bogus"):
            load_panel(path, "DEMO")

    def test_agency_filter(self, tmp_path):
        years = list(range(1998, 2021))
        path = write_panel_csv(tmp_path / "p.csv", years, complete_series(years), agency="NASA")
        with pytest.raises(ValidationError, match="no rows for agency"):
            load_panel(path, "CNSA")
        assert load_panel(path, "NASA").agency_id == "NASA"

    def test_too_few_years_rejected(self, tmp_path):
        years = list(range(2010, 2021))  # 11 < 12
        path = write_panel_csv(tmp_path / "p.csv", years, complete_series(years))
        with pytest.raises(ValidationError, match="at least 12 years"):
            load_panel(path, "DEMO")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError,
                           match="cannot read .*nope.csv: No such file or directory"):
            load_panel(tmp_path / "nope.csv", "DEMO")

    def test_short_row_rejected(self, tmp_path):
        years = list(range(1998, 2021))
        path = write_panel_csv(tmp_path / "p.csv", years, complete_series(years))
        lines = path.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:4])  # drop trailing fields
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=":4: too few fields"):
            load_panel(path, "DEMO")

    def test_long_row_rejected(self, tmp_path):
        years = list(range(1998, 2021))
        path = write_panel_csv(tmp_path / "p.csv", years, complete_series(years))
        lines = path.read_text().splitlines()
        lines[3] += ",1.0,2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=":4: too many fields"):
            load_panel(path, "DEMO")


class TestInterpolate:
    def test_midpoint(self):
        panel = make_panel(missing=[("sb", 2005)])
        before = panel.series["sb"].copy()
        repaired = interpolate_missing(panel)
        i = list(panel.years).index(2005)
        expected = (before[i - 1] + before[i + 1]) / 2
        assert repaired.series["sb"][i] == pytest.approx(expected)

    def test_fully_observed_identity(self, demo_panel):
        repaired = interpolate_missing(demo_panel)
        for var in VARIABLES:
            assert repaired.series[var] == pytest.approx(demo_panel.series[var])

    def test_boundary_flat_fill(self):
        panel = make_panel(missing=[("sb", 1998), ("sb", 1999)])
        repaired = interpolate_missing(panel)
        first_obs = panel.series["sb"][2]
        assert repaired.series["sb"][0] == pytest.approx(first_obs)
        assert repaired.series["sb"][1] == pytest.approx(first_obs)

    def test_interior_run(self):
        panel = make_panel(missing=[("md", 2003), ("md", 2004), ("md", 2005)])
        repaired = interpolate_missing(panel)
        years = list(panel.years)
        lo, hi = years.index(2002), years.index(2006)
        a, b = panel.series["md"][lo], panel.series["md"][hi]
        for step, year in enumerate([2003, 2004, 2005], start=1):
            expected = a + (b - a) * step / 4
            assert repaired.series["md"][years.index(year)] == pytest.approx(expected)

    def test_idempotent(self):
        panel = make_panel(missing=[("sb", 2001), ("ed", 1998), ("rd", 2020)])
        once = interpolate_missing(panel)
        twice = interpolate_missing(once)
        for var in VARIABLES:
            assert twice.series[var] == pytest.approx(once.series[var], abs=0.0)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n_years=st.integers(12, 40))
    def test_repair_is_idempotent_bit_for_bit(self, data, n_years):
        # any gap pattern that leaves each series two observed cells:
        # interior runs, boundary runs, alternating cells
        years = np.arange(1980, 1980 + n_years)
        series = {}
        for var in VARIABLES:
            observed = data.draw(st.lists(st.booleans(), min_size=n_years, max_size=n_years)
                                 .filter(lambda m: sum(m) >= 2), label=var)
            values = data.draw(st.lists(st.floats(0.01, 1e6), min_size=n_years,
                                        max_size=n_years), label=f"{var} values")
            series[var] = np.where(observed, values, np.nan)
        once = interpolate_missing(MacroPanel(agency_id="X", years=years, series=series))
        twice = interpolate_missing(once)
        assert once.missing_cells() == []
        for var in VARIABLES:
            assert twice.series[var].tobytes() == once.series[var].tobytes()

    def test_observed_cells_unchanged(self):
        panel = make_panel(missing=[("gpc", 2010)])
        repaired = interpolate_missing(panel)
        mask = ~np.isnan(panel.series["gpc"])
        assert repaired.series["gpc"][mask] == pytest.approx(panel.series["gpc"][mask])

    def test_too_few_observed(self):
        years = np.arange(1998, 2021)
        series = {var: np.full(23, np.nan) for var in VARIABLES}
        for var in VARIABLES:
            series[var][:] = 1.0
        series["sd"][:] = np.nan
        series["sd"][0] = 1.0
        from velakit.panel import MacroPanel

        panel = MacroPanel(agency_id="X", years=years, series=series)
        with pytest.raises(ValidationError, match="sd"):
            interpolate_missing(panel)


class TestLogLevels:
    def test_known_values(self, demo_panel):
        logs = to_log_levels(demo_panel)
        assert isinstance(logs, LogLevelPanel)
        i = 0
        for var in VARIABLES:
            assert logs.series[var][i] == pytest.approx(math.log(demo_panel.series[var][i]))

    def test_ln_one_and_e(self):
        panel = make_panel()
        series = {v: panel.series[v].copy() for v in VARIABLES}
        series["sb"][0] = 1.0
        series["sb"][1] = math.e
        from velakit.panel import MacroPanel

        p2 = MacroPanel(agency_id="X", years=panel.years, series=series)
        logs = to_log_levels(p2)
        assert logs.series["sb"][0] == pytest.approx(0.0, abs=1e-15)
        assert logs.series["sb"][1] == pytest.approx(1.0)

    def test_non_positive_named(self):
        panel = make_panel()
        series = {v: panel.series[v].copy() for v in VARIABLES}
        series["md"][5] = -0.5
        from velakit.panel import MacroPanel

        p2 = MacroPanel(agency_id="X", years=panel.years, series=series)
        with pytest.raises(ValidationError, match=r"non-positive value \(md, 2003\)"):
            to_log_levels(p2)

    def test_missing_rejected(self):
        panel = make_panel(missing=[("sb", 2005)])
        with pytest.raises(ValidationError, match="missing"):
            to_log_levels(panel)

    def test_exp_round_trip(self, demo_panel):
        logs = to_log_levels(demo_panel)
        for var in VARIABLES:
            back = np.exp(logs.series[var])
            rel = np.abs(back - demo_panel.series[var]) / np.abs(demo_panel.series[var])
            assert rel.max() < 1e-12

    def test_panels_are_immutable(self, demo_panel):
        with pytest.raises(ValueError):
            demo_panel.series["sb"][0] = 99.0
