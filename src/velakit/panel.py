"""Annual macroeconomic panels: loading, validation, repair, log transform.

A panel holds six named series aligned to a contiguous run of calendar
years: sb (national space budget, B$), gpc (GDP per capita), rd
(researchers per million), md/ed/sd (military/education/science R&D
spending, % of GDP). Missing cells are NaN until repaired.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError, read_input

VARIABLES = ("sb", "gpc", "rd", "md", "ed", "sd")

CSV_COLUMNS = (
    "agency",
    "year",
    "sb_usd_b",
    "gdp_per_capita_usd",
    "researchers_per_million",
    "military_pct_gdp",
    "education_pct_gdp",
    "rnd_pct_gdp",
)

_COLUMN_TO_VAR = dict(zip(CSV_COLUMNS[2:], VARIABLES))

MIN_YEARS = 12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MacroPanel:
    """One agency's annual series; immutable once constructed."""

    agency_id: str
    years: np.ndarray
    series: dict[str, np.ndarray]

    def __post_init__(self):
        years = np.asarray(self.years, dtype=int)
        if years.size < MIN_YEARS:
            raise ValidationError(
                f"panel needs at least {MIN_YEARS} years, got {years.size}"
            )
        steps = np.diff(years)
        if np.any(steps <= 0):
            where = years[1:][steps <= 0][0]
            raise ValidationError(f"years not strictly increasing at {where}")
        if np.any(steps != 1):
            missing = years[:-1][steps != 1][0] + 1
            raise ValidationError(f"year index gap at {missing}")
        if set(self.series) != set(VARIABLES):
            raise ValidationError(
                f"series keys must be exactly {VARIABLES}, got {tuple(self.series)}"
            )
        clean: dict[str, np.ndarray] = {}
        for name in VARIABLES:
            v = np.asarray(self.series[name], dtype=float)
            if v.shape != years.shape:
                raise ValidationError(
                    f"series {name} has {v.size} values for {years.size} years"
                )
            clean[name] = _freeze(v.copy())
        years.flags.writeable = False
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "series", clean)

    @property
    def n_years(self) -> int:
        return int(self.years.size)

    def missing_cells(self) -> list[tuple[str, int]]:
        """(series, year) pairs still missing, in canonical order."""
        out = []
        for name in VARIABLES:
            for year in self.years[np.isnan(self.series[name])]:
                out.append((name, int(year)))
        return out

    def matrix(self, vars: tuple[str, ...] = VARIABLES) -> np.ndarray:
        """Stack the named series as a (years x vars) array; no names, or an
        unknown or repeated one, is a ValidationError naming it."""
        if not vars:
            raise ValidationError("no variables given")
        unknown = [v for v in vars if v not in VARIABLES]
        if unknown:
            raise ValidationError(f"unknown variables {unknown}")
        repeated = [v for i, v in enumerate(vars) if v in vars[:i]]
        if repeated:
            raise ValidationError(f"repeated variables {repeated}")
        return np.column_stack([self.series[v] for v in vars])


class LogLevelPanel(MacroPanel):
    """Natural logs of a repaired MacroPanel; the class itself is the marker."""


def load_panel(path: str | Path, agency_id: str) -> MacroPanel:
    """Parse the panel CSV, keeping blank cells as missing.

    The file may mix agencies; rows are filtered on the agency column.
    Malformed rows, non-numeric or non-finite cells, duplicate years and
    unknown columns are rejected with row/column diagnostics.
    """
    path = Path(path)
    data = read_input(path)
    try:
        # utf-8-sig: spreadsheet exports often start with a byte-order mark
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
    with io.StringIO(text, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise ValidationError(f"{path}: empty file")
        unknown = [c for c in header if c not in CSV_COLUMNS]
        if unknown:
            raise ValidationError(f"{path}: unknown column(s) {unknown}")
        missing_cols = [c for c in CSV_COLUMNS if c not in header]
        if missing_cols:
            raise ValidationError(f"{path}: missing column(s) {missing_cols}")

        rows: dict[int, dict[str, float]] = {}
        for lineno, raw in enumerate(reader, start=2):
            if raw.get(None) is not None:
                raise ValidationError(f"{path}:{lineno}: too many fields")
            if any(v is None for v in raw.values()):
                raise ValidationError(f"{path}:{lineno}: too few fields")
            if raw["agency"] != agency_id:
                continue
            try:
                year = int(raw["year"])
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: non-numeric year {raw['year']!r}"
                ) from None
            if year in rows:
                raise ValidationError(f"{path}:{lineno}: duplicate year {year}")
            values: dict[str, float] = {}
            for column, var in _COLUMN_TO_VAR.items():
                cell = raw[column].strip()
                if cell == "":
                    values[var] = np.nan
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}:{lineno}: non-numeric value {cell!r} in column {column}"
                    ) from None
                # a blank cell is the only missing marker: nan, inf and
                # overflowing literals such as 1e400 are rejected (a plain
                # float comparison: np.isfinite per cell costs a microsecond)
                if not -np.inf < value < np.inf:
                    raise ValidationError(
                        f"{path}:{lineno}: non-finite value {cell!r} in column {column}"
                    )
                values[var] = value
            rows[year] = values

    if not rows:
        raise ValidationError(f"{path}: no rows for agency {agency_id!r}")
    years = np.array(sorted(rows), dtype=int)
    series = {
        var: np.array([rows[y][var] for y in years], dtype=float) for var in VARIABLES
    }
    return MacroPanel(agency_id=agency_id, years=years, series=series)


def _interpolate_series(v: np.ndarray, name: str) -> np.ndarray:
    observed = ~np.isnan(v)
    if observed.sum() < 2:
        raise ValidationError(
            f"series {name} has {int(observed.sum())} observed value(s); need at least 2"
        )
    if observed.all():
        return v.copy()
    idx = np.arange(v.size, dtype=float)
    # np.interp holds the boundary values flat outside the observed range,
    # which is exactly the nearest-value extension wanted at the edges.
    return np.interp(idx, idx[observed], v[observed])


def interpolate_missing(panel: MacroPanel) -> MacroPanel:
    """Fill interior gaps linearly in time; extend flat at the boundaries."""
    series = {
        name: _interpolate_series(panel.series[name], name) for name in VARIABLES
    }
    return MacroPanel(agency_id=panel.agency_id, years=panel.years, series=series)


def to_log_levels(panel: MacroPanel) -> LogLevelPanel:
    """Natural-log transform of a repaired, strictly positive panel."""
    missing = panel.missing_cells()
    if missing:
        name, year = missing[0]
        raise ValidationError(f"panel has missing value ({name}, {year}); repair first")
    series = {}
    for name in VARIABLES:
        v = panel.series[name]
        bad = v <= 0
        if np.any(bad):
            year = int(panel.years[bad][0])
            raise ValidationError(f"non-positive value ({name}, {year})")
        series[name] = np.log(v)
    return LogLevelPanel(agency_id=panel.agency_id, years=panel.years, series=series)
