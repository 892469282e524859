"""Bundled capability tables: heavy-lift vehicles, habitat modules, Mars launches.

The three CSVs ship inside the package and are read-only: they are
validated on load against expected row counts and checksums, and nothing
writes them back. Unavailable costs stay absent (None) rather than zero so
cost aggregation cannot be corrupted.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import CorruptedBundleError, ValidationError

SUPER_HEAVY_THRESHOLD_KG = 50_000

EXPECTED = {
    "launch_vehicles.csv": (7, "launch vehicles"),
    "habitat_modules.csv": (10, "habitat modules"),
    "mars_launches.csv": (15, "Mars launches"),
}

# sha256 of the bundled files; refreshed whenever the bundle changes.
CHECKSUMS = {
    "launch_vehicles.csv": "e67b5c7d7b929e3ae0fe6c8581911bdcbb99e3a076a33192a030cdd5d6c2142b",
    "habitat_modules.csv": "cc3c0cfc74382b71e580247836cfec59efc4b206526b7978e5a55cf06b8c10af",
    "mars_launches.csv": "0fbe9eb278b19128b5a19ffadcc0919bcb56c6f43575d069c651f61c4a76ae68",
}

_HABITAT_MASS_RANGE = (10_000, 25_000)


@dataclass(frozen=True)
class LaunchVehicle:
    name: str
    status: str  # available | planned
    payload_to_leo_kg: float
    cost_per_launch_musd: float | None
    operator_government: str

    @property
    def super_heavy(self) -> bool:
        return self.payload_to_leo_kg >= SUPER_HEAVY_THRESHOLD_KG


@dataclass(frozen=True)
class HabitatModule:
    year: int
    government: str
    station: str
    module_name: str
    mass_kg: float


@dataclass(frozen=True)
class MarsLaunch:
    year: int
    vehicle: str
    government: str
    mission_name: str
    payload_type: frozenset[str]  # subset of {lander, orbiter}
    payload_mass_kg: float
    cost_musd: float | None
    cost_estimated: bool = False


def _bundle_path(name: str, data_dir: Path | None) -> Path:
    if data_dir is not None:
        return Path(data_dir) / name
    return Path(resources.files("velakit").joinpath("data", name))


def _read_rows(name: str, data_dir: Path | None, verify: bool) -> list[dict]:
    path = _bundle_path(name, data_dir)
    if not path.exists():
        raise CorruptedBundleError(f"bundled file missing: {path}")
    raw = path.read_bytes()
    if verify:
        digest = hashlib.sha256(raw).hexdigest()
        if digest != CHECKSUMS[name]:
            raise CorruptedBundleError(
                f"{name}: checksum mismatch ({digest[:12]}... != {CHECKSUMS[name][:12]}...)"
            )
    rows = list(csv.DictReader(raw.decode("utf-8").splitlines()))
    count, label = EXPECTED[name]
    if len(rows) != count:
        raise CorruptedBundleError(f"{name}: expected {count} {label}, found {len(rows)}")
    return rows


def _opt_float(cell: str, where: str) -> float | None:
    cell = cell.strip()
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        raise CorruptedBundleError(f"{where}: non-numeric value {cell!r}") from None


def load_reference_tables(data_dir: Path | None = None, verify_checksums: bool | None = None
                          ) -> tuple[tuple[LaunchVehicle, ...], tuple[HabitatModule, ...], tuple[MarsLaunch, ...]]:
    """Parse the bundled tables; checksum verification defaults to on for
    the packaged bundle and off for an explicit data_dir."""
    verify = (data_dir is None) if verify_checksums is None else verify_checksums

    vehicles = []
    for row in _read_rows("launch_vehicles.csv", data_dir, verify):
        if row["status"] not in ("available", "planned"):
            raise CorruptedBundleError(f"launch_vehicles.csv: bad status {row['status']!r}")
        vehicles.append(
            LaunchVehicle(
                name=row["vehicle"],
                status=row["status"],
                payload_to_leo_kg=float(row["payload_to_leo_kg"]),
                cost_per_launch_musd=_opt_float(row["cost_per_launch_musd"], row["vehicle"]),
                operator_government=row["operator_government"],
            )
        )

    habitats = []
    for row in _read_rows("habitat_modules.csv", data_dir, verify):
        mass = float(row["mass_kg"])
        lo, hi = _HABITAT_MASS_RANGE
        if not lo <= mass <= hi:
            raise CorruptedBundleError(
                f"habitat_modules.csv: {row['module_name']} mass {mass} outside [{lo}, {hi}]"
            )
        habitats.append(
            HabitatModule(
                year=int(row["year"]),
                government=row["government"],
                station=row["station"],
                module_name=row["module_name"],
                mass_kg=mass,
            )
        )

    launches = []
    for row in _read_rows("mars_launches.csv", data_dir, verify):
        kinds = frozenset(row["payload_type"].split("+"))
        if not kinds or not kinds <= {"lander", "orbiter"}:
            raise CorruptedBundleError(
                f"mars_launches.csv: bad payload_type {row['payload_type']!r}"
            )
        launches.append(
            MarsLaunch(
                year=int(row["year"]),
                vehicle=row["vehicle"],
                government=row["government"],
                mission_name=row["mission_name"],
                payload_type=kinds,
                payload_mass_kg=float(row["payload_mass_kg"]),
                cost_musd=_opt_float(row["cost_musd"], row["mission_name"]),
                cost_estimated=row["cost_estimated"].strip().lower() == "true",
            )
        )
    return tuple(vehicles), tuple(habitats), tuple(launches)


def query_super_heavy(vehicles, status: str | None = None) -> list[LaunchVehicle]:
    """Vehicles lifting at least 50,000 kg to LEO, ascending by payload."""
    if status is not None and status not in ("available", "planned"):
        raise ValidationError(f"status must be 'available' or 'planned', got {status!r}")
    hits = [
        v
        for v in vehicles
        if v.super_heavy and (status is None or v.status == status)
    ]
    return sorted(hits, key=lambda v: (v.payload_to_leo_kg, v.name))
