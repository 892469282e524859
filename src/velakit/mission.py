"""Mars-station cost sharing: budget pooling, cost rollup, apportionment.

Launches go to the super-heavy providers and station modules to every
agency, both by largest-remainder apportionment (the simplest method whose
integer allocations sum exactly to the configured totals). Module weights
multiply the ESA budget by a configurable bias, reflecting its larger
post-launch headroom. Launch costs deliberately carry no reusability
discount.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, isfinite
from numbers import Integral
from pathlib import Path

from .errors import ValidationError, read_input


@dataclass(frozen=True)
class AgencyBudget:
    agency_id: str
    annual_budget_busd: float
    contribution_fraction: float
    provides_super_heavy: bool = False

    def __post_init__(self):
        if not str(self.agency_id).strip():
            raise ValidationError(f"agency_id must be a non-empty name, got {self.agency_id!r}")
        if not (isfinite(self.annual_budget_busd) and self.annual_budget_busd > 0):
            raise ValidationError(
                f"{self.agency_id}: annual_budget_busd must be positive and finite"
            )
        if not 0.0 < self.contribution_fraction <= 1.0:
            raise ValidationError(
                f"{self.agency_id}: contribution fraction must be in (0, 1]"
            )


@dataclass(frozen=True)
class MissionConfig:
    agencies: tuple[AgencyBudget, ...]
    horizon_years: int = 5
    module_unit_cost_busd: float = 0.3
    launch_unit_cost_busd: float = 2.8
    n_modules: int = 7
    n_payload_launches: int = 7
    n_crew_launches: int = 1
    crew_systems_cost_busd: float = 0.5
    esa_module_bias: float = 3.0

    def __post_init__(self):
        if not self.agencies:
            raise ValidationError("agency list is empty")
        seen = set()
        for a in self.agencies:
            if a.agency_id in seen:
                raise ValidationError(f"duplicate agency {a.agency_id}")
            seen.add(a.agency_id)
        if self.horizon_years < 1:
            raise ValidationError("horizon_years must be >= 1")
        if not (isfinite(self.esa_module_bias) and self.esa_module_bias >= 1.0):
            raise ValidationError("esa_module_bias must be finite and >= 1")
        # the budget pool, the budget sum and every module weight are at most
        # this product, so a finite one keeps them all finite
        try:
            bound = (sum(a.annual_budget_busd for a in self.agencies)
                     * self.esa_module_bias * self.horizon_years)
        except OverflowError:  # a horizon_years beyond the float range
            bound = float("inf")
        if not isfinite(bound):
            raise ValidationError(
                "annual_budget_busd values too large: their sum times esa_module_bias "
                "and horizon_years overflows"
            )
        if self.n_modules > self.n_payload_launches:
            raise ValidationError(
                f"{self.n_modules} modules exceed the {self.n_payload_launches} "
                "payload launches available to carry them"
            )
        for name in ("module_unit_cost_busd", "launch_unit_cost_busd",
                     "crew_systems_cost_busd"):
            if not (isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValidationError(f"{name} must be non-negative and finite")
        for name in ("n_modules", "n_payload_launches", "n_crew_launches"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")


# JSON kinds of an agency object's keys (only the last is optional) and of
# the optional top-level keys besides agencies
AGENCY_FIELDS = {"agency_id": "string", "annual_budget_busd": "number",
                 "contribution_fraction": "number", "provides_super_heavy": "boolean"}
CONFIG_FIELDS = {"horizon_years": "integer", "n_modules": "integer",
                 "n_payload_launches": "integer", "n_crew_launches": "integer",
                 "module_unit_cost_busd": "number", "launch_unit_cost_busd": "number",
                 "crew_systems_cost_busd": "number", "esa_module_bias": "number"}


def _field(doc: dict, name: str, kind: str, where: str = ""):
    """doc[name] if it has JSON type ``kind``; a bool is not a number here."""
    value = doc[name]
    types = {"boolean": bool, "integer": int, "number": (int, float), "string": str}[kind]
    if not isinstance(value, types) or (kind != "boolean" and isinstance(value, bool)):
        raise ValidationError(f"{where}{name} must be a JSON {kind}, got {value!r}")
    return float(value) if kind == "number" else value


def config_from_dict(doc: dict) -> MissionConfig:
    """Parse a mission config document; each field must have its JSON type.

    ``agencies`` holds objects with exactly the AGENCY_FIELDS keys. Ids are
    strings, counts are integers, money and bias are numbers (the
    dataclasses then require them finite) and the launch flag is a boolean;
    nothing is coerced (``2.9`` is not a horizon, ``"false"`` not false).
    """
    objects = doc.get("agencies") if isinstance(doc, dict) else None
    if not isinstance(objects, list) or not all(isinstance(a, dict) for a in objects):
        raise ValidationError("agencies must be a JSON array of objects")
    agencies = []
    for index, a in enumerate(objects):
        extra = set(a) - set(AGENCY_FIELDS)
        missing = [name for name in list(AGENCY_FIELDS)[:-1] if name not in a]
        if extra or missing:
            raise ValidationError(f"agencies[{index}]: unknown key(s) {sorted(extra)}" if extra
                                  else f"agencies[{index}]: missing field {missing[0]}")
        where = f"agency {_field(a, 'agency_id', 'string')!r}: "
        agencies.append(AgencyBudget(**{name: _field(a, name, kind, where)
                                        for name, kind in AGENCY_FIELDS.items() if name in a}))
    kwargs = {name: _field(doc, name, kind) for name, kind in CONFIG_FIELDS.items()
              if name in doc}
    extra = set(doc) - {"agencies"} - set(kwargs)
    if extra:
        raise ValidationError(f"unknown mission config key(s): {sorted(extra)}")
    return MissionConfig(agencies=tuple(agencies), **kwargs)


def load_config(path: str | Path) -> MissionConfig:
    path = Path(path)
    try:
        doc = json.loads(read_input(path).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        kind = {list: "an array", str: "a string", bool: "a boolean",
                type(None): "null"}.get(type(doc), "a number")
        raise ValidationError(f"{path}: the top level must be a JSON object, not {kind}")
    return config_from_dict(doc)


def largest_remainder(weights: list[float], total: int) -> list[int]:
    """Integer apportionment of `total` items proportional to weights.

    Each party receives the floor of its exact quota; the leftovers go to
    the largest fractional remainders, a remainder tie to the lower index.
    """
    if isinstance(total, bool) or not isinstance(total, Integral):
        raise ValidationError(f"total must be an integer, got {total!r}")
    total = int(total)
    if total < 0:
        raise ValidationError("cannot apportion a negative total")
    if not all(isfinite(w) and w >= 0 for w in weights):
        raise ValidationError("weights must be non-negative and finite")
    # exact rational quotas: a float quota loses the total past 2**53 and
    # overflows for huge weights
    exact = [Fraction(w) for w in weights]
    s = sum(exact)
    if s <= 0:
        raise ValidationError("weights sum to zero")
    quotas = [total * w / s for w in exact]
    alloc = [floor(q) for q in quotas]
    leftovers = total - sum(alloc)
    # largest remainder first; sorted is stable, so a tie keeps index order
    by_remainder = sorted(range(len(weights)), key=lambda i: alloc[i] - quotas[i])
    for i in by_remainder[:leftovers]:
        alloc[i] += 1
    return alloc


def budget_pool(config: MissionConfig) -> float:
    """Total funds committed over the horizon."""
    return sum(
        a.annual_budget_busd * a.contribution_fraction * config.horizon_years
        for a in config.agencies
    )


def total_cost(config: MissionConfig) -> float:
    """Launches + modules + crew systems, in B$."""
    launches = config.n_payload_launches + config.n_crew_launches
    return (
        launches * config.launch_unit_cost_busd
        + config.n_modules * config.module_unit_cost_busd
        + config.crew_systems_cost_busd
    )


@dataclass(frozen=True)
class AgencyShare:
    agency_id: str
    annual_budget_busd: float
    launches: int
    modules: int
    contribution_busd: float


@dataclass(frozen=True)
class MissionPlan:
    agencies: tuple[AgencyShare, ...]
    total_launches: int
    total_modules: int
    cost_busd: float
    pool_busd: float
    margin_fraction: float
    feasible: bool
    config: MissionConfig = field(repr=False, default=None)


def allocate(config: MissionConfig) -> MissionPlan:
    """Apportion launches and modules and split the cost.

    Per-agency contribution = own launches and modules at unit cost plus a
    budget-proportional share of the crew-systems line. An infeasible plan
    (pool below cost) is still returned, flagged, with a negative margin.
    """
    agencies = sorted(config.agencies, key=lambda a: a.agency_id)
    providers = [a for a in agencies if a.provides_super_heavy]
    if not providers:
        raise ValidationError("no launch provider: every agency has provides_super_heavy=false")

    n_launches = config.n_payload_launches + config.n_crew_launches
    launch_alloc = largest_remainder([a.annual_budget_busd for a in providers], n_launches)
    launches = {a.agency_id: n for a, n in zip(providers, launch_alloc)}

    module_weights = [
        a.annual_budget_busd * (config.esa_module_bias if a.agency_id == "ESA" else 1.0)
        for a in agencies
    ]
    module_alloc = largest_remainder(module_weights, config.n_modules)
    modules = {a.agency_id: n for a, n in zip(agencies, module_alloc)}

    budget_sum = sum(a.annual_budget_busd for a in agencies)
    shares = []
    for a in agencies:
        contribution = (
            launches.get(a.agency_id, 0) * config.launch_unit_cost_busd
            + modules[a.agency_id] * config.module_unit_cost_busd
            + config.crew_systems_cost_busd * a.annual_budget_busd / budget_sum
        )
        shares.append(
            AgencyShare(
                agency_id=a.agency_id,
                annual_budget_busd=a.annual_budget_busd,
                launches=launches.get(a.agency_id, 0),
                modules=modules[a.agency_id],
                contribution_busd=contribution,
            )
        )

    pool = budget_pool(config)
    cost = total_cost(config)
    margin = (pool - cost) / pool
    return MissionPlan(
        agencies=tuple(shares),
        total_launches=n_launches,
        total_modules=config.n_modules,
        cost_busd=cost,
        pool_busd=pool,
        margin_fraction=margin,
        feasible=bool(pool >= cost),
        config=config,
    )
