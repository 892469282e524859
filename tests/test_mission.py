import json
from fractions import Fraction
from importlib import resources
from math import ceil, floor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velakit.errors import ValidationError
from velakit.mission import (
    AgencyBudget,
    MissionConfig,
    allocate,
    budget_pool,
    config_from_dict,
    largest_remainder,
    load_config,
    total_cost,
)

SAMPLE = Path(resources.files("velakit").joinpath("data", "mission_config_sample.json"))


def agency(aid, budget, frac=0.2, heavy=False):
    return AgencyBudget(aid, budget, frac, heavy)


def equal_budget_config(**overrides):
    agencies = tuple(
        agency(aid, 10.0, heavy=aid in ("CNSA", "NASA", "ROSCOSMOS"))
        for aid in ("CNSA", "ESA", "JAXA", "NASA", "ROSCOSMOS")
    )
    return MissionConfig(agencies=agencies, **overrides)


class TestBudgetPool:
    def test_sample_config_pool(self):
        config = load_config(SAMPLE)
        assert budget_pool(config) == pytest.approx(34.3, abs=1e-9)

    def test_single_agency(self):
        config = MissionConfig(agencies=(agency("NASA", 10.0, 0.1, True),), horizon_years=5)
        assert budget_pool(config) == pytest.approx(5.0)

    def test_identity_case(self):
        config = MissionConfig(
            agencies=(agency("A", 3.0, 1.0, True), agency("B", 4.5, 1.0)),
            horizon_years=1,
        )
        assert budget_pool(config) == pytest.approx(7.5)

    def test_empty_agencies_rejected(self):
        with pytest.raises(ValidationError):
            MissionConfig(agencies=())


class TestTotalCost:
    def test_default_rollup(self):
        config = load_config(SAMPLE)
        # 8 launches at 2.8 + 7 modules at 0.3 + 0.5 crew systems
        assert total_cost(config) == pytest.approx(25.0)

    def test_zero_everything(self):
        config = equal_budget_config(
            n_modules=0, n_payload_launches=0, n_crew_launches=0,
            crew_systems_cost_busd=0.0,
        )
        assert total_cost(config) == pytest.approx(0.0)

    def test_margin_at_headline_numbers(self):
        config = load_config(SAMPLE)
        plan = allocate(config)
        assert plan.margin_fraction == pytest.approx((34.3 - 25.0) / 34.3, abs=1e-9)
        assert plan.margin_fraction == pytest.approx(0.271, abs=5e-4)


class TestLargestRemainder:
    def test_exact_integer_quotas(self):
        assert largest_remainder([3.0, 1.0, 1.0, 1.0, 1.0], 7) == [3, 1, 1, 1, 1]

    def test_sum_preserved(self):
        import random

        rnd = random.Random(11)
        for _ in range(200):
            n = rnd.randint(1, 6)
            weights = [rnd.uniform(0.01, 50.0) for _ in range(n)]
            total = rnd.randint(0, 20)
            alloc = largest_remainder(weights, total)
            assert sum(alloc) == total
            assert all(a >= 0 for a in alloc)

    def test_scale_invariance(self):
        import random

        rnd = random.Random(13)
        for _ in range(100):
            weights = [rnd.uniform(0.1, 30.0) for _ in range(5)]
            a = largest_remainder(weights, 8)
            b = largest_remainder([w * 1000.0 for w in weights], 8)
            assert a == b

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(weights=st.one_of(
               st.lists(st.floats(0.0, 100.0, allow_subnormal=False), min_size=1, max_size=8),
               st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1e9)), min_size=1, max_size=8),
           ).filter(lambda w: sum(w) > 0),
           total=st.one_of(st.integers(0, 60), st.integers(0, 10**9)), data=st.data())
    def test_quota_rule(self, weights, total, data):
        # each party gets the floor or the ceiling of its exact quota
        # total * w / sum(w), and the allocations add up to total, also
        # for weights nine orders of magnitude apart, large totals and any
        # tie order
        order = data.draw(st.permutations(range(len(weights))), label="tie_order")
        alloc = largest_remainder(weights, total, tie_order=order)
        exact = [Fraction(w) for w in weights]
        quotas = [total * w / sum(exact) for w in exact]
        assert sum(alloc) == total
        for a, q in zip(alloc, quotas):
            assert floor(q) <= a <= ceil(q)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 8), weight=st.floats(1e-6, 1e6), total=st.integers(0, 60),
           data=st.data())
    def test_equal_weights_leftovers_follow_tie_order(self, n, weight, total, data):
        # equal weights leave equal remainders, so the leftovers go to the
        # lowest tie_order values
        order = data.draw(st.permutations(range(n)), label="tie_order")
        alloc = largest_remainder([weight] * n, total, tie_order=order)
        base, leftovers = divmod(total, n)
        assert alloc == [base + (order[i] < leftovers) for i in range(n)]

    def test_zero_weights_rejected(self):
        with pytest.raises(ValidationError):
            largest_remainder([0.0, 0.0], 3)

    def test_equal_remainder_ties_break_by_name(self):
        # three equal providers, 8 launches: quotas 2.67 each, two leftovers
        # go to the alphabetically first two agencies
        agencies = tuple(agency(aid, 10.0, heavy=True) for aid in ("C", "A", "B"))
        plan = allocate(MissionConfig(agencies=agencies))
        launches = {a.agency_id: a.launches for a in plan.agencies}
        assert launches == {"A": 3, "B": 3, "C": 2}


class TestAllocate:
    def test_sample_every_provider_launches(self):
        plan = allocate(load_config(SAMPLE))
        launches = {a.agency_id: a.launches for a in plan.agencies}
        assert sum(launches.values()) == 8
        for provider in ("CNSA", "NASA", "ROSCOSMOS"):
            assert launches[provider] >= 1
        assert launches["ESA"] == 0 and launches["JAXA"] == 0

    def test_single_provider_takes_all(self):
        config = MissionConfig(
            agencies=(agency("NASA", 20.0, heavy=True), agency("ESA", 7.0)),
        )
        plan = allocate(config)
        assert {a.agency_id: a.launches for a in plan.agencies}["NASA"] == 8

    def test_esa_bias_three_equal_budgets(self):
        plan = allocate(equal_budget_config(esa_module_bias=3.0))
        modules = {a.agency_id: a.modules for a in plan.agencies}
        assert modules["ESA"] == 3
        assert all(v == 1 for k, v in modules.items() if k != "ESA")

    def test_no_provider_rejected(self):
        config = MissionConfig(agencies=(agency("ESA", 7.0), agency("JAXA", 2.0)))
        with pytest.raises(ValidationError, match="no launch provider"):
            allocate(config)

    def test_contributions_sum_to_cost(self):
        plan = allocate(load_config(SAMPLE))
        total = sum(a.contribution_busd for a in plan.agencies)
        assert total == pytest.approx(plan.cost_busd, abs=1e-9)

    def test_margin_identity(self):
        plan = allocate(load_config(SAMPLE))
        contrib = sum(a.contribution_busd for a in plan.agencies)
        assert plan.pool_busd - contrib - plan.pool_busd * plan.margin_fraction == pytest.approx(
            0.0, abs=1e-9
        )

    def test_infeasible_flagged_not_raised(self):
        config = load_config(SAMPLE)
        import dataclasses

        short = dataclasses.replace(config, horizon_years=1)
        plan = allocate(short)
        assert plan.pool_busd == pytest.approx(34.3 / 5, abs=1e-9)
        assert not plan.feasible
        assert plan.margin_fraction < 0

    def test_budget_monotonicity_of_launches(self):
        import dataclasses
        import random

        rnd = random.Random(31)
        for _ in range(150):
            budgets = [rnd.uniform(1.0, 30.0) for _ in range(3)]
            agencies = tuple(
                agency(f"A{i}", b, heavy=True) for i, b in enumerate(budgets)
            )
            config = MissionConfig(agencies=agencies)
            base = {a.agency_id: a.launches for a in allocate(config).agencies}
            bumped_agencies = tuple(
                dataclasses.replace(a, annual_budget_busd=a.annual_budget_busd + (3.0 if a.agency_id == "A1" else 0.0))
                for a in agencies
            )
            bumped = {
                a.agency_id: a.launches
                for a in allocate(MissionConfig(agencies=bumped_agencies)).agencies
            }
            assert bumped["A1"] >= base["A1"]

    def test_module_transport_constraint(self):
        with pytest.raises(ValidationError, match="payload launches"):
            equal_budget_config(n_modules=9, n_payload_launches=7)


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        doc = json.loads(SAMPLE.read_text())
        doc["bogus"] = 1
        with pytest.raises(ValidationError, match="bogus"):
            config_from_dict(doc)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValidationError, match="fraction"):
            agency("X", 5.0, frac=1.5)

    def test_duplicate_agency_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            MissionConfig(agencies=(agency("A", 1.0, heavy=True), agency("A", 2.0)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="no such config"):
            load_config(tmp_path / "none.json")

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_provider_flag_must_be_json_boolean(self, value):
        doc = json.loads(SAMPLE.read_text())
        doc["agencies"][1]["provides_super_heavy"] = value
        with pytest.raises(ValidationError, match="provides_super_heavy"):
            config_from_dict(doc)

    @pytest.mark.parametrize("name", ["horizon_years", "n_modules", "n_payload_launches",
                                      "n_crew_launches"])
    @pytest.mark.parametrize("value", [2.9, 5.0, "5", True])
    def test_count_fields_must_be_json_integers(self, name, value):
        doc = json.loads(SAMPLE.read_text())
        doc[name] = value
        with pytest.raises(ValidationError, match=name):
            config_from_dict(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), "7.0"])
    def test_budget_must_be_finite_json_number(self, value):
        doc = json.loads(SAMPLE.read_text())
        doc["agencies"][0]["annual_budget_busd"] = value
        with pytest.raises(ValidationError, match="annual_budget_busd"):
            config_from_dict(doc)

    @pytest.mark.parametrize("name", ["module_unit_cost_busd", "launch_unit_cost_busd",
                                      "crew_systems_cost_busd", "esa_module_bias"])
    def test_cost_fields_must_be_finite(self, name):
        doc = json.loads(SAMPLE.read_text())
        doc[name] = float("nan")
        with pytest.raises(ValidationError, match=name):
            config_from_dict(doc)

    def test_nonfinite_budget_rejected_by_constructor(self):
        with pytest.raises(ValidationError, match="budget"):
            agency("X", float("nan"))
