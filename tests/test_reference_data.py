import shutil
from importlib import resources

import pytest

from velakit.errors import CorruptedBundleError
from velakit.reference_data import (
    EXPECTED,
    LaunchVehicle,
    load_reference_tables,
    query_super_heavy,
)


@pytest.fixture(scope="module")
def tables():
    return load_reference_tables()


class TestBundle:
    def test_row_counts(self, tables):
        vehicles, habitats, launches = tables
        assert len(vehicles) == 7
        assert len(habitats) == 10
        assert len(launches) == 15

    def test_sls_block_1(self, tables):
        vehicles, _, _ = tables
        sls = next(v for v in vehicles if v.name == "SLS Block 1")
        assert sls.payload_to_leo_kg == 95000
        assert sls.cost_per_launch_musd == pytest.approx(2800.0)
        assert sls.status == "available"

    def test_kibo(self, tables):
        _, habitats, _ = tables
        kibo = next(h for h in habitats if h.module_name == "Kibo")
        assert kibo.mass_kg == 15900
        assert kibo.year == 2009
        assert kibo.government == "Japan"

    def test_tianwen(self, tables):
        _, _, launches = tables
        tw = next(m for m in launches if m.mission_name == "Tianwen-1")
        assert tw.payload_type == {"lander", "orbiter"}
        assert tw.payload_mass_kg == 5000
        assert tw.cost_estimated is True
        assert tw.cost_musd == pytest.approx(150.0)

    def test_unavailable_costs_are_absent(self, tables):
        vehicles, _, launches = tables
        assert all(
            v.cost_per_launch_musd is None for v in vehicles if v.status == "planned"
        )
        exomars = next(m for m in launches if m.mission_name == "ExoMars")
        assert exomars.cost_musd is None

    def test_habitat_mass_bounds(self, tables):
        _, habitats, _ = tables
        assert all(10_000 <= h.mass_kg <= 25_000 for h in habitats)


class TestQuerySuperHeavy:
    def test_available(self, tables):
        vehicles, _, _ = tables
        names = [v.name for v in query_super_heavy(vehicles, "available")]
        assert names == ["Falcon Heavy", "SLS Block 1"]

    def test_planned(self, tables):
        vehicles, _, _ = tables
        hits = query_super_heavy(vehicles, "planned")
        assert len(hits) == 5
        assert hits[0].name == "Starship"
        assert hits[0].payload_to_leo_kg == 100000

    def test_threshold_boundary(self, tables):
        vehicles, _, _ = tables
        small = LaunchVehicle(
            name="Hypothetical", status="available", payload_to_leo_kg=49_999,
            cost_per_launch_musd=None, operator_government="X",
        )
        hits = query_super_heavy(list(vehicles) + [small], "available")
        assert "Hypothetical" not in [v.name for v in hits]

    def test_sorted_ascending(self, tables):
        vehicles, _, _ = tables
        payloads = [v.payload_to_leo_kg for v in query_super_heavy(vehicles)]
        assert payloads == sorted(payloads)


def copy_bundle(out_dir):
    """Copy the packaged CSVs into out_dir, for tampering with."""
    for name in EXPECTED:
        shutil.copyfile(resources.files("velakit").joinpath("data", name), out_dir / name)


class TestRoundTripAndCorruption:
    def test_copied_bundle_loads_identically(self, tables, tmp_path):
        copy_bundle(tmp_path)
        assert load_reference_tables(data_dir=tmp_path, verify_checksums=True) == tables

    def test_missing_row_detected(self, tmp_path):
        copy_bundle(tmp_path)
        path = tmp_path / "habitat_modules.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(CorruptedBundleError, match="expected 10"):
            load_reference_tables(data_dir=tmp_path, verify_checksums=False)

    def test_checksum_mismatch_detected(self, tmp_path):
        copy_bundle(tmp_path)
        path = tmp_path / "launch_vehicles.csv"
        path.write_text(path.read_text().replace("95000", "95001"))
        with pytest.raises(CorruptedBundleError, match="checksum"):
            load_reference_tables(data_dir=tmp_path, verify_checksums=True)

    def test_bundled_checksums_pass(self):
        load_reference_tables(verify_checksums=True)
