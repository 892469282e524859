import json
from pathlib import Path

import pytest

from velakit import cli, synthetic
from velakit.cli import main
from velakit.errors import VelakitError

from conftest import write_levels_csv


@pytest.fixture
def panel_csv(tmp_path):
    return write_levels_csv(tmp_path / "panel.csv", T=48, seed=2027,
                            missing=[("sb", 1995), ("ed", 1973)])


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestIngest:
    def test_ok(self, panel_csv, tmp_path, capsys):
        code, out, _ = run(
            ["ingest", "--input", str(panel_csv), "--agency", "DEMO",
             "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 0
        assert "2 missing cell(s)" in out
        doc = json.loads((tmp_path / "o" / "panel_DEMO.json").read_text())
        assert doc["manifest"]["command"] == "ingest"
        assert doc["missing_before_repair"] == [["sb", 1995], ["ed", 1973]]

    def test_bad_agency_exit_2(self, panel_csv, capsys):
        code, _, err = run(["ingest", "--input", str(panel_csv), "--agency", "NOPE"], capsys)
        assert code == 2
        assert "no rows" in err


class TestAdfCommand:
    def test_table_output(self, panel_csv, capsys):
        code, out, _ = run(
            ["adf", "--input", str(panel_csv), "--agency", "DEMO", "--lags", "1"], capsys)
        assert code == 0
        assert "sb" in out and "d.sb" in out


class TestLagselect:
    def test_runs(self, panel_csv, capsys):
        code, out, _ = run(
            ["lagselect", "--input", str(panel_csv), "--agency", "DEMO", "--kmax", "3"],
            capsys)
        assert code == 0
        assert "chosen:" in out

    def test_infeasible_kmax_exit_2(self, panel_csv, capsys):
        # T=48 and p=6 allow at most VAR(6); the error is reported once
        code, out, err = run(
            ["lagselect", "--input", str(panel_csv), "--agency", "DEMO", "--kmax", "9"],
            capsys)
        assert code == 2
        assert err == ("error: k_max=9 exceeds 6, the longest lag a VAR of T=48 "
                       "observations of p=6 series allows\n")
        assert out == ""


class TestVecrank:
    def test_selects_rank_one(self, panel_csv, capsys):
        code, out, _ = run(
            ["vecrank", "--input", str(panel_csv), "--agency", "DEMO",
             "--vars", "sb,gpc,md", "--lags", "1"], capsys)
        assert code == 0
        assert "selected rank: 1" in out

    def test_lag_short_of_the_difference_columns_exit_2(self, panel_csv, capsys):
        # T=48 and six series: k=6 leaves T_eff=42, one short of 30 short-run
        # regressors, 6 difference columns and 7 level terms
        code, out, err = run(
            ["vecrank", "--input", str(panel_csv), "--agency", "DEMO", "--lags", "6"], capsys)
        assert code == 2
        assert err == ("error: insufficient sample: T_eff=42 with 30 short-run regressors, "
                       "6 difference columns and 7 level terms\n")
        assert out == ""
        code, _, _ = run(
            ["vecrank", "--input", str(panel_csv), "--agency", "DEMO", "--lags", "5"], capsys)
        assert code == 0


class TestVecmCommand:
    def test_model_json(self, panel_csv, tmp_path, capsys):
        code, out, _ = run(
            ["vecm", "--input", str(panel_csv), "--agency", "DEMO",
             "--vars", "sb,gpc,md", "--lags", "1", "--rank", "1",
             "--out-dir", str(tmp_path / "o"), "--format", "json"], capsys)
        assert code == 0
        doc = json.loads((tmp_path / "o" / "vecm_DEMO.json").read_text())
        model = doc["model"]
        for key in ("vars", "k", "r", "alpha", "beta", "gamma", "mu", "sigma",
                    "loglik", "aic", "bic", "beta_se", "beta_z", "wald_chi2"):
            assert key in model
        assert model["vars"] == ["sb", "gpc", "md"]
        assert model["beta"][0][0] == pytest.approx(1.0)
        # matrices serialize as nested row-major lists
        assert len(model["alpha"]) == 3 and len(model["alpha"][0]) == 1


class TestPipeline:
    def test_end_to_end(self, panel_csv, tmp_path, capsys):
        code, out, _ = run(
            ["pipeline", "--input", str(panel_csv), "--agency", "DEMO",
             "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 0
        assert "Variable correlation" in out
        doc = json.loads((tmp_path / "o" / "pipeline_DEMO.json").read_text())
        row = doc["stages"]["specification_search"]["correlation_row"]
        assert set(row) == {"gpc", "rd", "md", "ed", "sd"}
        assert row["gpc"]["sign"] in "+-"

    def test_negative_budget_fails_at_log_stage(self, tmp_path, capsys):
        bad = write_levels_csv(tmp_path / "bad.csv", T=48, seed=2027,
                               corrupt=("sb", 1990, -3.0))
        code, _, err = run(
            ["pipeline", "--input", str(bad), "--agency", "DEMO",
             "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 2
        assert "log-transform" in err
        assert "(sb, 1990)" in err
        doc = json.loads((tmp_path / "o" / "pipeline_DEMO.json").read_text())
        assert doc["failed_stage"] == "log-transform"
        assert "sb" in doc["error"]

    def test_missing_input_fails_at_ingest_stage(self, tmp_path, capsys):
        # the input is digested inside the ingest stage, so an unreadable one
        # gets the stage report and a failure artifact like a malformed one
        missing = tmp_path / "nope.csv"
        code, out, err = run(["pipeline", "--input", str(missing), "--agency", "X",
                              "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 2
        assert out == ""
        assert f"pipeline failed at stage ingest: cannot read {missing}" in err
        assert "No such file or directory" in err
        doc = json.loads((tmp_path / "o" / "pipeline_X.json").read_text())
        assert doc["failed_stage"] == "ingest"
        assert doc["stages"] == {}
        assert doc["error"].startswith(f"ValidationError: cannot read {missing}")
        assert doc["manifest"]["command"] == "pipeline"
        assert doc["manifest"]["input_digests"] == {}

    def test_shipped_demo_panel(self, capsys):
        demo = Path(__file__).resolve().parents[1] / "sample_data" / "demo_panel.csv"
        code, out, _ = run(
            ["pipeline", "--input", str(demo), "--agency", "DEMO"], capsys)
        assert code == 0
        assert "admissible specs:" in out

    def test_demo_artifact_has_no_residuals(self, tmp_path, capsys):
        # the per-spec residual matrices were 63% of this artifact (331,515 bytes)
        demo = Path(__file__).resolve().parents[1] / "sample_data" / "demo_panel.csv"
        code, _, _ = run(["pipeline", "--input", str(demo), "--agency", "DEMO",
                          "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        data = (tmp_path / "pipeline_DEMO.json").read_bytes()
        assert json.loads(data)["stages"]["specification_search"]["specs"][0]["model"]["beta"]
        assert b'"residuals"' not in data
        assert len(data) <= 132_606


class TestExitCodes:
    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # sd proportional to sb in levels means identical log differences:
        # the moment matrices degenerate and the kernel error surfaces as 3
        logs = write_levels_csv(tmp_path / "c.csv", T=48, seed=2027)
        lines = logs.read_text().splitlines()
        header = lines[0].split(",")
        sb_i, sd_i = header.index("sb_usd_b"), header.index("rnd_pct_gdp")
        fixed = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            cells[sd_i] = repr(2.0 * float(cells[sb_i]))
            fixed.append(",".join(cells))
        logs.write_text("\n".join(fixed) + "\n")
        code, _, err = run(
            ["vecrank", "--input", str(logs), "--agency", "DEMO",
             "--vars", "sb,sd", "--lags", "1"], capsys)
        assert code == 3
        assert "degenerate" in err or "pivot" in err

    def test_no_admissible_spec_exit_4(self, tmp_path, capsys):
        import numpy as np

        from velakit.panel import CSV_COLUMNS, VARIABLES

        rng = np.random.default_rng(4)
        years = list(range(1971, 2021))
        rows = [",".join(CSV_COLUMNS)]
        for i, y in enumerate(years):
            cells = ["WN", str(y)]
            cells += [repr(float(np.exp(rng.standard_normal() * 0.1 + 1.0)))
                      for _ in VARIABLES]
            rows.append(",".join(cells))
        path = tmp_path / "wn.csv"
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run(
            ["specsearch", "--input", str(path), "--agency", "WN",
             "--min-size", "6"], capsys)
        assert code == 4
        assert "no admissible specification" in err

    def test_min_size_above_variable_count_exit_2(self, capsys):
        demo = Path(__file__).resolve().parents[1] / "sample_data" / "demo_panel.csv"
        code, out, err = run(["specsearch", "--input", str(demo), "--agency", "DEMO",
                              "--min-size", "7"], capsys)
        assert code == 2
        assert "min_size" in err and "6, the number of variables" in err
        assert out == ""

    @pytest.mark.parametrize("error", [RuntimeError("boom\nsecond line"),
                                       VelakitError("bare toolkit error")],
                             ids=["runtime-error", "velakit-error"])
    def test_unexpected_error_exit_5(self, monkeypatch, capsys, error):
        def failing(args):
            raise error

        monkeypatch.setattr(cli, "cmd_mission", failing)
        code, out, err = run(["mission"], capsys)
        assert code == cli.EXIT_INTERNAL == 5
        assert err == f"internal error: {type(error).__name__}: {error}".replace("\n", " ") + "\n"
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("lags", ["0", "-1", "1"])
    def test_invalid_lag_candidate_exit_2(self, capsys, lags):
        demo = Path(__file__).resolve().parents[1] / "sample_data" / "demo_panel.csv"
        code, out, err = run(["specsearch", "--input", str(demo), "--agency", "DEMO",
                              "--k-candidates", "1", lags], capsys)
        assert code == 2
        assert f"k={lags}" in err
        assert out == ""

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    def test_non_finite_cell_exit_2(self, panel_csv, tmp_path, capsys, cell):
        lines = panel_csv.read_text().splitlines()
        cells = lines[10].split(",")
        cells[2] = cell
        lines[10] = ",".join(cells)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            ["pipeline", "--input", str(path), "--agency", "DEMO",
             "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 2
        assert f"bad.csv:11: non-finite value {cell!r} in column sb_usd_b" in err

    def test_duplicate_vars_exit_2(self, panel_csv, capsys):
        code, _, err = run(
            ["vecrank", "--input", str(panel_csv), "--agency", "DEMO",
             "--vars", "sb,ed,ed"], capsys)
        assert code == 2
        assert "duplicate" in err

    @pytest.mark.parametrize("command", ["adf", "lagselect", "vecrank", "vecm"])
    @pytest.mark.parametrize("text", [",", ""])
    def test_empty_vars_exit_2(self, panel_csv, tmp_path, capsys, command, text):
        code, out, err = run(
            [command, "--input", str(panel_csv), "--agency", "DEMO", "--vars", text,
             "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 2
        assert f"--vars {text!r} names no variable" in err
        assert out == ""


class TestMission:
    def test_sample_headline(self, tmp_path, capsys):
        code, out, _ = run(["mission", "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 0
        assert "pool 34.300" in out
        assert "cost 25.000" in out
        assert "margin 27.1%" in out
        doc = json.loads((tmp_path / "o" / "mission.json").read_text())
        assert doc["plan"]["pool_busd"] == pytest.approx(34.3)

    def test_json_stdout_is_the_artifact(self, tmp_path, capsys):
        code, out, _ = run(["mission", "--format", "json", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out) == json.loads((tmp_path / "mission.json").read_text())

    def test_horizon_override_infeasible(self, capsys):
        code, out, _ = run(["mission", "--horizon-years", "1"], capsys)
        assert code == 0
        assert "pool 6.860" in out
        assert "[INFEASIBLE]" in out

    def test_no_provider_exit_2(self, tmp_path, capsys):
        config = {
            "agencies": [
                {"agency_id": "ESA", "annual_budget_busd": 7.0,
                 "contribution_fraction": 0.2, "provides_super_heavy": False}
            ]
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, _, err = run(["mission", "--config", str(path)], capsys)
        assert code == 2
        assert "no launch provider" in err

    def test_nan_budget_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"agencies": [{"agency_id": "NASA", "annual_budget_busd": NaN, '
                        '"contribution_fraction": 0.2, "provides_super_heavy": true}]}')
        code, _, err = run(["mission", "--config", str(path)], capsys)
        assert code == 2
        assert "annual_budget_busd" in err

    @pytest.mark.parametrize("agency_id", [5, ["x"], None])
    def test_agency_id_not_a_string_exit_2(self, tmp_path, capsys, agency_id):
        doc = json.loads(cli.SAMPLE_CONFIG.read_text())
        doc["agencies"][0]["agency_id"] = agency_id
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["mission", "--config", str(path)], capsys)
        assert code == 2
        assert err == f"error: agency_id must be a JSON string, got {agency_id!r}\n"
        assert out == ""

    @pytest.mark.parametrize("agencies", ["[5]", '{"a": 1}', '"x"', "null", None],
                             ids=["array-of-int", "object", "string", "null", "missing"])
    def test_agencies_not_an_array_of_objects_exit_2(self, tmp_path, capsys, agencies):
        path = tmp_path / "cfg.json"
        path.write_text("{}" if agencies is None else f'{{"agencies": {agencies}}}')
        code, out, err = run(["mission", "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: agencies must be a JSON array of objects\n"

    @pytest.mark.parametrize("edit, message", [
        ({"budget_typo": 9}, "agencies[0]: unknown key(s) ['budget_typo']"),
        ({"annual_budget_busd": None}, "agencies[0]: missing field annual_budget_busd"),
        ({"agency_id": ""}, "agency_id must be a non-empty name, got ''"),
    ], ids=["unknown-key", "missing-field", "empty-id"])
    def test_agency_object_parsed_exactly_exit_2(self, tmp_path, capsys, edit, message):
        doc = json.loads(cli.SAMPLE_CONFIG.read_text())
        doc["agencies"][0].update(edit)
        doc["agencies"][0] = {key: v for key, v in doc["agencies"][0].items() if v is not None}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["mission", "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_overflowing_budgets_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"agencies": [
            {"agency_id": aid, "annual_budget_busd": 1e308, "contribution_fraction": 0.2,
             "provides_super_heavy": aid == "NASA"} for aid in ("ESA", "NASA")]}))
        code, _, err = run(["mission", "--config", str(path)], capsys)
        assert code == 2
        assert "annual_budget_busd" in err


class TestMcValidate:
    @pytest.mark.parametrize("p_minus_r", ["1", "3"])
    def test_p_minus_r_rejected_by_recovery_study_exit_2(self, p_minus_r, capsys):
        # the recovery study's system is fixed, so the option would be ignored
        code, out, err = run(["mc-validate", "--study", "recovery", "--reps", "100",
                              "--T", "120", "--p-minus-r", p_minus_r], capsys)
        assert code == 2
        assert err.startswith("error: --p-minus-r applies to the cv study only")
        assert out == ""

    def test_cv_study_p_minus_r_defaults_to_one(self, capsys, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        outputs = []
        for extra in ([], ["--p-minus-r", "1"]):
            code, out, _ = run(["mc-validate", "--study", "cv", "--reps", "1000", "--T", "400",
                                "--format", "json", *extra], capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["critical_value_study"]["p_minus_r"] == 1

    def test_recovery_study(self, tmp_path, capsys):
        code, out, _ = run(
            ["mc-validate", "--study", "recovery", "--reps", "100", "--T", "200",
             "--seed", "5", "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 0
        assert "rank accuracy" in out
        doc = json.loads((tmp_path / "o" / "mcvalidate_recovery.json").read_text())
        assert doc["recovery_study"]["reps"] == 100
        assert doc["manifest"]["seeds"] == [5]

    def test_cv_study_rejects_small_reps(self, capsys):
        code, _, err = run(["mc-validate", "--study", "cv", "--reps", "10"], capsys)
        assert code == 2
        assert "reps" in err

    def test_dump_reps_csv(self, tmp_path, capsys):
        code, _, _ = run(
            ["mc-validate", "--study", "recovery", "--reps", "100", "--T", "200",
             "--seed", "5", "--out-dir", str(tmp_path / "o"), "--dump-reps"], capsys)
        assert code == 0
        lines = (tmp_path / "o" / "mcvalidate_recovery_reps.csv").read_text().splitlines()
        assert lines[0] == "rep,selected_rank,beta_angle_deg,trace_r0"
        assert len(lines) == 101
        cells = lines[1].split(",")
        float(cells[2]), float(cells[3])  # plain numerals, no numpy repr

    def test_cv_dump_reps_plain_floats(self, tmp_path, capsys):
        code, _, _ = run(
            ["mc-validate", "--study", "cv", "--reps", "1000", "--T", "400",
             "--seed", "3", "--out-dir", str(tmp_path / "o"), "--dump-reps"], capsys)
        assert code == 0
        lines = (tmp_path / "o" / "mcvalidate_cv_reps.csv").read_text().splitlines()
        assert lines[0] == "rep,trace_r0"
        assert len(lines) == 1001
        float(lines[1].split(",")[1])

    @pytest.mark.parametrize("T", ["0", "-5"])
    def test_recovery_T_below_one_exit_2(self, T, capsys):
        code, out, err = run(["mc-validate", "--study", "recovery", "--T", T,
                              "--reps", "100"], capsys)
        assert code == 2
        assert err == f"error: T must be an integer >= 1, got {T}\n"
        assert out == ""

    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    def test_seed_outside_64_bits_exit_2(self, seed, capsys, monkeypatch):
        # the replication seeds take the seed modulo 2**64, so 2**64 would
        # rerun seed 0's study; it is refused before the study runs
        def never(*args, **kwargs):
            raise AssertionError("the study ran")
        monkeypatch.setattr(synthetic, "monte_carlo_critical_values", never)
        code, out, err = run(["mc-validate", "--seed", seed], capsys)
        assert code == 2
        assert err == f"error: --seed must be in 0..{2**64 - 1}, got {seed}\n"
        assert out == ""

    def test_largest_seed_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        code, out, _ = run(["mc-validate", "--study", "cv", "--reps", "1000", "--T", "400",
                            "--seed", str(2**64 - 1), "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["manifest"]["seeds"] == [2**64 - 1]

    @pytest.mark.parametrize("study", ["cv", "recovery"])
    def test_dump_reps_needs_out_dir_exit_2(self, study, capsys):
        code, out, err = run(["mc-validate", "--study", study, "--dump-reps"], capsys)
        assert code == 2
        assert "--out-dir" in err
        assert out == ""


class TestDeterminism:
    def test_pipeline_reruns_byte_identical(self, panel_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        for d in ("a", "b"):
            code, _, _ = run(
                ["pipeline", "--input", str(panel_csv), "--agency", "DEMO",
                 "--out-dir", str(tmp_path / d)], capsys)
            assert code == 0
        for name in ("pipeline_DEMO.json", "pipeline_DEMO.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_recovery_study_reruns_byte_identical(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        for d in ("a", "b"):
            code, _, _ = run(
                ["mc-validate", "--study", "recovery", "--reps", "100", "--T", "200",
                 "--seed", "7", "--dump-reps", "--out-dir", str(tmp_path / d)], capsys)
            assert code == 0
        for name in ("mcvalidate_recovery.json", "mcvalidate_recovery.txt",
                     "mcvalidate_recovery_reps.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_timestamp_pinned(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        code, _, _ = run(["mission", "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 0
        doc = json.loads((tmp_path / "o" / "mission.json").read_text())
        assert doc["manifest"]["timestamp"] == "1970-01-01T00:00:00Z"

    @pytest.mark.parametrize("epoch", ["abc", "1.5", "-1", "99999999999999999999"])
    def test_unusable_timestamp_exit_2(self, tmp_path, capsys, monkeypatch, epoch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        code, _, err = run(["mission", "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 2
        assert "SOURCE_DATE_EPOCH must be a non-negative decimal integer" in err
        assert repr(epoch) in err


class TestInputContract:
    """Unusable inputs exit 2 with the offending path named, never a traceback."""

    def test_missing_panel_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code, _, err = run(["pipeline", "--input", str(missing), "--agency", "DEMO"], capsys)
        assert code == 2
        assert str(missing) in err

    def test_panel_is_a_directory_exit_2(self, tmp_path, capsys):
        code, _, err = run(["ingest", "--input", str(tmp_path), "--agency", "DEMO"], capsys)
        assert code == 2
        assert str(tmp_path) in err

    def test_config_is_a_directory_exit_2(self, tmp_path, capsys):
        code, _, err = run(["mission", "--config", str(tmp_path)], capsys)
        assert code == 2
        assert str(tmp_path) in err

    @pytest.mark.parametrize("command", ["ingest", "pipeline"])
    def test_utf16_panel_exit_2(self, panel_csv, tmp_path, capsys, command):
        utf16 = tmp_path / "utf16.csv"
        utf16.write_text(panel_csv.read_text(encoding="utf-8"), encoding="utf-16")
        code, _, err = run([command, "--input", str(utf16), "--agency", "DEMO"], capsys)
        assert code == 2
        assert str(utf16) in err
        assert "UTF-8" in err

    def test_byte_order_mark_panel_ingests(self, tmp_path, capsys):
        # spreadsheet exports prefix UTF-8 files with EF BB BF
        demo = Path(__file__).resolve().parents[1] / "sample_data" / "demo_panel.csv"
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + demo.read_bytes())
        code, out, err = run(["ingest", "--input", str(marked), "--agency", "DEMO"], capsys)
        assert (code, err) == (0, "")
        plain, _, _ = run(["ingest", "--input", str(demo), "--agency", "DEMO"], capsys)
        assert plain == 0 and out.startswith("panel DEMO: years 1973-")

    def test_utf16_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"agencies": []}', encoding="utf-16")
        code, _, err = run(["mission", "--config", str(path)], capsys)
        assert code == 2
        assert str(path) in err

    @pytest.mark.parametrize("command", ["ingest", "pipeline"])
    def test_out_dir_is_a_file_exit_2(self, panel_csv, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        code, out, err = run([command, "--input", str(panel_csv), "--agency", "DEMO",
                              "--out-dir", str(taken)], capsys)
        assert code == 2
        assert str(taken) in err
        assert out == ""
        assert taken.read_text() == "not a directory"

    def test_out_dir_is_a_file_on_failed_pipeline_exit_2(self, tmp_path, capsys):
        bad = write_levels_csv(tmp_path / "bad.csv", T=48, seed=2027,
                               corrupt=("sb", 1990, -3.0))
        taken = tmp_path / "taken"
        taken.write_text("")
        code, _, err = run(["pipeline", "--input", str(bad), "--agency", "DEMO",
                            "--out-dir", str(taken)], capsys)
        assert code == 2
        assert str(taken) in err

    def test_artifact_is_a_directory_exit_2(self, panel_csv, tmp_path, capsys):
        taken = tmp_path / "pipeline_DEMO.json"
        taken.mkdir()
        code, out, err = run(["pipeline", "--input", str(panel_csv), "--agency", "DEMO",
                              "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert f"cannot write {taken}" in err
        assert out == ""

    def test_failed_pipeline_artifact_is_a_directory_exit_2(self, tmp_path, capsys):
        bad = write_levels_csv(tmp_path / "bad.csv", T=48, seed=2027,
                               corrupt=("sb", 1990, -3.0))
        taken = tmp_path / "pipeline_DEMO.json"
        taken.mkdir()
        code, _, err = run(["pipeline", "--input", str(bad), "--agency", "DEMO",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "pipeline failed at stage log-transform" in err
        assert f"cannot write {taken}" in err

    def test_dump_reps_csv_is_a_directory_exit_2(self, tmp_path, capsys):
        taken = tmp_path / "mcvalidate_cv_reps.csv"
        taken.mkdir()
        code, out, err = run(["mc-validate", "--study", "cv", "--reps", "1000", "--T", "400",
                              "--dump-reps", "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert f"cannot write {taken}" in err
        # the CSV is written first, so its failure prints and leaves nothing
        assert out == ""
        assert not (tmp_path / "mcvalidate_cv.json").exists()
        assert not (tmp_path / "mcvalidate_cv.txt").exists()

    @pytest.mark.parametrize("doc", ["[]", '"agencies"', "3", "null"])
    def test_config_top_level_not_object_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "cfg.json"
        path.write_text(doc)
        code, _, err = run(["mission", "--config", str(path)], capsys)
        assert code == 2
        assert str(path) in err
        assert "top level must be a JSON object" in err
