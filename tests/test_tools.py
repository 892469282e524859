"""The repository's command-line tools under tools/, run through their main()."""

import argparse
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


json_float_diff = load_tool("json_float_diff")
cli_digests = load_tool("cli_digests")
digest_text_check = load_tool("digest_text_check")
bench_pairs = load_tool("bench_pairs")

DOC = {
    "case": "rconst",
    "rank": 1,
    "ok": True,
    "note": None,
    "specs": [
        {"alpha": [[-0.5, 0.25], [0.125, 2.0]], "loglik": 10.0},
        {"alpha": [[1.0, -4.0], [0.0, 0.5]], "loglik": -3.0},
    ],
}


def run(tmp_path, capsys, old, new):
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    code = json_float_diff.main([str(path) for path in paths])
    out, err = capsys.readouterr()
    return code, out.splitlines(), err


def rows(lines):
    """{field: (relative change, differing/floats)} from the tool's table."""
    assert lines[0] == "relative_change\tdiffering/floats\tfield"
    return {field: (float(relative), counts)
            for relative, counts, field in (line.split("\t") for line in lines[1:])}


class TestJsonFloatDiff:
    def test_identical_documents(self, tmp_path, capsys):
        code, lines, err = run(tmp_path, capsys, DOC, DOC)
        assert code == 0 and err == ""
        assert rows(lines) == {"$.specs[].alpha[][]": (0.0, "0/8"),
                               "$.specs[].loglik": (0.0, "0/2")}

    def test_one_changed_float(self, tmp_path, capsys):
        new = json.loads(json.dumps(DOC))
        new["specs"][1]["alpha"][0][1] = -4.0 + 1e-12
        code, lines, _ = run(tmp_path, capsys, DOC, new)
        assert code == 0
        table = rows(lines)
        # the largest |old| entry of the field is 4.0
        assert table["$.specs[].alpha[][]"] == (
            float(f"{abs(new['specs'][1]['alpha'][0][1] + 4.0) / 4.0:.3g}"), "1/8")
        assert table["$.specs[].loglik"] == (0.0, "0/2")
        assert json_float_diff.compare(DOC, new)["$.specs[].alpha[][]"] == (
            abs(new["specs"][1]["alpha"][0][1] + 4.0) / 4.0, 1, 8)
        assert lines[1].endswith("\t$.specs[].alpha[][]")  # the field that moved comes first

    @pytest.mark.parametrize("edit, path", [
        (lambda doc: doc["specs"][0].update(sigma=doc["specs"][0].pop("loglik")),
         "$.specs[0]: keys"),
        (lambda doc: doc["specs"][1]["alpha"].pop(), "$.specs[1].alpha: 2 entries against 1"),
        (lambda doc: doc.update(rank=1.0), "$.rank: int against float"),
        (lambda doc: doc.update(note=0.5), "$.note: NoneType against float"),
        (lambda doc: doc.update(case="uconst"), "$.case: 'rconst' against 'uconst'"),
    ], ids=["renamed-key", "list-length", "int-float", "null-float", "string"])
    def test_shape_mismatch_names_the_first_differing_path(self, tmp_path, capsys, edit, path):
        new = json.loads(json.dumps(DOC))
        edit(new)
        new["specs"][1]["loglik"] = "later"  # a second difference, after the first
        code, lines, err = run(tmp_path, capsys, DOC, new)
        assert code == 1 and lines == []
        assert err.startswith(f"shapes differ at {path}")


class TestCliDigests:
    def test_every_subcommand_has_a_digest(self):
        # the byte-identity evidence covers the whole command line
        from velakit.cli import build_parser

        (subparsers,) = [action for action in build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        assert {argv[0] for argv in cli_digests.COMMANDS.values()} == set(subparsers.choices)

    def test_keep_leaves_each_commands_artifacts(self, tmp_path, capsys, monkeypatch):
        # two quick commands, one with a JSON and a text artifact, one with none
        monkeypatch.setattr(cli_digests, "COMMANDS", {
            name: cli_digests.COMMANDS[name] for name in ("vecrank", "mission")})
        assert cli_digests.main([]) == 0
        plain = capsys.readouterr().out.splitlines()
        keep = tmp_path / "kept"
        assert cli_digests.main(["--keep", str(keep)]) == 0
        lines = capsys.readouterr().out.splitlines()
        # keeping the artifacts changes no digest
        assert lines == plain
        for line, name in zip(lines, ("vecrank", "mission")):
            kept = sorted(path for path in (keep / name).rglob("*") if path.is_file())
            fields = line.split(" ")
            assert fields[0] == name
            assert fields[4:] == [f"{path.relative_to(keep / name)}="
                                  f"{hashlib.sha256(path.read_bytes()).hexdigest()}"
                                  for path in kept]
        assert any(path.suffix == ".json" for path in (keep / "vecrank").iterdir())

    def test_flat_panel_holds_one_column(self, tmp_path):
        # the degenerate rows' input: researchers_per_million at its first
        # value in every row, every other cell as in the demo panel
        import csv

        source = TOOLS.parent / "sample_data" / "demo_panel.csv"
        path = cli_digests.write_flat_panel(TOOLS.parent, tmp_path)
        assert path.parent == tmp_path
        rows = [list(csv.DictReader(f.read_text(encoding="utf-8").splitlines()))
                for f in (source, path)]
        assert len(rows[0]) == len(rows[1]) > 1
        first = rows[0][0]["researchers_per_million"]
        for old, new in zip(*rows):
            assert new.pop("researchers_per_million") == first
            old.pop("researchers_per_million")
            assert new == old

    @pytest.mark.parametrize("existing", ["file", "non-empty directory"])
    def test_keep_refuses_a_used_path(self, tmp_path, capsys, existing):
        target = tmp_path / "out"
        if existing == "file":
            target.write_text("x", encoding="utf-8")
        else:
            target.mkdir()
            (target / "old.json").write_text("{}", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            cli_digests.main(["--keep", str(target)])
        assert exit_info.value.code == 2
        assert "not an empty directory" in capsys.readouterr().err


DIGESTS = """vecrank exit=0 stdout=a stderr=b vecrank_DEMO.json=c vecrank_DEMO.txt=d
pipeline-json exit=0 stdout=e stderr=f pipeline_DEMO.json=g pipeline_DEMO.txt=h
mc-validate-cv exit=0 stdout=i stderr=j mcvalidate_cv.json=k mcvalidate_cv_reps.csv=l
"""


class TestDigestTextCheck:
    def check(self, tmp_path, capsys, new):
        paths = [tmp_path / "old.txt", tmp_path / "new.txt"]
        for path, text in zip(paths, (DIGESTS, new)):
            path.write_text(text, encoding="utf-8")
        code = digest_text_check.main([str(path) for path in paths])
        return code, capsys.readouterr().out.splitlines()

    def test_float_fields_may_move(self, tmp_path, capsys):
        # JSON and CSV artifacts, and the stdout of a --format json command
        new = DIGESTS.replace("=c ", "=C ").replace("stdout=e", "stdout=E").replace("=l", "=L")
        code, lines = self.check(tmp_path, capsys, new)
        assert code == 0
        assert lines == ["floats differ: vecrank vecrank_DEMO.json",
                         "floats differ: pipeline-json stdout",
                         "floats differ: mc-validate-cv mcvalidate_cv_reps.csv",
                         "3 float fields and 0 text fields differ"]

    @pytest.mark.parametrize("field", ["exit=0 stdout=a", "stdout=a", "stderr=f", "=h", "=i "])
    def test_text_may_not(self, tmp_path, capsys, field):
        code, lines = self.check(tmp_path, capsys, DIGESTS.replace(field, field.upper(), 1))
        assert code == 1
        assert lines[-1] == "0 float fields and 1 text fields differ"
        assert lines[0].startswith("TEXT DIFFERS: ")

    def test_rows_and_fields_must_match(self, tmp_path, capsys):
        code, lines = self.check(tmp_path, capsys, DIGESTS.replace(" vecrank_DEMO.txt=d", ""))
        assert code == 1 and lines[0].startswith("TEXT DIFFERS: vecrank: fields ")
        code, lines = self.check(tmp_path, capsys, "\n".join(DIGESTS.splitlines()[:2]))
        assert code == 1 and lines[0].startswith("TEXT DIFFERS: rows ")

    def test_json_stdout_comes_from_the_command(self):
        json_rows = {name for name in cli_digests.COMMANDS
                     if digest_text_check.carries_floats(name, "stdout")}
        assert json_rows == {"pipeline-json"}


def pair_record(seed, parent, change):
    """A pair of runs whose p50 and throughput are given as (parent, change)."""
    return {"seed": seed,
            "parent": {"latency_p50_ms": parent[0], "throughput_per_s": parent[1]},
            "change": {"latency_p50_ms": change[0], "throughput_per_s": change[1]},
            "correct": [True, True], "failed": [0, 0]}


BETTER = {"latency_p50_ms": "lower", "throughput_per_s": "higher"}


class TestBenchPairs:
    def test_summary_of_pairs(self):
        runs = [pair_record(1, (10.0, 100.0), (9.0, 110.0)),
                pair_record(2, (12.0, 90.0), (12.5, 90.0)),
                pair_record(3, (11.0, 95.0), (10.0, 94.0)),
                pair_record(4, (13.0, 80.0), (12.0, 85.0))]
        summary = bench_pairs.summarize(runs, BETTER)
        assert summary["latency_p50_ms"] == pytest.approx({
            "better": "lower", "parent_median": 11.5, "parent_q1": 10.75, "parent_q3": 12.25,
            "change_median": 11.0, "change_q1": 9.75, "change_q3": 12.125,
            "relative_change": 11.0 / 11.5 - 1.0, "change_wins": 3, "pairs": 4})
        # a tie is no win
        assert summary["throughput_per_s"]["change_wins"] == 2
        assert summary["throughput_per_s"]["parent_median"] == 92.5

    def test_one_pair_has_its_values_for_quartiles(self):
        (entry,) = bench_pairs.summarize([pair_record(1, (4.0, 1.0), (5.0, 2.0))],
                                         {"latency_p50_ms": "lower"}).values()
        assert (entry["change_q1"], entry["change_median"], entry["change_q3"]) == (5.0, 5.0, 5.0)
        assert entry["change_wins"] == 0 and entry["pairs"] == 1

    def test_sides_alternate_and_other_workloads_stay(self, tmp_path, capsys, monkeypatch):
        calls = []

        def run_side(root, workload, seed, seconds):
            calls.append(("change" if root == bench_pairs.ROOT else "parent", seed))
            value = 2.0 if root == bench_pairs.ROOT else 3.0
            metrics = {name: {"value": value, "unit": "x"}
                       for name in ("latency_p50_ms", "latency_tail_ms", "throughput_per_s",
                                    "setup_s", "peak_rss_mb")}
            return {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}

        monkeypatch.setattr(bench_pairs, "extract", lambda rev, root, into: None)
        monkeypatch.setattr(bench_pairs, "run_side", run_side)
        out = tmp_path / "BENCH_7.json"
        out.write_text(json.dumps({"workloads": {"mc_cv": {"summary": {}, "runs": []}}}))
        assert bench_pairs.main(["--parent", "HEAD~1", "--pr", "7", "--workload", "spec_search",
                                 "--pairs", "3", "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        assert calls == [("parent", 5), ("change", 5), ("change", 6), ("parent", 6),
                         ("parent", 7), ("change", 7)]
        doc = json.loads(out.read_text())
        assert doc["pr"] == 7 and set(doc["workloads"]) == {"mc_cv", "spec_search"}
        assert doc["claim"] == "no gain is claimed"
        runs = doc["workloads"]["spec_search"]["runs"]
        assert [run["seed"] for run in runs] == [5, 6, 7]
        assert all(run["parent"]["setup_s"] == 3.0 and run["change"]["setup_s"] == 2.0
                   for run in runs)
        summary = doc["workloads"]["spec_search"]["summary"]
        assert set(summary) == {"latency_p50_ms", "latency_tail_ms", "throughput_per_s",
                                "setup_s", "peak_rss_mb"}
        assert summary["setup_s"]["change_wins"] == 3
        assert summary["throughput_per_s"]["change_wins"] == 0
