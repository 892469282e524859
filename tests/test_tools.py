"""The repository's command-line tools under tools/, run through their main()."""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import shutil
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_digests = load_tool("cli_digests")
compare_runs = load_tool("compare_runs")
bench_pairs = load_tool("bench_pairs")

# the rows kept_runs runs: JSON, text and CSV artifacts, a vecm fit's
# stability, rejected specifications, JSON and text stdout, and a failing
# command with no artifacts
KEPT_ROWS = ("vecm-rank1", "specsearch-flat", "mc-validate-recovery", "pipeline-json",
             "pipeline-table", "vecrank-k6")


@pytest.fixture(scope="module")
def kept_runs(tmp_path_factory):
    """(lines printed without --keep, lines printed with it, the --keep tree)."""
    keep = tmp_path_factory.mktemp("kept") / "run"
    lines = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cli_digests, "COMMANDS",
                            {name: cli_digests.COMMANDS[name] for name in KEPT_ROWS})
        for argv in ([], ["--keep", str(keep)]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli_digests.main(argv) == 0
            lines.append(out.getvalue().splitlines())
    return lines[0], lines[1], keep


class TestCliDigests:
    def test_every_subcommand_has_a_digest(self):
        # the byte-identity evidence covers the whole command line
        from velakit.cli import build_parser

        (subparsers,) = [action for action in build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        assert {argv[0] for argv in cli_digests.COMMANDS.values()} == set(subparsers.choices)

    def test_keep_prints_the_same_lines_and_keeps_each_commands_outputs(self, kept_runs):
        plain, lines, keep = kept_runs
        # keeping the outputs changes no digest
        assert lines == plain
        assert [line.split(" ")[0] for line in lines] == list(KEPT_ROWS)
        for line in lines:
            name, *fields = line.split(" ")
            kept = sorted(path for path in (keep / name).rglob("*") if path.is_file())
            exit_code = (keep / f"{name}.exit").read_text(encoding="utf-8")
            assert fields[0] == f"exit={exit_code.strip()}" and exit_code.endswith("\n")
            assert fields[1:] == [
                f"{part}={hashlib.sha256((keep / f'{name}.{part}').read_bytes()).hexdigest()}"
                for part in ("stdout", "stderr")] + [
                f"{path.relative_to(keep / name)}={hashlib.sha256(path.read_bytes()).hexdigest()}"
                for path in kept]
        assert (keep / "vecrank-k6.exit").read_text(encoding="utf-8") == "2\n"
        assert not any((keep / "vecrank-k6").iterdir())

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

# a --keep tree: a row with JSON and text artifacts, one whose stdout is
# JSON, and one with a CSV artifact
RUN = {
    "vecrank.exit": "0\n", "vecrank.stdout": "rank 1\n", "vecrank.stderr": "",
    "vecrank/vecrank_DEMO.json": json.dumps(DOC), "vecrank/vecrank_DEMO.txt": "report\n",
    "pipeline-json.exit": "0\n", "pipeline-json.stdout": json.dumps({"loglik": 10.0}),
    "pipeline-json.stderr": "",
    "mc-validate-cv.exit": "0\n", "mc-validate-cv.stdout": "cv study\n",
    "mc-validate-cv.stderr": "",
    "mc-validate-cv/mcvalidate_cv_reps.csv": "rep,trace_r0\n0,6.25\n1,2.5\n",
}
JSON_ARTIFACT = "vecrank/vecrank_DEMO.json"
CSV_ARTIFACT = "mc-validate-cv/mcvalidate_cv_reps.csv"


def write_run(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    return root


def compare(capsys, old, new):
    """compare_runs' exit code and printed lines for two trees."""
    code = compare_runs.main([str(old), str(new)])
    return code, capsys.readouterr().out.splitlines()


def table(lines):
    """{field: (relative change, differing/floats)} from the tool's table."""
    assert lines[0] == "relative_change\tdiffering/floats\tfield"
    return {field: (float(relative), counts) for relative, counts, field in
            (line.split("\t") for line in lines[1:] if "\t" in line)}


def differences(lines):
    return [line for line in lines if line.startswith(("DIFFERS: ", "FLOAT PAST BOUND: "))]


def edit_csv(path, row, column, edit):
    """Apply ``edit`` to one cell of a CSV; row 0 is the first row after the header."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[row + 1].rstrip("\n").split(",")
    i = lines[0].rstrip("\n").split(",").index(column)
    cells[i] = edit(cells[i])
    lines[row + 1] = ",".join(cells) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


class TestCompareRuns:
    def check(self, tmp_path, capsys, edit):
        new = dict(RUN)
        edit(new)
        return compare(capsys, write_run(tmp_path / "old", RUN), write_run(tmp_path / "new", new))

    def test_identical_runs(self, tmp_path, capsys):
        code, lines = self.check(tmp_path, capsys, lambda run: None)
        assert code == 0 and differences(lines) == []
        assert table(lines) == {f"{JSON_ARTIFACT}:$.specs[].alpha[][]": (0.0, "0/8"),
                                f"{JSON_ARTIFACT}:$.specs[].loglik": (0.0, "0/2"),
                                "pipeline-json.stdout:$.loglik": (0.0, "0/1"),
                                f"{CSV_ARTIFACT}:$[].trace_r0": (0.0, "0/2")}
        assert lines[-1] == ("4 float fields, 0 past the bound 1e-10; "
                             "0 files differ in more than floats")

    def test_one_changed_float(self, tmp_path, capsys):
        doc = json.loads(json.dumps(DOC))
        doc["specs"][1]["alpha"][0][1] = -4.0 + 1e-12
        code, lines = self.check(tmp_path, capsys,
                                 lambda run: run.update({JSON_ARTIFACT: json.dumps(doc)}))
        assert code == 0
        relative = abs(doc["specs"][1]["alpha"][0][1] + 4.0) / 4.0  # the field's largest |old|
        field = f"{JSON_ARTIFACT}:$.specs[].alpha[][]"
        assert table(lines)[field] == (float(f"{relative:.3g}"), "1/8")
        assert table(lines)[f"{JSON_ARTIFACT}:$.specs[].loglik"] == (0.0, "0/2")
        fields, _ = compare_runs.compare(tmp_path / "old", tmp_path / "new")
        assert fields[field] == (relative, 1, 8)
        assert lines[1].endswith(f"\t{field}")  # the field that moved comes first

    def test_floats_may_move_in_json_artifacts_json_stdout_and_csv(self, tmp_path, capsys):
        def edit(run):
            run[JSON_ARTIFACT] = run[JSON_ARTIFACT].replace("10.0", "10.000000000001")
            run["pipeline-json.stdout"] = json.dumps({"loglik": 10.000000000001})
            run[CSV_ARTIFACT] = run[CSV_ARTIFACT].replace("2.5", "2.5000000000001")

        code, lines = self.check(tmp_path, capsys, edit)
        assert code == 0 and differences(lines) == []
        moved = {field: counts for field, (relative, counts) in table(lines).items()
                 if 0.0 < relative < compare_runs.BOUND}
        assert moved == {f"{JSON_ARTIFACT}:$.specs[].loglik": "1/2",
                         "pipeline-json.stdout:$.loglik": "1/1",
                         f"{CSV_ARTIFACT}:$[].trace_r0": "1/2"}

    def test_a_float_past_the_bound_fails(self, tmp_path, capsys):
        code, lines = self.check(tmp_path, capsys, lambda run: run.update(
            {"pipeline-json.stdout": json.dumps({"loglik": 10.0 * (1 + 1e-9)})}))
        assert code == 1
        assert differences(lines) == ["FLOAT PAST BOUND: pipeline-json.stdout:$.loglik"]

    @pytest.mark.parametrize("edit, path", [
        (lambda doc: doc["specs"][0].update(sigma=doc["specs"][0].pop("loglik")),
         "$.specs[0]: keys"),
        (lambda doc: doc["specs"][1]["alpha"].pop(), "$.specs[1].alpha: 2 entries against 1"),
        (lambda doc: doc.update(rank=1.0), "$.rank: int against float"),
        (lambda doc: doc.update(note=0.5), "$.note: NoneType against float"),
        (lambda doc: doc.update(case="uconst"), "$.case: 'rconst' against 'uconst'"),
        (lambda doc: doc.update(ok=False), "$.ok: True against False"),
    ], ids=["renamed-key", "list-length", "int-float", "null-float", "string", "bool"])
    def test_json_shape_mismatch_names_the_first_differing_path(self, tmp_path, capsys, edit,
                                                               path):
        doc = json.loads(json.dumps(DOC))
        edit(doc)
        doc["specs"][1]["loglik"] = "later"  # a second difference, after the first
        code, lines = self.check(tmp_path, capsys,
                                 lambda run: run.update({JSON_ARTIFACT: json.dumps(doc)}))
        assert code == 1
        (line,) = differences(lines)
        assert line.startswith(f"DIFFERS: {JSON_ARTIFACT}:{path}")

    @pytest.mark.parametrize("name, text, line", [
        ("vecrank.exit", "3\n", "$[0]: b'0\\n' against b'3\\n'"),
        ("vecrank.stdout", "rank 2\n", "$[0]: b'rank 1\\n' against b'rank 2\\n'"),
        ("pipeline-json.stderr", "warning\n", "$: 0 entries against 1"),
        ("vecrank/vecrank_DEMO.txt", "report\r\n", "$[0]: b'report\\n' against b'report\\r\\n'"),
        ("mc-validate-cv.stdout", "cv study", "$[0]: b'cv study\\n' against b'cv study'"),
    ], ids=["exit", "text-stdout", "stderr", "text-artifact", "line-end"])
    def test_text_must_be_byte_equal(self, tmp_path, capsys, name, text, line):
        code, lines = self.check(tmp_path, capsys, lambda run: run.update({name: text}))
        assert code == 1
        assert differences(lines) == [f"DIFFERS: {name}:{line}"]
        assert lines[-1].endswith("; 1 files differ in more than floats")

    @pytest.mark.parametrize("text, line", [
        ("rep,trace_r0\n0,6.25\n2,2.5\n", "$[1].rep: 1 against 2"),
        ("rep,trace_r0\n0,6.25\n1,2\n", "$[1].trace_r0: float against int"),
        ("rep,trace_r0\n0,6.25\n1,nan\n", "$[1].trace_r0: float against str"),
        ("rep,trace_r0\n0,6.25\n1\n", "$[1].trace_r0: float against NoneType"),
        ("rep,trace_r0\n0,6.25\n1,2.5,0\n", "$[1]: keys ['rep', 'trace_r0'] against"),
        ("rep,trace\n0,6.25\n1,2.5\n", "$[0]: keys ['rep', 'trace_r0'] against ['rep', 'trace']"),
        ("rep,trace_r0\n0,6.25\n", "$: 2 entries against 1"),
    ], ids=["int-cell", "float-to-int", "non-finite", "missing-cell", "extra-cell", "header",
            "rows"])
    def test_csv_cells_follow_the_json_rule(self, tmp_path, capsys, text, line):
        code, lines = self.check(tmp_path, capsys, lambda run: run.update({CSV_ARTIFACT: text}))
        assert code == 1
        (found,) = differences(lines)
        assert found.startswith(f"DIFFERS: {CSV_ARTIFACT}:{line}")

    def test_files_must_match(self, tmp_path, capsys):
        def drop(*names):
            return lambda run: [run.pop(name) for name in names]

        code, lines = self.check(tmp_path, capsys, drop("vecrank/vecrank_DEMO.txt"))
        assert code == 1
        assert differences(lines) == [
            f"DIFFERS: vecrank/vecrank_DEMO.txt: only in {tmp_path / 'old'}"]
        shutil.rmtree(tmp_path / "new")
        code, lines = self.check(tmp_path, capsys, drop(
            "mc-validate-cv.exit", "mc-validate-cv.stdout", "mc-validate-cv.stderr", CSV_ARTIFACT))
        assert code == 1 and len(differences(lines)) == 4
        shutil.rmtree(tmp_path / "new")
        code, lines = self.check(tmp_path, capsys,
                                 lambda run: run.update({"vecrank/extra.txt": ""}))
        assert differences(lines) == [f"DIFFERS: vecrank/extra.txt: only in {tmp_path / 'new'}"]

    def test_json_is_read_from_json_artifacts_and_stdout(self):
        assert compare_runs.parse("pipeline-json.stdout", b'{"a": 1.5}\n') == {"a": 1.5}
        assert compare_runs.parse("x/y.json", b"[1, null]") == [1, None]
        for name, data in (("pipeline-table.stdout", b"table\n"), ("x.stderr", b"{}"),
                           ("x/y.txt", b"{}"), ("x.exit", b"0\n"), ("x/y.json", b"{")):
            assert compare_runs.parse(name, data) == data.splitlines(keepends=True)

    def test_refuses_a_missing_tree(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            compare_runs.main([str(tmp_path), str(tmp_path / "absent")])
        assert exit_info.value.code == 2
        assert "is not a directory" in capsys.readouterr().err


def mutate_json(name, edit):
    def mutate(root):
        doc = json.loads((root / name).read_text(encoding="utf-8"))
        edit(doc)
        (root / name).write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return mutate


RECOVERY_CSV = "mc-validate-recovery/mcvalidate_recovery_reps.csv"


def largest_trace(root):
    lines = (root / RECOVERY_CSV).read_text(encoding="utf-8").splitlines()[1:]
    return max(abs(float(line.split(",")[3])) for line in lines)


def move_trace(relative):
    """Move the first trace_r0 cell by ``relative`` of the column's largest entry."""
    def mutate(root):
        step = relative * largest_trace(root)
        edit_csv(root / RECOVERY_CSV, 0, "trace_r0", lambda cell: repr(float(cell) + step))
    return mutate


class TestCompareRunsOnCliOutputs:
    """Mutated copies of real --keep outputs: each change but a float inside
    the bound fails, naming its path. A digest line shows only a JSON or CSV
    artifact's sha256, which cannot tell these changes from rounding."""

    def test_runs_of_one_checkout_agree(self, kept_runs, tmp_path, capsys):
        _, _, keep = kept_runs
        code, lines = compare(capsys, keep, shutil.copytree(keep, tmp_path / "copy"))
        assert code == 0 and differences(lines) == []
        assert table(lines) and all(relative == 0.0 for relative, _ in table(lines).values())

    def test_json_stdout_comes_from_the_command(self, kept_runs):
        _, _, keep = kept_runs
        json_stdout = {path.name for path in keep.glob("*.stdout")
                       if compare_runs.parse(path.name, path.read_bytes())
                       != path.read_bytes().splitlines(keepends=True)}
        assert json_stdout == {"pipeline-json.stdout"}

    @pytest.mark.parametrize("mutate, line", [
        (mutate_json("vecm-rank1/vecm_DEMO.json",
                     lambda doc: doc["stability"].update(stable=not doc["stability"]["stable"])),
         "DIFFERS: vecm-rank1/vecm_DEMO.json:$.stability.stable: "),
        (mutate_json("specsearch-flat/specsearch_DEMO.json",
                     lambda doc: doc["rejected"][0].update(reason="ValidationError: other")),
         "DIFFERS: specsearch-flat/specsearch_DEMO.json:$.rejected[0].reason: "),
        (lambda root: edit_csv(root / RECOVERY_CSV, 0, "selected_rank",
                               lambda cell: str(int(cell) + 1)),
         f"DIFFERS: {RECOVERY_CSV}:$[0].selected_rank: "),
        (move_trace(1e-8), f"FLOAT PAST BOUND: {RECOVERY_CSV}:$[].trace_r0"),
        (lambda root: (root / "vecm-rank1" / "vecm_DEMO.txt").unlink(),
         "DIFFERS: vecm-rank1/vecm_DEMO.txt: only in "),
        (lambda root: (root / "mc-validate-recovery.exit").write_text("1\n", encoding="utf-8"),
         "DIFFERS: mc-validate-recovery.exit:$[0]: b'0\\n' against b'1\\n'"),
    ], ids=["stable", "reason", "selected-rank", "past-bound", "missing-artifact", "exit-code"])
    def test_a_mutated_copy_fails(self, kept_runs, tmp_path, capsys, mutate, line):
        _, _, keep = kept_runs
        copy = shutil.copytree(keep, tmp_path / "copy")
        mutate(copy)
        code, lines = compare(capsys, keep, copy)
        assert code == 1
        (found,) = differences(lines)
        assert found.startswith(line)

    def test_a_float_inside_the_bound_passes(self, kept_runs, tmp_path, capsys):
        _, _, keep = kept_runs
        copy = shutil.copytree(keep, tmp_path / "copy")
        move_trace(1e-12)(copy)
        code, lines = compare(capsys, keep, copy)
        assert code == 0 and differences(lines) == []
        relative, counts = table(lines)[f"{RECOVERY_CSV}:$[].trace_r0"]
        assert 0.0 < relative < compare_runs.BOUND and counts.startswith("1/")


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
            calls.append((root.name, seed))
            value = 2.0 if root.name == "change" else 3.0
            metrics = {name: {"value": value, "unit": "x"}
                       for name in ("latency_p50_ms", "latency_tail_ms", "throughput_per_s",
                                    "setup_s", "peak_rss_mb")}
            return {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}

        extracted = []
        monkeypatch.setattr(bench_pairs, "working_tree", lambda root: "TREE")
        monkeypatch.setattr(bench_pairs, "extract",
                            lambda rev, root, into: extracted.append((rev, into)))
        monkeypatch.setattr(bench_pairs, "run_side", run_side)
        out = tmp_path / "BENCH_7.json"
        out.write_text(json.dumps({"workloads": {"mc_cv": {"summary": {}, "runs": []}}}))
        assert bench_pairs.main(["--parent", "HEAD~1", "--pr", "7", "--workload", "spec_search",
                                 "--pairs", "3", "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        # both sides run from extracted trees, in sibling directories
        (parent_rev, parent), (change_rev, change) = extracted
        assert (parent_rev, change_rev) == ("HEAD~1", "TREE")
        assert (parent.name, change.name) == ("parent", "change")
        assert parent.parent == change.parent != bench_pairs.ROOT
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

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_working_tree_is_extracted_as_git_add_stages_it(self, tmp_path):
        import subprocess

        repo = tmp_path / "repo"
        (repo / "pkg" / "__pycache__").mkdir(parents=True)
        subprocess.run(["git", "init", "-q", str(repo)], check=True)
        files = {".gitignore": "__pycache__/\n.perfbench/\n", "pkg/tracked.py": "a = 1\n"}
        for name, text in files.items():
            (repo / name).write_text(text, encoding="utf-8")
        subprocess.run(["git", "-C", str(repo), "add", "-A"], check=True)
        # after staging: an edit, an untracked file and two ignored ones
        files["pkg/tracked.py"] = "a = 2\n"
        files["pkg/untracked.py"] = "b = 1\n"
        for name, text in {**files, "pkg/__pycache__/tracked.pyc": "x",
                           ".perfbench/run.json": "{}"}.items():
            (repo / name).parent.mkdir(parents=True, exist_ok=True)
            (repo / name).write_text(text, encoding="utf-8")
        index = (repo / ".git" / "index").read_bytes()
        bench_pairs.extract(bench_pairs.working_tree(repo), repo, tmp_path / "change")
        assert {path.relative_to(tmp_path / "change").as_posix(): path.read_text()
                for path in (tmp_path / "change").rglob("*") if path.is_file()} == files
        assert (repo / ".git" / "index").read_bytes() == index
