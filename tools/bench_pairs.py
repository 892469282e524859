"""Paired benchmark runs of a parent commit and this checkout, as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --pr N --pairs 5 --seconds 4
    python3 tools/bench_pairs.py --parent HEAD~1 --pr N --workload spec_search --pairs 8

Both sides run from trees extracted the same way, with `git archive`, into
sibling temporary directories: the parent revision, and the working tree
as `git add -A` would stage it (tracked and untracked files, less what
.gitignore names, so no .perfbench/ and no __pycache__). Run from the
checkout itself, an A/A run had read one side of `mc_recovery` 2.3% slower
than the other in 8 of 10 pairs. For each workload and pair, both trees
run their own perfbench/run.py (--trace 0, end-to-end metrics) from their
own root, one after the other on the pair's seed (--seed, then one more
per pair), and which side runs first alternates from pair to pair, so a
drift of the host's speed falls on both sides alike.

Per workload and end-to-end metric of BENCHMARK.json the summary gives
both sides' median and inclusive quartiles over the pairs, the relative
change of the medians, and the pairs the change wins (strictly better than
its own pair's parent run). Each pair's record keeps both sides' metrics,
setup_s included, and their `correct` and `failed`. The record claims no
gain; the summary reports, it does not judge. Workloads already in an
existing output file are kept unless this run measures them again.

Medians compare only between the two sides of one BENCH_<pr>.json. Each
run scales its timings by the host's speed at that moment, and that
calibration differs between sessions: `mc_cv`'s parent p50 reads 130.0 ms
in BENCH_20.json and 143.4 ms in BENCH_30.json, yet the in-process call
timed the same at both commits. A trajectory across files is not a
measurement.

Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUMPY_VERSION = "import numpy; print(numpy.__version__)"
COMMAND = "python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds {seconds:g} --trace 0"


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric in ``better`` (name -> "lower" or "higher"): medians and
    inclusive quartiles of both sides, the relative change of the medians,
    and the number of pairs in which the change is strictly better."""
    def quartiles(values):
        if len(values) < 2:
            return values[0], values[0]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return q1, q3

    summary = {}
    for name, direction in better.items():
        parent = [run["parent"][name] for run in runs]
        change = [run["change"][name] for run in runs]
        sign = 1.0 if direction == "lower" else -1.0
        entry = {"better": direction}
        for side, values in (("parent", parent), ("change", change)):
            entry[f"{side}_median"] = statistics.median(values)
            entry[f"{side}_q1"], entry[f"{side}_q3"] = quartiles(values)
        entry["relative_change"] = entry["change_median"] / entry["parent_median"] - 1.0
        entry["change_wins"] = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        entry["pairs"] = len(runs)
        summary[name] = entry
    return summary


def working_tree(root: Path) -> str:
    """A git tree of ``root``'s working tree as `git add -A` stages it, built
    in a temporary index, so the repository's own index stays as it is."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git = ["git", "-C", str(root)]
        subprocess.run([*git, "add", "-A"], env=env, capture_output=True, check=True)
        return subprocess.run([*git, "write-tree"], env=env, text=True, capture_output=True,
                              check=True).stdout.strip()


def extract(rev: str, root: Path, into: Path) -> None:
    """The tree of ``rev`` in ``root``'s repository, written under ``into``."""
    tar = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of ``root``'s perfbench/run.py: the JSON of its last line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_pairs(parent: Path, change: Path, workload: str, pairs: int, seed: int,
                  seconds: float) -> list[dict]:
    """Alternating runs of both checkouts, one pair per seed."""
    runs = []
    for i in range(pairs):
        sides = [("parent", parent), ("change", change)]
        results = {}
        for side, root in sides if i % 2 == 0 else sides[::-1]:
            results[side] = run_side(root, workload, seed + i, seconds)
            print(f"{workload} seed {seed + i} {side}: "
                  f"p50 {results[side]['metrics']['latency_p50_ms']['value']:.2f} ms",
                  file=sys.stderr)
        runs.append({
            "seed": seed + i,
            **{side: {k: m["value"] for k, m in results[side]["metrics"].items()}
               for side in ("parent", "change")},
            "correct": [results["parent"]["correct"], results["change"]["correct"]],
            "failed": [results["parent"]["failed"], results["change"]["failed"]],
        })
    return runs


def parse_args(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", choices=names,
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the root")
    args = parser.parse_args(argv)
    args.workloads = args.workload or names
    args.better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {"workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent, change = Path(tmp) / "parent", Path(tmp) / "change"
        extract(args.parent, ROOT, parent)
        extract(working_tree(ROOT), ROOT, change)
        for workload in args.workloads:
            runs = measure_pairs(parent, change, workload, args.pairs, args.seed, args.seconds)
            doc["workloads"][workload] = {"summary": summarize(runs, args.better), "runs": runs}
    doc.update({
        "pr": args.pr,
        "claim": "no gain is claimed",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": subprocess.run([sys.executable, "-c", NUMPY_VERSION], text=True,
                                            capture_output=True).stdout.strip()},
        "command": COMMAND.format(seconds=args.seconds),
        "method": (f"git archives of {args.parent} and of the working tree, extracted into "
                   "sibling temporary directories (tools/bench_pairs.py), run one after the "
                   "other per seed, alternating which runs first; medians and inclusive "
                   "quartiles over the pairs; a win is a strictly better value than the same "
                   "seed's parent run"),
    })
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for workload, entry in doc["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload:13s} {name:17s} {s['parent_median']:12.4f} -> "
                  f"{s['change_median']:12.4f} ({s['relative_change']:+.2%}) "
                  f"wins {s['change_wins']}/{s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
