"""Digests of the velakit CLI's outputs, one line per command.

Every subcommand runs: the panel commands on the demo panel (adf also with
a trend, specsearch also at lags {1, 8}, where some sizes are short of
sample at k=8, pipeline also with no admissible spec, vecrank also at lag
1 under uconst and at lag 6, short of sample, vecm also at rank 2 under both
cases), mission on the bundled sample config (as is and with a one-year
horizon), and both mc-validate studies at small sizes with their
per-replication CSVs (the cv study also at 2100 replications, past one
stack, and the recovery study also at 300 under uconst, past one stack).
Three rows run on a flat copy of the demo panel, written once per run into
a temporary directory, whose researchers_per_million holds its first value
throughout: vecrank-flat-k1 (the Cholesky route names the degenerate
system, exit 3), vecrank-flat-uconst-k1 (the short-run regression's route,
exit 3) and specsearch-flat (the degenerate specifications rejected beside
the admissible ones).

Each command runs in a fresh interpreter, from the checkout's root, with
SOURCE_DATE_EPOCH pinned, and writes its artifacts to a directory of its
own. The line gives the exit code and the sha256 of stdout, stderr and each
artifact. Two runs of one checkout must print the same lines (the rerun
contract); a change that claims bit-identical outputs must print the lines
of its parent commit.

    python3 tools/cli_digests.py                  # this checkout
    python3 tools/cli_digests.py --root ../other  # another checkout
    python3 tools/cli_digests.py --keep out/new   # and keep the outputs

With --keep DIR (empty or absent) each command's artifacts stay under
DIR/<name>/, and its exit code, stdout and stderr in DIR/<name>.exit,
.stdout and .stderr; the lines printed are the same. tools/compare_runs.py
compares two such trees, run under two BLAS kernels or from a change and
its parent: it fails when an exit code, stderr, a text artifact or a text
stdout differs in a byte, when a JSON or CSV output differs in anything but
a float, or when a float field moves past its bound.

Standard library only; velakit is imported from the checkout's src/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PANEL = ["--input", "sample_data/demo_panel.csv", "--agency", "DEMO"]
# stands for the path of the flat panel (write_flat_panel) in a command's argv
FLAT_PANEL = "<flat demo panel>"
FLAT = ["--input", FLAT_PANEL, "--agency", "DEMO"]
COMMANDS = {
    "ingest": ["ingest", *PANEL],
    "adf": ["adf", *PANEL],
    "adf-trend": ["adf", *PANEL, "--trend"],
    "lagselect": ["lagselect", *PANEL],
    "specsearch": ["specsearch", *PANEL],
    "specsearch-k123": ["specsearch", *PANEL, "--min-size", "2", "--k-candidates", "1", "2", "3"],
    "specsearch-k123-uconst": ["specsearch", *PANEL, "--min-size", "2",
                               "--k-candidates", "1", "2", "3", "--case", "uconst"],
    # at k=8 sizes 5 and 6 are short of sample; size 3 fits at both lags
    "specsearch-k18": ["specsearch", *PANEL, "--min-size", "2", "--k-candidates", "1", "8"],
    "pipeline-table": ["pipeline", *PANEL, "--format", "table"],
    "pipeline-json": ["pipeline", *PANEL, "--format", "json"],
    # no admissible spec: exit 4, with the failure artifact
    "pipeline-no-spec": ["pipeline", *PANEL, "--k-candidates", "30"],
    "vecrank": ["vecrank", *PANEL],
    "vecrank-uconst-k1": ["vecrank", *PANEL, "--lags", "1", "--case", "uconst"],
    # T_eff=42 is one short of 30 short-run regressors, 6 difference columns
    # and 7 level terms: insufficient sample, exit 2
    "vecrank-k6": ["vecrank", *PANEL, "--lags", "6"],
    # a constant level: exit 3 with the failing pivot's index
    "vecrank-flat-k1": ["vecrank", *FLAT, "--lags", "1"],
    "vecrank-flat-uconst-k1": ["vecrank", *FLAT, "--lags", "1", "--case", "uconst"],
    "specsearch-flat": ["specsearch", *FLAT],
    "vecm-rank1": ["vecm", *PANEL, "--rank", "1"],
    # normalization of a two-column beta, and its constant row mapped to [z, 1]
    "vecm-rank2-rconst": ["vecm", *PANEL, "--rank", "2"],
    # a rank-2 model has no single cointegrating equation
    "vecm-rank2-uconst": ["vecm", *PANEL, "--rank", "2", "--case", "uconst"],
    "mission": ["mission"],
    "mission-horizon1": ["mission", "--horizon-years", "1"],
    "mc-validate-cv": ["mc-validate", "--study", "cv", "--reps", "1000", "--dump-reps"],
    # two moment stacks and a ragged last draw block
    "mc-validate-cv-2100": ["mc-validate", "--study", "cv", "--p-minus-r", "2", "--case", "uconst",
                            "--reps", "2100", "--dump-reps"],
    "mc-validate-recovery": ["mc-validate", "--study", "recovery", "--reps", "100",
                             "--T", "120", "--dump-reps"],
    # a full stack and a ragged second one, under uconst
    "mc-validate-recovery-300": ["mc-validate", "--study", "recovery", "--reps", "300",
                                 "--T", "120", "--case", "uconst", "--dump-reps"],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_flat_panel(root: Path, into: Path) -> Path:
    """A copy of ``root``'s demo panel, written under ``into``, whose
    researchers_per_million holds its first value in every row."""
    with open(root / "sample_data" / "demo_panel.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["researchers_per_million"] = rows[0]["researchers_per_million"]
    path = into / "demo_panel_flat.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return path


def digest_line(root: Path, name: str, argv: list[str], keep: Path | None = None) -> str:
    """The command's line; its artifacts go to ``keep / name`` when given."""
    env = {**os.environ, "SOURCE_DATE_EPOCH": "1700000000", "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory() as scratch:
        out_dir = Path(scratch) if keep is None else keep / name
        out_dir.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "velakit.cli", *argv, "--out-dir",
                               str(out_dir)], cwd=root, env=env, capture_output=True, check=False)
        artifacts = sorted(Path(out_dir).rglob("*"))
        fields = [f"exit={proc.returncode}", f"stdout={sha256(proc.stdout)}",
                  f"stderr={sha256(proc.stderr)}"]
        fields += [f"{path.relative_to(out_dir)}={sha256(path.read_bytes())}"
                   for path in artifacts if path.is_file()]
    if keep is not None:
        for part, data in (("exit", f"{proc.returncode}\n".encode()), ("stdout", proc.stdout),
                           ("stderr", proc.stderr)):
            (keep / f"{name}.{part}").write_bytes(data)
    return f"{name} " + " ".join(fields)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="root of the velakit checkout to run (default: this one)")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="keep each command's artifacts under DIR/<name>/, and its exit "
                             "code, stdout and stderr beside them; DIR must be empty or absent")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "velakit" / "cli.py").is_file():
        parser.error(f"{root} is not a velakit checkout")
    keep = None if args.keep is None else args.keep.resolve()
    if keep is not None and keep.exists() and (not keep.is_dir() or any(keep.iterdir())):
        parser.error(f"--keep {args.keep}: not an empty directory")
    with tempfile.TemporaryDirectory(prefix="cli_digests_") as scratch:
        flat = str(write_flat_panel(root, Path(scratch)))
        for name, command in COMMANDS.items():
            argv = [flat if arg == FLAT_PANEL else arg for arg in command]
            print(digest_line(root, name, argv, keep), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
