"""Check that two runs of tools/cli_digests.py --keep differ in nothing but floats.

Two runs of one checkout under different BLAS kernels (OPENBLAS_CORETYPE
picks another OpenBLAS kernel for one process, as another host would), or
a change and its parent run from one checkout with --root, may round
differently. Each --keep tree holds, per command, its exit code, stdout and
stderr (``<name>.exit``, ``<name>.stdout``, ``<name>.stderr``) and its
artifacts (``<name>/``). The two trees must hold the same files, and:

- JSON artifacts, and a stdout that is JSON in both runs, must agree in
  everything but their floats: the same keys in the same order, the same
  strings, ints, booleans and nulls, and lists of the same lengths;
- CSV artifacts must agree cell by cell under the same rule: a cell that
  parses as an int is an int, one that parses only as a finite float is a
  float, and any other cell is a string;
- every other file (exit codes, stderr, text artifacts, text stdout) must
  be byte-equal.

A float field is a file's JSON key path with the list indices dropped
(``vecm-rank1/vecm_DEMO.json:$.model.alpha[][]``), so all entries of one
matrix, or of one key across a list of records, form one field; a CSV
column is a field (``...reps.csv:$[].trace_r0``). For each field the tool
prints the largest |new - old| relative to the field's largest |old| entry
and the number of floats that differ, the fields that moved most first.

    OPENBLAS_CORETYPE=Haswell python3 tools/cli_digests.py --keep haswell > /dev/null
    OPENBLAS_CORETYPE=Prescott python3 tools/cli_digests.py --keep prescott > /dev/null
    python3 tools/compare_runs.py haswell prescott

Exits 1, naming the first differing path of each file (a key path, or the
index of a text line), when anything but a float differs or a field's
relative change passes BOUND, else 0. Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

# about 660x the largest change measured between the Haswell, Prescott,
# SkylakeX and Sandybridge kernels (1.51e-13, specsearch-k123-uconst's
# criteria.chi2, Prescott against SkylakeX), and 76x the 1.32e-12 once
# recorded for a cv study's bootstrap SE
BOUND = 1e-10


class ShapeMismatch(Exception):
    pass


def walk(old, new, path: str, field: str, fields: dict) -> None:
    """Compare old and new below ``path``; collect (scale, change, differing,
    count) per field of float entries in ``fields``."""
    if type(old) is not type(new):
        raise ShapeMismatch(f"{path}: {type(old).__name__} against {type(new).__name__}")
    if isinstance(old, float):
        stats = fields.setdefault(field, [0.0, 0.0, 0, 0])
        stats[0] = max(stats[0], abs(old))
        stats[1] = max(stats[1], abs(new - old))
        stats[2] += old != new
        stats[3] += 1
    elif isinstance(old, dict):
        if list(old) != list(new):
            raise ShapeMismatch(f"{path}: keys {list(old)} against {list(new)}")
        for key in old:
            walk(old[key], new[key], f"{path}.{key}", f"{field}.{key}", fields)
    elif isinstance(old, list):
        if len(old) != len(new):
            raise ShapeMismatch(f"{path}: {len(old)} entries against {len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            walk(a, b, f"{path}[{i}]", f"{field}[]", fields)
    elif old != new:
        raise ShapeMismatch(f"{path}: {old!r} against {new!r}")


def cell(text):
    """A CSV cell as an int, else as a finite float, else as it is; a
    missing cell (None) or a row's extra cells (a list) stay as they are."""
    for kind in (int, float):
        try:
            value = kind(text)
        except (TypeError, ValueError):
            continue
        return value if math.isfinite(value) else text
    return text


def parse(name: str, data: bytes):
    """A CSV as its rows ({column: cell}), JSON as its document, and any
    other file, or JSON that does not parse, as its lines of bytes, line
    ends kept, which agree exactly when the bytes do."""
    if name.endswith(".csv"):
        rows = csv.DictReader(io.StringIO(data.decode("utf-8"), newline=""))
        return [{column: cell(text) for column, text in row.items()} for row in rows]
    if name.endswith((".json", ".stdout")):
        try:
            return json.loads(data)
        except ValueError:
            pass
    return data.splitlines(keepends=True)


def compare(old_root: Path, new_root: Path) -> tuple[dict[str, tuple[float, int, int]], list[str]]:
    """Per float field: (largest change relative to the field's largest
    |old| entry, floats that differ, floats); and one line per file that
    differs in anything but its floats."""
    old_files, new_files = ({path.relative_to(root).as_posix() for path in root.rglob("*")
                             if path.is_file()} for root in (old_root, new_root))
    differences = [f"{name}: only in {root}" for names, others, root in
                   ((old_files, new_files, old_root), (new_files, old_files, new_root))
                   for name in sorted(names - others)]
    fields: dict[str, list] = {}
    for name in sorted(old_files & new_files):
        old, new = (parse(name, (root / name).read_bytes()) for root in (old_root, new_root))
        try:
            walk(old, new, f"{name}:$", f"{name}:$", fields)
        except ShapeMismatch as exc:
            differences.append(str(exc))
    return ({name: (change / scale if scale else change, differing, count)
             for name, (scale, change, differing, count) in fields.items()}, differences)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the --keep tree of one run")
    parser.add_argument("new", type=Path, help="the --keep tree of the other run")
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    fields, differences = compare(args.old, args.new)
    print("relative_change\tdiffering/floats\tfield")
    for name, (relative, differing, count) in sorted(fields.items(), key=lambda f: -f[1][0]):
        print(f"{relative:.3g}\t{differing}/{count}\t{name}")
    past = [name for name, (relative, _, _) in fields.items() if relative > BOUND]
    for name in past:
        print(f"FLOAT PAST BOUND: {name}")
    for line in differences:
        print(f"DIFFERS: {line}")
    print(f"{len(fields)} float fields, {len(past)} past the bound {BOUND:g}; "
          f"{len(differences)} files differ in more than floats")
    return 1 if past or differences else 0


if __name__ == "__main__":
    sys.exit(main())
