"""Check that two runs of tools/cli_digests.py agree in everything but floats.

Two runs of one checkout under different BLAS kernels (OPENBLAS_CORETYPE
picks another OpenBLAS kernel for one process, as another host would) may
round differently, so the JSON and CSV artifacts may differ, and so may
stdout where a command prints JSON (``--format json``). Nothing else may:
the rows and their order, each row's fields, its exit code, stderr, the
text artifacts and every other stdout.

    OPENBLAS_CORETYPE=Haswell python3 tools/cli_digests.py > haswell.txt
    OPENBLAS_CORETYPE=Prescott python3 tools/cli_digests.py > prescott.txt
    python3 tools/digest_text_check.py haswell.txt prescott.txt

Prints one line per differing field, float fields first (for information),
then text fields. Exits 1 when a text field differs, else 0. Standard
library only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from cli_digests import COMMANDS  # noqa: E402

FLOAT_ARTIFACTS = (".json", ".csv")


def parse(text: str) -> dict[str, dict[str, str]]:
    """{row name: {field: value}}, in the order cli_digests printed them."""
    rows = {}
    for line in text.splitlines():
        name, *fields = line.split()
        rows[name] = dict(field.split("=", 1) for field in fields)
    return rows


def carries_floats(name: str, field: str) -> bool:
    """Whether the field of row ``name`` holds floats a kernel may round."""
    if field == "stdout":
        argv = COMMANDS.get(name, [])
        return any(a == "--format" and b == "json" for a, b in zip(argv, argv[1:]))
    return field.endswith(FLOAT_ARTIFACTS)


def compare(old: dict, new: dict) -> tuple[list[str], list[str]]:
    """(float fields that differ, text differences), one line each."""
    floats, text = [], []
    if list(old) != list(new):
        return floats, [f"rows {list(old)} against {list(new)}"]
    for name, fields in old.items():
        if list(fields) != list(new[name]):
            text.append(f"{name}: fields {list(fields)} against {list(new[name])}")
            continue
        for field, value in fields.items():
            if value != new[name][field]:
                (floats if carries_floats(name, field) else text).append(f"{name} {field}")
    return floats, text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="cli_digests output of one run")
    parser.add_argument("new", type=Path, help="cli_digests output of the other run")
    args = parser.parse_args(argv)
    floats, text = compare(*(parse(path.read_text(encoding="utf-8"))
                             for path in (args.old, args.new)))
    for line in floats:
        print(f"floats differ: {line}")
    for line in text:
        print(f"TEXT DIFFERS: {line}")
    print(f"{len(floats)} float fields and {len(text)} text fields differ")
    return 1 if text else 0


if __name__ == "__main__":
    sys.exit(main())
