"""Largest float change, per field, between two JSON artifacts of one shape.

The two documents must agree exactly in everything but their floats: the
same keys in the same order, the same strings, ints, booleans and nulls,
and lists of the same lengths. A field is a key path with the list indices
dropped (``specs[].model.alpha[][]``), so all entries of one matrix, or of
one key across a list of records, form one field. For each field holding
floats the tool prints the largest |new - old| relative to the field's
largest |old| entry and the number of floats that differ, the fields that
moved most first.

    python3 tools/json_float_diff.py old.json new.json

Exits 0 when the documents agree in shape, 1 (naming the first path where
they differ) when they do not. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys


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


def compare(old, new) -> dict[str, tuple[float, int, int]]:
    """Per float field: (largest change relative to the field's largest
    |old| entry, floats that differ, floats); raises ShapeMismatch."""
    fields: dict[str, list] = {}
    walk(old, new, "$", "$", fields)
    return {name: (change / scale if scale else change, differing, count)
            for name, (scale, change, differing, count) in fields.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.old, encoding="utf-8") as f:
        old = json.load(f)
    with open(args.new, encoding="utf-8") as f:
        new = json.load(f)
    try:
        fields = compare(old, new)
    except ShapeMismatch as exc:
        print(f"shapes differ at {exc}", file=sys.stderr)
        return 1
    print("relative_change\tdiffering/floats\tfield")
    for name, (relative, differing, count) in sorted(fields.items(), key=lambda f: -f[1][0]):
        print(f"{relative:.3g}\t{differing}/{count}\t{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
