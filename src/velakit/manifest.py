"""Run manifests and deterministic JSON serialization.

Every artifact embeds a manifest (command, config digest, input digests,
seeds, version, timestamp). Apart from the timestamp the manifest pins the
result; setting SOURCE_DATE_EPOCH pins the timestamp too, making repeated
runs byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, fields
from functools import lru_cache
from math import isfinite
from pathlib import Path

import numpy as np

from . import __version__
from .errors import read_input


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_digest: str | None
    input_digests: dict[str, str]
    seeds: tuple[int, ...]
    toolkit_version: str
    timestamp: str


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(read_input(Path(path))).hexdigest()


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch is not None else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def make_manifest(command: str, config_digest: str | None = None,
                  input_paths: dict[str, str | Path] | None = None,
                  seeds: tuple[int, ...] = ()) -> RunManifest:
    digests = {
        name: file_digest(path) for name, path in sorted((input_paths or {}).items())
    }
    return RunManifest(
        command=command,
        config_digest=config_digest,
        input_digests=digests,
        seeds=tuple(int(s) for s in seeds),
        toolkit_version=__version__,
        timestamp=_timestamp(),
    )


def jsonable(obj):
    """The JSON value `dump_json` writes for obj, as plain Python data.

    numpy arrays become nested row-major lists, NaN/inf become None, and
    dataclasses serialize by field name.
    """
    return json.loads(dump_json(obj))


def dump_json(payload) -> str:
    """Indent-2 JSON text of payload, written in one walk over it.

    The text is ``json.dumps(value, indent=2)`` and a newline, where value
    is the plain-data image of payload: numpy arrays become nested row-major
    lists, NaN/inf become null, numpy scalars their Python values,
    dataclasses objects keyed by field name, dict keys strings, tuples
    lists, sets sorted lists and paths strings; anything else is a
    TypeError.
    """
    out: list[str] = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__
_BOOL = {True: "true", False: "false"}


def _float(value) -> str:
    return _float_repr(value) if isfinite(value) else "null"


def _write(obj, indent: str, out: list[str]) -> None:
    """Append obj's JSON text to out; indent is the newline and indentation
    of the line obj starts on, which its closing bracket goes back to."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, int):  # bool included
        out.append(_BOOL[obj] if isinstance(obj, bool) else _int_repr(obj))
    elif isinstance(obj, float):
        out.append(_float(obj))
    elif isinstance(obj, np.generic):
        if isinstance(obj, np.bool_):
            out.append(_BOOL[bool(obj)])
        elif isinstance(obj, np.integer):
            out.append(_int_repr(int(obj)))
        elif isinstance(obj, np.floating):
            out.append(_float(float(obj)))
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
    elif isinstance(obj, np.ndarray):
        _write_array(obj, indent, out)
    elif hasattr(type(obj), "__dataclass_fields__"):  # an instance, not a dataclass type
        _write_object([(f.name, getattr(obj, f.name)) for f in fields(obj)], indent, out)
    elif isinstance(obj, dict):
        items = obj.items()
        if any(type(k) is not str for k in obj):
            # keys that coincide as strings keep the first position and last value
            items = {str(k): v for k, v in items}.items()
        _write_object(items, indent, out)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, indent, out)
    elif isinstance(obj, (set, frozenset)):
        _write_list(sorted(obj), indent, out)
    elif isinstance(obj, Path):
        out.append(_encode_str(str(obj)))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_object(items, indent: str, out: list[str]) -> None:
    inner = indent + "  "
    sep = "{" + inner
    for key, value in items:
        out.append(sep + _encode_str(key) + ": ")
        _write(value, inner, out)
        sep = "," + inner
    out.append("{}" if sep[0] == "{" else indent + "}")


def _write_list(seq, indent: str, out: list[str]) -> None:
    inner = indent + "  "
    sep = "[" + inner
    for value in seq:
        out.append(sep)
        _write(value, inner, out)
        sep = "," + inner
    out.append("[]" if sep[0] == "[" else indent + "]")


def _write_array(a: np.ndarray, indent: str, out: list[str]) -> None:
    if a.ndim == 0:
        raise TypeError("cannot serialize a 0-d ndarray")
    kind = a.dtype.kind
    # tolist() gives exact Python floats and ints here, whose str() is
    # their repr; a longdouble array's tolist() gives numpy scalars instead
    if kind in "fiub" and a.dtype.itemsize <= 8:
        flat = a.ravel().tolist()
        if kind == "b":
            flat = [_BOOL[v] for v in flat]
        elif kind == "f" and not np.isfinite(a).all():
            flat = [_float_repr(v) if isfinite(v) else "null" for v in flat]
        out.append(_array_template(a.shape, indent) % tuple(flat))
    else:
        _write_list(a.tolist(), indent, out)


@lru_cache(maxsize=256)
def _array_template(shape: tuple[int, ...], indent: str) -> str:
    """The array's text with a %s for each entry, in row-major order."""
    if shape[0] == 0:
        return "[]"
    inner = indent + "  "
    item = _array_template(shape[1:], inner) if len(shape) > 1 else "%s"
    return "[" + inner + ("," + inner).join([item] * shape[0]) + indent + "]"
