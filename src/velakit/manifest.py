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
from math import isfinite
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ValidationError, read_input


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
    """UTC time now, or at SOURCE_DATE_EPOCH when it is set: a non-negative
    decimal integer in time.gmtime's range, else a ValidationError."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        if epoch is not None and not (epoch.isascii() and epoch.isdigit()):
            raise ValueError
        t = time.gmtime(None if epoch is None else int(epoch))
    except (ValueError, OverflowError, OSError):
        raise ValidationError("SOURCE_DATE_EPOCH must be a non-negative decimal integer "
                              f"in the platform's time range, got {epoch!r}") from None
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", t)


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
    """The plain-data image of obj that `dump_json` writes.

    numpy arrays become nested row-major lists, NaN/inf become None, numpy
    scalars their Python values, dataclasses dicts keyed by field name, dict
    keys strings, tuples lists, sets sorted lists and paths strings; anything
    else is a TypeError.
    """
    return _plain(obj)


def dump_json(payload) -> str:
    """Indent-2 JSON text of payload's plain-data image, and a newline."""
    return json.dumps(jsonable(payload), indent=2) + "\n"


def _plain(obj):
    # recursion stays on this private name, so a wrapper around the public
    # jsonable sees one call per payload
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    # numpy scalars by float/int/bool, not .item(): a longdouble's item()
    # is a longdouble again
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return obj if isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return _plain_array(obj)
    if hasattr(type(obj), "__dataclass_fields__"):  # an instance, not a dataclass type
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        # keys that coincide as strings keep the first position and last value
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return [_plain(v) for v in sorted(obj)]
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _plain_array(a: np.ndarray) -> list:
    if a.ndim == 0:
        raise TypeError("cannot serialize a 0-d ndarray")
    # tolist() gives Python bools, ints and floats for these dtypes; a
    # longdouble, object or string array's entries go through _plain
    if a.dtype.kind not in "fiub" or a.dtype.itemsize > 8:
        return [_plain(v) for v in a.tolist()]
    if a.dtype.kind == "f":
        bad = ~np.isfinite(a)
        if bad.any():
            a = a.astype(object)  # Python floats
            a[bad] = None
    return a.tolist()
