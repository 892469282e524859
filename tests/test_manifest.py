import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from velakit.manifest import RunManifest, dump_json, file_digest, jsonable, make_manifest


def reference_jsonable(obj):
    """The serializer's earlier two-pass definition: coerce to plain data,
    then let the standard json encoder write it."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, np.ndarray):
        return [reference_jsonable(row) for row in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: reference_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [reference_jsonable(v) for v in seq]
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dump(obj) -> str:
    return json.dumps(reference_jsonable(obj), indent=2) + "\n"


def assert_matches_reference(obj):
    text = dump_json(obj)
    assert text == reference_dump(obj)
    assert jsonable(obj) == reference_jsonable(obj)
    return text


@dataclasses.dataclass(frozen=True)
class Inner:
    values: np.ndarray
    label: str = "in"


@dataclasses.dataclass
class Outer:
    inner: Inner
    pair: tuple
    table: dict
    tags: frozenset = frozenset()
    nothing: object = None


class TestJsonable:
    def test_numpy_scalars_and_arrays(self):
        out = jsonable({"a": np.float64(1.5), "b": np.int32(3), "c": np.arange(4).reshape(2, 2)})
        assert out == {"a": 1.5, "b": 3, "c": [[0, 1], [2, 3]]}

    def test_nan_and_inf_become_null(self):
        out = jsonable({"x": float("nan"), "y": np.inf, "z": np.array([1.0, np.nan])})
        assert out == {"x": None, "y": None, "z": [1.0, None]}

    def test_bool_preserved(self):
        assert jsonable({"f": np.bool_(True), "g": False}) == {"f": True, "g": False}

    def test_output_is_valid_strict_json(self):
        text = dump_json({"v": np.array([math.inf, 1.0])})
        assert json.loads(text) == {"v": [None, 1.0]}

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            jsonable(object())


class TestDumpJsonMatchesReference:
    """dump_json writes the bytes the json module writes for the coerced payload."""

    @pytest.mark.parametrize("value", [
        float("nan"), math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 1.7976931348623157e308,
        0.1, 1 / 3, -2.5e17, 12345678901234567890.0,
    ])
    def test_floats(self, value):
        assert_matches_reference({"x": value, "a": [value, value], "s": value})

    def test_non_finite_and_negative_zero_text(self):
        text = assert_matches_reference([float("nan"), math.inf, -math.inf, -0.0])
        assert text == "[\n  null,\n  null,\n  null,\n  -0.0\n]\n"

    @pytest.mark.parametrize("scalar", [
        np.float64(-0.0), np.float64(np.nan), np.float32(0.1), np.float32(np.inf),
        np.float16(1.5), np.int8(-7), np.int64(-2**63), np.uint64(2**64 - 1),
        np.bool_(False), np.bool_(True), np.longdouble(2.5), np.intc(4),
    ])
    def test_numpy_scalars(self, scalar):
        assert_matches_reference({"v": scalar, "l": [scalar]})

    def test_python_scalars(self):
        for value in (None, True, False, 0, -1, 2**80, "", "plain"):
            assert_matches_reference(value)
            assert_matches_reference([value])

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (2, 0, 2), (1,), (1, 1), (2, 3, 4)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.uint8, np.bool_])
    def test_array_shapes_and_dtypes(self, shape, dtype):
        a = (np.arange(math.prod(shape)).reshape(shape) % 3).astype(dtype)
        assert_matches_reference({"a": a, "nested": [a, (a,)]})

    def test_empty_arrays_text(self):
        text = assert_matches_reference({"e": np.empty((2, 0))})
        assert text == '{\n  "e": [\n    [],\n    []\n  ]\n}\n'

    @pytest.mark.parametrize("a", [np.array(1.5), np.array(3), np.array(True)])
    def test_zero_d_array_rejected(self, a):
        with pytest.raises(TypeError):
            reference_dump(a)
        with pytest.raises(TypeError):
            dump_json({"a": a})

    def test_arrays_mixing_nan_with_finite_values(self):
        a = np.array([[1.0, np.nan, -np.inf], [np.inf, -0.0, 2.5e-8]])
        assert_matches_reference({"m": a, "row": a[0], "col": a[:, 1], "cube": np.stack([a, a])})
        assert_matches_reference(np.array([np.nan], dtype=np.float32))
        # a longdouble array's tolist() gives numpy scalars, not floats
        assert_matches_reference(np.array([0.1, np.nan, 1 / 3], dtype=np.longdouble))

    def test_non_contiguous_and_fortran_arrays(self):
        a = np.arange(24, dtype=float).reshape(4, 6) / 7
        assert_matches_reference([a.T, a[::2, 1::3], np.asfortranarray(a), a[:, ::-1]])

    def test_int_and_bool_arrays(self):
        assert_matches_reference({
            "i": np.array([[-(2**62), 0], [7, 2**62]], dtype=np.int64),
            "u": np.array([2**64 - 1], dtype=np.uint64),
            "b": np.array([[True, False], [False, True]]),
        })

    def test_object_and_string_arrays(self):
        obj = np.array([1, "two", None, 2.5, np.nan, [1, 2]], dtype=object)
        assert_matches_reference({"o": obj, "s": np.array(["a", "χ²", ""])})

    def test_nested_dataclasses_inside_dicts_and_tuples(self):
        inner = Inner(values=np.array([[1.0, np.nan], [0.5, -0.0]]))
        outer = Outer(inner=inner, pair=(inner, Inner(np.arange(3), "b")),
                      table={"k": inner, 2: [inner], (1, 2): "tuple key"},
                      tags=frozenset({"z", "a"}))
        assert_matches_reference({"outer": outer, "in_tuple": (outer, (inner,)),
                                  "in_dict": {"deep": {"deeper": outer}}})

    def test_manifest_dataclass(self):
        m = RunManifest(command="demo", config_digest=None, input_digests={"panel": "ab"},
                        seeds=(1, 2), toolkit_version="0.1.0", timestamp="t")
        assert_matches_reference({"manifest": m})

    def test_sets_paths_and_keys(self):
        assert_matches_reference({
            "set": {3, 1, 2}, "fset": frozenset({"b", "a"}), "empty_set": set(),
            "path": Path("/data/x y/ü.csv"), "paths": [Path("a/b"), Path(".")],
            1: "int key", 2.5: "float key", False: "bool key", None: "none key",
        })

    def test_coinciding_keys_keep_first_position_last_value(self):
        assert_matches_reference({1: "a", "x": 0, "1": "b"})

    def test_non_ascii_strings(self):
        text = assert_matches_reference({
            "χ²": "— Model Specification χ² = 1.0",
            "emoji": "🚀 mars", "ctrl": 'tab\tnew\nline\x00"quote"\\',
            "ascii": "plain",
        })
        assert text.isascii()

    def test_empty_containers(self):
        text = assert_matches_reference({"d": {}, "l": [], "t": (), "nested": [{}, [], [[]]]})
        assert '"d": {}' in text and '"l": []' in text
        assert_matches_reference({})
        assert_matches_reference([])

    @pytest.mark.parametrize("bad", [object(), 1j, np.complex128(1j), np.array([1j]),
                                     Inner, b"bytes", np.datetime64("2020-01-01")])
    def test_unserializable_rejected(self, bad):
        with pytest.raises(TypeError):
            reference_dump({"v": bad})
        with pytest.raises(TypeError):
            dump_json({"v": bad})
        with pytest.raises(TypeError):
            jsonable([bad])

    def test_returns_text_and_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = {"a": np.array([1.0, np.nan]), "b": "χ"}
        assert dump_json(payload) == reference_dump(payload)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(TypeError):
            dump_json(payload, tmp_path / "out.json")


_float_arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32]),
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
)
_other_arrays = hnp.arrays(
    dtype=st.sampled_from([np.int64, np.int8, np.uint32, np.bool_]),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.floats(width=32).map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_), _float_arrays, _other_arrays,
    st.sets(st.integers(), max_size=4), st.frozensets(st.text(max_size=3), max_size=3),
)
_payloads = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
        st.builds(Inner, values=_float_arrays, label=st.text(max_size=4)),
        st.builds(Outer, inner=st.builds(Inner, values=_float_arrays), pair=st.tuples(children),
                  table=st.dictionaries(st.text(max_size=3), children, max_size=3)),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_payloads)
def test_dump_json_round_trip_property(payload):
    """Any payload writes the reference bytes, and parsing them back gives
    the plain-data image that jsonable returns."""
    text = dump_json(payload)
    assert text == reference_dump(payload)
    assert json.loads(text) == reference_jsonable(payload)
    assert jsonable(payload) == json.loads(text)


class TestManifest:
    def test_digest_changes_with_content(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("one")
        d1 = file_digest(p)
        p.write_text("two")
        assert file_digest(p) != d1

    def test_fields(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "86400")
        p = tmp_path / "in.csv"
        p.write_text("data")
        m = make_manifest("demo", input_paths={"panel": p}, seeds=(7,))
        assert m.command == "demo"
        assert m.seeds == (7,)
        assert m.input_digests["panel"] == file_digest(p)
        assert m.timestamp == "1970-01-02T00:00:00Z"
