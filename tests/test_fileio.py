"""Function files, canonical bytes, and the result cache."""

import json

import pytest

from slicebench import ENGINE_VERSION
from slicebench.catalog import kml_set, make_eq, random_slice_function, weights_task
from slicebench.cli.cache import ResultCache, default_cache_dir
from slicebench.errors import DomainError, FormatError
from slicebench.fileio import (
    canonical_function_bytes,
    function_from_json_obj,
    function_to_json_obj,
    read_function,
    write_function,
)
from slicebench.slicecore import BOOLEAN, Domain, LabeledFunction


@pytest.mark.parametrize(
    "f",
    [
        make_eq(1),
        random_slice_function(5, 2, 7),
        weights_task(2, 2, 2),
        LabeledFunction.from_callable(Domain.cube(3), lambda x: x & 1, BOOLEAN),
        LabeledFunction.from_callable(
            Domain.explicit(3, [0b001, 0b110, 0b111]), lambda x: x >> 2 & 1, BOOLEAN
        ),
    ],
)
def test_function_json_round_trip(f):
    clone = function_from_json_obj(function_to_json_obj(f))
    assert clone == f
    assert canonical_function_bytes(clone) == canonical_function_bytes(f)


def test_function_file_round_trip(tmp_path):
    f = make_eq(1)
    path = tmp_path / "eq1.json"
    write_function(f, path, construction={"name": "eq", "params": {"k": 1}})
    clone = read_function(path)
    assert clone == f
    obj = json.loads(path.read_text())
    assert obj["construction"]["name"] == "eq"


def test_canonical_bytes_ignore_construction_metadata():
    f = make_eq(1)
    assert b"construction" not in canonical_function_bytes(f)


def test_function_format_errors():
    good = function_to_json_obj(make_eq(1))
    cases = []
    for key in ("n", "kind", "alphabet", "table"):
        broken = dict(good)
        del broken[key]
        cases.append(broken)
    for broken in cases:
        with pytest.raises(FormatError):
            function_from_json_obj(broken)
    with pytest.raises(FormatError):
        function_from_json_obj("not an object")
    with pytest.raises(FormatError):
        function_from_json_obj({**good, "kind": "ring"})
    with pytest.raises(FormatError):
        function_from_json_obj({**good, "table": "zz"})
    with pytest.raises(FormatError):
        function_from_json_obj({**good, "table": "1234"})
    with pytest.raises(FormatError):
        function_from_json_obj({**good, "table": "ff"})
    slim = dict(good)
    del slim["k"]
    with pytest.raises(FormatError):
        function_from_json_obj(slim)
    # fields of the wrong type; n = true would read as a 1-cube
    cube1 = function_to_json_obj(
        LabeledFunction.from_callable(Domain.cube(1), lambda x: x, BOOLEAN)
    )
    for broken in (
        {**good, "k": "2"},
        {**good, "k": 2.0},
        {**good, "kind": "explicit", "members": [1, 2]},
        {**good, "alphabet": [{"a": 1}, 0]},
        {**good, "alphabet": [[[1]], 0]},
        {**cube1, "n": True},
    ):
        with pytest.raises(FormatError):
            function_from_json_obj(broken)


@pytest.mark.parametrize("members", [["1000", "0100"], ["1", "01"]])
def test_explicit_member_strings_need_exactly_n_characters(members):
    # at n = 2 each list would otherwise read as the members 1 and 2
    obj = {"n": 2, "kind": "explicit", "members": members}
    with pytest.raises(DomainError, match="not n = 2"):
        function_from_json_obj({**obj, "alphabet": [0, 1], "table": "01"})


def test_explicit_function_bytes_are_pinned():
    dom = Domain.explicit(4, [0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100, 15, 0, 1])
    f = LabeledFunction.from_indices(dom, BOOLEAN, [1, 0, 0, 1, 1, 0, 1, 0, 1])
    assert canonical_function_bytes(f) == (
        b'{"alphabet":[0,1],"kind":"explicit","members":["1100","1010","1001",'
        b'"0110","0101","0011","1111","0000","1000"],"n":4,"table":"5901"}'
    )


def write_with_reversed_alphabet(f, path):
    """Write Boolean f as a file whose alphabet is [1, 0], so every table
    bit is the complement of the one in f's own file."""
    obj = function_to_json_obj(f)
    raw = bytes.fromhex(obj["table"])
    bits = int.from_bytes(raw, "little") ^ ((1 << f.domain.size) - 1)
    obj["alphabet"] = [1, 0]
    obj["table"] = bits.to_bytes(len(raw), "little").hex()
    path.write_text(json.dumps(obj))


def test_reversed_boolean_alphabet_reads_back_unflipped(tmp_path):
    f = kml_set(3)
    path = tmp_path / "kml3.json"
    write_with_reversed_alphabet(f, path)
    g = read_function(path)
    assert g == f
    assert g.label_bitsets[1].bit_count() == 14
    assert canonical_function_bytes(g) == canonical_function_bytes(f)


def test_read_function_reports_json_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "n": 4,\n  !\n}\n')
    with pytest.raises(FormatError) as err:
        read_function(path)
    assert err.value.line == 3


def test_padding_bits_rejected():
    good = function_to_json_obj(make_eq(1))
    raw = bytearray(bytes.fromhex(good["table"]))
    raw[-1] |= 0x80
    with pytest.raises(FormatError):
        function_from_json_obj({**good, "table": bytes(raw).hex()})


def test_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    f = make_eq(1)
    assert cache.get(f, "D") is None
    entry = {"value": 2, "witness": None, "nodes": 9, "millis": 1}
    cache.put(f, "D", entry)
    assert cache.get(f, "D") == entry
    assert cache.get(f, "C") is None
    g = random_slice_function(4, 2, 0)
    assert cache.get(g, "D") is None


def test_cache_entry_that_fails_its_digest_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    f = make_eq(1)
    entry = {"value": 2, "witness": None, "nodes": 9, "millis": 1}
    cache.put(f, "D", entry)
    path = tmp_path / f"{cache.key(f, 'D')}.json"
    stored = json.loads(path.read_text())
    stored["entry"]["value"] = 99
    path.write_text(json.dumps(stored))
    assert cache.get(f, "D") is None
    path.write_text(json.dumps(entry))  # a bare entry carries no digest
    assert cache.get(f, "D") is None
    cache.put(f, "D", entry)
    assert cache.get(f, "D") == entry


def test_cache_put_ignores_a_stale_shared_temp_name(tmp_path):
    cache = ResultCache(tmp_path)
    f = make_eq(1)
    entry = {"value": 2, "witness": None, "nodes": 9, "millis": 1}
    # a leftover "<key>.tmp" directory must not block this writer
    (tmp_path / f"{cache.key(f, 'D')}.tmp").mkdir()
    cache.put(f, "D", entry)
    assert not cache.disabled
    assert cache.get(f, "D") == entry
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".json", ".tmp"]


def test_cache_key_includes_measure_and_engine(tmp_path):
    cache = ResultCache(tmp_path)
    f = make_eq(1)
    key_d = cache.key(f, "D")
    key_c = cache.key(f, "C")
    assert key_d != key_c
    assert len(key_d) == 64
    other = random_slice_function(4, 2, 1)
    assert cache.key(other, "D") != key_d


def test_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SLICEBENCH_CACHE_DIR", str(tmp_path / "boxed"))
    assert default_cache_dir() == tmp_path / "boxed"
    cache = ResultCache()
    f = make_eq(1)
    cache.put(f, "D", {"value": 2, "witness": None, "nodes": 0, "millis": 0})
    assert (tmp_path / "boxed").exists()
    assert cache.get(f, "D") is not None


def test_engine_version_present():
    assert isinstance(ENGINE_VERSION, str) and ENGINE_VERSION
