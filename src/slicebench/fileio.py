"""slicebench's JSON files: their text form, their reader, and the
function-file format.

json_text is the text of every function file and report slicebench writes.
read_json reads every JSON file it is given (function files, experiment
specs, reports, cache entries) and raises FormatError for bad syntax, bytes
that are not UTF-8, an int too long to convert, or nesting too deep.

Function file keys: "n", "kind" ("slice" | "cube" | "explicit"), "k" for
slices, "members" (bit strings, rank order) for explicit domains,
"alphabet", and "table": the rank-order alphabet indices packed into bytes,
as hex.  Boolean tables are bit-packed, rank r at bit r % 8 of byte r // 8
(low bit first, padding bits zero); other alphabets take one byte per
member.  This module is the only place that packs or unpacks tables.  An
optional "construction" object carries provenance and never affects
identity: cache keys hash only the core fields.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import FormatError
from .slicecore import (
    Domain,
    LabeledFunction,
    mask_to_string,
    string_to_mask,
)

_KINDS = ("slice", "cube", "explicit")
# turns a binary numeral into one 0 or 1 byte per digit
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def function_to_json_obj(
    f: LabeledFunction, construction: dict | None = None
) -> dict[str, Any]:
    dom = f.domain
    obj: dict[str, Any] = {"n": dom.n, "kind": dom.kind}
    if dom.kind == "slice":
        obj["k"] = dom.k
    elif dom.kind == "explicit":
        obj["members"] = [mask_to_string(x, dom.n) for x in dom.explicit_members]
    obj["alphabet"] = [list(lab) if isinstance(lab, tuple) else lab for lab in f.alphabet]
    obj["table"] = _pack(f).hex()
    if construction is not None:
        obj["construction"] = construction
    return obj


def function_from_json_obj(obj: Any) -> LabeledFunction:
    if not isinstance(obj, dict):
        raise FormatError("function file must hold a JSON object")
    try:
        n = obj["n"]
        kind = obj["kind"]
        alphabet = obj["alphabet"]
        table_hex = obj["table"]
    except KeyError as e:
        raise FormatError(f"function file lacks key {e.args[0]!r}") from None
    if kind not in _KINDS:
        raise FormatError(f"unknown domain kind {kind!r}")
    if type(n) is not int:
        raise FormatError("n must be an integer")
    if kind == "slice":
        if type(obj.get("k")) is not int:
            raise FormatError("slice function file needs an integer k")
        dom = Domain.slice(n, obj["k"])
    elif kind == "cube":
        dom = Domain.cube(n)
    else:
        members = obj.get("members")
        if not isinstance(members, list) or any(type(s) is not str for s in members):
            raise FormatError("explicit function file lacks its member strings")
        dom = Domain.explicit(n, [string_to_mask(s, n) for s in members])
    if not isinstance(alphabet, list) or not alphabet:
        raise FormatError("alphabet must be a nonempty list")
    items = [v for lab in alphabet for v in (lab if isinstance(lab, list) else [lab])]
    if any(type(v) is not int for v in items):
        raise FormatError("each label must be an int or a list of ints")
    labs = [tuple(lab) if isinstance(lab, list) else lab for lab in alphabet]
    try:
        raw = bytes.fromhex(table_hex)
    except (TypeError, ValueError):
        raise FormatError("table must be a hex string") from None
    indices = _unpack(labs, raw, dom.size)
    return LabeledFunction.from_indices(dom, labs, indices)


def _pack(f: LabeledFunction) -> bytes:
    if f.is_boolean:
        return f.label_bitsets[1].to_bytes((f.domain.size + 7) // 8, "little")
    return bytes(f.table)


def _unpack(alphabet: list, raw: bytes, size: int) -> bytes:
    """The alphabet indices packed in raw, one byte each."""
    if set(alphabet) == {0, 1}:
        want = (size + 7) // 8
        if len(raw) != want:
            raise FormatError(f"table holds {len(raw)} bytes, expected {want}")
        bits = int.from_bytes(raw, "little")
        if bits >> size:
            raise FormatError("table sets padding bits past the domain size")
        return format(bits, f"0{size}b")[::-1].encode().translate(_FROM_DIGITS)
    if len(raw) != size:
        raise FormatError(f"table holds {len(raw)} bytes, expected {size}")
    return raw


def json_text(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def read_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e.msg}", line=e.lineno) from None
    except ValueError as e:  # bytes that are not UTF-8, an int too long to convert
        raise FormatError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise FormatError("JSON nests too deeply to parse") from None


def write_function(
    f: LabeledFunction, path: str | Path, construction: dict | None = None
) -> None:
    Path(path).write_text(json_text(function_to_json_obj(f, construction)))


def read_function(path: str | Path) -> LabeledFunction:
    return function_from_json_obj(read_json(path))


def canonical_function_bytes(f: LabeledFunction) -> bytes:
    """Identity bytes for caching: core fields only, canonical JSON."""
    obj = function_to_json_obj(f)
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()

