"""Measure registry, report assembly, and witness re-verification.

A report maps measure names to {"value", "witness", "nodes", "millis"}
entries.  verify_entry checks that an entry's value is an int, that its
witness is valid for f and names only positions in 0..n-1, and that the
value equals the witness's size: a tree's depth, an assignment's fixed
positions, a family's count.  Measures whose value has no compact witness
(deg, packing, m) are re-verified by recomputation.  verify_report also
refuses values present together that break s <= bs2 <= bs <= C <= D <=
nonadaptive or deg <= D.  Witnesses are one-sided: a value above the
optimum with a valid witness of that size still passes, unless the chain
catches it.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from itertools import combinations
from typing import Any, Callable

from ..errors import DomainError, MembershipError, VerificationError
from ..slicecore import (
    Assignment,
    LabeledFunction,
    consistent_set,
    member_masks,
    position_rank_bitsets,
    string_to_mask,
    whole_cube,
)
from .algebra import degree
from .bounds import max_one_subcube_intersection, packing_lower_bound
from .certificates import (
    balanced_certificate,
    certificate_complexity,
    subcube_partition_complexity,
    unambiguous_certificate_complexity,
)
from .depth import DepthSolver, nonadaptive_positions
from .sensitivity import block_sensitivity, sensitivity
from .trees import depth as tree_depth
from .trees import tree_from_json_obj, validate as validate_tree

Entry = dict[str, Any]


def _measure_depth(f: LabeledFunction):
    solver = DepthSolver(f)
    value = solver.solve()
    return value, solver.build_tree().to_json_obj(), solver.nodes


def _measure_nonadaptive(f: LabeledFunction):
    value, positions = nonadaptive_positions(f)
    return value, {"positions": positions}, 0


def _plain(fn: Callable, **kw):
    def run(f: LabeledFunction):
        value, witness = fn(f, **kw)
        return value, witness, 0

    return run


MEASURES: dict[str, Callable[[LabeledFunction], tuple[int, Any, int]]] = {
    "D": _measure_depth,
    "nonadaptive": _measure_nonadaptive,
    "C": _plain(certificate_complexity),
    "UC": _plain(unambiguous_certificate_complexity),
    "SC": _plain(subcube_partition_complexity),
    "s": _plain(sensitivity),
    "bs": _plain(block_sensitivity),
    "bs2": _plain(block_sensitivity, max_block_size=2),
    "BC": _plain(balanced_certificate),
    "mBC": _plain(balanced_certificate, min_mode=True),
    "deg": _plain(degree),
    "packing": _plain(packing_lower_bound),
    "m": _plain(max_one_subcube_intersection),
}


def compute_measures(
    f: LabeledFunction,
    names: Iterable[str],
    function_ref: Any,
    cache=None,
) -> dict[str, Any]:
    """Build a report {"function": ref, "measures": {name: entry}}.

    cache, when given, must expose get(f, name) -> entry | None and
    put(f, name, entry); hits return the stored entry verbatim.
    """
    names = list(names)
    for name in names:
        if name not in MEASURES:
            raise DomainError(
                f"unknown measure {name!r}; known: {', '.join(sorted(MEASURES))}"
            )
    measures: dict[str, Entry] = {}
    for name in names:
        entry = cache.get(f, name) if cache is not None else None
        if entry is None:
            t0 = time.perf_counter()
            value, witness, nodes = MEASURES[name](f)
            millis = int((time.perf_counter() - t0) * 1000)
            entry = {"value": value, "witness": witness, "nodes": nodes, "millis": millis}
            if cache is not None:
                cache.put(f, name, entry)
        measures[name] = entry
    return {"function": function_ref, "measures": measures}


# -- witness re-verification ----------------------------------------------------


def verify_entry(f: LabeledFunction, name: str, entry: Entry) -> None:
    """Re-check a stored entry against f; raises VerificationError on failure."""
    checker = _VERIFIERS.get(name)
    if checker is None:
        raise DomainError(f"unknown measure {name!r}")
    value = entry.get("value") if isinstance(entry, dict) else None
    if type(value) is not int:
        raise VerificationError(f"{name}: entry has no integer value")
    try:
        checker(f, value, entry.get("witness"))
    except VerificationError:
        raise
    except (DomainError, MembershipError, KeyError, TypeError, ValueError) as e:
        raise VerificationError(f"{name}: witness invalid: {e!r}") from None


# value orders that hold for every function: s <= bs2 <= bs <= C <= D <=
# nonadaptive, and deg <= D for the Boolean functions deg is defined on
_CHAIN = ("s", "bs2", "bs", "C", "D", "nonadaptive")
_ORDERS = [*combinations(_CHAIN, 2), ("deg", "D"), ("deg", "nonadaptive")]


def verify_report(f: LabeledFunction, entries: dict[str, Entry]) -> None:
    """Re-check every entry, then the orders between the values present
    that hold for every function; raises VerificationError on failure."""
    for name in sorted(entries):
        verify_entry(f, name, entries[name])
    values = {name: entry["value"] for name, entry in entries.items()}
    for lo, hi in _ORDERS:
        if lo in values and hi in values and values[lo] > values[hi]:
            raise VerificationError(
                f"{lo} = {values[lo]} exceeds {hi} = {values[hi]},"
                f" but {lo} <= {hi} for every function"
            )


def _fail(name: str, msg: str):
    raise VerificationError(f"{name}: {msg}")


def _witness_input(f: LabeledFunction, witness: Any, name: str) -> int:
    if not isinstance(witness, dict) or "input" not in witness:
        _fail(name, "witness lacks an input")
    xm = string_to_mask(witness["input"])
    f.domain.rank(xm)
    return xm


def _witness_assignment(witness: Any, name: str) -> Assignment:
    try:
        return Assignment.from_json_obj(witness)
    except Exception as e:
        _fail(name, f"bad assignment witness: {e}")


def _positions_mask(f: LabeledFunction, witness: Any, value: int, name: str) -> int:
    """The mask of a witness's positions, which must be value distinct
    positions in 0..n-1."""
    positions = witness.get("positions") if isinstance(witness, dict) else None
    if positions is None:
        _fail(name, "witness lacks positions")
    mask = 0
    for p in positions:
        if type(p) is not int or not 0 <= p < f.domain.n or mask >> p & 1:
            _fail(name, f"positions are not distinct positions in 0..{f.domain.n - 1}")
        mask |= 1 << p
    if len(positions) != value:
        _fail(name, f"{len(positions)} positions != stated value {value}")
    return mask


def _verify_tree(f: LabeledFunction, value: int, witness: Any) -> None:
    tree = tree_from_json_obj(witness)
    validate_tree(tree, f)
    d = tree_depth(tree)
    if d != value:
        _fail("D", f"tree depth {d} != stated value {value}")


def _verify_nonadaptive(f: LabeledFunction, value: int, witness: Any) -> None:
    mask = _positions_mask(f, witness, value, "nonadaptive")
    seen: dict[int, int] = {}
    for xm, label in zip(member_masks(f.domain), f.table):
        if seen.setdefault(xm & mask, label) != label:
            _fail("nonadaptive", f"positions do not determine the label at {xm:b}")


def _verify_certificate(name: str, balanced: bool):
    def check(f: LabeledFunction, value: int, witness: Any) -> None:
        xm = _witness_input(f, witness, name)
        a = _witness_assignment(witness, name)
        if balanced and not a.is_balanced:
            _fail(name, "assignment is not balanced")
        if not a.consistent_with(xm):
            _fail(name, "assignment conflicts with its input")
        if a.size != value:
            _fail(name, f"assignment size {a.size} != stated value {value}")
        # the consistent set holds xm, so one label there means xm's label
        S = consistent_set(
            position_rank_bitsets(f.domain), (1 << f.domain.size) - 1, a.zeros, a.ones
        )
        if not f.is_single_label(S):
            _fail(name, "assignment is not label-constant over consistent members")

    return check


def _verify_uc(f: LabeledFunction, value: int, witness: Any) -> None:
    if not isinstance(witness, dict) or "certificates" not in witness:
        _fail("UC", "witness lacks certificates")
    ones_at, full = position_rank_bitsets(f.domain), (1 << f.domain.size) - 1
    covered = 0
    worst = 0
    for obj in witness["certificates"]:
        a = _witness_assignment(obj, "UC")
        S = consistent_set(ones_at, full, a.zeros, a.ones)
        if not S:
            _fail("UC", "certificate consistent with no member")
        if not f.is_single_label(S):
            _fail("UC", "certificate is not label-constant")
        if covered & S:
            _fail("UC", "certificates overlap")
        covered |= S
        worst = max(worst, a.size)
    if covered != full:
        _fail("UC", "certificates do not cover the domain")
    if worst != value:
        _fail("UC", f"largest certificate {worst} != stated value {value}")


def _verify_sc(f: LabeledFunction, value: int, witness: Any) -> None:
    if not isinstance(witness, dict) or "subcubes" not in witness:
        _fail("SC", "witness lacks subcubes")
    cube = whole_cube(f.domain.n)
    cube_at, points = position_rank_bitsets(cube), (1 << cube.size) - 1
    ones_at, full = position_rank_bitsets(f.domain), (1 << f.domain.size) - 1
    covered = 0
    worst = 0
    for obj in witness["subcubes"]:
        a = _witness_assignment(obj, "SC")
        worst = max(worst, a.size)
        cell = consistent_set(cube_at, points, a.zeros, a.ones)
        if covered & cell:
            _fail("SC", "subcubes overlap")
        covered |= cell
        S = consistent_set(ones_at, full, a.zeros, a.ones)
        if S and not f.is_single_label(S):
            _fail("SC", "a subcube mixes labels on the domain")
    if covered != points:
        _fail("SC", "subcubes do not partition the cube")
    if worst != value:
        _fail("SC", f"largest subcube assignment {worst} != stated value {value}")


def _verify_sensitivity(f: LabeledFunction, value: int, witness: Any) -> None:
    xm = _witness_input(f, witness, "s")
    fx = f.evaluate(xm)
    if f.domain.kind == "slice":
        swaps = witness.get("swaps")
        if swaps is None:
            _fail("s", "slice witness lacks swaps")
        used: set[int] = set()
        for i, j in swaps:
            if not (xm >> i & 1) or (xm >> j & 1):
                _fail("s", f"swap ({i},{j}) is not a 1-to-0 transposition")
            if i in used or j in used:
                _fail("s", "swaps are not disjoint")
            used.update((i, j))
            if f.evaluate(xm ^ (1 << i) ^ (1 << j)) == fx:
                _fail("s", f"swap ({i},{j}) is not sensitive")
        if len(swaps) != value:
            _fail("s", f"{len(swaps)} swaps != stated value {value}")
        return
    _positions_mask(f, witness, value, "s")
    for p in witness["positions"]:
        y = xm ^ (1 << p)
        if y not in f.domain or f.evaluate(y) == fx:
            _fail("s", f"flip at {p} is not sensitive")


def _verify_blocks(name: str, size_cap: int | None):
    def check(f: LabeledFunction, value: int, witness: Any) -> None:
        xm = _witness_input(f, witness, name)
        fx = f.evaluate(xm)
        blocks = witness.get("blocks")
        if blocks is None:
            _fail(name, "witness lacks blocks")
        used = 0
        for block in blocks:
            m = 0
            for p in block:
                m |= 1 << p
            if m.bit_count() != len(block):
                _fail(name, "block repeats a position")
            if size_cap is not None and len(block) > size_cap:
                _fail(name, f"block larger than {size_cap}")
            if used & m:
                _fail(name, "blocks are not disjoint")
            used |= m
            y = xm ^ m
            if y not in f.domain or f.evaluate(y) == fx:
                _fail(name, f"block {sorted(block)} is not sensitive")
        if len(blocks) != value:
            _fail(name, f"{len(blocks)} blocks != stated value {value}")

    return check


def _verify_recompute(name: str, fn: Callable):
    def check(f: LabeledFunction, value: int, witness: Any) -> None:
        got, _ = fn(f)
        if got != value:
            _fail(name, f"recomputed value {got} != stated value {value}")

    return check


_VERIFIERS: dict[str, Callable[[LabeledFunction, int, Any], None]] = {
    "D": _verify_tree,
    "nonadaptive": _verify_nonadaptive,
    "C": _verify_certificate("C", balanced=False),
    "UC": _verify_uc,
    "SC": _verify_sc,
    "s": _verify_sensitivity,
    "bs": _verify_blocks("bs", None),
    "bs2": _verify_blocks("bs2", 2),
    "BC": _verify_certificate("BC", balanced=True),
    "mBC": _verify_certificate("mBC", balanced=True),
    "deg": _verify_recompute("deg", degree),
    "packing": _verify_recompute("packing", packing_lower_bound),
    "m": _verify_recompute("m", max_one_subcube_intersection),
}
