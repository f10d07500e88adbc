"""Measure registry, report assembly, and witness re-verification.

A report maps measure names to {"value", "witness", "nodes", "millis"}
entries.  Witnesses are one-sided: a tree certifies its exact depth and
correctness, assignment witnesses certify achievability of the stated size,
block and swap families certify the stated count.  Measures whose value has
no compact witness (deg, packing, m) are re-verified by recomputation.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from typing import Any, Callable

from ..errors import DomainError, MembershipError, VerificationError
from ..slicecore import (
    Assignment,
    LabeledFunction,
    member_masks,
    position_rank_bitsets,
    string_to_mask,
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
    try:
        value = int(entry["value"])
    except (KeyError, TypeError, ValueError):
        raise VerificationError(f"{name}: entry has no integer value") from None
    try:
        checker(f, value, entry.get("witness"))
    except VerificationError:
        raise
    except (DomainError, MembershipError, KeyError, TypeError, ValueError) as e:
        raise VerificationError(f"{name}: witness invalid: {e!r}") from None


def _fail(name: str, msg: str):
    raise VerificationError(f"{name}: {msg}")


def _consistent_bitset(f: LabeledFunction, a: Assignment) -> int:
    ones_at = position_rank_bitsets(f.domain)
    S = (1 << f.domain.size) - 1
    zeros, ones = a.positions()
    for p in zeros:
        S &= ~ones_at[p]
    for p in ones:
        S &= ones_at[p]
    return S


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


def _verify_tree(f: LabeledFunction, value: int, witness: Any) -> None:
    tree = tree_from_json_obj(witness)
    validate_tree(tree, f)
    d = tree_depth(tree)
    if d != value:
        _fail("D", f"tree depth {d} != stated value {value}")


def _verify_nonadaptive(f: LabeledFunction, value: int, witness: Any) -> None:
    if not isinstance(witness, dict) or "positions" not in witness:
        _fail("nonadaptive", "witness lacks positions")
    positions = witness["positions"]
    if len(set(positions)) != len(positions) or len(positions) != value:
        _fail("nonadaptive", "positions are not a distinct set of the stated size")
    mask = sum(1 << p for p in positions)
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
        if not f.is_single_label(_consistent_bitset(f, a)):
            _fail(name, "assignment is not label-constant over consistent members")

    return check


def _verify_uc(f: LabeledFunction, value: int, witness: Any) -> None:
    if not isinstance(witness, dict) or "certificates" not in witness:
        _fail("UC", "witness lacks certificates")
    covered = 0
    worst = 0
    for obj in witness["certificates"]:
        a = _witness_assignment(obj, "UC")
        S = _consistent_bitset(f, a)
        if not S:
            _fail("UC", "certificate consistent with no member")
        if not f.is_single_label(S):
            _fail("UC", "certificate is not label-constant")
        if covered & S:
            _fail("UC", "certificates overlap")
        covered |= S
        worst = max(worst, a.size)
    if covered != (1 << f.domain.size) - 1:
        _fail("UC", "certificates do not cover the domain")
    if worst != value:
        _fail("UC", f"largest certificate {worst} != stated value {value}")


def _verify_sc(f: LabeledFunction, value: int, witness: Any) -> None:
    if not isinstance(witness, dict) or "subcubes" not in witness:
        _fail("SC", "witness lacks subcubes")
    n = f.domain.n
    member_label = dict(zip(member_masks(f.domain), f.table))
    covered = 0
    worst = 0
    for obj in witness["subcubes"]:
        a = _witness_assignment(obj, "SC")
        worst = max(worst, a.size)
        seen: set[int] = set()
        for pt in range(1 << n):
            if pt & a.zeros or (pt & a.ones) != a.ones:
                continue
            if covered >> pt & 1:
                _fail("SC", "subcubes overlap")
            covered |= 1 << pt
            if pt in member_label:
                seen.add(member_label[pt])
        if len(seen) > 1:
            _fail("SC", "a subcube mixes labels on the domain")
    if covered != (1 << (1 << n)) - 1:
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
    positions = witness.get("positions")
    if positions is None:
        _fail("s", "witness lacks positions")
    if len(set(positions)) != len(positions) or len(positions) != value:
        _fail("s", "positions are not a distinct set of the stated size")
    for p in positions:
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
