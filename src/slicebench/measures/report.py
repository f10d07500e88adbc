"""Measure registry, report assembly, and witness re-verification.

A report maps measure names to {"value", "witness", "nodes", "millis"}
entries.  verify_entry checks that an entry's value is an int, that its
witness is valid for f, and that the value equals the witness's size: a
tree's depth, an assignment's fixed positions, a family's count.  Every
position a witness names, tree queries aside, is read by one reader that
accepts only distinct ints (not bools) in 0..n-1; trees.tree_from_json_obj
holds queries and leaves to the same rule.  s, bs and bs2 witnesses are all
checked as disjoint sensitive blocks: s's are one flip each, or one swap on
a slice.  Measures whose value has no compact witness (deg, packing, m) are
re-verified by recomputation.  verify_report also refuses values present
together that break s <= bs2 <= bs <= C <= UC <= SC <= D <= nonadaptive or
deg <= D.  Witnesses are one-sided: a value above the optimum with a valid
witness of that size still passes, unless the chain catches it.
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


# value orders that hold for every function: s <= bs2 <= bs <= C <= UC <=
# SC <= D <= nonadaptive, and deg <= D for the Boolean functions deg is
# defined on.  The UC cell holding x certifies x, the cells of an SC
# partition that meet the domain are a UC cover, and the leaves of a depth-D
# tree are an SC partition.
_CHAIN = ("s", "bs2", "bs", "C", "UC", "SC", "D", "nonadaptive")
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


def _field(witness: Any, key: str, name: str) -> Any:
    if not isinstance(witness, dict) or key not in witness:
        _fail(name, f"witness lacks {key}")
    return witness[key]


def _witness_input(f: LabeledFunction, witness: Any, name: str) -> int:
    xm = string_to_mask(_field(witness, "input", name), f.domain.n)
    f.domain.rank(xm)
    return xm


def _position_mask(f: LabeledFunction, items: Any, name: str) -> int:
    """The mask of a witness list, which must hold distinct ints (not
    bools) in 0..n-1; every position a witness names is read here."""
    if not isinstance(items, list):
        _fail(name, f"positions {items!r} are not a list")
    n = f.domain.n
    mask = 0
    for p in items:
        if type(p) is not int:
            _fail(name, f"position {p!r} is not an int")
        if not 0 <= p < n:
            _fail(name, f"position {p} is outside the domain's 0..{n - 1}")
        if mask >> p & 1:
            _fail(name, f"position {p} is named twice")
        mask |= 1 << p
    return mask


def _assignment(f: LabeledFunction, obj: Any, name: str) -> Assignment:
    if not isinstance(obj, dict):
        _fail(name, "assignment is not an object")
    # Assignment refuses a position fixed both ways
    return Assignment(
        zeros=_position_mask(f, obj.get("zeros", []), name),
        ones=_position_mask(f, obj.get("ones", []), name),
    )


def _check_count(name: str, what: str, count: int, value: int) -> None:
    if count != value:
        _fail(name, f"{what} {count} != stated value {value}")


def _verify_tree(f: LabeledFunction, value: int, witness: Any) -> None:
    tree = tree_from_json_obj(witness, f.domain.n)
    validate_tree(tree, f)
    _check_count("D", "tree depth", tree_depth(tree), value)


def _verify_nonadaptive(f: LabeledFunction, value: int, witness: Any) -> None:
    mask = _position_mask(f, _field(witness, "positions", "nonadaptive"), "nonadaptive")
    _check_count("nonadaptive", "positions", mask.bit_count(), value)
    seen: dict[int, int] = {}
    for xm, label in zip(member_masks(f.domain), f.table):
        if seen.setdefault(xm & mask, label) != label:
            _fail("nonadaptive", f"positions do not determine the label at {xm:b}")


def _verify_certificate(name: str, balanced: bool):
    def check(f: LabeledFunction, value: int, witness: Any) -> None:
        xm = _witness_input(f, witness, name)
        a = _assignment(f, witness, name)
        if balanced and not a.is_balanced:
            _fail(name, "assignment is not balanced")
        if not a.consistent_with(xm):
            _fail(name, "assignment conflicts with its input")
        _check_count(name, "assignment size", a.size, value)
        # the consistent set holds xm, so one label there means xm's label
        S = consistent_set(
            position_rank_bitsets(f.domain), (1 << f.domain.size) - 1, a.zeros, a.ones
        )
        if not f.is_single_label(S):
            _fail(name, "assignment is not label-constant over consistent members")

    return check


def _verify_uc(f: LabeledFunction, value: int, witness: Any) -> None:
    ones_at, full = position_rank_bitsets(f.domain), (1 << f.domain.size) - 1
    covered = 0
    worst = 0
    for obj in _field(witness, "certificates", "UC"):
        a = _assignment(f, obj, "UC")
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
    _check_count("UC", "largest certificate", worst, value)


def _verify_sc(f: LabeledFunction, value: int, witness: Any) -> None:
    cube = whole_cube(f.domain.n)
    cube_at, points = position_rank_bitsets(cube), (1 << cube.size) - 1
    ones_at, full = position_rank_bitsets(f.domain), (1 << f.domain.size) - 1
    covered = 0
    worst = 0
    for obj in _field(witness, "subcubes", "SC"):
        a = _assignment(f, obj, "SC")
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
    _check_count("SC", "largest subcube", worst, value)


def _check_blocks(
    f: LabeledFunction, name: str, witness: Any, blocks: Any, value: int, cap: int | None
) -> int:
    """Check blocks are value disjoint lists of at most cap positions, each
    moving the witness's input to a member with another label; returns the
    input."""
    xm = _witness_input(f, witness, name)
    if not isinstance(blocks, list):
        _fail(name, "blocks are not a list")
    fx = f.evaluate(xm)
    used = 0
    for block in blocks:
        m = _position_mask(f, block, name)
        if cap is not None and m.bit_count() > cap:
            _fail(name, f"block {block} is larger than {cap}")
        if used & m:
            _fail(name, "blocks are not disjoint")
        used |= m
        y = xm ^ m
        if y not in f.domain or f.evaluate(y) == fx:
            _fail(name, f"block {block} is not sensitive")
    _check_count(name, "blocks", len(blocks), value)
    return xm


def _verify_sensitivity(f: LabeledFunction, value: int, witness: Any) -> None:
    """s is bs over the domain's single moves: on a slice blocks of one
    swap, written 1's position first, and elsewhere blocks of one flip."""
    if f.domain.kind != "slice":
        flips = _field(witness, "positions", "s")
        _check_blocks(f, "s", witness, [[p] for p in flips], value, 1)
        return
    swaps = _field(witness, "swaps", "s")
    xm = _check_blocks(f, "s", witness, swaps, value, 2)
    if not all(xm >> i & 1 for i, _ in swaps):
        _fail("s", "a swap does not name its 1's position first")


def _verify_blocks(name: str, cap: int | None):
    def check(f: LabeledFunction, value: int, witness: Any) -> None:
        _check_blocks(f, name, witness, _field(witness, "blocks", name), value, cap)

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
