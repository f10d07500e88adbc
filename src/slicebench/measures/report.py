"""Measure table, report assembly, and witness re-verification.

MEASURES holds one entry per name, with its compute, its witness check,
and the domain and caps that _admit checks before any work: what measure
refuses to compute, verify refuses to check.
A report maps measure names to {"value", "witness", "nodes", "millis"}
entries.  verify_entry checks that an entry's value is an int, that its
witness is valid for f, and that the value equals the witness's size: a
tree's depth, an assignment's fixed positions, a family's count.  Every
position a witness names, tree queries aside, is read by one reader that
accepts only distinct ints (not bools) in 0..n-1; trees.check_tree holds
queries and leaves to the same rule, and reads and checks a D tree in one
walk.  s, bs and bs2 witnesses are all checked as disjoint sensitive
blocks: s's are one flip each, or one swap on a slice.  A C, BC or mBC
certificate must also be a least one at its input, and C and s must also
equal their recomputed max over inputs.  UC and SC witnesses go through
one partition check, _check_partition, over the domain and over the whole
cube.  An m witness must be a 1-monochromatic assignment holding value
1-inputs, and a packing witness must state |f^-1(1)| and m.  A deg witness
is a monomial of value positions with a nonzero coefficient on a cube and
None elsewhere.  verify_report also refuses values present together that
break s <= bs2 <= bs <= C <= UC <= SC <= D <= nonadaptive or deg <= D.  C,
s, deg, m and packing are checked on both sides, as their values are
recomputed after the witness check; the other witnesses are one-sided: bs,
bs2 and BC refuse a value above the optimum, D, nonadaptive, UC, SC and mBC
one below it, and the other side passes unless the chain catches it.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Any, Callable

from ..errors import DomainError, MembershipError, ResourceCapError, VerificationError
from ..slicecore import (
    Assignment,
    Domain,
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
from .trees import check_tree

Entry = dict[str, Any]


@dataclass(frozen=True)
class Measure:
    """compute(f) gives (value, witness), or (value, witness, nodes) for D;
    check(f, value, witness) raises VerificationError on a witness that
    does not prove value.  f must be Boolean if boolean is set, on a balanced
    slice if balanced is, and within max_n positions and max_size members
    where given.  A functools.wraps wrapper keeps every field."""

    compute: Callable[[LabeledFunction], tuple]
    check: Callable[[LabeledFunction, int, Any], None]
    boolean: bool = False
    balanced: bool = False
    max_n: int | None = None
    max_size: int | None = None

    def __call__(self, f: LabeledFunction) -> tuple[int, Any, int]:
        value, witness, *nodes = self.compute(f)
        return value, witness, nodes[0] if nodes else 0


def _measure(name: str) -> Measure:
    if name not in MEASURES:
        known = ", ".join(sorted(MEASURES))
        raise DomainError(f"unknown measure {name!r}; known: {known}")
    return MEASURES[name]


def _admit(f: LabeledFunction, name: str, measure: Measure) -> None:
    """Raise DomainError when f is outside measure's domain and
    ResourceCapError when it is past a cap; only fields are read."""
    dom = f.domain
    if measure.balanced and not dom.is_balanced_slice:
        raise DomainError(f"{name}'s balanced certificates need a balanced slice domain")
    if measure.boolean and not f.is_boolean:
        raise DomainError(f"{name} needs a Boolean function")
    if measure.max_n is not None and dom.n > measure.max_n:
        raise ResourceCapError(f"{name} capped at n <= {measure.max_n}")
    if measure.max_size is not None and dom.size > measure.max_size:
        raise ResourceCapError(f"{name} capped at domain size <= {measure.max_size}")


def _measure_depth(f: LabeledFunction):
    solver = DepthSolver(f)
    value = solver.solve()
    return value, solver.build_tree().to_json_obj(), solver.nodes


def _measure_nonadaptive(f: LabeledFunction):
    value, positions = nonadaptive_positions(f)
    return value, {"positions": positions}


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
    requested = [_measure(name) for name in names]
    for name, measure in zip(names, requested):
        _admit(f, name, measure)
    measures: dict[str, Entry] = {}
    for name, measure in zip(names, requested):
        entry = cache.get(f, name) if cache is not None else None
        if entry is None:
            t0 = time.perf_counter()
            value, witness, nodes = measure(f)
            millis = int((time.perf_counter() - t0) * 1000)
            entry = {"value": value, "witness": witness, "nodes": nodes, "millis": millis}
            if cache is not None:
                cache.put(f, name, entry)
        measures[name] = entry
    return {"function": function_ref, "measures": measures}


# -- witness re-verification ----------------------------------------------------


def verify_entry(f: LabeledFunction, name: str, entry: Entry) -> None:
    """Re-check a stored entry against f; raises VerificationError, its
    message led by the measure's name, on failure (ResourceCapError past a cap)."""
    measure = _measure(name)
    try:
        _admit(f, name, measure)
    except DomainError as e:
        raise VerificationError(f"{name}: {e}") from None
    try:
        value = entry.get("value") if isinstance(entry, dict) else None
        if type(value) is not int:
            _fail("entry has no integer value")
        measure.check(f, value, entry.get("witness"))
    except VerificationError as e:
        raise VerificationError(f"{name}: {e}") from None
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


def _fail(msg: str):
    raise VerificationError(msg)


def _field(witness: Any, key: str) -> Any:
    if not isinstance(witness, dict) or key not in witness:
        _fail(f"witness lacks {key}")
    return witness[key]


def _witness_input(f: LabeledFunction, witness: Any) -> int:
    xm = string_to_mask(_field(witness, "input"), f.domain.n)
    f.domain.rank(xm)
    return xm


def _position_mask(f: LabeledFunction, items: Any) -> int:
    """The mask of a witness list, which must hold distinct ints (not
    bools) in 0..n-1; every position a witness names is read here."""
    if not isinstance(items, list):
        _fail(f"positions {items!r} are not a list")
    n = f.domain.n
    mask = 0
    for p in items:
        if type(p) is not int:
            _fail(f"position {p!r} is not an int")
        if not 0 <= p < n:
            _fail(f"position {p} is outside the domain's 0..{n - 1}")
        if mask >> p & 1:
            _fail(f"position {p} is named twice")
        mask |= 1 << p
    return mask


def _assignment(f: LabeledFunction, obj: Any) -> Assignment:
    if not isinstance(obj, dict):
        _fail("assignment is not an object")
    # Assignment refuses a position fixed both ways
    return Assignment(
        zeros=_position_mask(f, obj.get("zeros", [])),
        ones=_position_mask(f, obj.get("ones", [])),
    )


def _check_count(what: str, count: int, value: int) -> None:
    if count != value:
        _fail(f"{what} {count} != stated value {value}")


def _check_tree(f: LabeledFunction, value: int, witness: Any) -> None:
    _check_count("tree depth", check_tree(witness, f), value)


def _check_nonadaptive(f: LabeledFunction, value: int, witness: Any) -> None:
    mask = _position_mask(f, _field(witness, "positions"))
    _check_count("positions", mask.bit_count(), value)
    seen: dict[int, int] = {}
    for xm, label in zip(member_masks(f.domain), f.table):
        if seen.setdefault(xm & mask, label) != label:
            _fail(f"positions do not determine the label at {xm:b}")


def _check_certificate(f: LabeledFunction, value: int, witness: Any, balanced=False):
    """A certificate of the stated size at the witness's input x, and a
    least one there: value = C(f, x) <= C(f), or BC alike.  For C the max
    over inputs is then recomputed, so C is checked on both sides."""
    xm = _witness_input(f, witness)
    a = _assignment(f, witness)
    if balanced and not a.is_balanced:
        _fail("assignment is not balanced")
    if not a.consistent_with(xm):
        _fail("assignment conflicts with its input")
    _check_count("assignment size", a.size, value)
    # the consistent set holds xm, so one label there means xm's label
    S = consistent_set(
        position_rank_bitsets(f.domain), (1 << f.domain.size) - 1, a.zeros, a.ones
    )
    if not f.is_single_label(S):
        _fail("assignment is not label-constant over consistent members")
    least = (balanced_certificate if balanced else certificate_complexity)(f, xm)
    _check_count("least certificate at the input", least[0], value)
    if not balanced:
        _check_count("largest least certificate", certificate_complexity(f)[0], value)


def _check_partition(
    f: LabeledFunction, value: int, cells: Any, universe: Domain, noun: str
) -> None:
    """The cells are assignments whose consistent sets in universe are
    nonempty, label-constant where they meet the domain, and pairwise
    disjoint; together they cover universe, and the largest has value
    positions.  UC covers the domain and SC the whole cube."""
    dom_at, full = position_rank_bitsets(f.domain), (1 << f.domain.size) - 1
    cell_at, points = position_rank_bitsets(universe), (1 << universe.size) - 1
    covered = worst = 0
    for obj in cells:
        a = _assignment(f, obj)
        cell = consistent_set(cell_at, points, a.zeros, a.ones)
        if not cell:
            _fail(f"{noun} consistent with no member")
        S = consistent_set(dom_at, full, a.zeros, a.ones)
        if S and not f.is_single_label(S):
            _fail(f"{noun} is not label-constant")
        if covered & cell:
            _fail(f"{noun}s overlap")
        covered |= cell
        worst = max(worst, a.size)
    if covered != points:
        whole = "domain" if universe is f.domain else "cube"
        _fail(f"{noun}s do not cover the {whole}")
    _check_count(f"largest {noun}", worst, value)


def _check_blocks(
    f: LabeledFunction, witness: Any, blocks: Any, value: int, cap: int | None
) -> int:
    """Check blocks are value disjoint lists of at most cap positions, each
    moving the witness's input to a member with another label; returns the
    input."""
    xm = _witness_input(f, witness)
    if not isinstance(blocks, list):
        _fail("blocks are not a list")
    fx = f.evaluate(xm)
    used = 0
    for block in blocks:
        m = _position_mask(f, block)
        if cap is not None and m.bit_count() > cap:
            _fail(f"block {block} is larger than {cap}")
        if used & m:
            _fail("blocks are not disjoint")
        used |= m
        y = xm ^ m
        if y not in f.domain or f.evaluate(y) == fx:
            _fail(f"block {block} is not sensitive")
    _check_count("blocks", len(blocks), value)
    return xm


def _check_sensitivity(f: LabeledFunction, value: int, witness: Any) -> None:
    """s is bs over the domain's single moves: on a slice blocks of one
    swap, written 1's position first, and elsewhere blocks of one flip.
    The blocks show s(f) >= value; s(f) is then recomputed, so s is
    checked on both sides."""
    if f.domain.kind != "slice":
        flips = _field(witness, "positions")
        _check_blocks(f, witness, [[p] for p in flips], value, 1)
    else:
        swaps = _field(witness, "swaps")
        xm = _check_blocks(f, witness, swaps, value, 2)
        if not all(xm >> i & 1 for i, _ in swaps):
            _fail("a swap does not name its 1's position first")
    _check_count("largest sensitivity", sensitivity(f)[0], value)


def _check_bs(f: LabeledFunction, value: int, witness: Any, cap: int | None = None):
    _check_blocks(f, witness, _field(witness, "blocks"), value, cap)


def _check_subcube(f: LabeledFunction, value: int, witness: Any) -> None:
    """A 1-monochromatic assignment whose consistent members hold value
    1-inputs shows m >= value, and the witness None is for a function with
    no 1-inputs.  m(f) is then recomputed, so m is checked on both sides."""
    ones_set = f.label_bitsets[1]
    if witness is None and not ones_set:
        count = 0
    else:
        a = _assignment(f, witness)
        S = consistent_set(
            position_rank_bitsets(f.domain), (1 << f.domain.size) - 1, a.zeros, a.ones
        )
        if S & ~ones_set:
            _fail("assignment is not 1-monochromatic over consistent members")
        count = S.bit_count()
    _check_count("1-inputs in the subcube", count, value)
    _check_count("recomputed value", max_one_subcube_intersection(f)[0], value)


def _check_packing(f: LabeledFunction, value: int, witness: Any) -> None:
    """The witness must state |f^-1(1)| and m as recomputed, and value is
    then ceil(log2(ones / m)) of them."""
    want, fields = packing_lower_bound(f)
    for key, count in fields.items():
        stated = _field(witness, key)
        if type(stated) is not int:
            _fail(f"{key} {stated!r} is not an int")
        _check_count(f"recomputed {key}", count, stated)
    _check_count("recomputed value", want, value)


def _check_degree(f: LabeledFunction, value: int, witness: Any) -> None:
    """On a cube a monomial S of value positions with a nonzero coefficient,
    the sum over T in S of (-1)^|S - T| f(T), shows deg >= value (the zero
    function names [] at 0); elsewhere the witness is None.  deg(f) is then
    recomputed, so deg is checked on both sides."""
    if f.domain.kind != "cube":
        if witness is not None:
            _fail("a witness off the cube must be None")
    else:
        S = _position_mask(f, _field(witness, "monomial"))
        _check_count("monomial size", S.bit_count(), value)
        subsets = (T for T in range(S + 1) if T & S == T)
        if S and not sum((-1) ** (S ^ T).bit_count() * f.evaluate(T) for T in subsets):
            _fail("monomial has coefficient 0")
    _check_count("recomputed value", degree(f)[0], value)


_check_bc = partial(_check_certificate, balanced=True)

MEASURES: dict[str, Measure] = {
    "D": Measure(_measure_depth, _check_tree),
    "nonadaptive": Measure(_measure_nonadaptive, _check_nonadaptive, max_n=20, max_size=4096),
    "C": Measure(certificate_complexity, _check_certificate),
    "UC": Measure(
        unambiguous_certificate_complexity,
        lambda f, value, w: _check_partition(
            f, value, _field(w, "certificates"), f.domain, "certificate"
        ),
        boolean=True, max_n=12, max_size=64,
    ),
    "SC": Measure(
        subcube_partition_complexity,
        lambda f, value, w: _check_partition(
            f, value, _field(w, "subcubes"), whole_cube(f.domain.n), "subcube"
        ),
        boolean=True, max_n=6,
    ),
    "s": Measure(sensitivity, _check_sensitivity),
    "bs": Measure(block_sensitivity, _check_bs),
    "bs2": Measure(partial(block_sensitivity, max_block_size=2), partial(_check_bs, cap=2)),
    "BC": Measure(balanced_certificate, _check_bc, boolean=True, balanced=True),
    "mBC": Measure(
        partial(balanced_certificate, min_mode=True), _check_bc, boolean=True, balanced=True
    ),
    "deg": Measure(degree, _check_degree, boolean=True, max_size=1 << 14),
    "packing": Measure(packing_lower_bound, _check_packing, boolean=True, max_n=14),
    "m": Measure(max_one_subcube_intersection, _check_subcube, boolean=True, max_n=14),
}
