"""Certificate-style measures: plain, unambiguous, partition, and balanced.

A certificate for an input is a partial assignment consistent with it whose
consistent domain members all carry the input's label.  The variants differ
in what collection structure is demanded (none / exact cover of the domain /
partition of the whole cube / balanced assignments only).

C, s, bs and bs2 share one input scan, max_over_inputs.  It visits the
inputs in rank order, and certificate_skip drops x before any exact work
when a greedy hitting set of x's difference masks, taken on the position
rank bitsets, is no larger than the running maximum; every input that may
set a new maximum still gets its exact value, and the lowest rank wins ties.
"""

from __future__ import annotations

from itertools import combinations, product

from ..errors import DomainError, ResourceCapError
from ..kernels import exact_cover, greedy_cover, min_hitting_set
from ..slicecore import (
    Assignment,
    LabeledFunction,
    consistent_set,
    mask_to_string,
    member_masks,
    position_rank_bitsets,
    whole_cube,
)

_UC_MAX_SIZE = 64
_UC_MAX_N = 12
_SC_MAX_N = 6


def certificate_complexity(f: LabeledFunction, x: int | None = None):
    """C(f) or C(f, x); returns (value, witness).

    Witness: {"input": bit string, "zeros": [...], "ones": [...]}; the max
    mode reports the lowest-rank input attaining the maximum.
    """
    dom = f.domain
    members, table = member_masks(dom), f.table

    def at(r: int, beat: int):
        # a value at most beat may be the size of a larger certificate than
        # x's least, which the max never needs
        xm, fx = members[r], table[r]
        diffs = [xm ^ ym for ym, label in zip(members, table) if label != fx]
        return min_hitting_set(diffs, dom.n, beat) if diffs else (0, 0)

    value, r, mask = max_over_inputs(f, x, at)
    xm = members[r]
    w = {"input": mask_to_string(xm, dom.n)}
    w.update(Assignment(zeros=mask & ~xm, ones=mask & xm).to_json_obj())
    return value, w


def max_over_inputs(f: LabeledFunction, x: int | None, at, max_others=None):
    """(value, rank, found) for the input x, or else for the lowest-rank
    input that maximizes a pointwise measure.

    at(r, beat) gives (value, found) for the input of rank r, or None when
    its value is at most beat; with x given it is called once, at beat -1.
    The max visits the ranks in order and drops those certificate_skip(f,
    max_others) rules out at the running maximum, which only a strictly
    larger value replaces.
    """
    if x is not None:
        r = f.domain.rank(x)
        value, found = at(r, -1)
        return value, r, found
    skip = certificate_skip(f, max_others)
    best = (-1, None, None)
    for r in range(f.domain.size):
        if not skip(r, best[0]):
            got = at(r, best[0])
            if got is not None and got[0] > best[0]:
                best = (got[0], r, got[1])
    return best


def certificate_skip(f: LabeledFunction, max_others: int | None = None):
    """skip(r, beat) for max_over_inputs: True when x = members[r] cannot
    raise a running maximum beat of C, bs or s.

    That holds when a greedy hitting set of x's difference masks has at most
    beat positions, since s(f, x) <= bs(f, x) <= C(f, x) <= any such hitting
    set (Buhrman and de Wolf, TCS 2002).  The items are the ranks of the
    members labelled unlike x, and position p hits the ranks whose bit p
    differs from x_p, so the greedy runs on the position rank bitsets
    without building a difference list.  No x with more than max_others
    such members is skipped.
    """
    dom = f.domain
    members, table = member_masks(dom), f.table
    full = (1 << dom.size) - 1
    # pairs[p][b]: the ranks whose bit p differs from b
    pairs = [(ones, full ^ ones) for ones in position_rank_bitsets(dom)]
    others_by_label = [full ^ lb for lb in f.label_bitsets]

    def skip(r: int, beat: int) -> bool:
        others = others_by_label[table[r]]
        if beat < 0 or max_others is not None and others.bit_count() > max_others:
            return False
        xm = members[r]
        cols = [pair[xm >> p & 1] for p, pair in enumerate(pairs)]
        return greedy_cover(cols, others, beat) >= 0

    return skip


# -- unambiguous certificates --------------------------------------------------


def _monochromatic_assignments(f: LabeledFunction):
    """All assignments with a nonempty label-constant consistent set.

    Yields (zeros, ones, member bitset), deduplicated to the smallest
    assignment per member set (earliest in the position-major scan on ties).
    """
    dom = f.domain
    ones_at = position_rank_bitsets(dom)
    mono = f.is_single_label
    full = (1 << dom.size) - 1
    best: dict[int, tuple[int, int, int]] = {}

    def rec(p: int, zeros: int, ones: int, S: int) -> None:
        if p == dom.n:
            if mono(S):
                size = (zeros | ones).bit_count()
                kept = best.get(S)
                if kept is None or size < kept[0]:
                    best[S] = (size, zeros, ones)
            return
        bit = 1 << p
        rec(p + 1, zeros, ones, S)
        S0 = S & ~ones_at[p]
        if S0:
            rec(p + 1, zeros | bit, ones, S0)
        S1 = S & ones_at[p]
        if S1:
            rec(p + 1, zeros, ones | bit, S1)

    rec(0, 0, 0, full)
    return best


def unambiguous_certificate_complexity(f: LabeledFunction):
    """UC(f): smallest s admitting an exact cover of the domain by
    monochromatic certificates of size <= s.  Returns (value, witness)."""
    dom = f.domain
    if not f.is_boolean:
        raise DomainError("unambiguous certificates need a Boolean function")
    if dom.size > _UC_MAX_SIZE:
        raise ResourceCapError(f"UC capped at domain size <= {_UC_MAX_SIZE}")
    if dom.n > _UC_MAX_N:
        raise ResourceCapError(f"UC capped at n <= {_UC_MAX_N}")
    candidates = _monochromatic_assignments(f)
    items = [(size, zeros, ones, S) for S, (size, zeros, ones) in candidates.items()]
    s, certs = _least_exact_cover((1 << dom.size) - 1, items, dom.n)
    return s, {"certificates": certs}


def subcube_partition_complexity(f: LabeledFunction):
    """SC(f): partition the whole cube into subcubes, each either missing the
    domain or label-constant on it, minimizing the max fixed-position count.
    Returns (value, witness)."""
    dom = f.domain
    if not f.is_boolean:
        raise DomainError("subcube partitions need a Boolean function")
    if dom.n > _SC_MAX_N:
        raise ResourceCapError(f"SC capped at n <= {_SC_MAX_N}")
    cube = whole_cube(dom.n)
    cube_at, points = position_rank_bitsets(cube), (1 << cube.size) - 1
    ones_at, full = position_rank_bitsets(dom), (1 << dom.size) - 1
    cells = []
    for zeros, ones in product(range(1 << dom.n), repeat=2):
        if zeros & ones:
            continue
        S = consistent_set(ones_at, full, zeros, ones)
        if not S or f.is_single_label(S):
            cell = consistent_set(cube_at, points, zeros, ones)
            cells.append(((zeros | ones).bit_count(), zeros, ones, cell))
    s, parts = _least_exact_cover(points, cells, dom.n)
    return s, {"subcubes": parts}


def _least_exact_cover(full: int, items, n: int):
    """Least s such that the sets of the (size, zeros, ones, set) items of
    size <= s exactly cover full, with the chosen assignments as JSON."""
    items = sorted(items)
    for s in range(n + 1):
        usable = [item for item in items if item[0] <= s]
        chosen = exact_cover(full, [item[3] for item in usable])
        if chosen is not None:
            return s, [
                Assignment(usable[i][1], usable[i][2]).to_json_obj() for i in chosen
            ]
    raise AssertionError("full assignments always cover exactly")


# -- balanced certificates ------------------------------------------------------


def balanced_certificate(f: LabeledFunction, min_mode: bool = False):
    """BC(f) (default max mode) or mBC(f) (min_mode=True).

    Only balanced assignments (equal fixed 0s and 1s) are admitted, so the
    domain must be a balanced slice.  Returns (value, witness).
    """
    best = None
    witness = None
    for xm in f.domain.members():
        v, w = balanced_certificate_at(f, xm)
        if best is None or (v < best if min_mode else v > best):
            best, witness = v, w
    return best, witness


def balanced_certificate_at(f: LabeledFunction, xm: int):
    """BC(f, x): the least balanced certificate at the member x, as
    (value, witness)."""
    dom = f.domain
    if not dom.is_balanced_slice:
        raise DomainError("balanced certificates need a balanced slice domain")
    if not f.is_boolean:
        raise DomainError("balanced certificates need a Boolean function")
    ones_at = position_rank_bitsets(dom)
    full = (1 << dom.size) - 1
    want = f.label_bitsets[f.table[dom.rank(xm)]]
    one_pos = [p for p in range(dom.n) if xm >> p & 1]
    zero_pos = [p for p in range(dom.n) if not xm >> p & 1]
    for h in range(dom.k + 1):
        for ones_pick in combinations(one_pos, h):
            S_ones = full
            for p in ones_pick:
                S_ones &= ones_at[p]
            for zeros_pick in combinations(zero_pos, h):
                S = S_ones
                for p in zeros_pick:
                    S &= ~ones_at[p]
                if not S & ~want:
                    w = {"input": mask_to_string(xm, dom.n)}
                    w.update(Assignment.of(zeros_pick, ones_pick).to_json_obj())
                    return 2 * h, w
    raise AssertionError("the full input is always a balanced certificate")
