"""Certificate-style measures: plain, unambiguous, partition, and balanced.

A certificate for an input is a partial assignment consistent with it whose
consistent domain members all carry the input's label.  The variants differ
in what collection structure is demanded (none / exact cover of the domain /
partition of the whole cube / balanced assignments only).

C, s, bs and bs2 share one input scan, max_over_inputs, with one skip
rule.  It visits the inputs in rank order, and certificate_skip drops x
before any exact work when a greedy hitting set of x's difference masks,
taken on the position rank bitsets, is no larger than the running maximum;
every other input is searched exactly, and the lowest rank wins ties.  The
greedy sizes are computed once per function, on its first scan, and kept
for the last few functions, so C, s, bs, bs2 and the recomputes in verify
read one vector.

UC and SC are one search over two universes: the least s such that cells of
at most s fixed positions, each label-constant where it meets the domain,
exactly cover the universe.  UC's universe is the domain and SC's the whole
cube; _cells walks every assignment once and _least_exact_cover searches.

BC and mBC decide each input at one level.  The level lemma: when h < n/2,
a balanced certificate at x with h fixed ones and h fixed zeros grows into
one with h + 1 of each (fix one more 1 and one more 0 of x; the consistent
set only shrinks), so BC(f, x) <= 2h exactly when x has a balanced
certificate at level h.  The scan runs the least search at the first input;
every later input gets one yes/no question from balanced_level, at level
best/2 for BC and best/2 - 1 for mBC, and the least search only when it
beats the running extreme.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from ..kernels import exact_cover, greedy_cover, min_hitting_set
from ..slicecore import (
    Assignment,
    Domain,
    LabeledFunction,
    mask_positions,
    mask_to_string,
    member_masks,
    position_rank_bitsets,
    whole_cube,
)

# per-function results are kept for the last _SCAN_SLOTS functions scanned
_SCAN_SLOTS = 4


def certificate_complexity(f: LabeledFunction, x: int | None = None):
    """C(f) or C(f, x); returns (value, witness).

    Witness: {"input": bit string, "zeros": [...], "ones": [...]}; the max
    mode reports the lowest-rank input attaining the maximum.
    """
    dom = f.domain
    members, table = member_masks(dom), f.table

    def at(r: int):
        xm, fx = members[r], table[r]
        diffs = [xm ^ ym for ym, label in zip(members, table) if label != fx]
        return min_hitting_set(diffs, dom.n) if diffs else (0, 0)

    value, r, mask = max_over_inputs(f, x, at)
    xm = members[r]
    w = {"input": mask_to_string(xm, dom.n)}
    w.update(Assignment(zeros=mask & ~xm, ones=mask & xm).to_json_obj())
    return value, w


def max_over_inputs(f: LabeledFunction, x: int | None, at, max_others=None):
    """(value, rank, found) for the input x, or else for the lowest-rank
    input that maximizes a pointwise measure.

    at(r) gives the exact (value, found) for the input of rank r; with x
    given it is called once.  The max visits the ranks in order and drops
    those certificate_skip(f, max_others) rules out at the running maximum,
    the one skip rule, which only a strictly larger value replaces.
    """
    if x is not None:
        r = f.domain.rank(x)
        value, found = at(r)
        return value, r, found
    skip = certificate_skip(f, max_others)
    best = (-1, None, None)
    for r in range(f.domain.size):
        if not skip(r, best[0]):
            value, found = at(r)
            if value > best[0]:
                best = (value, r, found)
    return best


def certificate_skip(f: LabeledFunction, max_others: int | None = None):
    """skip(r, beat) for max_over_inputs: True when x = members[r] cannot
    raise a running maximum beat of C, bs or s.

    That holds when a greedy hitting set of x's difference masks has at most
    beat positions, since s(f, x) <= bs(f, x) <= C(f, x) <= any such hitting
    set (Buhrman and de Wolf, TCS 2002).  No x with more than max_others
    members labelled unlike it is skipped.
    """
    sizes, table = _greedy_sizes(f), f.table
    others = [f.domain.size - lb.bit_count() for lb in f.label_bitsets]

    def skip(r: int, beat: int) -> bool:
        if beat < 0 or max_others is not None and others[table[r]] > max_others:
            return False
        return sizes[r] <= beat

    return skip


@lru_cache(maxsize=_SCAN_SLOTS)
def _greedy_sizes(f: LabeledFunction) -> tuple[int, ...]:
    """Per rank r, the size of the greedy hitting set of members[r]'s
    difference masks, or n + 1 where none exists.

    The items are the ranks of the members labelled unlike x, and position
    p hits the ranks whose bit p differs from x_p, so the greedy runs on the
    position rank bitsets without building a difference list.
    """
    dom = f.domain
    full = (1 << dom.size) - 1
    # pairs[p][b]: the ranks whose bit p differs from b
    pairs = [(ones, full ^ ones) for ones in position_rank_bitsets(dom)]
    others_by_label = [full ^ lb for lb in f.label_bitsets]
    sizes = []
    for xm, label in zip(member_masks(dom), f.table):
        cols = [pair[xm >> p & 1] for p, pair in enumerate(pairs)]
        chosen = greedy_cover(cols, others_by_label[label])
        sizes.append(chosen.bit_count() if chosen >= 0 else dom.n + 1)
    return tuple(sizes)


# -- unambiguous certificates and subcube partitions -------------------------------


def _cells(f: LabeledFunction, universe: Domain):
    """The (size, zeros, ones, cell) items of the assignments whose cell,
    their consistent rank set in universe, is nonempty and whose consistent
    domain members carry at most one label of the Boolean f.

    One item per cell: the smallest assignment, and on a tie the earliest in
    the position-major scan (each position free, then 0, then 1).
    """
    dom_at, cell_at = position_rank_bitsets(f.domain), position_rank_bitsets(universe)
    zero_set, one_set = f.label_bitsets
    best: dict[int, tuple[int, int, int, int]] = {}

    def rec(p: int, zeros: int, ones: int, S: int, cell: int) -> None:
        if p == universe.n:
            if not (S & zero_set and S & one_set):
                size = (zeros | ones).bit_count()
                kept = best.get(cell)
                if kept is None or size < kept[0]:
                    best[cell] = (size, zeros, ones, cell)
            return
        bit = 1 << p
        rec(p + 1, zeros, ones, S, cell)
        cell0 = cell & ~cell_at[p]
        if cell0:
            rec(p + 1, zeros | bit, ones, S & ~dom_at[p], cell0)
        cell1 = cell & cell_at[p]
        if cell1:
            rec(p + 1, zeros, ones | bit, S & dom_at[p], cell1)

    rec(0, 0, 0, (1 << f.domain.size) - 1, (1 << universe.size) - 1)
    return best.values()


def _least_exact_cover(universe: Domain, items):
    """Least s such that the cells of the (size, zeros, ones, cell) items of
    size <= s exactly cover universe, with the chosen assignments as JSON."""
    items = sorted(items)
    for s in range(universe.n + 1):
        usable = [item for item in items if item[0] <= s]
        chosen = exact_cover((1 << universe.size) - 1, [item[3] for item in usable])
        if chosen is not None:
            return s, [
                Assignment(usable[i][1], usable[i][2]).to_json_obj() for i in chosen
            ]
    raise AssertionError("full assignments always cover exactly")


def unambiguous_certificate_complexity(f: LabeledFunction):
    """UC(f): smallest s admitting an exact cover of the domain by
    label-constant certificates of size <= s.  Returns (value, witness)."""
    s, certs = _least_exact_cover(f.domain, _cells(f, f.domain))
    return s, {"certificates": certs}


def subcube_partition_complexity(f: LabeledFunction):
    """SC(f): partition the whole cube into subcubes, each either missing the
    domain or label-constant on it, minimizing the max fixed-position count.
    Returns (value, witness)."""
    cube = whole_cube(f.domain.n)
    s, parts = _least_exact_cover(cube, _cells(f, cube))
    return s, {"subcubes": parts}


# -- balanced certificates ------------------------------------------------------


def balanced_certificate(
    f: LabeledFunction, x: int | None = None, min_mode: bool = False
):
    """BC(f) or BC(f, x), or mBC(f) with min_mode=True; returns (value,
    witness).

    Only balanced assignments (equal fixed 0s and 1s) are admitted, so the
    domain must be a balanced slice; f must be Boolean.  Witness: {"input",
    "zeros", "ones"}, a least balanced certificate at x, or else at the
    lowest-rank input attaining the max (min).

    The least search at an input tries levels h = 0, 1, ... in turn, each
    as h ones picks then h zeros picks in combinations order.  By the level
    lemma, BC(f, x) <= 2h exactly when x has a balanced certificate at level
    h, so over the inputs one yes/no question decides whether x beats the
    running extreme 2h: for the max, whether x lacks one at level h; for the
    min, whether x has one at level h - 1.  Only an input that beats it gets
    the least search, so the lowest-rank winner and its witness are those of
    the least search at every input.
    """
    dom = f.domain
    members, table, labels = member_masks(dom), f.table, f.label_bitsets
    ones_at, full = position_rank_bitsets(dom), (1 << dom.size) - 1
    all_positions = (1 << dom.n) - 1

    def least(r: int, lo: int = 0):
        # levels below lo are known to hold no certificate at x
        xm = members[r]
        others = full ^ labels[table[r]]
        one_pos, zero_pos = mask_positions(xm), mask_positions(all_positions ^ xm)
        for h in range(lo, dom.k + 1):
            for ones_pick in combinations(one_pos, h):
                S_ones = full
                for p in ones_pick:
                    S_ones &= ones_at[p]
                for zeros_pick in combinations(zero_pos, h):
                    S = S_ones
                    for p in zeros_pick:
                        S &= ~ones_at[p]
                    if not S & others:
                        return 2 * h, r, zeros_pick, ones_pick
        raise AssertionError("the full input is always a balanced certificate")

    if x is not None:
        value, r, zeros, ones = least(dom.rank(x))
    else:
        # a later input replaces the extreme only when strictly beyond it,
        # so the lowest rank wins ties
        has_level = balanced_level(f)
        value, r, zeros, ones = least(0)
        for s in range(1, dom.size):
            h = value // 2 - 1 if min_mode else value // 2
            if has_level(s, h) is min_mode:
                value, r, zeros, ones = least(s, 0 if min_mode else h + 1)
    w = {"input": mask_to_string(members[r], dom.n)}
    w.update(Assignment.of(zeros, ones).to_json_obj())
    return value, w


def balanced_level(f: LabeledFunction):
    """has_level(r, h): True when x = members[r] has a balanced certificate
    at level h, with h fixed ones and h fixed zeros; f's domain must be a
    balanced slice.

    The search picks h of x's ones, then h of its zeros, each in ascending
    position order, carrying the running AND of the position rank bitsets
    (or their complements) over the members labelled unlike x.  It says yes
    at the first pick, partial or full, whose AND is empty, since by the
    level lemma such a pick grows into a full one, and it drops a branch
    whose AND meets the members agreeing with x on every position still
    open to it.
    """
    dom = f.domain
    k = dom.k
    members, table, labels = member_masks(dom), f.table, f.label_bitsets
    ones_at, full = position_rank_bitsets(dom), (1 << dom.size) - 1
    all_positions = (1 << dom.n) - 1

    def has_level(r: int, h: int) -> bool:
        if not 0 <= h < k:
            return h == k
        xm = members[r]
        # per position of x, ones first, the ranks agreeing with x there
        cols = [ones_at[p] for p in mask_positions(xm)]
        cols += [full ^ ones_at[p] for p in mask_positions(all_positions ^ xm)]
        # agree[i]: the ranks agreeing with x on every position of cols[i:],
        # which no picks from there can drop
        agree = [full] * (2 * k + 1)
        for i in range(2 * k - 1, -1, -1):
            agree[i] = agree[i + 1] & cols[i]

        def pick(i: int, a: int, b: int, T: int) -> bool:
            # can a more ones from cols[i:k], then b zeros from cols[k:] (b
            # more from cols[i:] once a is 0), drop every rank of T?
            if T & agree[i]:
                return False
            if a:
                for j in range(i, k - a + 1):
                    U = T & cols[j]
                    if not U or pick(j + 1 if a > 1 else k, a - 1, b, U):
                        return True
                return False
            for j in range(i, 2 * k - b + 1):
                U = T & cols[j]
                if not U or b > 1 and pick(j + 1, 0, b - 1, U):
                    return True
            return False

        others = full ^ labels[table[r]]
        return not others or h > 0 and pick(0, h, h, others)

    return has_level
