"""Counting lower bounds for query depth, plus the graph quantity they use.

Any depth-D tree splits the domain into at most 2^D subcube traces, and each
all-ones trace holds at most m ones, where m is the largest number of
1-inputs any 1-monochromatic subcube captures.  Hence D >= ceil(log2(ones/m)).

m is found by a depth-first search that decides each position in turn as
free, fixed to 0 or fixed to 1, in that order, and records a node that is
1-monochromatic with more 1-inputs than the best so far.  A node is cut
when the 1-inputs it could still count are no more than the best.  Those
leave out the dead ones: a 1-input x is dead once a 0-input z = x ^ D is one
elementary move away (one of slicecore.neighbours: a swap on a slice, a
flip elsewhere) and every position of D has been left free, for
every subcube below the node that holds x then holds z too.  At a position
constant on the node's members, the one nonempty fixed branch has, node for
node, the members of the free branch searched just before it, so it is not
searched.  Both cuts drop only subtrees with no node above the best, so the
nodes that set a record, and with them the value and the witness (the first
node in free/0/1 preorder to reach the maximum), are those of the uncut
search.  The scan runs once per function: its result is kept for the last
few functions, so m, packing and both their checks share it, and each call
builds its own witness.
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import ResourceCapError
from ..kernels import max_clique, max_independent_set
from ..slicecore import (
    LabeledFunction,
    SliceGraph,
    mask_positions,
    member_masks,
    member_ranks,
    neighbours,
    position_rank_bitsets,
)

_MONO_MAX_N = 40
# subcube scans are kept for the last _SCAN_SLOTS functions
_SCAN_SLOTS = 4


def max_one_subcube_intersection(f: LabeledFunction):
    """Largest count of 1-inputs inside any subcube where f is constant 1.

    Returns (count, witness assignment or None when f has no 1-inputs).
    """
    if not f.label_bitsets[1]:
        return 0, None
    count, zeros, ones = _subcube_scan(f)
    return count, {"zeros": mask_positions(zeros), "ones": mask_positions(ones)}


@lru_cache(maxsize=_SCAN_SLOTS)
def _subcube_scan(f: LabeledFunction) -> tuple[int, int, int]:
    """(m, zeros, ones) for a Boolean f with 1-inputs: the first node in
    free/0/1 preorder to reach the maximum, as position masks."""
    dom = f.domain
    ones_set = f.label_bitsets[1]
    ones_at = position_rank_bitsets(dom)
    full = (1 << dom.size) - 1
    zeros_set = full ^ ones_set
    kills = _kill_table(f, full)
    best = {"count": 0, "zeros": 0, "ones": 0}

    def rec(p: int, zeros: int, ones: int, S: int, alive: int) -> None:
        count = (S & alive).bit_count()
        if count <= best["count"]:
            return
        if not S & zeros_set:
            # already 1-monochromatic, so nothing in it is dead; shrinking
            # it further cannot help
            best["count"] = count
            best["zeros"], best["ones"] = zeros, ones
            return
        if p == dom.n:
            return
        bit = 1 << p
        # with p left free, each move whose positions are all free kills
        free = (2 * bit - 1) & ~(zeros | ones)
        spared = alive
        for move, survivors in kills[p]:
            if not move & ~free:
                spared &= survivors
        rec(p + 1, zeros, ones, S, spared)
        S1 = S & ones_at[p]
        if S1 and S1 != S:
            rec(p + 1, zeros | bit, ones, S ^ S1, alive)
            rec(p + 1, zeros, ones | bit, S1, alive)

    rec(0, 0, 0, full, ones_set)
    return best["count"], best["zeros"], best["ones"]


def _kill_table(f: LabeledFunction, full: int) -> list[list[tuple[int, int]]]:
    """Per position p, a (move, survivors) pair for each elementary move
    whose highest position is p and that joins some 1-input x to a 0-input
    x ^ move: survivors is the rank bitset of the members it leaves alive,
    all but those x."""
    dom = f.domain
    ranks, table, size = member_ranks(dom), f.table, dom.size
    hits: dict[int, list[int]] = {}
    for r, x in enumerate(member_masks(dom)):
        if table[r] == 1:
            for y in neighbours(dom, x):
                if not table[ranks[y]]:
                    hits.setdefault(x ^ y, []).append(r)
    kills: list[list[tuple[int, int]]] = [[] for _ in range(dom.n)]
    for move, rs in hits.items():
        # the killed ranks as a binary numeral, highest rank first
        digits = bytearray(b"0" * size)
        for r in rs:
            digits[size - 1 - r] = ord("1")
        kills[move.bit_length() - 1].append((move, full ^ int(digits, 2)))
    return kills


def packing_lower_bound(f: LabeledFunction):
    """ceil(log2(ones / m)) with m as above; returns (value, witness)."""
    m, _ = max_one_subcube_intersection(f)
    ones = f.label_bitsets[1].bit_count()
    if ones == 0:
        return 0, {"ones": 0, "subcube_max": m}
    value = ((ones + m - 1) // m - 1).bit_length()
    return value, {"ones": ones, "subcube_max": m}


def monochromatic_number(g: SliceGraph):
    """max(clique number, independence number); ties report the clique.

    Returns (value, {"kind": "clique" | "independent", "vertices": [...]}).
    """
    if g.n > _MONO_MAX_N:
        raise ResourceCapError(f"monochromatic number capped at n <= {_MONO_MAX_N}")
    cs, cmask = max_clique(g.adj, g.n)
    isz, imask = max_independent_set(g.adj, g.n)
    if cs >= isz:
        kind, size, mask = "clique", cs, cmask
    else:
        kind, size, mask = "independent", isz, imask
    vertices = [v for v in range(g.n) if mask >> v & 1]
    return size, {"kind": kind, "vertices": vertices}
