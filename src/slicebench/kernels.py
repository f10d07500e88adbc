"""Small exact combinatorial solvers shared by the measure modules.

Everything here works on int bitmasks and is deterministic: ties break toward
lower bit positions or earlier list order, so repeated runs give identical
witnesses.

greedy_cover is the one greedy hitting set: items are bit indices, and each
position is given as the bitset of the items it hits, so a round is one
popcount per position.  min_hitting_set starts from it and runs its branch
and bound on the same bitsets, the unhit masks as one int, and is always
exact; the measures' input scan reads greedy_cover's sizes as its one skip
rule, an upper bound on C(f, x).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .slicecore import mask_positions


# -- minimum hitting set -----------------------------------------------------


def minimal_masks(masks: Iterable[int]) -> list[int]:
    """The distinct masks that contain no other mask, by size then value."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(m & k == k for k in kept):
            kept.append(m)
    return kept


def min_hitting_set(masks: Sequence[int], n: int) -> tuple[int, int]:
    """Smallest set of positions meeting every mask.

    Returns (size, chosen_positions_mask).  Masks must be nonzero.  The
    branch and bound starts from the greedy hitting set and keeps the first
    least set it meets, branching on the first unhit minimal mask and trying
    its positions in ascending order.
    """
    # hitting a subset hits the superset, so only minimal masks matter
    minimal = minimal_masks(masks)
    if not minimal:
        return 0, 0
    if minimal[0] == 0:
        raise ValueError("empty mask cannot be hit")
    # cols[p] holds the indices of the masks that position p hits
    cols = [0] * n
    for i, m in enumerate(minimal):
        for p in mask_positions(m):
            cols[p] |= 1 << i
    best = greedy_cover(cols, (1 << len(minimal)) - 1)
    size = best.bit_count()

    def go(alive: int, chosen: int, count: int) -> None:
        nonlocal best, size
        # alive masks taken in order while disjoint each need their own position
        rest, bound = alive, count
        while rest and bound < size:
            for p in mask_positions(minimal[(rest & -rest).bit_length() - 1]):
                rest &= ~cols[p]
            bound += 1
        if bound >= size:
            return
        if not alive:
            best, size = chosen, count
            return
        for p in mask_positions(minimal[(alive & -alive).bit_length() - 1]):
            go(alive & ~cols[p], chosen | 1 << p, count + 1)

    go((1 << len(minimal)) - 1, 0, 0)
    return size, best


def greedy_cover(cols: Sequence[int], alive: int) -> int:
    """Greedy hitting set over bitsets: cols[p] is the set of items position
    p hits.  Each round picks the position hitting the most alive items, the
    lowest p on ties.  Returns the mask of the picked positions once every
    alive item is hit, or -1 when some alive item is hit by no position.
    Its size is the measures' one skip rule (certificates.certificate_skip)."""
    chosen = 0
    while alive:
        counts = [(col & alive).bit_count() for col in cols]
        top = max(counts, default=0)
        if not top:
            return -1
        p = counts.index(top)
        chosen |= 1 << p
        alive &= ~cols[p]
    return chosen


# -- maximum disjoint packing ------------------------------------------------


def max_disjoint_packing(masks: Sequence[int]) -> tuple[int, list[int]]:
    """Largest pairwise-disjoint subfamily of the masks.

    Returns (count, chosen_masks).  Duplicates collapse; zero masks are
    rejected since they would pack without bound.
    """
    work = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    if work and work[0] == 0:
        raise ValueError("zero mask in packing instance")
    best: list[int] = []
    # tail[j] is the union of work[j:]; the masks there have at least
    # |work[j]| positions each, so at most |tail[j] & ~used| // |work[j]| fit
    tail = [0] * (len(work) + 1)
    for j in range(len(work) - 1, -1, -1):
        tail[j] = tail[j + 1] | work[j]

    def go(idx: int, used: int, chosen: list[int]) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        for j in range(idx, len(work)):
            m = work[j]
            if m & used:
                continue
            room = (tail[j] & ~used).bit_count() // m.bit_count()
            if len(chosen) + min(room, len(work) - j) <= len(best):
                break
            chosen.append(m)
            go(j + 1, used | m, chosen)
            chosen.pop()

    go(0, 0, [])
    return len(best), best


# -- exact cover --------------------------------------------------------------


def exact_cover(universe: int, sets: Sequence[int]) -> list[int] | None:
    """Partition the universe bitset using the given sets, or None.

    Returns chosen set indices.  Deterministic: always branches on the
    lowest uncovered element, trying covering sets in list order.
    """
    by_element: dict[int, list[int]] = {}
    for i, s in enumerate(sets):
        if s & ~universe:
            raise ValueError("set escapes universe")
        for p in mask_positions(s):
            by_element.setdefault(p, []).append(i)

    chosen: list[int] = []

    def go(rem: int) -> bool:
        if rem == 0:
            return True
        # branch on the uncovered element with the fewest usable sets
        target = -1
        options: list[int] | None = None
        for p in mask_positions(rem):
            opts = [i for i in by_element.get(p, ()) if not sets[i] & ~rem]
            if not opts:
                return False
            if options is None or len(opts) < len(options):
                target, options = p, opts
                if len(opts) == 1:
                    break
        for i in options:
            chosen.append(i)
            if go(rem & ~sets[i]):
                return True
            chosen.pop()
        return False

    return chosen if go(universe) else None


# -- maximum clique ------------------------------------------------------------


def max_clique(adj: Sequence[int], n: int) -> tuple[int, int]:
    """Largest clique given adjacency bitmask rows; returns (size, vertex mask).

    Branch and bound with a greedy-coloring upper bound.
    """
    best = {"size": 0, "mask": 0}

    def color_order(cand: int) -> list[tuple[int, int]]:
        # greedy coloring; color number bounds clique size within cand
        order: list[tuple[int, int]] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(1 << v) & ~adj[v]
                rest &= ~(1 << v)
                order.append((v, color))
        return order

    def go(cand: int, cur: int, size: int) -> None:
        if size > best["size"]:
            best["size"] = size
            best["mask"] = cur
        if not cand:
            return
        order = color_order(cand)
        for v, color in reversed(order):
            if size + color <= best["size"]:
                return
            bit = 1 << v
            go(cand & adj[v] & ~bit, cur | bit, size + 1)
            cand &= ~bit

    go((1 << n) - 1, 0, 0)
    return best["size"], best["mask"]


def max_independent_set(adj: Sequence[int], n: int) -> tuple[int, int]:
    full = (1 << n) - 1
    comp = tuple((full ^ adj[v]) & ~(1 << v) for v in range(n))
    return max_clique(comp, n)


# -- bipartite matching ---------------------------------------------------------


def max_bipartite_matching(
    left: Sequence[int], neighbors: dict[int, int]
) -> tuple[int, list[tuple[int, int]]]:
    """Maximum matching; neighbors[u] is a bitmask of right vertices.

    Returns (size, matched (left, right) pairs sorted by left vertex).
    """
    match_right: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for v in mask_positions(neighbors.get(u, 0)):
            if v in seen:
                continue
            seen.add(v)
            if v not in match_right or augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    size = 0
    for u in left:
        if augment(u, set()):
            size += 1
    pairs = sorted((u, v) for v, u in match_right.items())
    return size, pairs


# -- exact linear span, fraction-free over the integers --------------------------


class SpanBasis:
    """Incremental row space with exact integer arithmetic.

    Rows are kept fully reduced (zero in every other pivot column), primitive
    (content 1), and with positive pivots, so reducing a vector in pivot
    order leaves exactly the out-of-span component.  Membership is over the
    rationals; integer scaling never changes it.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[tuple[int, list[int]]] = []  # (pivot col, row)

    @staticmethod
    def _normalize(vec: list[int]) -> tuple[int, list[int]] | None:
        g = 0
        for v in vec:
            g = math.gcd(g, v)
        if g == 0:
            return None
        pc = next(i for i, v in enumerate(vec) if v)
        if vec[pc] < 0:
            g = -g
        return pc, [v // g for v in vec]

    def _reduce(self, vec: list[int]) -> list[int]:
        for pc, row in self.rows:
            c = vec[pc]
            if c:
                lead = row[pc]
                vec = [lead * a - c * b for a, b in zip(vec, row)]
                g = 0
                for v in vec:
                    g = math.gcd(g, v)
                if g > 1:
                    vec = [v // g for v in vec]
        return vec

    def add(self, vec: Sequence[int]) -> bool:
        """Insert a row; returns True when it enlarged the span."""
        norm = self._normalize(self._reduce([int(v) for v in vec]))
        if norm is None:
            return False
        pc, new = norm
        updated = []
        for qc, row in self.rows:
            c = row[pc]
            if c:
                lead = new[pc]
                row = [lead * a - c * b for a, b in zip(row, new)]
                row = self._normalize(row)[1]
            updated.append((qc, row))
        updated.append((pc, new))
        updated.sort(key=lambda t: t[0])
        self.rows = updated
        return True

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self._reduce([int(v) for v in vec]))
