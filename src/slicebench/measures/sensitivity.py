"""Pointwise and block sensitivity.

On a slice the elementary moves are transpositions (swap a 1 with a 0), so
pointwise sensitivity is a maximum matching between swap partners.  On a cube
it is the usual count of label-changing bit flips; explicit domains count
only flips that land back inside the domain.  Block sensitivity packs
disjoint label-changing flip sets and is domain-generic.
"""

from __future__ import annotations

from ..errors import ResourceCapError
from ..kernels import max_bipartite_matching, max_disjoint_packing, minimal_masks
from ..slicecore import LabeledFunction, mask_to_string, member_masks

_DEFAULT_BLOCK_CAP = 20000


def sensitivity(f: LabeledFunction, x: int | None = None):
    """s(f) or s(f, x); returns (value, witness).

    Slice witness: {"input", "swaps": [[one_pos, zero_pos], ...]}.
    Cube and explicit witness: {"input", "positions": [...]}.
    """
    if x is not None:
        f.domain.rank(x)
        return _sensitivity_at(f, x)
    best = -1
    witness = None
    for xm in f.domain.members():
        v, w = _sensitivity_at(f, xm)
        if v > best:
            best, witness = v, w
    return best, witness


def _sensitivity_at(f: LabeledFunction, xm: int):
    dom = f.domain
    fx = f.evaluate(xm)
    if dom.kind == "slice":
        one_pos = [p for p in range(dom.n) if xm >> p & 1]
        zero_mask_by_one: dict[int, int] = {}
        for i in one_pos:
            for j in range(dom.n):
                if xm >> j & 1:
                    continue
                if f.evaluate(xm ^ (1 << i) ^ (1 << j)) != fx:
                    zero_mask_by_one[i] = zero_mask_by_one.get(i, 0) | 1 << j
        size, pairs = max_bipartite_matching(one_pos, zero_mask_by_one)
        w = {"input": mask_to_string(xm, dom.n), "swaps": [[i, j] for i, j in pairs]}
        return size, w
    positions = []
    for p in range(dom.n):
        y = xm ^ (1 << p)
        if dom.kind == "explicit" and y not in dom:
            continue
        if f.evaluate(y) != fx:
            positions.append(p)
    return len(positions), {"input": mask_to_string(xm, dom.n), "positions": positions}


def block_sensitivity(
    f: LabeledFunction,
    x: int | None = None,
    max_block_size: int | None = None,
    block_cap: int = _DEFAULT_BLOCK_CAP,
):
    """bs(f) or bs(f, x); returns (value, witness).

    A block is a set of positions whose joint flip stays in the domain and
    changes the label.  Only inclusion-minimal blocks matter for packing;
    max_block_size restricts admissible block sizes (2 gives the
    transposition-only variant).  Witness: {"input", "blocks": [[pos...]]}.
    """
    dom = f.domain
    ranks = range(dom.size) if x is None else [dom.rank(x)]
    members, table = member_masks(dom), f.table
    best = -1
    witness = None
    for r in ranks:
        v, w = _block_sensitivity_at(
            dom.n, members, table, r, max_block_size, block_cap
        )
        if v > best:
            best, witness = v, w
    return best, witness


def _block_sensitivity_at(n, members, table, r, max_block_size, block_cap):
    xm = members[r]
    fx = table[r]
    masks = []
    for ym, label in zip(members, table):
        if label == fx:
            continue
        m = xm ^ ym
        if max_block_size is None or m.bit_count() <= max_block_size:
            masks.append(m)
    minimal = minimal_masks(masks)
    if len(minimal) > block_cap:
        raise ResourceCapError(
            f"{len(minimal)} minimal blocks exceed the packing cap {block_cap}"
        )
    count, chosen = max_disjoint_packing(minimal)
    blocks = [[p for p in range(n) if m >> p & 1] for m in chosen]
    return count, {"input": mask_to_string(xm, n), "blocks": blocks}
