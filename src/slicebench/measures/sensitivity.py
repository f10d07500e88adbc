"""Pointwise and block sensitivity.

Pointwise sensitivity reads the elementary moves of slicecore.neighbours.
On a slice they are transpositions (swap a 1 with a 0), so it is a maximum
matching between swap partners; elsewhere it is the count of label-changing
flips that stay in the domain.  Block sensitivity packs disjoint
label-changing flip sets and is domain-generic.

Both are a pointwise search plus certificates.max_over_inputs, whose one
skip rule holds since s(f, x) <= bs(f, x) <= C(f, x); every input it keeps
is searched exactly.  bs never skips an input with more unlike members than
block_cap, so the cap still fires.  On a cube, s(f) counts every input's
sensitive flips at once in bit-sliced counters over the label bitsets, and
the scan checks only the first input with the top count.
"""

from __future__ import annotations

from functools import partial

from ..errors import ResourceCapError
from ..kernels import max_bipartite_matching, max_disjoint_packing, minimal_masks
from ..slicecore import (
    LabeledFunction,
    mask_positions,
    mask_to_string,
    member_masks,
    member_ranks,
    neighbours,
)
from .certificates import max_over_inputs

_DEFAULT_BLOCK_CAP = 20000


def sensitivity(f: LabeledFunction, x: int | None = None):
    """s(f) or s(f, x); returns (value, witness).

    Slice witness: {"input", "swaps": [[one_pos, zero_pos], ...]}.
    Cube and explicit witness: {"input", "positions": [...]}.  The max mode
    reports the lowest-rank input attaining the maximum.
    """
    dom = f.domain
    members, ranks, table = member_masks(dom), member_ranks(dom), f.table
    if x is None and dom.kind == "cube":
        x = _most_sensitive_cube_input(dom.n, f.label_bitsets)
    value, r, found = max_over_inputs(
        f, x, lambda r: _sensitivity_at(dom, ranks, table, members[r])
    )
    w = {"input": mask_to_string(members[r], dom.n)}
    if dom.kind == "slice":
        w["swaps"] = [[i, j] for i, j in found]
    else:
        w["positions"] = found
    return value, w


def _most_sensitive_cube_input(n, labels):
    """The lowest input of the n-cube with the most label-changing flips.

    On the cube rank = mask, so flipping bit p moves rank r to r ^ 2^p.  For
    each p the set of inputs whose flip changes the label is formed from the
    label bitsets, and added into bit-sliced counters: planes[i] holds bit i
    of every input's count.  The inputs with the top count are then narrowed
    plane by plane from the highest."""
    size = 1 << n
    full = (1 << size) - 1
    planes: list[int] = []
    for p in range(n):
        half = 1 << p
        # ranks with bit p clear: runs of half ones, every 2 * half bits
        low = full // ((1 << 2 * half) - 1) * ((1 << half) - 1)
        flips = 0
        for lb in labels:
            flips |= lb & ~((lb >> half & low) | (lb & low) << half)
        carry = flips
        for i, plane in enumerate(planes):
            planes[i] = plane ^ carry
            carry &= plane
            if not carry:
                break
        if carry:
            planes.append(carry)
    top = full
    for plane in reversed(planes):
        if top & plane:
            top &= plane
    return (top & -top).bit_length() - 1


def _sensitivity_at(dom, ranks, table, xm):
    """(s(f, xm), its sensitive swap pairs or flip positions)."""
    fx = table[ranks[xm]]
    moves = [xm ^ y for y in neighbours(dom, xm) if table[ranks[y]] != fx]
    if dom.kind != "slice":
        positions = [move.bit_length() - 1 for move in moves]
        return len(positions), positions
    # per 1's position, the mask of the 0 positions it swaps with sensitively
    partners: dict[int, int] = {}
    for move in moves:
        i = (move & xm).bit_length() - 1
        partners[i] = partners.get(i, 0) | move & ~xm
    return max_bipartite_matching(mask_positions(xm), partners)


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
    members, table = member_masks(dom), f.table
    at = partial(_block_sensitivity_at, members, table, max_block_size, block_cap)
    value, r, chosen = max_over_inputs(f, x, at, block_cap)
    blocks = [mask_positions(m) for m in chosen]
    return value, {"input": mask_to_string(members[r], dom.n), "blocks": blocks}


def _block_sensitivity_at(members, table, max_block_size, block_cap, r):
    """(bs(f, x), its blocks) for x = members[r], by an exact packing of its
    minimal blocks; the scan's one skip rule is certificate_skip's."""
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
    return max_disjoint_packing(minimal)
