"""Counting lower bounds for query depth, plus the graph quantity they use.

Any depth-D tree splits the domain into at most 2^D subcube traces, and each
all-ones trace holds at most m ones, where m is the largest number of
1-inputs any 1-monochromatic subcube captures.  Hence D >= ceil(log2(ones/m)).
"""

from __future__ import annotations

from ..errors import DomainError, ResourceCapError
from ..kernels import max_clique, max_independent_set
from ..slicecore import LabeledFunction, SliceGraph, mask_positions, position_rank_bitsets

_SUBCUBE_MAX_N = 14
_MONO_MAX_N = 40


def max_one_subcube_intersection(f: LabeledFunction):
    """Largest count of 1-inputs inside any subcube where f is constant 1.

    Returns (count, witness assignment or None when f has no 1-inputs).
    """
    dom = f.domain
    if not f.is_boolean:
        raise DomainError("1-subcube scan needs a Boolean function")
    if dom.n > _SUBCUBE_MAX_N:
        raise ResourceCapError(f"subcube scan capped at n <= {_SUBCUBE_MAX_N}")
    ones_set = f.label_bitsets[1]
    if not ones_set:
        return 0, None
    ones_at = position_rank_bitsets(dom)
    full = (1 << dom.size) - 1
    best = {"count": 0, "zeros": 0, "ones": 0}

    def rec(p: int, zeros: int, ones: int, S: int) -> None:
        live = (S & ones_set).bit_count()
        if live <= best["count"]:
            return
        if not S & ~ones_set:
            # already 1-monochromatic; shrinking it further cannot help
            best["count"] = live
            best["zeros"], best["ones"] = zeros, ones
            return
        if p == dom.n:
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
    zeros, ones = mask_positions(best["zeros"]), mask_positions(best["ones"])
    return best["count"], {"zeros": zeros, "ones": ones}


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
