"""Decision trees over position queries.

A tree is either a Leaf carrying an alphabet index or a Node querying one
position with a subtree per answer.  Trees serialize to plain JSON objects so
witnesses can be stored and replayed; check_tree reads such an object back
and checks it against a function in one walk, refusing non-int leaves or
queries, queries outside 0..n-1, trees deeper than the domain's n, and any
member whose leaf carries another label.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DomainError
from ..slicecore import (
    LabeledFunction,
    mask_to_string,
    member_masks,
    position_rank_bitsets,
)


@dataclass(frozen=True)
class Leaf:
    label_index: int

    def to_json_obj(self) -> dict:
        return {"leaf": self.label_index}


@dataclass(frozen=True)
class Node:
    position: int
    on_zero: "Leaf | Node"
    on_one: "Leaf | Node"

    def to_json_obj(self) -> dict:
        return {
            "query": self.position,
            "0": self.on_zero.to_json_obj(),
            "1": self.on_one.to_json_obj(),
        }


Tree = Leaf | Node


def check_tree(obj, f: LabeledFunction) -> int:
    """Depth of the JSON tree obj, checked to compute f in one walk that
    carries the rank bitset of the members reaching each node.  Raises
    DomainError on a non-int leaf or query (bools too), a query outside
    0..n-1 or a tree more than n deep, and after the walk at the lowest-rank
    member whose leaf has another label; a missing key raises KeyError and
    a node that is not an object TypeError."""
    dom = f.domain
    n = dom.n
    ones_at = position_rank_bitsets(dom)
    labels = f.label_bitsets
    wrong = []  # (rank, leaf) of the lowest-rank member each bad leaf gets wrong

    def walk(obj, S: int, depth: int) -> int:
        if "leaf" in obj:
            leaf = obj["leaf"]
            if type(leaf) is not int:
                raise DomainError(f"tree leaf {leaf!r} is not an int")
            bad = S & ~labels[leaf] if 0 <= leaf < len(labels) else S
            if bad:
                wrong.append(((bad & -bad).bit_length() - 1, leaf))
            return depth
        if depth == n:  # a valid tree never repeats a position on a path
            raise DomainError(f"tree is more than n = {n} queries deep")
        p = obj["query"]
        if type(p) is not int or not 0 <= p < n:
            raise DomainError(f"tree query {p!r} is not a position in 0..{n - 1}")
        S1 = S & ones_at[p]
        return max(walk(obj["0"], S ^ S1, depth + 1), walk(obj["1"], S1, depth + 1))

    value = walk(obj, (1 << dom.size) - 1, 0)
    if wrong:
        r, got = min(wrong)
        x = mask_to_string(member_masks(dom)[r], n)
        raise DomainError(
            f"tree disagrees with function at {x}:"
            f" tree gives index {got}, table has {f.table[r]}"
        )
    return value
