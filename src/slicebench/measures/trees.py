"""Decision trees over position queries.

A tree is either a Leaf carrying an alphabet index or a Node querying one
position with a subtree per answer.  Trees serialize to plain JSON objects so
witnesses can be stored and replayed; parsing one back refuses non-int leaves
or queries, queries outside 0..n-1, and trees deeper than the domain's n.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DomainError
from ..slicecore import LabeledFunction, mask_to_string, member_masks


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


def tree_from_json_obj(obj: dict, n: int, depth: int = 0) -> Tree:
    """Parse a tree whose leaves and queries are ints (not bools), each
    query a position in 0..n-1, at most n queries deep (depth counts those
    above obj); raises DomainError otherwise."""
    if "leaf" in obj:
        leaf = obj["leaf"]
        if type(leaf) is not int:
            raise DomainError(f"tree leaf {leaf!r} is not an int")
        return Leaf(leaf)
    if depth == n:  # a valid tree never repeats a position on a path
        raise DomainError(f"tree is more than n = {n} queries deep")
    p = obj["query"]
    if type(p) is not int or not 0 <= p < n:
        raise DomainError(f"tree query {p!r} is not a position in 0..{n - 1}")
    return Node(p, *(tree_from_json_obj(obj[b], n, depth + 1) for b in "01"))


def depth(t: Tree) -> int:
    if isinstance(t, Leaf):
        return 0
    return 1 + max(depth(t.on_zero), depth(t.on_one))


def evaluate(t: Tree, mask: int) -> int:
    """Run the tree on an input; returns the leaf's alphabet index."""
    while isinstance(t, Node):
        t = t.on_one if mask >> t.position & 1 else t.on_zero
    return t.label_index


def validate(t: Tree, f: LabeledFunction) -> None:
    """Check the tree computes f on every domain member; raises
    DomainError otherwise."""
    dom = f.domain
    for x, want in zip(member_masks(dom), f.table):
        got = evaluate(t, x)
        if got != want:
            raise DomainError(
                f"tree disagrees with function at {mask_to_string(x, dom.n)}:"
                f" tree gives index {got}, table has {want}"
            )
