"""Decision trees over position queries.

A tree is either a Leaf carrying an alphabet index or a Node querying one
position with a subtree per answer.  Trees serialize to plain JSON objects so
witnesses can be stored and replayed.
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


def tree_from_json_obj(obj: dict) -> Tree:
    if "leaf" in obj:
        return Leaf(int(obj["leaf"]))
    return Node(
        position=int(obj["query"]),
        on_zero=tree_from_json_obj(obj["0"]),
        on_one=tree_from_json_obj(obj["1"]),
    )


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
    """Check the tree queries only positions in 0..n-1 and computes f on
    every domain member; raises DomainError otherwise."""
    dom = f.domain
    _check_queries(t, dom.n)
    for x, want in zip(member_masks(dom), f.table):
        got = evaluate(t, x)
        if got != want:
            raise DomainError(
                f"tree disagrees with function at {mask_to_string(x, dom.n)}:"
                f" tree gives index {got}, table has {want}"
            )


def _check_queries(t: Tree, n: int) -> None:
    if isinstance(t, Node):
        if not 0 <= t.position < n:
            raise DomainError(f"tree queries position {t.position} outside 0..{n - 1}")
        _check_queries(t.on_zero, n)
        _check_queries(t.on_one, n)
