"""Polynomial degree of Boolean functions over the rationals, by domain kind.

- Cube: the multilinear representation is unique, so the degree falls out
  of a subset Mobius transform, which also names a top monomial.
- Slice(n, k): the functions of degree <= d are exactly the first d + 1
  eigenspaces V_0, ..., V_d of the Johnson graph J(n, k), on which the
  adjacency operator A acts as lambda_d = (k - d)(n - k - d) - d, and
  d <= min(k, n - k).  These eigenvalues are distinct, so f has degree <= d
  iff (A - lambda_0)...(A - lambda_d) f = 0: a few integer mat-vecs.
- Explicit domains: the least d for which the value vector lies in the span
  of the monomial indicator vectors of degree at most d; span membership
  runs fraction-free over the integers.
"""

from __future__ import annotations

from itertools import combinations

from ..kernels import SpanBasis
from ..slicecore import LabeledFunction, member_masks, member_ranks, neighbours


def degree(f: LabeledFunction):
    """deg(f); returns (value, witness).

    Cube witness: a maximum-degree monomial with nonzero coefficient,
    {"monomial": [positions]}.  Slice and explicit domains have no canonical
    monomial support, so their witness is None.
    """
    if f.domain.kind == "cube":
        return _degree_cube(f)
    if f.domain.kind == "slice":
        return _degree_slice(f)
    return _degree_span(f)


def _degree_cube(f: LabeledFunction):
    n = f.domain.n
    coef = list(f.table)
    for p in range(n):
        bit = 1 << p
        for m in range(1 << n):
            if m & bit:
                coef[m] -= coef[m ^ bit]
    deg = 0
    mono = 0
    for m in range(1 << n):
        if coef[m] and m.bit_count() > deg:
            deg = m.bit_count()
            mono = m
    return deg, {"monomial": [p for p in range(n) if mono >> p & 1]}


def _degree_slice(f: LabeledFunction):
    dom = f.domain
    n, k = dom.n, dom.k
    ranks = member_ranks(dom)
    # the Johnson graph's adjacency lists, by rank
    near = [[ranks[y] for y in neighbours(dom, x)] for x in member_masks(dom)]
    h = list(f.table)
    for d in range(min(k, n - k) + 1):
        lam = (k - d) * (n - k - d) - d
        h = [sum(map(h.__getitem__, adj)) - lam * v for adj, v in zip(near, h)]
        if not any(h):
            return d, None
    raise AssertionError("V_0, ..., V_min(k, n-k) span every function on the slice")


def _degree_span(f: LabeledFunction):
    dom = f.domain
    vec = f.table
    members = member_masks(dom)
    # after step d the basis spans the monomial indicators of degree <= d
    basis = SpanBasis(dom.size)
    for d in range(dom.n + 1):
        for subset in combinations(range(dom.n), d):
            mask = sum(1 << p for p in subset)
            basis.add([1 if mem & mask == mask else 0 for mem in members])
        if basis.contains(vec):
            return d, None
    raise AssertionError("degree-n monomials span every function on the domain")
