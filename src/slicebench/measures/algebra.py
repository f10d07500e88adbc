"""Polynomial degree of Boolean functions over the rationals.

On a cube the multilinear representation is unique, so the degree falls out
of a subset Mobius transform.  On slices and explicit domains many
polynomials agree with f, so the degree is the least d for which the value
vector lies in the span of the monomial indicator vectors of degree at most
d; span membership runs fraction-free over the integers.
"""

from __future__ import annotations

from itertools import combinations

from ..errors import DomainError, ResourceCapError
from ..kernels import SpanBasis
from ..slicecore import Domain, LabeledFunction, member_masks

_DEG_MAX_SIZE = 1 << 14

_BASIS_CACHE: dict[tuple[Domain, int], SpanBasis] = {}


def degree(f: LabeledFunction):
    """deg(f); returns (value, witness).

    Cube witness: a maximum-degree monomial with nonzero coefficient,
    {"monomial": [positions]}.  Slice and explicit domains have no canonical
    monomial support, so their witness is None.
    """
    if not f.is_boolean:
        raise DomainError("degree is defined here for Boolean functions only")
    if f.domain.size > _DEG_MAX_SIZE:
        raise ResourceCapError(f"degree capped at domain size <= {_DEG_MAX_SIZE}")
    if f.domain.kind == "cube":
        return _degree_cube(f)
    return _degree_span(f)


def _degree_cube(f: LabeledFunction):
    n = f.domain.n
    coef = f.indices()
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


def _degree_span(f: LabeledFunction):
    dom = f.domain
    vec = f.table
    for d in range(dom.n + 1):
        if _monomial_basis(dom, d).contains(vec):
            return d, None
    raise AssertionError("degree-n monomials span every function on the domain")


def _monomial_basis(dom: Domain, d: int) -> SpanBasis:
    """Span of all monomial indicators of degree <= d, cached per domain."""
    key = (dom, d)
    basis = _BASIS_CACHE.get(key)
    if basis is None:
        basis = SpanBasis(dom.size) if d == 0 else _monomial_basis(dom, d - 1).copy()
        members = member_masks(dom)
        for subset in combinations(range(dom.n), d):
            mask = 0
            for p in subset:
                mask |= 1 << p
            basis.add([1 if mem & mask == mask else 0 for mem in members])
        _BASIS_CACHE[key] = basis
    return basis
