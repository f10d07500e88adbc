"""Domains, assignments, functions, consistent sets, and graph round-trips."""

import inspect
import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicebench import slicecore
from slicebench.errors import DomainError, MembershipError
from slicebench.measures.sensitivity import sensitivity
from slicebench.slicecore import (
    BOOLEAN,
    Assignment,
    Domain,
    LabeledFunction,
    SliceGraph,
    colex_rank,
    consistent_set,
    from_graph,
    iter_colex_masks,
    mask_to_string,
    member_masks,
    member_ranks,
    neighbours,
    position_rank_bitsets,
    string_to_mask,
    to_graph,
)


def test_string_convention_index_is_position():
    assert string_to_mask("0010") == 0b100
    assert string_to_mask("1000") == 1
    assert mask_to_string(0b1100, 4) == "0011"
    for s in ("", "0", "0110", "111000"):
        assert mask_to_string(string_to_mask(s), len(s)) == s


def test_string_rejects_non_bits():
    with pytest.raises(DomainError):
        string_to_mask("01x0")


def test_colex_enumeration_is_increasing_masks():
    for n in range(13):
        for k in range(n + 1):
            masks = list(iter_colex_masks(n, k))
            assert masks == sorted(m for m in range(1 << n) if m.bit_count() == k)
            for r, m in enumerate(masks):
                assert colex_rank(m) == r


@pytest.mark.parametrize(
    "dom",
    [
        Domain.slice(5, 2),
        Domain.cube(4),
        Domain.explicit(4, [0b0000, 0b1010, 0b0111]),
    ],
)
def test_rank_and_member_masks_are_inverse(dom):
    members = member_masks(dom)
    seen = set()
    for r, x in enumerate(dom.members()):
        assert dom.rank(x) == r
        assert members[r] == x
        assert x in dom
        seen.add(x)
    assert len(seen) == dom.size
    assert [dom.rank(x) for x in dom.members()] == list(range(dom.size))


def test_domain_membership_errors():
    dom = Domain.slice(4, 2)
    with pytest.raises(MembershipError):
        dom.rank(0b0111)
    with pytest.raises(MembershipError):
        dom.rank(1 << 5)
    assert 0b0111 not in dom
    assert Domain.cube(3).rank(5) == 5


def test_domain_validation():
    with pytest.raises(DomainError):
        Domain.slice(4, 0)
    with pytest.raises(DomainError):
        Domain.slice(4, 4)
    with pytest.raises(DomainError):
        Domain.explicit(2, [])
    with pytest.raises(DomainError):
        Domain.explicit(2, [1, 1])
    with pytest.raises(DomainError):
        Domain.explicit(2, [4])
    assert Domain.slice(6, 3).is_balanced_slice
    assert not Domain.slice(6, 2).is_balanced_slice
    assert not Domain.cube(6).is_balanced_slice


def test_assignment_basics():
    a = Assignment.of(zeros=[1], ones=[0, 3])
    assert a.fixed == 0b1011
    assert a.size == 3
    assert not a.is_balanced
    assert a.consistent_with(0b1001)
    assert not a.consistent_with(0b1011)
    assert a.positions() == ([1], [0, 3])
    assert Assignment.of(zeros=[2], ones=[4]).is_balanced
    with pytest.raises(DomainError):
        Assignment.of(zeros=[1], ones=[1])


def test_labeled_function_constructors_agree():
    dom = Domain.slice(4, 2)
    by_callable = LabeledFunction.from_callable(
        dom, lambda x: 1 if x & 1 else 0, BOOLEAN
    )
    by_indices = LabeledFunction.from_indices(
        dom, BOOLEAN, [1 if x & 1 else 0 for x in dom.members()]
    )
    assert by_callable == by_indices
    assert by_callable.table == by_indices.table
    assert by_callable.is_boolean
    assert set(by_callable.table) == {0, 1}


def test_labeled_function_tuple_alphabet():
    dom = Domain.slice(4, 2)
    alpha = ((1, 1), (2, 0))
    f = LabeledFunction.from_callable(
        dom, lambda x: (2, 0) if x & 1 else (1, 1), alpha
    )
    assert f.evaluate(0b0011) == (2, 0)
    assert f.evaluate(0b1100) == (1, 1)
    assert not f.is_boolean


def test_reversed_boolean_alphabet_keeps_each_label():
    dom = Domain.slice(5, 2)
    idx = [r % 3 & 1 for r in range(dom.size)]
    label = {x: (1, 0)[i] for x, i in zip(dom.members(), idx)}
    f = LabeledFunction.from_indices(dom, (1, 0), idx)
    assert f.alphabet == BOOLEAN
    assert all(f.evaluate(x) == lab for x, lab in label.items())
    assert f == LabeledFunction.from_callable(dom, label.__getitem__, (1, 0))
    assert f == LabeledFunction.from_indices(dom, [1, 0], iter(idx))


def test_label_bitsets_match_the_table():
    dom = Domain.slice(9, 4)
    for f in (
        LabeledFunction.from_callable(dom, lambda x: x % 3 & 1, BOOLEAN),
        LabeledFunction.from_callable(dom, lambda x: x % 5, (0, 1, 2, 3, 4)),
    ):
        for i, bits in enumerate(f.label_bitsets):
            assert [bits >> r & 1 for r in range(dom.size)] == [
                int(v == i) for v in f.table
            ]
            assert not bits >> dom.size


def test_position_and_label_bitsets():
    dom = Domain.slice(4, 2)
    ones_at = position_rank_bitsets(dom)
    for p in range(4):
        for r, x in enumerate(dom.members()):
            assert (ones_at[p] >> r & 1) == (x >> p & 1)
    for f in (
        LabeledFunction.from_callable(dom, lambda x: x & 1, BOOLEAN),
        LabeledFunction.from_callable(dom, lambda x: x % 3, (0, 1, 2)),
    ):
        by_label = f.label_bitsets
        assert len(by_label) == len(f.alphabet)
        for r in range(dom.size):
            assert [b >> r & 1 for b in by_label] == [
                int(i == f.table[r]) for i in range(len(f.alphabet))
            ]


@st.composite
def small_domains(draw):
    """A slice, cube or explicit domain of at most 20 members, with its
    members listed without the enumeration code."""
    kind = draw(st.sampled_from(["slice", "cube", "explicit"]))
    if kind == "slice":
        n = draw(st.integers(2, 6))
        k = draw(st.integers(1, n - 1).filter(lambda k: math.comb(n, k) <= 20))
        # colex order on one weight is increasing numeric order
        return Domain.slice(n, k), [x for x in range(1 << n) if x.bit_count() == k]
    if kind == "cube":
        n = draw(st.integers(1, 4))
        return Domain.cube(n), list(range(1 << n))
    n = draw(st.integers(1, 5))
    members = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20, unique=True)
    )
    return Domain.explicit(n, members), members


@settings(max_examples=100, deadline=None)
@given(small_domains(), st.data())
def test_cached_views_match_fresh_enumeration(drawn, data):
    dom, expected = drawn
    for _ in range(2):  # the second pass reads the cached view
        assert list(dom.members()) == expected
        assert tuple(member_masks(dom)) == tuple(expected)
        assert position_rank_bitsets(dom) == tuple(
            sum(1 << r for r, x in enumerate(expected) if x >> p & 1)
            for p in range(dom.n)
        )
    alphabet = data.draw(st.sampled_from([BOOLEAN, (0, 1, 2)]))
    table = data.draw(
        st.lists(
            st.integers(0, len(alphabet) - 1), min_size=dom.size, max_size=dom.size
        )
    )
    f = LabeledFunction.from_indices(dom, alphabet, table)
    assert f.table == tuple(table)


@settings(max_examples=100, deadline=None)
@given(small_domains(), st.data())
def test_single_label_check_matches_a_label_scan(drawn, data):
    dom, _ = drawn
    alphabet = data.draw(st.sampled_from([BOOLEAN, (0, 1, 2)]))
    table = data.draw(
        st.lists(
            st.integers(0, len(alphabet) - 1), min_size=dom.size, max_size=dom.size
        )
    )
    f = LabeledFunction.from_indices(dom, alphabet, table)
    S = data.draw(st.integers(0, (1 << dom.size) - 1))
    labels = {table[r] for r in range(dom.size) if S >> r & 1}
    assert f.is_single_label(S) == (len(labels) == 1)


@settings(max_examples=100, deadline=None)
@given(small_domains(), st.data())
def test_rank_index_matches_enumeration_order(drawn, data):
    dom, expected = drawn
    for _ in range(2):  # the second pass reads the cached index
        ranks = member_ranks(dom)
        for r, x in enumerate(member_masks(dom)):
            assert ranks[x] == dom.rank(x) == r == expected.index(x)
            if dom.kind == "slice":
                assert r == colex_rank(x)
    outside = data.draw(
        st.integers(-1, 1 << (dom.n + 1)).filter(lambda x: x not in expected)
    )
    with pytest.raises(MembershipError):
        dom.rank(outside)
    f = LabeledFunction.from_indices(dom, BOOLEAN, [r & 1 for r in range(dom.size)])
    with pytest.raises(MembershipError):
        sensitivity(f, outside)


@st.composite
def move_domains(draw):
    """A slice, cube or explicit domain with n <= 8."""
    kind = draw(st.sampled_from(["slice", "cube", "explicit"]))
    if kind == "slice":
        n = draw(st.integers(2, 8))
        return Domain.slice(n, draw(st.integers(1, n - 1)))
    if kind == "cube":
        return Domain.cube(draw(st.integers(1, 8)))
    n = draw(st.integers(1, 8))
    members = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=80, unique=True)
    )
    return Domain.explicit(n, members)


@settings(max_examples=80, deadline=None)
@given(move_domains())
def test_neighbours_are_the_members_one_move_away(dom):
    on_slice = dom.kind == "slice"
    for x in member_masks(dom):
        near = [
            y for y in range(1 << dom.n)
            if y in dom and (x ^ y).bit_count() == (2 if on_slice else 1)
        ]
        # a swap by its 1's position, then its 0's; a flip by its position
        if on_slice:
            near.sort(key=lambda y: ((x ^ y) & x, (x ^ y) & ~x))
            assert len(near) == dom.k * (dom.n - dom.k)
        else:
            near.sort(key=lambda y: x ^ y)
        assert neighbours(dom, x) == near


def test_slice_above_view_limit_ranks_through_colex_rank(monkeypatch):
    dom = Domain.slice(40, 4)
    assert dom.size > slicecore._VIEW_MAX_SIZE
    calls = []

    def counted(mask):
        calls.append(mask)
        return colex_rank(mask)

    monkeypatch.setattr(slicecore, "colex_rank", counted)
    before = slicecore._cached_view.cache_info()
    members = member_masks(dom)
    for r in (0, 1, 12345, dom.size - 1):
        x = members[r]
        assert dom.rank(x) == member_ranks(dom)[x] == r
    assert len(calls) == 8
    with pytest.raises(MembershipError):
        dom.rank(0b111)
    after = slicecore._cached_view.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_rank_index_of_cubes_and_explicit_domains_adds_no_table():
    cube = Domain.cube(5)
    assert member_ranks(cube) == range(32)
    dom = Domain.explicit(3, [0b101, 0b000, 0b011])
    assert member_ranks(dom) is dom._explicit_index
    assert member_ranks(Domain.slice(6, 3)) is member_ranks(Domain.slice(6, 3))


def test_equal_domains_share_one_view():
    built, again = Domain.slice(7, 3), Domain.slice(7, 3)
    assert built == again and built is not again
    assert position_rank_bitsets(built) is position_rank_bitsets(again)
    assert member_masks(built) is member_masks(Domain.slice(7, 3))


def test_shared_views_are_immutable():
    dom = Domain.slice(6, 3)
    f = LabeledFunction.from_callable(dom, lambda x: x % 3, (0, 1, 2))
    assert isinstance(member_masks(dom), tuple)
    assert isinstance(position_rank_bitsets(dom), tuple)
    assert isinstance(f.table, tuple)
    assert f.table == tuple(x % 3 for x in dom.members())


def test_domain_above_view_limit_is_enumerated_uncached():
    dom = Domain.slice(40, 4)
    assert dom.size > slicecore._VIEW_MAX_SIZE
    before = slicecore._cached_view.cache_info()
    assert inspect.isgenerator(dom.members())
    members = member_masks(dom)
    assert len(members) == dom.size
    assert all(dom.rank(x) == r for r, x in enumerate(members))
    ones_at = position_rank_bitsets(dom)
    for p in (0, 39):
        bits = format(ones_at[p], f"0{dom.size}b")[::-1]
        assert bits == "".join(str(x >> p & 1) for x in members)
    after = slicecore._cached_view.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def _all_assignments(n):
    for code in range(3 ** n):
        zeros = ones = 0
        for p in range(n):
            code, digit = divmod(code, 3)
            if digit == 1:
                zeros |= 1 << p
            elif digit == 2:
                ones |= 1 << p
        yield zeros, ones


_SMALL_DOMAINS = [
    *(Domain.slice(n, k) for n in range(2, 7) for k in range(1, n)),
    *(Domain.cube(n) for n in range(1, 5)),
    Domain.explicit(4, [0b1011, 0b0000, 0b0110, 0b1111, 0b0011, 0b1000]),
]


@pytest.mark.parametrize("dom", _SMALL_DOMAINS, ids=Domain.describe)
def test_consistent_set_matches_a_member_scan(dom):
    ones_at, full = position_rank_bitsets(dom), (1 << dom.size) - 1
    members = member_masks(dom)
    for zeros, ones in _all_assignments(dom.n):
        a = Assignment(zeros, ones)
        want = sum(1 << r for r, x in enumerate(members) if a.consistent_with(x))
        assert consistent_set(ones_at, full, zeros, ones) == want
    for zeros, ones in ((1 << dom.n, 0), (0, 1 << dom.n), (1 << 9 + dom.n, 1)):
        with pytest.raises(DomainError, match="outside the domain"):
            consistent_set(ones_at, full, zeros, ones)


def test_graph_round_trip():
    g = SliceGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    f = from_graph(g)
    assert (f.domain.n, f.domain.k) == (5, 2)
    assert f.evaluate(string_to_mask("11000")) == 1
    assert f.evaluate(string_to_mask("10100")) == 0
    assert to_graph(f) == g
    assert sum(row.bit_count() for row in g.adj) == 2 * 5
    complete = SliceGraph.from_edges(4, combinations(range(4), 2))
    assert complete.adj == (0b1110, 0b1101, 0b1011, 0b0111)
    assert SliceGraph.from_edges(3, []).adj == (0, 0, 0)


def test_graph_validation():
    with pytest.raises(DomainError):
        SliceGraph.from_edges(3, [(0, 0)])
    with pytest.raises(DomainError):
        SliceGraph.from_edges(3, [(0, 3)])
    with pytest.raises(DomainError):
        SliceGraph(n=2, adj=(2, 0))


def test_to_graph_needs_weight_two_boolean():
    f = LabeledFunction.from_callable(Domain.slice(5, 3), lambda x: 0, BOOLEAN)
    with pytest.raises(DomainError):
        to_graph(f)
