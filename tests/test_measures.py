"""Measure engines against the naive oracles, witness checks, and caps."""

import hashlib
import json
import math
import random
from functools import partial
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    balanced_certificate_oracle,
    block_sensitivity_at,
    block_sensitivity_max,
    certificate_at,
    certificate_max,
    check_tree_oracle,
    degree_oracle,
    depth_by_state,
    greedy_hitting_oracle,
    hitting_set_oracle,
    minimax_depth,
    mono_number_oracle,
    one_subcube_oracle,
    per_call_certificate_skip,
    sensitivity_at,
    sensitivity_max,
    tree_depth,
    tree_evaluate,
    tree_from_json_obj,
)
from slicebench.catalog import (
    make_ed,
    parse_construction,
    make_eq,
    or_first_half,
    paley_weight2,
    random_graph,
    random_slice_function,
)
from slicebench import slicecore
from slicebench.measures import bounds, certificates
from slicebench.errors import DomainError, ResourceCapError, VerificationError
from slicebench.kernels import (
    greedy_cover,
    max_disjoint_packing,
    min_hitting_set,
    minimal_masks,
)
from slicebench.measures.algebra import _degree_slice, _degree_span, degree
from slicebench.measures.bounds import (
    max_one_subcube_intersection,
    monochromatic_number,
    packing_lower_bound,
)
from slicebench.measures.certificates import (
    balanced_certificate,
    balanced_level,
    certificate_complexity,
    certificate_skip,
    subcube_partition_complexity,
    unambiguous_certificate_complexity,
)
from slicebench.measures.depth import DepthSolver, exact_depth, nonadaptive_positions
from slicebench.measures.report import (
    compute_measures,
    verify_entry,
    verify_report,
)
from slicebench.measures.sensitivity import block_sensitivity, sensitivity
from slicebench.measures.trees import Node, check_tree
from slicebench.slicecore import (
    BOOLEAN,
    Domain,
    Assignment,
    LabeledFunction,
    SliceGraph,
    consistent_set,
    from_graph,
    mask_positions,
    mask_to_string,
    member_masks,
    member_ranks,
    position_move_tables,
    position_rank_bitsets,
    string_to_mask,
)


def all_boolean_functions(dom):
    for code in range(1 << dom.size):
        yield LabeledFunction.from_indices(
            dom, BOOLEAN, [code >> r & 1 for r in range(dom.size)]
        )


def test_frozen_oracle_values_eq1():
    f = make_eq(1)
    assert exact_depth(f) == 2
    assert certificate_complexity(f)[0] == 2
    assert sensitivity(f)[0] == 2
    assert block_sensitivity(f)[0] == 2
    assert block_sensitivity(f, max_block_size=2)[0] == 2
    assert degree(f)[0] == 2


def test_frozen_oracle_values_random_functions():
    expected = {
        0: ([1, 1, 0, 1, 1, 1], 2, 2, 2, 2, 2),
        1: ([0, 0, 1, 0, 1, 1], 1, 1, 1, 1, 1),
        2: ([0, 0, 0, 1, 0, 1], 2, 2, 2, 2, 2),
    }
    for seed, (table, d, c, s, bs, dg) in expected.items():
        f = random_slice_function(4, 2, seed)
        assert list(f.table) == table
        assert exact_depth(f) == d
        assert certificate_complexity(f)[0] == c
        assert sensitivity(f)[0] == s
        assert block_sensitivity(f)[0] == bs
        assert degree(f)[0] == dg


def test_frozen_oracle_values_cube3():
    dom = Domain.cube(3)
    parity = LabeledFunction.from_callable(dom, lambda x: x.bit_count() % 2, BOOLEAN)
    assert exact_depth(parity) == 3
    assert degree(parity)[0] == 3
    assert sensitivity(parity)[0] == 3
    majority = LabeledFunction.from_callable(
        dom, lambda x: 1 if x.bit_count() >= 2 else 0, BOOLEAN
    )
    assert exact_depth(majority) == 3
    assert certificate_complexity(majority)[0] == 2
    assert sensitivity(majority)[0] == 2
    assert block_sensitivity(majority)[0] == 2
    assert degree(majority)[0] == 3


def test_exhaustive_slice42_against_oracles():
    dom = Domain.slice(4, 2)
    for f in all_boolean_functions(dom):
        assert exact_depth(f) == minimax_depth(f)
        assert certificate_complexity(f)[0] == certificate_max(f)
        assert sensitivity(f)[0] == sensitivity_max(f)
        assert block_sensitivity(f)[0] == block_sensitivity_max(f)
        assert degree(f)[0] == degree_oracle(f)


def test_exhaustive_cube2_against_oracles():
    dom = Domain.cube(2)
    for f in all_boolean_functions(dom):
        assert exact_depth(f) == minimax_depth(f)
        assert certificate_complexity(f)[0] == certificate_max(f)
        assert sensitivity(f)[0] == sensitivity_max(f)
        assert block_sensitivity(f)[0] == block_sensitivity_max(f)
        assert degree(f)[0] == degree_oracle(f)


def test_sampled_cube3_against_oracles():
    dom = Domain.cube(3)
    for code in range(0, 256, 7):
        f = LabeledFunction.from_indices(
            dom, BOOLEAN, [code >> r & 1 for r in range(8)]
        )
        assert exact_depth(f) == minimax_depth(f)
        assert degree(f)[0] == degree_oracle(f)
        assert block_sensitivity(f)[0] == block_sensitivity_max(f)


def test_explicit_domain_measures():
    dom = Domain.explicit(3, [0b000, 0b011, 0b101, 0b111])
    f = LabeledFunction.from_callable(dom, lambda x: 1 if x == 0b111 else 0, BOOLEAN)
    assert exact_depth(f) == minimax_depth(f)
    assert sensitivity(f)[0] == sensitivity_max(f)
    assert block_sensitivity(f)[0] == block_sensitivity_max(f)
    assert degree(f)[0] == degree_oracle(f)


def test_constant_function_measures_are_zero():
    f = LabeledFunction.from_callable(Domain.slice(5, 2), lambda x: 1, BOOLEAN)
    assert exact_depth(f) == 0
    assert certificate_complexity(f)[0] == 0
    assert sensitivity(f)[0] == 0
    assert block_sensitivity(f)[0] == 0
    assert degree(f)[0] == 0


@pytest.mark.parametrize("constant", [0, 1])
def test_a_constant_cube_function_names_the_empty_monomial(constant):
    """The zero function's empty monomial has coefficient 0, and it still
    proves deg = 0."""
    f = LabeledFunction.from_callable(Domain.cube(3), lambda x: constant, BOOLEAN)
    entry = compute_measures(f, ["deg"], None)["measures"]["deg"]
    assert (entry["value"], entry["witness"]) == (0, {"monomial": []})
    verify_entry(f, "deg", entry)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.data())
def test_a_degree_monomial_passes_exactly_when_its_coefficient_is_nonzero(n, data):
    table = data.draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    f = LabeledFunction.from_indices(Domain.cube(n), BOOLEAN, table)
    # the multilinear coefficients by a whole-table Mobius transform
    coef = list(table)
    for p in range(n):
        for m in range(1 << n):
            if m >> p & 1:
                coef[m] -= coef[m ^ 1 << p]
    deg = degree(f)[0]
    verify_entry(f, "deg", compute_measures(f, ["deg"], None)["measures"]["deg"])
    for S in range(1 << n):
        if S.bit_count() != deg:
            continue
        entry = {"value": deg, "witness": {"monomial": mask_positions(S)}}
        if coef[S] or not S:
            verify_entry(f, "deg", entry)
        else:
            with pytest.raises(VerificationError, match="coefficient 0"):
                verify_entry(f, "deg", entry)


def test_depth_tree_witness_validates():
    for seed in range(10):
        f = random_slice_function(5, 2, seed)
        solver = DepthSolver(f)
        value, tree = solver.solve(), solver.build_tree()
        assert check_tree(tree.to_json_obj(), f) == value
        for x in f.domain.members():
            assert f.alphabet[tree_evaluate(tree, x)] == f.evaluate(x)


def test_tree_json_round_trip():
    f = random_slice_function(5, 2, 3)
    solver = DepthSolver(f)
    value, tree = solver.solve(), solver.build_tree()
    assert check_tree(tree.to_json_obj(), f) == value
    assert tree_from_json_obj(tree.to_json_obj(), f.domain.n) == tree


def test_nonadaptive_dominates_depth():
    for seed in range(10):
        f = random_slice_function(5, 2, seed)
        value, positions = nonadaptive_positions(f)
        assert exact_depth(f) <= value <= 5
        assert len(positions) == value
        fixed = {}
        for x in f.domain.members():
            key = tuple(x >> p & 1 for p in positions)
            assert fixed.setdefault(key, f.evaluate(x)) == f.evaluate(x)


def test_balanced_certificate_bounds():
    dom = Domain.slice(4, 2)
    for f in all_boolean_functions(dom):
        bc, _ = balanced_certificate(f)
        mbc, _ = balanced_certificate(f, min_mode=True)
        c, _ = certificate_complexity(f)
        assert mbc <= bc
        assert c <= bc
        assert mbc % 2 == 0 and bc % 2 == 0
        assert exact_depth(f) >= mbc - 1


@st.composite
def balanced_slice_functions(draw):
    """A Boolean function on a balanced slice with n <= 8, its 1-inputs
    thinned or thickened a third of the time each."""
    k = draw(st.integers(1, 4))
    dom = Domain.slice(2 * k, k)
    full = (1 << dom.size) - 1
    code = draw(st.integers(0, full))
    shape = draw(st.sampled_from(["plain", "sparse", "dense"]))
    if shape == "sparse":
        code &= draw(st.integers(0, full))
    elif shape == "dense":
        code |= draw(st.integers(0, full))
    table = [code >> r & 1 for r in range(dom.size)]
    return LabeledFunction.from_indices(dom, BOOLEAN, table)


@settings(max_examples=150, deadline=None)
@given(balanced_slice_functions(), st.data())
def test_balanced_certificate_matches_the_oracle(f, data):
    """Values and witnesses, max, min and at one input, are the full
    ascending search's."""
    assert balanced_certificate(f) == balanced_certificate_oracle(f)
    assert balanced_certificate(f, min_mode=True) == balanced_certificate_oracle(
        f, min_mode=True
    )
    x = member_masks(f.domain)[data.draw(st.integers(0, f.domain.size - 1))]
    assert balanced_certificate(f, x) == balanced_certificate_oracle(f, x)


@settings(max_examples=100, deadline=None)
@given(balanced_slice_functions())
def test_balanced_level_holds_exactly_from_half_bc_up(f):
    """The level lemma: x has a balanced certificate at level h <= n/2
    exactly when 2h >= BC(f, x)."""
    has_level = balanced_level(f)
    for r, x in enumerate(member_masks(f.domain)):
        bc, _ = balanced_certificate_oracle(f, x)
        for h in range(f.domain.k + 1):
            assert has_level(r, h) == (2 * h >= bc)


# sha256 of [spec, BC, mBC, BC witness, mBC witness] over certify-mix's
# balanced-slice functions at seeds 1-3, as the full ascending search at
# every input computed them
_BC_SPECS = ["eq:k=2", "kml:r=3", "gs:n=10,k=5", "ed:k=3,l=2", "ed:k=4,l=2"] + [
    f"random:n={n},k={n // 2},seed={seed}" for seed in (1, 2, 3) for n in (6, 8, 10)
]
_BC_PIN = "dab530e0217dfd24950b15f693c171861b80cee2567a8b428533f958ceb25788"


def test_balanced_certificates_match_their_pin():
    rows = []
    for spec in _BC_SPECS:
        f = parse_construction(spec).build()
        bc, bc_witness = balanced_certificate(f)
        mbc, mbc_witness = balanced_certificate(f, min_mode=True)
        rows.append([spec, bc, mbc, bc_witness, mbc_witness])
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == _BC_PIN


def test_uc_sc_chain_exhaustive_slice42():
    dom = Domain.slice(4, 2)
    for f in all_boolean_functions(dom):
        c, _ = certificate_complexity(f)
        uc, _ = unambiguous_certificate_complexity(f)
        sc, _ = subcube_partition_complexity(f)
        d = exact_depth(f)
        assert c <= uc <= sc <= d


def test_monochromatic_number_matches_oracle_on_small_graphs():
    for seed in range(20):
        g = random_graph(5, seed)
        size, witness = monochromatic_number(g)
        assert size == mono_number_oracle(g)
        verts = witness["vertices"]
        assert len(verts) == size
        pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :]]
        if witness["kind"] == "clique":
            assert all(g.has_edge(u, v) for u, v in pairs)
        else:
            assert not any(g.has_edge(u, v) for u, v in pairs)
    assert monochromatic_number(paley_weight2(5))[0] == 2
    complete = SliceGraph.from_edges(5, combinations(range(5), 2))
    clique = {"kind": "clique", "vertices": [0, 1, 2, 3, 4]}
    assert monochromatic_number(complete) == (5, clique)
    assert monochromatic_number(SliceGraph.from_edges(5, []))[0] == 5


def test_packing_bound_below_depth():
    ed = make_ed(3, 2)
    packing, witness = packing_lower_bound(ed)
    assert packing <= exact_depth(ed)
    assert packing >= 1
    assert isinstance(witness, dict)


def test_max_one_subcube_on_graph_function():
    g = SliceGraph.from_edges(4, [(0, 1), (2, 3)])
    f = from_graph(g)
    value, witness = max_one_subcube_intersection(f)
    assert value == 1
    assert isinstance(witness, dict)


# the seeded certify-mix functions at seeds 1-3
_SEEDED_CERTIFY_SPECS = [
    template.format(seed)
    for seed in (1, 2, 3)
    for template in (
        "random:n=6,k=3,seed={}", "random:n=8,k=4,seed={}",
        "random:n=10,k=4,seed={}", "random:n=10,k=5,seed={}",
        "random-graph:n=10,seed={}",
    )
]

# sha256 of the JSON list [spec, m, m's witness, packing, packing's witness]
# over these functions, as the plain scan (pruned by the 1-count alone)
# computed them: the certify-mix functions that pin m, at seeds 1-3, and five
# larger ones.  The scan's cuts must keep every value and witness.
_SUBCUBE_PIN_SPECS = [
    "eq:k=2", "kml:r=3", "gs:n=10,k=4", "gs:n=10,k=5", "paley:q=13",
    "ed:k=3,l=2", "ed:k=4,l=2", "or-first-half:n=10", "rubinstein-variant:n=4",
    *_SEEDED_CERTIFY_SPECS,
    "gs:n=12,k=6", "eq:k=3", "ed:k=4,l=3", "random:n=12,k=6,seed=1",
    "random-graph:n=14,seed=3",
]
_SUBCUBE_PIN = "b0e9a04f1a46808e8a75f0cfe3ece21685601f05182f3ed9eaf48602a66c14dc"


def test_m_and_packing_witnesses_are_pinned():
    rows = []
    for spec in _SUBCUBE_PIN_SPECS:
        f = parse_construction(spec).build()
        rows.append([spec, *max_one_subcube_intersection(f), *packing_lower_bound(f)])
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == _SUBCUBE_PIN


# sha256 of the JSON list [name, s, s's witness, deg] (deg None off Boolean
# alphabets) over every certify-mix function at seeds 1-3, a random cube(6)
# function and a random explicit-domain function, as the per-measure swap
# and flip loops computed them before one neighbour list served them all.
_S_DEG_PIN_SPECS = [
    "eq:k=2", "kml:r=3", "gs:n=10,k=4", "gs:n=10,k=5", "paley:q=13",
    "ed:k=3,l=2", "ed:k=4,l=2", "weights:n=4,m=2,k=4", "or-first-half:n=10",
    "rubinstein-variant:n=4", *_SEEDED_CERTIFY_SPECS,
]
_S_DEG_PIN = "34db3a22563625adfe11140c731cd283481bf81d3ef6326265d898e97532e28b"


def test_s_and_deg_witnesses_are_pinned():
    named = [(spec, parse_construction(spec).build()) for spec in _S_DEG_PIN_SPECS]
    named.append(("cube(6), seed 1", _random_cube_function(6, 1)))
    named.append(("explicit(7, 60), seed 2", _random_explicit_function(7, 60, 2)))
    rows = [
        [name, *sensitivity(f), degree(f)[0] if f.is_boolean else None]
        for name, f in named
    ]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == _S_DEG_PIN


@st.composite
def subcube_functions(draw):
    """A Boolean function on a slice or explicit domain with n <= 7, or a
    cube with n <= 6; half the time its 1-inputs are thinned by a second
    random draw."""
    kind = draw(st.sampled_from(["slice", "cube", "explicit"]))
    if kind == "slice":
        n = draw(st.integers(2, 7))
        dom = Domain.slice(n, draw(st.integers(1, n - 1)))
    elif kind == "cube":
        dom = Domain.cube(draw(st.integers(1, 6)))
    else:
        n = draw(st.integers(1, 7))
        members = draw(
            st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40, unique=True)
        )
        dom = Domain.explicit(n, members)
    code = draw(st.integers(0, (1 << dom.size) - 1))
    if draw(st.booleans()):
        code &= draw(st.integers(0, (1 << dom.size) - 1))
    return LabeledFunction.from_indices(
        dom, BOOLEAN, [code >> r & 1 for r in range(dom.size)]
    )


@settings(max_examples=150, deadline=None)
@given(subcube_functions())
def test_m_matches_the_oracle_and_both_sides_are_checked(f):
    value, witness = max_one_subcube_intersection(f)
    assert value == one_subcube_oracle(f)
    ones_set = f.label_bitsets[1]
    if not ones_set:
        assert witness is None
    else:
        a = Assignment.of(witness["zeros"], witness["ones"])
        full = (1 << f.domain.size) - 1
        S = consistent_set(position_rank_bitsets(f.domain), full, a.zeros, a.ones)
        assert not S & ~ones_set
        assert S.bit_count() == value
    for name, (v, w) in (("m", (value, witness)), ("packing", packing_lower_bound(f))):
        verify_entry(f, name, {"value": v, "witness": w})
        for wrong in (v - 1, v + 1):
            with pytest.raises(VerificationError):
                verify_entry(f, name, {"value": wrong, "witness": w})


def _elementary_neighbours(dom, x):
    """The members one swap (on a slice) or one flip (on a cube) from x."""
    if dom.kind == "slice":
        return [
            x ^ (1 << i | 1 << j)
            for i in range(dom.n) if x >> i & 1
            for j in range(dom.n) if not x >> j & 1
        ]
    return [x ^ (1 << p) for p in range(dom.n)]


@st.composite
def slice_and_cube_functions(draw):
    """A Boolean function with a 1-input on a slice or cube with n <= 9;
    half the time, 1-inputs are dropped in rank order until no swap or
    flip joins two of them."""
    n = draw(st.integers(2, 9))
    dom = Domain.slice(n, draw(st.integers(1, n - 1))) if draw(st.booleans()) else Domain.cube(n)
    members, ranks = member_masks(dom), member_ranks(dom)
    table = [draw(st.integers(0, 1)) for _ in range(dom.size)]
    if draw(st.booleans()):
        for r, x in enumerate(members):
            if table[r] and any(table[ranks[y]] for y in _elementary_neighbours(dom, x)):
                table[r] = 0
    table[draw(st.integers(0, dom.size - 1))] = 1
    return LabeledFunction.from_indices(dom, BOOLEAN, table)


@settings(max_examples=100, deadline=None)
@given(slice_and_cube_functions())
def test_m_is_one_exactly_when_no_swap_or_flip_joins_two_one_inputs(f):
    """A 1-monochromatic subcube holding two 1-inputs holds a path of swaps
    (on a slice) or flips (on a cube) between them, so m(f) = 1 iff the
    1-inputs are independent in the graph of elementary moves."""
    dom, ranks = f.domain, member_ranks(f.domain)
    joined = any(
        f.table[ranks[y]]
        for r, x in enumerate(member_masks(dom))
        if f.table[r]
        for y in _elementary_neighbours(dom, x)
    )
    assert (max_one_subcube_intersection(f)[0] == 1) == (not joined)


def test_resource_caps():
    big = or_first_half(21)
    with pytest.raises(ResourceCapError):
        compute_measures(big, ["nonadaptive"], None)
    wide = LabeledFunction.from_callable(Domain.slice(13, 1), lambda x: x & 1, BOOLEAN)
    with pytest.raises(ResourceCapError):
        compute_measures(wide, ["UC"], None)
    with pytest.raises(ResourceCapError):
        compute_measures(
            LabeledFunction.from_callable(Domain.slice(7, 1), lambda x: x & 1, BOOLEAN),
            ["SC"],
            None,
        )


def test_compute_measures_report_shape_and_verify():
    f = make_eq(1)
    names = ["D", "C", "s", "bs", "bs2", "BC", "mBC", "deg", "nonadaptive"]
    report = compute_measures(f, names, {"construction": "eq:k=1"})
    assert set(report["measures"]) == set(names)
    for name in names:
        entry = report["measures"][name]
        assert set(entry) == {"value", "witness", "nodes", "millis"}
        verify_entry(f, name, entry)


def test_compute_measures_checks_every_name_before_computing():
    class NoLookups:
        def get(self, f, name):
            raise AssertionError(f"{name} looked up before the names were checked")

        put = get

    with pytest.raises(DomainError, match="'nope'"):
        compute_measures(make_eq(1), ["D", "nope"], None, cache=NoLookups())


def test_minimal_masks_drops_duplicates_and_supersets():
    assert minimal_masks([0b110, 0b010, 0b011, 0b010, 0b101]) == [0b010, 0b101]
    assert minimal_masks([]) == []


def test_verify_rejects_tampered_entries():
    f = make_eq(1)
    report = compute_measures(f, ["D", "C", "s"], None)
    for name in ("D", "C", "s"):
        entry = dict(report["measures"][name])
        entry["value"] = entry["value"] + 1
        with pytest.raises(VerificationError):
            verify_entry(f, name, entry)


@pytest.mark.parametrize(
    "name, value, witness, message",
    [
        ("m", 4, {"zeros": [], "ones": []}, "not 1-monochromatic"),
        ("m", 4, "garbage", "not an object"),
        ("m", 4, None, "not an object"),
        ("m", 4, {"zeros": [0, 1, 4, 5], "ones": []}, "1-inputs in the subcube 0"),
        ("m", 3, {"zeros": [4, 5], "ones": [2]}, "recomputed value 4"),
        ("packing", 2, {"ones": 99, "subcube_max": 1}, "recomputed ones 12"),
        ("packing", 2, {"ones": 12, "subcube_max": 3}, "recomputed subcube_max 4"),
        ("packing", 2, {"ones": 12.0, "subcube_max": 4}, "is not an int"),
        ("packing", 3, {"ones": 12, "subcube_max": 4}, "recomputed value 2"),
    ],
)
def test_verify_refuses_m_and_packing_witnesses_that_do_not_prove_the_value(
    name, value, witness, message
):
    # ed:k=3,l=2 has 12 1-inputs and m = 4, so packing = 2
    f = make_ed(3, 2)
    with pytest.raises(VerificationError, match=message):
        verify_entry(f, name, {"value": value, "witness": witness})


def _overlap(cells):
    return cells + cells[:1]


def _drop_one(cells):
    return cells[1:]


def _one_cell(cells):
    return [{"zeros": [], "ones": []}]


def _add_position_9(cells):
    return [{"zeros": cells[0]["zeros"] + [9], "ones": cells[0]["ones"]}] + cells[1:]


_CELL_MUTATIONS = [
    (_overlap, "overlap"),
    (_drop_one, "do not cover"),
    (_one_cell, "is not label-constant"),
    (_add_position_9, "outside the domain"),
]


@pytest.mark.parametrize("mutate, message", _CELL_MUTATIONS)
def test_sc_check_refuses_mutated_partitions(mutate, message):
    f = make_eq(1)
    value, witness = subcube_partition_complexity(f)
    verify_entry(f, "SC", {"value": value, "witness": witness})
    cells = mutate(witness["subcubes"])
    worst = max(len(c["zeros"]) + len(c["ones"]) for c in cells)
    with pytest.raises(VerificationError, match=message):
        verify_entry(f, "SC", {"value": worst, "witness": {"subcubes": cells}})


@pytest.mark.parametrize("mutate, message", _CELL_MUTATIONS)
def test_uc_check_refuses_mutated_covers(mutate, message):
    f = make_eq(1)
    value, witness = unambiguous_certificate_complexity(f)
    verify_entry(f, "UC", {"value": value, "witness": witness})
    cells = mutate(witness["certificates"])
    worst = max(len(c["zeros"]) + len(c["ones"]) for c in cells)
    with pytest.raises(VerificationError, match=message):
        verify_entry(f, "UC", {"value": worst, "witness": {"certificates": cells}})


# (value, witness) of UC and SC as JSON; the order of the cells pins the
# walk's order and its choice of one assignment per cell
_UC_SC_PINS = {
    "ed:k=3,l=2": (
        '[3,{"certificates":[{"zeros":[1,3,5],"ones":[]},{"zeros":[],"ones":[1,2,4]},'
        '{"zeros":[1,2,5],"ones":[]},{"zeros":[],"ones":[1,3,4]},{"zeros":[1,3,4],"ones":[]},'
        '{"zeros":[],"ones":[1,2,5]},{"zeros":[1,2,4],"ones":[]},{"zeros":[],"ones":[1,3,5]},'
        '{"zeros":[],"ones":[0,1]},{"zeros":[],"ones":[2,3]},{"zeros":[],"ones":[4,5]}]}]',
        '[4,{"subcubes":[{"zeros":[],"ones":[0,2,4]},{"zeros":[0,3,5],"ones":[]},'
        '{"zeros":[4,5],"ones":[0]},{"zeros":[2,3],"ones":[0,4]},{"zeros":[2],"ones":[0,3,4]},'
        '{"zeros":[4],"ones":[0,1,5]},{"zeros":[1,4],"ones":[0,5]},{"zeros":[0],"ones":[1,3,4]},'
        '{"zeros":[0,3],"ones":[4,5]},{"zeros":[0,2,4],"ones":[3]},{"zeros":[0,4],"ones":[2,3]},'
        '{"zeros":[0,1],"ones":[3,4]},{"zeros":[0,3,4],"ones":[5]}]}]',
    ),
    "rubinstein-variant:n=4": (
        '[4,{"certificates":[{"zeros":[0,2],"ones":[]},{"zeros":[2],"ones":[0,1]},'
        '{"zeros":[0],"ones":[2,3]},{"zeros":[],"ones":[0,1,2,3]},{"zeros":[1],"ones":[0]},'
        '{"zeros":[0,3],"ones":[2]},{"zeros":[3],"ones":[0,1,2]}]}]',
        '[4,{"subcubes":[{"zeros":[0,2],"ones":[]},{"zeros":[2],"ones":[0,1]},'
        '{"zeros":[0],"ones":[2,3]},{"zeros":[],"ones":[0,1,2,3]},{"zeros":[1],"ones":[0]},'
        '{"zeros":[0,3],"ones":[2]},{"zeros":[3],"ones":[0,1,2]}]}]',
    ),
    "random:n=6,k=3,seed=1": (
        '[3,{"certificates":[{"zeros":[1,3,4],"ones":[]},{"zeros":[],"ones":[1,2,5]},'
        '{"zeros":[],"ones":[2,4,5]},{"zeros":[4,5],"ones":[1]},{"zeros":[],"ones":[2,3,4]},'
        '{"zeros":[],"ones":[1,2,4]},{"zeros":[],"ones":[1,3,4]},{"zeros":[],"ones":[1,3,5]},'
        '{"zeros":[],"ones":[1,4,5]},{"zeros":[2],"ones":[0,5]},{"zeros":[],"ones":[2,3,5]},'
        '{"zeros":[],"ones":[3,4,5]},{"zeros":[1,5],"ones":[0]},{"zeros":[2,3,5],"ones":[]}]}]',
        '[4,{"subcubes":[{"zeros":[],"ones":[0,2,5]},{"zeros":[0],"ones":[1,2,4]},'
        '{"zeros":[0,4],"ones":[1,3]},{"zeros":[0,1],"ones":[2,4]},{"zeros":[2],"ones":[1,3,4]},'
        '{"zeros":[2,4],"ones":[0,5]},{"zeros":[2,3],"ones":[0,4]},{"zeros":[1,2],"ones":[3,4]},'
        '{"zeros":[4,5],"ones":[0,1]},{"zeros":[5],"ones":[0,2,4]},{"zeros":[1,4,5],"ones":[]},'
        '{"zeros":[0,3,4],"ones":[1]},{"zeros":[0,2,3],"ones":[4]},{"zeros":[0,1,4],"ones":[5]}]}]',
    ),
    "or-first-half:n=6": (
        '[1,{"certificates":[{"zeros":[],"ones":[0]},{"zeros":[],"ones":[1]},'
        '{"zeros":[],"ones":[2]},{"zeros":[],"ones":[3]},{"zeros":[],"ones":[4]},'
        '{"zeros":[],"ones":[5]}]}]',
        '[3,{"subcubes":[{"zeros":[0,1,2],"ones":[]},{"zeros":[],"ones":[0]},'
        '{"zeros":[0],"ones":[1]},{"zeros":[0,1],"ones":[2]}]}]',
    ),
}


@pytest.mark.parametrize("spec", sorted(_UC_SC_PINS))
def test_uc_and_sc_witnesses_match_their_pins(spec):
    f = parse_construction(spec).build()
    uc, sc = _UC_SC_PINS[spec]
    assert list(unambiguous_certificate_complexity(f)) == json.loads(uc)
    assert list(subcube_partition_complexity(f)) == json.loads(sc)


def test_verify_rejects_foreign_witness():
    f = make_eq(1)
    g = random_slice_function(4, 2, 0)
    entry = compute_measures(g, ["D"], None)["measures"]["D"]
    with pytest.raises(VerificationError):
        verify_entry(f, "D", entry)


def test_verify_refuses_a_balanced_certificate_off_a_balanced_slice():
    # a balanced, label-constant certificate at 1000, but BC is undefined here
    f = LabeledFunction.from_callable(Domain.cube(4), lambda x: x & 1, BOOLEAN)
    witness = {"input": "1000", "zeros": [1], "ones": [0]}
    with pytest.raises(VerificationError, match="need a balanced slice domain"):
        verify_entry(f, "BC", {"value": 2, "witness": witness})


def test_weight_one_depth_is_half_n():
    for n in range(2, 9):
        f = or_first_half(n)
        assert exact_depth(f) == n // 2
    assert exact_depth(or_first_half(6)) == minimax_depth(or_first_half(6))


def test_distinctness_small_instance_frozen_values():
    ed = make_ed(3, 2)
    assert exact_depth(ed) == 4
    assert exact_depth(ed) == minimax_depth(ed)
    assert max_one_subcube_intersection(ed)[0] == 4


def test_depth_on_strings_spread_across_positions():
    f = LabeledFunction.from_callable(
        Domain.slice(6, 3),
        lambda x: 1 if string_to_mask("111000") == x else 0,
        BOOLEAN,
    )
    d = exact_depth(f)
    assert 1 <= d <= 4


# (D, nodes, len(tt)) after solve() and after build_tree().  These pin the
# search tree itself: a change to the solver's speed must visit the same
# states in the same order, so neither count may move.
SEARCH_SHAPE_PINS = {
    "eq:k=2": ((5, 293, 547), (5, 310, 566)),
    "gs:n=8,k=4": ((6, 944, 1273), (6, 955, 1282)),
    "ed:k=3,l=2": ((4, 45, 109), (4, 46, 110)),
    "random:n=8,k=4,seed=1": ((5, 406, 844), (5, 426, 866)),
    # three labels, so the label-count lower bound is 2 here
    "weights:n=3,m=3,k=4": ((6, 644, 1503), (6, 695, 1580)),
}


def _search_shape(f):
    solver = DepthSolver(f)
    value = solver.solve()
    after_solve = (value, solver.nodes, len(solver.tt))
    tree = solver.build_tree()
    assert check_tree(tree.to_json_obj(), f) == value
    after_tree = (value, solver.nodes, len(solver.tt))
    return after_solve, after_tree


@pytest.mark.parametrize("spec", sorted(SEARCH_SHAPE_PINS))
def test_depth_search_shape_is_pinned(spec):
    f = parse_construction(spec).build()
    assert _search_shape(f) == SEARCH_SHAPE_PINS[spec]


def _random_cube_function(n, seed):
    rng = random.Random(seed)
    table = [rng.randrange(2) for _ in range(1 << n)]
    return LabeledFunction.from_indices(Domain.cube(n), BOOLEAN, table)


def _random_explicit_function(n, size, seed, labels=2):
    rng = random.Random(seed)
    members = sorted(rng.sample(range(1 << n), size))
    table = [rng.randrange(labels) for _ in members]
    return LabeledFunction.from_indices(
        Domain.explicit(n, members), tuple(range(labels)), table
    )


# The same pins off the slice.  Both paths take moves in position order;
# the cube path knows each split's sizes from the key, and the explicit path
# counts each split and skips the positions that do not split the state.
# The three-label function takes the counted split with the label-count lower
# bound made on each TT miss.
OFF_SLICE_SHAPE_PINS = {
    "cube:n=7,seed=1": (
        lambda: _random_cube_function(7, 1),
        ((7, 508, 381), (7, 839, 632)),
    ),
    "explicit:n=9,size=100,seed=1": (
        lambda: _random_explicit_function(9, 100, 1),
        ((6, 1121, 1873), (6, 1367, 2241)),
    ),
    "explicit:n=8,size=60,seed=1,labels=3": (
        lambda: _random_explicit_function(8, 60, 1, labels=3),
        ((6, 406, 806), (6, 535, 1000)),
    ),
}


@pytest.mark.parametrize("name", sorted(OFF_SLICE_SHAPE_PINS))
def test_depth_search_shape_is_pinned_off_slices(name):
    build, pinned = OFF_SLICE_SHAPE_PINS[name]
    assert _search_shape(build()) == pinned


# sha256 of the decoded TT, sorted (key, lo, hi) rows, after solve() and
# after build_tree() on every function pinned above.  The counts alone would
# pass a write that swaps lo and hi, or one that stores a looser bound.
TT_CONTENT_PINS = {
    "cube:n=7,seed=1": (
        "fca89f291f1e9a65e2db2fa19f76a81e59977cb57e2ac65b198fd5371387a04a",
        "171fa043a1af812c112a2c4d5b0c2192d53de5704e5fdf4d44ab47a1266170cc",
    ),
    "ed:k=3,l=2": (
        "cace4ee80f9015d35175939459ececc39af75b6604b20f92a0d36dc4ab412cd7",
        "95c892f9f266340e2c74b8c15b5e5eee4e605c50f030af9c696582c75b82b08a",
    ),
    "eq:k=2": (
        "2abbc817e24af294e9d05843f3823a784af656fbfc6d9999f1c2ff14dcc3a24e",
        "9b5501d3f73d52bb68631e00e18e7d5c52502424fc61f7bd4f8174bd1bbeae5c",
    ),
    "explicit:n=8,size=60,seed=1,labels=3": (
        "b1a7f0d108250c7b7ae2de491cfe879b2f80b6945649513fadd4530f4a7bc43a",
        "fcbcd44d5ef90ecb92543ff65330023db153ede9ef4b25fcbbb41c0225cd51d6",
    ),
    "explicit:n=9,size=100,seed=1": (
        "9362a94bb85d6edbd62710f935bb4f76a399006eb5d0bb60f432b736d024b148",
        "b183d3157e65cba40358fea0211f2e0ff1be31595292687464ff8b330f3b0e20",
    ),
    "gs:n=8,k=4": (
        "b516840d2a5d7ecccb6d80b21a6c2e5e0a3b70e793926af6acfce8f7874c593a",
        "d32666de9cd94edd5fd10f866964da830d215b71d4413c1a1ffca5ba16a1698b",
    ),
    "random:n=8,k=4,seed=1": (
        "5c1e68360ec92995e2f5144e8b1217b76bbe85a25a7142db343a237028b6ffd5",
        "52a874e6a233ab828834dc7bda987070c950e1d67cf142f7a53ceeba5d00be59",
    ),
    "weights:n=3,m=3,k=4": (
        "c4309686531de66bfcd3da603fff70a8d1819daae297e6e9d0a3cd2dfb52d64c",
        "b95113c819b385f9c82180dead656ea3cf3c4a343bb8f619ab68378bacd25916",
    ),
}


def _tt_digest(solver):
    rows = sorted((key, *solver.bounds(key)) for key in solver.tt)
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(TT_CONTENT_PINS))
def test_depth_tt_contents_are_pinned(name):
    assert set(TT_CONTENT_PINS) == set(SEARCH_SHAPE_PINS) | set(OFF_SLICE_SHAPE_PINS)
    if name in OFF_SLICE_SHAPE_PINS:
        f = OFF_SLICE_SHAPE_PINS[name][0]()
    else:
        f = parse_construction(name).build()
    solver = DepthSolver(f)
    solver.solve()
    after_solve = _tt_digest(solver)
    solver.build_tree()
    assert (after_solve, _tt_digest(solver)) == TT_CONTENT_PINS[name]


@pytest.mark.parametrize(
    "spec, hint", [("eq:k=2", 3), ("gs:n=8,k=4", 4), ("kml:r=3", 4)]
)
def test_root_packing_hint_is_pinned(spec, hint):
    assert DepthSolver(parse_construction(spec).build())._packing_hint() == hint


def test_root_packing_hint_on_a_sparse_large_slice():
    """Three 1-inputs on slice(20, 10), pairwise at least 10 positions
    apart, share no monochromatic subcube, so the hint is 3's bit length;
    the 0 side is above the hint's side cap."""
    dom = Domain.slice(20, 10)
    ones = {
        dom.rank(string_to_mask(x))
        for x in ("1" * 10 + "0" * 10, "0" * 10 + "1" * 10, "11111000001111100000")
    }
    table = [int(r in ones) for r in range(dom.size)]
    f = LabeledFunction.from_indices(dom, BOOLEAN, table)
    assert DepthSolver(f)._packing_hint() == 2


def test_a_solver_on_a_large_domain_builds_its_view_once():
    dom = Domain.slice(40, 4)
    assert dom.size > slicecore._VIEW_MAX_SIZE
    f = LabeledFunction.from_indices(dom, BOOLEAN, [1] + [0] * (dom.size - 1))
    slicecore._last_large_view.cache_clear()
    DepthSolver(f)
    assert slicecore._last_large_view.cache_info().misses == 1


@st.composite
def consistent_keys(draw):
    """A slice or cube domain and answer masks (zeros, ones) that one of its
    members, and so at least one, agrees with."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 12))
        dom = Domain.slice(n, draw(st.integers(1, n - 1)))
    else:
        dom = Domain.cube(draw(st.integers(1, 11)))
    x = member_masks(dom)[draw(st.integers(0, dom.size - 1))]
    fixed = draw(st.integers(0, (1 << dom.n) - 1))
    return dom, fixed & ~x, fixed & x


@settings(max_examples=150, deadline=None)
@given(consistent_keys())
def test_free_positions_split_slices_and_cubes_evenly(case):
    """The live set is a function of the key: on a slice or cube every free
    position splits it into sizes that depend only on the number of free
    positions and ones left, so the solver needs neither count nor sort,
    and its shared move tables list the free positions in ascending order."""
    dom, zeros, ones = case
    n = dom.n
    ones_at = position_rank_bitsets(dom)
    S = sum(
        1 << r
        for r, x in enumerate(member_masks(dom))
        if not x & zeros and x & ones == ones
    )
    c = S.bit_count()
    assume(c >= 2)
    free = ~(zeros | ones) & ((1 << n) - 1)
    nf = free.bit_count()
    if dom.kind == "slice":
        r = dom.k - ones.bit_count()
        assert c == math.comb(nf, r)
        c1 = math.comb(nf - 1, r - 1)
    else:
        assert c == 1 << nf
        c1 = c >> 1
    positions = mask_positions(free)
    for p in positions:
        assert (S & ones_at[p]).bit_count() == c1
    low, high = position_move_tables(dom)
    assert low[free & 255] + high[free >> 8] == tuple(
        (1 << p, ones_at[p]) for p in positions
    )
    solver = DepthSolver(LabeledFunction.from_indices(dom, BOOLEAN, [0] * dom.size))
    assert solver.low_moves is low and solver.high_moves is high


@st.composite
def small_functions(draw):
    """A function on a slice, cube or explicit domain of at most 20 members,
    over the Boolean alphabet or three labels."""
    kind = draw(st.sampled_from(["slice", "cube", "explicit"]))
    if kind == "slice":
        n = draw(st.integers(2, 6))
        k = draw(st.integers(1, n - 1).filter(lambda k: math.comb(n, k) <= 20))
        dom = Domain.slice(n, k)
    elif kind == "cube":
        dom = Domain.cube(draw(st.integers(1, 4)))
    else:
        n = draw(st.integers(1, 5))
        members = draw(
            st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20, unique=True)
        )
        dom = Domain.explicit(n, sorted(members))
    alphabet = draw(st.sampled_from([BOOLEAN, (0, 1, 2)]))
    table = draw(
        st.lists(
            st.integers(0, len(alphabet) - 1), min_size=dom.size, max_size=dom.size
        )
    )
    return LabeledFunction.from_indices(dom, alphabet, table)


@settings(max_examples=60, deadline=None)
@given(small_functions())
def test_an_untampered_report_of_the_chain_measures_verifies(f):
    # UC and SC are Boolean-only, and small_functions() keeps within
    # their caps (at most 64 members, n <= 6)
    names = ["s", "bs2", "bs", "C", "D", "nonadaptive"]
    names += ["deg", "UC", "SC"] * f.is_boolean
    verify_report(f, compute_measures(f, names, None)["measures"])


def _grown_certificate(witness, balanced):
    """The witness with its lowest free position fixed as its input has it
    (for a balanced one, its lowest free 0 and 1), or None if none is free:
    still a certificate at the input, one (two) positions past the least."""
    x = witness["input"]
    fixed = set(witness["zeros"]) | set(witness["ones"])
    free = {b: [p for p, ch in enumerate(x) if ch == b and p not in fixed] for b in "01"}
    bits = "01" if balanced else ("0" if free["0"] else "1")
    if not all(free[b] for b in bits):
        return None
    grown = dict(witness, zeros=list(witness["zeros"]), ones=list(witness["ones"]))
    for b in bits:
        grown["zeros" if b == "0" else "ones"].append(free[b][0])
    return grown


@settings(max_examples=100, deadline=None)
@given(small_functions().filter(lambda f: f.is_boolean))
def test_a_certificate_grown_past_the_least_at_its_input_is_refused(f):
    names = ["C", "BC", "mBC"] if f.domain.is_balanced_slice else ["C"]
    for name, entry in compute_measures(f, names, None)["measures"].items():
        verify_entry(f, name, entry)
        grown = _grown_certificate(entry["witness"], balanced=name != "C")
        if grown is not None:
            stated = entry["value"] + (1 if name == "C" else 2)
            with pytest.raises(VerificationError, match="least certificate at the input"):
                verify_entry(f, name, {"value": stated, "witness": grown})


@settings(max_examples=100, deadline=None)
@given(small_functions().filter(lambda f: f.is_boolean), st.data())
def test_an_s_witness_short_of_one_move_is_refused(f, data):
    # the shortened witness is still valid blocks; only the recomputed s
    # shows that value - 1 is too low
    value, witness = sensitivity(f)
    assume(value > 0)
    verify_entry(f, "s", {"value": value, "witness": witness})
    key = "swaps" if f.domain.kind == "slice" else "positions"
    drop = data.draw(st.integers(0, value - 1))
    short = dict(witness, **{key: witness[key][:drop] + witness[key][drop + 1 :]})
    with pytest.raises(VerificationError, match="largest sensitivity"):
        verify_entry(f, "s", {"value": value - 1, "witness": short})


@settings(max_examples=150, deadline=None)
@given(small_functions())
def test_exact_depth_matches_minimax_oracle(f):
    assert exact_depth(f) == minimax_depth(f)


@pytest.mark.parametrize("seed", range(4))
def test_exact_depth_on_explicit_domains_of_seven_positions(seed):
    """small_functions() draws explicit domains of n <= 5 and at most 20
    members; these have n = 7 and 40."""
    f = _random_explicit_function(7, 40, seed)
    value = exact_depth(f)
    assert value == minimax_depth(f)
    assert check_tree(DepthSolver(f).build_tree().to_json_obj(), f) == value


def _tree_nodes(obj):
    """Every node of a JSON tree, root first."""
    yield obj
    if "query" in obj:
        for b in "01":
            yield from _tree_nodes(obj[b])


@st.composite
def mutated_trees(draw):
    """A function and its optimal tree as JSON after one to three edits: a
    leaf relabelled (in range or not, or not an int), a leaf grown into a
    query, a query moved (in range or not), a key dropped, or a child that
    is not an object."""
    f = draw(small_functions())
    tree = DepthSolver(f).build_tree().to_json_obj()
    n, labels = f.domain.n, len(f.alphabet)
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(_tree_nodes(tree))))
        if "leaf" in node:
            if draw(st.booleans()):
                leaves = [-1, labels, True, 0.5, *range(labels)]
                node["leaf"] = draw(st.sampled_from(leaves))
            else:
                grown = {"leaf": draw(st.integers(0, labels - 1))}
                sides = [dict(node), grown] if draw(st.booleans()) else [grown, dict(node)]
                node.clear()
                node.update(query=draw(st.integers(0, n - 1)), **dict(zip("01", sides)))
            continue
        edit = draw(st.sampled_from(["move", "move", "drop", "scalar"]))
        if edit == "move":
            node["query"] = draw(st.sampled_from([-1, n, *range(n)]))
            continue
        if edit == "drop":
            del node[draw(st.sampled_from(["query", "0", "1"]))]
        else:
            node[draw(st.sampled_from("01"))] = draw(st.sampled_from([7, None, [], "leaf"]))
        break  # the edited node no longer walks
    return f, tree


def _tree_outcome(check, tree, f):
    try:
        return check(tree, f)
    except (DomainError, KeyError, TypeError) as e:
        return repr(e)


@settings(max_examples=300, deadline=None)
@given(mutated_trees())
def test_check_tree_agrees_with_parsing_then_walking_each_member(case):
    """One walk gives the reference's depth, or raises what it raises:
    a malformed node anywhere before a wrong label, and a wrong label at
    the lowest-rank member it reaches."""
    f, tree = case
    assert _tree_outcome(check_tree, tree, f) == _tree_outcome(check_tree_oracle, tree, f)


@settings(max_examples=100, deadline=None)
@given(small_functions().filter(lambda f: f.is_boolean))
def test_a_least_certificate_below_the_largest_is_refused_as_c(f):
    """A least certificate at an input x with C(f, x) < C(f) passes every
    check at x, so only the max over inputs refuses it as C."""
    top = certificate_complexity(f)[0]
    for x in f.domain.members():
        value, witness = certificate_complexity(f, x)
        entry = {"value": value, "witness": witness}
        if value == top:
            verify_entry(f, "C", entry)
        else:
            with pytest.raises(VerificationError, match="largest least certificate"):
                verify_entry(f, "C", entry)


def _assert_tt_sound(solver, depth_of):
    """Each TT key splits into disjoint zeros/ones masks inside n bits, and
    its packed bounds bracket that state's true depth, depth_of(zeros,
    ones), which is at least 1 because no single-label state is stored."""
    n = solver.n
    for key in solver.tt:
        zeros, ones = key & ((1 << n) - 1), key >> n
        assert ones >> n == 0 and not zeros & ones
        lo, hi = solver.bounds(key)
        assert 1 <= lo <= depth_of(zeros, ones) <= hi


@settings(max_examples=150, deadline=None)
@given(small_functions())
def test_tt_keys_decode_and_bounds_bracket_the_true_depth(f):
    solver = DepthSolver(f)
    value = solver.solve()
    if value:
        # the root, keyed 0, is solved exactly
        assert solver.bounds(0) == (value, value)
    _assert_tt_sound(solver, partial(minimax_depth, f))
    solver.build_tree()
    _assert_tt_sound(solver, partial(minimax_depth, f))


@st.composite
def functions_to_n9(draw):
    """A function on a slice, cube or explicit domain with n <= 9, over the
    Boolean alphabet or three labels, its table and explicit members drawn
    uniformly from a seed; half the time label 0 is made commoner."""
    kind = draw(st.sampled_from(["slice", "cube", "explicit"]))
    n = draw(st.integers(2, 9))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "slice":
        dom = Domain.slice(n, draw(st.integers(1, n - 1)))
    elif kind == "cube":
        dom = Domain.cube(n)
    else:
        dom = Domain.explicit(n, mask_positions(rng.getrandbits(1 << n) or 1))
    alphabet = draw(st.sampled_from([BOOLEAN, (0, 1, 2)]))
    codes = [rng.getrandbits(dom.size) for _ in alphabet[1:]]
    if draw(st.booleans()):
        codes = [c & rng.getrandbits(dom.size) for c in codes]
    table = [sum(c >> r & 1 for c in codes) for r in range(dom.size)]
    return LabeledFunction.from_indices(dom, alphabet, table)


def _assert_depth_matches_the_memoized_oracle(f):
    depth_of = depth_by_state(f)
    solver = DepthSolver(f)
    assert solver.solve() == depth_of()
    _assert_tt_sound(solver, depth_of)
    solver.build_tree()
    _assert_tt_sound(solver, depth_of)
    return depth_of()


@settings(max_examples=40, deadline=None)
@given(functions_to_n9())
def test_depth_and_every_tt_bound_match_the_memoized_oracle_to_n9(f):
    _assert_depth_matches_the_memoized_oracle(f)


def test_the_memoized_oracle_reaches_the_balanced_slice_of_n10():
    f = parse_construction("gs:n=10,k=5").build()
    assert _assert_depth_matches_the_memoized_oracle(f) == 7


def _tree_positions(t):
    if isinstance(t, Node):
        yield t.position
        yield from _tree_positions(t.on_zero)
        yield from _tree_positions(t.on_one)


@settings(max_examples=150, deadline=None)
@given(small_functions(), st.data())
def test_build_tree_of_a_sub_state_is_optimal_and_queries_free_positions(f, data):
    full = (1 << f.domain.n) - 1
    zeros = data.draw(st.integers(0, full), label="zeros")
    ones = data.draw(st.integers(0, full), label="ones")
    if data.draw(st.integers(0, 4), label="overlap") > 0:
        ones &= ~zeros
    members = member_masks(f.domain)
    live = [r for r, x in enumerate(members) if not x & zeros and x & ones == ones]
    solver = DepthSolver(f)
    if not live:
        # overlapping masks leave no member either
        with pytest.raises(DomainError):
            solver.build_tree(zeros, ones)
        return
    tree = solver.build_tree(zeros, ones)
    assert tree_depth(tree) == minimax_depth(f, zeros, ones)
    assert not any((zeros | ones) >> p & 1 for p in _tree_positions(tree))
    for r in live:
        assert tree_evaluate(tree, members[r]) == f.table[r]


def _parity(n):
    return LabeledFunction.from_callable(
        Domain.cube(n), lambda x: x.bit_count() & 1, BOOLEAN
    )


@pytest.mark.parametrize("n", [3, 4, 7, 8])
def test_tt_width_holds_a_depth_of_n(n):
    """Parity on the n-cube has depth n, the largest bound the table stores;
    n = 3, 7 fill n.bit_length() bits and n = 4, 8 need a fresh one."""
    solver = DepthSolver(_parity(n))
    assert solver.solve() == n
    assert solver.bounds(0) == (n, n)
    assert all(1 <= lo <= hi <= n for lo, hi in map(solver.bounds, solver.tt))


def test_resolve_raises_when_a_lower_bound_is_lost():
    solver = DepthSolver(_parity(4))

    def expand_without_storing(S, key, lo, hi, alpha, beta, c, nf):
        # reports a value above the window but never raises tt[key]
        return lo + 1

    solver._expand = expand_without_storing
    with pytest.raises(AssertionError, match="lower bound was lost"):
        solver._resolve(solver.full, 0, 0)


@settings(max_examples=150, deadline=None)
@given(small_functions())
def test_sensitivity_matches_oracle_and_verifies(f):
    value, witness = sensitivity(f)
    assert value == sensitivity_max(f)
    verify_entry(f, "s", {"value": value, "witness": witness})
    # the witness is the lowest-rank input attaining the maximum
    first = next(x for x in f.domain.members() if sensitivity_at(f, x) == value)
    assert witness["input"] == mask_to_string(first, f.domain.n)
    # a pointwise witness holds valid blocks, so only the recomputed s(f)
    # refuses one below the max
    for x in f.domain.members():
        vx, wx = sensitivity(f, x)
        assert vx == sensitivity_at(f, x)
        if vx == value:
            verify_entry(f, "s", {"value": vx, "witness": wx})
        else:
            with pytest.raises(VerificationError, match="largest sensitivity"):
                verify_entry(f, "s", {"value": vx, "witness": wx})


@settings(max_examples=100, deadline=None)
@given(small_functions())
def test_max_mode_witnesses_name_the_lowest_rank_maximizer(f):
    for name, fn, at in (
        ("C", certificate_complexity, certificate_at),
        ("bs", block_sensitivity, block_sensitivity_at),
    ):
        value, witness = fn(f)
        verify_entry(f, name, {"value": value, "witness": witness})
        first = next(x for x in f.domain.members() if at(f, x) == value)
        assert witness["input"] == mask_to_string(first, f.domain.n)


@st.composite
def slice_boolean_functions(draw):
    """A Boolean function on slice(n, k), 2 <= n <= 8: constant, a single
    point, or random."""
    n = draw(st.integers(2, 8))
    dom = Domain.slice(n, draw(st.integers(1, n - 1)))
    shape = draw(st.sampled_from(["constant", "point", "random"]))
    if shape == "constant":
        table = [draw(st.integers(0, 1))] * dom.size
    elif shape == "point":
        table = [0] * dom.size
        table[draw(st.integers(0, dom.size - 1))] = 1
    else:
        table = draw(st.lists(st.integers(0, 1), min_size=dom.size, max_size=dom.size))
    return LabeledFunction.from_indices(dom, BOOLEAN, table)


@settings(max_examples=60, deadline=None)
@given(slice_boolean_functions())
def test_slice_degree_matches_oracle(f):
    assert degree(f) == (degree_oracle(f), None)


@pytest.mark.parametrize(
    "f",
    [
        make_eq(2),
        make_ed(3, 2),
        from_graph(paley_weight2(13)),
        random_slice_function(8, 3, 1),
        random_slice_function(9, 4, 2),
    ],
)
def test_slice_degree_agrees_with_monomial_span(f):
    assert _degree_slice(f) == _degree_span(f)


# -- pruned max loops against unpruned references -------------------------------


def _packing_unpruned(masks):
    """max_disjoint_packing without its union bound: the same search order
    and the same first maximum."""
    work = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    best = []

    def go(idx, used, chosen):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        for j in range(idx, len(work)):
            if not work[j] & used:
                go(j + 1, used | work[j], chosen + [work[j]])

    go(0, 0, [])
    return len(best), best


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, (1 << 7) - 1), max_size=14))
def test_packing_union_bound_keeps_count_and_choice(masks):
    assert max_disjoint_packing(masks) == _packing_unpruned(masks)


def _label_changing_diffs(f, r, max_block_size=None):
    members, table = list(f.domain.members()), f.table
    return [
        members[r] ^ y
        for y, label in zip(members, table)
        if label != table[r]
        and (max_block_size is None or (members[r] ^ y).bit_count() <= max_block_size)
    ]


def _bs_unpruned(f, max_block_size=None):
    best, arg, chosen = -1, None, None
    for r, x in enumerate(f.domain.members()):
        diffs = _label_changing_diffs(f, r, max_block_size)
        v, blocks = _packing_unpruned(minimal_masks(diffs))
        if v > best:
            best, arg, chosen = v, x, blocks
    return best, {
        "input": mask_to_string(arg, f.domain.n),
        "blocks": [mask_positions(m) for m in chosen],
    }


def _c_unpruned(f):
    best = -1
    for r, x in enumerate(f.domain.members()):
        diffs = _label_changing_diffs(f, r)
        v, mask = min_hitting_set(diffs, f.domain.n) if diffs else (0, 0)
        if v > best:
            best, arg, arg_mask = v, x, mask
    w = {"input": mask_to_string(arg, f.domain.n)}
    w.update(Assignment(zeros=arg_mask & ~arg, ones=arg_mask & arg).to_json_obj())
    return best, w


def _s_unpruned(f):
    """s(f) by a scan of every input in rank order, first maximum kept."""
    best = (-1, None)
    for x in f.domain.members():
        at = sensitivity(f, x)
        if at[0] > best[0]:
            best = at
    return best


@settings(max_examples=150, deadline=None)
@given(small_functions())
def test_pruned_max_loops_keep_value_and_witness(f):
    assert block_sensitivity(f) == _bs_unpruned(f)
    assert block_sensitivity(f, max_block_size=2) == _bs_unpruned(f, 2)
    assert certificate_complexity(f) == _c_unpruned(f)
    assert sensitivity(f) == _s_unpruned(f)


@st.composite
def cube_functions(draw):
    """A function on the n-cube, 1 <= n <= 6, over two or three labels."""
    dom = Domain.cube(draw(st.integers(1, 6)))
    alphabet = draw(st.sampled_from([BOOLEAN, (0, 1, 2)]))
    table = draw(
        st.lists(
            st.integers(0, len(alphabet) - 1), min_size=dom.size, max_size=dom.size
        )
    )
    return LabeledFunction.from_indices(dom, alphabet, table)


@settings(max_examples=100, deadline=None)
@given(cube_functions())
def test_cube_sensitivity_by_bit_sliced_counts(f):
    value, witness = sensitivity(f)
    assert value == sensitivity_max(f)
    assert (value, witness) == _s_unpruned(f)


@settings(max_examples=150, deadline=None)
@given(small_functions())
def test_certificate_skip_is_admissible(f):
    # a skip at beat promises C(f, x) <= beat, so x cannot raise the max
    skip = certificate_skip(f)
    for r, x in enumerate(f.domain.members()):
        for beat in range(-1, f.domain.n + 1):
            if skip(r, beat):
                assert certificate_at(f, x) <= beat


def _skips_agree(f, max_others):
    shared = certificate_skip(f, max_others)
    per_call = per_call_certificate_skip(f, max_others)
    for r in range(f.domain.size):
        for beat in range(-1, f.domain.n + 2):
            assert shared(r, beat) == per_call(r, beat), (r, beat)


@settings(max_examples=150, deadline=None)
@given(small_functions(), st.data())
def test_certificate_skip_decides_as_the_per_call_greedy(f, data):
    # the greedy sizes are computed once per function; a skip must still say
    # exactly what the greedy run up to beat picks at that question said
    max_others = data.draw(st.none() | st.integers(0, f.domain.size))
    _skips_agree(f, max_others)


@pytest.mark.parametrize("max_others", [None, 0, 20, 59])
def test_certificate_skip_decides_as_the_per_call_greedy_on_three_labels(max_others):
    _skips_agree(_random_explicit_function(7, 60, 2, labels=3), max_others)


def test_scan_measures_and_their_checks_share_one_greedy_and_one_subcube_scan(
    monkeypatch,
):
    f = parse_construction("gs:n=10,k=5").build()
    certificates._greedy_sizes.cache_clear()
    bounds._subcube_scan.cache_clear()
    calls = {"greedy": 0, "kills": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(certificates, "greedy_cover", counted("greedy", greedy_cover))
    monkeypatch.setattr(bounds, "_kill_table", counted("kills", bounds._kill_table))
    names = ["C", "s", "bs", "bs2", "m", "packing"]
    for name, entry in compute_measures(f, names, None)["measures"].items():
        verify_entry(f, name, entry)
    assert calls["greedy"] <= f.domain.size
    assert calls["kills"] == 1
    _, witness = max_one_subcube_intersection(f)
    kept = json.dumps(witness)
    witness["zeros"].append(99)
    witness["ones"] = []
    assert json.dumps(max_one_subcube_intersection(f)[1]) == kept


# sha256 of the JSON list [spec, C, C's witness, bs, bs's witness, bs2,
# bs2's witness] over every certify-mix function at seeds 1-3, as the skip
# that ran the greedy afresh at every question computed them.
_C_BS_PIN = "1508d0be1b336b4c2c232a0b288dc16dc39445efeb33f11b6c442063705ebaee"


def test_c_bs_and_bs2_witnesses_are_pinned():
    rows = []
    for spec in _S_DEG_PIN_SPECS:
        f = parse_construction(spec).build()
        rows.append([
            spec, *certificate_complexity(f), *block_sensitivity(f),
            *block_sensitivity(f, max_block_size=2),
        ])
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == _C_BS_PIN


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, (1 << 8) - 1), max_size=16))
def test_bitset_greedy_hitting_matches_counting_greedy(masks):
    minimal = minimal_masks(masks)
    # cols[p] holds the indices of the masks that position p hits
    cols = [0] * 8
    for i, m in enumerate(minimal):
        for p in mask_positions(m):
            cols[p] |= 1 << i
    chosen = greedy_cover(cols, (1 << len(minimal)) - 1)
    assert (chosen.bit_count(), chosen) == greedy_hitting_oracle(minimal, 8)


@st.composite
def hitting_set_instances(draw):
    """(masks, n): up to 30 masks of two or three positions out of
    3 <= n <= 12, from a seeded generator.  The search order shows only
    where the greedy set is not least and several least sets exist: in a
    few instances per hundred here, and far fewer among hypothesis's own
    small draws or with one-position masks, which force their position."""
    rng = draw(st.randoms(use_true_random=True))
    n = rng.randint(3, 12)
    masks = [
        sum(1 << p for p in rng.sample(range(n), rng.randint(2, 3)))
        for _ in range(rng.randint(0, 30))
    ]
    return masks, n


@settings(max_examples=300, deadline=None)
@given(hitting_set_instances())
def test_min_hitting_set_keeps_the_list_form_tie_rule(case):
    # the witness mask, not just the size, is pinned: C's witnesses, cache
    # entries and report digests all carry it
    assert min_hitting_set(*case) == hitting_set_oracle(*case)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, (1 << 12) - 1), min_size=1, max_size=6),
    st.integers(0, (1 << 12) - 1),
)
def test_greedy_cover_fails_exactly_when_an_item_is_hit_by_no_position(cols, alive):
    chosen = greedy_cover(cols, alive)
    if alive & ~_union(cols):
        assert chosen == -1
    else:
        hit = _union(col for p, col in enumerate(cols) if chosen >> p & 1)
        assert chosen >= 0 and not alive & ~hit


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out


def test_block_cap_raises_even_where_the_bound_would_skip():
    # f = 1 on weights 1 and 2 of the 4-cube.  Input 0000 has four singleton
    # blocks, so bs = 4 from the first input on.  Input 1111 has six minimal
    # blocks (the weight-2 masks), the only input with more than five, and
    # their union of 4 positions over size 2 bounds it by 2 <= 4.
    f = LabeledFunction.from_callable(
        Domain.cube(4), lambda x: int(x.bit_count() in (1, 2)), BOOLEAN
    )
    assert block_sensitivity(f, block_cap=6)[0] == 4
    assert block_sensitivity(f, 0b1111, block_cap=6)[0] == 2
    too_many = "6 minimal blocks exceed the packing cap 5"
    with pytest.raises(ResourceCapError, match=too_many):
        block_sensitivity(f, 0b1111, block_cap=5)
    with pytest.raises(ResourceCapError, match=too_many):
        block_sensitivity(f, block_cap=5)


@pytest.mark.parametrize("x", [None, 0b1111])
def test_block_cap_raises_for_pair_blocks_where_the_bound_would_skip(x):
    # The same f with blocks of at most 2 positions.  Input 1111 has six
    # pair blocks (bs_2 = 2) and C = 3, so the greedy bound would skip it
    # once 0000's four singletons set the maximum; its ten unlike members
    # exceed the cap, so it is not skipped and the cap still fires.
    f = LabeledFunction.from_callable(
        Domain.cube(4), lambda x: int(x.bit_count() in (1, 2)), BOOLEAN
    )
    assert certificate_complexity(f, 0b1111)[0] == 3
    want = 4 if x is None else 2
    assert block_sensitivity(f, x, max_block_size=2, block_cap=6)[0] == want
    with pytest.raises(ResourceCapError, match="6 minimal blocks exceed"):
        block_sensitivity(f, x, max_block_size=2, block_cap=5)
