"""Catalog constructions: frozen shapes, label rules, and spec strings."""

import math

import pytest

from oracles import minimax_depth, sensitivity_max
from slicebench.catalog import (
    REGISTRY,
    build,
    compose_symmetric,
    graham_sloane,
    kml_cardinality,
    kml_set,
    lift,
    make_ed,
    make_eq,
    or_first_half,
    paley_weight2,
    parse_construction,
    random_graph,
    random_slice_function,
    rubinstein_original,
    rubinstein_slice,
    rubinstein_variant,
    slice_restriction,
    weights_task,
)
from slicebench.errors import DomainError
from slicebench.fileio import canonical_function_bytes
from slicebench.measures.depth import exact_depth
from slicebench.measures.sensitivity import sensitivity
from slicebench.slicecore import BOOLEAN, Domain, LabeledFunction, string_to_mask


def test_eq_shape_and_rule():
    f = make_eq(1)
    assert (f.domain.n, f.domain.k) == (4, 2)
    assert f.evaluate(string_to_mask("0101")) == 1
    assert f.evaluate(string_to_mask("1010")) == 1
    assert f.evaluate(string_to_mask("0110")) == 0
    assert f.evaluate(string_to_mask("1100")) == 0
    for x in f.domain.members():
        half = x & 0b11
        assert f.evaluate(x) == (1 if half == x >> 2 else 0)


def test_eq_depth_frozen():
    assert exact_depth(make_eq(1)) == 2
    assert exact_depth(make_eq(1)) == minimax_depth(make_eq(1))
    assert exact_depth(make_eq(2)) == 5


def test_ed_shape_and_ones():
    f = make_ed(4, 2)
    assert (f.domain.n, f.domain.k) == (8, 4)
    assert f.label_bitsets[1].bit_count() == 24
    assert f.evaluate(string_to_mask("00101101")) == 1
    assert f.evaluate(string_to_mask("11000011")) == 0
    with pytest.raises(DomainError):
        make_ed(4, 1)


def test_graham_sloane_partitions_and_best():
    n, k = 6, 2
    classes, best, _ = graham_sloane(n, k)
    assert len(classes) == n
    members = [x for group in classes for x in group]
    assert len(members) == len(set(members)) == math.comb(n, k)
    for j, group in enumerate(classes):
        for x in group:
            total = sum(p for p in range(n) if x >> p & 1)
            assert total % n == j
    assert len(classes[best]) == max(len(group) for group in classes)
    assert len(classes[best]) * n >= math.comb(n, k)


def test_graham_sloane_indicator():
    classes, _, indicator = graham_sloane(5, 2, i=3)
    assert indicator.domain.size == math.comb(5, 2)
    for x in indicator.domain.members():
        assert indicator.evaluate(x) == (1 if x in set(classes[3]) else 0)


def test_kml_counts_frozen():
    assert kml_cardinality(3) == 14
    assert kml_cardinality(4) == 870
    f = kml_set(3)
    assert (f.domain.n, f.domain.k) == (8, 4)
    assert f.label_bitsets[1].bit_count() == 14
    assert f.evaluate(string_to_mask("11110000")) == 1


def test_paley_graph_shape():
    g = paley_weight2(5)
    assert sum(row.bit_count() for row in g.adj) == 2 * 5
    with pytest.raises(DomainError):
        paley_weight2(7)
    with pytest.raises(DomainError):
        paley_weight2(9)


def test_graph_constructions_refuse_more_vertices_than_positions():
    # 73 is a prime with 73 % 4 == 1, so only the vertex cap refuses it
    with pytest.raises(DomainError, match="64"):
        random_graph(65, 0)
    with pytest.raises(DomainError, match="64"):
        paley_weight2(73)


def test_random_generators_reproducible():
    assert random_graph(6, 9).adj == random_graph(6, 9).adj
    assert random_graph(6, 9).adj != random_graph(6, 10).adj
    f = random_slice_function(5, 2, 42)
    assert f.table == random_slice_function(5, 2, 42).table
    assert f.table != random_slice_function(5, 2, 43).table


def test_rubinstein_variant_sensitivity_small():
    g = rubinstein_variant(4)
    assert g.domain.kind == "cube" and g.domain.n == 4
    assert sensitivity(g)[0] == 2
    assert sensitivity(g)[0] == sensitivity_max(g)
    assert g.evaluate(string_to_mask("1001")) == 1
    assert g.evaluate(string_to_mask("0101")) == 0


def test_rubinstein_original_small():
    g = rubinstein_original(4)
    assert g.evaluate(string_to_mask("1100")) == 1
    assert g.evaluate(string_to_mask("0110")) == 0
    assert g.evaluate(string_to_mask("0011")) == 1
    with pytest.raises(DomainError):
        rubinstein_original(9)


@pytest.mark.parametrize("n", [4, 16])
def test_rubinstein_slice_is_the_restricted_original(n):
    f = rubinstein_slice(n)
    assert f.domain == Domain.slice(n, n // 2)
    assert f.table == slice_restriction(rubinstein_original(n)).table
    with pytest.raises(DomainError, match="perfect square"):
        rubinstein_slice(n + 1)


def test_slice_restriction_agrees_on_slice():
    g = rubinstein_variant(4)
    f = slice_restriction(g)
    assert (f.domain.n, f.domain.k) == (4, 2)
    for x in f.domain.members():
        assert f.evaluate(x) == g.evaluate(x)
    narrow = slice_restriction(g, k=1)
    assert narrow.domain.k == 1
    # both read the cube table by mask; compare with evaluation per member
    three = LabeledFunction.from_callable(Domain.cube(5), lambda x: x % 3, (0, 1, 2))
    for h, k in ((g, 2), (g, 1), (three, 2), (three, 3)):
        dom = Domain.slice(h.domain.n, k)
        want = LabeledFunction.from_callable(dom, h.evaluate, h.alphabet)
        assert slice_restriction(h, k) == want
    for h in (g, LabeledFunction.from_callable(Domain.cube(3), lambda x: x >> 1 & 1)):
        n = h.domain.n
        low = (1 << n) - 1
        dom = Domain.slice(2 * n, n)
        want = LabeledFunction.from_callable(
            dom, lambda z: h.evaluate(z & low), BOOLEAN
        )
        assert lift(h) == want


def test_lift_reads_only_first_half():
    g = LabeledFunction.from_callable(
        Domain.cube(2), lambda x: 1 if x == 0b11 else 0, BOOLEAN
    )
    f = lift(g)
    assert (f.domain.n, f.domain.k) == (4, 2)
    for z in f.domain.members():
        assert f.evaluate(z) == g.evaluate(z & 0b11)
    assert f.evaluate(string_to_mask("1100")) == 1
    assert f.evaluate(string_to_mask("0011")) == 0


def test_weights_task_labels():
    f = weights_task(2, 2, 2)
    assert f.evaluate(string_to_mask("0110")) == (1, 1)
    assert f.evaluate(string_to_mask("1100")) == (2, 0)
    assert f.evaluate(string_to_mask("0011")) == (2, 0)
    assert sorted(set(f.table)) == [0, 1]
    assert set(f.alphabet) == {(1, 1), (2, 0)}


def test_weights_depth_two_blocks_frozen():
    for m in range(2, 5):
        for k in range(2, m + 1):
            assert exact_depth(weights_task(2, m, k)) == m


def test_compose_symmetric_or_of_ands():
    f = compose_symmetric([0, 1, 1], [0, 0, 1], 2)
    assert (f.domain.n, f.domain.k) == (4, 2)
    for z in f.domain.members():
        blocks = (z & 0b11, z >> 2)
        want = 1 if 0b11 in blocks else 0
        assert f.evaluate(z) == want
    with pytest.raises(DomainError):
        compose_symmetric([0, 1], [0, 2], 1)


def test_or_first_half_rule():
    f = or_first_half(6)
    ones = [x for x in f.domain.members() if f.evaluate(x)]
    assert len(ones) == 3
    assert all(x & 0b111 for x in ones)


def test_construction_specs_round_trip():
    for text in (
        "eq:k=2",
        "ed:k=3,l=2",
        "gs:i=1,k=2,n=5",
        "kml:r=3",
        "paley:q=5",
        "random-graph:n=5,seed=7",
        "rubinstein-variant:n=4",
        "rubinstein-slice:n=4",
        "weights:k=2,m=2,n=2",
        "compose:fsym=0-1-1,gsym=0-0-1,k=2",
        "random:k=2,n=5,seed=3",
        "or-first-half:n=6",
    ):
        spec = parse_construction(text)
        assert spec.to_string() == text
        assert spec.build().domain.size >= 1


def test_construction_specs_match_direct_builders():
    pairs = [
        ("eq:k=1", make_eq(1)),
        ("kml:r=3", kml_set(3)),
        ("weights:k=2,m=2,n=2", weights_task(2, 2, 2)),
        ("or-first-half:n=6", or_first_half(6)),
    ]
    for text, direct in pairs:
        built = parse_construction(text).build()
        assert canonical_function_bytes(built) == canonical_function_bytes(direct)


def test_construction_parse_errors():
    with pytest.raises(DomainError):
        parse_construction("")
    with pytest.raises(DomainError):
        parse_construction("eq:k")
    with pytest.raises(DomainError):
        parse_construction("eq:k=1,k=2")
    with pytest.raises(DomainError):
        parse_construction("eq:k=x")
    with pytest.raises(DomainError):
        parse_construction("nope:k=1").build()
    with pytest.raises(DomainError):
        parse_construction("eq:z=1").build()
    assert sorted(REGISTRY) == sorted(set(REGISTRY))


def test_construction_build_errors_name_the_keys():
    with pytest.raises(DomainError, match="construction 'gs' needs parameters k$"):
        parse_construction("gs:n=6").build()
    with pytest.raises(DomainError, match="got unknown parameters j, z$"):
        parse_construction("gs:n=6,k=3,z=1,j=2").build()
    with pytest.raises(DomainError) as err:
        parse_construction("nope").build()
    assert str(err.value).endswith(", ".join(REGISTRY))


def test_build_passes_lists_only_to_list_parameters():
    f = parse_construction("compose:fsym=0-1-1,gsym=0-0-1,k=2").build()
    direct = compose_symmetric((0, 1, 1), (0, 0, 1), 2)
    assert canonical_function_bytes(f) == canonical_function_bytes(direct)
    with pytest.raises(DomainError, match="symmetric specs need at least 2 entries"):
        parse_construction("compose:fsym=1,gsym=0-1,k=1").build()
    three = parse_construction("random:n=4,k=2,seed=1,alphabet=0-1-2").build()
    assert three.alphabet == (0, 1, 2)
    with pytest.raises(DomainError, match="parameter 'seed' takes one int, not 1-2"):
        parse_construction("random:n=4,k=2,seed=1-2").build()


def test_a_type_error_inside_a_builder_is_not_an_input_error():
    def broken(k):
        return len(k)

    with pytest.raises(TypeError):
        build({"broken": broken}, "construction", "broken", {"k": 1})
