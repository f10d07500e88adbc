"""Players, the referee, replays, and forced-query certification."""

import hashlib
import json
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import forced_oracle

from slicebench.adversary import (
    AdversaryPlayer,
    FixedInputAdversary,
    MatchTranscript,
    eq_adversary,
    eq_algorithm,
    forced_query_count,
    optimal_tree_player,
    run_match,
    weight1_algorithm,
    weight2_algorithm,
    weights_adversary,
    weights_alg_A,
    weights_alg_B,
    weights_m2_algorithm,
)
from slicebench.catalog import (
    make_eq,
    or_first_half,
    paley_weight2,
    random_slice_function,
    weights_task,
)
from slicebench.errors import (
    AdversaryExhaustedError,
    AdversaryInvalidError,
    DomainError,
    MatchProtocolError,
)
from slicebench.measures.depth import exact_depth
from slicebench.slicecore import (
    BOOLEAN,
    Domain,
    LabeledFunction,
    from_graph,
    member_masks,
)


def ScriptedAlgorithm(positions, claim):
    # a for loop, not yield from: a list iterator has no send
    for p in positions:
        yield p
    return claim


class StuckAdversary(AdversaryPlayer):
    """Always answers 1; quickly contradicts any slice's weight."""

    memo_safe = True

    def answer(self, position):
        return 1

    def clone(self):
        return StuckAdversary()


def replay_everywhere(make_alg, f):
    """Run the algorithm against every member; return the worst query count."""
    worst = 0
    for x in f.domain.members():
        t = run_match(make_alg(), FixedInputAdversary(x), f)
        assert t.status == "claimed"
        assert t.correct, (bin(x), t.claimed)
        worst = max(worst, t.query_count)
    return worst


def test_eq_algorithm_replays_exactly():
    for k in (1, 2):
        f = make_eq(k)
        assert replay_everywhere(lambda: eq_algorithm(k), f) == 3 * k - 1


def test_optimal_tree_player_matches_depth():
    f = random_slice_function(5, 2, 4)
    d = exact_depth(f)
    assert replay_everywhere(lambda: optimal_tree_player(f), f) == d


def test_weights_algorithms_replay():
    for n, m, k in [(3, 2, 3), (4, 2, 4), (2, 3, 2), (3, 3, 4), (2, 4, 5)]:
        f = weights_task(n, m, k)
        worst_a = replay_everywhere(lambda: weights_alg_A(n, m, k), f)
        assert worst_a == (n - 1) * m
        worst_b = replay_everywhere(lambda: weights_alg_B(n, m, k), f)
        assert worst_b <= n * m - -(-n // m)


def test_weights_b_single_bit_blocks_skip_everything():
    f = weights_task(4, 1, 2)
    assert replay_everywhere(lambda: weights_alg_B(4, 1, 2), f) == 0


def test_weights_m2_algorithm_counts():
    for n, k in [(4, 2), (5, 2), (6, 3)]:
        f = weights_task(n, 2, k)
        assert replay_everywhere(lambda: weights_m2_algorithm(n, k), f) <= n + k - 1
    f = weights_task(4, 2, 2)
    assert replay_everywhere(lambda: weights_m2_algorithm(4, 2), f) == 5


def test_weight1_algorithm():
    f = or_first_half(6)
    assert replay_everywhere(lambda: weight1_algorithm(f), f) == 3
    for seed in range(10):
        g = random_slice_function(7, 1, seed)
        assert replay_everywhere(lambda: weight1_algorithm(g), g) <= 3


def test_weight2_algorithm():
    cycle = from_graph(paley_weight2(5))
    assert replay_everywhere(lambda: weight2_algorithm(cycle), cycle) <= 4
    for seed in range(10):
        g = random_slice_function(6, 2, seed)
        assert replay_everywhere(lambda: weight2_algorithm(g), g) <= 4


# sha256 of the run_match transcripts of weight2_algorithm on every graph on
# 5 vertices (the Boolean function on slice(5, 2) whose value at rank r is
# bit r of the code), each played against every member as a fixed input
_WEIGHT2_PIN = "b1ea50a81dac4a7214b21bbec0f191d5769d7adee6f2610333e2386dc9f45703"


def test_weight2_transcripts_on_every_graph_on_5_vertices_are_pinned():
    dom = Domain.slice(5, 2)
    digest = hashlib.sha256()
    for code in range(1 << dom.size):
        f = LabeledFunction.from_indices(
            dom, BOOLEAN, [code >> r & 1 for r in range(dom.size)]
        )
        for x in dom.members():
            t = run_match(weight2_algorithm(f), FixedInputAdversary(x), f)
            assert t.correct
            line = json.dumps(t.to_json_obj(), sort_keys=True) + "\n"
            digest.update(line.encode())
    assert digest.hexdigest() == _WEIGHT2_PIN


def test_eq_adversary_answers_alternate_and_stay_consistent():
    adv = eq_adversary(2)
    assert adv.answer(0) == 0
    assert adv.answer(1) == 1
    assert adv.answer(4) == 0
    assert adv.answer(2) == 0
    clone = adv.clone()
    assert clone.answer(6) == adv.answer(6) == 0
    fresh = eq_adversary(1)
    assert [fresh.answer(p) for p in (0, 2, 1, 3)] == [0, 0, 1, 1]


def test_run_match_budget_and_exhaustion():
    f = make_eq(2)
    t = run_match(eq_algorithm(2), eq_adversary(2), f, budget=3)
    assert t.status == "budget"
    assert t.claimed is None and not t.correct and not t.determined
    assert t.query_count == 3
    g = weights_task(3, 2, 3)
    t = run_match(
        weights_alg_A(3, 2, 3), weights_adversary(3, 2, 3, mode="basic"), g
    )
    assert t.status == "exhausted"
    assert t.consistent_count > 1


def test_run_match_forced_guess_verdict():
    f = make_eq(1)
    t = run_match(ScriptedAlgorithm([], 1), eq_adversary(1), f)
    assert t.status == "claimed"
    assert t.forced_guess and not t.correct and not t.determined


def test_run_match_detects_claim_on_determined_set():
    f = or_first_half(4)
    t = run_match(weight1_algorithm(f), FixedInputAdversary(0b0001), f)
    assert t.determined and t.correct and not t.forced_guess


def test_run_match_protocol_violations():
    f = make_eq(1)
    with pytest.raises(MatchProtocolError):
        run_match(ScriptedAlgorithm([0, 0], 1), eq_adversary(1), f)
    with pytest.raises(MatchProtocolError):
        run_match(ScriptedAlgorithm([9], 1), eq_adversary(1), f)
    with pytest.raises(MatchProtocolError):
        run_match(ScriptedAlgorithm([0, "1"], 1), eq_adversary(1), f)


def test_algorithm_builders_check_parameters_before_any_query():
    """A bad parameter raises at the builder call, not at the first send."""
    with pytest.raises(DomainError):
        eq_algorithm(0)
    with pytest.raises(DomainError):
        weights_m2_algorithm(4, 3)
    with pytest.raises(DomainError):
        weight1_algorithm(make_eq(1))
    with pytest.raises(DomainError):
        weight2_algorithm(make_eq(2))


def test_run_match_rejects_inconsistent_adversary():
    f = make_eq(1)
    with pytest.raises(AdversaryInvalidError):
        run_match(ScriptedAlgorithm([0, 1, 2, 3], 1), StuckAdversary(), f)


def test_transcript_json_shape():
    f = weights_task(2, 2, 2)
    t = run_match(weights_alg_A(2, 2, 2), FixedInputAdversary(0b0011), f)
    obj = t.to_json_obj()
    assert obj["status"] == "claimed"
    assert obj["claimed"] == [2, 0]
    assert obj["query_count"] == len(obj["queries"]) == 2
    assert isinstance(MatchTranscript(), MatchTranscript)


def test_forced_counts_eq():
    assert forced_query_count(eq_adversary(1), make_eq(1)) == 2
    assert forced_query_count(eq_adversary(2), make_eq(2)) == 5
    assert forced_query_count(eq_adversary(3), make_eq(3)) == 8


def test_forced_counts_weights_modes():
    cases = [
        ("m2", 4, 2, 2, 5),
        ("m2", 4, 2, 3, 6),
        ("m2", 4, 2, 4, 6),
        ("m2", 5, 2, 3, 7),
        ("balanced", 4, 2, 4, 5),
        ("basic", 2, 2, 2, 1),
        ("basic", 2, 3, 2, 3),
        ("basic", 2, 4, 2, 4),
    ]
    for mode, n, m, k, expected in cases:
        adv = weights_adversary(n, m, k, mode=mode)
        assert forced_query_count(adv, weights_task(n, m, k)) == expected


def test_forced_count_never_exceeds_depth_for_total_adversaries():
    for k in (1, 2):
        f = make_eq(k)
        assert forced_query_count(eq_adversary(k), f) <= exact_depth(f)
    for n, mk in [(4, 2), (4, 3)]:
        f = weights_task(n, 2, mk)
        adv = weights_adversary(n, 2, mk, mode="m2")
        assert forced_query_count(adv, f) <= exact_depth(f)


def test_forced_count_refuses_an_answer_that_empties_the_live_set():
    # on slices and cubes every free position splits a live set of two or
    # more members; on an explicit domain position 0 can be constant on it
    dom = Domain.explicit(2, [0b00, 0b10])
    f = LabeledFunction.from_indices(dom, BOOLEAN, [0, 1])
    with pytest.raises(AdversaryInvalidError):
        forced_query_count(StuckAdversary(), f)


class Wrapped(AdversaryPlayer):
    """Plays like the wrapped adversary; each subclass below bends its
    answers or its peeks."""

    def __init__(self, inner):
        self.inner = inner
        self.memo_safe = inner.memo_safe

    def answer(self, position):
        return self.inner.answer(position)

    def peek(self, position):
        return self.inner.peek(position)

    def clone(self):
        return type(self)(self.inner.clone())


class TwoForOne(Wrapped):
    """Answers 2 where the wrapped adversary answers 1, but peeks 1."""

    def answer(self, position):
        return 2 * self.inner.answer(position)


class PeeksTwoForOne(TwoForOne):
    """Answers 2 where the wrapped adversary answers 1, and peeks 2."""

    peek = AdversaryPlayer.peek


@pytest.mark.parametrize("bad", [TwoForOne, PeeksTwoForOne])
def test_forced_count_refuses_a_bit_other_than_0_or_1(bad):
    f = make_eq(2)
    with pytest.raises(AdversaryInvalidError, match="adversary answered 2"):
        forced_query_count(bad(eq_adversary(2)), f)
    with pytest.raises(AdversaryInvalidError, match="adversary answered 2"):
        run_match(eq_algorithm(2), bad(eq_adversary(2)), f)


class LyingPeek(Wrapped):
    """Peeks the other bit than the wrapped adversary answers."""

    def peek(self, position):
        return 1 - self.inner.peek(position)


class ExhaustsOnAnswer(Wrapped):
    """Peeks like the wrapped adversary but is exhausted when it answers."""

    def answer(self, position):
        raise AdversaryExhaustedError("out of answers")


@pytest.mark.parametrize("liar", [LyingPeek, ExhaustsOnAnswer])
def test_forced_count_refuses_an_answer_that_differs_from_its_peek(liar):
    with pytest.raises(AdversaryInvalidError, match="peek"):
        forced_query_count(liar(eq_adversary(2)), make_eq(2))


class Unmemoized(AdversaryPlayer):
    """Plays like the wrapped adversary but is not memo_safe, so that
    forced_query_count searches it with no memo."""

    memo_safe = False

    def __init__(self, inner):
        self.inner = inner

    def answer(self, position):
        return self.inner.answer(position)

    def clone(self):
        return Unmemoized(self.inner.clone())


def _weights_games():
    """Every (n, m, k, mode) that weights_adversary accepts with n * m <= 10."""
    games = []
    for n in range(1, 11):
        for m in range(1, 10 // n + 1):
            for k in range(n * m + 1):
                for mode in ("basic", "balanced", "m2"):
                    try:
                        weights_adversary(n, m, k, mode=mode)
                    except DomainError:
                        continue
                    games.append((n, m, k, mode))
    return games


_WEIGHTS_GAMES = _weights_games()
# seeded adversaries have no memo, so they get the smaller tasks
_SEEDED_GAMES = [
    g for g in _WEIGHTS_GAMES if g[0] * g[1] <= 8 and g[3] in ("basic", "balanced")
]


@st.composite
def forced_games(draw):
    """An adversary factory and the task it plays on, small enough for
    forced_oracle."""
    kind = draw(st.sampled_from(("eq", "weights", "seeded", "fixed")))
    if kind == "eq":
        k = draw(st.integers(1, 2))
        return partial(eq_adversary, k), make_eq(k)
    if kind == "fixed":
        n = draw(st.integers(2, 6))
        k = draw(st.integers(1, n - 1))
        f = random_slice_function(n, k, draw(st.integers(0, 99)))
        x = member_masks(f.domain)[draw(st.integers(0, f.domain.size - 1))]
        return partial(FixedInputAdversary, x), f
    games = _WEIGHTS_GAMES if kind == "weights" else _SEEDED_GAMES
    n, m, k, mode = draw(st.sampled_from(games))
    seed = draw(st.integers(0, 99)) if kind == "seeded" else None
    make = partial(weights_adversary, n, m, k, mode=mode, seed=seed)
    return make, weights_task(n, m, k)


@settings(max_examples=60, deadline=None)
@given(forced_games())
def test_forced_count_matches_the_plain_minimax(game):
    make, f = game
    value = forced_query_count(make(), f)
    assert value == forced_oracle(make(), f)
    if make().memo_safe:
        assert forced_query_count(Unmemoized(make()), f) == value


@st.composite
def peek_walks(draw):
    """A built-in adversary factory, its mode, and a query order: every
    position in random order, then a few repeated or out-of-range ones."""
    kind = draw(st.sampled_from(("eq", "fixed", "weights", "seeded")))
    mode = kind
    if kind == "eq":
        k = draw(st.integers(1, 3))
        make, total = partial(eq_adversary, k), 4 * k
    elif kind == "fixed":
        total = draw(st.integers(1, 8))
        make = partial(FixedInputAdversary, draw(st.integers(0, (1 << total) - 1)))
    else:
        games = _WEIGHTS_GAMES if kind == "weights" else _SEEDED_GAMES
        n, m, k, mode = draw(st.sampled_from(games))
        seed = draw(st.integers(0, 99)) if kind == "seeded" else None
        make, total = partial(weights_adversary, n, m, k, mode=mode, seed=seed), n * m
    order = draw(st.permutations(range(total)))
    extras = draw(st.lists(st.integers(-1, total), max_size=3))
    return make, mode, order + extras


def _outcome(call, position):
    """The bit call(position) returns, or the type of what it raises."""
    try:
        return call(position)
    except (AdversaryExhaustedError, DomainError, MatchProtocolError) as e:
        return type(e)


@settings(max_examples=200, deadline=None)
@given(peek_walks())
# balanced (4, 2, 4) abandons its script at position 1 and then plays the
# basic rule until it exhausts
@example((partial(weights_adversary, 4, 2, 4, mode="balanced"), "balanced", list(range(8))))
@example(
    (partial(weights_adversary, 4, 2, 4, mode="balanced", seed=3), "balanced", list(range(8)))
)
def test_peek_gives_the_answer_and_changes_nothing(walk):
    """At every step peek matches a clone's answer, and a player that has
    peeked answers exactly like a twin that never did."""
    make, mode, order = walk
    adv, twin = make(), make()
    outcomes = []
    for p in order:
        peeked = _outcome(adv.peek, p)
        assert peeked == _outcome(adv.clone().answer, p)
        assert peeked == _outcome(adv.peek, p)
        outcomes.append(_outcome(adv.answer, p))
        assert outcomes[-1] == peeked == _outcome(twin.answer, p)
    if mode in ("basic", "balanced"):
        # the full order runs the strategy past its validity horizon
        assert AdversaryExhaustedError in outcomes
    if mode == "balanced":
        # abandoned, or exhausted by the very query that would abandon
        assert adv.abandoned or adv.s_ones + adv.s_zeros == 4


def _probe(adv, positions):
    """Answers until the strategy's horizon ends, marking the end."""
    out = []
    for p in positions:
        try:
            out.append(adv.answer(p))
        except AdversaryExhaustedError:
            out.append("end")
            break
    return out


def test_seeded_adversaries_are_reproducible_not_memo_safe():
    for mode in ("basic", "balanced"):
        adv = weights_adversary(4, 2, 4, mode=mode, seed=11)
        assert not adv.memo_safe
        twin = weights_adversary(4, 2, 4, mode=mode, seed=11)
        assert _probe(adv, range(6)) == _probe(twin, range(6))
        assert weights_adversary(4, 2, 4, mode=mode).memo_safe


def test_weights_adversary_answers_are_pinned():
    """Basic and balanced answers up to where each exhausts, on fixed orders."""
    interleaved = (0, 11, 1, 10, 2, 9, 3, 8, 4, 7, 5, 6)
    cases = [
        ("basic", 4, 2, 4, None, range(8), [0, 0, 1, 1]),
        ("basic", 4, 2, 4, 11, range(8), [1, 1, 0, 0]),
        ("basic", 3, 3, 4, None, range(8, -1, -1), [0, 0, 0, 1, 1]),
        ("basic", 3, 3, 4, 5, range(8, -1, -1), [1, 1, 0, 0, 0]),
        ("basic", 4, 3, 5, None, interleaved, [0, 0, 0, 0, 0, 1, 1, 1]),
        ("basic", 4, 3, 5, 4, interleaved, [0, 1, 0, 1, 1, 0, 0, 0]),
        ("balanced", 4, 2, 4, None, range(8), [0, 0, 1, 1]),
        ("balanced", 4, 2, 4, 11, range(8), [0, 1, 1, 0]),
        ("balanced", 4, 2, 4, 3, (1, 0, 3, 2, 5, 4, 7, 6), [0, 0, 1, 1]),
        ("balanced", 6, 2, 6, None, range(12), [0, 0, 1, 1, 0, 0, 1, 1]),
        ("balanced", 6, 2, 6, 7, range(12), [0, 1, 1, 0, 0, 1, 0, 1]),
        ("balanced", 4, 3, 6, None, range(12), [0, 1, 0, 0, 0, 1, 1, 1]),
        ("balanced", 4, 3, 6, 2, range(11, -1, -1), [0, 0, 0, 0, 1, 1, 1, 1]),
        ("balanced", 8, 2, 8, None, range(16), [0, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1]),
        ("balanced", 8, 2, 8, 4, range(16), [0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1]),
    ]
    for mode, n, m, k, seed, order, want in cases:
        adv = weights_adversary(n, m, k, mode=mode, seed=seed)
        assert _probe(adv, order) == want + ["end"], (mode, n, m, k, seed)


def test_adversary_replay_consistency_with_match():
    f = weights_task(4, 2, 4)
    adv = weights_adversary(4, 2, 4, mode="balanced")
    t = run_match(weights_alg_B(4, 2, 4), adv.clone(), f)
    fresh = adv.clone()
    assert [fresh.answer(p) for p, _ in t.pairs] == [b for _, b in t.pairs]


def test_weights_adversary_validation():
    with pytest.raises(DomainError):
        weights_adversary(2, 2, 2, mode="nope")
    with pytest.raises(DomainError):
        weights_adversary(2, 2, 1, mode="basic")
    with pytest.raises(DomainError):
        weights_adversary(3, 2, 3, mode="balanced")
    with pytest.raises(DomainError):
        weights_adversary(3, 3, 2, mode="m2")
    with pytest.raises(DomainError):
        weights_adversary(2, 2, 2, mode="m2")


def test_fixed_input_adversary_is_memo_safe():
    adv = FixedInputAdversary(0b0101)
    assert adv.memo_safe
    assert [adv.answer(p) for p in range(4)] == [1, 0, 1, 0]
    assert adv.clone().member == adv.member
