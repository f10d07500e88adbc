"""Query algorithms and adversary strategies, and the referee between them.

An algorithm is a generator: it yields the positions it queries, is sent
each answer, and returns its claim.  An AdversaryPlayer invents answers on
the fly while keeping at least one domain member consistent.  run_match
plays one against the other under a referee that tracks the consistent set
online, and forced_query_count certifies lower bounds by a minimax over an
adversary's answers that cuts only on proven bounds.
"""

from collections import Counter
from collections.abc import Generator
from dataclasses import dataclass, field
from itertools import combinations, product
import random

from .errors import (
    AdversaryExhaustedError,
    AdversaryInvalidError,
    DomainError,
    MatchProtocolError,
)
from .measures.bounds import monochromatic_number
from .measures.depth import DepthSolver
from .measures.trees import Node
from .slicecore import (
    LabeledFunction,
    position_move_tables,
    position_rank_bitsets,
    string_to_mask,
    to_graph,
)

# yields query positions, is sent each answer bit, returns the claimed label
Algorithm = Generator[int, int, object]


class AdversaryPlayer:
    """Answer oracle that commits to bits only as they are queried.

    memo_safe means the reachable state is a function of which positions
    were queried and what was answered, so minimax may memoize on those.
    """

    memo_safe: bool = True

    def answer(self, position: int) -> int:
        raise NotImplementedError

    def clone(self) -> "AdversaryPlayer":
        raise NotImplementedError


# -- algorithms -------------------------------------------------------------------
#
# Each builder checks its parameters when called and returns a fresh generator.


def _tree_walk(tree, alphabet) -> Algorithm:
    """Follows a decision tree and claims the leaf's label."""
    node = tree
    while isinstance(node, Node):
        bit = yield node.position
        node = node.on_one if bit else node.on_zero
    return alphabet[node.label_index]


def optimal_tree_player(f: LabeledFunction) -> Algorithm:
    """Follows one optimal decision tree of f."""
    return _tree_walk(DepthSolver(f).build_tree(), f.alphabet)


def eq_algorithm(k: int) -> Algorithm:
    """Decides equality of the two halves on slice(4k, 2k) in 3k-1 queries.

    Reads the first 2k-1 bits of the left half; unless the majority bit b
    appears exactly k times the halves cannot be equal.  Otherwise the k
    left positions holding b are compared against the same positions on
    the right, and any mismatch rejects.
    """
    if k < 1:
        raise DomainError("eq_algorithm needs k >= 1")

    def script():
        half = 2 * k
        answers = []
        for p in range(half - 1):
            answers.append((yield p))
        ones = sum(answers)
        b = 1 if 2 * ones > half - 1 else 0
        if max(ones, half - 1 - ones) != k:
            return 0
        for i in (i for i, bit in enumerate(answers) if bit == b):
            if (yield half + i) != b:
                return 0
        return 1

    return script()


def weight1_algorithm(f: LabeledFunction) -> Algorithm:
    """Evaluates a Boolean function on slice(n, 1) via its smaller side.

    Probes the positions of the smaller preimage class in increasing
    order; a hit settles the label, and a clean miss means the single one
    sits in the other class.
    """
    dom = f.domain
    if dom.kind != "slice" or dom.k != 1:
        raise DomainError("weight1_algorithm needs a slice(n, 1) function")
    if not f.is_boolean:
        raise DomainError("weight1_algorithm needs Boolean labels")
    sides: tuple[list[int], list[int]] = ([], [])
    for p in range(dom.n):
        sides[f.evaluate(1 << p)].append(p)
    probe = 0 if len(sides[0]) <= len(sides[1]) else 1

    def script():
        for p in sides[probe]:
            if (yield p):
                return probe
        return 1 - probe

    return script()


def weight2_algorithm(f: LabeledFunction) -> Algorithm:
    """Evaluates a Boolean function on slice(n, 2) around a monochromatic set.

    Scans the positions outside a maximum monochromatic set T of the
    one-edge graph until a one appears.  No one means both ones lie inside
    T, so the answer is T's color; otherwise the weight-1 sub-game left by
    the answers so far is finished with its optimal subtree, read from one
    DepthSolver of f in f's own positions.
    """
    dom = f.domain
    if dom.kind != "slice" or dom.k != 2:
        raise DomainError("weight2_algorithm needs a slice(n, 2) function")
    if not f.is_boolean:
        raise DomainError("weight2_algorithm needs Boolean labels")
    _, wit = monochromatic_number(to_graph(f))
    inside = set(wit["vertices"])
    solver = DepthSolver(f)

    def script():
        zeros = 0
        for p in (p for p in range(dom.n) if p not in inside):
            if (yield p):
                tree = solver.build_tree(zeros, 1 << p)
                return (yield from _tree_walk(tree, f.alphabet))
            zeros |= 1 << p
        return 1 if wit["kind"] == "clique" else 0

    return script()


def _check_weights_params(n: int, m: int, k: int) -> None:
    if n < 1 or m < 1:
        raise DomainError("block weights need n, m >= 1")
    if not 0 <= k <= n * m:
        raise DomainError(f"total weight {k} out of range for {n} blocks of {m}")


def weights_alg_A(n: int, m: int, k: int) -> Algorithm:
    """Finds the block-weight multiset by reading all blocks but the last.

    Always exactly (n-1)m queries; the last block's weight is whatever
    remains of the known total.
    """
    _check_weights_params(n, m, k)

    def script():
        weights = []
        for i in range(n - 1):
            w = 0
            for j in range(m):
                w += yield i * m + j
            weights.append(w)
        weights.append(k - sum(weights))
        return tuple(sorted(weights, reverse=True))

    return script()


def weights_alg_B(n: int, m: int, k: int) -> Algorithm:
    """Finds the block-weight multiset, skipping a plurality of last bits.

    Reads m-1 bits of every block, groups blocks by partial weight, and
    only finishes the blocks outside the largest group (ties keep the
    smallest partial weight).  The leftover total pins down how many
    blocks of the plurality group round up.  At most nm - ceil(n/m)
    queries.
    """
    _check_weights_params(n, m, k)

    def script():
        partial = []
        for i in range(n):
            w = 0
            for j in range(m - 1):
                w += yield i * m + j
            partial.append(w)
        counts = Counter(partial)
        plural = max(counts, key=lambda w: (counts[w], -w))
        weights = []
        for i in range(n):
            if partial[i] != plural:
                weights.append(partial[i] + (yield i * m + m - 1))
        ups = k - sum(weights) - plural * counts[plural]
        weights += [plural + 1] * ups + [plural] * (counts[plural] - ups)
        return tuple(sorted(weights, reverse=True))

    return script()


def weights_m2_algorithm(n: int, k: int) -> Algorithm:
    """Block-weight multiset for m = 2 within n + k - 1 queries.

    Reads every block's first bit.  Seeing k ones or none at all already
    forces the multiset 1^k 0^(n-k); otherwise the second bits of the
    one-first blocks pin down the rest.
    """
    _check_weights_params(n, 2, k)
    if not 2 <= k <= n // 2:
        raise DomainError("weights_m2_algorithm needs 2 <= k <= n/2")

    def script():
        first = []
        for i in range(n):
            first.append((yield 2 * i))
        c = sum(first)
        if c == 0 or c == k:
            return tuple(sorted([1] * k + [0] * (n - k), reverse=True))
        weights = []
        for i in range(n):
            if first[i]:
                weights.append(1 + (yield 2 * i + 1))
        ones_left = k - sum(weights)
        weights += [1] * ones_left + [0] * (n - c - ones_left)
        return tuple(sorted(weights, reverse=True))

    return script()


# -- adversary players ------------------------------------------------------------


class FixedInputAdversary(AdversaryPlayer):
    """Answers from one concrete member; the honest oracle used in replays."""

    memo_safe = True

    def __init__(self, member: int):
        if member < 0:
            raise DomainError("member mask must be nonnegative")
        self.member = member

    def answer(self, position: int) -> int:
        if position < 0:
            raise DomainError("position must be nonnegative")
        return self.member >> position & 1

    def clone(self) -> "FixedInputAdversary":
        return FixedInputAdversary(self.member)


class EqAdversary(AdversaryPlayer):
    """Forces 3k-1 queries against half-equality on slice(4k, 2k).

    Maintains one shared string for both halves: a query to a fresh pair
    index commits the next bit of an alternating 0/1 pattern, and both
    halves answer with the committed bit, so equality stays plausible as
    long as possible.
    """

    memo_safe = True

    def __init__(self, k: int):
        if k < 1:
            raise DomainError("eq_adversary needs k >= 1")
        self.k = k
        self.z: list[int | None] = [None] * (2 * k)
        self.b = 0

    def answer(self, position: int) -> int:
        if not 0 <= position < 4 * self.k:
            raise DomainError(f"position {position} out of range")
        i = position % (2 * self.k)
        if self.z[i] is None:
            self.z[i] = self.b
            self.b ^= 1
        return self.z[i]

    def clone(self) -> "EqAdversary":
        c = EqAdversary.__new__(EqAdversary)
        c.k = self.k
        c.z = list(self.z)
        c.b = self.b
        return c


eq_adversary = EqAdversary


class _BasicWeightsAdversary(AdversaryPlayer):
    """Keeps two ones and two zeros unrevealed for as long as possible.

    Any answer that would drop the unrevealed supply of either bit below
    two is illegal; once both answers are illegal the strategy's validity
    horizon has ended and it raises AdversaryExhaustedError.
    """

    def __init__(self, n: int, m: int, k: int, seed: int | None = None):
        self.n, self.m, self.k = n, m, k
        self.total = n * m
        self.ones = 0
        self.zeros = 0
        self.rng = random.Random(seed) if seed is not None else None
        self.memo_safe = seed is None

    def _pick(self, legal) -> int:
        """The first legal bit, or a seeded-random one."""
        return legal[0] if self.rng is None else self.rng.choice(legal)

    def _rng_copy(self) -> random.Random | None:
        if self.rng is None:
            return None
        rng = random.Random()
        rng.setstate(self.rng.getstate())
        return rng

    def answer(self, position: int) -> int:
        if not 0 <= position < self.total:
            raise DomainError(f"position {position} out of range")
        ones_left = self.k - self.ones
        zeros_left = (self.total - self.k) - self.zeros
        legal = []
        if zeros_left - 1 >= 2 and ones_left >= 2:
            legal.append(0)
        if ones_left - 1 >= 2 and zeros_left >= 2:
            legal.append(1)
        if not legal:
            raise AdversaryExhaustedError(
                "no answer keeps two ones and two zeros unrevealed"
            )
        bit = self._pick(legal)
        self.ones += bit
        self.zeros += 1 - bit
        return bit

    def clone(self) -> "_BasicWeightsAdversary":
        c = _BasicWeightsAdversary.__new__(_BasicWeightsAdversary)
        c.n, c.m, c.k, c.total = self.n, self.m, self.k, self.total
        c.ones, c.zeros = self.ones, self.zeros
        c.memo_safe = self.memo_safe
        c.rng = self._rng_copy()
        return c


def _balanced_assignment(n: int, m: int) -> tuple[int, ...]:
    """Near-equal class assignment with weight sum nm/2 - floor(n/2).

    Starts from round-robin i mod m and changes as few positions as
    possible, scanning candidate changes in a fixed order so the result
    is deterministic.
    """
    base = tuple(i % m for i in range(n))
    lo = n // m
    want = n * m // 2 - n // 2

    def valid(a) -> bool:
        sizes = [0] * m
        for j in a:
            sizes[j] += 1
        if any(not lo <= s <= lo + 1 for s in sizes):
            return False
        return sum(j * s for j, s in enumerate(sizes)) == want

    if valid(base):
        return base
    for changes in range(1, n + 1):
        for idxs in combinations(range(n), changes):
            for vals in product(range(m), repeat=changes):
                if any(vals[t] == base[i] for t, i in enumerate(idxs)):
                    continue
                a = list(base)
                for t, i in enumerate(idxs):
                    a[i] = vals[t]
                if valid(a):
                    return tuple(a)
    raise DomainError("no near-equal class assignment meets the weight sum")


class _BalancedWeightsAdversary(_BasicWeightsAdversary):
    """Balanced-slice strategy: scripted block weights plus a reserve pool.

    Each block's first m-1 answers sum to a scripted per-block weight a(i);
    the final answer of a block comes out of a reserve multiset S that
    starts with floor(n/2) ones and keeps two of each bit while larger
    than four.  When S is down to four bits and another final bit is
    queried, the strategy abandons the script and falls back to the basic
    rule, keeping two ones and two zeros unrevealed overall, eventually
    exhausting.
    """

    def __init__(self, n: int, m: int, k: int, seed: int | None = None):
        super().__init__(n, m, k, seed)
        self.assignment = _balanced_assignment(n, m)
        self.s_ones = n // 2
        self.s_zeros = n - n // 2
        self.block_seen = [0] * n
        self.block_ones = [0] * n
        self.abandoned = False

    def answer(self, position: int) -> int:
        if self.abandoned:
            return super().answer(position)
        if not 0 <= position < self.total:
            raise DomainError(f"position {position} out of range")
        i = position // self.m
        if self.block_seen[i] == self.m - 1:
            if self.s_ones + self.s_zeros == 4:
                # the block counters are never read again
                self.abandoned = True
                return super().answer(position)
            bit = self._pick(
                [b for b, s in ((0, self.s_zeros), (1, self.s_ones)) if s - 1 >= 2]
            )
            if bit:
                self.s_ones -= 1
            else:
                self.s_zeros -= 1
        else:
            slots_left = (self.m - 1) - self.block_seen[i]
            need = self.assignment[i] - self.block_ones[i]
            if need == slots_left:
                bit = 1
            elif need == 0:
                bit = 0
            else:
                bit = self._pick((0, 1))
        self.block_seen[i] += 1
        self.block_ones[i] += bit
        self.ones += bit
        self.zeros += 1 - bit
        return bit

    def clone(self) -> "_BalancedWeightsAdversary":
        c = _BalancedWeightsAdversary.__new__(_BalancedWeightsAdversary)
        c.n, c.m, c.k, c.total = self.n, self.m, self.k, self.total
        c.assignment = self.assignment
        c.s_ones, c.s_zeros = self.s_ones, self.s_zeros
        c.block_seen = list(self.block_seen)
        c.block_ones = list(self.block_ones)
        c.ones, c.zeros = self.ones, self.zeros
        c.abandoned = self.abandoned
        c.memo_safe = self.memo_safe
        c.rng = self._rng_copy()
        return c


class _M2WeightsAdversary(AdversaryPlayer):
    """Two-bit-block strategy driven by untouched and all-zero block counts.

    A fresh block answers 0 while enough other blocks are untouched
    (threshold k-1 in the low regime k <= floor(n/2), floor(n/2) in the
    high regime) and 1 afterwards.  A block whose first answer was 1
    completes to 10; one whose first answer was 0 completes to 01 exactly
    when n-k blocks have already been pinned to 00.  Never exhausts.
    """

    memo_safe = True

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        self.fresh_threshold = n // 2 if k > n // 2 else k - 1
        self.block_seen = [0] * n
        self.block_ones = [0] * n
        self.untouched = n
        self.double_zero = 0

    def answer(self, position: int) -> int:
        if not 0 <= position < 2 * self.n:
            raise DomainError(f"position {position} out of range")
        i = position // 2
        if self.block_seen[i] == 0:
            bit = 0 if self.untouched - 1 >= self.fresh_threshold else 1
            self.untouched -= 1
        elif self.block_seen[i] == 1:
            if self.block_ones[i]:
                bit = 0
            else:
                bit = 1 if self.double_zero >= self.n - self.k else 0
                if bit == 0:
                    self.double_zero += 1
        else:
            raise MatchProtocolError(f"block {i} already fully revealed")
        self.block_seen[i] += 1
        self.block_ones[i] += bit
        return bit

    def clone(self) -> "_M2WeightsAdversary":
        c = _M2WeightsAdversary.__new__(_M2WeightsAdversary)
        c.n, c.k = self.n, self.k
        c.fresh_threshold = self.fresh_threshold
        c.block_seen = list(self.block_seen)
        c.block_ones = list(self.block_ones)
        c.untouched = self.untouched
        c.double_zero = self.double_zero
        return c


# -- spec tables ----------------------------------------------------------------


def weights_adversary(
    n: int, m: int, k: int, mode: str = "basic", seed: int | None = None
) -> AdversaryPlayer:
    """Adversary for the block-weight multiset task on slice(nm, k).

    mode "basic" works whenever 2 <= k <= nm/2; "balanced" needs k = nm/2
    and n >= 4; "m2" needs m = 2, n >= 4 and 2 <= k <= n, and plays the
    low regime for k <= floor(n/2) and the high one above.  seed switches
    strategies with arbitrary choices to seeded-random answers.
    """
    _check_weights_params(n, m, k)
    if mode == "basic":
        if not 2 <= k <= n * m // 2:
            raise DomainError("basic mode needs 2 <= k <= nm/2")
        return _BasicWeightsAdversary(n, m, k, seed)
    if mode == "balanced":
        if n < 4 or 2 * k != n * m:
            raise DomainError("balanced mode needs n >= 4 and k = nm/2")
        return _BalancedWeightsAdversary(n, m, k, seed)
    if mode == "m2":
        if m != 2 or n < 4 or not 2 <= k <= n:
            raise DomainError("m2 mode needs m = 2, n >= 4, 2 <= k <= n")
        return _M2WeightsAdversary(n, k)
    raise DomainError(f"unknown adversary mode: {mode}")


def _fixed_input(f: LabeledFunction, x: str) -> FixedInputAdversary:
    """FixedInputAdversary for the member of f's domain spelled by bitstring x."""
    mask = string_to_mask(x, f.domain.n)
    f.domain.rank(mask)
    return FixedInputAdversary(mask)


# Spec-string tables for catalog.build.  A builder parameter named f gets the
# function under play; a randomized adversary takes its seed from the spec.
ALGORITHMS = {
    "eq": eq_algorithm,
    "weights-a": weights_alg_A,
    "weights-b": weights_alg_B,
    "weights-m2": weights_m2_algorithm,
    "weight1": weight1_algorithm,
    "weight2": weight2_algorithm,
    "optimal": optimal_tree_player,
}

ADVERSARIES = {
    "eq": EqAdversary,
    "weights-basic": lambda n, m, k, seed=None: weights_adversary(n, m, k, "basic", seed),
    "weights-balanced": lambda n, m, k, seed=None: weights_adversary(
        n, m, k, "balanced", seed
    ),
    "weights-m2": lambda n, k: weights_adversary(n, 2, k, "m2"),
    "fixed": _fixed_input,
}


# -- referee ----------------------------------------------------------------------


@dataclass
class MatchTranscript:
    """Everything that happened in one match, verdicts included.

    status is "claimed" when the algorithm finished, "budget" when it ran
    out of allowed queries, "exhausted" when the adversary's validity
    horizon ended first.  Verdicts are recomputable from the query/answer
    pairs, the claim, and the function alone.
    """

    pairs: list[tuple[int, int]] = field(default_factory=list)
    claimed: object = None
    status: str = "claimed"
    determined: bool = False
    correct: bool = False
    forced_guess: bool = False
    consistent_count: int = 0

    @property
    def query_count(self) -> int:
        return len(self.pairs)

    def to_json_obj(self) -> dict:
        claimed = self.claimed
        if isinstance(claimed, tuple):
            claimed = list(claimed)
        return {
            "queries": [[p, b] for p, b in self.pairs],
            "claimed": claimed,
            "status": self.status,
            "query_count": self.query_count,
            "determined": self.determined,
            "correct": self.correct,
            "forced_guess": self.forced_guess,
            "consistent_count": self.consistent_count,
        }


def run_match(
    alg: Algorithm,
    adv: AdversaryPlayer,
    f: LabeledFunction,
    budget: int | None = None,
) -> MatchTranscript:
    """Referee one algorithm-versus-adversary match over f's domain.

    Sends the algorithm None to start and then each answer, while tracking
    the consistent member set; an answer that empties it raises
    AdversaryInvalidError.  The final claim is correct only if every
    still-consistent member carries it; claiming while two labels remain
    is a forced guess, the adversary's win.
    """
    if budget is not None and budget < 0:
        raise DomainError(f"--budget must be at least 0, got {budget}")
    dom = f.domain
    ones_at = position_rank_bitsets(dom)
    live = (1 << dom.size) - 1
    pairs: list[tuple[int, int]] = []
    queried: set[int] = set()
    status = "claimed"
    claimed = None
    bit = None
    while True:
        try:
            p = alg.send(bit)
        except StopIteration as stop:
            claimed = stop.value
            break
        if not isinstance(p, int) or not 0 <= p < dom.n:
            raise MatchProtocolError(f"query position {p!r} out of range")
        if p in queried:
            raise MatchProtocolError(f"position {p} queried twice")
        if budget is not None and len(pairs) >= budget:
            status = "budget"
            break
        try:
            bit = adv.answer(p)
        except AdversaryExhaustedError:
            status = "exhausted"
            break
        if bit not in (0, 1):
            raise AdversaryInvalidError(f"adversary answered {bit!r}")
        queried.add(p)
        pairs.append((p, bit))
        live &= ones_at[p] if bit else ~ones_at[p]
        if live == 0:
            raise AdversaryInvalidError(
                "no domain member is consistent with the answers"
            )
    determined = f.is_single_label(live)
    correct = (
        status == "claimed"
        and determined
        and claimed == f.alphabet[f.table[(live & -live).bit_length() - 1]]
    )
    forced_guess = status == "claimed" and not determined
    return MatchTranscript(
        pairs=pairs,
        claimed=claimed,
        status=status,
        determined=determined,
        correct=correct,
        forced_guess=forced_guess,
        consistent_count=live.bit_count(),
    )


def forced_query_count(adv: AdversaryPlayer, f: LabeledFunction) -> int:
    """Certified minimum queries any always-correct strategy needs vs adv.

    Minimax: the value of a state is 0 once every consistent member
    carries one label, else one plus the best continuation over all
    unqueried positions, with the adversary fixing each answer.  A state
    where the adversary's validity horizon has ended still needs at least
    one more query, so it counts 1; the result is therefore a sound lower
    bound on the depth of any correct decision tree, and exact when the
    adversary never exhausts.  Every cut below uses a proven bound, so the
    search finds the exhaustive minimax value: a single-label or exhausted
    child settles a state at 1, else it is worth at least 2, and rec(...,
    cap) is exact below cap and else at least cap, so a child is searched
    with cap one below the best move found so far.  The memo (memo_safe
    adversaries only) maps zeros | ones << n to value << 1 | exact.
    """
    dom = f.domain
    n = dom.n
    low_moves, high_moves = position_move_tables(dom)
    lbs, table = f.label_bitsets, f.table
    boolean = f.is_boolean
    lb1 = lbs[1] if boolean else 0
    memo: dict[int, int] | None = {} if adv.memo_safe else None

    def rec(live: int, key: int, state: AdversaryPlayer, cap: int) -> int:
        free = (1 << n) - 1 & ~(key | key >> n)
        children = []
        for bit, P in low_moves[free & 255] + high_moves[free >> 8]:
            child = state.clone()
            try:
                one = child.answer(bit.bit_length() - 1)
            except AdversaryExhaustedError:
                return 1
            X = live & P if one else live & ~P
            if not X:
                raise AdversaryInvalidError(
                    "no domain member is consistent with the answers"
                )
            if boolean:
                # single-label when its 1-ranks are none or all of it
                T = X & lb1
                leaf = not T or T == X
            else:
                leaf = not X & ~lbs[table[(X & -X).bit_length() - 1]]
            if leaf:
                return 1
            children.append((X, key | bit << n if one else key | bit, child))
        if cap <= 2:
            return 2
        best = cap
        for X, ckey, child in children:
            ccap = best - 1
            e = None if memo is None else memo.get(ckey)
            if e is not None and (e & 1 or e >> 1 >= ccap):
                v = e >> 1
            else:
                v = rec(X, ckey, child, ccap)
                if memo is not None:
                    memo[ckey] = v << 1 | (v < ccap)
            if v < ccap:
                best = v + 1
                if best == 2:
                    break
        return best

    full = (1 << dom.size) - 1
    # no state needs more queries than it has free positions
    return 0 if f.is_single_label(full) else rec(full, 0, adv, n + 1)
