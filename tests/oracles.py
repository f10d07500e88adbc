"""Independent reference implementations used to cross-check the library.

Deliberately naive on purpose: bare recursion, no memoization, no pruning,
Fraction arithmetic.  Slow but easy to audit, so only run on tiny domains.
depth_by_state alone memoizes, so that the depth checks reach n = 10; it
still has no bounds or pruning.
"""

from fractions import Fraction
from itertools import combinations, product

from slicebench.errors import AdversaryExhaustedError, AdversaryInvalidError, DomainError
from slicebench.measures.trees import Leaf, Node
from slicebench.slicecore import (
    Assignment,
    LabeledFunction,
    mask_positions,
    mask_to_string,
    member_masks,
    position_rank_bitsets,
)


def minimax_depth(f, zeros=0, ones=0):
    """Worst-case optimal query count by plain game-tree recursion, from the
    state where the positions in the mask zeros were answered 0 and those in
    ones were answered 1."""
    members = list(f.domain.members())
    labels = [f.evaluate(x) for x in members]

    def solve(live, free):
        if len({labels[i] for i in live}) <= 1:
            return 0
        best = None
        for p in free:
            sides = (
                [i for i in live if not members[i] >> p & 1],
                [i for i in live if members[i] >> p & 1],
            )
            cost = 1 + max(solve(side, free - {p}) for side in sides if side)
            if best is None or cost < best:
                best = cost
        return best

    live = [i for i, x in enumerate(members) if not x & zeros and x & ones == ones]
    answered = zeros | ones
    free = frozenset(p for p in range(f.domain.n) if not answered >> p & 1)
    return solve(live, free)


def depth_by_state(f):
    """value(zeros, ones), the worst-case optimal query count of the state
    where the positions in zeros were answered 0 and those in ones 1: the
    recursion of minimax_depth memoized on the (zeros, ones) key, with each
    state's live set read from the member list as a bitset of list indices.
    No bounds, no cutoffs, no hint.  Only a position that splits the live
    set is queried; one that does not leaves the same game a query dearer."""
    members = list(f.domain.members())
    n = f.domain.n
    at = [sum(1 << i for i, x in enumerate(members) if x >> p & 1) for p in range(n)]
    by_label = {}
    for i, x in enumerate(members):
        label = f.evaluate(x)
        by_label[label] = by_label.get(label, 0) | 1 << i
    memo = {}

    def solve(live, zeros, ones):
        key = zeros | ones << n
        if key not in memo:
            if any(live & same == live for same in by_label.values()):
                memo[key] = 0
            else:
                costs = []
                for p in range(n):
                    bit, one = 1 << p, live & at[p]
                    if not (zeros | ones) & bit and one and one != live:
                        zero_side = solve(live ^ one, zeros | bit, ones)
                        costs.append(1 + max(zero_side, solve(one, zeros, ones | bit)))
                memo[key] = min(costs)
        return memo[key]

    def value(zeros=0, ones=0):
        live = (1 << len(members)) - 1
        for p in range(n):
            if zeros >> p & 1:
                live &= ~at[p]
            if ones >> p & 1:
                live &= at[p]
        return solve(live, zeros, ones)

    return value


def tree_from_json_obj(obj, n, depth=0):
    """Parse a JSON tree whose leaves and queries are ints (not bools), each
    query a position in 0..n-1, at most n queries deep (depth counts those
    above obj); raises DomainError otherwise."""
    if "leaf" in obj:
        leaf = obj["leaf"]
        if type(leaf) is not int:
            raise DomainError(f"tree leaf {leaf!r} is not an int")
        return Leaf(leaf)
    if depth == n:
        raise DomainError(f"tree is more than n = {n} queries deep")
    p = obj["query"]
    if type(p) is not int or not 0 <= p < n:
        raise DomainError(f"tree query {p!r} is not a position in 0..{n - 1}")
    return Node(p, *(tree_from_json_obj(obj[b], n, depth + 1) for b in "01"))


def tree_depth(t):
    if isinstance(t, Leaf):
        return 0
    return 1 + max(tree_depth(t.on_zero), tree_depth(t.on_one))


def tree_evaluate(t, mask):
    """Run the tree on an input; returns the leaf's alphabet index."""
    while isinstance(t, Node):
        t = t.on_one if mask >> t.position & 1 else t.on_zero
    return t.label_index


def check_tree_oracle(obj, f):
    """Depth of the JSON tree obj: parse it whole, then run it on every
    member in rank order; raises DomainError at the first disagreement."""
    dom = f.domain
    tree = tree_from_json_obj(obj, dom.n)
    for x, want in zip(member_masks(dom), f.table):
        got = tree_evaluate(tree, x)
        if got != want:
            raise DomainError(
                f"tree disagrees with function at {mask_to_string(x, dom.n)}:"
                f" tree gives index {got}, table has {want}"
            )
    return tree_depth(tree)


def certificate_at(f, x):
    """Smallest position set of x that forces its label, by subset scan."""
    n = f.domain.n
    members = list(f.domain.members())
    fx = f.evaluate(x)
    for size in range(n + 1):
        for positions in combinations(range(n), size):
            fixed = sum(1 << p for p in positions)
            if all(f.evaluate(y) == fx for y in members if (y ^ x) & fixed == 0):
                return size
    raise AssertionError("fixing every position always certifies")


def certificate_max(f):
    return max(certificate_at(f, x) for x in f.domain.members())


def greedy_hitting_oracle(masks, n):
    """The greedy hitting set by per-round position counts over mask lists:
    the position hitting the most masks, the lowest on ties."""
    rem = list(masks)
    chosen = 0
    while rem:
        counts = [0] * n
        for m in rem:
            for p in mask_positions(m):
                counts[p] += 1
        p = max(range(n), key=lambda q: (counts[q], -q))
        chosen |= 1 << p
        rem = [m for m in rem if not m >> p & 1]
    return chosen.bit_count(), chosen


def per_call_certificate_skip(f, max_others=None):
    """certificate_skip with the greedy run afresh, up to beat picks, at
    every question: skip(r, beat) holds when the greedy hitting set of
    members[r]'s difference masks needs at most beat positions, and never
    for beat < 0 or an input with more than max_others unlike members.

    The greedy is its own loop over the difference mask lists, each round
    the position in the most unhit masks, the lowest on ties."""
    dom = f.domain
    members, table = member_masks(dom), f.table

    def skip(r, beat):
        xm, fx = members[r], table[r]
        rem = [xm ^ ym for ym, label in zip(members, table) if label != fx]
        if beat < 0 or max_others is not None and len(rem) > max_others:
            return False
        for _ in range(beat):
            if not rem:
                break
            counts = [0] * dom.n
            for m in rem:
                for p in mask_positions(m):
                    counts[p] += 1
            p = max(range(dom.n), key=lambda q: (counts[q], -q))
            rem = [m for m in rem if not m >> p & 1]
        return not rem

    return skip


def hitting_set_oracle(masks, n):
    """min_hitting_set on mask lists: the minimal masks by (size, value),
    then a branch and bound from the greedy set on the least unhit mask,
    positions ascending, that keeps the first strictly smaller set."""
    minimal = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(m & k == k for k in minimal):
            minimal.append(m)
    if not minimal:
        return 0, 0
    if minimal[0] == 0:
        raise ValueError("empty mask cannot be hit")

    best_size, best_mask = greedy_hitting_oracle(minimal, n)
    state = {"size": best_size, "mask": best_mask}

    def packing_bound(rem):
        used = 0
        cnt = 0
        for m in rem:
            if not m & used:
                used |= m
                cnt += 1
        return cnt

    def go(rem, chosen, count):
        if not rem:
            if count < state["size"]:
                state["size"] = count
                state["mask"] = chosen
            return
        if count + packing_bound(rem) >= state["size"]:
            return
        target = min(rem, key=lambda m: (m.bit_count(), m))
        for p in mask_positions(target):
            bit = 1 << p
            go([m for m in rem if not m & bit], chosen | bit, count + 1)

    go(minimal, 0, 0)
    return state["size"], state["mask"]


def _pack_disjoint(masks):
    def go(start, used):
        best = 0
        for t in range(start, len(masks)):
            if not used & masks[t]:
                best = max(best, 1 + go(t + 1, used | masks[t]))
        return best

    return go(0, 0)


def sensitivity_at(f, x):
    """Sensitive single flips (cube/explicit) or disjoint sensitive swaps
    (slice), the latter packed by bare recursion."""
    dom = f.domain
    fx = f.evaluate(x)
    if dom.kind != "slice":
        count = 0
        for p in range(dom.n):
            y = x ^ (1 << p)
            if dom.kind == "explicit" and y not in dom:
                continue
            if f.evaluate(y) != fx:
                count += 1
        return count
    swaps = [
        1 << i | 1 << j
        for i in range(dom.n)
        if x >> i & 1
        for j in range(dom.n)
        if not x >> j & 1
        if f.evaluate(x ^ (1 << i) ^ (1 << j)) != fx
    ]
    return _pack_disjoint(swaps)


def sensitivity_max(f):
    return max(sensitivity_at(f, x) for x in f.domain.members())


def block_sensitivity_at(f, x, max_block_size=None):
    """Max packing of disjoint label-changing difference masks.

    Packs every difference mask, not just the minimal ones; the optimum is
    the same and the code stays independent of that optimization.
    """
    fx = f.evaluate(x)
    blocks = [
        x ^ y
        for y in f.domain.members()
        if f.evaluate(y) != fx
        and (max_block_size is None or (x ^ y).bit_count() <= max_block_size)
    ]
    return _pack_disjoint(blocks)


def block_sensitivity_max(f, max_block_size=None):
    return max(
        block_sensitivity_at(f, x, max_block_size) for x in f.domain.members()
    )


def _in_span(vectors, target):
    basis = []

    def reduce(v):
        v = list(v)
        for pivot, b in basis:
            if v[pivot] != 0:
                c = v[pivot] / b[pivot]
                v = [vi - c * bi for vi, bi in zip(v, b)]
        return v

    for vec in vectors:
        v = reduce(vec)
        pivot = next((i for i, vi in enumerate(v) if vi != 0), None)
        if pivot is not None:
            basis.append((pivot, v))
    return all(vi == 0 for vi in reduce(target))


def degree_oracle(f):
    """Polynomial degree of a Boolean-valued function.

    Cube: largest monomial with a nonzero multilinear coefficient, found by
    inclusion-exclusion.  Slice/explicit: least d whose monomial indicator
    columns span the value vector, by Fraction elimination.
    """
    dom = f.domain
    n = dom.n
    if dom.kind == "cube":
        best = 0
        for size in range(n + 1):
            for positions in combinations(range(n), size):
                coef = 0
                for r in range(1 << size):
                    t_mask = sum(
                        1 << positions[t] for t in range(size) if r >> t & 1
                    )
                    sign = -1 if (size - r.bit_count()) % 2 else 1
                    coef += sign * int(f.evaluate(t_mask))
                if coef != 0:
                    best = max(best, size)
        return best
    members = list(dom.members())
    target = [Fraction(int(f.evaluate(x))) for x in members]
    for d in range(n + 1):
        columns = []
        for size in range(d + 1):
            for positions in combinations(range(n), size):
                sm = sum(1 << p for p in positions)
                columns.append(
                    [Fraction(1 if x & sm == sm else 0) for x in members]
                )
        if _in_span(columns, target):
            return d
    raise AssertionError("full-degree monomials always span")


def mono_number_oracle(g):
    """Largest clique or independent set, by scanning every vertex subset."""
    best = 0
    for size in range(1, g.n + 1):
        for group in combinations(range(g.n), size):
            pairs = list(combinations(group, 2))
            if all(g.has_edge(u, v) for u, v in pairs) or not any(
                g.has_edge(u, v) for u, v in pairs
            ):
                best = max(best, size)
    return best


def one_subcube_oracle(f):
    """Largest number of 1-inputs in a subcube whose members are all
    1-inputs, trying each of the 3^n assignments; n <= 7."""
    n = f.domain.n
    if n > 7:
        raise DomainError(f"the 3^n subcube scan is for n <= 7, not {n}")
    points = [(x, f.evaluate(x)) for x in f.domain.members()]
    best = 0
    for fixed in product((None, 0, 1), repeat=n):
        ones = sum(1 << p for p, v in enumerate(fixed) if v == 1)
        zeros = sum(1 << p for p, v in enumerate(fixed) if v == 0)
        inside = [label for x, label in points if x & ones == ones and not x & zeros]
        if all(label == 1 for label in inside):
            best = max(best, len(inside))
    return best


def forced_oracle(adv, f):
    """Forced query count by plain minimax over every unqueried position in
    ascending order: 0 once the live members carry one label, 1 once the
    adversary is exhausted at a position, else one plus the best child.  An
    answer that leaves no live member raises AdversaryInvalidError.  States
    are memoized by (queried, answers) only for a memo_safe adversary, as
    unmemoized games on n = 8 already take seconds."""
    members = list(f.domain.members())
    labels = [f.evaluate(x) for x in members]
    memo = {} if adv.memo_safe else None

    def solve(live, queried, answers, state):
        if not live:
            raise AdversaryInvalidError("no member is consistent with the answers")
        if len({labels[i] for i in live}) == 1:
            return 0
        if memo is not None and (queried, answers) in memo:
            return memo[(queried, answers)]
        best = None
        for p in range(f.domain.n):
            if queried >> p & 1:
                continue
            child = state.clone()
            try:
                bit = child.answer(p)
            except AdversaryExhaustedError:
                best = 1
                break
            side = [i for i in live if (members[i] >> p & 1) == bit]
            cost = 1 + solve(side, queried | 1 << p, answers | bit << p, child)
            if best is None or cost < best:
                best = cost
            if best == 1:
                break
        if memo is not None:
            memo[(queried, answers)] = best
        return best

    return solve(list(range(len(members))), 0, 0, adv)


def balanced_certificate_oracle(
    f: LabeledFunction, x: int | None = None, min_mode: bool = False
):
    """BC(f) or BC(f, x), or mBC(f) with min_mode=True; returns (value,
    witness).  The full ascending search at every input, with no pruning.

    Only balanced assignments (equal fixed 0s and 1s) are admitted, so the
    domain must be a balanced slice; f must be Boolean.  Witness: {"input",
    "zeros", "ones"}, a least balanced certificate at x, or else at the
    lowest-rank input attaining the max (min).
    """
    dom = f.domain
    members, table, labels = member_masks(dom), f.table, f.label_bitsets
    ones_at, full = position_rank_bitsets(dom), (1 << dom.size) - 1
    all_positions = (1 << dom.n) - 1

    def at(r: int):
        xm = members[r]
        others = full ^ labels[table[r]]
        one_pos, zero_pos = mask_positions(xm), mask_positions(all_positions ^ xm)
        for h in range(dom.k + 1):
            for ones_pick in combinations(one_pos, h):
                S_ones = full
                for p in ones_pick:
                    S_ones &= ones_at[p]
                for zeros_pick in combinations(zero_pos, h):
                    S = S_ones
                    for p in zeros_pick:
                        S &= ~ones_at[p]
                    if not S & others:
                        return 2 * h, r, zeros_pick, ones_pick
        raise AssertionError("the full input is always a balanced certificate")

    # min and max keep the first of equal values, so the lowest rank wins
    ranks = range(dom.size) if x is None else [dom.rank(x)]
    pick = min if min_mode else max
    value, r, zeros, ones = pick(map(at, ranks), key=lambda got: got[0])
    w = {"input": mask_to_string(members[r], dom.n)}
    w.update(Assignment.of(zeros, ones).to_json_obj())
    return value, w
