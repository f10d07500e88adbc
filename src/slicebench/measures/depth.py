"""Exact decision-tree depth.

The solver runs memoized alpha-beta over game states (sets of still-possible
inputs, fixed by the positions answered 0 and those answered 1).  Iterative
deepening with unit windows keeps most probes cheap; the transposition table
survives across probes.  It maps a state's key, the one int
``zeros | ones << n`` of its answer masks, to its proven bounds packed into
one int, ``lo << width | hi``.  The layout is lo-major, so packed entries
order as their lower bounds do: "the stored lo is at least b" is the one
compare ``packed >= b << width``, which decides most child probes.
Fail-soft convention: a return value v means the true value is exactly v
when alpha < v < beta, at most v when v <= alpha, and at least v when
v >= beta.

A state being expanded probes each child it tries in the TT by the child's
key, ``key | bit`` or ``key | bit << n``, before it makes the child's live
set.  The TT holds no single-label state, so a hit is never a leaf, and its
bounds alone decide whether the child is cut off.  Only on a miss is the set
made, checked for a single label and, if it has more than one, given a
static TT entry; a child that survives the cutoffs has its set made, if it
is not made yet, and is expanded.  Leaves and TT cutoffs cost no call, and
only expanded states are counted in ``nodes``.

A state's live set S is a function of its key: it holds exactly the members
that agree with the answers so far.  On a slice with nf free positions and
r ones left to place, |S| = C(nf, r) and every free position splits S into
C(nf-1, r-1) ones and C(nf-1, r) zeros; on a cube every free position
halves S.  Every domain takes its moves in ascending position order, read
as it stands from the domain's shared position move tables.  On explicit
domains the sizes differ from position to position, so each split is
counted, and a position that does not split S is skipped.
"""

from __future__ import annotations

from ..errors import DomainError
from ..kernels import min_hitting_set
from ..slicecore import (
    LabeledFunction,
    consistent_set,
    mask_positions,
    member_masks,
    position_move_tables,
    position_rank_bitsets,
)
from .trees import Leaf, Node, Tree

_HINT_MAX_SIZE = 1 << 20
_HINT_MAX_SIDE = 256


class DepthSolver:
    """Reusable exact-depth engine for one function.

    States are bitsets over member ranks; per-position rank bitsets make the
    child split one big-int AND and the other side one XOR, made only when
    it is searched.  Only splitting positions are searched: querying a
    position constant on the live set never helps.  On slices and cubes
    the live set is every member consistent with the key, so every free
    position splits it, all into the same two sizes, and which side goes
    first is fixed per state.  build_tree builds the tree of any state, the
    root or a sub-game, and takes the lowest position that reaches the
    optimum.
    """

    def __init__(self, f: LabeledFunction):
        dom = f.domain
        self.f = f
        self.n = dom.n
        self.size = dom.size
        self.kind = dom.kind
        self.is_boolean = f.is_boolean
        self.table = f.table
        self.k = dom.k
        self.ones_at = position_rank_bitsets(dom)
        self.low_moves, self.high_moves = position_move_tables(dom)
        # on slices and cubes every free position splits the live set into
        # sizes known from the key; on explicit domains each is counted
        self.counted = self.kind == "explicit"
        self.label_bitsets = f.label_bitsets
        self.full = (1 << self.size) - 1
        self.all_positions = (1 << self.n) - 1
        # free_hi[nf]: static upper bound on a state with nf free positions
        if self.kind == "slice":
            # weight pins the last free position (nf - 1), and Boolean slice
            # functions always finish two queries early for nf >= 3 (nf - 2)
            self.free_hi = list(range(-1, self.n))
            if self.is_boolean:
                self.free_hi[3:] = range(1, self.n - 1)
        else:
            self.free_hi = list(range(self.n + 1))
        # state key: zeros | ones << n over the masks of positions answered 0
        # and 1; the live set is a function of the key, so the table is
        # sound.  Value: lo << width | hi.  No depth exceeds n, so width =
        # n.bit_length() keeps hi out of lo, and a value is at least
        # cb << width exactly when its lo is at least cb: the most common
        # child cutoff in _expand is that one compare.
        self.width = self.n.bit_length()
        self.hi_mask = (1 << self.width) - 1
        self.tt: dict[int, int] = {}
        self.nodes = 0

    # -- state helpers -----------------------------------------------------

    def _leaf_index(self, S: int) -> int:
        return self.table[(S & -S).bit_length() - 1]

    def _label_lo(self, S: int) -> int:
        """ceil(log2 #labels on S), at least 1: a tree needs a leaf per label."""
        cnt = 0
        while S:
            r = (S & -S).bit_length() - 1
            S &= ~self.label_bitsets[self.table[r]]
            cnt += 1
        lo = (cnt - 1).bit_length()
        return lo if lo > 1 else 1

    def bounds(self, key: int) -> tuple[int, int]:
        """Proven (lo, hi) of the state stored under key."""
        packed = self.tt[key]
        return packed >> self.width, packed & self.hi_mask

    def _entry(self, S: int, key: int, nf: int) -> tuple[int, int]:
        """Bounds of a state with nf free positions, made on a miss."""
        if key not in self.tt:
            # a non-constant Boolean state has two labels, so lo = 1
            lo = 1 if self.is_boolean else self._label_lo(S)
            hi = min(self.free_hi[nf], S.bit_count() - 1)
            self.tt[key] = lo << self.width | hi
        return self.bounds(key)

    # -- alpha-beta ---------------------------------------------------------

    def _expand(
        self,
        S: int,
        key: int,
        lo: int,
        hi: int,
        alpha: int,
        beta: int,
        c: int,
        nf: int,
    ) -> int:
        """Search a state that its TT bounds lo and hi could not cut off.

        key is the state's TT key, c = |S| and nf is the number of free
        positions; each tightened bound is written back to tt[key].  Each
        child is probed here, in the parent, so only children that survive
        the cutoffs are expanded.  A probe reads the child's TT entry by key
        first; its set is made only on a miss, to check it for a single
        label and make its static entry, or to expand it.  That order rests
        on the TT holding no single-label state.  A hit whose stored lo
        reaches cb cuts the move off, on either side, and one compare of the
        packed entry decides it; a miss reads -1, which that compare never
        passes because cb >= 0.  Such a hit only lowers the least pruned
        bound, so the loop keeps the least such entry and folds it in after.
        Misses and hits that do not cut go through the full test ladder.
        The two probes are written out in full because a call per child is
        the cost this saves.
        """
        self.nodes += 1
        n = self.n
        tt = self.tt
        W = self.width
        free = ~(key | key >> n) & self.all_positions
        moves = self.low_moves[free & 255] + self.high_moves[free >> 8]
        counted = self.counted
        if not counted:
            # S is every member consistent with key, so each of the nf >= hi
            # free positions splits it into the same sizes: C(nf-1, r-1) =
            # c * r / nf ones on a slice with r ones left to place, and half
            # on a cube
            if self.k is None:
                c1 = c >> 1
            else:
                c1 = c * (self.k - (key >> n).bit_count()) // nf
            zeros_first = c1 + c1 <= c
            if zeros_first:
                xc, yc, xs, ys = c - c1, c1, 0, n
            else:
                xc, yc, xs, ys = c1, c - c1, n, 0
        tt_get = tt.get
        M = self.hi_mask
        lbs = self.label_bitsets
        table = self.table
        boolean = self.is_boolean
        lb1 = lbs[1] if boolean else 0
        nf -= 1
        hi_free = self.free_hi[nf]
        best = hi + 1  # min over exact move costs found so far
        pruned = hi + 1  # min over lower bounds of pruned moves
        least = hi << W  # least entry of a hit cut off by its stored lo
        ca = alpha - 1
        cb = (beta if beta < best else best) - 1  # a move must cost <= cb
        cbw = cb << W  # an entry at least cbw has lo >= cb
        for bit, P in moves:
            if counted:
                S1 = S & P
                c1 = S1.bit_count()
                if not c1 or c1 == c:
                    continue
                zeros_first = c1 + c1 <= c
                if zeros_first:
                    xc, yc, xs, ys = c - c1, c1, 0, n
                else:
                    xc, yc, xs, ys = c1, c - c1, n, 0
            else:
                S1 = 0  # made when first needed; a split never leaves it empty
            # the larger side goes first, and the other side is probed only
            # when the first does not cut the move off.  A leaf, found only
            # on a miss, reads as bounds 0, 0, which every test returns as 0
            xk = key | bit << xs
            e = tt_get(xk, -1)
            if e >= cbw:
                if e < least:
                    least = e
                continue
            if e < 0:
                if not S1:
                    S1 = S & P
                X = S ^ S1 if zeros_first else S1
                if boolean:
                    T = X & lb1
                    leaf = not T or T == X
                else:
                    leaf = not X & ~lbs[table[(X & -X).bit_length() - 1]]
                if leaf:
                    elo = ehi = 0
                else:
                    elo = 1 if boolean else self._label_lo(X)
                    ehi = hi_free if hi_free < xc else xc - 1
                    tt[xk] = elo << W | ehi
            else:
                X = 0
                elo = e >> W
                ehi = e & M
            if elo >= cb:
                v1 = elo
            elif ehi <= ca:
                v1 = ehi
            elif elo == ehi:
                v1 = elo
            else:
                if not X:
                    if not S1:
                        S1 = S & P
                    X = S ^ S1 if zeros_first else S1
                v1 = self._expand(X, xk, elo, ehi, ca, cb, xc, nf)
            if v1 >= cb:
                if v1 + 1 < pruned:
                    pruned = v1 + 1
                continue
            yk = key | bit << ys
            e = tt_get(yk, -1)
            if e >= cbw:
                if e < least:
                    least = e
                continue
            ya = v1 if v1 > ca else ca
            if e < 0:
                if not S1:
                    S1 = S & P
                Y = S1 if zeros_first else S ^ S1
                if boolean:
                    T = Y & lb1
                    leaf = not T or T == Y
                else:
                    leaf = not Y & ~lbs[table[(Y & -Y).bit_length() - 1]]
                if leaf:
                    elo = ehi = 0
                else:
                    elo = 1 if boolean else self._label_lo(Y)
                    ehi = hi_free if hi_free < yc else yc - 1
                    tt[yk] = elo << W | ehi
            else:
                Y = 0
                elo = e >> W
                ehi = e & M
            if elo >= cb:
                v2 = elo
            elif ehi <= ya:
                v2 = ehi
            elif elo == ehi:
                v2 = elo
            else:
                if not Y:
                    if not S1:
                        S1 = S & P
                    Y = S1 if zeros_first else S ^ S1
                v2 = self._expand(Y, yk, elo, ehi, ya, cb, yc, nf)
            cost = 1 + (v2 if v2 > v1 else v1)
            if cost <= alpha:
                if cost < hi:
                    tt[key] = lo << W | cost
                return cost
            if cost <= cb:
                best = cost
                cb = cost - 1
                cbw = cb << W
            elif cost < pruned:
                pruned = cost
        if best < beta:
            tt[key] = best << W | best
            return best
        v = (least >> W) + 1
        if v > pruned:
            v = pruned
        if v > best:
            v = best
        if v > hi:
            raise AssertionError("state value crossed its proven upper bound")
        if v > lo:
            tt[key] = v << W | hi
        return v

    def _resolve(self, S: int, zeros: int, ones: int) -> int:
        """Exact value of a state via unit-window deepening."""
        if self.f.is_single_label(S):
            return 0
        key = zeros | ones << self.n
        nf = self.n - (zeros | ones).bit_count()
        d, hi = self._entry(S, key, nf)
        c = S.bit_count()
        while True:
            if hi <= d:
                v = hi
            else:
                v = self._expand(S, key, d, hi, d - 1, d + 1, c, nf)
            if v == d:
                return v
            if v < d:
                raise AssertionError("search fell below an admissible bound")
            d, hi = self.bounds(key)
            if d < v:
                raise AssertionError("a proven lower bound was lost")

    # -- packing hint at the root -------------------------------------------

    def _packing_hint(self) -> int:
        """Leaf-count bound when no two same-label inputs share a
        monochromatic subcube: depth >= log2(count of that label)."""
        if not self.is_boolean or self.size > _HINT_MAX_SIZE:
            return 0
        members = member_masks(self.f.domain)
        best = 0
        for side in (1, 0):
            lb = self.label_bitsets[side]
            cnt = lb.bit_count()
            # this side can raise the hint to cnt.bit_length() at most
            if not 2 <= cnt <= _HINT_MAX_SIDE or cnt.bit_length() <= best:
                continue
            sides = [members[r] for r in mask_positions(lb)]
            packed = True
            for i, x in enumerate(sides):
                for y in sides[i + 1 :]:
                    # the live set after fixing where the two inputs agree
                    live = consistent_set(
                        self.ones_at, self.full, ~(x | y) & self.all_positions, x & y
                    )
                    if not live & ~lb:
                        packed = False
                        break
                if not packed:
                    break
            if packed:
                best = max(best, cnt.bit_length())
        return best

    # -- public entry points --------------------------------------------------

    def solve(self) -> int:
        S = self.full
        if self.f.is_single_label(S):
            return 0
        if 0 not in self.tt:
            lo, hi = self._entry(S, 0, self.n)
            lo = max(lo, self._packing_hint())
            if lo > hi:
                raise AssertionError("root bounds crossed")
            self.tt[0] = lo << self.width | hi
        return self._resolve(S, 0, 0)

    def build_tree(self, zeros: int = 0, ones: int = 0) -> Tree:
        """An optimal tree of the state where the positions in the mask
        zeros were answered 0 and those in ones were answered 1, querying
        only free positions.  The root goes through solve() and its packing
        hint; a state that no member is consistent with raises DomainError."""
        if not zeros | ones:
            self.solve()
            return self._build(self.full, 0, 0)
        S = consistent_set(self.ones_at, self.full, zeros, ones)
        if not S:
            raise DomainError(
                f"no member of {self.f.domain.describe()} is consistent with the state"
            )
        return self._build(S, zeros, ones)

    def _build(self, S: int, zeros: int, ones: int) -> Tree:
        if self.f.is_single_label(S):
            return Leaf(self._leaf_index(S))
        v = self._resolve(S, zeros, ones)
        for p in range(self.n):
            bit = 1 << p
            if (zeros | ones) & bit:
                continue
            S1 = S & self.ones_at[p]
            if S1 == 0 or S1 == S:
                continue
            S0 = S ^ S1
            v0 = self._resolve(S0, zeros | bit, ones)
            if v0 >= v:
                continue
            v1 = self._resolve(S1, zeros, ones | bit)
            if 1 + max(v0, v1) == v:
                return Node(
                    position=p,
                    on_zero=self._build(S0, zeros | bit, ones),
                    on_one=self._build(S1, zeros, ones | bit),
                )
        raise AssertionError("no move achieves the computed optimum")


def exact_depth(f: LabeledFunction) -> int:
    """Depth of an optimal decision tree for f."""
    return DepthSolver(f).solve()


def nonadaptive_positions(f: LabeledFunction) -> tuple[int, list[int]]:
    """Fewest positions that, read all at once, always determine the label,
    with one optimal position set."""
    dom = f.domain
    members = member_masks(dom)
    table = f.table
    diffs = set()
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if table[i] != table[j]:
                diffs.add(members[i] ^ members[j])
    if not diffs:
        return 0, []
    size, mask = min_hitting_set(sorted(diffs), dom.n)
    return size, mask_positions(mask)
