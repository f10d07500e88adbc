"""Domains, labeled function tables, partial assignments, and slice graphs.

Strings of length n are stored as machine-word bitmasks: bit i of the mask is
the character at position i, so the textual form "1100" has positions {0, 1}
set.  Domains enumerate their members in a fixed order (colexicographic for
slices, numeric for the cube, list order for explicit domains); a member's
rank is its table index.  A labeled function is its domain, its alphabet
and its table: the tuple of each member's alphabet index in rank order.
Its per-label rank bitsets are derived from the table on first use;
packing a table into bytes belongs to the file format (fileio).
consistent_set maps a partial assignment to the rank bitset of the members
consistent with it.  A function is never copied to a sub-problem: the
callers that check or build certificates and subcube partitions, and
DepthSolver.build_tree on a sub-game, all go through consistent_set in the
function's own positions and ranks.

Small domains are enumerated once per domain value: equal domains share one
view holding the members (member_masks: a range for cubes, else a tuple),
the per-position rank bitsets (position_rank_bitsets), the mask-to-rank
index (member_ranks) and the position move tables (position_move_tables); the
last few are kept, and the last of a larger domain.  neighbours lists the
members one elementary move from a member (a swap on a slice, a flip that
stays in the domain elsewhere); its callers read each one's label as
table[ranks[y]] through that index.  Cubes index by range(size), explicit
domains by their own dict, and larger slices by colex_rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, MembershipError, ResourceCapError

MAX_POSITIONS = 64
MAX_DOMAIN_SIZE = 1 << 26
MAX_ALPHABET = 256
# enumeration views are cached for domains of at most _VIEW_MAX_SIZE members,
# the last _VIEW_SLOTS of them, and for the last larger domain
_VIEW_MAX_SIZE = 1 << 16
_VIEW_SLOTS = 16
# per bit b, a bytes.translate table sending a byte to "1" if its bit b is set
_BIT_TEST_DIGITS = [(b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8)]

Label = int | tuple[int, ...]


def string_to_mask(s: str, n: int | None = None) -> int:
    """Parse a 0/1 string; character i gives position i.  With n given, as
    for every member string read from input, it must have exactly n
    characters."""
    if n is not None and len(s) != n:
        raise DomainError(f"bit string {s!r} has {len(s)} characters, not n = {n}")
    m = 0
    for i, ch in enumerate(s):
        if ch == "1":
            m |= 1 << i
        elif ch != "0":
            raise DomainError(f"invalid character {ch!r} in bit string {s!r}")
    return m


def mask_to_string(mask: int, n: int) -> str:
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))


def iter_colex_masks(n: int, k: int) -> Iterator[int]:
    """All weight-k masks on n positions in colexicographic order, which for
    masks of one weight is ascending numeric order: each next mask is
    Gosper's step from the last."""
    m = (1 << k) - 1
    top = 1 << n
    while m < top:
        yield m
        low = m & -m
        if not low:  # k = 0: the empty mask is the only one
            return
        ripple = m + low
        m = ripple | ((m ^ ripple) >> 2) // low


def colex_rank(mask: int) -> int:
    """Rank of a mask among same-weight masks, colexicographic order."""
    r = 0
    j = 1
    while mask:
        low = mask & -mask
        r += math.comb(low.bit_length() - 1, j)
        j += 1
        mask ^= low
    return r


@dataclass(frozen=True)
class Domain:
    """A set of equal-length 0/1 strings: a weight slice, the full cube, or an
    explicit list."""

    n: int
    kind: str
    k: int | None = None
    explicit_members: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 0 <= self.n <= MAX_POSITIONS:
            raise DomainError(f"n={self.n} outside 0..{MAX_POSITIONS}")
        if self.kind == "slice":
            if self.n < 2 or self.k is None or not 1 <= self.k <= self.n - 1:
                raise DomainError(f"slice needs 1 <= k <= n-1, got n={self.n} k={self.k}")
        elif self.kind == "cube":
            if self.n < 1:
                raise DomainError("cube needs n >= 1")
            if self.k is not None:
                raise DomainError("cube takes no k")
        elif self.kind == "explicit":
            mem = self.explicit_members
            if not mem:
                raise DomainError("explicit domain needs at least one member")
            if len(set(mem)) != len(mem):
                raise DomainError("explicit members must be distinct")
            top = 1 << self.n
            if any(not 0 <= x < top for x in mem):
                raise DomainError("explicit member out of range for n")
        else:
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.size > MAX_DOMAIN_SIZE:
            raise ResourceCapError(
                f"domain size {self.size} exceeds cap {MAX_DOMAIN_SIZE}"
            )

    # -- constructors ---------------------------------------------------

    @classmethod
    def slice(cls, n: int, k: int) -> "Domain":
        return cls(n=n, kind="slice", k=k)

    @classmethod
    def cube(cls, n: int) -> "Domain":
        return cls(n=n, kind="cube")

    @classmethod
    def explicit(cls, n: int, members: Iterable[int]) -> "Domain":
        return cls(n=n, kind="explicit", explicit_members=tuple(members))

    # -- basic queries ---------------------------------------------------

    @cached_property
    def size(self) -> int:
        if self.kind == "slice":
            return math.comb(self.n, self.k)
        if self.kind == "cube":
            return 1 << self.n
        return len(self.explicit_members)

    @property
    def is_balanced_slice(self) -> bool:
        return self.kind == "slice" and self.n == 2 * self.k

    def __contains__(self, mask: int) -> bool:
        if not 0 <= mask < (1 << self.n):
            return False
        if self.kind == "slice":
            return mask.bit_count() == self.k
        if self.kind == "cube":
            return True
        return mask in self._explicit_index

    def members(self) -> Iterator[int]:
        if self.size <= _VIEW_MAX_SIZE:
            return iter(member_masks(self))
        return self._enumerate()

    def _enumerate(self) -> Iterator[int]:
        if self.kind == "slice":
            yield from iter_colex_masks(self.n, self.k)
        elif self.kind == "cube":
            yield from range(1 << self.n)
        else:
            yield from self.explicit_members

    def rank(self, mask: int) -> int:
        if mask not in self:
            raise MembershipError(
                f"{mask_to_string(mask, self.n)} not in {self.describe()}"
            )
        return member_ranks(self)[mask]

    @cached_property
    def _explicit_index(self) -> dict[int, int]:
        return {x: i for i, x in enumerate(self.explicit_members)}

    def describe(self) -> str:
        if self.kind == "slice":
            return f"slice({self.n},{self.k})"
        if self.kind == "cube":
            return f"cube({self.n})"
        return f"explicit({self.n},size={self.size})"


@dataclass(frozen=True)
class Assignment:
    """A partial assignment: two disjoint position masks."""

    zeros: int = 0
    ones: int = 0

    def __post_init__(self):
        if self.zeros & self.ones:
            raise DomainError("assignment fixes a position to both 0 and 1")
        if self.zeros < 0 or self.ones < 0:
            raise DomainError("negative position mask")

    @classmethod
    def of(cls, zeros: Iterable[int] = (), ones: Iterable[int] = ()) -> "Assignment":
        z = 0
        for p in zeros:
            z |= 1 << p
        o = 0
        for p in ones:
            o |= 1 << p
        return cls(zeros=z, ones=o)

    @property
    def fixed(self) -> int:
        return self.zeros | self.ones

    @property
    def size(self) -> int:
        return self.fixed.bit_count()

    @property
    def is_balanced(self) -> bool:
        return self.zeros.bit_count() == self.ones.bit_count()

    def consistent_with(self, mask: int) -> bool:
        return (mask & self.ones) == self.ones and not (mask & self.zeros)

    def positions(self) -> tuple[list[int], list[int]]:
        return (mask_positions(self.zeros), mask_positions(self.ones))

    def to_json_obj(self) -> dict:
        zs, os_ = self.positions()
        return {"zeros": zs, "ones": os_}


def mask_positions(mask: int) -> list[int]:
    """Set bit positions of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


BOOLEAN: tuple[Label, ...] = (0, 1)


@dataclass(frozen=True)
class LabeledFunction:
    """A total function from a domain to a finite label alphabet.

    table holds each member's alphabet index, in rank order.  Labels are ints
    or int tuples; a Boolean alphabet is always stored as (0, 1).
    """

    domain: Domain
    alphabet: tuple[Label, ...]
    table: tuple[int, ...]

    @classmethod
    def from_indices(
        cls, domain: Domain, alphabet: Sequence[Label], indices: Iterable[int]
    ) -> "LabeledFunction":
        alphabet = _normalize_alphabet(alphabet)
        table = tuple(indices)
        if len(table) != domain.size:
            raise DomainError(
                f"table length {len(table)} != domain size {domain.size}"
            )
        if table and (min(table) < 0 or max(table) >= len(alphabet)):
            raise DomainError("table index outside alphabet")
        if alphabet == (1, 0):
            alphabet, table = BOOLEAN, tuple(1 - v for v in table)
        return cls(domain=domain, alphabet=alphabet, table=table)

    @classmethod
    def from_callable(
        cls,
        domain: Domain,
        fn: Callable[[int], Label],
        alphabet: Sequence[Label] | None = None,
    ) -> "LabeledFunction":
        values = [fn(x) for x in domain.members()]
        if alphabet is None:
            distinct = sorted(set(values), key=_label_sort_key)
            if set(distinct) <= {0, 1}:
                distinct = [0, 1]
            alphabet = distinct
        alphabet = _normalize_alphabet(alphabet)
        if alphabet == (1, 0):
            alphabet = BOOLEAN
        pos = {lab: i for i, lab in enumerate(alphabet)}
        try:
            table = tuple(map(pos.__getitem__, values))
        except KeyError as e:
            raise DomainError(f"value {e.args[0]!r} not in alphabet") from None
        return cls(domain=domain, alphabet=alphabet, table=table)

    # -- access ----------------------------------------------------------

    @property
    def is_boolean(self) -> bool:
        return self.alphabet == BOOLEAN

    def evaluate(self, mask: int) -> Label:
        return self.alphabet[self.table[self.domain.rank(mask)]]

    @cached_property
    def label_bitsets(self) -> tuple[int, ...]:
        """Per alphabet index, the bitset of member ranks carrying that label."""
        # the table as bytes, highest rank first, read as a binary numeral
        # with a 1 digit where the label sits
        raw = bytes(self.table)[::-1]
        return tuple(
            int(raw.translate(_bit_digits(i)), 2) for i in range(len(self.alphabet))
        )

    def is_single_label(self, S: int) -> bool:
        """True when the rank set S is nonempty and carries one label."""
        low = (S & -S).bit_length() - 1
        return low >= 0 and not S & ~self.label_bitsets[self.table[low]]


@lru_cache(maxsize=None)
def _bit_digits(i: int) -> bytes:
    """A bytes.translate table sending byte i to "1" and every other to "0"."""
    return b"0" * i + b"1" + b"0" * (255 - i)


class _MoveTable(dict):
    """Per mask m, the pairs[p] = (1 << p, bitsets[p]) of the positions p set
    in m << shift, in ascending p, each tuple built on first lookup."""

    def __init__(self, pairs: tuple[tuple[int, int], ...], shift: int):
        super().__init__()
        self.pairs = pairs
        self.shift = shift

    def __missing__(self, m: int) -> tuple[tuple[int, int], ...]:
        self[m] = out = tuple(
            self.pairs[p] for p in range(self.shift, len(self.pairs))
            if m >> (p - self.shift) & 1
        )
        return out


class _DomainView:
    """A domain's members in rank order, and its per-position rank bitsets,
    mask-to-rank dict and position move tables built on first use.  Equal
    small domains share one view."""

    def __init__(self, dom: Domain):
        self.n = dom.n
        self.members = (
            range(dom.size) if dom.kind == "cube" else tuple(dom._enumerate())
        )

    @cached_property
    def ranks(self) -> dict[int, int]:
        return {x: r for r, x in enumerate(self.members)}

    @cached_property
    def position_bitsets(self) -> tuple[int, ...]:
        # members as w little-endian bytes, highest rank first: every w-th byte
        # from byte p // 8 holds bit p, and is then read as in label_bitsets
        w = (self.n + 7) // 8
        raw = b"".join(map(int.to_bytes, self.members[::-1], repeat(w), repeat("little")))
        return tuple(
            int(raw[p // 8 :: w].translate(_BIT_TEST_DIGITS[p % 8]), 2)
            for p in range(self.n)
        )

    @cached_property
    def position_moves(self) -> tuple[_MoveTable, _MoveTable]:
        pairs = tuple((1 << p, P) for p, P in enumerate(self.position_bitsets))
        return _MoveTable(pairs, 0), _MoveTable(pairs, 8)


@lru_cache(maxsize=_VIEW_SLOTS)
def _cached_view(dom: Domain) -> _DomainView:
    return _DomainView(dom)


_last_large_view = lru_cache(maxsize=1)(_DomainView)


def _view(dom: Domain) -> _DomainView:
    return (_cached_view if dom.size <= _VIEW_MAX_SIZE else _last_large_view)(dom)


def member_masks(dom: Domain) -> Sequence[int]:
    """All members of dom in rank order: a range for cubes, else a tuple."""
    return _view(dom).members


def position_rank_bitsets(dom: Domain) -> tuple[int, ...]:
    """Per position p, the bitset of member ranks whose bit p is set."""
    return _view(dom).position_bitsets


def position_move_tables(dom: Domain) -> tuple[Mapping, Mapping]:
    """Two lazily filled tables of (1 << p, position_rank_bitsets(dom)[p])
    pairs: the first keyed by the low byte of a position mask, the second
    by the rest of it (mask >> 8).  low[m & 255] + high[m >> 8] lists the
    positions of m in ascending order.  Keying by the two parts, not the
    whole mask, keeps the tables small; equal small domains share them."""
    return _view(dom).position_moves


class _ColexRanks:
    """colex_rank as a read-only mapping, for slices too large to index."""

    def __getitem__(self, mask: int) -> int:
        return colex_rank(mask)


def member_ranks(dom: Domain) -> Mapping[int, int]:
    """The rank of each member of dom, looked up by mask.

    Only members may be looked up: a non-member raises KeyError or
    IndexError, or gets a meaningless rank from a large slice.  The cube
    and explicit indexes also answer `in` for any mask of n bits.
    """
    if dom.kind == "cube":
        return range(dom.size)
    if dom.kind == "explicit":
        return dom._explicit_index
    if dom.size <= _VIEW_MAX_SIZE:
        return _cached_view(dom).ranks
    return _ColexRanks()


def neighbours(dom: Domain, x: int) -> list[int]:
    """The members one elementary move from member x; a caller reads the
    move as x ^ y.  On a slice the moves are the swaps of a 1 with a 0,
    listed by the 1's position and then the 0's, both ascending; elsewhere
    they are the flips, by position ascending, that land in dom."""
    if dom.kind != "slice":
        flips = [x ^ 1 << p for p in range(dom.n)]
        if dom.kind == "cube":
            return flips
        return [y for y in flips if y in dom._explicit_index]
    # x less one of its 1s, and each 0 that can take that 1
    lows, zeros = [], []
    for p in range(dom.n):
        b = 1 << p
        if x & b:
            lows.append(x ^ b)
        else:
            zeros.append(b)
    return [y | b for y in lows for b in zeros]


def _label_sort_key(lab: Label):
    # ints sort before tuples so mixed alphabets stay deterministic
    if isinstance(lab, tuple):
        return (1, lab)
    return (0, (lab,))


def _normalize_alphabet(alphabet: Sequence[Label]) -> tuple[Label, ...]:
    labs = []
    for lab in alphabet:
        if isinstance(lab, list):
            lab = tuple(lab)
        if not isinstance(lab, (int, tuple)):
            raise DomainError(f"label {lab!r} must be int or int tuple")
        if isinstance(lab, tuple) and not all(isinstance(v, int) for v in lab):
            raise DomainError(f"tuple label {lab!r} must hold ints")
        labs.append(lab)
    if len(set(labs)) != len(labs):
        raise DomainError("alphabet labels must be distinct")
    if len(labs) > MAX_ALPHABET:
        raise ResourceCapError(f"alphabet size {len(labs)} exceeds {MAX_ALPHABET}")
    return tuple(labs)


# -- partial assignments as rank sets ----------------------------------------


def consistent_set(ones_at: Sequence[int], full: int, zeros: int, ones: int) -> int:
    """Rank bitset of the members with 0s at the positions of the mask zeros
    and 1s at those of ones.  The caller fetches ones_at =
    position_rank_bitsets(dom) and full = (1 << dom.size) - 1 once, as large
    domains may rebuild them per fetch.  A position outside 0..n-1 raises
    DomainError."""
    if (zeros | ones) >> len(ones_at):
        raise DomainError("assignment fixes a position outside the domain")
    S = full
    while ones:
        low = ones & -ones
        S &= ones_at[low.bit_length() - 1]
        ones ^= low
    while zeros:
        low = zeros & -zeros
        S &= ~ones_at[low.bit_length() - 1]
        zeros ^= low
    return S


def whole_cube(n: int) -> Domain:
    """{0,1}^n as a domain in which each point's rank is the point itself:
    cube(n), or the one-point explicit domain when n = 0."""
    return Domain.cube(n) if n else Domain.explicit(0, (0,))


# -- weight-2 slice <-> graph correspondence ---------------------------------


@dataclass(frozen=True)
class SliceGraph:
    """Simple undirected graph on vertices 0..n-1, adjacency as bitmask rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if len(self.adj) != self.n:
            raise DomainError("adjacency length != n")
        for u, row in enumerate(self.adj):
            if row >> self.n:
                raise DomainError("adjacency row exceeds vertex range")
            if row >> u & 1:
                raise DomainError("self-loop")
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if (self.adj[u] >> v & 1) != (self.adj[v] >> u & 1):
                    raise DomainError("adjacency not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SliceGraph":
        adj = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"bad edge ({u},{v}) on {n} vertices")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n=n, adj=tuple(adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


def from_graph(g: SliceGraph) -> LabeledFunction:
    """Indicator of g's edge set on slice(n, 2)."""
    if g.n < 3:
        raise DomainError("graph correspondence needs n >= 3")

    def fn(mask: int) -> int:
        u = (mask & -mask).bit_length() - 1
        v = (mask ^ (1 << u)).bit_length() - 1
        return 1 if g.has_edge(u, v) else 0

    return LabeledFunction.from_callable(Domain.slice(g.n, 2), fn, BOOLEAN)


def to_graph(f: LabeledFunction) -> SliceGraph:
    """The graph whose edges are f's 1-inputs; f must be Boolean on slice(n, 2)."""
    dom = f.domain
    if dom.kind != "slice" or dom.k != 2:
        raise DomainError("to_graph needs a function on slice(n, 2)")
    if not f.is_boolean:
        raise DomainError("to_graph needs a Boolean function")
    edges = []
    for r, mask in enumerate(dom.members()):
        if f.table[r]:
            u = (mask & -mask).bit_length() - 1
            v = (mask ^ (1 << u)).bit_length() - 1
            edges.append((u, v))
    return SliceGraph.from_edges(dom.n, edges)
