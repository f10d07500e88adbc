"""Named function families and graph constructions.

Each constructor returns a plain LabeledFunction (or SliceGraph); the
ConstructionSpec layer gives every scalar-parameter family a stable textual
name so the command line can rebuild any of them from a short string.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from .errors import DomainError
from .slicecore import (
    BOOLEAN,
    MAX_POSITIONS,
    Domain,
    LabeledFunction,
    SliceGraph,
    from_graph,
    mask_positions,
    string_to_mask,
)


def make_eq(k: int) -> LabeledFunction:
    """Equality of the two halves, on slice(4k, 2k)."""
    if k < 1:
        raise DomainError("make_eq needs k >= 1")
    half = 2 * k
    low = (1 << half) - 1
    dom = Domain.slice(4 * k, half)
    return LabeledFunction.from_callable(
        dom, lambda x: 1 if (x & low) == (x >> half) else 0, BOOLEAN
    )


def make_ed(k: int, l: int) -> LabeledFunction:
    """Element distinctness of k blocks of l bits, on slice(kl, kl/2)."""
    if l < 1 or not 2 <= k <= (1 << l):
        raise DomainError("make_ed needs l >= 1 and 2 <= k <= 2^l")
    if k * l % 2:
        raise DomainError("make_ed needs kl even")
    n = k * l
    dom = Domain.slice(n, n // 2)
    low = (1 << l) - 1

    def distinct(x: int) -> int:
        seen = 0
        for i in range(k):
            block = x >> (i * l) & low
            if seen >> block & 1:
                return 0
            seen |= 1 << block
        return 1

    return LabeledFunction.from_callable(dom, distinct, BOOLEAN)


def graham_sloane(n: int, k: int, i: int | None = None):
    """Sum-classes of k-subsets of Z_n.

    Returns (classes, best, indicator): classes[j] lists the member masks
    whose set positions sum to j mod n, best is the argmax class index
    (smallest on ties), and indicator marks class i (default: best).
    """
    if not 1 <= k <= n - 1:
        raise DomainError("graham_sloane needs 1 <= k <= n-1")
    dom = Domain.slice(n, k)
    classes: list[list[int]] = [[] for _ in range(n)]
    for xm in dom.members():
        classes[sum(mask_positions(xm)) % n].append(xm)
    best = max(range(n), key=lambda j: (len(classes[j]), -j))
    pick = best if i is None else i
    if not 0 <= pick < n:
        raise DomainError(f"class index {pick} outside Z_{n}")
    chosen = set(classes[pick])
    f = LabeledFunction.from_callable(dom, lambda x: 1 if x in chosen else 0, BOOLEAN)
    return classes, best, f


def kml_cardinality(r: int) -> int:
    """Closed form for the size of the XOR-zero class on slice(2^r, 2^(r-1))."""
    if r < 2:
        raise DomainError("kml needs r >= 2")
    n = 1 << r
    return (math.comb(n, n // 2) + (n - 1) * math.comb(n // 2, n // 4)) // n


def kml_set(r: int) -> LabeledFunction:
    """Indicator of half-size subsets of Z_2^r whose elements XOR to zero."""
    if r < 2:
        raise DomainError("kml needs r >= 2")
    n = 1 << r
    dom = Domain.slice(n, n // 2)

    def xor_zero(xm: int) -> int:
        acc = 0
        for p in mask_positions(xm):
            acc ^= p
        return 1 if acc == 0 else 0

    return LabeledFunction.from_callable(dom, xor_zero, BOOLEAN)


def paley_weight2(q: int) -> SliceGraph:
    """Paley graph on q vertices; q must be a prime with q % 4 == 1."""
    if q > MAX_POSITIONS:  # before the trial division and the q^2 edge scan
        raise DomainError(f"paley is capped at q <= {MAX_POSITIONS}")
    if q < 5 or any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
        raise DomainError("paley needs a prime q >= 5")
    if q % 4 != 1:
        raise DomainError("paley needs q % 4 == 1 so the graph is undirected")
    squares = {x * x % q for x in range(1, q)}
    edges = [(u, v) for u in range(q) for v in range(u + 1, q) if (v - u) % q in squares]
    return SliceGraph.from_edges(q, edges)


def random_graph(n: int, seed: int) -> SliceGraph:
    """Uniform random graph: each pair independently an edge with odds 1/2."""
    if n > MAX_POSITIONS:
        raise DomainError(f"random graphs are capped at n <= {MAX_POSITIONS}")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.getrandbits(1)
    ]
    return SliceGraph.from_edges(n, edges)


def _rubinstein(
    n: int, patterns: Callable[[int], list[str]], k: int | None = None
) -> LabeledFunction:
    """The block-pattern OR on slice(n, k), or on the cube when k is None."""
    root = math.isqrt(max(n, 0))
    if n < 4 or root * root != n or root % 2:
        raise DomainError("needs n a perfect square with sqrt(n) even")
    masks = {string_to_mask(s) for s in patterns(root // 2)}
    low = (1 << root) - 1

    def g(x: int) -> int:
        for j in range(root):
            if x >> (j * root) & low in masks:
                return 1
        return 0

    dom = Domain.cube(n) if k is None else Domain.slice(n, k)
    return LabeledFunction.from_callable(dom, g, BOOLEAN)


def rubinstein_variant(n: int) -> LabeledFunction:
    """OR over sqrt(n) blocks of the swapped-pair pattern predicate."""
    return _rubinstein(
        n, lambda k: ["01" * i + "10" + "01" * (k - i - 1) for i in range(k)]
    )


def _adjacent_ones(k: int) -> list[str]:
    return ["00" * i + "11" + "00" * (k - i - 1) for i in range(k)]


def rubinstein_original(n: int) -> LabeledFunction:
    """OR over sqrt(n) blocks of the adjacent-ones pattern predicate."""
    return _rubinstein(n, _adjacent_ones)


def rubinstein_slice(n: int) -> LabeledFunction:
    """rubinstein_original on the balanced slice, built on the slice alone."""
    return _rubinstein(n, _adjacent_ones, n // 2)


def slice_restriction(g: LabeledFunction, k: int | None = None) -> LabeledFunction:
    """The same evaluation rule on slice(n, k); default is the balanced slice."""
    if g.domain.kind != "cube":
        raise DomainError("slice_restriction starts from a cube function")
    n = g.domain.n
    if k is None:
        if n % 2:
            raise DomainError("default balanced slice needs n even")
        k = n // 2
    # on a cube rank = mask, so g's table is read by mask
    dom, table = Domain.slice(n, k), g.table
    return LabeledFunction.from_indices(
        dom, g.alphabet, [table[x] for x in dom.members()]
    )


def lift(g: LabeledFunction) -> LabeledFunction:
    """f(x, y) = g(x) on slice(2n, n), for total Boolean g on cube(n)."""
    if g.domain.kind != "cube":
        raise DomainError("lift starts from a cube function")
    if not g.is_boolean:
        raise DomainError("lift needs a Boolean function")
    n = g.domain.n
    low = (1 << n) - 1
    dom, table = Domain.slice(2 * n, n), g.table
    return LabeledFunction.from_indices(
        dom, BOOLEAN, [table[z & low] for z in dom.members()]
    )


def weights_task(n: int, m: int, k: int) -> LabeledFunction:
    """Labels each input by its descending-sorted vector of block weights."""
    if n < 1 or m < 1:
        raise DomainError("weights_task needs n, m >= 1")
    dom = Domain.slice(n * m, k)
    low = (1 << m) - 1

    def label(x: int):
        return tuple(
            sorted(((x >> (i * m) & low).bit_count() for i in range(n)), reverse=True)
        )

    return LabeledFunction.from_callable(dom, label)


def compose_symmetric(fsym, gsym, k: int) -> LabeledFunction:
    """(f of g) on slice(nm, k) for symmetric f, g given value-by-weight.

    fsym has n+1 entries (any int labels); gsym has m+1 entries in {0,1};
    the value at z is fsym[sum over blocks of gsym[block weight]].
    """
    fsym = list(fsym)
    gsym = list(gsym)
    n = len(fsym) - 1
    m = len(gsym) - 1
    if n < 1 or m < 1:
        raise DomainError("symmetric specs need at least 2 entries")
    if not set(gsym) <= {0, 1}:
        raise DomainError("inner symmetric values must be 0/1")
    dom = Domain.slice(n * m, k)
    low = (1 << m) - 1

    def value(z: int):
        total = sum(gsym[(z >> (i * m) & low).bit_count()] for i in range(n))
        return fsym[total]

    return LabeledFunction.from_callable(dom, value)


def random_slice_function(
    n: int, k: int, seed: int, alphabet=BOOLEAN
) -> LabeledFunction:
    """Uniform random table on slice(n, k), reproducible from the seed."""
    dom = Domain.slice(n, k)
    rng = random.Random(seed)
    idx = [rng.randrange(len(alphabet)) for _ in range(dom.size)]
    return LabeledFunction.from_indices(dom, alphabet, idx)


def or_first_half(n: int) -> LabeledFunction:
    """OR of the first floor(n/2) positions, on slice(n, 1)."""
    if n < 2:
        raise DomainError("or_first_half needs n >= 2")
    mask = (1 << (n // 2)) - 1
    return LabeledFunction.from_callable(
        Domain.slice(n, 1), lambda x: 1 if x & mask else 0, BOOLEAN
    )


# -- spec strings and name tables ------------------------------------------------


# builder parameters that take a list of ints, written dash-joined (one int
# is a list of one); every other parameter takes one int, or text where
# parse_spec keeps it
LIST_KEYS = frozenset({"fsym", "gsym", "alphabet"})


def parse_spec(text: str, what: str, text_keys=()) -> tuple[str, dict[str, Any]]:
    """Split "name" or "name:key=val,..." into the name and its parameters.

    Values are ints, and dash-joined ints become int tuples; a key in
    text_keys keeps its value as text.  what names the kind of spec in
    error messages.
    """
    name, sep, rest = text.partition(":")
    name = name.strip()
    if not name:
        raise DomainError(f"empty {what} name")
    params: dict[str, Any] = {}
    if sep:
        for part in rest.split(","):
            key, eq, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            if not eq or not key or not raw:
                raise DomainError(f"bad {what} parameter {part!r}; expected key=value")
            if key in params:
                raise DomainError(f"duplicate {what} parameter {key!r}")
            if key in text_keys:
                params[key] = raw
                continue
            try:
                if "-" in raw.lstrip("-"):
                    params[key] = tuple(int(v) for v in raw.split("-"))
                else:
                    params[key] = int(raw)
            except ValueError:
                raise DomainError(
                    f"{what} parameter {key!r} must be an int or dash-joined ints, "
                    f"not {raw!r}"
                ) from None
    return name, params


def build(table: dict[str, Callable], what: str, name: str, params: dict, **context):
    """Call the builder table[name] with params as keyword arguments.

    A dash-joined tuple is accepted only for a LIST_KEYS parameter.  Each
    context value goes to a builder that has a parameter of that name and
    is dropped otherwise; a context name is never a spec key.
    """
    builder = table.get(name)
    if builder is None:
        raise DomainError(f"unknown {what} {name!r}; known: {', '.join(table)}")
    taken = inspect.signature(builder).parameters
    required = [k for k, p in taken.items() if p.default is p.empty]
    unknown = sorted(set(params) - (taken.keys() - context.keys()))
    if unknown:
        raise DomainError(f"{what} {name!r} got unknown parameters {', '.join(unknown)}")
    missing = [k for k in required if k not in params and k not in context]
    if missing:
        raise DomainError(f"{what} {name!r} needs parameters {', '.join(missing)}")
    args = {k: v for k, v in context.items() if k in taken}
    for key, value in params.items():
        if key in LIST_KEYS:
            value = value if isinstance(value, tuple) else (value,)
        elif isinstance(value, tuple):
            raise DomainError(
                f"{what} {name!r} parameter {key!r} takes one int, "
                f"not {'-'.join(map(str, value))}"
            )
        args[key] = value
    return builder(**args)


@dataclass(frozen=True)
class ConstructionSpec:
    """A named scalar-parameter construction, rebuildable from a string."""

    name: str
    params: tuple[tuple[str, Any], ...]

    @classmethod
    def of(cls, name: str, **params: Any) -> "ConstructionSpec":
        return cls(name=name, params=tuple(sorted(params.items())))

    def build(self) -> LabeledFunction:
        return build(REGISTRY, "construction", self.name, dict(self.params))

    def to_string(self) -> str:
        if not self.params:
            return self.name
        parts = []
        for key, value in self.params:
            if isinstance(value, tuple):
                value = "-".join(str(v) for v in value)
            parts.append(f"{key}={value}")
        return self.name + ":" + ",".join(parts)

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "params": {k: list(v) if isinstance(v, tuple) else v for k, v in self.params},
        }


def parse_construction(text: str) -> ConstructionSpec:
    """Parse "name" or "name:key=val,..."; dash-joined ints become tuples."""
    name, params = parse_spec(text, "construction")
    return ConstructionSpec.of(name, **params)


# in name order: help text and error messages list the names as they stand
REGISTRY: dict[str, Callable[..., LabeledFunction]] = {
    "compose": compose_symmetric,
    "ed": make_ed,
    "eq": make_eq,
    "gs": lambda n, k, i=None: graham_sloane(n, k, i)[2],
    "kml": kml_set,
    "or-first-half": or_first_half,
    "paley": lambda q: from_graph(paley_weight2(q)),
    "random": random_slice_function,
    "random-graph": lambda n, seed: from_graph(random_graph(n, seed)),
    "rubinstein-original": rubinstein_original,
    "rubinstein-slice": rubinstein_slice,
    "rubinstein-variant": rubinstein_variant,
    "weights": weights_task,
}
