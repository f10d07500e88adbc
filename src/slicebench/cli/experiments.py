"""Registered batch experiments, one per established bound or construction.

Each experiment is a pure function of its parameter dict (seeds included),
so a rerun from the same spec emits a byte-identical report.  Cases carry a
pass verdict where a proven bound is asserted; open values are reported
with no verdict.  Reports never include timing.  Parameters are declared
once per experiment, in a table ExperimentSpec.of checks every value against.
Each case is a (key, args) pair, and rules tying parameters sit in cases.
"""

import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from ..adversary import (
    FixedInputAdversary,
    run_match,
    weights_alg_A,
    weights_alg_B,
)
from ..catalog import (
    graham_sloane,
    kml_cardinality,
    kml_set,
    lift,
    make_ed,
    make_eq,
    random_graph,
    random_slice_function,
    rubinstein_slice,
    rubinstein_variant,
    weights_task,
)
from ..errors import DomainError
from ..measures.algebra import degree
from ..measures.bounds import (
    max_one_subcube_intersection,
    monochromatic_number,
    packing_lower_bound,
)
from ..measures.certificates import balanced_certificate, certificate_complexity
from ..measures.depth import exact_depth, nonadaptive_positions
from ..measures.sensitivity import block_sensitivity, sensitivity
from ..slicecore import (
    BOOLEAN,
    Domain,
    LabeledFunction,
    SliceGraph,
    from_graph,
    member_masks,
    neighbours,
    string_to_mask,
)


def _code_function(dom: Domain, code: int) -> LabeledFunction:
    """The Boolean function on dom whose value at rank r is bit r of code."""
    return LabeledFunction.from_indices(
        dom, BOOLEAN, [code >> r & 1 for r in range(dom.size)]
    )


def _mix(*parts: int) -> int:
    """Fold several small ints into one reproducible seed."""
    out = 0
    for p in parts:
        out = out * 1_000_003 + p
    return out


def _random_cube_function(n: int, seed: int) -> LabeledFunction:
    """Uniform random Boolean table on cube(n), one bit drawn per member."""
    dom = Domain.cube(n)
    rng = random.Random(seed)
    return LabeledFunction.from_indices(
        dom, BOOLEAN, [rng.getrandbits(1) for _ in range(dom.size)]
    )


# A seed is any signed 64-bit int; a case count is capped so a report fits
# in memory.  Sizes range up to the 64-position limit, and a slice too large
# to build is still refused by the domain-size cap (exit 3).
_SEEDS = (-(1 << 63), (1 << 63) - 1)
_MANY = 100_000


class Experiment:
    """One registered batch: named cases over a parameter dict.

    params declares each parameter as (default, lo, hi).  The default fixes
    the shape: an int, a non-empty list of ints, or a non-empty list of int
    lists as long as its first item; every int lies in lo..hi.  Rules tying
    one parameter to another are checked in cases, which lists each case as
    its report key and the args that run_case(params, *args) takes to return
    (observed, expected, pass).  Where cases differ in kind, the first arg is
    the check (or builder) for its kind, which the default run_case calls.
    """

    name = ""
    claim = ""
    params: dict[str, tuple] = {}

    def cases(self, params: dict) -> list[tuple[str, tuple]]:
        raise NotImplementedError

    def run_case(self, params: dict, check, *args) -> tuple:
        return check(*args)

    def aggregate(self, params: dict, cases: list[dict]) -> dict | None:
        return None


class EqDepth(Experiment):
    name = "eq-depth"
    claim = "exact depth of half-equality on slice(4k, 2k) is 3k - 1"
    params = {"ks": ([1, 2, 3], 1, 16)}

    def cases(self, params):
        return [(f"k={k:02d}", (k,)) for k in params["ks"]]

    def run_case(self, params, k):
        got = exact_depth(make_eq(k))
        want = 3 * k - 1
        return {"depth": got}, {"depth": want}, got == want


class Weight2Sandwich(Experiment):
    name = "weight2-sandwich"
    claim = (
        "every graph function on slice(n, 2) has depth between n - m(G) "
        "and n - ceil(m(G)/2)"
    )
    # exhaustive over all 2^C(n, 2) graphs
    params = {"n": (5, 3, 5)}

    def cases(self, params):
        n = params["n"]
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return [
            (f"g={mask:04d}", ([p for t, p in enumerate(pairs) if mask >> t & 1],))
            for mask in range(1 << len(pairs))
        ]

    def run_case(self, params, edges):
        n = params["n"]
        g = SliceGraph.from_edges(n, edges)
        m, _ = monochromatic_number(g)
        depth = exact_depth(from_graph(g))
        lo, hi = n - m, n - (m + 1) // 2
        observed = {"m": m, "depth": depth}
        return observed, {"lower": lo, "upper": hi}, lo <= depth <= hi


class JohnsonIndependent(Experiment):
    name = "johnson-independent"
    claim = (
        "position-sum classes partition slice(n, k), are independent in the "
        "Johnson graph, and the largest has at least C(n, k)/n members"
    )
    params = {"max_n": (14, 2, 64)}

    def cases(self, params):
        return [
            (f"n={n:02d},k={k:02d}", (n, k))
            for n in range(2, params["max_n"] + 1)
            for k in range(1, n // 2 + 1)
        ]

    def run_case(self, params, n, k):
        classes, best, _ = graham_sloane(n, k)
        dom = Domain.slice(n, k)
        class_of = {x: j for j, members in enumerate(classes) for x in members}
        # a partition lists every member once and nothing else
        total = sum(len(members) for members in classes)
        partition = total == len(class_of) == dom.size and all(
            x in dom for x in class_of
        )
        independent = partition and _independent(class_of, dom)
        largest = len(classes[best])
        big_enough = largest * n >= dom.size
        return (
            {"largest_class": largest, "members": dom.size},
            {"min_largest_times_n": dom.size},
            partition and independent and big_enough,
        )


def _independent(class_of: dict[int, int], dom: Domain) -> bool:
    """True when no transposition (swap a 1 with a 0) stays in a class."""
    for x, j in class_of.items():
        for y in neighbours(dom, x):
            if class_of[y] == j:
                return False
    return True


class KmlCount(Experiment):
    name = "kml-count"
    claim = (
        "the XOR-zero class on slice(2^r, 2^(r-1)) has exactly "
        "(C(n, n/2) + (n-1) C(n/2, n/4)) / n members"
    )
    # the count formula is false at r = 2, where the class is empty
    params = {"rs": ([3, 4], 3, 6)}

    def cases(self, params):
        return [(f"r={r:02d}", (r,)) for r in params["rs"]]

    def run_case(self, params, r):
        counted = kml_set(r).label_bitsets[1].bit_count()
        formula = kml_cardinality(r)
        pinned = {3: 14, 4: 870}.get(r)
        ok = counted == formula and (pinned is None or counted == pinned)
        return {"enumerated": counted}, {"formula": formula, "pinned": pinned}, ok


class EdStructure(Experiment):
    name = "ed-structure"
    claim = (
        "element distinctness at (k, l) = (4, 2): 24 one-inputs, no "
        "one-subcube holds more than 2 of them, nonadaptive depth n - 1, "
        "and the packing bound stays below the exact depth"
    )
    # the claim names its values for (4, 2) alone
    params = {"k": (4, 4, 4), "l": (2, 2, 2)}

    def cases(self, params):
        k, l = params["k"], params["l"]
        return [(f"k={k:02d},l={l:02d}", (k, l))]

    def run_case(self, params, k, l):
        ed = make_ed(k, l)
        n = ed.domain.n
        ones = ed.label_bitsets[1].bit_count()
        subcube_max, _ = max_one_subcube_intersection(ed)
        nonadaptive, _ = nonadaptive_positions(ed)
        packing, _ = packing_lower_bound(ed)
        depth = exact_depth(ed)
        observed = {
            "ones": ones,
            "subcube_max": subcube_max,
            "nonadaptive": nonadaptive,
            "packing": packing,
            "depth": depth,
        }
        expected = {"ones": 24, "subcube_max": 2, "nonadaptive": n - 1}
        ok = (
            ones == expected["ones"]
            and subcube_max == expected["subcube_max"]
            and nonadaptive == expected["nonadaptive"]
            and packing <= depth
        )
        return observed, expected, ok


class EdConjecture(Experiment):
    name = "ed-conjecture"
    claim = (
        "reports exact element-distinctness depths next to the open guess "
        "kl - ceil(l/2); only depth >= packing bound is asserted"
    )
    params = {"cases": ([[3, 2], [4, 2]], 1, 32)}

    def cases(self, params):
        return [(f"k={k:02d},l={l:02d}", (k, l)) for k, l in params["cases"]]

    def run_case(self, params, k, l):
        ed = make_ed(k, l)
        depth = exact_depth(ed)
        packing, _ = packing_lower_bound(ed)
        guess = k * l - (l + 1) // 2
        return (
            {"depth": depth, "packing": packing, "conjectured": guess},
            {"min_depth": packing},
            depth >= packing,
        )


class LiftPreservation(Experiment):
    name = "lift-preservation"
    claim = (
        "doubling a cube function onto the balanced slice preserves depth, "
        "certificate complexity, block sensitivity, and degree, and keeps "
        "s(g) <= s(f) <= bs_2(g) <= 2 s(g)^2"
    )
    # exhaustive_n = 4 already makes 2^16 cases
    params = {"exhaustive_n": (3, 1, 4), "sample_n": (4, 1, 32),
              "samples": (50, 0, _MANY), "seed": (404, *_SEEDS)}

    def cases(self, params):
        dom, n = Domain.cube(params["exhaustive_n"]), params["sample_n"]
        cases = [
            (f"g={code:03d}", (_code_function, dom, code))
            for code in range(1 << dom.size)
        ]
        cases += [
            (f"n={n:02d},seed={s:03d}",
             (_random_cube_function, n, _mix(params["seed"], s)))
            for s in range(params["samples"])
        ]
        return cases

    def run_case(self, params, build, *args):
        g = build(*args)
        lifted = lift(g)
        d_g, d_f = exact_depth(g), exact_depth(lifted)
        c_g, _ = certificate_complexity(g)
        c_f, _ = certificate_complexity(lifted)
        bs_g, _ = block_sensitivity(g)
        bs_f, _ = block_sensitivity(lifted)
        deg_g, _ = degree(g)
        deg_f, _ = degree(lifted)
        s_g, _ = sensitivity(g)
        s_f, _ = sensitivity(lifted)
        bs2_g, _ = block_sensitivity(g, max_block_size=2)
        preserved = d_g == d_f and c_g == c_f and bs_g == bs_f and deg_g == deg_f
        chain = s_g <= s_f <= bs2_g <= 2 * s_g * s_g
        observed = {
            "depth": [d_g, d_f],
            "certificate": [c_g, c_f],
            "block_sensitivity": [bs_g, bs_f],
            "degree": [deg_g, deg_f],
            "sensitivity": [s_g, s_f],
            "bs2": bs2_g,
        }
        return observed, {"preserved": True, "chain": True}, preserved and chain


class WeightsM2(Experiment):
    name = "weights-m2"
    claim = (
        "block-weight multiset depths match the known exact values; "
        "algorithm A always uses (n-1)m queries and B at most "
        "nm - ceil(n/m); their minimum never exceeds N - N^(1/3)"
    )
    params = {
        "depth_cases": ([[4, 2, 2], [5, 2, 2], [4, 2, 3], [4, 2, 4]], 1, 64),
        "two_block_max_m": (5, 1, 32),
        "replay_max_nm": (10, 1, 64),
        "minab_max_nm": (16, 1, 10_000),
    }

    def cases(self, params):
        # the formula covers two blocks, or blocks of two; swapping 0s and 1s
        # makes depth symmetric in k, which fixes each upper end
        for n, m, k in params["depth_cases"]:
            top = 2 * m - 2 if n == 2 else n + (n - 1) // 2 if m == 2 else 1
            if not 2 <= k <= top:
                raise DomainError(
                    f"weights-m2 has no depth formula at n={n}, m={m}, k={k}: it "
                    "takes n = 2 and 2 <= k <= 2m - 2, or m = 2 and "
                    "2 <= k <= n + ceil(n/2) - 1"
                )
        triples = params["depth_cases"] + [
            (2, m, k)
            for m in range(2, params["two_block_max_m"] + 1)
            for k in range(2, m + 1)
        ]
        cases = [
            (f"depth,n={n:02d},m={m:02d},k={k:02d}", (self._depth, n, m, k))
            for n, m, k in triples
        ]
        for family, check in (("replay", self._replay), ("minab", self._minab)):
            top = params[f"{family}_max_nm"]
            cases += [
                (f"{family},n={n:02d},m={m:02d}", (check, n, m))
                for n in range(2, top + 1)
                for m in range(1, top // n + 1)
            ]
        return cases

    def _depth(self, n, m, k):
        got = exact_depth(weights_task(n, m, k))
        if n == 2:
            want = m
        elif k <= n // 2:
            want = n + k - 1
        else:
            want = 3 * n // 2
        return {"depth": got}, {"depth": want}, got == want

    def _minab(self, n, m):
        total = n * m
        best = min((n - 1) * m, total - -(-n // m))
        return (
            {"min_alg_bound": best},
            {"max_allowed": f"N - N^(1/3) with N = {total}"},
            (total - best) ** 3 >= total,
        )

    def _replay(self, n, m):
        a_bound = (n - 1) * m
        b_bound = n * m - -(-n // m)
        worst_a = worst_b = 0
        correct = True
        for k in range(1, n * m):
            task = weights_task(n, m, k)
            for x in task.domain.members():
                ta = run_match(weights_alg_A(n, m, k), FixedInputAdversary(x), task)
                tb = run_match(weights_alg_B(n, m, k), FixedInputAdversary(x), task)
                correct = correct and ta.correct and tb.correct
                correct = correct and ta.query_count == a_bound
                worst_a = max(worst_a, ta.query_count)
                worst_b = max(worst_b, tb.query_count)
        ok = correct and worst_a == a_bound and worst_b <= b_bound
        observed = {"worst_A": worst_a, "worst_B": worst_b}
        return observed, {"A": a_bound, "max_B": b_bound}, ok


class RubinsteinGap(Experiment):
    name = "rubinstein-gap"
    claim = (
        "the cube variant has sensitivity exactly sqrt(n); the original on "
        "the balanced slice shows block sensitivity >= 4 at an explicit "
        "input while sampled sensitivities stay within 2 sqrt(n) on "
        "0-inputs and sqrt(n) on 1-inputs, so bs >= s^2/16 here"
    )
    # bs >= 4 at the witness fails at n = 4, the only smaller square with
    # an even root; samples are drawn from the C(16, 8) = 12870 members
    params = {"n": (16, 16, 16), "samples": (300, 0, 12870),
              "seed": (20260816, *_SEEDS)}

    def cases(self, params):
        n = params["n"]
        return [
            ("gap", (self._gap, n, params["samples"], params["seed"])),
            ("s-variant", (self._s_variant, n)),
        ]

    def _s_variant(self, n):
        root = math.isqrt(n)
        got, _ = sensitivity(rubinstein_variant(n))
        return {"s": got}, {"s": root}, got == root

    def _gap(self, n, samples, seed):
        root = math.isqrt(n)
        f = rubinstein_slice(n)
        dom = f.domain
        witness = string_to_mask("01" * (root // 2) * root)
        bs_wit, _ = block_sensitivity(f, witness)
        rng = random.Random(seed)
        ranks = sorted(rng.sample(range(dom.size), samples))
        members = member_masks(dom)
        masks = {members[r] for r in ranks} | {witness}
        s0 = s1 = 0
        for x in sorted(masks):
            sx, _ = sensitivity(f, x)
            if f.evaluate(x):
                s1 = max(s1, sx)
            else:
                s0 = max(s0, sx)
        s_max = max(s0, s1)
        ok = (
            bs_wit >= 4
            and s0 <= 2 * root
            and s1 <= root
            and 16 * bs_wit >= s_max * s_max
        )
        observed = {
            "bs_at_witness": bs_wit,
            "s0_max": s0,
            "s1_max": s1,
            "inputs_checked": len(masks),
        }
        expected = {"min_bs": 4, "max_s0": 2 * root, "max_s1": root}
        return observed, expected, ok


class MbcExhaustive(Experiment):
    name = "mbc-exhaustive"
    claim = (
        "depth is at least the smallest balanced certificate size minus one"
    )
    params = {"samples": (200, 0, _MANY), "sample_seed": (1, *_SEEDS)}

    def cases(self, params):
        dom = Domain.slice(4, 2)
        cases = [(f"f={code:02d}", (_code_function, dom, code)) for code in range(64)]
        cases += [
            (f"seed={s:03d}",
             (random_slice_function, 6, 3, _mix(params["sample_seed"], s)))
            for s in range(params["samples"])
        ]
        return cases

    def run_case(self, params, build, *args):
        g = build(*args)
        mbc, _ = balanced_certificate(g, min_mode=True)
        depth = exact_depth(g)
        return {"mbc": mbc, "depth": depth}, {"min_depth": mbc - 1}, depth >= mbc - 1


class RandomDepth(Experiment):
    name = "random-depth"
    claim = (
        "random balanced-slice functions respect the n - 2 depth ceiling; "
        "their observed depth distribution is reported"
    )
    # depth <= n - 2 is false for n <= 2
    params = {"n": (8, 3, 64), "k": (4, 1, 63), "samples": (200, 1, _MANY),
              "seed": (7, *_SEEDS)}

    def cases(self, params):
        seed = params["seed"]
        return [(f"seed={s:03d}", (_mix(seed, s),)) for s in range(params["samples"])]

    def run_case(self, params, seed):
        depth = exact_depth(random_slice_function(params["n"], params["k"], seed))
        limit = params["n"] - 2
        return {"depth": depth}, {"max_depth": limit}, depth <= limit

    def aggregate(self, params, cases):
        depths = sorted(c["observed"]["depth"] for c in cases)
        return {
            "min_depth": depths[0],
            "max_depth": depths[-1],
            "mean_depth": sum(depths) / len(depths),
        }


class RamseyRandom(Experiment):
    name = "ramsey-random"
    claim = (
        "random 16-vertex graphs rarely contain a monochromatic set larger "
        "than 2 log2(n), so their slice functions need close to n queries"
    )
    # a graph function needs n >= 3, and m(G) is computed for n <= 40
    params = {"n": (16, 3, 40), "seeds": (100, 1, _MANY), "max_mono": (8, 0, 40),
              "min_count": (90, 0, _MANY)}

    def cases(self, params):
        if params["min_count"] > params["seeds"]:
            raise DomainError("ramsey-random needs min_count <= seeds")
        return [(f"seed={s:03d}", (s,)) for s in range(params["seeds"])]

    def run_case(self, params, seed):
        m, _ = monochromatic_number(random_graph(params["n"], seed))
        return {"m": m}, None, None

    def aggregate(self, params, cases):
        within = sum(
            1 for c in cases if c["observed"]["m"] <= params["max_mono"]
        )
        return {
            "within": within,
            "max_mono": params["max_mono"],
            "required": params["min_count"],
            "pass": within >= params["min_count"],
        }


class MaxDepthByWeight(Experiment):
    name = "maxdepth-by-weight"
    claim = (
        "the largest depth over functions on slice(n, k) never exceeds "
        "n - 2; exhaustive where the function count is small, sampled "
        "otherwise"
    )
    # depth <= n - 2 is false for n <= 2
    params = {"min_n": (3, 3, 64), "max_n": (6, 3, 64), "samples": (1000, 1, _MANY),
              "seed": (11, *_SEEDS), "exhaustive_limit": (4096, 0, 1 << 20)}

    def cases(self, params):
        if params["min_n"] > params["max_n"]:
            raise DomainError("maxdepth-by-weight needs min_n <= max_n")
        return [
            (f"n={n:02d},k={k:02d}", (n, k))
            for n in range(params["min_n"], params["max_n"] + 1)
            for k in range(1, n)
        ]

    def run_case(self, params, n, k):
        dom = Domain.slice(n, k)
        count = 1 << dom.size
        if count <= params["exhaustive_limit"]:
            mode, codes = "exhaustive", range(count)
        else:
            mode, rng = "sampled", random.Random(_mix(params["seed"], n, k))
            codes = (rng.getrandbits(dom.size) for _ in range(params["samples"]))
        depths = (exact_depth(_code_function(dom, code)) for code in codes)
        worst = max(depths)
        observed = {"max_depth": worst, "mode": mode}
        return observed, {"max_allowed": n - 2}, worst <= n - 2


_REGISTRY = {
    exp.name: exp
    for exp in (
        EqDepth(),
        Weight2Sandwich(),
        JohnsonIndependent(),
        KmlCount(),
        EdStructure(),
        EdConjecture(),
        LiftPreservation(),
        WeightsM2(),
        RubinsteinGap(),
        MbcExhaustive(),
        RandomDepth(),
        RamseyRandom(),
        MaxDepthByWeight(),
    )
}


def experiment_names() -> list[str]:
    return sorted(_REGISTRY)


def get_experiment(name: str) -> Experiment:
    exp = _REGISTRY.get(name)
    if exp is None:
        raise DomainError(
            f"unknown experiment {name!r}; known: {', '.join(experiment_names())}"
        )
    return exp


def _checked(exp: Experiment, field_name: str, value):
    """value in the shape its declared default fixes, tuples made lists.

    One item stands for a list of one: `ks=2` is [2] and `cases=3-2` is
    [[3, 2]].
    """
    default, lo, hi = exp.params[field_name]
    items = list(value) if isinstance(value, (list, tuple)) else [value]
    nested = isinstance(default, list) and isinstance(default[0], list)
    width = len(default[0]) if nested else 1
    if isinstance(default, int):
        shape, rows = "an int", [[value]]
    elif not nested:
        shape, rows = "a non-empty list of ints", [[item] for item in items]
    else:
        shape = f"a non-empty list of {width}-int lists with each int"
        rows = [items] if all(type(v) is int for v in items) else items
    if not rows or not all(
        isinstance(row, (list, tuple))
        and len(row) == width
        and all(type(v) is int and lo <= v <= hi for v in row)
        for row in rows
    ):
        raise DomainError(
            f"experiment {exp.name!r} parameter {field_name!r} takes {shape} "
            f"in {lo}..{hi}"
        )
    if isinstance(default, int):
        return value
    return [list(row) if nested else row[0] for row in rows]


@dataclass(frozen=True)
class ExperimentSpec:
    """A runnable experiment instance: registered name, full parameters, and
    an optional output path for its report."""

    name: str
    params: dict
    out: str | None = None

    @classmethod
    def of(
        cls, name: str, overrides: dict | None = None, out: str | None = None
    ) -> "ExperimentSpec":
        if not isinstance(name, str):
            raise DomainError(f"experiment name must be a string, not {name!r}")
        if not isinstance(overrides, (dict, type(None))):
            raise DomainError(f"experiment params must be an object, not {overrides!r}")
        if not isinstance(out, (str, type(None))):
            raise DomainError(f"experiment out must be a path string, not {out!r}")
        exp = get_experiment(name)
        overrides = overrides or {}
        unknown = sorted(set(overrides) - set(exp.params))
        if unknown:
            raise DomainError(f"experiment {name!r} has no parameter {unknown[0]!r}")
        params = {
            field_name: _checked(exp, field_name, overrides.get(field_name, default))
            for field_name, (default, _, _) in exp.params.items()
        }
        return cls(name=name, params=params, out=out)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperimentSpec":
        if not isinstance(obj, dict) or "name" not in obj:
            raise DomainError("experiment spec needs a 'name' field")
        unknown = sorted(set(obj) - {"name", "params", "out"})
        if unknown:
            raise DomainError(f"experiment spec takes name, params and out, not {unknown}")
        return cls.of(obj["name"], obj.get("params"), obj.get("out"))


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> dict:
    """Run every case of the experiment and assemble its report.

    Cases are reported in key order (a repeated key stays, in list order).
    They run in min(jobs, CPU count, case count) worker processes, or in
    this process when that is 1.
    """
    if jobs < 1:
        raise DomainError(f"--jobs must be at least 1, got {jobs}")
    exp = get_experiment(spec.name)
    listed = sorted(exp.cases(spec.params), key=lambda case: case[0])
    workers = min(jobs, os.cpu_count() or 1, len(listed))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(exp.run_case, spec.params, *args) for _, args in listed
            ]
            results = [future.result() for future in futures]
    else:
        results = [exp.run_case(spec.params, *args) for _, args in listed]
    cases = [
        {"key": key, "observed": observed, "expected": expected, "pass": ok}
        for (key, _), (observed, expected, ok) in zip(listed, results)
    ]
    passes = sum(1 for c in cases if c["pass"] is True)
    failures = sum(1 for c in cases if c["pass"] is False)
    aggregate = exp.aggregate(spec.params, cases)
    if aggregate is not None and "pass" in aggregate:
        if aggregate["pass"]:
            passes += 1
        else:
            failures += 1
    return {
        "experiment": spec.name,
        "claim": exp.claim,
        "params": spec.params,
        "case_count": len(cases),
        "cases": cases,
        "passes": passes,
        "failures": failures,
        "aggregate": aggregate,
    }
