"""The benchmark's workloads: inputs built from a seed, one timed pass, checks.

Each workload has a ``build(seed)`` that turns the seed into inputs (this is
part of set-up) and an ``items(inputs, tally, scratch)`` that lists the
workload's items (a function, a game, an experiment) as (name, callable)
pairs.  Running an item records every check it makes in ``tally`` and
returns facts about its result for the results file.  slicebench is looked
up at call time, because set-up re-imports it.

The pinned values below were measured on the commit that added the
benchmark.  Values of seeded members are pinned for the default seed only;
at other seeds those members are checked through their witnesses alone.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import shutil
import sys
import tempfile
import time
import traceback
from functools import partial
from pathlib import Path

DEFAULT_SEED = 1


def sb(module: str):
    """The slicebench module now in sys.modules (set-up replaces them)."""
    return importlib.import_module("slicebench." + module)


class Tally:
    """Checks attempted and failed; failures are described on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {what}", file=sys.stderr)

    def error(self, what: str) -> None:
        """Count an operation that raised; the traceback goes to stderr."""
        self.attempted += 1
        self.failed += 1
        print(f"FAIL {what}: raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def _build(spec: str):
    return sb("catalog").parse_construction(spec).build()


# -- depth-frontier ----------------------------------------------------------------

# The ROADMAP baseline set; the seed picks the random:n=12,k=6 member, and
# the default seed gives random:n=12,k=6,seed=1.  random-graph:n=16 stays at
# seed 3: across graph seeds its search size ranges from about 150,000 to
# 230,000 nodes, which would make the seed, not the program, set much of a
# run's time.  The search size of random:n=12,k=6 changes by under 2%.
FRONTIER = (
    "eq:k=3",
    "gs:n=12,k=6",
    "ed:k=4,l=3",
    "random:n=12,k=6,seed={seed}",
    "random-graph:n=16,seed=3",
)

# spec -> (D, DepthSolver.nodes, len(DepthSolver.tt)) after solve + build_tree
FRONTIER_PINS = {
    "eq:k=3": (8, 33_049, 34_143),
    "gs:n=12,k=6": (9, 100_200, 104_472),
    "ed:k=4,l=3": (9, 123_629, 114_570),
    "random:n=12,k=6,seed=1": (9, 109_155, 101_299),
    "random-graph:n=16,seed=3": (11, 205_940, 95_150),
}


def frontier_specs(seed: int) -> list[str]:
    return [t.format(seed=seed) for t in FRONTIER]


def build_frontier(seed: int):
    return [(spec, _build(spec), FRONTIER_PINS.get(spec)) for spec in frontier_specs(seed)]


def _solve_frontier(spec, f, pinned, tally: Tally) -> dict:
    DepthSolver = sb("measures.depth").DepthSolver
    report = sb("measures.report")
    errors = sb("errors")
    try:
        t0 = time.perf_counter()
        solver = DepthSolver(f)
        value = solver.solve()
        t1 = time.perf_counter()
        tree = solver.build_tree()
        t2 = time.perf_counter()
    except Exception:
        tally.error(f"depth-frontier {spec}: solve")
        return {}
    entry = {"value": value, "witness": tree.to_json_obj(), "nodes": solver.nodes}
    try:
        report.verify_entry(f, "D", entry)
        verified = True
    except errors.VerificationError as e:
        verified = False
        print(f"depth-frontier {spec}: {e}", file=sys.stderr)
    got = (value, solver.nodes, len(solver.tt))
    tally.check(
        verified and (pinned is None or got == pinned),
        f"depth-frontier {spec}: (D, nodes, tt_entries) = {got}, "
        f"pinned {pinned}, tree verified: {verified}",
    )
    return {
        "depth": value,
        "nodes": solver.nodes,
        "tt_entries": len(solver.tt),
        "solve_s": t1 - t0,
        "tree_s": t2 - t1,
    }


def frontier_items(inputs, tally: Tally, scratch: Path) -> list:
    return [
        (spec, partial(_solve_frontier, spec, f, pinned, tally)) for spec, f, pinned in inputs
    ]


# -- certify-mix --------------------------------------------------------------------

_SEEDED = None  # value not pinned: it depends on the seed


def _seeded(*names: str) -> dict:
    return dict.fromkeys(names, _SEEDED)


# spec template -> {measure its caps allow: pinned value}
CERTIFY_FUNCTIONS = (
    ("eq:k=2", dict(nonadaptive=6, C=4, s=4, bs=4, bs2=4, BC=8, mBC=2, deg=4, packing=3, m=1)),
    ("kml:r=3", dict(nonadaptive=7, C=4, s=4, bs=4, bs2=4, BC=8, mBC=6, deg=4, packing=4, m=1)),
    ("gs:n=10,k=4", dict(nonadaptive=9, C=4, s=4, bs=4, bs2=4, deg=4, packing=5, m=1)),
    ("gs:n=10,k=5", dict(nonadaptive=9, C=5, s=5, bs=5, bs2=5, BC=10, mBC=4, deg=5, packing=5, m=1)),
    ("paley:q=13", dict(nonadaptive=12, C=2, s=2, bs=2, bs2=2, deg=2, packing=3, m=6)),
    ("ed:k=3,l=2", dict(nonadaptive=4, C=3, UC=3, SC=4, s=3, bs=3, bs2=3, BC=4, mBC=4, deg=2, packing=2, m=4)),
    ("ed:k=4,l=2", dict(nonadaptive=7, C=4, s=4, bs=4, bs2=4, BC=6, mBC=4, deg=4, packing=4, m=2)),
    ("weights:n=4,m=2,k=4", dict(nonadaptive=6, C=4, s=4, bs=4, bs2=4)),
    ("or-first-half:n=10", dict(nonadaptive=5, C=1, UC=1, s=1, bs=1, bs2=1, deg=1, packing=0, m=5)),
    ("rubinstein-variant:n=4", dict(nonadaptive=4, C=2, UC=4, SC=4, s=2, bs=2, bs2=2, deg=4, packing=1, m=4)),
    ("random:n=6,k=3,seed={seed}", _seeded("nonadaptive", "C", "UC", "SC", "s", "bs", "bs2", "BC", "mBC", "deg", "packing", "m")),
    ("random:n=8,k=4,seed={seed}", _seeded("nonadaptive", "C", "s", "bs", "bs2", "BC", "mBC", "deg", "packing", "m")),
    ("random:n=10,k=4,seed={seed}", _seeded("nonadaptive", "C", "s", "bs", "bs2", "deg", "packing", "m")),
    ("random:n=10,k=5,seed={seed}", _seeded("nonadaptive", "C", "s", "bs", "bs2", "BC", "mBC", "deg", "packing", "m")),
    ("random-graph:n=10,seed={seed}", _seeded("nonadaptive", "C", "UC", "s", "bs", "bs2", "deg", "packing", "m")),
)

# (adversary factory name, arguments, task spec, pinned forced_query_count)
FORCED_GAMES = (
    ("eq_adversary", (3,), "eq:k=3", 8),
    ("eq_adversary", (2,), "eq:k=2", 5),
    ("weights_adversary", (4, 2, 2, "m2"), "weights:n=4,m=2,k=2", 5),
    ("weights_adversary", (4, 2, 3, "m2"), "weights:n=4,m=2,k=3", 6),
    ("weights_adversary", (4, 2, 4, "m2"), "weights:n=4,m=2,k=4", 6),
    ("weights_adversary", (5, 2, 3, "m2"), "weights:n=5,m=2,k=3", 7),
    ("weights_adversary", (4, 2, 4, "balanced"), "weights:n=4,m=2,k=4", 5),
    ("weights_adversary", (2, 3, 2, "basic"), "weights:n=2,m=3,k=2", 3),
    ("weights_adversary", (2, 4, 2, "basic"), "weights:n=2,m=4,k=2", 4),
    ("weights_adversary", (3, 3, 3, "basic"), "weights:n=3,m=3,k=3", 5),
)

# (algorithm factory name, arguments or None to pass the task, task spec);
# each plays every member of the task's domain as a FixedInputAdversary.
# weight2_algorithm is left out: it solves exact depth on restrictions, and
# this workload must do no DepthSolver work.
MATCH_GAMES = (
    ("eq_algorithm", (3,), "eq:k=3"),
    ("weights_alg_A", (5, 2, 5), "weights:n=5,m=2,k=5"),
    ("weights_alg_B", (5, 2, 5), "weights:n=5,m=2,k=5"),
    ("weights_m2_algorithm", (6, 3), "weights:n=6,m=2,k=3"),
    ("weight1_algorithm", None, "or-first-half:n=10"),
)


def build_certify(seed: int):
    adversary = sb("adversary")
    tasks: dict = {}

    def task(template: str):
        spec = template.format(seed=seed)
        if spec not in tasks:
            tasks[spec] = _build(spec)
        return spec, tasks[spec]

    functions = [task(t) + (pins,) for t, pins in CERTIFY_FUNCTIONS]
    forced = []
    for factory, args, template, want in FORCED_GAMES:
        spec, f = task(template)
        if factory == "weights_adversary":
            make = partial(adversary.weights_adversary, *args[:3], mode=args[3])
        else:
            make = partial(getattr(adversary, factory), *args)
        forced.append((f"{factory}{args} on {spec}", make, f, want))
    matches = []
    for factory, args, template in MATCH_GAMES:
        spec, f = task(template)
        make = partial(getattr(adversary, factory), *(args if args is not None else (f,)))
        matches.append((f"{factory} on {spec}", make, f))
    return {"functions": functions, "forced": forced, "matches": matches}


def _entry_bytes(entry) -> bytes:
    return json.dumps(entry, sort_keys=True).encode()


def _certify_function(spec, f, pins, scratch: Path, tally: Tally) -> dict:
    """Round-trip f through a function file, compute and verify each pinned
    measure into a fresh cache, then read every entry back as a cache hit."""
    root = Path(tempfile.mkdtemp(dir=scratch))
    try:
        _certify_in(spec, f, pins, root, tally)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {}


def _certify_in(spec, f, pins, root: Path, tally: Tally) -> None:
    fileio = sb("fileio")
    report = sb("measures.report")
    errors = sb("errors")
    cache = sb("cli.cache").ResultCache(root / "cache")
    path = root / "function.json"
    try:
        fileio.write_function(f, path, construction={"spec": spec})
        g = fileio.read_function(path)
    except Exception:
        tally.error(f"certify-mix {spec}: function file round trip")
        return
    tally.check(
        fileio.canonical_function_bytes(g) == fileio.canonical_function_bytes(f),
        f"certify-mix {spec}: function file round trip changed the function",
    )
    ref = {"construction": spec}
    first = {}
    for name, want in pins.items():
        try:
            entry = report.compute_measures(g, [name], ref, cache=cache)["measures"][name]
        except (errors.ResourceCapError, errors.DomainError) as e:
            tally.check(False, f"certify-mix {spec}: pinned measure {name} refused: {e}")
            continue
        except Exception:
            tally.error(f"certify-mix {spec}: compute {name}")
            continue
        first[name] = entry
        try:
            report.verify_entry(g, name, entry)
            problem = None
        except errors.VerificationError as e:
            problem = str(e)
        if problem is None and want is not None and entry["value"] != want:
            problem = f"value {entry['value']} != pinned {want}"
        tally.check(problem is None, f"certify-mix {spec}: {name}: {problem}")
    try:
        second = report.compute_measures(g, list(first), ref, cache=cache)["measures"]
    except Exception:
        tally.error(f"certify-mix {spec}: cached compute")
        return
    for name, entry in first.items():
        tally.check(
            _entry_bytes(second[name]) == _entry_bytes(entry),
            f"certify-mix {spec}: cache hit for {name} is not byte-identical",
        )


def _forced(label, make, f, want, tally: Tally) -> dict:
    try:
        got = sb("adversary").forced_query_count(make(), f)
    except Exception:
        tally.error(f"certify-mix forced {label}")
        return {}
    tally.check(got == want, f"certify-mix forced {label}: {got} != pinned {want}")
    return {"forced": got}


def _matches(label, make, f, tally: Tally) -> dict:
    adversary = sb("adversary")
    for x in f.domain.members():
        try:
            t = adversary.run_match(make(), adversary.FixedInputAdversary(x), f)
        except Exception:
            tally.error(f"certify-mix match {label} at {x:b}")
            continue
        tally.check(
            t.status == "claimed" and t.correct,
            f"certify-mix match {label} at {x:b}: status {t.status}, correct {t.correct}",
        )
    return {}


def certify_items(inputs, tally: Tally, scratch: Path) -> list:
    items = [
        (f"measures {spec}", partial(_certify_function, spec, f, pins, scratch, tally))
        for spec, f, pins in inputs["functions"]
    ]
    items += [
        (f"forced {label}", partial(_forced, label, make, f, want, tally))
        for label, make, f, want in inputs["forced"]
    ]
    items += [
        (f"matches {label}", partial(_matches, label, make, f, tally))
        for label, make, f in inputs["matches"]
    ]
    return items


# -- experiments-default ------------------------------------------------------------

# sha256 of each report as `slicebench experiment NAME` prints it
EXPERIMENT_DIGESTS = {
    "ed-conjecture": "e21d5ff80bb5e702b0697f2efeeb3e5b09cf262a639731ae13e0749f3b535b21",
    "ed-structure": "4362a64afdf4157a729d1adf6540dea969bba29c9c09fd1cdc378ccf18312fed",
    "eq-depth": "808299800c152bbee9c223d19007aeac2f1433c7bd60274c3db3acaebd57e306",
    "johnson-independent": "a487f100f78db71541ffdcb21d118dc919bd9b42af49807927e65c1fc93ff4ec",
    "kml-count": "67d8648ed0253cd402d4dfab95abddb905f8d902a6ea5e60da183cbb20b556bd",
    "lift-preservation": "f6d470c86473acd9b3967cb56ff107955721afdbef248e10f2528a61ae6a4fc3",
    "maxdepth-by-weight": "35886cf8dc8283009f96306e4bf25adaf97a5001ddb2e765dbb564cd83575871",
    "mbc-exhaustive": "26f6b2979461cc986484641382fac49a6ac850eb67a5d27eaeaa33659d8940a1",
    "ramsey-random": "530f1972837d8a1792700bcdd752d561e4511fcb43fd76ce1f65a6a4818b44a1",
    "random-depth": "da0baea734d0dc5efe94e50a8d8559f64a1161c7ee77342f516354e1c6881455",
    "rubinstein-gap": "60073e07123088d7088d74d94be029145ee533e94d3a163c8495e1fbeecdeede",
    "weight2-sandwich": "3a54bca3979fca0436ee9bfa9efc1e900538519917d445a145fbe20c0ef362ab",
    "weights-m2": "e389cb06ba7883d598ac245ccea935ec0e0de7ca35f6a259eba2a39342f1b269",
}


def build_experiments(seed: int):
    """Every registered experiment at its defaults; the seed has no effect,
    because each experiment's parameters carry their own seeds."""
    experiments = sb("cli.experiments")
    return {
        "names": experiments.experiment_names(),
        "digests": dict(EXPERIMENT_DIGESTS),
        "specs": [experiments.ExperimentSpec.of(n) for n in experiments.experiment_names()],
    }


def _run_experiment(spec, want: str | None, tally: Tally) -> dict:
    try:
        rep = sb("cli.experiments").run_experiment(spec)
    except Exception:
        tally.error(f"experiments-default {spec.name}")
        return {}
    text = json.dumps(rep, indent=2, sort_keys=True) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    tally.check(
        rep["failures"] == 0 and digest == want,
        f"experiments-default {spec.name}: {rep['failures']} failures, "
        f"report sha256 {digest}, pinned {want}",
    )
    return {"cases": rep["case_count"]}


def experiment_items(inputs, tally: Tally, scratch: Path) -> list:
    digests = inputs["digests"]
    tally.check(
        inputs["names"] == sorted(digests),
        f"experiments-default: registered {inputs['names']} != pinned {sorted(digests)}",
    )
    return [
        (spec.name, partial(_run_experiment, spec, digests.get(spec.name), tally))
        for spec in inputs["specs"]
    ]


WORKLOADS = {
    "depth-frontier": (build_frontier, frontier_items),
    "certify-mix": (build_certify, certify_items),
    "experiments-default": (build_experiments, experiment_items),
}

# ROADMAP's baseline table (Python 3.11.7, 2 cores), for the results record.
ROADMAP_SECONDS = {
    "eq:k=3": 1.3,
    "gs:n=12,k=6": 2.8,
    "random:n=12,k=6,seed=1": 2.9,
    "ed:k=4,l=3": 3.6,
    "random-graph:n=16,seed=3": 5.0,
    "weights-m2": 4.4,
    "lift-preservation": 2.8,
    "random-depth": 2.4,
    "maxdepth-by-weight": 2.4,
    "experiments-default": 18.2,
}
