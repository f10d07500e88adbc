"""slicebench benchmark: one workload per process, one closed-loop caller.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload depth-frontier --seed 1 --seconds 40 --trace 0

Workloads (see bench/workloads.py and BENCHMARK.json): depth-frontier,
certify-mix, experiments-default.

A set-up re-imports slicebench from src/ and builds the workload's inputs
from the seed.  A round runs each of the workload's items (a function, a
game, an experiment) once after its own set-up and checks every output.

--trace 0 is the timed run.  It repeats rounds until the next item is
predicted to end after --seconds (the first round always completes).
After every item it times a fixed piece of pure-Python work, the probe
(see probe()): once per PROBE_EVERY_S of the item's time, and at least
once, so that the probe samples the machine's speed as often as the items
use it.  The probe calls no slicebench code, so a change to the package
leaves its time alone, but it slows with the machine.  On a shared 2-core
VM other tenants slow both by 1.6x to 1.9x for minutes at a time, through
every round of a run, so that no time in seconds taken from one run's
rounds, median or fastest, is steady from run to run; the ratio of the two
is.  Over ten 40-second runs of each workload the middle half of the
ratios spread by at most 4% of their median.

wall_probe_ratio is a round's wall time (the sum over items of each item's
mean) over the probe's mean wall time in the same run, and cpu_probe_ratio
the same for user+sys CPU time.  The round's times in seconds (the sums of
the items' medians), each item's median, quartiles and count, and the
probe's are printed and recorded.  setup_s is the median over at least
SETUP_REPEATS set-ups, and peak_rss_mb the process's peak RSS.

--trace 1 is the traced run.  It makes untraced rounds for half of
--seconds as a reference, then sets up again with span wrappers installed
around slicebench's public entry points (bench/tracing.py) and makes one
traced round.  It reports per-layer self times and counts;
trace.overhead_s is the traced round's item time minus the sum of the
items' untraced medians, and trace.unattributed_s is the traced set-up and
round time that no span covers (imports and the harness's checks).

Every item checks its outputs.  The last line of stdout is one JSON object
with correct / attempted / failed / metrics; the lines before it repeat the
metrics with quartiles and sample counts, and the fail ratio.  A results
file with a provenance record goes to bench/out/.  Without src/slicebench in
the checkout the script exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracing import COUNT_METRICS, EXPERIMENT_PREFIX, TIME_LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11
PROBE_EVERY_S = 0.25


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{layer}_s": "s" for layer in TIME_LAYERS}
    units.update({name: "count" for name in COUNT_METRICS})
    units["depth.nodes_per_s"] = "1/s"
    units["depth.nodes_per_tt_entry"] = "ratio"
    units["adversary.queries_per_s"] = "1/s"
    for name in sorted(workloads.EXPERIMENT_DIGESTS):
        units[f"{EXPERIMENT_PREFIX}{name}_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_s"] = "s"
    return units


END_TO_END_UNITS = {
    "wall_probe_ratio": "ratio",
    "cpu_probe_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def summary(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def set_up(workload: str, seed: int, setups: list, tracer: Tracer | None = None):
    """Import slicebench afresh from src/ (as the CLI loads it) and build the
    workload's inputs; the seconds taken are appended to setups."""
    t0 = time.perf_counter()
    for mod in [m for m in sys.modules if m == "slicebench" or m.startswith("slicebench.")]:
        del sys.modules[mod]
    importlib.import_module("slicebench.cli")
    if tracer is not None:
        tracer.install()
    build, _ = workloads.WORKLOADS[workload]
    inputs = build(seed)
    setups.append(time.perf_counter() - t0)
    return inputs


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_item(run) -> dict:
    c0, t0 = cpu_seconds(), time.perf_counter()
    facts = run()
    return {"wall_s": time.perf_counter() - t0, "cpu_s": cpu_seconds() - c0, **facts}


# Twelve fixed 900-bit masks for the probe's search, built once.
PROBE_MASKS = [sum(1 << j for j in range(p, 900, 7 + p)) for p in range(12)]


def probe() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed piece of pure-Python work that calls
    no slicebench code.

    It has two parts, because the machine's slow spells slow kinds of work
    unequally.  A loop of small-int dict and set updates follows the
    measure kernels and the adversary games; a depth-5 search over 900-bit
    sets, splitting on the masks with a transposition table, follows
    DepthSolver.  Over six runs each of depth-frontier and certify-mix on a
    shared 2-core VM, the middle half of the ratios to the sum spread by 9%
    and 1% of their medians, to the first part alone by 11% and 2%, and to
    the second alone by 6% and 4%.
    """
    c0, t0 = cpu_seconds(), time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(60_000):
        k = (i * 7919) % 4093
        table[k] = table.get(k, 0) + (i & 255)
        acc += len(table) ^ i
    seen = set()
    for i in range(30_000):
        seen.add((i % 97, i % 89))
    tt: dict[tuple[int, int], list[int]] = {}

    def search(S: int, zeros: int, ones: int, depth: int) -> int:
        ent = tt.get((zeros, ones))
        if ent is None:
            ent = tt[zeros, ones] = [S.bit_count(), depth]
        if depth == 0:
            return ent[0]
        taken = zeros | ones
        moves = sorted(
            ((S & m).bit_count(), p) for p, m in enumerate(PROBE_MASKS) if not taken >> p & 1
        )
        best = 0
        for _, p in moves[:3]:
            bit = 1 << p
            S1 = S & PROBE_MASKS[p]
            best = max(
                best,
                search(S1, zeros, ones | bit, depth - 1),
                search(S ^ S1, zeros | bit, ones, depth - 1),
            )
        return best

    search((1 << 900) - 1, 0, 0, 5)
    return time.perf_counter() - t0, cpu_seconds() - c0


def timed_rounds(args, tally, scratch, budget: float, setups: list) -> list[dict]:
    """Rounds over the workload's items until the next item is predicted to
    end more than `budget` seconds after the start; the first round always
    completes.  The probe runs after each item, once per PROBE_EVERY_S of
    the item's time and at least once.

    Each round gets its own set-up, so that caches the package fills lazily
    are paid in every round, as they are in every fresh `slicebench` process.
    """
    _, items = workloads.WORKLOADS[args.workload]
    rounds: list[dict] = []
    last: dict[str, float] = {}
    start = time.perf_counter()
    while True:
        inputs = set_up(args.workload, args.seed, setups)
        gc.collect()
        done: dict[str, dict] = {}
        rounds.append(done)
        for name, run in items(inputs, tally, scratch):
            if len(rounds) > 1 and time.perf_counter() - start + last[name] > budget:
                return rounds
            done[name] = run_item(run)
            last[name] = done[name]["wall_s"]
            probes = [probe() for _ in range(max(1, round(last[name] / PROBE_EVERY_S)))]
            done[name]["probe_wall_s"] = [wall for wall, _ in probes]
            done[name]["probe_cpu_s"] = [cpu for _, cpu in probes]


def samples(rounds: list[dict], key: str) -> dict[str, list[float]]:
    """Each item's `key` values over the rounds that ran it."""
    out: dict[str, list[float]] = {}
    for done in rounds:
        for name, d in done.items():
            out.setdefault(name, []).append(d[key])
    return out


def round_total(rounds: list[dict], key: str, average=statistics.fmean) -> float:
    """The sum over items of each item's `average` `key` in the rounds."""
    return sum(average(v) for v in samples(rounds, key).values())


def probe_times(rounds: list[dict], key: str) -> list[float]:
    return [t for done in rounds for d in done.values() for t in d[key]]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": 1,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def roadmap_comparison(workload: str, walls: dict[str, float]) -> dict:
    """Measured seconds next to ROADMAP's baseline table, where it has a row."""
    rows = dict(walls)
    if workload == "experiments-default":
        rows[workload] = sum(walls.values())
    return {
        key: {"roadmap_s": ref, "measured_s": rows[key], "measured_over_roadmap": rows[key] / ref}
        for key, ref in workloads.ROADMAP_SECONDS.items()
        if key in rows
    }


def timed_run(args, tally, scratch) -> tuple[dict, dict]:
    setups: list[float] = []
    for _ in range(SETUP_REPEATS - 1):
        set_up(args.workload, args.seed, setups)
    rounds = timed_rounds(args, tally, scratch, args.seconds, setups)
    walls = samples(rounds, "wall_s")
    typical = {name: statistics.median(v) for name, v in walls.items()}
    probe_wall = statistics.fmean(probe_times(rounds, "probe_wall_s"))
    probe_cpu = statistics.fmean(probe_times(rounds, "probe_cpu_s"))
    metrics = {
        "wall_probe_ratio": round_total(rounds, "wall_s") / probe_wall,
        "cpu_probe_ratio": round_total(rounds, "cpu_s") / probe_cpu,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    stats = {f"item {name}": summary(v) for name, v in walls.items()}
    stats["setup_s"] = summary(setups)
    stats["probe_wall_s"] = summary(probe_times(rounds, "probe_wall_s"))
    record = {
        "seconds_per_round": {
            "wall_s": sum(typical.values()),
            "cpu_s": round_total(rounds, "cpu_s", statistics.median),
        },
        "stats": stats,
        "rounds": rounds,
        "roadmap": roadmap_comparison(args.workload, typical),
    }
    return metrics, record


def traced_run(args, tally, scratch) -> tuple[dict, dict]:
    setups: list[float] = []
    reference = timed_rounds(args, tally, scratch, args.seconds / 2, setups)
    untraced = sum(statistics.median(v) for v in samples(reference, "wall_s").values())
    tracer = Tracer()
    inputs = set_up(args.workload, args.seed, setups, tracer)
    _, items = workloads.WORKLOADS[args.workload]
    gc.collect()
    t0 = time.perf_counter()
    traced_round = {name: run_item(run) for name, run in items(inputs, tally, scratch)}
    wall = time.perf_counter() - t0
    self_times = tracer.self_times()
    counts = tracer.counts
    metrics = {}
    for name in per_layer_units():
        if name in COUNT_METRICS:
            metrics[name] = counts[name]
        else:
            metrics[name] = self_times.get(name[: -len("_s")], 0.0)
    depth_s = metrics["depth.solve_s"] + metrics["depth.tree_s"]
    metrics["depth.nodes_per_s"] = counts["depth.nodes"] / depth_s if depth_s else 0.0
    tt = counts["depth.tt_entries"]
    metrics["depth.nodes_per_tt_entry"] = counts["depth.nodes"] / tt if tt else 0.0
    match_s = metrics["adversary.match_s"]
    metrics["adversary.queries_per_s"] = counts["adversary.queries"] / match_s if match_s else 0.0
    metrics["trace.overhead_s"] = sum(d["wall_s"] for d in traced_round.values()) - untraced
    metrics["trace.unattributed_s"] = setups[-1] + wall - tracer.covered()
    spans_path = OUT / f"{args.workload}.seed{args.seed}.spans.json"
    tracer.write(spans_path)
    record = {
        "reference_rounds": reference,
        "traced_setup_s": setups[-1],
        "traced_round": traced_round,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "slicebench" / "__init__.py").is_file():
        print(f"bench/run.py: no slicebench sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    os.environ.pop("SLICEBENCH_CACHE_DIR", None)
    OUT.mkdir(exist_ok=True)
    tally = workloads.Tally()
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        run = traced_run if args.trace else timed_run
        metrics, record = run(args, tally, Path(scratch))
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    result = {
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results_path = OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    results_path.write_text(
        json.dumps(
            {"provenance": provenance(args), "fail_ratio": fail_ratio, **result, **record},
            indent=2,
        )
        + "\n"
    )
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:14.6f} {unit}")
    for name, value in record.get("seconds_per_round", {}).items():
        print(f"{name:36s} {value:14.6f} s (per round, sum of item medians)")
    for name, s in record.get("stats", {}).items():
        print(
            f"{name:36s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}"
        )
    print(f"{'fail_ratio':36s} {fail_ratio:14.6f} ({tally.failed}/{tally.attempted})")
    print(f"results: {results_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
