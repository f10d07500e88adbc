"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that a timed and a traced run print, as their last line, exactly the
result keys and exactly the metrics BENCHMARK.json names, each with its
unit; and that a deliberately wrong pinned value on each workload is
counted as a failed check (the harness reports those on stderr as FAIL
lines, as it would in a real run).  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("[ok]      " if ok else "[PROBLEM] ") + what)
    if not ok:
        problems.append(what)


def check_emitted_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", "certify-mix",
               "--seed", "1", "--seconds", "1", "--trace", str(trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT)
        expect(out.returncode == 0, f"trace {trace}: exit code {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        expect(
            sorted(result) == ["attempted", "correct", "failed", "metrics"],
            f"trace {trace}: result keys {sorted(result)}",
        )
        expect(result["correct"] and result["failed"] == 0, f"trace {trace}: all checks pass")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == want, f"trace {trace}: emitted metrics and units match BENCHMARK.json {key}")
        expect(
            all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
            f"trace {trace}: every metric value is a number",
        )


def fail_ratio(name: str, inputs) -> float:
    tally = workloads.Tally()
    _, items = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=run.OUT) as scratch:
        for _, run_item in items(inputs, tally, Path(scratch)):
            run_item()
    return tally.failed / tally.attempted


def check_wrong_pins() -> None:
    inputs = run.set_up("certify-mix", workloads.DEFAULT_SEED, [])
    spec, f, pins = inputs["functions"][0]
    correct = {
        "functions": [(spec, f, pins)],
        "forced": inputs["forced"][1:2],
        "matches": [],
    }
    expect(fail_ratio("certify-mix", correct) == 0, "certify-mix subset passes with true pins")
    label, make, task, want = inputs["forced"][1]
    wrong_forced = {**correct, "forced": [(label, make, task, want + 1)]}
    expect(fail_ratio("certify-mix", wrong_forced) > 0, "certify-mix: wrong forced count fails")
    wrong_value = {**correct, "functions": [(spec, f, {**pins, "C": pins["C"] + 1})]}
    expect(fail_ratio("certify-mix", wrong_value) > 0, "certify-mix: wrong measure value fails")

    g = workloads._build("eq:k=2")
    expect(fail_ratio("depth-frontier", [("eq:k=2", g, None)]) == 0, "depth-frontier: unpinned eq:k=2 passes")
    expect(
        fail_ratio("depth-frontier", [("eq:k=2", g, (5, 0, 0))]) > 0,
        "depth-frontier: wrong node count fails",
    )

    experiments = workloads.sb("cli.experiments")
    one = {"names": ["kml-count"], "specs": [experiments.ExperimentSpec.of("kml-count")]}
    true_digest = {"kml-count": workloads.EXPERIMENT_DIGESTS["kml-count"]}
    expect(
        fail_ratio("experiments-default", {**one, "digests": true_digest}) == 0,
        "experiments-default: kml-count matches its pinned digest",
    )
    expect(
        fail_ratio("experiments-default", {**one, "digests": {"kml-count": "0" * 64}}) > 0,
        "experiments-default: wrong digest fails",
    )


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    check_emitted_metrics()
    check_wrong_pins()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
