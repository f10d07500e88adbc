"""End-to-end command-line behavior, exit codes included."""

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import Future
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicebench
import slicebench.cli.experiments as experiments
import slicebench.cli.main as cli_main
import slicebench.measures.report as measures_report
from slicebench.catalog import graham_sloane
from slicebench.cli.main import main
from slicebench.errors import (
    AdversaryExhaustedError,
    DomainError,
    MembershipError,
    SliceBenchError,
)
from slicebench.fileio import read_function
from slicebench.slicecore import Domain
from test_fileio import write_with_reversed_alphabet


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_emits_function_file(capsys):
    code, out, err = run(capsys, "construct", "eq:k=1")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert (obj["kind"], obj["n"], obj["k"]) == ("slice", 4, 2)
    assert obj["construction"]["name"] == "eq"


def test_construct_out_writes_file(capsys, tmp_path):
    target = tmp_path / "f.json"
    code, out, _ = run(capsys, "construct", "eq:k=1", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["construction"]["params"] == {"k": 1}


@pytest.mark.parametrize(
    "spec, sha256",
    [
        # a Boolean balanced slice, a cube, a non-Boolean alphabet, a graph
        ("kml:r=3", "90671bdf1db295f744991e7e5c478ed58a2793bb583b3db871df56ebd5615c2d"),
        (
            "rubinstein-variant:n=4",
            "2dd0eb6c3cc491024ab0e15a18fd3ccdef2249b3fcd9a15ee7ab75f2cc009033",
        ),
        (
            "weights:n=3,m=2,k=3",
            "a1e3ffa574c0ebd62049c0d97686d41b24811489e9cdd355aadfa30e318843ce",
        ),
        (
            "random-graph:n=7,seed=2",
            "2fd5dc81570f8328f4cc3f97627a8cfdf3fa80c9481307621c986c029b641859",
        ),
    ],
)
def test_construct_output_is_pinned(capsys, spec, sha256):
    code, out, _ = run(capsys, "construct", spec)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_a_reversed_boolean_alphabet_file_measures_and_matches_as_written(
    capsys, tmp_path
):
    plain, reversed_ = tmp_path / "plain.json", tmp_path / "reversed.json"
    run(capsys, "construct", "kml:r=3", "--out", str(plain))
    write_with_reversed_alphabet(read_function(plain), reversed_)
    seen = []
    for path in (plain, reversed_):
        code, out, _ = run(
            capsys, "measure", "--function", str(path),
            "--measures", "packing,m", "--no-cache",
        )
        assert code == 0
        report = json.loads(out)
        values = {k: (e["value"], e["witness"]) for k, e in report["measures"].items()}
        code, transcript, _ = run(
            capsys, "match", "--function", str(path),
            "--algorithm", "optimal", "--adversary", "fixed:x=11110000",
        )
        assert code == 0
        seen.append((report["function"], values, transcript))
    assert seen[1] == seen[0]
    assert seen[1][1]["packing"][1]["ones"] == 14


def test_construct_unknown_name_is_input_error(capsys):
    code, _, err = run(capsys, "construct", "nope:k=1")
    assert code == 4
    assert json.loads(err)["error"] == "input"


def test_usage_error_exits_with_input_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 4
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--bogus-flag"])
    assert exc.value.code == 4


def test_match_has_no_seed_option(capsys):
    # a randomized adversary takes its seed in its spec, weights-basic:...,seed=5
    with pytest.raises(SystemExit) as exc:
        main(["match", "--construct", "eq:k=1", "--algorithm", "eq:k=1",
              "--adversary", "eq:k=1", "--seed", "3"])
    assert exc.value.code == 4
    assert "--seed" in capsys.readouterr().err


def test_measure_json_report(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("SLICEBENCH_CACHE_DIR", str(tmp_path / "cache"))
    code, out, _ = run(
        capsys, "measure", "--construct", "eq:k=1", "--measures", "D,C,s"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["function"] == {"construction": "eq:k=1"}
    assert {k: obj["measures"][k]["value"] for k in ("D", "C", "s")} == {
        "D": 2,
        "C": 2,
        "s": 2,
    }


def test_measure_csv_layout(capsys):
    code, out, _ = run(
        capsys,
        "measure", "--construct", "eq:k=1", "--measures", "D", "--no-cache",
        "--csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "measure,value,nodes,millis"
    assert lines[1].startswith("D,2,")


def test_measure_cache_reruns_byte_identical(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("SLICEBENCH_CACHE_DIR", str(tmp_path / "cache"))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(
            capsys,
            "measure", "--construct", "random:n=6,k=3,seed=5",
            "--measures", "D,C,bs,deg", "--out", str(target),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert any((tmp_path / "cache").iterdir())


def test_measure_unknown_measure_is_input_error(capsys):
    code, _, err = run(
        capsys, "measure", "--construct", "eq:k=1", "--measures", "D,QQ"
    )
    assert code == 4
    assert "QQ" in json.loads(err)["message"]


def test_measure_needs_a_function_source(capsys):
    code, _, err = run(capsys, "measure", "--measures", "D")
    assert code == 4
    assert "construct" in json.loads(err)["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "--no-cache"),
        ("match", "--algorithm", "optimal", "--adversary", "fixed:x=0110"),
        ("verify", "--report", "{tmp}/r.json"),
    ],
    ids=["measure", "match", "verify"],
)
def test_function_and_construct_together_are_refused_before_any_work(
    capsys, monkeypatch, tmp_path, argv
):
    # neither source is read: the refusal comes before the file or the spec
    def no_work(*args):
        raise AssertionError("loaded a function")

    monkeypatch.setattr(cli_main, "read_function", no_work)
    monkeypatch.setattr(cli_main, "parse_construction", no_work)
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run(
        capsys, *argv, "--function", str(tmp_path / "eq1.json"), "--construct", "kml:r=3"
    )
    assert (code, out) == (4, "")
    payload = json.loads(err)
    assert payload["error"] == "input"
    assert "exactly one of --function" in payload["message"]


def test_measure_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "measure", "--function", str(tmp_path / "absent.json")
    )
    assert code == 4
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "eq:k=1", "--out", "{plain}/x.json"),
        ("measure", "--function", "{plain}/x.json"),
        ("verify", "--construct", "eq:k=1", "--report", "{plain}/r.json"),
        ("experiment", "--spec", "{plain}/s.json"),
        ("experiment", "eq-depth", "--set", "ks=1", "--out", "{plain}/r.json"),
        ("measure", "--function", "{tmp}/" + "a" * 300),
    ],
    ids=[
        "construct-out", "measure-function", "verify-report", "experiment-spec",
        "experiment-out", "long-file-name",
    ],
)
def test_a_path_that_cannot_be_read_or_written_is_an_input_error(
    capsys, tmp_path, argv
):
    plain = tmp_path / "plain"
    plain.write_text("")
    argv = [a.format(plain=plain, tmp=tmp_path) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 4
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "eq:k=1", "--out", "{out}"),
        ("measure", "--construct", "eq:k=1", "--no-cache", "--out", "{out}"),
        ("match", "--construct", "eq:k=1", "--algorithm", "optimal",
         "--adversary", "eq:k=1", "--out", "{out}"),
        ("experiment", "eq-depth", "--out", "{out}"),
        ("experiment", "--spec", "{spec}"),
        ("verify", "--construct", "eq:k=1", "--report", "{spec}", "--out", "{out}"),
    ],
    ids=["construct", "measure", "match", "experiment", "experiment-spec-out", "verify"],
)
@pytest.mark.parametrize("parent", ["plain", "missing"])
def test_an_out_path_with_no_directory_fails_before_the_work(
    capsys, monkeypatch, tmp_path, argv, parent
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    # loading the function and the work itself
    for name in (
        "parse_construction", "read_function", "compute_measures", "run_match",
        "run_experiment", "verify_report",
    ):
        monkeypatch.setattr(cli_main, name, must_not_run)
    (tmp_path / "plain").write_text("")
    out = tmp_path / parent / "r.json"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "eq-depth", "out": str(out)}))
    argv = [a.format(out=out, spec=spec) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 4
    assert json.loads(err)["error"] == "input"


def test_an_os_error_naming_no_file_is_not_an_input_error(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise OSError("no file involved")

    monkeypatch.setattr(cli_main, "compute_measures", fail)
    with pytest.raises(OSError, match="no file involved"):
        main(["measure", "--construct", "eq:k=1", "--no-cache"])


def test_measure_resource_cap_exit_code(capsys):
    code, _, err = run(
        capsys,
        "measure", "--construct", "or-first-half:n=21",
        "--measures", "nonadaptive", "--no-cache",
    )
    assert code == 3
    assert json.loads(err)["error"] == "resource-cap"


# Each domain condition and cap of each MEASURES entry: exit 4 outside a
# domain, 3 past a cap, and 0 at an n cap's bound.
@pytest.mark.parametrize(
    "spec, name, code",
    [
        ("or-first-half:n=20", "nonadaptive", 0),
        ("or-first-half:n=21", "nonadaptive", 3),
        ("rubinstein-variant:n=16", "nonadaptive", 3),
        ("weights:n=2,m=2,k=2", "UC", 4),
        ("or-first-half:n=12", "UC", 0),
        ("or-first-half:n=13", "UC", 3),
        ("eq:k=2", "UC", 3),
        ("weights:n=2,m=2,k=2", "SC", 4),
        ("or-first-half:n=6", "SC", 0),
        ("or-first-half:n=7", "SC", 3),
        ("weights:n=2,m=2,k=2", "BC", 4),
        ("or-first-half:n=6", "BC", 4),
        ("weights:n=2,m=2,k=2", "mBC", 4),
        ("rubinstein-variant:n=4", "mBC", 4),
        ("weights:n=2,m=2,k=2", "deg", 4),
        ("rubinstein-variant:n=16", "deg", 3),
        ("weights:n=2,m=2,k=2", "m", 4),
        ("or-first-half:n=14", "m", 0),
        ("or-first-half:n=15", "m", 3),
        ("weights:n=2,m=2,k=2", "packing", 4),
        ("or-first-half:n=15", "packing", 3),
    ],
)
def test_measure_admits_each_domain_and_cap(capsys, spec, name, code):
    got, _, err = run(capsys, "measure", "--construct", spec, "--measures", name, "--no-cache")
    assert got == code
    if code:
        assert json.loads(err)["error"] == ("resource-cap" if code == 3 else "input")


def test_measure_refuses_past_a_cap_before_any_compute(capsys, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("D was computed before SC's cap was checked")

    monkeypatch.setattr(measures_report, "DepthSolver", must_not_run)
    code, _, err = run(
        capsys, "measure", "--construct", "eq:k=4", "--measures", "D,SC", "--no-cache"
    )
    assert code == 3
    assert json.loads(err)["message"] == "SC capped at n <= 6"


def _own_cells(n, k=None):
    """Each member of slice(n, k), or each point of the n-cube when k is
    None, as its own cell: a full assignment of the n positions."""
    return [
        {
            "zeros": [p for p in range(n) if not x >> p & 1],
            "ones": [p for p in range(n) if x >> p & 1],
        }
        for x in range(1 << n)
        if k is None or x.bit_count() == k
    ]


# Witnesses that are valid but for a function outside the measure's domain
# (exit 2) or past a cap (exit 3): every member (UC) or every point of the
# cube (SC) as its own cell, and nonadaptive reading every position.  What
# measure refuses to compute, verify refuses to check.
@pytest.mark.parametrize(
    "spec, name, value, witness, code",
    [
        ("weights:n=2,m=2,k=2", "UC", 4, {"certificates": _own_cells(4, 2)}, 2),
        ("weights:n=2,m=2,k=2", "SC", 4, {"subcubes": _own_cells(4)}, 2),
        ("or-first-half:n=13", "UC", 13, {"certificates": _own_cells(13, 1)}, 3),
        ("eq:k=2", "UC", 8, {"certificates": _own_cells(8, 4)}, 3),
        ("or-first-half:n=7", "SC", 7, {"subcubes": _own_cells(7)}, 3),
        ("or-first-half:n=21", "nonadaptive", 21, {"positions": list(range(21))}, 3),
        ("rubinstein-variant:n=16", "nonadaptive", 16, {"positions": list(range(16))}, 3),
    ],
)
def test_verify_refuses_what_measure_refuses(
    capsys, tmp_path, spec, name, value, witness, code
):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"measures": {name: {"value": value, "witness": witness}}}))
    got, _, err = run(capsys, "verify", "--construct", spec, "--report", str(path))
    assert got == code
    obj = json.loads(err)
    assert obj["error"] == ("resource-cap" if code == 3 else "verification")
    if code == 2:
        assert obj["message"] == f"{name}: {name} needs a Boolean function"


# rubinstein-variant:n=4 is a cube function of degree 4, and its monomials
# [1] and [0, 1, 3] have coefficient 0; eq:k=1 is on a slice.
@pytest.mark.parametrize(
    "spec, monomial, value, message",
    [
        ("rubinstein-variant:n=4", "garbage", 4, "positions 'garbage' are not a list"),
        ("rubinstein-variant:n=4", [0, 1, 2], 4, "monomial size 3 != stated value 4"),
        ("rubinstein-variant:n=4", [0, 1, 3], 3, "monomial has coefficient 0"),
        ("rubinstein-variant:n=4", [1], 1, "monomial has coefficient 0"),
        ("rubinstein-variant:n=4", [0, 1, 2], 3, "recomputed value 4 != stated value 3"),
        ("eq:k=1", [0, 1], 2, "a witness off the cube must be None"),
    ],
)
def test_verify_checks_the_degree_monomial(
    capsys, tmp_path, spec, monomial, value, message
):
    def tamper(entries):
        entries["deg"].update(value=value, witness={"monomial": monomial})

    code, err = _verify_tampered(capsys, tmp_path, "deg", tamper, spec=spec)
    assert code == 2
    assert "deg: " + message in json.loads(err)["message"]


def test_measure_runs_without_an_unusable_cache(capsys, monkeypatch, tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("SLICEBENCH_CACHE_DIR", str(blocker))
    code, out, err = run(
        capsys, "measure", "--construct", "eq:k=1", "--measures", "C,D"
    )
    assert code == 0
    measures = json.loads(out)["measures"]
    assert {k: measures[k]["value"] for k in ("C", "D")} == {"C": 2, "D": 2}
    warnings = [json.loads(line) for line in err.splitlines()]
    assert len(warnings) == 1 and warnings[0]["warning"] == "cache"


def test_cli_module_runs_with_dash_m_without_warnings():
    src = str(Path(slicebench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "slicebench.cli.main", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "usage:" in proc.stdout
    assert proc.stderr == ""


@pytest.mark.parametrize("error", [MembershipError, AdversaryExhaustedError])
def test_every_package_error_maps_to_the_input_code(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("raised inside the measure step")

    monkeypatch.setattr(cli_main, "compute_measures", fail)
    code, _, err = run(
        capsys, "measure", "--construct", "eq:k=1", "--measures", "C", "--no-cache"
    )
    assert code == 4
    assert json.loads(err) == {
        "error": "input",
        "message": "raised inside the measure step",
    }


def test_match_eq_players_transcript(capsys):
    code, out, _ = run(
        capsys,
        "match", "--construct", "eq:k=1",
        "--algorithm", "eq:k=1", "--adversary", "eq:k=1",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [line["query"] for line in lines[:-1]] == [1, 2]
    verdict = lines[-1]["verdict"]
    assert verdict["status"] == "claimed"
    assert verdict["correct"] is True
    assert verdict["query_count"] == 2
    assert "queries" not in verdict


@pytest.mark.parametrize("budget", [3, 0])
def test_match_budget_status(capsys, budget):
    code, out, _ = run(
        capsys,
        "match", "--construct", "eq:k=2",
        "--algorithm", "eq:k=2", "--adversary", "eq:k=2", "--budget", str(budget),
    )
    assert code == 0
    verdict = json.loads(out.splitlines()[-1])["verdict"]
    assert verdict["status"] == "budget" and verdict["query_count"] == budget


def test_match_fixed_adversary_and_optimal_player(capsys):
    code, out, _ = run(
        capsys,
        "match", "--construct", "eq:k=1",
        "--algorithm", "optimal", "--adversary", "fixed:x=0110",
    )
    assert code == 0
    verdict = json.loads(out.splitlines()[-1])["verdict"]
    assert verdict["correct"] is True and verdict["query_count"] <= 2


def test_match_rejects_member_outside_domain(capsys):
    code, _, err = run(
        capsys,
        "match", "--construct", "eq:k=1",
        "--algorithm", "optimal", "--adversary", "fixed:x=1110",
    )
    assert code == 4
    assert json.loads(err)["error"] == "input"


def test_match_unknown_players_are_input_errors(capsys):
    for flag, value in [("--algorithm", "nope"), ("--adversary", "nope")]:
        other = "--adversary" if flag == "--algorithm" else "--algorithm"
        code, _, err = run(
            capsys,
            "match", "--construct", "eq:k=1", flag, value, other, "eq:k=1",
        )
        assert code == 4
        assert "nope" in json.loads(err)["message"]


def test_match_algorithm_param_validation(capsys):
    code, _, err = run(
        capsys,
        "match", "--construct", "eq:k=1",
        "--algorithm", "eq:k=1,z=2", "--adversary", "eq:k=1",
    )
    assert code == 4
    assert "unknown parameters" in json.loads(err)["message"]


def test_experiment_report_and_rerun_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(
            capsys,
            "experiment", "kml-count", "--set", "rs=3", "--out", str(target),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["failures"] == 0
    assert report["cases"][0]["observed"]["enumerated"] == 14


def test_experiment_spec_file_rerun_matches(capsys, tmp_path):
    direct = tmp_path / "direct.json"
    run(capsys, "experiment", "kml-count", "--set", "rs=3", "--out", str(direct))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "kml-count", "params": {"rs": [3]}}))
    replay = tmp_path / "replay.json"
    code, _, _ = run(
        capsys, "experiment", "--spec", str(spec), "--out", str(replay)
    )
    assert code == 0
    assert replay.read_bytes() == direct.read_bytes()


_WEIGHTS_M2_ALL_KINDS = (
    "weights-m2", "--set", "depth_cases=4-2-2", "--set", "two_block_max_m=3",
    "--set", "replay_max_nm=4", "--set", "minab_max_nm=4",
)
_LIFT_BOTH_KINDS = (
    "lift-preservation", "--set", "exhaustive_n=1", "--set", "sample_n=2",
    "--set", "samples=2",
)


@pytest.mark.parametrize(
    "argv",
    [
        ("eq-depth", "--set", "ks=1-2"),
        _WEIGHTS_M2_ALL_KINDS,
        _LIFT_BOTH_KINDS,
        ("mbc-exhaustive", "--set", "samples=3"),
    ],
    ids=lambda argv: argv[0],
)
def test_experiment_jobs_do_not_change_the_report(capsys, monkeypatch, tmp_path, argv):
    # two CPUs, so that --jobs 2 starts a real pool of two workers
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "experiment", *argv, "--out", str(a))
    code, _, _ = run(capsys, "experiment", *argv, "--jobs", "2", "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


class _InlinePool:
    """Stands in for ProcessPoolExecutor and starts no process: it records
    the pool size it is given and runs each job as it is submitted."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


_FIVE_CASES = ("--set", "n=6", "--set", "k=3", "--set", "samples=5")


@pytest.mark.parametrize(
    "jobs, cpus, pool",
    [("3", 8, 3), ("5000", 4, 4), ("5000", 64, 5), ("5000", None, None), ("2", 1, None)],
)
def test_experiment_pool_is_bounded_by_cpus_and_cases(
    capsys, monkeypatch, jobs, cpus, pool
):
    _, serial, _ = run(capsys, "experiment", "random-depth", *_FIVE_CASES)
    sizes = []
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", partial(_InlinePool, sizes))
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    code, out, _ = run(
        capsys, "experiment", "random-depth", *_FIVE_CASES, "--jobs", jobs
    )
    assert (code, out) == (0, serial)
    assert sizes == ([] if pool is None else [pool])


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_experiment_jobs_below_one_is_input_error(capsys, monkeypatch, jobs):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", None)
    code, out, err = run(capsys, "experiment", "eq-depth", "--jobs", jobs)
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == "input"


def test_experiment_csv_layout(capsys):
    code, out, _ = run(
        capsys, "experiment", "kml-count", "--set", "rs=3", "--csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("key,pass,")
    assert lines[1].startswith("r=03,true,")


def test_experiment_failure_exits_with_counterexample(capsys, tmp_path):
    report = tmp_path / "r.json"
    code, _, err = run(
        capsys,
        "experiment", "ramsey-random", "--set", "seeds=5", "--set", "max_mono=2",
        "--set", "min_count=5", "--out", str(report),
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "assertion"
    assert payload["counterexample"]["aggregate"]["pass"] is False
    assert json.loads(report.read_text())["failures"] == 1


def test_a_passing_aggregate_counts_as_one_pass(capsys):
    # ramsey-random's cases carry no verdict of their own; its aggregate does
    code, out, err = run(
        capsys, "experiment", "ramsey-random", "--set", "seeds=3", "--set", "min_count=0"
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["passes"], report["failures"]) == (1, 0)
    assert report["aggregate"]["pass"] is True


def test_experiment_override_validation(capsys):
    code, _, err = run(capsys, "experiment", "kml-count", "--set", "nope=3")
    assert code == 4
    assert "nope" in json.loads(err)["message"]
    code, _, _ = run(capsys, "experiment", "kml-count", "--set", "rs=x")
    assert code == 4
    code, _, _ = run(capsys, "experiment", "unknown-name")
    assert code == 4


@pytest.mark.parametrize("extra", ["repeat", "outsider"])
def test_johnson_independent_fails_classes_that_are_not_a_partition(monkeypatch, extra):
    def broken(n, k):
        classes, best, f = graham_sloane(n, k)
        lost = classes[0].pop()
        # keep the count equal: one member twice, or a string off the slice
        classes[1].append(classes[1][0] if extra == "repeat" else lost | 1 << n)
        return classes, best, f

    monkeypatch.setattr(experiments, "graham_sloane", broken)
    _, _, ok = experiments.JohnsonIndependent().run_case({}, 6, 2)
    assert ok is False
    monkeypatch.undo()
    _, _, ok = experiments.JohnsonIndependent().run_case({}, 6, 2)
    assert ok is True


def test_johnson_independent_refuses_a_class_holding_a_swap():
    dom = Domain.slice(7, 3)
    classes, _, _ = graham_sloane(7, 3)
    class_of = {x: j for j, members in enumerate(classes) for x in members}
    assert experiments._independent(class_of, dom)
    # position sums 0 and 1 (mod 7) merged: moving a 1 up by one joins them
    merged = {x: max(j, 1) for x, j in class_of.items()}
    assert not experiments._independent(merged, dom)


def test_experiment_spec_flag_is_exclusive(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "kml-count", "params": {"rs": [3]}}))
    code, _, err = run(
        capsys, "experiment", "kml-count", "--spec", str(spec)
    )
    assert code == 4
    assert "--spec" in json.loads(err)["message"]


def test_experiment_spec_file_bad_json(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("not json\n")
    code, _, err = run(capsys, "experiment", "--spec", str(spec))
    assert code == 4
    payload = json.loads(err)
    assert payload["error"] == "format" and payload["line"] == 1


def test_verify_round_trip_and_tamper_detection(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "measure", "--construct", "eq:k=1", "--measures", "D,C,s",
        "--no-cache", "--out", str(report),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--construct", "eq:k=1", "--report", str(report)
    )
    assert code == 0
    assert json.loads(out)["verified"] == ["C", "D", "s"]

    obj = json.loads(report.read_text())
    obj["measures"]["D"]["value"] = 3
    report.write_text(json.dumps(obj))
    code, _, err = run(
        capsys, "verify", "--construct", "eq:k=1", "--report", str(report)
    )
    assert code == 2
    assert json.loads(err)["error"] == "verification"


def test_verify_report_against_wrong_function(capsys, tmp_path):
    report = tmp_path / "report.json"
    run(
        capsys,
        "measure", "--construct", "eq:k=1", "--measures", "D", "--no-cache",
        "--out", str(report),
    )
    code, _, err = run(
        capsys, "verify", "--construct", "random:n=4,k=2,seed=0",
        "--report", str(report),
    )
    assert code == 2
    assert json.loads(err)["error"] == "verification"


def test_verify_empty_report_is_input_error(capsys, tmp_path):
    report = tmp_path / "report.json"
    report.write_text("{}")
    code, _, err = run(
        capsys, "verify", "--construct", "eq:k=1", "--report", str(report)
    )
    assert code == 4
    assert json.loads(err)["error"] == "format"


def _verify_tampered(capsys, tmp_path, measures, tamper, spec="eq:k=1"):
    """Exit code and stderr of verify on a report of measures of spec
    after tamper(report["measures"])."""
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "measure", "--construct", spec, "--measures", measures,
        "--no-cache", "--out", str(report),
    )
    assert code == 0
    obj = json.loads(report.read_text())
    tamper(obj["measures"])
    report.write_text(json.dumps(obj))
    code, _, err = run(
        capsys, "verify", "--construct", spec, "--report", str(report)
    )
    if code:
        expected = "input" if code == 4 else "verification"
        assert json.loads(err)["error"] == expected
    return code, err


def _add_position_9_to_c(entries):
    entries["C"]["witness"]["zeros"].append(9)
    entries["C"]["value"] += 1


def _add_position_9_to_uc(entries):
    for cert in entries["UC"]["witness"]["certificates"]:
        cert["zeros"].append(9)
    entries["UC"]["value"] += 1


def _read_position_9_nonadaptively(entries):
    entries["nonadaptive"]["witness"]["positions"] = [0, 1, 2, 3, 9]
    entries["nonadaptive"]["value"] = 5


def _query_position_9_at_the_root(entries):
    tree = entries["D"]["witness"]
    entries["D"]["witness"] = {"query": 9, "0": tree, "1": {"leaf": 0}}
    entries["D"]["value"] += 1


def _make_value(name, value):
    def tamper(entries):
        entries[name]["value"] = value

    return tamper


@pytest.mark.parametrize(
    "measures, tamper",
    [
        ("C", _add_position_9_to_c),
        ("UC", _add_position_9_to_uc),
        ("nonadaptive", _read_position_9_nonadaptively),
        ("D", _query_position_9_at_the_root),
        ("C", _make_value("C", 2.7)),
        ("D", _make_value("D", "2")),
    ],
    ids=[
        "C-position-9", "UC-position-9", "nonadaptive-position-9",
        "D-query-9", "C-float-value", "D-string-value",
    ],
)
def test_verify_refuses_foreign_positions_and_non_int_values(
    capsys, tmp_path, measures, tamper
):
    code, _ = _verify_tampered(capsys, tmp_path, measures, tamper)
    assert code == 2


def _set_field(name, path, value, stated=None):
    """A tamper that sets the witness field at path (keys and indices) of
    name's eq:k=1 entry to value and, when stated is given, the entry's
    value to stated."""

    def tamper(entries):
        obj = entries[name]["witness"]
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
        if stated is not None:
            entries[name]["value"] = stated

    return tamper


# eq:k=1 witnesses: D queries 0 then 2, C is ones [0, 1] at 1100, UC's
# first certificate is zeros [1, 3], s swaps [[0, 3], [1, 2]], bs blocks
# [[1, 2], [0, 3]], and nonadaptive reads [0, 2].  Each field below is
# replaced by something that is not a position, or not a list of them.
@pytest.mark.parametrize(
    "measures, path, value",
    [
        ("D", ("query",), 0.9),
        ("D", ("0", "0", "leaf"), "1"),
        ("C", ("ones", 1), True),
        ("UC", ("certificates", 0, "zeros", 0), True),
        ("s", ("swaps", 1, 0), True),
        ("bs", ("blocks", 0, 0), True),
        ("s", ("swaps", 0), [3, 0]),
        ("nonadaptive", ("positions",), "02"),
    ],
    ids=[
        "D-query-0.9", "D-string-leaf", "C-true-for-1", "UC-true-for-1",
        "s-true-for-1", "bs-true-for-1", "s-swap-0-position-first",
        "nonadaptive-positions-not-a-list",
    ],
)
def test_verify_refuses_witness_fields_that_are_not_positions(
    capsys, tmp_path, measures, path, value
):
    tamper = _set_field(measures, path, value)
    code, _ = _verify_tampered(capsys, tmp_path, measures, tamper)
    assert code == 2


def _drop_c_input(entries):
    del entries["C"]["witness"]["input"]


def _repeat_first_uc_certificate(entries):
    certificates = entries["UC"]["witness"]["certificates"]
    certificates.append(certificates[0])


def _drop_last_uc_certificate(entries):
    entries["UC"]["witness"]["certificates"].pop()


def _rename_c_to_an_unknown_measure(entries):
    entries["nope"] = entries.pop("C")


# One case per rejection branch of the witness checks, on the eq:k=1
# witnesses above plus BC ones [0, 2] and zeros [1, 3] at 1010, mBC ones
# [0] and zeros [2] at 1100, and bs2 blocks [[1, 2], [0, 3]].  Swapping
# positions 0 and 2 of 1100 keeps its label, so [0, 2] is not sensitive.
@pytest.mark.parametrize(
    "measures, tamper, message",
    [
        ("C", _drop_c_input, "C: witness lacks input"),
        ("C", _set_field("C", ("ones",), [0, 0]), "C: position 0 is named twice"),
        (
            "BC",
            _set_field("BC", ("zeros",), [1], stated=3),
            "BC: assignment is not balanced",
        ),
        (
            "mBC",
            _set_field("mBC", ("input",), "0011"),
            "mBC: assignment conflicts with its input",
        ),
        (
            "C",
            _set_field("C", ("input",), "11"),
            "C: witness invalid: DomainError(\"bit string '11' has 2 characters",
        ),
        (
            "C",
            _set_field("C", ("input",), "110000"),
            "C: witness invalid: DomainError(\"bit string '110000' has 6 characters",
        ),
        (
            "C",
            _set_field("C", ("ones",), [0], stated=1),
            "C: assignment is not label-constant",
        ),
        (
            "UC",
            _set_field("UC", ("certificates", 0), 5),
            "UC: assignment is not an object",
        ),
        (
            "UC",
            _set_field("UC", ("certificates", 0), {"ones": [0, 1, 2]}),
            "UC: certificate consistent with no member",
        ),
        (
            "UC",
            _set_field("UC", ("certificates", 0), {}),
            "UC: certificate is not label-constant",
        ),
        ("UC", _repeat_first_uc_certificate, "UC: certificates overlap"),
        ("UC", _drop_last_uc_certificate, "UC: certificates do not cover the domain"),
        ("bs", _set_field("bs", ("blocks",), 5), "bs: blocks are not a list"),
        (
            "bs2",
            _set_field("bs2", ("blocks", 0), [1, 2, 3]),
            "bs2: block [1, 2, 3] is larger than 2",
        ),
        ("bs", _set_field("bs", ("blocks", 1), [1, 2]), "bs: blocks are not disjoint"),
        (
            "bs",
            _set_field("bs", ("blocks", 0), [0, 2]),
            "bs: block [0, 2] is not sensitive",
        ),
        (
            "nonadaptive",
            _set_field("nonadaptive", ("positions",), [0], stated=1),
            "nonadaptive: positions do not determine the label",
        ),
        ("deg", _make_value("deg", 3), "deg: recomputed value 2 != stated value 3"),
        ("C", _rename_c_to_an_unknown_measure, "unknown measure 'nope'"),
    ],
    ids=[
        "C-lacks-input", "C-position-twice", "BC-unbalanced", "mBC-conflicts",
        "C-input-cut-short", "C-input-zero-padded",
        "C-not-label-constant", "UC-not-an-object", "UC-no-member",
        "UC-not-label-constant", "UC-overlap", "UC-no-cover", "bs-not-a-list",
        "bs2-larger-than-2", "bs-not-disjoint", "bs-not-sensitive",
        "nonadaptive-undetermined", "deg-plus-one", "unknown-measure",
    ],
)
def test_verify_refuses_each_broken_witness_with_its_own_message(
    capsys, tmp_path, measures, tamper, message
):
    code, err = _verify_tampered(capsys, tmp_path, measures, tamper)
    assert code == (4 if message.startswith("unknown") else 2)
    assert message in json.loads(err)["message"]


def _full_input_certificate(name):
    """A tamper that widens name's certificate to its input's full
    assignment: still a certificate there, but not a least one."""

    def tamper(entries):
        c = entries[name]
        x = c["witness"]["input"]
        c["witness"]["zeros"] = [p for p, ch in enumerate(x) if ch == "0"]
        c["witness"]["ones"] = [p for p, ch in enumerate(x) if ch == "1"]
        c["value"] = len(x)

    return tamper


# The true values are eq:k=1 C = 2, eq:k=2 C = 4 and ed:k=3,l=2 BC = 4.
@pytest.mark.parametrize(
    "spec, name, message",
    [
        ("eq:k=1", "C", "C: least certificate at the input 2 != stated value 4"),
        ("eq:k=2", "C", "C: least certificate at the input 4 != stated value 8"),
        ("ed:k=3,l=2", "BC", "BC: least certificate at the input 4 != stated value 6"),
    ],
    ids=["eq-k1-C-4", "eq-k2-C-8", "ed-k3-l2-BC-6"],
)
def test_verify_refuses_a_certificate_past_the_least_at_its_input(
    capsys, tmp_path, spec, name, message
):
    tamper = _full_input_certificate(name)
    code, err = _verify_tampered(capsys, tmp_path, name, tamper, spec=spec)
    assert code == 2
    assert json.loads(err)["message"] == message


def _c_of_2_at_111000(entries):
    """State C = 2 with the least certificate at 111000, ones [0, 1]."""
    entries["C"]["value"] = 2
    entries["C"]["witness"] = {"input": "111000", "zeros": [], "ones": [0, 1]}


def test_verify_refuses_a_c_below_the_largest_least_certificate(capsys, tmp_path):
    # ed:k=3,l=2 has D = 4 and C = 3; the witness is a least certificate at
    # its input, so only the max over inputs shows that 2 is too low
    code, err = _verify_tampered(
        capsys, tmp_path, "D,C", _c_of_2_at_111000, spec="ed:k=3,l=2"
    )
    assert code == 2
    assert json.loads(err)["message"] == "C: largest least certificate 3 != stated value 2"


def _drop_last_swap(entries):
    entries["s"]["witness"]["swaps"].pop()
    entries["s"]["value"] -= 1


def _s_of_0_with_no_swaps(entries):
    entries["s"]["witness"]["swaps"] = []
    entries["s"]["value"] = 0


# eq:k=1 has s = 2; each tampered witness is valid blocks of its stated
# size, so only the recomputed s refuses it
@pytest.mark.parametrize(
    "tamper, stated",
    [(_drop_last_swap, 1), (_s_of_0_with_no_swaps, 0)],
    ids=["one-swap-dropped", "s-0-no-swaps"],
)
def test_verify_refuses_an_s_below_the_true_value(capsys, tmp_path, tamper, stated):
    code, err = _verify_tampered(capsys, tmp_path, "s", tamper)
    assert code == 2
    assert json.loads(err)["message"] == f"s: largest sensitivity 2 != stated value {stated}"


def _refine_largest_subcube(entries):
    """Split SC's largest cell on one more position: still a partition
    into label-constant cells, now one position larger."""
    cells = entries["SC"]["witness"]["subcubes"]
    big = max(cells, key=lambda c: len(c["zeros"]) + len(c["ones"]))
    p = min(set(range(6)) - set(big["zeros"]) - set(big["ones"]))
    cells.remove(big)
    cells.append({"zeros": big["zeros"] + [p], "ones": big["ones"]})
    cells.append({"zeros": big["zeros"], "ones": big["ones"] + [p]})
    entries["SC"]["value"] += 1


def test_verify_refuses_values_that_break_sc_at_most_d(capsys, tmp_path):
    # ed:k=3,l=2 has SC = D = 4; the refined partition is a valid SC = 5
    code, _ = _verify_tampered(
        capsys, tmp_path, "SC", _refine_largest_subcube, spec="ed:k=3,l=2"
    )
    assert code == 0
    code, err = _verify_tampered(
        capsys, tmp_path, "D,SC", _refine_largest_subcube, spec="ed:k=3,l=2"
    )
    assert code == 2
    message = json.loads(err)["message"]
    assert "SC = 5" in message and "D = 4" in message


def _query_twice_above(levels):
    """A tamper that puts the D tree under levels more queries of position
    0, each with the old tree on both sides: it still computes the
    function, and its depth is the stated value."""

    def tamper(entries):
        d = entries["D"]
        for _ in range(levels):
            d["witness"] = {"query": 0, "0": d["witness"], "1": d["witness"]}
        d["value"] += levels

    return tamper


def test_verify_refuses_a_tree_deeper_than_n(capsys, tmp_path):
    # eq:k=1 has n = 4 and D = 2; a valid tree never repeats a position on a
    # path, so a depth-5 tree is refused even though it computes the function
    code, _ = _verify_tampered(capsys, tmp_path, "D", _query_twice_above(2))
    assert code == 0
    code, err = _verify_tampered(capsys, tmp_path, "D", _query_twice_above(3))
    assert code == 2
    assert "more than n = 4 queries deep" in json.loads(err)["message"]


def test_verify_report_nested_too_deeply_for_json_is_a_format_error(
    capsys, tmp_path
):
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "measure", "--construct", "eq:k=1", "--measures", "D",
        "--no-cache", "--out", str(report),
    )
    assert code == 0
    obj = json.loads(report.read_text())
    obj["measures"]["D"]["witness"] = "TREE"
    levels = 990
    node = '{"query": 0, "1": {"leaf": 1}, "0": '
    tree = node * levels + '{"leaf": 0}' + "}" * levels
    report.write_text(json.dumps(obj).replace('"TREE"', tree))
    code, _, err = run(
        capsys, "verify", "--construct", "eq:k=1", "--report", str(report)
    )
    assert code == 4
    assert json.loads(err)["error"] == "format"


# Files no input may crash on: nesting past any recursion limit, bytes that
# are not UTF-8 (a UTF-16 byte-order mark), and an int too long to convert.
_UNPARSABLE = [
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested"),
    pytest.param(b"\xff\xfe{}", id="utf16-bom"),
    pytest.param(
        b"[" + b"1" * 5000 + b"]",
        id="long-int",
        marks=pytest.mark.skipif(
            not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit"
        ),
    ),
]


@pytest.mark.parametrize("content", _UNPARSABLE)
@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "--no-cache", "--function"),
        ("experiment", "--spec"),
        ("verify", "--construct", "eq:k=1", "--report"),
    ],
    ids=["function", "spec", "report"],
)
def test_unparsable_input_files_are_format_errors(capsys, tmp_path, argv, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == "format"


def _three_labels_with_a_short_table(obj):
    obj["table"] = obj["table"][:-2]


@pytest.mark.parametrize(
    "spec, edit, kind, message",
    [
        ("eq:k=1", lambda obj: obj.update(alphabet=[]), "format", "nonempty list"),
        (
            "weights:n=3,m=3,k=4",
            _three_labels_with_a_short_table,
            "format",
            "bytes, expected",
        ),
        # one index byte per member of slice(4, 2), so the table reads
        (
            "eq:k=1",
            lambda obj: obj.update(alphabet=[2, 2], table="00" * 6),
            "input",
            "distinct",
        ),
    ],
    ids=["empty-alphabet", "three-label-table-length", "repeated-label"],
)
def test_function_files_that_break_the_format_are_refused(
    capsys, tmp_path, spec, edit, kind, message
):
    path = tmp_path / "f.json"
    assert run(capsys, "construct", spec, "--out", str(path))[0] == 0
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "measure", "--no-cache", "--function", str(path))
    assert (code, out) == (4, "")
    payload = json.loads(err)
    assert payload["error"] == kind and message in payload["message"]
    assert "Traceback" not in err


def _without_millis(report_text):
    report = json.loads(report_text)
    for entry in report["measures"].values():
        del entry["millis"]
    return report


@pytest.mark.parametrize("content", _UNPARSABLE)
def test_an_unparsable_cache_file_is_a_miss(capsys, monkeypatch, tmp_path, content):
    monkeypatch.setenv("SLICEBENCH_CACHE_DIR", str(tmp_path / "cache"))
    argv = ("measure", "--construct", "eq:k=1", "--measures", "D")
    code, fresh, _ = run(capsys, *argv)
    assert code == 0
    (path,) = (tmp_path / "cache").iterdir()
    path.write_bytes(content)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert _without_millis(out) == _without_millis(fresh)
    # the miss stored the recomputed entry again, and a hit repeats it
    assert run(capsys, *argv) == (0, out, "")


# Transcripts recorded before the players moved onto the shared spec tables.
_TRANSCRIPTS = json.loads(
    (Path(__file__).parent / "data" / "match_transcripts.json").read_text()
)


@pytest.mark.parametrize(
    "case", _TRANSCRIPTS, ids=lambda c: c["args"].removeprefix("match --construct ")
)
def test_match_stdout_is_byte_identical_to_the_pinned_transcript(capsys, case):
    code, out, err = run(capsys, *case["args"].split())
    assert (code, err) == (0, "")
    assert out == case["stdout"]


_MATCH = ("match", "--construct", "eq:k=1")


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", ""),
        ("construct", ":k=1"),
        ("construct", "eq:k"),
        ("construct", "eq:=1"),
        ("construct", "eq:k=1,k=2"),
        ("construct", "eq:k=x"),
        ("construct", "eq:k=1-x"),
        ("construct", "eq:k=1-2"),
        ("construct", "gs:n=1-2,k=1"),
        ("construct", "rubinstein-variant:n=-1"),
        ("construct", "eq:z=1"),
        ("construct", "gs:n=6"),
        ("construct", "nope:k=1"),
        ("construct", "gs:n=5,k=2,i=7"),
        _MATCH + ("--algorithm", "", "--adversary", "eq:k=1"),
        _MATCH + ("--algorithm", "nope", "--adversary", "eq:k=1"),
        _MATCH + ("--algorithm", "eq", "--adversary", "eq:k=1"),
        _MATCH + ("--algorithm", "eq:k=x", "--adversary", "eq:k=1"),
        _MATCH + ("--algorithm", "eq:k=1-2", "--adversary", "eq:k=1"),
        _MATCH + ("--algorithm", "eq:k=1,k=1", "--adversary", "eq:k=1"),
        _MATCH + ("--algorithm", "weight1:n=3", "--adversary", "eq:k=1"),
        _MATCH + ("--algorithm", "optimal:f=1", "--adversary", "eq:k=1"),
        _MATCH + ("--algorithm", "optimal", "--adversary", "nope"),
        _MATCH + ("--algorithm", "optimal", "--adversary", "eq:k"),
        _MATCH + ("--algorithm", "optimal", "--adversary", "eq:k=1,seed=3"),
        _MATCH + ("--algorithm", "optimal", "--adversary", "fixed"),
        _MATCH + ("--algorithm", "optimal", "--adversary", "fixed:x=01a0"),
        _MATCH + ("--algorithm", "optimal", "--adversary", "fixed:x=1110"),
        _MATCH + ("--algorithm", "optimal", "--adversary", "fixed:x=0110,y=1"),
        _MATCH + ("--algorithm", "eq:k=1", "--adversary", "eq:k=1", "--budget", "-1"),
        # 1100 of slice(4, 2) spelt without exactly n = 4 characters
        _MATCH + ("--algorithm", "eq:k=1", "--adversary", "fixed:x=11"),
        _MATCH + ("--algorithm", "eq:k=1", "--adversary", "fixed:x=110000"),
        _MATCH + ("--algorithm", "optimal", "--adversary", "weights-basic:n=4,m=2"),
        _MATCH + ("--algorithm", "optimal", "--adversary", "weights-m2:n=4,k=2,seed=3"),
        _MATCH
        + ("--algorithm", "optimal", "--adversary", "weights-balanced:n=4,m=2,k=4,seed=x"),
        ("experiment", "kml-count", "--set", "rs=x"),
        ("experiment", "kml-count", "--set", "rs=1-x"),
        ("experiment", "kml-count", "--set", "rs"),
        ("experiment", "kml-count", "--set", "rs="),
        ("experiment", "kml-count", "--set", "=3"),
        ("experiment", "kml-count", "--set", "rs=3,4"),
        ("experiment", "kml-count", "--set", "nope=3"),
        ("experiment", "kml-count", "--set", "rs=3", "--set", "rs=3"),
        ("experiment", "ed-conjecture", "--set", "cases=3"),
        ("experiment", "ed-conjecture", "--set", "cases=3-2-1"),
        ("experiment", "rubinstein-gap", "--set", "n=4", "--set", "samples=100"),
        ("experiment", "random-depth", "--set", "samples=0"),
        ("experiment", "random-depth", "--set", "samples=-1"),
        ("experiment", "random-depth", "--set", "n=2", "--set", "k=1"),
        ("experiment", "lift-preservation", "--set", "exhaustive_n=-1"),
        ("experiment", "lift-preservation", "--set", "exhaustive_n=5"),
        ("experiment", "weights-m2", "--set", "depth_cases=0"),
        ("experiment", "weights-m2", "--set", "depth_cases=3-3-2"),
        ("experiment", "weights-m2", "--set", "depth_cases=1-2-1"),
        ("experiment", "weights-m2", "--set", "depth_cases=3-1-1"),
        ("experiment", "johnson-independent", "--set", "max_n=0"),
        ("experiment", "maxdepth-by-weight", "--set", "max_n=0"),
        ("experiment", "maxdepth-by-weight", "--set", "min_n=2", "--set", "max_n=2"),
        ("experiment", "maxdepth-by-weight", "--set", "min_n=5", "--set", "max_n=4"),
        ("experiment", "mbc-exhaustive", "--set", "samples=-1"),
        ("experiment", "ramsey-random", "--set", "n=0"),
        ("experiment", "ramsey-random", "--set", "seeds=0"),
        ("experiment", "ramsey-random", "--set", "seeds=5", "--set", "min_count=6"),
    ],
    ids=" ".join,
)
def test_malformed_specs_exit_with_the_input_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    payload = json.loads(err)
    assert payload["error"] == "input"
    assert "Traceback" not in err and "<lambda>" not in payload["message"]


@pytest.mark.parametrize(
    "spec, key", [("eq:k=1-2", "k"), ("gs:n=1-2,k=1", "n"), ("gs:n=6,k=2-3", "k")]
)
def test_a_list_for_a_one_int_parameter_names_the_key(capsys, spec, key):
    code, out, err = run(capsys, "construct", spec)
    assert (code, out) == (4, "")
    message = json.loads(err)["message"]
    assert f"parameter {key!r} takes one int" in message


def test_a_bad_adversary_is_reported_before_the_optimal_algorithm_solves(
    capsys, monkeypatch
):
    from slicebench.measures.depth import DepthSolver

    def refuse(self):
        raise AssertionError("the algorithm was built before the adversary")

    monkeypatch.setattr(DepthSolver, "solve", refuse)
    argv = ("match", "--construct", "ed:k=4,l=3", "--algorithm", "optimal")
    code, out, err = run(capsys, *argv, "--adversary", "nope")
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == "input"


def _nested(depth):
    value = 1
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "obj",
    [
        {"name": "kml-count", "params": [1]},
        {"name": "kml-count", "params": {"rs": "x"}},
        {"name": "kml-count", "params": {"rs": [3, True]}},
        {"name": ["a"]},
        {"name": "kml-count", "out": 5},
        {"name": "ed-conjecture", "params": {"cases": [[3, 2], 4]}},
        {"name": "eq-depth", "params": {"ks": [1, [2]]}},
        {"name": "eq-depth", "params": {"ks": _nested(600)}},
        {"name": "weights-m2", "params": {"depth_cases": [[4, 2, 2], 3]}},
        {"name": "weights-m2", "params": {"depth_cases": []}},
        {"name": "kml-count", "params": {"rs": []}},
        {"name": "kml-count", "parms": {"rs": [3]}},
        {"name": "kml-count", "params": {"rs": [3]}, "ot": "r.json"},
    ],
    ids=[
        "params-list", "text-leaf", "bool-leaf", "name-list", "out-int", "ragged-pairs",
        "ragged-ints", "nested-600", "ragged-triples", "empty-triples", "empty-ints",
        "unknown-params-key", "unknown-out-key",
    ],
)
def test_malformed_experiment_spec_files_exit_with_the_input_code(capsys, tmp_path, obj):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj))
    code, out, err = run(capsys, "experiment", "--spec", str(spec))
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == "input"


def _override_values(default):
    """Ints from -3 to twice the default's largest, bools, values in the
    default's shape, and ragged or nested lists."""
    rows = [default] if isinstance(default, int) else default
    top = 2 * max(max(r) if isinstance(r, list) else r for r in rows)
    ints = st.integers(-3, 3) | st.integers(-3, top)
    if isinstance(default, int):
        shaped = ints
    elif isinstance(default[0], int):
        shaped = st.lists(ints, min_size=1, max_size=3)
    else:
        row = st.lists(ints, min_size=len(default[0]), max_size=len(default[0]))
        shaped = st.lists(row, min_size=1, max_size=3)
    ragged = st.recursive(ints | st.booleans(), lambda inner: st.lists(inner, max_size=3))
    return st.one_of(shaped, shaped, ragged)  # mostly well-formed


def _at_most_default(value, default):
    """Each int no larger than the default's largest at its position."""
    if isinstance(default, int):
        return value <= default
    if isinstance(default[0], int):
        return max(value) <= max(default)
    return all(v <= max(d[i] for d in default) for row in value for i, v in enumerate(row))


# built once: a strategy made afresh for each example triples the test's time
_DRAWN_OVERRIDES = {
    name: st.fixed_dictionaries(
        {},
        optional={
            f: _override_values(d)
            for f, (d, _, _) in experiments.get_experiment(name).params.items()
        },
    )
    for name in experiments.experiment_names()
}


@pytest.mark.parametrize("name", experiments.experiment_names())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_drawn_parameters_are_refused_or_give_cases_that_run(name, data):
    """Drawn parameters are refused as input, or they give cases; with every
    int at most its default, the first case runs and raises, if anything,
    only a package error."""
    exp = experiments.get_experiment(name)
    overrides = data.draw(_DRAWN_OVERRIDES[name])
    try:
        spec = experiments.ExperimentSpec.of(name, overrides)
        cases = sorted(exp.cases(spec.params), key=lambda case: case[0])
    except DomainError:
        return
    assert cases
    if all(_at_most_default(spec.params[f], d) for f, (d, _, _) in exp.params.items()):
        try:
            exp.run_case(spec.params, *cases[0][1])
        except SliceBenchError:
            pass


def _weights_m2_admits(n, m, k):
    spec = experiments.ExperimentSpec.of("weights-m2", {"depth_cases": [n, m, k]})
    try:
        experiments.get_experiment(spec.name).cases(spec.params)
    except DomainError:
        return False
    return True


def test_weights_m2_admits_exactly_the_depth_cases_its_formula_gives():
    """Over every slice(nm, k) with nm <= 8, a depth case is refused unless
    its expected depth, by the formula, is the exact depth."""
    triples = [
        (n, m, k)
        for n in range(1, 9)
        for m in range(1, 8 // n + 1)
        for k in range(1, n * m)
    ]
    assert len(triples) == 83
    exp = experiments.get_experiment("weights-m2")
    admitted = {t for t in triples if _weights_m2_admits(*t)}
    assert admitted == {t for t in triples if exp._depth(*t)[2]}


def test_experiment_set_keeps_list_values(capsys):
    code, out, _ = run(capsys, "experiment", "eq-depth", "--set", "ks=1-2")
    assert code == 0
    assert json.loads(out)["params"] == {"ks": [1, 2]}


def _max_depths(*modes):
    depths = (1, 1, 2, 2, 2)  # slice(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)
    return [{"max_depth": d, "mode": m} for d, m in zip(depths, modes)]


# Pinned reports of small runs through both kinds of mbc-exhaustive case and
# both branches of maxdepth-by-weight: the third run samples slice(4, 2),
# whose 2^6 functions exceed its exhaustive limit of 32.  The next three go
# through every kind of weights-m2, lift-preservation and rubinstein-gap case,
# and the last checks the Johnson-graph classes up to n = 10.
@pytest.mark.parametrize(
    "argv, case_count, observed, sha256",
    [
        (
            ("mbc-exhaustive", "--set", "samples=3"),
            67,
            None,
            "e3d6d979fa3ac9930edac6e6d034686f3078eda44fcecc0e9d3c67ed33912057",
        ),
        (
            ("maxdepth-by-weight", "--set", "max_n=4"),
            5,
            _max_depths(*["exhaustive"] * 5),
            "f92420530c061a8d0317cd3013b555994acd187a6171b3a922fc594aa724f116",
        ),
        (
            ("maxdepth-by-weight", "--set", "max_n=4", "--set", "exhaustive_limit=32",
             "--set", "samples=5"),
            5,
            _max_depths(*["exhaustive"] * 3, "sampled", "exhaustive"),
            "e9f16261071f7664a69bbc14f7d66764437a2e3852073fe53ae6fd3a3ec8fdbe",
        ),
        (
            _WEIGHTS_M2_ALL_KINDS,
            12,
            None,
            "078c2aa4ad9fee76bb857c8ff79ddf6f7bc009a9e6a3ddeec0c6fa654f90cb6d",
        ),
        (
            _LIFT_BOTH_KINDS,
            6,
            None,
            "b466a625eccb21ffff9cee18d4ee1b0e58bc856eefd98f6db05e806fc0108ac7",
        ),
        (
            ("rubinstein-gap", "--set", "samples=5"),
            2,
            None,
            "531d84fa9165b5985e76ac4d59bdd259f579bbda3ad983f8f1a838864125fe68",
        ),
        (
            ("johnson-independent", "--set", "max_n=10"),
            25,
            None,
            "0ee177efe08085458a3ac60060d6abdcd7f8b2e9fa8062f4df87dea04e82862e",
        ),
    ],
    ids=[
        "mbc-exhaustive", "maxdepth-by-weight", "maxdepth-by-weight-sampled",
        "weights-m2", "lift-preservation", "rubinstein-gap", "johnson-independent",
    ],
)
def test_small_runs_of_code_function_experiments_are_pinned(
    capsys, argv, case_count, observed, sha256
):
    code, out, err = run(capsys, "experiment", *argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["case_count"], report["failures"]) == (case_count, 0)
    if observed is not None:
        assert [c["observed"] for c in report["cases"]] == observed
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_measure_recomputes_a_hand_edited_cache_entry(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("SLICEBENCH_CACHE_DIR", str(tmp_path / "cache"))
    argv = ("measure", "--construct", "eq:k=1", "--measures", "D")
    assert run(capsys, *argv)[0] == 0
    (path,) = (tmp_path / "cache").iterdir()
    text = path.read_text()
    assert '"value": 2' in text
    path.write_text(text.replace('"value": 2', '"value": 99'))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["measures"]["D"]["value"] == 2
    assert '"value": 2' in path.read_text()
