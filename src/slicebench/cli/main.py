"""Command-line front door.

Subcommands: construct, measure, match, experiment, verify.  Exit codes:
0 all assertions pass, 2 assertion failure (counterexample on stderr),
3 resource cap hit, 4 input error.  Reports are JSON by default; --csv
flattens tabular parts.  Repeated runs are byte-identical: measure reports
via the result cache, experiment reports by construction.
"""

import argparse
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

from ..adversary import ADVERSARIES, ALGORITHMS, run_match
from ..catalog import REGISTRY, build, parse_construction, parse_spec
from ..errors import (
    DomainError,
    FormatError,
    ResourceCapError,
    SliceBenchError,
    VerificationError,
)
from ..fileio import (
    canonical_function_bytes,
    function_to_json_obj,
    json_text,
    read_function,
    read_json,
)
from ..measures.report import MEASURES, compute_measures, verify_report
from .cache import ResultCache
from .experiments import ExperimentSpec, experiment_names, run_experiment

_EXIT_OK = 0
_EXIT_ASSERTION = 2
_EXIT_CAP = 3
_EXIT_INPUT = 4


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2; remap usage errors onto the input code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _check_out(out: str | None) -> None:
    """Refuse an output path whose directory does not exist, before any work
    that would be thrown away when the report cannot be written."""
    if out is not None and not Path(out).parent.is_dir():
        raise DomainError(f"cannot write {out}: {Path(out).parent} is not a directory")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _error(kind: str, message: str, **extra) -> None:
    obj = {"error": kind, "message": message}
    obj.update(extra)
    sys.stderr.write(json_text(obj))


def _load_function(args):
    """Resolve exactly one of --function/--construct into (function, stable
    reference)."""
    if (args.function is None) == (args.construct is None):
        raise DomainError("give exactly one of --function FILE and --construct SPEC")
    if args.construct is not None:
        spec = parse_construction(args.construct)
        return spec.build(), {"construction": spec.to_string()}
    f = read_function(args.function)
    digest = hashlib.sha256(canonical_function_bytes(f)).hexdigest()
    return f, {"sha256": digest}


def _flat_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None or isinstance(value, (int, float, str)):
        return str(value)
    return json.dumps(value, sort_keys=True)


def _measure_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["measure", "value", "nodes", "millis"])
    for name, entry in report["measures"].items():
        writer.writerow([name, entry["value"], entry["nodes"], entry["millis"]])
    return buf.getvalue()


def _experiment_csv(report: dict) -> str:
    cases = report["cases"]
    observed_keys: set[str] = set()
    expected_keys: set[str] = set()
    for c in cases:
        if isinstance(c["observed"], dict):
            observed_keys.update(c["observed"])
        if isinstance(c["expected"], dict):
            expected_keys.update(c["expected"])
    header = (
        ["key", "pass"]
        + sorted(observed_keys)
        + [f"expected_{k}" for k in sorted(expected_keys)]
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for c in cases:
        observed = c["observed"] if isinstance(c["observed"], dict) else {}
        expected = c["expected"] if isinstance(c["expected"], dict) else {}
        row = [c["key"], _flat_cell(c["pass"])]
        row += [_flat_cell(observed.get(k, "")) for k in sorted(observed_keys)]
        row += [_flat_cell(expected.get(k, "")) for k in sorted(expected_keys)]
        writer.writerow(row)
    return buf.getvalue()


def _cmd_construct(args) -> int:
    spec = parse_construction(args.spec)
    f = spec.build()
    obj = function_to_json_obj(f, construction=spec.to_json_obj())
    _emit(json_text(obj), args.out)
    return _EXIT_OK


def _cmd_measure(args) -> int:
    f, ref = _load_function(args)
    names = [part.strip() for part in args.measures.split(",") if part.strip()]
    if not names:
        raise DomainError("empty measure list")
    cache = None if args.no_cache else ResultCache()
    report = compute_measures(f, names, ref, cache)
    text = _measure_csv(report) if args.csv else json_text(report)
    _emit(text, args.out)
    return _EXIT_OK


def _cmd_match(args) -> int:
    f, ref = _load_function(args)
    # the adversary first: building the optimal algorithm solves exact depth,
    # so a bad adversary spec is reported before that work
    # fixed:x=<bitstring> names a member, so x keeps its text
    name, params = parse_spec(args.adversary, "adversary", text_keys=("x",))
    adv = build(ADVERSARIES, "adversary", name, params, f=f)
    name, params = parse_spec(args.algorithm, "algorithm")
    alg = build(ALGORITHMS, "algorithm", name, params, f=f)
    transcript = run_match(alg, adv, f, budget=args.budget)
    lines = []
    for i, (position, answer) in enumerate(transcript.pairs):
        lines.append(
            json.dumps(
                {"query": i + 1, "position": position, "answer": answer},
                sort_keys=True,
            )
        )
    verdict = transcript.to_json_obj()
    del verdict["queries"]
    verdict["function"] = ref
    lines.append(json.dumps({"verdict": verdict}, sort_keys=True))
    _emit("\n".join(lines) + "\n", args.out)
    return _EXIT_OK


def _cmd_experiment(args) -> int:
    if args.spec_file is not None:
        if args.name is not None or args.set:
            raise DomainError("--spec replaces the name and any --set overrides")
        spec = ExperimentSpec.from_json_obj(read_json(args.spec_file))
    elif args.name is not None:
        # the --set items are the parameter list of one spec string
        text = "--set:" + ",".join(args.set) if args.set else "--set"
        _, overrides = parse_spec(text, "override")
        spec = ExperimentSpec.of(args.name, overrides)
    else:
        raise DomainError(
            f"give an experiment name or --spec FILE; known: "
            f"{', '.join(experiment_names())}"
        )
    out = args.out if args.out is not None else spec.out
    _check_out(out)
    report = run_experiment(spec, jobs=args.jobs)
    text = _experiment_csv(report) if args.csv else json_text(report)
    _emit(text, out)
    if report["failures"] > 0:
        bad = next((c for c in report["cases"] if c["pass"] is False), None)
        counterexample = bad if bad is not None else {"aggregate": report["aggregate"]}
        _error(
            "assertion",
            f"experiment {spec.name!r}: {report['failures']} failing",
            counterexample=counterexample,
        )
        return _EXIT_ASSERTION
    return _EXIT_OK


def _cmd_verify(args) -> int:
    f, ref = _load_function(args)
    obj = read_json(args.report)
    if not isinstance(obj, dict):
        raise FormatError("report file must hold a JSON object")
    entries = obj.get("measures", obj)
    if not isinstance(entries, dict) or not entries:
        raise FormatError("report holds no measure entries")
    verify_report(f, entries)
    _emit(json_text({"function": ref, "verified": sorted(entries)}), args.out)
    return _EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="slicebench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "construct",
        help="build a catalog function and print it as a function file",
    )
    p.add_argument(
        "spec",
        help=f"construction, e.g. eq:k=2; known: {', '.join(REGISTRY)}",
    )
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("measure", help="compute measures of one function")
    p.add_argument("--function", help="function file to load")
    p.add_argument("--construct", help="construction spec instead of a file")
    p.add_argument(
        "--measures",
        default="D",
        help=f"comma-separated list from: {', '.join(sorted(MEASURES))}",
    )
    p.add_argument("--no-cache", action="store_true", help="skip the result cache")
    p.add_argument("--csv", action="store_true", help="flatten the report to CSV")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(handler=_cmd_measure)

    p = sub.add_parser(
        "match", help="referee one algorithm-versus-adversary match"
    )
    p.add_argument("--function", help="function file to load")
    p.add_argument("--construct", help="construction spec instead of a file")
    p.add_argument(
        "--algorithm", required=True, help=f"one of: {', '.join(ALGORITHMS)}"
    )
    p.add_argument(
        "--adversary", required=True, help=f"one of: {', '.join(ADVERSARIES)}"
    )
    p.add_argument("--budget", type=int, help="cap on the number of queries")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(handler=_cmd_match)

    p = sub.add_parser("experiment", help="run one registered batch experiment")
    p.add_argument(
        "name",
        nargs="?",
        help=f"registered name; known: {', '.join(experiment_names())}",
    )
    p.add_argument("--spec", dest="spec_file", help="JSON spec file to rerun")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one parameter (int or dash-joined ints)",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--csv", action="store_true", help="flatten cases to CSV")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser(
        "verify", help="re-check a stored measure report against a function"
    )
    p.add_argument("--function", help="function file to load")
    p.add_argument("--construct", help="construction spec instead of a file")
    p.add_argument("--report", required=True, help="measure report JSON file")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.handler(args)
    except FormatError as e:
        _error("format", str(e), line=e.line)
        return _EXIT_INPUT
    except ResourceCapError as e:
        _error("resource-cap", str(e))
        return _EXIT_CAP
    except VerificationError as e:
        _error("verification", str(e))
        return _EXIT_ASSERTION
    except SliceBenchError as e:
        # every other package error is a bad input or parameter
        _error("input", str(e))
        return _EXIT_INPUT
    except OSError as e:
        # a path that cannot be read or written is a bad input; an OSError
        # that names no file is not about the input
        if e.filename is None:
            raise
        _error("input", f"{e.strerror}: {e.filename}")
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
