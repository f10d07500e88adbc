"""Span tracing around slicebench's public entry points.

The tracer wraps functions from the benchmark's side only; the package's
code is left as it is.  A plain function is replaced in its defining module
and under every name another slicebench module imported it as (so
``slicebench.cli.experiments.exact_depth`` and
``slicebench.measures.certificates.min_hitting_set`` are both covered).
Methods are replaced on their class, which every caller goes through.  The
measure table ``slicebench.measures.report.MEASURES`` holds its own
references to the measure functions, so its entries are wrapped one by one.

Spans (name, start, end, parent) stay in memory until ``write`` is called.
A layer's self time is the time its spans cover minus the time covered by
their child spans.  Counts are read from public state: ``DepthSolver.nodes``,
``len(DepthSolver.tt)`` and ``MatchTranscript.query_count``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# Measure names of report.MEASURES -> layer span.  D is traced through
# DepthSolver's methods and nonadaptive through nonadaptive_positions.
MEASURE_LAYERS = {
    "C": "certificates.C",
    "UC": "certificates.UC",
    "SC": "certificates.SC",
    "BC": "certificates.BC",
    "mBC": "certificates.BC",
    "s": "sensitivity.s",
    "bs": "sensitivity.bs",
    "bs2": "sensitivity.bs",
    "deg": "algebra.deg",
    "packing": "bounds.packing",
    "m": "bounds.packing",
}

# (defining module, function) -> layer span
FUNCTION_LAYERS = {
    ("slicebench.catalog", "make_eq"): "catalog.build",
    ("slicebench.catalog", "make_ed"): "catalog.build",
    ("slicebench.catalog", "graham_sloane"): "catalog.build",
    ("slicebench.catalog", "kml_set"): "catalog.build",
    ("slicebench.catalog", "random_graph"): "catalog.build",
    ("slicebench.catalog", "rubinstein_variant"): "catalog.build",
    ("slicebench.catalog", "rubinstein_original"): "catalog.build",
    ("slicebench.catalog", "slice_restriction"): "catalog.build",
    ("slicebench.catalog", "lift"): "catalog.build",
    ("slicebench.catalog", "weights_task"): "catalog.build",
    ("slicebench.catalog", "random_slice_function"): "catalog.build",
    ("slicebench.measures.depth", "nonadaptive_positions"): "depth.nonadaptive",
    ("slicebench.measures.certificates", "certificate_complexity"): "certificates.C",
    ("slicebench.measures.certificates", "balanced_certificate"): "certificates.BC",
    ("slicebench.measures.sensitivity", "sensitivity"): "sensitivity.s",
    ("slicebench.measures.sensitivity", "block_sensitivity"): "sensitivity.bs",
    ("slicebench.measures.algebra", "degree"): "algebra.deg",
    ("slicebench.measures.bounds", "packing_lower_bound"): "bounds.packing",
    ("slicebench.measures.bounds", "max_one_subcube_intersection"): "bounds.packing",
    ("slicebench.measures.bounds", "monochromatic_number"): "bounds.mono",
    ("slicebench.kernels", "min_hitting_set"): "kernels.hitting_set",
    ("slicebench.kernels", "exact_cover"): "kernels.exact_cover",
    ("slicebench.kernels", "max_clique"): "kernels.clique",
    ("slicebench.kernels", "max_independent_set"): "kernels.clique",
    ("slicebench.measures.report", "compute_measures"): "report.compute",
    ("slicebench.measures.report", "verify_entry"): "report.verify",
    ("slicebench.fileio", "write_function"): "fileio.roundtrip",
    ("slicebench.fileio", "read_function"): "fileio.roundtrip",
    ("slicebench.adversary", "forced_query_count"): "adversary.forced",
    ("slicebench.adversary", "run_match"): "adversary.match",
}

# (module, class, method) -> layer span
METHOD_LAYERS = {
    ("slicebench.catalog", "ConstructionSpec", "build"): "catalog.build",
    ("slicebench.slicecore", "LabeledFunction", "from_indices"): "slicecore.func_build",
    ("slicebench.slicecore", "LabeledFunction", "from_callable"): "slicecore.func_build",
    ("slicebench.measures.depth", "DepthSolver", "__init__"): "depth.init",
    ("slicebench.measures.depth", "DepthSolver", "solve"): "depth.solve",
    ("slicebench.measures.depth", "DepthSolver", "build_tree"): "depth.tree",
    ("slicebench.cli.cache", "ResultCache", "get"): "cache.get",
    ("slicebench.cli.cache", "ResultCache", "put"): "cache.put",
}

EXPERIMENT_PREFIX = "experiments."

# Per-layer time metrics (self time, seconds), in report order.
TIME_LAYERS = (
    "catalog.build",
    "slicecore.func_build",
    "depth.init",
    "depth.solve",
    "depth.tree",
    "depth.nonadaptive",
    "certificates.C",
    "certificates.UC",
    "certificates.SC",
    "certificates.BC",
    "sensitivity.s",
    "sensitivity.bs",
    "algebra.deg",
    "bounds.packing",
    "bounds.mono",
    "kernels.hitting_set",
    "kernels.exact_cover",
    "kernels.clique",
    "report.compute",
    "report.verify",
    "cache.put",
    "cache.get",
    "fileio.roundtrip",
    "adversary.forced",
    "adversary.match",
)

COUNT_METRICS = (
    "catalog.builds",
    "slicecore.func_builds",
    "depth.solves",
    "depth.nodes",
    "depth.tt_entries",
    "kernels.hitting_set_calls",
    "report.verifies",
    "cache.hits",
    "cache.misses",
    "adversary.forced_calls",
    "adversary.matches",
    "adversary.queries",
)


class Tracer:
    """Records spans and counts for every wrapped call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # each span: [name id, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open_solvers: set[int] = set()
        self.counts: Counter = Counter()

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _in_layer(self, prefix: str) -> bool:
        return bool(self._stack) and self.names[
            self.spans[self._stack[-1]][0]
        ].startswith(prefix)

    def _wrap(self, fn, name, after=None):
        """fn wrapped in a span; after(result, args) updates counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result, args)
            return result

        return traced

    def _wrap_solver(self, fn, name, count_solve):
        """DepthSolver method: counts come from the outermost call per solver
        (build_tree calls solve on the same solver)."""

        @functools.wraps(fn)
        def traced(solver, *args, **kwargs):
            key = id(solver)
            outer = key not in self._open_solvers
            if outer:
                self._open_solvers.add(key)
                nodes0, tt0 = solver.nodes, len(solver.tt)
            idx = self._open(name)
            try:
                return fn(solver, *args, **kwargs)
            finally:
                self._close(idx)
                if outer:
                    self._open_solvers.discard(key)
                    self.counts["depth.nodes"] += solver.nodes - nodes0
                    self.counts["depth.tt_entries"] += len(solver.tt) - tt0
                    if count_solve:
                        self.counts["depth.solves"] += 1

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the entry points of the slicebench modules now imported."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "slicebench" or name.startswith("slicebench."))
        }
        afters = {
            "catalog.build": self._count_top("catalog.builds", "catalog."),
            "slicecore.func_build": self._count("slicecore.func_builds"),
            "kernels.hitting_set": self._count("kernels.hitting_set_calls"),
            "report.verify": self._count("report.verifies"),
            "cache.get": self._after_get,
            "adversary.forced": self._count("adversary.forced_calls"),
            "adversary.match": self._after_match,
        }
        for (mod_name, attr), layer in FUNCTION_LAYERS.items():
            original = getattr(modules[mod_name], attr)
            wrapped = self._wrap(original, layer, afters.get(layer))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for (mod_name, cls_name, attr), layer in METHOD_LAYERS.items():
            cls = getattr(modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, layer, afters.get(layer))))
            elif layer in ("depth.solve", "depth.tree"):
                setattr(cls, attr, self._wrap_solver(raw, layer, layer == "depth.solve"))
            else:
                setattr(cls, attr, self._wrap(raw, layer, afters.get(layer)))
        measures = modules["slicebench.measures.report"].MEASURES
        for mname, layer in MEASURE_LAYERS.items():
            measures[mname] = self._wrap(measures[mname], layer)
        experiments = modules["slicebench.cli.experiments"]
        experiments.run_experiment = self._wrap_experiment(experiments.run_experiment)

    def _wrap_experiment(self, fn):
        @functools.wraps(fn)
        def traced(spec, *args, **kwargs):
            idx = self._open(EXPERIMENT_PREFIX + spec.name)
            try:
                return fn(spec, *args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _count(self, key):
        def after(result, args):
            self.counts[key] += 1

        return after

    def _count_top(self, key, prefix):
        """Count only calls not made from inside another span of the layer."""

        def after(result, args):
            if not self._in_layer(prefix):
                self.counts[key] += 1

        return after

    def _after_get(self, result, args):
        self.counts["cache.hits" if result is not None else "cache.misses"] += 1

    def _after_match(self, result, args):
        self.counts["adversary.matches"] += 1
        self.counts["adversary.queries"] += result.query_count

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out = {name: 0.0 for name in self.names}
        for nid, start, end, parent in self.spans:
            dur = end - start
            out[self.names[nid]] += dur
            if parent >= 0:
                out[self.names[self.spans[parent][0]]] -= dur
        return out

    def covered(self) -> float:
        """Total time inside top-level spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
