"""Spans around the calls into fracreg's modules, recorded from outside.

``install`` replaces each traced public function on every module that binds
it, because the modules import by name (``fracreg.estimator.build_graph`` is
the name ``fit`` looks up, not ``fracreg.graph.build_graph``).  A span holds
its name, start, end, parent span and operation id; spans stay in memory
until the benchmark writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter

class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.counts = Counter()
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def write(self, path):
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> Counter:
    """Name -> summed self time: duration minus the union of its children.

    Child intervals are clipped to the parent's, so a child that outlives
    its parent (possible only across threads) is not double-subtracted.
    """
    children = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = Counter()
    for index, (name, start, end, _, _) in enumerate(spans):
        clipped = [(max(a, start), min(b, end)) for a, b in children.get(index, ())]
        out[name] += (end - start) - union_length([c for c in clipped if c[1] > c[0]])
    return out


def _bound(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments


def _replace_everywhere(modules, original, wrapper, undo):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))


def install(tracer: Tracer, fr) -> "callable":
    """Wrap fracreg's public functions with spans and counters; return undo.

    fr is the imported ``fracreg`` package with its submodules loaded.
    """
    graph, spectral, estimator = fr.graph, fr.spectral, fr.estimator
    experiments, sobolev, config = fr.experiments, fr.sobolev, fr.config
    modules = [fr.cli, config, estimator, experiments, graph, sobolev, spectral]
    # The sweep harness redraws a failed repetition with this offset added to
    # its index; a generate() call at or above it is a retry.
    retry_offset = experiments._RETRY_OFFSET
    undo = []

    def traced(owner, attr, name_of, after=None, on_error=None):
        original = getattr(owner, attr)
        bind = _bound(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = bind(args, kwargs)
            name = name_of(bound) if callable(name_of) else name_of
            try:
                with tracer.span(name):
                    result = original(*args, **kwargs)
            except BaseException:
                if on_error:
                    on_error(bound)
                raise
            if after:
                after(bound, result)
            return result

        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, original))
        else:
            _replace_everywhere(modules, original, wrapper, undo)

    c = tracer.counts

    def graph_path(b):
        return "graph.build_graph." + (
            "brute" if b["samples"].n <= graph.BRUTE_FORCE_LIMIT else "kdtree")

    def solver_path(b):
        n, m, method = b["op"].n, b["m"], b.get("method", "auto")
        if method == "auto":
            method = "dense" if n <= spectral.DENSE_LIMIT or m >= n - 1 else "iterative"
        return "spectral.eigensolve." + method

    def count(key, value):
        c[key] += value

    def after_sweep(b, report):
        count("experiments.jobs", len(report.records) + len(report.failures))
        count("experiments.failures", len(report.failures))

    def after_seminorm(b, res):
        count("sobolev.quadrature_cells", res.quadrature_cells)
        count("sobolev.diverged", int(res.diverged))

    traced(graph, "build_graph", graph_path,
           after=lambda b, g: count("graph.edges", g.weights.nnz // 2))
    traced(graph, "connectivity_check", "graph.connectivity_check")
    traced(spectral, "laplacian", "spectral.laplacian")
    traced(spectral, "eigensolve", solver_path,
           after=lambda b, e: count("spectral.eigensolve.pairs", b["m"]),
           on_error=lambda b: count("spectral.eigensolve.failed", 1))
    traced(spectral.EigenSystem, "save_csv", "spectral.save_csv")
    traced(estimator, "grid_search", "estimator.grid_search")
    traced(estimator, "fit", "estimator.fit")
    traced(experiments, "generate", "experiments.generate",
           after=lambda b, s: count("experiments.retries", int(b["rep_index"] >= retry_offset)))
    traced(experiments, "run_sweep", "experiments.run_sweep", after=after_sweep)
    for attr in ("write_records_csv", "write_summary_csv", "write_failures_csv"):
        traced(experiments.ExperimentReport, attr, "experiments.write_csv")
    traced(sobolev, "continuum_seminorm", "sobolev.continuum_seminorm", after=after_seminorm)
    traced(config, "parse_text", "config.parse_text")
    traced(config, "serialize", "config.serialize")

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall
