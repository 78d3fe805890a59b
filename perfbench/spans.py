"""Span tracing of the package's public functions, installed from outside.

Each wrapper replaces a module (or class) attribute for the length of a
traced pass and restores it afterwards; the package's source is never
edited. The package looks these attributes up when it calls them: `solve`
reaches `svt` and the update steps through the solver module's globals,
and `cli` imported `solve` by name, so that wrapper goes on `cli.solve`.
"""

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """Spans kept in memory, plus counts taken at the same boundaries.

    A span is [name, start, end, parent span index or None, call id]; the
    call id is shared by every span under one top-level benchmark call.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.values = defaultdict(list)
        self.call = None
        self._stack = []

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.call]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def totals(self):
        """Per span name: (total seconds, self seconds, calls).

        Self time is a span's duration minus the part of it that its child
        spans cover.
        """
        children = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(i)
        total, own, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            covered = _covered(start, end, [self.spans[c][1:3] for c in children[i]])
            total[name] += end - start
            own[name] += end - start - covered
            calls[name] += 1
        return total, own, calls


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    length, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            length += b - a
            reach = b
    return length


def _observe_solve(tracer, args, report):
    tracer.counts["iterations"] += report.iterations
    tracer.counts["converged"] += bool(report.converged)
    tracer.values["final_change"].append(report.change_history[-1])
    tracer.values["final_residual"].append(report.residual_history[-1])


def _observe_multipliers(tracer, args, result):
    tracer.counts["mu_growths"] += result[2] > args[0].mu


def _observe_hypergraph(tracer, args, graph):
    tracer.counts["edges"] += len(graph.edges)
    tracer.values["edge_size"].extend(len(e) for e in graph.edges)


def _observe_operator(tracer, args, operator):
    tracer.values["operator_nnz_frac"].append(
        np.count_nonzero(operator.matrix) / operator.matrix.size
    )


def patch_list(pkg):
    """(owner, attribute, span name, observer) for every traced function."""
    cli, solver, hypergraph = pkg.cli, pkg.solver, pkg.hypergraph
    clustering, metrics, datasets = pkg.clustering, pkg.metrics, pkg.datasets
    return [
        (cli, "run_method", "cli.run_method", None),
        (cli, "solve", "solver.solve", _observe_solve),
        (solver, "svt", "solver.svt", None),
        (solver, "grad_q", "solver.grad_q", None),
        (solver, "update_E", "solver.update_E", None),
        (solver, "update_J", "solver.update_J", None),
        (solver, "update_multipliers", "solver.update_multipliers", _observe_multipliers),
        (solver, "check_convergence", "solver.check_convergence", None),
        (hypergraph, "epsilon_ball_hyperedges", "hypergraph.epsilon_ball_hyperedges",
         _observe_hypergraph),
        (hypergraph, "locality_operator_from_hypergraph",
         "hypergraph.locality_operator_from_hypergraph", _observe_operator),
        (hypergraph, "knn_graph_laplacian", "hypergraph.knn_graph_laplacian",
         _observe_operator),
        (hypergraph, "knn_hypergraph_laplacian", "hypergraph.knn_hypergraph_laplacian",
         _observe_operator),
        (hypergraph.ObservationMatrix, "pairwise_distances", "hypergraph.pairwise_distances",
         None),
        (clustering, "ncut_spectral", "clustering.ncut_spectral", None),
        (clustering, "kmeans", "clustering.kmeans", None),
        (clustering, "affinity_from_coefficients", "clustering.affinity_from_coefficients",
         None),
        (metrics, "accuracy", "metrics.accuracy", None),
        (datasets, "load_dataset", "datasets.load_dataset", None),
    ]


@contextlib.contextmanager
def installed(tracer, pkg):
    """Route every function in `patch_list` through `tracer` inside the block."""
    saved = []
    try:
        for owner, attr, name, observe in patch_list(pkg):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
