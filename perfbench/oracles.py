"""Output checks against oracles the benchmark computes itself.

Each function returns a list of problems; an empty list means the output
passed. The oracles are brute force on purpose: they share no code with the
package.
"""

import itertools

import numpy as np

QF_RTOL = 1e-9


def check_labels(labels, truth, k, reported_accuracy):
    """Labels lie in [0, k), one per point, and the reported accuracy equals
    the best agreement over all k! relabelings."""
    labels = np.asarray(labels)
    if labels.shape != truth.shape:
        return [f"{labels.shape[0]} labels for {truth.shape[0]} points"]
    if labels.min() < 0 or labels.max() >= k:
        return [f"labels outside [0, {k})"]
    best = max(
        int(np.count_nonzero(np.asarray(perm)[labels] == truth))
        for perm in itertools.permutations(range(k))
    )
    if reported_accuracy != best / truth.shape[0]:
        return [f"accuracy {reported_accuracy!r} != brute force {best / truth.shape[0]!r}"]
    return []


def check_solve(z, iterations, residual_history, n, max_iter):
    """A finite n x n Z, and one residual per iteration within the budget."""
    problems = []
    if z is None or z.shape != (n, n) or not np.all(np.isfinite(z)):
        problems.append("Z is not a finite n x n matrix")
    if len(residual_history) != iterations or not 1 <= iterations <= max_iter:
        problems.append(
            f"{len(residual_history)} residuals for {iterations} iterations "
            f"(max_iter {max_iter})"
        )
    return problems


def _pair_sum(z, members):
    """Sum of ||z_a - z_b||^2 over the unordered pairs of `members`."""
    pts = z[:, members]
    diff = pts[:, :, None] - pts[:, None, :]
    return 0.5 * float(np.sum(diff * diff))


def _check_operator(matrix, quadratic_form, z, expected):
    problems = []
    if not np.array_equal(matrix, matrix.T):
        problems.append("operator is not symmetric")
    scale = max(float(np.abs(matrix).max()), 1e-300) * matrix.shape[0]
    if np.abs(matrix.sum(axis=1)).max() > 1e-12 * scale:
        problems.append("operator row sums are not zero")
    got = quadratic_form(z)
    if abs(got - expected) > QF_RTOL * max(abs(expected), 1e-300):
        problems.append(f"quadratic form {got!r} != brute force {expected!r}")
    return problems


def check_clique_operator(operator, graph, data, z):
    """Clique expansion: weights recomputed from the points, and
    tr(Z L Z^T) = sum_e w_e sum_{a<b in e} ||z_a - z_b||^2."""
    problems, expected = [], 0.0
    for edge in graph.edges:
        members = list(edge.vertices)
        weight = 1.0 / len(members) / max(_pair_sum(data, members), 1e-12)
        if abs(edge.weight - weight) > 1e-9 * weight:
            problems.append(f"edge weight {edge.weight!r} != {weight!r}")
            break
        expected += edge.weight * _pair_sum(z, members)
    return problems + _check_operator(operator.matrix, operator.quadratic_form, z, expected)


def knn_lists(data, k):
    """k nearest neighbours of each column by direct differences, ties to the lower index."""
    diff = data[:, :, None] - data[:, None, :]
    dist = np.sqrt(np.sum(diff * diff, axis=0))
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


def check_knn_operator(operator, kind, data, k, z):
    """kNN graph: sum of ||z_i - z_j||^2 over the OR-symmetrized edges.
    kNN hypergraph: sum over the stars {i} + N(i) of pair sums / (k + 1)."""
    neighbors = knn_lists(data, k)
    if kind == "knn-graph":
        pairs = {(min(i, j), max(i, j)) for i, row in enumerate(neighbors) for j in row}
        expected = sum(_pair_sum(z, [i, j]) for i, j in pairs)
    else:
        expected = sum(
            _pair_sum(z, [i, *row]) / (k + 1) for i, row in enumerate(neighbors)
        )
    return _check_operator(operator.matrix, operator.quadratic_form, z, expected)
