"""Clustering accuracy through optimal label matching."""

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .errors import InvalidInputError


def hungarian(cost):
    """Minimum-cost perfect assignment on a square cost matrix.

    Returns the permutation p with p[row] = assigned column, by csgraph's
    sparse Jonker-Volgenant matching. That drops zero weights, and its time
    grows with the cost range over the gap between near-tied assignments,
    so the cost is scaled by a power of two, rounded to integers in
    [-2^24, 2^24] and shifted to at least 1. Integer costs below 2^24 keep
    their exact optimum; others are met to within n * 2^-23 * max|cost|.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise InvalidInputError("cost matrix must be square")
    if not np.all(np.isfinite(cost)):
        raise InvalidInputError("cost matrix must be finite")
    weights = np.rint(np.ldexp(cost, 24 - np.frexp(np.abs(cost).max(initial=0.0))[1]))
    weights += 2.0**24 + 1.0
    n = len(weights)
    # every entry is at least 1, so the CSR layout is the dense row-major one
    indptr = n * np.arange(n + 1)
    indices = np.tile(np.arange(n), n)
    graph = sparse.csr_array((weights.ravel(), indices, indptr), shape=(n, n))
    return min_weight_full_bipartite_matching(graph)[1].astype(int)


def confusion_matrix(pred, truth):
    """Square count matrix indexed [truth label, predicted label].

    Labels are mapped to dense indices per side; the matrix is padded
    square so the assignment stays bijective when one side uses fewer
    clusters.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise InvalidInputError("label vectors must be 1-D of equal length")
    t_ids, t_idx = np.unique(truth, return_inverse=True)
    p_ids, p_idx = np.unique(pred, return_inverse=True)
    k = max(len(t_ids), len(p_ids))
    counts = np.zeros((k, k), dtype=int)
    np.add.at(counts, (t_idx, p_idx), 1)
    return counts


def accuracy(pred, truth):
    """Fraction of points whose predicted label matches the truth under the
    agreement-maximizing label permutation."""
    counts = confusion_matrix(pred, truth)
    n = np.asarray(pred).shape[0]
    if n == 0:
        raise InvalidInputError("empty label vectors")
    perm = hungarian(counts.max() - counts)
    matched = counts[np.arange(len(perm)), perm].sum()
    return float(matched) / n
