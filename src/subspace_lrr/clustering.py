"""Spectral clustering of learned coefficients, with a seeded k-means core."""

import numpy as np
from scipy import linalg
from scipy.sparse import csgraph
from scipy.sparse import linalg as sparse_linalg

from .errors import InvalidInputError, InvalidParameterError, NumericalError

# Added to zero rows of the affinity degree so D^{-1/2} stays finite.
DEGREE_FLOOR = 1e-12

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
# k-means values within this relative gap tie, and the lower index wins, as in
# exact arithmetic: rounding picks no nearest center, re-seed point or restart.
KMEANS_TIE_RTOL = 1e-9

# Seed of the fixed random Lanczos start vector, so NCut stays deterministic.
LANCZOS_SEED = 0
# Taken off the certificate's diagonal before its Cholesky. It exceeds the
# Cholesky's backward error (of order n * machine epsilon * ||M||, with
# ||M|| < 5 here), so a success proves the certificate and is no rounding
# accident; an eigenvalue gap below 2 * CERTIFICATE_MARGIN is not certified.
CERTIFICATE_MARGIN = 1e-9


def affinity_from_coefficients(z):
    """Symmetric nonnegative affinity (|Z| + |Z^T|) / 2 with zero diagonal."""
    z = np.asarray(z, dtype=float)
    w = 0.5 * (np.abs(z) + np.abs(z.T))
    np.fill_diagonal(w, 0.0)
    return w


def _plus_plus_init(x, k, rng):
    """Seeded k-means++ center selection."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = rng.integers(n)
    centers[0] = x[first]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers[c] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centers[c]) ** 2, axis=1))
    return centers


def _lloyd(x, k, rng):
    """Lloyd steps until no label changes; returns the labels and their inertia."""
    centers = _plus_plus_init(x, k, rng)
    # one row per coordinate: numpy reduces over a short inner axis slowly
    points = np.ascontiguousarray(x.T)
    labels = None
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((points[None, :, :] - centers[:, :, None]) ** 2).sum(axis=1)  # k x n
        dist2 = d2.min(axis=0)
        # the first True, so the lowest tied index
        new_labels = (d2 <= dist2 * (1.0 + KMEANS_TIE_RTOL)).argmax(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        sums = np.stack([np.bincount(labels, weights=row, minlength=k) for row in points], axis=1)
        centers = sums / np.maximum(counts, 1)[:, None]
        # the point farthest from its center
        centers[counts == 0] = x[(dist2 >= dist2.max() * (1.0 - KMEANS_TIE_RTOL)).argmax()]
    return labels, float(dist2.sum())


def kmeans(x, k, seed=0):
    """Best-of-restarts Lloyd iteration with seeded plus-plus initialization.

    Deterministic given (x, k, seed): restart r uses seed + r, and the
    lowest-inertia restart wins, with ties (`KMEANS_TIE_RTOL`) broken by
    restart index. Clusters are numbered by first appearance.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if not (1 <= k <= n):
        raise InvalidParameterError(f"k must be in [1, {n}]")
    if k == 1:
        return np.zeros(n, dtype=int)
    best_labels, best_inertia = None, np.inf
    for r in range(KMEANS_RESTARTS):
        labels, inertia = _lloyd(x, k, np.random.default_rng(seed + r))
        if inertia < best_inertia * (1.0 - KMEANS_TIE_RTOL):
            best_labels, best_inertia = labels, inertia
    _, first, inverse = np.unique(best_labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _certified_top_eigenvectors(a, k):
    """The k eigenvectors of the k largest eigenvalues of the symmetric
    matrix `a`, largest first, by implicitly restarted Lanczos (ARPACK), or
    None when they are not certified.

    With Ritz values mu_1 >= ... >= mu_{k+1} and top-k Ritz vectors V, put
    theta = (mu_k + mu_{k+1}) / 2 and M = theta I - A + c V V^T, with
    c = 1 + mu_1 - theta. If M is positive definite, then theta I - A, which
    differs from M by the rank-k term c V V^T, has at most k negative
    eigenvalues (Sylvester's law of inertia), so no eigenvalue of A above
    theta lies outside span V. A Cholesky of M - CERTIFICATE_MARGIN I tests
    this, and a Lanczos run that missed a copy of a repeated eigenvalue fails.
    """
    n = a.shape[0]
    if k + 1 >= n:
        return None
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(n)
    try:
        mu, vecs = sparse_linalg.eigsh(a, k=k + 1, which="LA", v0=v0)
    except sparse_linalg.ArpackError:
        return None
    mu, vecs = mu[::-1], vecs[:, ::-1]  # eigsh returns them ascending
    theta = 0.5 * (mu[k - 1] + mu[k])
    top = vecs[:, :k]
    cert = (1.0 + mu[0] - theta) * (top @ top.T)
    cert -= a
    cert[np.diag_indices(n)] += theta - CERTIFICATE_MARGIN
    try:
        linalg.cholesky(cert, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    return top


def ncut_spectral(w, k, seed=0):
    """Normalized-cut spectral clustering of a symmetric affinity matrix.

    Embeds points into the k bottom eigenvectors of the symmetric
    normalized Laplacian I - A, A = D^{-1/2} W D^{-1/2}, row-normalizes,
    and clusters with seeded k-means. Those are the k top eigenvectors of
    A, taken by certified Lanczos (`_certified_top_eigenvectors`). When the
    certificate fails, ARPACK fails or k + 1 >= n, a partial dense LAPACK
    eigensolve of A takes the same k, in the same order, instead.
    An all-zero affinity is rejected, and so is one with more than k
    connected components: any labels drawn from them are arbitrary.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    if not (2 <= k <= n):
        raise InvalidParameterError(f"k must be in [2, {n}]")
    if not np.any(w):
        raise InvalidInputError("affinity is all zero, so it has no structure to cut")
    deg = w.sum(axis=1)
    linked = deg > 0
    d_inv_sqrt = 1.0 / np.sqrt(np.where(linked, deg, DEGREE_FLOOR))
    a = d_inv_sqrt[:, None] * w
    a *= d_inv_sqrt[None, :]
    a = a + a.T
    a *= 0.5
    embedding = _certified_top_eigenvectors(a, k)
    if embedding is None:
        # eigenvalue 1 repeats once per component, but not for a zero-degree point
        components = csgraph.connected_components(w, directed=False)[0] - np.sum(~linked)
        if components > k:
            raise InvalidInputError(f"affinity has {components} connected components, more "
                                    f"than k = {k}, so its cut is not unique")
        try:
            embedding = linalg.eigh(a, subset_by_index=[n - k, n - 1])[1][:, ::-1]
        except np.linalg.LinAlgError as exc:
            raise NumericalError("eigendecomposition of the normalized affinity failed") from exc
    norms = np.linalg.norm(embedding, axis=1)
    nonzero = norms > 0
    embedding[nonzero] /= norms[nonzero, None]
    return kmeans(embedding, k, seed=seed)
