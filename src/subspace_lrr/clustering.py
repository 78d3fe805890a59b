"""Spectral clustering of learned coefficients, with a seeded k-means core."""

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, NumericalError

# Added to zero rows of the affinity degree so D^{-1/2} stays finite.
DEGREE_FLOOR = 1e-12

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
KMEANS_REL_TOL = 1e-6


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
    n = x.shape[0]
    centers = _plus_plus_init(x, k, rng)
    prev_inertia = np.inf
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        inertia = d2[np.arange(n), labels].sum()
        for c in range(k):
            members = labels == c
            if members.any():
                centers[c] = x[members].mean(axis=0)
            else:
                # re-seed an empty cluster from the farthest point
                far = d2.min(axis=1).argmax()
                centers[c] = x[far]
        if prev_inertia - inertia <= KMEANS_REL_TOL * max(prev_inertia, 1e-300):
            break
        prev_inertia = inertia
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, inertia


def kmeans(x, k, seed=0):
    """Best-of-restarts Lloyd iteration with seeded plus-plus initialization.

    Deterministic given (x, k, seed): restart r uses seed + r, and the
    lowest-inertia restart wins with ties broken by restart index.
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
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def ncut_spectral(w, k, seed=0):
    """Normalized-cut spectral clustering of a symmetric affinity matrix.

    Embeds points into the k bottom eigenvectors of the symmetric
    normalized Laplacian, row-normalizes, and clusters with seeded k-means.
    An all-zero affinity is rejected: any labels drawn from it are arbitrary.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    if not (2 <= k <= n):
        raise InvalidParameterError(f"k must be in [2, {n}]")
    if not np.any(w):
        raise InvalidInputError("affinity is all zero, so it has no structure to cut")
    deg = w.sum(axis=1)
    deg = np.where(deg > 0, deg, DEGREE_FLOOR)
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    l_sym = np.eye(n) - (d_inv_sqrt[:, None] * w) * d_inv_sqrt[None, :]
    l_sym = 0.5 * (l_sym + l_sym.T)
    try:
        _, vecs = np.linalg.eigh(l_sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition of the normalized Laplacian failed") from exc
    embedding = vecs[:, :k]
    norms = np.linalg.norm(embedding, axis=1)
    nonzero = norms > 0
    embedding[nonzero] /= norms[nonzero, None]
    return kmeans(embedding, k, seed=seed)
