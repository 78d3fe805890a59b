"""Spectral clustering of learned coefficients, with a seeded k-means core."""

import numpy as np
from scipy import linalg
from scipy.sparse import linalg as sparse_linalg

from .errors import InvalidInputError, InvalidParameterError, NumericalError

# Added to zero rows of the affinity degree so D^{-1/2} stays finite.
DEGREE_FLOOR = 1e-12

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
KMEANS_REL_TOL = 1e-6

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
    eigensolve of I - A takes only those k instead.
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
    a = d_inv_sqrt[:, None] * w
    a *= d_inv_sqrt[None, :]
    a = a + a.T
    a *= 0.5
    embedding = _certified_top_eigenvectors(a, k)
    if embedding is None:
        try:
            _, embedding = linalg.eigh(np.eye(n) - a, subset_by_index=[0, k - 1])
        except np.linalg.LinAlgError as exc:
            raise NumericalError("eigendecomposition of the normalized Laplacian failed") from exc
    norms = np.linalg.norm(embedding, axis=1)
    nonzero = norms > 0
    embedding[nonzero] /= norms[nonzero, None]
    return kmeans(embedding, k, seed=seed)
