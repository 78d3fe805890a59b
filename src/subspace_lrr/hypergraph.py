"""Locality structures on point clouds.

Builds epsilon-ball hypergraphs with density-dependent edge weights, plus
the classic kNN graph / kNN hypergraph Laplacians. All three reduce, by one
clique expansion, to a symmetric PSD operator whose quadratic form
tr(Z L Z^T) penalizes spread of coefficient columns over each neighborhood.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import InvalidInputError, InvalidParameterError

# Pairwise-distance sums below this are clamped before inversion so that
# coincident points do not produce infinite edge weights.
WEIGHT_FLOOR = 1e-12


def _positive_finite(x):
    """x > 0 and finite as a float; a Python int too large for one is not."""
    try:
        return x > 0 and math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class ObservationMatrix:
    """M x N data matrix whose columns are the observed points."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise InvalidInputError("observations must be a 2-D matrix")
        if not np.all(np.isfinite(data)):
            raise InvalidInputError("observations contain non-finite entries")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def m(self):
        return self.data.shape[0]

    @property
    def n(self):
        return self.data.shape[1]

    def pairwise_distances(self):
        """Dense N x N Euclidean distance matrix between columns. Fewer than
        two columns raise InvalidInputError: every caller needs a pair.

        The data are scaled by a power of two that brings the largest
        magnitude into [0.5, 1), so the Gram product cannot overflow, and the
        result is scaled back. Scaling by a power of two is exact, so every
        distance that the unscaled product computes without overflow or
        underflow comes out the same, bit for bit.
        """
        if self.n < 2:
            raise InvalidInputError("need at least two observations")
        exponent = np.frexp(np.abs(self.data).max(initial=0.0))[1]
        y = np.ldexp(self.data, -exponent)
        g = y.T @ y
        sq = np.diag(g)
        d2 = np.add.outer(sq, sq)
        g *= 2.0
        d2 -= g
        np.maximum(d2, 0.0, out=d2)
        np.sqrt(d2, out=d2)
        return np.ldexp(d2, exponent, out=d2)


@dataclass(frozen=True)
class Hyperedge:
    """A weighted set of at least two vertices."""

    vertices: tuple
    weight: float

    def __post_init__(self):
        try:
            verts = tuple(map(operator.index, self.vertices))
        except TypeError:
            raise InvalidInputError("hyperedge vertex ids must be integers") from None
        if len(verts) < 2:
            raise InvalidInputError("hyperedge needs at least two vertices")
        if verts[0] < 0 or any(b <= a for a, b in zip(verts, verts[1:])):
            raise InvalidInputError("hyperedge vertex ids must be nonnegative, strictly increasing")
        if not _positive_finite(self.weight):
            raise InvalidInputError("hyperedge weight must be positive and finite")
        object.__setattr__(self, "vertices", verts)

    def __len__(self):
        return len(self.vertices)


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus a deduplicated list of weighted hyperedges."""

    n: int
    edges: tuple

    def __post_init__(self):
        edges = tuple(self.edges)
        seen = set()
        for e in edges:
            if e.vertices[-1] >= self.n:
                raise InvalidInputError("hyperedge vertex out of range")
            if e.vertices in seen:
                raise InvalidInputError("duplicate hyperedge vertex sets")
            seen.add(e.vertices)
        object.__setattr__(self, "edges", edges)


@dataclass(frozen=True)
class LocalityOperator:
    """Symmetric PSD matrix realizing a neighborhood-spread penalty."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidInputError("locality operator must be square")
        if not np.isfinite(mat).all():
            raise InvalidInputError("locality operator must be finite")
        # exactly, as `ncut_spectral` asks of an affinity; every clique product is
        if not np.array_equal(mat, mat.T):
            raise InvalidInputError("locality operator must be exactly symmetric")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self):
        return self.matrix.shape[0]

    def quadratic_form(self, z):
        """tr(Z L Z^T) for a coefficient matrix Z with columns z_i."""
        return float(np.trace(z @ self.matrix @ z.T))


def _edge_weights(points, members, sizes):
    """(1/c) / sum_{a<b} ||x_a - x_b||^2 for each edge packed in `members`.

    The pair sum is taken as c * sum_a ||x_a - centroid||^2, which does not
    cancel as a Gram-matrix difference would, and clamped to WEIGHT_FLOOR.
    """
    sizes = np.asarray(sizes, dtype=int)
    starts = np.cumsum(sizes) - sizes
    pts = points[:, members]
    centroids = np.add.reduceat(pts, starts, axis=1) / sizes
    pts -= np.repeat(centroids, sizes, axis=1)
    total = sizes * np.add.reduceat(np.sum(pts * pts, axis=0), starts)
    return (1.0 / sizes) / np.maximum(total, WEIGHT_FLOOR)


def epsilon_ball_hyperedges(observations, eps, mode="absolute"):
    """Hyperedges from epsilon-ball neighborhoods of each point.

    Each point spawns a candidate edge consisting of itself plus every point
    strictly within the radius. In "quantile" mode `eps` is read as a
    quantile q in (0, 1) of all pairwise distances, yielding a
    scale-independent threshold. Singleton candidates are dropped and
    identical vertex sets merged.
    """
    n = observations.n
    dist = observations.pairwise_distances()
    if mode == "absolute":
        if not _positive_finite(eps):
            raise InvalidParameterError("eps must be positive and finite")
        threshold = float(eps)
    elif mode == "quantile":
        if not (0.0 < eps < 1.0):
            raise InvalidParameterError("quantile must lie in (0, 1)")
        threshold = float(np.quantile(dist[np.triu_indices(n, k=1)], eps))
    else:
        raise InvalidParameterError(f"unknown eps mode: {mode!r}")

    balls = dist < threshold
    np.fill_diagonal(balls, True)
    vertex_sets = sorted({tuple(np.flatnonzero(r).tolist()) for r in balls[balls.sum(1) >= 2]})
    sizes = [len(verts) for verts in vertex_sets]
    members = [v for verts in vertex_sets for v in verts]
    weights = _edge_weights(observations.data, members, sizes).tolist()
    edges = tuple(Hyperedge(verts, w) for verts, w in zip(vertex_sets, weights))
    return Hypergraph(n=n, edges=edges)


def _clique_operator(n, members, sizes, weights):
    """Clique expansion L = diag(H (w * sizes)) - H diag(w) H^T.

    H is the n x E incidence matrix of the edges packed end to end in
    `members`: edge e adds w_e (|e| diag(1_e) - 1_e 1_e^T), whose quadratic
    form sums w_e ||z_i - z_j||^2 over the vertex pairs of e. Edge ids rise
    along `members`, so H, and L, do not depend on the order inside an edge.
    """
    sizes = np.asarray(sizes, dtype=int)
    weights = np.asarray(weights, dtype=float)
    edge_of = np.repeat(np.arange(sizes.size), sizes)
    h = sparse.csr_matrix((np.ones(edge_of.size), (members, edge_of)), shape=(n, sizes.size))
    mat = (h @ sparse.diags(weights) @ h.T).toarray()
    np.subtract(0.0, mat, out=mat)  # not np.negative, which leaves -0.0 entries
    mat[np.diag_indices(n)] += h @ (weights * sizes)
    return LocalityOperator(mat)


def locality_operator_from_hypergraph(graph):
    """Clique-expansion reduction of a hypergraph to a locality operator."""
    if graph.n < 2:
        raise InvalidInputError("need at least two vertices")
    return _clique_operator(graph.n, [v for e in graph.edges for v in e.vertices],
                            [len(e) for e in graph.edges], [e.weight for e in graph.edges])


def _knn_sets(observations, k):
    """k nearest neighbors of each point (n x k), ties going to the lower
    index, each row in ascending index order: a stable argsort's first k, sorted.

    Selection, not a sort: each row keeps every distance below its k-th
    smallest t, then the lowest-index entries equal to t until it has k.
    """
    n = observations.n
    dist = observations.pairwise_distances()
    if not (1 <= k <= n - 1):
        raise InvalidParameterError(f"k must be in [1, {n - 1}]")
    np.fill_diagonal(dist, np.inf)
    t = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    keep = dist < t
    ties = dist == t
    need = k - keep.sum(axis=1)
    # only rows with more ties at t than they need pay a running count
    over = ties.sum(axis=1) > need
    extra = ties[over]
    extra &= np.cumsum(extra, axis=1) <= need[over, None]
    ties[over] = extra
    keep |= ties
    return np.nonzero(keep)[1].reshape(n, k)


def knn_graph_laplacian(observations, k):
    """Unnormalized Laplacian of the OR-symmetrized binary kNN graph: the
    clique expansion of its unique pairs, each with weight 1."""
    n = observations.n
    neighbors = _knn_sets(observations, k)
    pairs = np.column_stack([np.repeat(np.arange(n), k), neighbors.ravel()])
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)
    return _clique_operator(n, pairs.ravel(), np.full(len(pairs), 2), np.ones(len(pairs)))


def knn_hypergraph_laplacian(observations, k):
    """Hypergraph Laplacian L = D_v - H D_e^{-1} H^T with one unit-weight
    edge per vertex, joining vertex i with its k nearest neighbors.

    Duplicated vertex sets are kept (one incidence column per vertex). This
    is the clique expansion of these stars with weight 1/(k+1).
    """
    n = observations.n
    neighbors = _knn_sets(observations, k)
    stars = np.column_stack([np.arange(n), neighbors])
    return _clique_operator(n, stars.ravel(), np.full(n, k + 1), np.full(n, 1.0 / (k + 1)))
