"""Locality structures: hand-checked constructions plus matrix properties."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from subspace_lrr import (
    Hyperedge,
    Hypergraph,
    LocalityOperator,
    ObservationMatrix,
    epsilon_ball_hyperedges,
    knn_graph_laplacian,
    knn_hypergraph_laplacian,
    locality_operator_from_hypergraph,
)
from subspace_lrr.errors import InvalidInputError, InvalidParameterError
from subspace_lrr.hypergraph import _clique_operator, _knn_sets


def random_hypergraph(rng, n):
    """A random hypergraph on n vertices with random positive weights."""
    edges = []
    seen = set()
    for _ in range(rng.integers(1, 6)):
        size = int(rng.integers(2, n + 1))
        verts = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        if verts in seen:
            continue
        seen.add(verts)
        edges.append(Hyperedge(verts, float(rng.uniform(0.1, 5.0))))
    return Hypergraph(n, tuple(edges))


def brute_force_quadratic(graph, z):
    """Sum over edges of a(e) * sum of squared column differences."""
    total = 0.0
    for e in graph.edges:
        for a_idx, i in enumerate(e.vertices):
            for j in e.vertices[a_idx + 1:]:
                total += e.weight * float(np.sum((z[:, i] - z[:, j]) ** 2))
    return total


def assert_quadratic_form_matches_brute_force(graph, z):
    op = locality_operator_from_hypergraph(graph)
    assert op.quadratic_form(z) == pytest.approx(
        brute_force_quadratic(graph, z), rel=1e-10, abs=1e-12
    )


def assert_laplacian_properties(op):
    """Symmetric, zero row sums and PSD, to tolerances scaled by ||L||_2."""
    scale = max(np.linalg.norm(op.matrix, 2), 1.0)
    np.testing.assert_allclose(op.matrix, op.matrix.T, atol=1e-12)
    np.testing.assert_allclose(op.matrix.sum(axis=1), 0.0, atol=1e-8 * scale)
    assert np.linalg.eigvalsh(op.matrix).min() >= -1e-8 * scale


class TestObservationMatrix:
    def test_pairwise_distances_match_a_direct_difference(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 15))
        direct = np.linalg.norm(x[:, :, None] - x[:, None, :], axis=0)
        np.testing.assert_allclose(ObservationMatrix(x).pairwise_distances(), direct,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("exponent", [-600, -3, 5, 600])
    def test_pairwise_distances_scale_exactly_by_powers_of_two(self, exponent):
        # 2**600 overflows the unscaled Gram product and 2**-600 underflows it
        x = np.random.default_rng(13).normal(size=(3, 15))
        base = ObservationMatrix(x).pairwise_distances()
        scaled = ObservationMatrix(np.ldexp(x, exponent)).pairwise_distances()
        np.testing.assert_array_equal(scaled, np.ldexp(base, exponent))

    def test_huge_coordinate_keeps_a_neighbour(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = knn_graph_laplacian(ObservationMatrix([[1e200, 0.0, 1.0, 2.0]]), 1)
        # point 0 is joined to point 1, the lowest index at its nearest distance
        assert op.matrix[0, 0] == 1.0
        assert op.matrix[0, 1] == -1.0


class TestLocalityOperator:
    LAPLACIAN = np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(InvalidInputError):
            LocalityOperator(np.zeros(shape))

    def test_rejects_asymmetry_above_tolerance(self):
        mat = self.LAPLACIAN.copy()
        mat[0, 1] += 3e-12  # max |L| = 2, so the tolerance is 2e-12
        with pytest.raises(InvalidInputError):
            LocalityOperator(mat)

    @pytest.mark.parametrize("asymmetry", [0.0, 1e-12])
    def test_owns_a_symmetric_read_only_copy(self, asymmetry):
        mat = self.LAPLACIAN.copy()
        mat[0, 1] += asymmetry
        before = mat.copy()
        op = LocalityOperator(mat)
        np.testing.assert_array_equal(op.matrix, 0.5 * (before + before.T))
        np.testing.assert_array_equal(mat, before)
        assert mat.flags.writeable
        assert not op.matrix.flags.writeable
        assert not np.shares_memory(op.matrix, mat)


class TestEpsilonBall:
    def test_three_point_line(self):
        obs = ObservationMatrix([[0.0, 0.04, 0.08]])
        graph = epsilon_ball_hyperedges(obs, 0.05)
        assert {e.vertices for e in graph.edges} == {(0, 1), (0, 1, 2), (1, 2)}
        assert max(map(len, graph.edges)) == 3

    def test_far_points_give_empty_graph(self):
        obs = ObservationMatrix([[0.0, 1.0]])
        graph = epsilon_ball_hyperedges(obs, 0.5)
        assert graph.edges == ()
        assert max(map(len, graph.edges), default=0) == 0

    def test_identical_points_merge_to_one_edge(self):
        obs = ObservationMatrix(np.ones((2, 5)))
        graph = epsilon_ball_hyperedges(obs, 0.3)
        assert len(graph.edges) == 1
        assert graph.edges[0].vertices == (0, 1, 2, 3, 4)
        assert max(map(len, graph.edges)) == 5
        # coincident points hit the degenerate-distance clamp
        assert graph.edges[0].weight == pytest.approx((1 / 5) * 1e12)

    def test_quantile_mode_threshold(self):
        rng = np.random.default_rng(0)
        obs = ObservationMatrix(rng.normal(size=(2, 12)))
        graph = epsilon_ball_hyperedges(obs, 0.2, mode="quantile")
        assert len(graph.edges) >= 1

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(2, 10))
        perm = rng.permutation(10)
        base = epsilon_ball_hyperedges(ObservationMatrix(y), 0.8)
        permuted = epsilon_ball_hyperedges(ObservationMatrix(y[:, perm]), 0.8)
        inverse = np.argsort(perm)
        expected = {
            tuple(sorted(inverse[list(e.vertices)])) for e in base.edges
        }
        got = {e.vertices for e in permuted.edges}
        assert got == expected

        # every operator relabels with its points: L(Y P) = P^T L(Y) P
        for build in (
            lambda obs: locality_operator_from_hypergraph(epsilon_ball_hyperedges(obs, 0.8)),
            lambda obs: knn_graph_laplacian(obs, 3),
            lambda obs: knn_hypergraph_laplacian(obs, 3),
        ):
            lap = build(ObservationMatrix(y)).matrix
            lap_permuted = build(ObservationMatrix(y[:, perm])).matrix
            np.testing.assert_allclose(
                lap_permuted, lap[np.ix_(perm, perm)], rtol=0,
                atol=1e-12 * np.abs(lap).max(),
            )

    def test_bad_parameters(self):
        obs = ObservationMatrix([[0.0, 1.0]])
        with pytest.raises(InvalidParameterError):
            epsilon_ball_hyperedges(obs, 0.0)
        with pytest.raises(InvalidParameterError):
            epsilon_ball_hyperedges(obs, 1.5, mode="quantile")
        with pytest.raises(InvalidInputError):
            ObservationMatrix([[0.0, np.nan]])


def ball_edge_weight(points, vertices, eps):
    """Weight of the edge on `vertices` that epsilon_ball_hyperedges builds."""
    graph = epsilon_ball_hyperedges(ObservationMatrix(points), eps)
    return {e.vertices: e.weight for e in graph.edges}[vertices]


class TestHyperedgeWeight:
    def test_pair_at_distance_half(self):
        assert ball_edge_weight([[0.0, 0.5]], (0, 1), 1.0) == pytest.approx(2.0)

    def test_equilateral_triangle(self):
        points = [[0.0, 1.0, 0.5], [0.0, 0.0, np.sqrt(3) / 2]]
        assert ball_edge_weight(points, (0, 1, 2), 1.5) == pytest.approx(1 / 9)

    def test_coincident_pair_clamped(self):
        assert ball_edge_weight([[1.0, 1.0]], (0, 1), 0.5) == pytest.approx(0.5e12)

    def test_edge_weights_match_pair_loop(self):
        rng = np.random.default_rng(4)
        obs = ObservationMatrix(rng.normal(size=(3, 30)))
        graph = epsilon_ball_hyperedges(obs, 0.2, mode="quantile")
        assert max(map(len, graph.edges)) > 2
        for e in graph.edges:
            pair_sum = sum(
                float(np.sum((obs.data[:, i] - obs.data[:, j]) ** 2))
                for a, i in enumerate(e.vertices) for j in e.vertices[a + 1:]
            )
            assert e.weight == pytest.approx(1 / len(e) / pair_sum, rel=1e-12)


class TestHyperedge:
    @pytest.mark.parametrize("vertices, weight", [
        ((0,), 1.0),
        ((1, 0), 1.0),
        ((0, 1), 0.0),
        ((0, 1), -1.0),
        ((0, 1), np.inf),
        ((0, 1), np.nan),
        ((0, 1.7), 1.0),
        ((-1, 0), 1.0),
        ((0, 1), 10**400),
    ], ids=["singleton", "unsorted", "zero-weight", "negative-weight", "inf-weight",
            "nan-weight", "non-integral-id", "negative-id", "too-large-weight"])
    def test_rejects_malformed_edge(self, vertices, weight):
        with pytest.raises(InvalidInputError):
            Hyperedge(vertices, weight)

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(InvalidInputError):
            Hypergraph(2, (Hyperedge((0, 2), 1.0),))

    def test_rejects_duplicate_edges(self):
        with pytest.raises(InvalidInputError):
            Hypergraph(3, (Hyperedge((0, 1), 1.0), Hyperedge((0, 1), 2.0)))


class TestCliqueExpansion:
    def test_single_pair_edge(self):
        graph = Hypergraph(4, (Hyperedge((0, 1), 2.5),))
        op = locality_operator_from_hypergraph(graph)
        expected = np.zeros((4, 4))
        expected[:2, :2] = 2.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(op.matrix, expected)

    def test_triangle_edge(self):
        graph = Hypergraph(3, (Hyperedge((0, 1, 2), 1.0),))
        op = locality_operator_from_hypergraph(graph)
        np.testing.assert_allclose(
            op.matrix, 3.0 * np.eye(3) - np.ones((3, 3))
        )

    def test_empty_graph_is_zero(self):
        op = locality_operator_from_hypergraph(Hypergraph(4, ()))
        np.testing.assert_array_equal(op.matrix, np.zeros((4, 4)))

    def test_quadratic_form_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            graph = random_hypergraph(rng, n)
            z = rng.normal(size=(int(rng.integers(1, 5)), n))
            assert_quadratic_form_matches_brute_force(graph, z)


class TestKnnLaplacians:
    def test_knn_graph_collinear(self):
        obs = ObservationMatrix([[0.0, 1.0, 3.0]])
        op = knn_graph_laplacian(obs, 1)
        np.testing.assert_allclose(
            op.matrix, [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
        )

    def test_knn_graph_pair(self):
        obs = ObservationMatrix([[0.0, 1.0]])
        op = knn_graph_laplacian(obs, 1)
        np.testing.assert_allclose(op.matrix, [[1.0, -1.0], [-1.0, 1.0]])

    def test_knn_hypergraph_pair(self):
        obs = ObservationMatrix([[0.0, 1.0]])
        op = knn_hypergraph_laplacian(obs, 1)
        np.testing.assert_allclose(op.matrix, [[1.0, -1.0], [-1.0, 1.0]])

    def test_knn_hypergraph_collinear(self):
        obs = ObservationMatrix([[0.0, 1.0, 3.0]])
        op = knn_hypergraph_laplacian(obs, 1)
        np.testing.assert_allclose(
            op.matrix,
            [[1.0, -1.0, 0.0], [-1.0, 1.5, -0.5], [0.0, -0.5, 0.5]],
        )

    @pytest.mark.parametrize(
        "x, k",
        [
            # point 1 is as near to point 0 as to point 2 and picks point 0
            ([0, 1, 2], 1),
            # the same tie, which the kNN graph shows as no edge (1, 2)
            ([0, 2, 4, 5], 1),
            # many ties, where an unstable sort or an argpartition picks others
            (list(range(10)), 3),
            ([0, 1, 2, 3, 5, 6, 7, 8, 10, 11], 5),
        ],
    )
    def test_knn_ties_go_to_the_lower_index(self, x, k):
        n = len(x)
        graph, hyper = np.zeros((n, n)), np.zeros((n, n))
        for i in range(n):
            others = sorted((j for j in range(n) if j != i), key=lambda j: (abs(x[i] - x[j]), j))
            nbrs = others[:k]
            graph[i, nbrs] = graph[nbrs, i] = -1.0
            star = [i, *nbrs]
            hyper[np.ix_(star, star)] -= 1.0 / (k + 1)
            hyper[star, star] += 1.0
        np.fill_diagonal(graph, -graph.sum(axis=1))
        obs = ObservationMatrix(np.array([x], dtype=float))
        np.testing.assert_array_equal(knn_graph_laplacian(obs, k).matrix, graph)
        np.testing.assert_allclose(knn_hypergraph_laplacian(obs, k).matrix, hyper, atol=1e-12)

    # a small integer grid gives many tied distances and some coincident points
    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(1, 3), st.integers(2, 24)).flatmap(
        lambda shape: arrays(np.int64, shape, elements=st.integers(0, 3))))
    def test_knn_sets_equal_a_stable_argsort(self, x):
        obs = ObservationMatrix(x)
        dist = obs.pairwise_distances()
        np.fill_diagonal(dist, np.inf)
        order = np.argsort(dist, axis=1, kind="stable")
        for k in range(1, obs.n):
            np.testing.assert_array_equal(_knn_sets(obs, k), np.sort(order[:, :k], axis=1))

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_star_member_order_leaves_the_operator_unchanged(self, k):
        # edge ids rise along the packed members, so H's CSR layout does not
        # depend on the order of the members inside each star
        rng = np.random.default_rng(k)
        obs = ObservationMatrix(rng.normal(size=(2, 30)))
        stars = np.column_stack([np.arange(obs.n), _knn_sets(obs, k)])
        sizes, weights = np.full(obs.n, k + 1), np.full(obs.n, 1.0 / (k + 1))
        expected = knn_hypergraph_laplacian(obs, k).matrix.tobytes()
        for _ in range(5):
            shuffled = rng.permuted(stars, axis=1)
            assert _clique_operator(obs.n, shuffled.ravel(), sizes, weights).matrix.tobytes() == expected

    def test_k_out_of_range(self):
        obs = ObservationMatrix([[0.0, 1.0, 3.0]])
        for k in (0, 3):
            with pytest.raises(InvalidParameterError):
                knn_graph_laplacian(obs, k)
            with pytest.raises(InvalidParameterError):
                knn_hypergraph_laplacian(obs, k)


class TestOperatorProperties:
    def test_symmetric_zero_rowsum_psd(self):
        rng = np.random.default_rng(11)
        operators = []
        for _ in range(10):
            n = int(rng.integers(4, 51))
            obs = ObservationMatrix(rng.normal(size=(3, n)))
            operators.append(
                locality_operator_from_hypergraph(
                    epsilon_ball_hyperedges(obs, 0.3, mode="quantile")
                )
            )
            k = int(rng.integers(1, min(6, n)))
            operators.append(knn_graph_laplacian(obs, k))
            operators.append(knn_hypergraph_laplacian(obs, k))
        for op in operators:
            assert_laplacian_properties(op)
