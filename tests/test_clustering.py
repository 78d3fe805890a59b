"""Spectral clustering and k-means behavior on controlled affinities."""

import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subspace_lrr import accuracy, affinity_from_coefficients, kmeans, ncut_spectral, two_moons
from subspace_lrr.clustering import DEGREE_FLOOR
from subspace_lrr.errors import InvalidInputError, InvalidParameterError


def block_affinity(rng, sizes, within=1.0, cross=0.0):
    """Block-structured affinity with uniform within/cross weights."""
    n = sum(sizes)
    w = np.full((n, n), cross, dtype=float)
    start = 0
    labels = np.empty(n, dtype=int)
    for c, size in enumerate(sizes):
        w[start:start + size, start:start + size] = within
        labels[start:start + size] = c
        start += size
    w += rng.uniform(0, 0.01, size=(n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return w, labels


def exact_block_affinity(rng, sizes):
    """Blocks of random weights in (0.1, 1) with no weight between them, in a
    random order: eigenvalue 1 of D^{-1/2} W D^{-1/2} repeats once per block."""
    n = sum(sizes)
    w = np.zeros((n, n))
    start = 0
    for size in sizes:
        w[start:start + size, start:start + size] = rng.uniform(0.1, 1.0, size=(size, size))
        start += size
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    perm = rng.permutation(n)
    return w[np.ix_(perm, perm)]


def dense_eigensolve_spy():
    """Patch that counts calls of the dense eigensolve NCut falls back to."""
    return mock.patch.object(scipy.linalg, "eigh", wraps=scipy.linalg.eigh)


def assert_lloyd_fixed_point(x, labels):
    """Each point is labelled with the index of its nearest cluster mean."""
    means = np.array([x[labels == c].mean(axis=0) for c in range(labels.max() + 1)])
    d2 = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    own = d2[np.arange(len(x)), labels]
    np.testing.assert_array_less(own, d2.min(axis=1) + 1e-12 * max(d2.max(), 1.0))


def ncut_full_eigh(w, k, seed):
    """ncut_spectral's reference: every eigenpair of the normalized Laplacian
    from a full `np.linalg.eigh`, then the k bottom eigenvectors."""
    deg = w.sum(axis=1)
    d_inv_sqrt = 1.0 / np.sqrt(np.where(deg > 0, deg, DEGREE_FLOOR))
    l_sym = np.eye(len(w)) - (d_inv_sqrt[:, None] * w) * d_inv_sqrt[None, :]
    embedding = np.linalg.eigh(0.5 * (l_sym + l_sym.T))[1][:, :k]
    norms = np.linalg.norm(embedding, axis=1)
    embedding[norms > 0] /= norms[norms > 0, None]
    return kmeans(embedding, k, seed=seed)


class TestAffinity:
    def test_symmetric_nonnegative_fixed_point(self):
        w = np.array([[0.0, 0.3], [0.3, 0.0]])
        np.testing.assert_array_equal(affinity_from_coefficients(w), w)

    def test_symmetrization(self):
        z = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(
            affinity_from_coefficients(z), [[0.0, 0.5], [0.5, 0.0]]
        )

    def test_always_symmetric_nonnegative_zero_diagonal(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = rng.normal(size=(6, 6))
            w = affinity_from_coefficients(z)
            np.testing.assert_array_equal(w, w.T)
            assert np.all(w >= 0)
            np.testing.assert_array_equal(np.diag(w), 0.0)


class TestNcut:
    def test_two_disconnected_blocks(self):
        rng = np.random.default_rng(1)
        w, truth = block_affinity(rng, [8, 12], cross=0.0)
        labels = ncut_spectral(w, 2, seed=0)
        assert accuracy(labels, truth) == 1.0

    def test_k_connected_components_recovered(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            sizes = rng.integers(4, 9, size=3).tolist()
            w, truth = block_affinity(rng, sizes, cross=0.0)
            perm = rng.permutation(sum(sizes))
            labels = ncut_spectral(w[np.ix_(perm, perm)], 3, seed=trial)
            assert accuracy(labels, truth[perm]) == 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        w, _ = block_affinity(rng, [7, 7], cross=0.05)
        a = ncut_spectral(w, 2, seed=5)
        b = ncut_spectral(7.3 * w, 2, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(size=(15, 15))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        np.testing.assert_array_equal(
            ncut_spectral(w, 3, seed=9), ncut_spectral(w, 3, seed=9)
        )

    def test_k_equals_n(self):
        rng = np.random.default_rng(5)
        w, _ = block_affinity(rng, [3, 3])
        labels = ncut_spectral(w, 6, seed=0)
        assert len(set(labels.tolist())) == 6

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_partial_eigensolve_matches_full_eigh(self, k):
        rng = np.random.default_rng(40 + k)
        for trial in range(5):
            sizes = rng.integers(3, 12, size=k).tolist()
            w, _ = block_affinity(rng, sizes, cross=float(rng.uniform(0, 0.3)))
            np.testing.assert_array_equal(ncut_spectral(w, k, seed=trial),
                                          ncut_full_eigh(w, k, trial))
        # k = n asks for the whole spectrum
        w, _ = block_affinity(rng, [k, k])
        np.testing.assert_array_equal(ncut_spectral(w, 2 * k, seed=0),
                                      ncut_full_eigh(w, 2 * k, 0))

    def test_lanczos_path_needs_no_dense_eigensolve(self):
        rng = np.random.default_rng(50)
        for k in (2, 3, 4):
            w, _ = block_affinity(rng, rng.integers(10, 20, size=k).tolist(), cross=0.05)
            with dense_eigensolve_spy() as eigh:
                labels = ncut_spectral(w, k, seed=k)
            assert eigh.call_count == 0
            np.testing.assert_array_equal(labels, ncut_full_eigh(w, k, k))

    def test_certificate_rejects_a_lanczos_run_that_missed_the_top_pair(self):
        real_eigsh = scipy.sparse.linalg.eigsh

        def drop_top_pair(a, k, **kwargs):
            values, vectors = real_eigsh(a, k=k + 1, **kwargs)
            return values[:-1], vectors[:, :-1]  # ascending, so the top pair is last

        rng = np.random.default_rng(51)
        for k in (2, 3, 4):
            w, _ = block_affinity(rng, rng.integers(10, 20, size=k).tolist(), cross=0.05)
            with mock.patch.object(scipy.sparse.linalg, "eigsh", drop_top_pair), \
                    dense_eigensolve_spy() as eigh:
                labels = ncut_spectral(w, k, seed=k)
            assert eigh.call_count == 1
            np.testing.assert_array_equal(labels, ncut_full_eigh(w, k, k))

    # Blocks of 3 or more: a block of 2 has eigenvalue -1 exactly, and several
    # such blocks would tie at the cut even with no more blocks than k.
    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(3, 8), min_size=1, max_size=6),
           k=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    # fewer blocks than k: rows of different blocks are orthogonal, so
    # k-means meets distances that tie in exact arithmetic
    @example(sizes=[7, 3], k=5, seed=3970467543)
    @example(sizes=[7, 6], k=4, seed=175046)
    def test_exactly_disconnected_blocks(self, sizes, k, seed):
        w = exact_block_affinity(np.random.default_rng(seed), sizes)
        k = min(k, len(w))
        if len(sizes) <= k:
            # the k bottom eigenvectors span one subspace, whichever solver finds them
            np.testing.assert_array_equal(ncut_spectral(w, k, seed=0), ncut_full_eigh(w, k, 0))
        else:
            # eigenvalue 1 repeats past the cut, so no k vectors can be certified,
            # and the dense path refuses to pick k of them
            with dense_eigensolve_spy() as eigh, \
                    pytest.raises(InvalidInputError, match=f"{len(sizes)} connected components"):
                ncut_spectral(w, k, seed=0)
            assert eigh.call_count == 0

    def test_zero_degree_points_count_as_no_component(self):
        # two blocks and three isolated points, with k = 2, on the dense path
        blocks = exact_block_affinity(np.random.default_rng(52), [4, 4])
        order = np.random.default_rng(53).permutation(11)
        w = np.zeros((11, 11))
        w[:8, :8] = blocks
        w = w[np.ix_(order, order)]
        failure = scipy.sparse.linalg.ArpackNoConvergence("forced", np.empty(0),
                                                          np.empty((0, 0)))
        with mock.patch.object(scipy.sparse.linalg, "eigsh", side_effect=failure), \
                dense_eigensolve_spy() as eigh:
            labels = ncut_spectral(w, 2, seed=0)
        assert eigh.call_count == 1
        linked = w.sum(axis=1) > 0
        assert len(set(labels[linked].tolist())) == 2

    def test_k_out_of_range(self):
        w = np.zeros((4, 4))
        with pytest.raises(InvalidParameterError):
            ncut_spectral(w, 5, seed=0)
        with pytest.raises(InvalidParameterError):
            ncut_spectral(w, 1, seed=0)

    def test_all_zero_affinity_raises(self):
        # L_sym = I has no preferred eigenvectors, so any labels would be arbitrary
        with pytest.raises(InvalidInputError):
            ncut_spectral(np.zeros((4, 4)), 2, seed=0)


class TestKmeans:
    def test_separated_clouds(self):
        rng = np.random.default_rng(6)
        x = np.concatenate(
            [rng.normal(size=(10, 2)), rng.normal(size=(10, 2)) + 50.0]
        )
        labels = kmeans(x, 2, seed=0)
        truth = np.repeat([0, 1], 10)
        assert accuracy(labels, truth) == 1.0

    def test_k_one(self):
        rng = np.random.default_rng(7)
        labels = kmeans(rng.normal(size=(8, 3)), 1, seed=0)
        np.testing.assert_array_equal(labels, np.zeros(8, dtype=int))

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 40)).T
        assert not x.flags.c_contiguous
        np.testing.assert_array_equal(kmeans(x, 3, seed=1), kmeans(np.ascontiguousarray(x), 3, seed=1))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 2))
        np.testing.assert_array_equal(kmeans(x, 4, seed=2), kmeans(x, 4, seed=2))

    def test_column_sign_flips_leave_labels_unchanged(self):
        # an eigensolver may return any eigenvector with either sign
        rng = np.random.default_rng(9)
        for k in (2, 3, 4):
            x = rng.normal(size=(40, k)) + 3.0 * rng.integers(0, 2, size=(40, k))
            labels = kmeans(x, k, seed=k)
            for j in range(k):
                flipped = x.copy()
                flipped[:, j] *= -1.0
                np.testing.assert_array_equal(kmeans(flipped, k, seed=k), labels)

    @pytest.mark.parametrize("n, k", [(5, 3), (6, 2), (8, 3)])
    def test_rotation_leaves_tied_labels_unchanged(self, n, k):
        # orthonormal points: every k-means++ seed, assignment and restart
        # ties in exact arithmetic, and a rotation changes only the rounding
        labels = kmeans(np.eye(n), k, seed=0)
        for trial in range(5):
            q = np.linalg.qr(np.random.default_rng(trial).normal(size=(n, n)))[0]
            np.testing.assert_array_equal(kmeans(q, k, seed=0), labels)

    def test_two_moons_labels_are_a_lloyd_fixed_point(self):
        x = two_moons(seed=0).observations.data.T
        assert_lloyd_fixed_point(x, kmeans(x, 2, seed=0))

    @settings(max_examples=50, deadline=None)
    @given(k=st.integers(2, 5), size=st.integers(3, 15), seed=st.integers(0, 2**32 - 1))
    def test_separated_blobs_give_a_lloyd_fixed_point(self, k, size, seed):
        rng = np.random.default_rng(seed)
        centers = 20.0 * rng.normal(size=(k, 3))
        x = (centers[:, None, :] + rng.normal(size=(k, size, 3))).reshape(k * size, 3)
        labels = kmeans(x, k, seed=seed % 1000)
        assert labels.min() >= 0 and labels.max() < k
        assert_lloyd_fixed_point(x, labels)

    @pytest.mark.parametrize("k", [2, 5])
    def test_identical_points(self, k):
        # every k-means++ draw after the first has zero weight, and every
        # cluster but one is empty and re-seeded
        x = np.ones((5, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = kmeans(x, k, seed=3)
            again = kmeans(x, k, seed=3)
        assert labels.min() >= 0 and labels.max() < k
        np.testing.assert_array_equal(labels, again)

    def test_clusters_numbered_by_first_appearance(self):
        rng = np.random.default_rng(10)
        x = np.concatenate([rng.normal(size=(6, 2)) + 40.0 * c for c in (2, 0, 1)])
        np.testing.assert_array_equal(kmeans(x, 3, seed=0), np.repeat([0, 1, 2], 6))

    def test_k_larger_than_points(self):
        with pytest.raises(InvalidParameterError):
            kmeans(np.zeros((3, 2)), 4, seed=0)
