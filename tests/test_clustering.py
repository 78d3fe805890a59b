"""Spectral clustering and k-means behavior on controlled affinities."""

import numpy as np
import pytest

from subspace_lrr import accuracy, affinity_from_coefficients, kmeans, ncut_spectral
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

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 2))
        np.testing.assert_array_equal(kmeans(x, 4, seed=2), kmeans(x, 4, seed=2))

    def test_k_larger_than_points(self):
        with pytest.raises(InvalidParameterError):
            kmeans(np.zeros((3, 2)), 4, seed=0)
