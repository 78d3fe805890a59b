"""Assignment and accuracy against exhaustive permutation search."""

import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import subspace_lrr
from subspace_lrr import accuracy, confusion_matrix, hungarian
from subspace_lrr.errors import InvalidInputError


def exhaustive_best_cost(cost):
    best = None
    for perm in itertools.permutations(range(cost.shape[0])):
        total = sum(cost[i, p] for i, p in enumerate(perm))
        best = total if best is None else min(best, total)
    return best


def assert_matches_oracle(base, scale=1.0):
    """hungarian(base * scale) is a permutation with the cost of scipy's
    linear_sum_assignment on the integer matrix `base`."""
    perm = hungarian(base * scale)
    n = base.shape[0]
    assert sorted(perm.tolist()) == list(range(n))
    rows, cols = linear_sum_assignment(base)
    assert base[np.arange(n), perm].sum() == base[rows, cols].sum()


class TestHungarian:
    def test_identity_favoring_cost(self):
        cost = np.ones((4, 4)) - np.eye(4)
        np.testing.assert_array_equal(hungarian(cost), np.arange(4))

    def test_two_by_two_swap(self):
        perm = hungarian(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_array_equal(perm, [1, 0])

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 7))
            cost = rng.uniform(size=(k, k))
            perm = hungarian(cost)
            assert sorted(perm.tolist()) == list(range(k))
            total = sum(cost[i, p] for i, p in enumerate(perm))
            assert total == pytest.approx(exhaustive_best_cost(cost))

    # under pyproject's filterwarnings = error, any warning fails these tests
    def test_empty(self):
        perm = hungarian(np.zeros((0, 0)))
        assert perm.shape == (0,) and perm.dtype == int

    def test_all_zero_and_tied_costs(self):
        assert_matches_oracle(np.zeros((4, 4), dtype=int))
        assert_matches_oracle(np.ones((3, 3), dtype=int))
        assert_matches_oracle(np.tile([2, 0, 1], (3, 1)))

    def test_integer_ties_under_a_non_dyadic_scale(self):
        # the scale turns exactly tied assignments into near ties; scaled
        # into [-1, 1] and shifted by 2 without rounding, the first matrix
        # kept the matching running for over a minute
        base = np.array([[-3, -2, 1, 3], [-3, 3, -1, 2], [1, -1, 3, 3], [1, -3, -2, 1]])
        assert_matches_oracle(base, 1e62)
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            assert_matches_oracle(rng.integers(-3, 4, size=(k, k)), 10.0 ** rng.integers(-300, 300))

    def test_negative_costs(self):
        assert_matches_oracle(-np.arange(9).reshape(3, 3))
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = int(rng.integers(1, 7))
            assert_matches_oracle(-rng.integers(0, 100, size=(k, k)))

    def test_spread_beyond_float_range(self):
        # the spread, 2e308, overflows a float; no entry does
        assert_matches_oracle(np.array([[1, -1, 0], [-1, 1, 1], [0, 1, -1]]), 1e308)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            hungarian(np.zeros((2, 3)))


class TestAccuracy:
    def test_identity(self):
        truth = np.array([0, 1, 2, 1, 0])
        assert accuracy(truth, truth) == 1.0

    def test_relabeling_is_perfect(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([2, 2, 0, 0, 1, 1])
        assert accuracy(pred, truth) == 1.0

    def test_worked_example(self):
        assert accuracy(np.array([1, 1, 1, 0]), np.array([0, 0, 1, 1])) == 0.75

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            truth = rng.integers(0, k, size=30)
            pred = rng.integers(0, k, size=30)
            base = accuracy(pred, truth)
            relabel = rng.permutation(k)
            assert accuracy(relabel[pred], truth) == pytest.approx(base)

    def test_unequal_label_set_sizes(self):
        # pred uses fewer clusters than truth; padding keeps this well-defined
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([0, 0, 1, 1, 1, 1])
        assert accuracy(pred, truth) == pytest.approx(4 / 6)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            accuracy(np.array([0, 1]), np.array([0, 1, 2]))

    def test_confusion_matrix_counts(self):
        pred = np.array([0, 0, 1, 1])
        truth = np.array([0, 1, 1, 1])
        counts = confusion_matrix(pred, truth)
        np.testing.assert_array_equal(counts, [[1, 0], [1, 2]])


def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, subspace_lrr; print('scipy.optimize' in sys.modules)"
    src = str(Path(subspace_lrr.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
