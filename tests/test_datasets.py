"""Generator geometry, determinism, and dataset file round-trips."""

import numpy as np
import pytest

from subspace_lrr import (
    LabeledDataset,
    ObservationMatrix,
    load_dataset,
    save_dataset,
    three_circles,
    two_moons,
)
from subspace_lrr.errors import InvalidInputError, InvalidParameterError, ParseError


class TestGenerators:
    def test_moons_noiseless_geometry(self):
        ds = two_moons(n_per_moon=50, noise_sigma=0.0, seed=0)
        moon0 = ds.observations.data[:, :50]
        np.testing.assert_allclose(np.linalg.norm(moon0, axis=0), 1.0, atol=1e-12)

    def test_moons_balanced_labels(self):
        ds = two_moons(n_per_moon=37, noise_sigma=0.05, seed=1)
        assert np.bincount(ds.labels).tolist() == [37, 37]

    def test_moons_deterministic(self):
        a = two_moons(seed=5)
        b = two_moons(seed=5)
        np.testing.assert_array_equal(a.observations.data, b.observations.data)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_circles_noiseless_geometry(self):
        ds = three_circles(n_per_circle=20, radii=(1.0, 2.0, 3.0), noise_sigma=0.0)
        norms = np.linalg.norm(ds.observations.data, axis=0)
        for c, r in enumerate((1.0, 2.0, 3.0)):
            np.testing.assert_allclose(norms[ds.labels == c], r, atol=1e-12)

    def test_circles_balanced_labels(self):
        ds = three_circles(n_per_circle=11, seed=2)
        assert np.bincount(ds.labels).tolist() == [11, 11, 11]

    def test_circles_radial_separation(self):
        ds = three_circles(n_per_circle=40, radii=(1.0, 2.0, 3.0), noise_sigma=0.0)
        d = ds.observations.pairwise_distances()
        cross = d[np.ix_(ds.labels == 0, ds.labels == 1)]
        assert cross.min() >= 1.0 - 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            two_moons(n_per_moon=1)
        with pytest.raises(InvalidParameterError):
            two_moons(noise_sigma=-0.1)
        with pytest.raises(InvalidParameterError):
            two_moons(noise_sigma=float("nan"))
        with pytest.raises(InvalidParameterError):
            three_circles(radii=(3.0, 2.0, 1.0))
        with pytest.raises(InvalidParameterError):
            three_circles(n_per_circle=2)

    def test_labels_are_copied(self):
        labels = np.array([0, 1, 1])
        ds = LabeledDataset(ObservationMatrix(np.zeros((2, 3))), labels, name="x")
        assert labels.flags.writeable and ds.labels is not labels
        labels[0] = 5
        np.testing.assert_array_equal(ds.labels, [0, 1, 1])

    def test_label_length_validation(self):
        obs = ObservationMatrix(np.zeros((2, 4)))
        with pytest.raises(InvalidInputError):
            LabeledDataset(obs, np.array([0, 1]), name="bad")


class TestFileIO:
    def test_round_trip_exact(self, tmp_path):
        ds = two_moons(n_per_moon=10, noise_sigma=0.05, seed=3)
        path = tmp_path / "moons.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.observations.data, ds.observations.data)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_round_trip_unlabeled(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = LabeledDataset(
            ObservationMatrix(rng.normal(size=(3, 5))), None, name="raw"
        )
        path = tmp_path / "raw.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.labels is None
        np.testing.assert_array_equal(back.observations.data, ds.observations.data)

    def test_lf_line_endings_and_header(self, tmp_path):
        ds = two_moons(n_per_moon=3, noise_sigma=0.0)
        path = tmp_path / "moons.csv"
        save_dataset(ds, path)
        raw = path.read_bytes().decode("utf-8")
        assert "\r" not in raw
        assert raw.splitlines()[0] == "dim_0,dim_1,label"
        assert len(raw.splitlines()) == 1 + 6

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dim_0,dim_1\n0.0,1.0\n2.0\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line == 3

    def test_bad_float_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dim_0\n1.0\nnot-a-number\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line == 3

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0.0,1.0\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line == 1
