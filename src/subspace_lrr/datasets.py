"""Synthetic dataset generators and delimited-text dataset I/O.

File format: UTF-8 CSV with header ``dim_0,...,dim_{M-1}[,label]``, one
observation per line, round-trip float formatting, LF line endings.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, ParseError
from .hypergraph import ObservationMatrix


@dataclass(frozen=True)
class LabeledDataset:
    observations: ObservationMatrix
    labels: np.ndarray | None
    name: str
    generator_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.labels is not None:
            labels = np.array(self.labels, dtype=int)
            if labels.shape != (self.observations.n,):
                raise InvalidInputError("label count must match observation count")
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)


def _noisy_clusters(name, blocks, noise_sigma, seed, params):
    """Clean cluster blocks, one label each, plus seeded Gaussian noise.
    `params` come first in generator_params, then noise_sigma and seed."""
    if not noise_sigma >= 0:
        raise InvalidParameterError("noise_sigma must be a nonnegative number")
    data = np.concatenate(blocks, axis=1)
    if noise_sigma > 0:
        data = data + np.random.default_rng(seed).normal(0.0, noise_sigma, size=data.shape)
    labels = np.repeat(np.arange(len(blocks)), [b.shape[1] for b in blocks])
    return LabeledDataset(
        ObservationMatrix(data),
        labels,
        name=name,
        generator_params={**params, "noise_sigma": noise_sigma, "seed": seed},
    )


def two_moons(n_per_moon=100, noise_sigma=0.06, seed=0):
    """Two interleaved half-circles with Gaussian jitter.

    Angles sit on an evenly spaced grid so the seed only drives the noise.
    """
    if n_per_moon < 2:
        raise InvalidParameterError("n_per_moon must be at least 2")
    theta = np.linspace(0.0, np.pi, n_per_moon)
    moon0 = np.stack([np.cos(theta), np.sin(theta)])
    moon1 = np.stack([1.0 - np.cos(theta), 0.5 - np.sin(theta)])
    return _noisy_clusters(
        "two-moons", [moon0, moon1], noise_sigma, seed, {"n_per_moon": n_per_moon}
    )


def three_circles(n_per_circle=66, radii=(1.0, 2.0, 3.0), noise_sigma=0.05, seed=0):
    """Three concentric noisy circles, one cluster per radius."""
    if n_per_circle < 3:
        raise InvalidParameterError("n_per_circle must be at least 3")
    radii = tuple(float(r) for r in radii)
    if len(radii) != 3 or any(b <= a for a, b in zip(radii, radii[1:])) or radii[0] <= 0:
        raise InvalidParameterError("radii must be three strictly increasing positive reals")
    theta = np.linspace(0.0, 2.0 * np.pi, n_per_circle, endpoint=False)
    ring = np.stack([np.cos(theta), np.sin(theta)])
    return _noisy_clusters(
        "three-circles", [r * ring for r in radii], noise_sigma, seed,
        {"n_per_circle": n_per_circle, "radii": radii},
    )


def save_dataset(dataset, path):
    """Write observations (and labels, when present) as delimited text."""
    obs = dataset.observations
    header = [f"dim_{i}" for i in range(obs.m)]
    if dataset.labels is not None:
        header.append("label")
    lines = [",".join(header)]
    for j in range(obs.n):
        cells = [repr(float(v)) for v in obs.data[:, j]]
        if dataset.labels is not None:
            cells.append(str(int(dataset.labels[j])))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path, name=None):
    """Read a dataset file back; inverse of save_dataset."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid UTF-8: {exc}") from None
    if not raw:
        raise ParseError("empty file", 1)
    header = raw[0].split(",")
    has_labels = bool(header) and header[-1] == "label"
    m = len(header) - (1 if has_labels else 0)
    if m < 1 or any(h != f"dim_{i}" for i, h in enumerate(header[:m])):
        raise ParseError("malformed header", 1)

    columns, labels = [], []
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(cells)}", lineno
            )
        try:
            columns.append([float(c) for c in cells[:m]])
        except ValueError:
            raise ParseError("non-numeric coordinate", lineno) from None
        if has_labels:
            try:
                labels.append(int(cells[m]))
            except ValueError:
                raise ParseError("non-integer label", lineno) from None
            if not -(2**63) <= labels[-1] < 2**63:
                raise ParseError("label outside the 64-bit integer range", lineno)
    if not columns:
        raise ParseError("no data rows", 2)
    data = np.array(columns).T
    return LabeledDataset(
        ObservationMatrix(data),
        np.array(labels, dtype=int) if has_labels else None,
        name=name or str(path),
    )
