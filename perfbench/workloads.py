"""Benchmark workloads: generated inputs and the calls made on them.

Inputs come from the benchmark's own generators and settings, seeded by the
workload seed. Nothing here imports the package, so a later change to its
generators or to `cli.BENCHMARK_CONFIG` cannot silently change what is
measured; `test_perfbench.py` checks that both still agree with this copy.
"""

from dataclasses import dataclass

import numpy as np

# Copy of `cli.BENCHMARK_CONFIG` as it stood when this benchmark was defined.
FROZEN_GRID = {
    "two-moons": {
        "generator": {"n_per_moon": 100, "noise_sigma": 0.04},
        "k": 2,
        "method_params": {"eps": 0.10, "eps_mode": "quantile", "knn_k": 5},
        "solver": {"beta": 800.0, "mu0": 1.0, "max_iter": 4000},
    },
    "three-circles": {
        "generator": {"n_per_circle": 66, "radii": (1.0, 2.0, 3.0), "noise_sigma": 0.05},
        "k": 3,
        "method_params": {"eps": 0.05, "eps_mode": "quantile", "knn_k": 5},
        "solver": {"beta": 10.0, "mu0": 1.0, "max_iter": 2000},
    },
}
METHODS = ("kmeans", "ncut", "lrr", "graph-lrr", "lrlrr", "tlr-lrr")

# At the frozen budgets one pass over the grid takes about two minutes, far
# more than one benchmark run may take. Every paper-grid cell runs with its
# budget divided by this factor (4000 -> 100, 2000 -> 50 iterations); no
# cell converges at either budget, so the per-iteration work is unchanged.
PAPER_GRID_ITER_DIVISOR = 40

# Smoke mode keeps every call but shrinks inputs and budgets so that a run
# takes about a second; it exists to test the benchmark, not to measure.
SMOKE_POINTS = 12
SMOKE_MAX_ITER = 2

NAMES = ("paper-grid", "wide-n", "subspaces", "no-solve")


@dataclass(frozen=True)
class Input:
    data: np.ndarray     # m x n, columns are points
    labels: np.ndarray   # ground truth in [0, k)


@dataclass(frozen=True)
class Cell:
    """One `cli.run_method` call, as the `cluster` and `benchmark` commands make it."""

    input: str
    method: str
    k: int
    solver: dict          # SolverConfig keyword arguments
    method_params: dict
    seed: int


@dataclass(frozen=True)
class Build:
    """One call of a public locality builder (epsilon-ball also reduces to an operator)."""

    input: str
    builder: str          # "epsilon-ball", "knn-graph" or "knn-hypergraph"
    param: float          # eps quantile, or the neighbour count k


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: dict          # input name -> Input
    calls: tuple          # Cell and Build, in pass order


def two_moons(n_per_moon, noise_sigma, seed):
    """Same construction and random stream as `datasets.two_moons`."""
    theta = np.linspace(0.0, np.pi, n_per_moon)
    data = np.concatenate(
        [
            np.stack([np.cos(theta), np.sin(theta)]),
            np.stack([1.0 - np.cos(theta), 0.5 - np.sin(theta)]),
        ],
        axis=1,
    )
    data = data + np.random.default_rng(seed).normal(0.0, noise_sigma, size=data.shape)
    return data, np.repeat([0, 1], n_per_moon)


def three_circles(n_per_circle, radii, noise_sigma, seed):
    """Same construction and random stream as `datasets.three_circles`."""
    theta = np.linspace(0.0, 2.0 * np.pi, n_per_circle, endpoint=False)
    ring = np.stack([np.cos(theta), np.sin(theta)])
    data = np.concatenate([float(r) * ring for r in radii], axis=1)
    data = data + np.random.default_rng(seed).normal(0.0, noise_sigma, size=data.shape)
    return data, np.repeat(np.arange(len(radii)), n_per_circle)


def subspaces(n_per_subspace, seed, n_subspaces=5, dim=4, ambient=50,
              noise_sigma=0.01, outlier_frac=0.05):
    """Unit-norm points on random subspaces plus noise, with a share of the
    columns replaced by unit-norm random outliers (acceptance criterion 3,
    scaled up). Outliers keep their subspace's label."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n_subspaces):
        basis = np.linalg.qr(rng.normal(size=(ambient, dim)))[0]
        coef = rng.normal(size=(dim, n_per_subspace))
        coef /= np.linalg.norm(coef, axis=0)
        blocks.append(basis @ coef)
    data = np.concatenate(blocks, axis=1)
    data = data + rng.normal(0.0, noise_sigma, size=data.shape)
    n = data.shape[1]
    for i in rng.choice(n, size=int(round(outlier_frac * n)), replace=False):
        v = rng.normal(size=ambient)
        data[:, i] = v / np.linalg.norm(v)
    return data, np.repeat(np.arange(n_subspaces), n_per_subspace)


def build(name, seed, smoke=False):
    """The workload `name` at workload seed `seed`."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return {
        "paper-grid": _paper_grid,
        "wide-n": _wide_n,
        "subspaces": _subspaces,
        "no-solve": _no_solve,
    }[name](seed, smoke)


def _budget(max_iter, smoke):
    return SMOKE_MAX_ITER if smoke else max_iter


def _cells(input_name, k, methods, solver, method_params, seed):
    """Cell seeds follow the `benchmark` command: workload seed * 100 + cell index."""
    return tuple(
        Cell(input_name, method, k, solver, method_params, seed * 100 + i)
        for i, method in enumerate(methods)
    )


def _paper_grid(seed, smoke):
    """The frozen 12-cell grid of the `benchmark` command, at a reduced budget."""
    moon_gen = dict(FROZEN_GRID["two-moons"]["generator"], seed=seed)
    circle_gen = dict(FROZEN_GRID["three-circles"]["generator"], seed=seed)
    if smoke:
        moon_gen["n_per_moon"] = SMOKE_POINTS
        circle_gen["n_per_circle"] = SMOKE_POINTS
    inputs = {
        "two-moons": Input(*two_moons(**moon_gen)),
        "three-circles": Input(*three_circles(**circle_gen)),
    }
    calls = []
    for name, spec in FROZEN_GRID.items():
        solver = dict(
            spec["solver"],
            max_iter=_budget(spec["solver"]["max_iter"] // PAPER_GRID_ITER_DIVISOR, smoke),
        )
        for method in METHODS:
            # The cell index runs on across both datasets, as in `benchmark`.
            calls.append(Cell(name, method, spec["k"], solver, spec["method_params"],
                              seed * 100 + len(calls)))
    return Workload("paper-grid", inputs, tuple(calls))


def _wide_n(seed, smoke):
    """Two-moons at four times the grid's n, with a fixed ten-iteration budget."""
    moons = FROZEN_GRID["two-moons"]
    n_per_moon = SMOKE_POINTS if smoke else 400
    noise = moons["generator"]["noise_sigma"]
    inputs = {"two-moons": Input(*two_moons(n_per_moon, noise, seed))}
    solver = dict(moons["solver"], max_iter=_budget(10, smoke))
    calls = _cells("two-moons", 2, ("ncut", "lrr", "tlr-lrr"), solver,
                   moons["method_params"], seed)
    return Workload("wide-n", inputs, calls)


def _subspaces(seed, smoke):
    """Five 4-dim subspaces in R^50 with 5% outliers, n=320: heavy Y@Z, rank(Z) > n/4."""
    per = SMOKE_POINTS if smoke else 64
    inputs = {"subspaces": Input(*subspaces(per, seed))}
    solver = {"beta": 1.0, "gamma": 0.4, "mu0": 1.0, "max_iter": _budget(100, smoke)}
    calls = _cells("subspaces", 5, ("kmeans", "lrr", "tlr-lrr"), solver,
                   {"eps": 0.05, "eps_mode": "quantile"}, seed)
    return Workload("subspaces", inputs, calls)


def _no_solve(seed, smoke):
    """Locality builders and the two baselines on three large rings; no solve."""
    per = SMOKE_POINTS if smoke else 300
    inputs = {"three-circles": Input(*three_circles(per, (1.0, 2.0, 3.0), 0.05, seed))}
    builds = tuple(
        Build("three-circles", builder, param)
        for builder, params in (
            ("epsilon-ball", (0.02, 0.05)),
            ("knn-graph", (5, 10)),
            ("knn-hypergraph", (5, 10)),
        )
        for param in params
    )
    cells = _cells("three-circles", 3, ("kmeans", "ncut"), {}, {}, seed)
    return Workload("no-solve", inputs, builds + cells)
