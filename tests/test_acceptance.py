"""End-to-end acceptance gates, one test per criterion.

The benchmark-based criteria share a single pair of suite runs (the second
run exists to check determinism); the remaining criteria build their own
instances.
"""

import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subspace_lrr import (
    LocalityOperator,
    ObservationMatrix,
    accuracy,
    affinity_from_coefficients,
    epsilon_ball_hyperedges,
    hungarian,
    knn_graph_laplacian,
    knn_hypergraph_laplacian,
    locality_operator_from_hypergraph,
    ncut_spectral,
    solve,
    three_circles,
)
from subspace_lrr import solver
from subspace_lrr.cli import BENCHMARK_CONFIG, LOCALITY, main
from subspace_lrr.solver import SolverConfig, SolverState

SEED = 0


@pytest.fixture(scope="module")
def benchmark_runs(tmp_path_factory):
    dirs = []
    for run in range(2):
        out_dir = tmp_path_factory.mktemp(f"bench{run}")
        assert main(["benchmark", "--out-dir", str(out_dir), "--seed", str(SEED)]) == 0
        dirs.append(out_dir)
    return dirs


def read_report(out_dir, method, dataset):
    with open(out_dir / f"{method}_{dataset}.json", encoding="utf-8") as fh:
        return json.load(fh)


def lrr_objective(y, laplacian, z, cfg):
    """||Z||_* + lam ||J||_1 + beta tr(Z L Z^T) + gamma ||E||_1, the README
    objective, at the feasible point Z = J = max(z, 0), E = Y - YZ."""
    z = np.maximum(z, 0.0)
    return (
        np.linalg.svd(z, compute_uv=False).sum()
        + cfg.lam * np.abs(z).sum()
        + cfg.beta * np.trace(z @ laplacian @ z.T)
        + cfg.gamma * np.abs(y - y @ z).sum()
    )


def lrr_dual_bound(y, laplacian, z, m1, m2, cfg):
    """Lower bound on the README objective over all feasible (Z, J, E).

    By weak duality, the Lagrangian with multipliers M1 (for Y = YZ + E) and
    M2 (for Z = J) bounds the optimum below. Its E and J parts vanish when
    |M1| <= gamma and M2 <= lam elementwise. Its Z part is at least
    -beta tr(W L W^T) for any W, once Y^T M1 - M2 - 2 beta W L has spectral
    norm at most 1; scaling (M1, M2, W) by t = 1 / max(1, that norm) keeps
    all three conditions. The bound is <M1, Y> at the scaled point minus
    that Z part. It holds whatever produced m1, m2 and z; the closer they
    are to the optimum, the tighter it is.
    """
    m1 = np.clip(m1, -cfg.gamma, cfg.gamma)
    m2 = np.minimum(m2, cfg.lam)
    a = y.T @ m1 - m2 - 2.0 * cfg.beta * z @ laplacian
    t = 1.0 / max(1.0, np.linalg.norm(a, 2))
    return t * np.sum(m1 * y) - cfg.beta * t**2 * np.trace(z @ laplacian @ z.T)


@pytest.mark.slow
def test_criterion_1_two_moons_reproduction(benchmark_runs):
    out_dir = benchmark_runs[0]
    tlr = read_report(out_dir, "tlr-lrr", "two-moons")
    lrr = read_report(out_dir, "lrr", "two-moons")
    lrlrr = read_report(out_dir, "lrlrr", "two-moons")
    assert tlr["accuracy"] >= 0.95
    assert lrr["accuracy"] < tlr["accuracy"]
    assert lrlrr["accuracy"] < tlr["accuracy"]
    assert tlr["wall_time_ms"] < 60_000


@pytest.mark.slow
def test_criterion_2_three_circles_reproduction(benchmark_runs):
    """On the frozen three-circles cell, the README objective's optimum
    mixes the rings, and the benchmark's tlr-lrr Z is close to that optimum.

    The three rings are centred on the origin, so all of them span the same
    R^2. Self-expression is only guaranteed block-diagonal when the
    subspaces are independent (arXiv:1010.2955). Here every solver method
    of the grid scores 0.338, at chance, against the 0.90 the benchmark's
    summary still records as its target. Both checks below are proofs by
    weak duality (`lrr_dual_bound`), so neither rests on a solve having
    converged. With the frozen config and seed 0:

    (a) Every ring-separated (ring-block-diagonal) Z costs more than the
        benchmark's tlr-lrr Z: the objective at that Z is 6.99, and the
        bound is 17.43. The objective splits over the rings for such a Z,
        with the operator's principal sub-block per ring, so the bound is
        the sum of one bound per ring. No minimizer separates the rings.
    (b) The benchmark's tlr-lrr Z is within 5% of the optimum (bound 6.92),
        so its chance-level score is what the objective's minimizer gives,
        not the cost of a truncated solve.
    """
    out_dir = benchmark_runs[0]
    z_tlr = np.loadtxt(out_dir / "tlr-lrr_three-circles_Z.txt")

    spec = BENCHMARK_CONFIG["three-circles"]
    ds = three_circles(seed=SEED, **spec["generator"])
    y = ds.observations.data
    params = spec["method_params"]
    locality = locality_operator_from_hypergraph(
        epsilon_ball_hyperedges(ds.observations, params["eps"], mode=params["eps_mode"])
    )
    laplacian = locality.matrix
    cfg = SolverConfig(**spec["solver"])
    f_tlr = lrr_objective(y, laplacian, z_tlr, cfg)

    bound_sep = 0.0
    for ring in range(spec["k"]):
        idx = np.flatnonzero(ds.labels == ring)
        y_ring, lap_ring = y[:, idx], laplacian[np.ix_(idx, idx)]
        report = solve(y_ring, LocalityOperator(lap_ring), cfg)
        bound_sep += lrr_dual_bound(y_ring, lap_ring, report.Z, report.M1, report.M2, cfg)
    assert f_tlr < bound_sep

    report = solve(ds.observations, locality, cfg)
    bound = lrr_dual_bound(y, laplacian, report.Z, report.M1, report.M2, cfg)
    assert f_tlr - bound <= 0.05 * f_tlr


def random_bound_problem(seed, lam, beta, gamma, mu0=1.0):
    """(rng, Y, L, config) of a small problem: Y is m x n with m <= 4 and
    n <= 8, L = G G^T + (G G^T)^T is exactly symmetric and PSD."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 5)), int(rng.integers(2, 9))
    g = rng.normal(size=(n, n)) * rng.uniform(0.0, 1.0)
    laplacian = g @ g.T
    laplacian += laplacian.T
    cfg = SolverConfig(lam=lam, beta=beta, gamma=gamma, mu0=mu0, max_iter=300)
    return rng, rng.normal(size=(m, n)), laplacian, cfg


def assert_weak_duality(bound, objective):
    # both sides are sums of a few dozen rounded terms
    assert bound <= objective + 1e-12 * abs(objective)


CONFIGS = {
    "lam": st.floats(0.0, 1.0),
    "beta": st.floats(0.0, 5.0),
    "gamma": st.floats(0.05, 5.0),
}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), spread=st.floats(0.01, 10.0), **CONFIGS)
def test_dual_bound_is_below_the_objective_at_random_points(seed, spread, lam, beta, gamma):
    """Weak duality, which criterion 2 rests on: the bound at any Z and
    multipliers is at most the objective at any other Z."""
    rng, y, laplacian, cfg = random_bound_problem(seed, lam, beta, gamma)
    m, n = y.shape
    z_a, z_b, m2 = (spread * rng.normal(size=(n, n)) for _ in range(3))
    m1 = spread * rng.normal(size=(m, n))
    assert_weak_duality(lrr_dual_bound(y, laplacian, z_a, m1, m2, cfg),
                        lrr_objective(y, laplacian, z_b, cfg))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mu0=st.floats(0.1, 10.0), **CONFIGS)
@example(seed=0, mu0=1.0, lam=0.01, beta=1.0, gamma=1.1)
def test_dual_bound_is_below_the_objective_near_the_optimum(seed, mu0, lam, beta, gamma):
    """Weak duality where it is tight: the multipliers of a 300-iteration
    solve, scaled, against the objective at that solve's Z. Random points
    leave a wide margin; these are the ones that need the bound's
    1 / max(1, ||.||_2) scaling."""
    _, y, laplacian, cfg = random_bound_problem(seed, lam, beta, gamma, mu0)
    report = solve(y, LocalityOperator(laplacian), cfg)
    objective = lrr_objective(y, laplacian, report.Z, cfg)
    for scale in (0.5, 1.0, 2.0, 5.0):
        assert_weak_duality(
            lrr_dual_bound(y, laplacian, report.Z, scale * report.M1, scale * report.M2, cfg),
            objective,
        )


def test_criterion_3_subspaces_with_outlier():
    # three random planes in R^10, 30 unit-norm points each, one corrupted
    # column (~1%) whose energy the sparse term must absorb
    rng = np.random.default_rng(7)
    blocks, labels = [], []
    for c in range(3):
        basis = np.linalg.qr(rng.normal(size=(10, 2)))[0]
        coef = rng.normal(size=(2, 30))
        coef /= np.linalg.norm(coef, axis=0)
        blocks.append(basis @ coef)
        labels += [c] * 30
    y = np.concatenate(blocks, axis=1)
    labels = np.array(labels)
    outliers = rng.choice(90, size=1, replace=False)
    for i in outliers:
        v = rng.normal(size=10)
        y[:, i] = v / np.linalg.norm(v)

    obs = ObservationMatrix(y)
    graph = epsilon_ball_hyperedges(obs, 0.05, mode="quantile")
    locality = locality_operator_from_hypergraph(graph)
    cfg = SolverConfig(beta=1.0, gamma=0.4, mu0=1.0, max_iter=10_000)
    report = solve(obs, locality, cfg)
    labels_pred = ncut_spectral(affinity_from_coefficients(report.Z), 3, seed=1)

    assert accuracy(labels_pred, labels) >= 0.95
    outlier_energy = float(np.sum(report.E[:, outliers] ** 2))
    total_energy = float(np.sum(report.E**2))
    assert total_energy > 0
    assert outlier_energy / total_energy >= 0.80


def test_criterion_4_solver_invariant_suite(monkeypatch):
    from test_solver import (
        assert_gradient_matches_finite_differences,
        assert_shrink_minimizes_on_grid,
        assert_svt_beats_perturbations,
        check_loop_invariants,
    )

    rng = np.random.default_rng(20)

    # gradient of the smooth objective vs central finite differences
    for _ in range(20):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        obs = ObservationMatrix(rng.normal(size=(m, n)))
        locality = locality_operator_from_hypergraph(
            epsilon_ball_hyperedges(obs, 0.6, mode="quantile")
        )
        cfg = SolverConfig(beta=float(rng.uniform(0, 3)))
        z, j = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        e, u1, u2 = rng.normal(size=(m, n)), rng.normal(size=(m, n)), rng.normal(size=(n, n))
        mu, w = float(rng.uniform(0.5, 2.0)), rng.normal(size=(n, n))
        state = SolverState(Z=z, E=e, U1=u1, U2=u2, U3=rng.normal(size=(n, n)), mu=mu)
        assert_gradient_matches_finite_differences(state, w, j, locality, obs, cfg)

    # proximal oracles for the two thresholding primitives
    a = rng.normal(size=(6, 4))
    tau = float(np.median(np.linalg.svd(a, compute_uv=False)))
    assert_svt_beats_perturbations(a, tau, rng)
    for _ in range(10):
        r, t = float(rng.uniform(-3, 3)), float(rng.uniform(0, 2))
        assert_shrink_minimizes_on_grid(r, t)

    # loop invariants on a live run: J >= 0, mu fixed and the Z-step exact
    # in every iteration
    obs = ObservationMatrix(rng.normal(size=(3, 8)))
    locality = locality_operator_from_hypergraph(
        epsilon_ball_hyperedges(obs, 0.3, mode="quantile")
    )
    cfg = SolverConfig(mu0=1.0, max_iter=60)
    with monkeypatch.context() as patch:
        check_loop_invariants(patch, obs, locality, cfg)

    # a converged run really meets both stopping conditions
    base_cols = rng.normal(size=(4, 5))
    y = np.concatenate([base_cols, base_cols], axis=1)
    cfg = SolverConfig(beta=0.0, lam=1e-4, mu0=1.0, max_iter=3000)
    report = solve(ObservationMatrix(y), None, cfg)
    assert report.converged
    resid = np.linalg.norm(y - y @ report.Z - report.E) / np.linalg.norm(y)
    assert resid < solver.EPS1
    assert report.residual_history[-1] < solver.EPS1
    assert report.change_history[-1] <= solver.EPS2


def test_criterion_5_laplacian_oracle_suite():
    from test_hypergraph import (
        assert_laplacian_properties,
        assert_quadratic_form_matches_brute_force,
        random_hypergraph,
    )

    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        graph = random_hypergraph(rng, n)
        z = rng.normal(size=(int(rng.integers(1, 5)), n))
        assert_quadratic_form_matches_brute_force(graph, z)

    for _ in range(10):
        n = int(rng.integers(4, 30))
        obs = ObservationMatrix(rng.normal(size=(3, n)))
        k = int(rng.integers(1, min(6, n)))
        for op in (
            locality_operator_from_hypergraph(
                epsilon_ball_hyperedges(obs, 0.3, mode="quantile")
            ),
            knn_graph_laplacian(obs, k),
            knn_hypergraph_laplacian(obs, k),
        ):
            assert_laplacian_properties(op)


def test_criterion_6_assignment_and_accuracy():
    rng = np.random.default_rng(22)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        cost = rng.uniform(size=(k, k))
        perm = hungarian(cost)
        got = sum(cost[i, p] for i, p in enumerate(perm))
        best = min(
            sum(cost[i, p] for i, p in enumerate(candidate))
            for candidate in itertools.permutations(range(k))
        )
        assert got == pytest.approx(best)

    for _ in range(100):
        k = int(rng.integers(2, 6))
        truth = rng.integers(0, k, size=40)
        pred = rng.integers(0, k, size=40)
        relabel = rng.permutation(k)
        assert accuracy(relabel[pred], truth) == pytest.approx(accuracy(pred, truth))


@pytest.mark.slow
def test_criterion_7_per_iteration_time_scaling():
    m = 100
    sizes = (100, 200, 400)
    cfg = SolverConfig(mu0=1.0, max_iter=60)
    problems = {}
    for n in sizes:
        rng = np.random.default_rng(23)
        obs = ObservationMatrix(rng.normal(size=(m, n)))
        locality = locality_operator_from_hypergraph(
            epsilon_ball_hyperedges(obs, 0.05, mode="quantile")
        )
        solve(obs, locality, cfg)  # warm-up
        problems[n] = (obs, locality)
    # rounds interleave the sizes, so a slow spell on a shared machine
    # lands on all of them rather than on one size's every repeat
    per_iteration = dict.fromkeys(sizes, float("inf"))
    for _ in range(5):
        for n, (obs, locality) in problems.items():
            t0 = time.perf_counter()
            report = solve(obs, locality, cfg)
            per_iteration[n] = min(
                per_iteration[n], (time.perf_counter() - t0) / report.iterations
            )
    for n1, n2 in zip(sizes, sizes[1:]):
        ratio = per_iteration[n2] / per_iteration[n1]
        assert ratio <= 1.3 * (n2 / n1) ** 2


@pytest.mark.slow
def test_criterion_8_benchmark_determinism(benchmark_runs):
    first = (benchmark_runs[0] / "summary.csv").read_bytes()
    second = (benchmark_runs[1] / "summary.csv").read_bytes()
    assert first == second


# `benchmark --seed 0`'s summary.csv, pinned byte for byte: a change to the
# solver's arithmetic that moves any label shows here
SUMMARY_SEED_0 = """\
method,two-moons,three-circles
kmeans,0.74,0.3434343434343434
ncut,0.74,0.3434343434343434
lrr,0.875,0.3383838383838384
graph-lrr,0.925,0.3383838383838384
lrlrr,0.935,0.3383838383838384
tlr-lrr,0.995,0.3383838383838384
misses,tlr-lrr three-circles below 0.90
"""


@pytest.mark.slow
def test_benchmark_summary_is_the_seed_0_text(benchmark_runs):
    assert (benchmark_runs[0] / "summary.csv").read_bytes() == SUMMARY_SEED_0.encode()


@pytest.mark.slow
def test_benchmark_w_steps_never_fall_back(benchmark_runs):
    # every range holds SVT_OVERSAMPLE columns beyond the values above tau / 2
    # that its certificate needs, so none of the grid's 24000 W-steps pays
    # the exact SVT after a failed attempt
    for method, dataset in itertools.product(LOCALITY, BENCHMARK_CONFIG):
        assert read_report(benchmark_runs[0], method, dataset)["svt_fallbacks"] == 0
