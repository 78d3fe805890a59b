"""Solver primitives against independent oracles, plus loop invariants."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from subspace_lrr import (
    LocalityOperator,
    ObservationMatrix,
    epsilon_ball_hyperedges,
    knn_graph_laplacian,
    knn_hypergraph_laplacian,
    locality_operator_from_hypergraph,
    shrink,
    solve,
    svt,
)
from subspace_lrr import solver
from subspace_lrr.cli import BENCHMARK_CONFIG, GENERATORS, LOCALITY
from subspace_lrr.datasets import two_moons
from subspace_lrr.errors import InvalidInputError, InvalidParameterError
from subspace_lrr.solver import (
    SolverConfig,
    SolverState,
    SvtWarmStart,
    check_convergence,
    grad_q,
    update_E,
    update_J,
    update_multipliers,
)


def random_state(rng, m, n, mu):
    """(state, W, J): a random state and the W and J of one iteration."""
    z, w, j = (rng.normal(size=(n, n)) for _ in range(3))
    state = SolverState(
        Z=z,
        E=rng.normal(size=(m, n)),
        U1=rng.normal(size=(m, n)),
        U2=rng.normal(size=(n, n)),
        U3=rng.normal(size=(n, n)),
        mu=mu,
    )
    return state, w, j


def spy_w_and_j(patch):
    """Spy on `solve`'s W-step and J-step: the returned dict holds, under
    "W" and "J", what `svt` and `update_J` last returned, which at the dual
    step are that iteration's W and J."""
    latest = {}
    real_svt, real_update_J = solver.svt, solver.update_J

    def spied_svt(*args):
        latest["W"] = real_svt(*args)
        return latest["W"]

    def spied_update_J(*args):
        latest["J"] = real_update_J(*args)
        return latest["J"]

    patch.setattr(solver, "svt", spied_svt)
    patch.setattr(solver, "update_J", spied_update_J)
    return latest


def primal_residual(state, observations):
    y = observations.data
    return y - y @ state.Z - state.E


def smooth_objective(z, state, w, j, locality, observations, cfg):
    """The Z-step's objective q(Z) at W = w and J = j, the augmented
    Lagrangian in Z up to a constant, evaluated directly."""
    y = observations.data
    r1 = y - y @ z - state.E + state.U1
    r2 = z - j + state.U2
    r3 = z - w + state.U3
    val = cfg.beta * float(np.trace(z @ locality.matrix @ z.T))
    for r in (r1, r2, r3):
        val += 0.5 * state.mu * float(np.sum(r * r))
    return val


def assert_gradient_matches_finite_differences(state, w, j, locality, observations, cfg):
    """grad_q at state.Z against central differences of smooth_objective."""
    step = 1e-5
    grad = grad_q(state, w, j, locality, observations, cfg,
                  primal_residual(state, observations))
    fd = np.zeros_like(grad)
    for idx in np.ndindex(grad.shape):
        zp, zm = state.Z.copy(), state.Z.copy()
        zp[idx] += step
        zm[idx] -= step
        fd[idx] = (
            smooth_objective(zp, state, w, j, locality, observations, cfg)
            - smooth_objective(zm, state, w, j, locality, observations, cfg)
        ) / (2 * step)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-5)


def assert_shrink_minimizes_on_grid(r, tau):
    """shrink(r, tau) minimizes tau |e| + (e - r)^2 / 2 over a fine grid."""
    grid = np.linspace(-5.0, 5.0, 20001)
    objective = tau * np.abs(grid) + 0.5 * (grid - r) ** 2
    assert shrink(r, tau) == pytest.approx(grid[np.argmin(objective)], abs=1e-3)


def assert_svt_beats_perturbations(a, tau, rng, warm=None):
    """svt(a, tau, warm) must beat 1000 random perturbations of itself on
    tau ||X||_* + 0.5 ||X - A||_F^2."""
    out = svt(a, tau, warm)

    def objective(x):
        return tau * np.linalg.svd(x, compute_uv=False).sum() + 0.5 * np.sum((x - a) ** 2)

    base = objective(out)
    for _ in range(1000):
        probe = out + rng.normal(size=out.shape) * rng.uniform(1e-4, 0.3)
        assert objective(probe) >= base - 1e-9


def expected_width(s, tau):
    """The width `svt` sets from the spectrum s: SVT_OVERSAMPLE beyond every
    value above tau / 2."""
    return np.count_nonzero(s > tau / 2) + solver.SVT_OVERSAMPLE


def assert_carries_leading_right_vectors(basis, a, rank):
    """`basis` has `rank` orthonormal columns that span the leading `rank`
    right singular vectors of a."""
    vt = np.linalg.svd(a)[2][:rank]
    assert basis.shape == (a.shape[1], rank)
    np.testing.assert_allclose(basis.T @ basis, np.eye(rank), rtol=0, atol=1e-9)
    np.testing.assert_allclose(vt.T @ (vt @ basis), basis, rtol=0, atol=1e-8)


class TestProximalOperators:
    def test_shrink_values(self):
        assert shrink(3.0, 1.0) == 2.0
        assert shrink(-0.5, 1.0) == 0.0
        np.testing.assert_allclose(
            shrink(np.array([-2.0, 2.0]), 0.5), [-1.5, 1.5]
        )
        x = np.random.default_rng(0).normal(size=(3, 4))
        np.testing.assert_array_equal(shrink(x, 0.0), x)

    def test_shrink_scalar_prox_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            r = float(rng.uniform(-3, 3))
            tau = float(rng.uniform(0, 2))
            assert_shrink_minimizes_on_grid(r, tau)

    def test_svt_identity_and_diagonal(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 3))
        np.testing.assert_allclose(svt(a, 0.0), a, atol=1e-12)
        np.testing.assert_allclose(
            svt(np.diag([3.0, 1.0]), 2.0), np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_svt_singular_values_are_shrunk(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 4))
        tau = float(np.median(np.linalg.svd(a, compute_uv=False)))
        out = svt(a, tau)
        s_in = np.linalg.svd(a, compute_uv=False)
        s_out = np.linalg.svd(out, compute_uv=False)
        np.testing.assert_allclose(s_out, np.maximum(s_in - tau, 0.0), atol=1e-10)

    def test_svt_proximal_optimality_probe(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 4))
        tau = float(np.median(np.linalg.svd(a, compute_uv=False)))
        assert_svt_beats_perturbations(a, tau, rng)
        # the low-rank path, on a rank-3 input wider than twice the first width
        a = rng.normal(size=(24, 3)) @ rng.normal(size=(3, 25))
        tau = float(np.median(np.linalg.svd(a, compute_uv=False)[:3]))
        warm = SvtWarmStart(np.random.default_rng(0), np.empty((25, 0)))
        assert_svt_beats_perturbations(a, tau, rng, warm)
        # one value kept and 3 above tau / 2; the range carries the input's
        # 3 right vectors
        assert warm.fallbacks == 0 and warm.width == 3 + solver.SVT_OVERSAMPLE
        assert_carries_leading_right_vectors(warm.basis, a, 3)

    @pytest.mark.parametrize("m, n, rank", [(40, 40, 5), (60, 45, 15), (45, 60, 1), (200, 200, 4)])
    def test_svt_low_rank_path_matches_exact(self, m, n, rank):
        # each call starts from the range the previous one carried; rank 15
        # exceeds the first width, so that call alone falls back
        rng = np.random.default_rng(m + n + rank)
        a = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
        s = np.linalg.svd(a, compute_uv=False)
        warm = SvtWarmStart(np.random.default_rng(0), np.empty((n, 0)))
        for tau in s[0] * np.array([1e-3, 0.3, 0.99, 1.5]):
            out = svt(a, tau, warm)
            np.testing.assert_allclose(out, svt(a, tau), rtol=0, atol=1e-10 * s[0])
            assert warm.fallbacks == (rank > solver.SVT_OVERSAMPLE)
            assert warm.width == expected_width(s, tau)
            assert_carries_leading_right_vectors(warm.basis, a, min(rank, warm.width))

    def test_svt_falls_back_above_width(self):
        # rank 30 above the first width with a small threshold: the
        # certificate fails, and the width grows to hold all 30 values
        rng = np.random.default_rng(24)
        a = rng.normal(size=(40, 30)) @ rng.normal(size=(30, 40))
        warm = SvtWarmStart(np.random.default_rng(0), np.empty((40, 0)))
        out = svt(a, 1e-3, warm)
        np.testing.assert_array_equal(out, svt(a, 1e-3))
        assert warm.fallbacks == 1 and warm.width == 30 + solver.SVT_OVERSAMPLE
        assert_carries_leading_right_vectors(warm.basis, a, 30)
        # twice that width is not below 40, so the next call skips the attempt
        np.testing.assert_array_equal(svt(a, 1e-3, warm), out)
        assert warm.fallbacks == 1 and warm.width == 30 + solver.SVT_OVERSAMPLE
        # in a solve, the first W-step is 0 and certified; the second falls back
        y = rng.normal(size=(50, 40))
        report = solve(y, None, SolverConfig(mu0=1.0, max_iter=5))
        assert report.svt_fallbacks == 1

    def test_svt_retries_the_low_rank_path_after_a_fallback(self, monkeypatch):
        # rank 3 plus a flat tail of 97 values at 0.8 tau: the tail's spectral
        # norm exceeds tau / 2, so the attempt fails its certificate and the
        # width grows past all 100 values, which skips the low-rank path; once
        # the tail falls to 0.1 tau, the exact path narrows the width again
        rng = np.random.default_rng(26)
        tau = 0.5
        u = np.linalg.qr(rng.normal(size=(100, 100)))[0]
        v = np.linalg.qr(rng.normal(size=(100, 100)))[0]
        head = np.array([1000.0, 500.0, 200.0]) * tau
        a = (u * np.concatenate([head, np.full(97, 0.8 * tau)])) @ v.T
        quiet = (u * np.concatenate([head, np.full(97, 0.1 * tau)])) @ v.T
        attempts = []
        real_low_rank = solver._svt_low_rank

        def counted_low_rank(*args):
            attempts.append(args)
            return real_low_rank(*args)

        monkeypatch.setattr(solver, "_svt_low_rank", counted_low_rank)
        warm = SvtWarmStart(np.random.default_rng(0), np.empty((100, 0)))
        np.testing.assert_array_equal(svt(a, tau, warm), svt(a, tau))
        assert len(attempts) == 1 and warm.fallbacks == 1
        assert warm.width == 100 + solver.SVT_OVERSAMPLE
        for b in (a, quiet):
            np.testing.assert_array_equal(svt(b, tau, warm), svt(b, tau))
            assert len(attempts) == 1 and warm.fallbacks == 1
        # the exact path carries the leading right singular vectors
        assert warm.width == 3 + solver.SVT_OVERSAMPLE
        assert warm.basis.shape == (100, 3 + solver.SVT_OVERSAMPLE)
        assert_carries_leading_right_vectors(warm.basis[:, :3], quiet, 3)
        for calls in (2, 3):
            out = svt(quiet, tau, warm)
            np.testing.assert_allclose(out, svt(quiet, tau), rtol=0, atol=1e-10 * head[0])
            assert len(attempts) == calls and warm.fallbacks == 1

    def test_svt_accepts_on_the_power_estimate_when_the_bound_fails(self):
        # rank 3 plus a flat tail of 97 values at 0.1 tau: no range of the
        # first width brings the tail's Frobenius norm to tau / 2
        # (Eckart-Young), but its spectral norm is below it, so the power
        # estimate accepts
        rng = np.random.default_rng(25)
        tau = 0.5
        u = np.linalg.qr(rng.normal(size=(100, 100)))[0]
        v = np.linalg.qr(rng.normal(size=(100, 100)))[0]
        s = np.concatenate([[1000.0, 500.0, 200.0], np.full(97, 0.1)]) * tau
        a = (u * s) @ v.T
        width = 3 + solver.SVT_OVERSAMPLE
        assert np.linalg.norm(s[width:]) > tau / 2 > s[3]
        warm = SvtWarmStart(np.random.default_rng(0), np.empty((100, 0)))
        for call in range(3):
            out = svt(a, tau, warm)
            np.testing.assert_allclose(out, svt(a, tau), rtol=0, atol=1e-10 * s[0])
            assert warm.fallbacks == 0 and warm.width == width
            assert_carries_leading_right_vectors(warm.basis[:, :3], a, 3)
            # the basis holds the range it came from: the first width, then width
            assert warm.basis.shape == (100, width if call else solver.SVT_OVERSAMPLE)

    def test_svt_carries_no_direction_of_a_zero_or_deficient_range(self, monkeypatch):
        # a solve's first W-step thresholds Z + U3 = 0; its range has no
        # direction to carry, so the next call starts from a random block
        rng = np.random.default_rng(27)
        n = 60
        a = rng.normal(size=(n, 3)) @ rng.normal(size=(3, n))
        s = np.linalg.svd(a, compute_uv=False)
        blocks = []
        real_basis = solver._orthonormal_basis

        def checked_basis(x):
            blocks.append(x)
            return real_basis(x)

        monkeypatch.setattr(solver, "_orthonormal_basis", checked_basis)
        warm = SvtWarmStart(np.random.default_rng(0), np.empty((n, 0)))
        np.testing.assert_array_equal(svt(np.zeros((n, n)), 1.0, warm), 0.0)
        assert warm.fallbacks == 0 and warm.basis.shape == (n, 0)
        for tau in s[0] * np.array([0.3, 1e-3, 0.5]):
            out = svt(a, tau, warm)
            np.testing.assert_allclose(out, svt(a, tau), rtol=0, atol=1e-10 * s[0])
            # the rank-3 range carries its 3 right vectors and no more
            assert warm.fallbacks == 0
            assert_carries_leading_right_vectors(warm.basis, a, 3)
        assert len(blocks) == 8 and all(np.isfinite(x).all() for x in blocks)

    def test_svt_certifies_past_the_first_width_after_one_exact_step(self):
        # 5 values kept and 15 more between tau / 2 and tau: 20 values above
        # tau / 2, more than the first width holds; the exact step that
        # follows the first attempt widens the range to hold them all, plus
        # SVT_OVERSAMPLE more
        rng = np.random.default_rng(28)
        n, tau = 200, 1.0
        u = np.linalg.qr(rng.normal(size=(n, n)))[0]
        v = np.linalg.qr(rng.normal(size=(n, n)))[0]
        s = np.concatenate([
            [400.0, 200.0, 100.0, 50.0, 10.0], np.linspace(0.95, 0.55, 15),
            rng.uniform(0.0, 0.02, n - 20),
        ]) * tau
        assert np.count_nonzero(s > tau / 2) == 20 > solver.SVT_OVERSAMPLE
        a = (u * s) @ v.T
        warm = SvtWarmStart(np.random.default_rng(0), np.empty((n, 0)))
        for _ in range(4):
            out = svt(a, tau, warm)
            np.testing.assert_allclose(out, svt(a, tau), rtol=0, atol=1e-10 * s[0])
            assert warm.fallbacks == 1 and warm.width == 20 + solver.SVT_OVERSAMPLE
            assert warm.basis.shape == (n, 20 + solver.SVT_OVERSAMPLE)
            assert_carries_leading_right_vectors(warm.basis[:, :20], a, 20)

    # tall, wide and square, on both sides of 64; full rank and rank-deficient
    @pytest.mark.parametrize("m, n, rank", [
        (5, 3, 3), (4, 6, 4), (30, 30, 30), (100, 100, 100),
        (5, 3, 1), (4, 6, 2), (30, 30, 7), (100, 100, 12), (70, 90, 5),
    ])
    def test_svt_matches_svd_reference(self, m, n, rank):
        rng = np.random.default_rng(m * n + rank)
        a = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        norm = s[0]
        for tau in norm * np.array([0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.99, 1.0, 1.5]):
            expected = (u * np.maximum(s - tau, 0.0)) @ vt
            out = svt(a, tau)
            assert out.shape == a.shape
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9 * norm)
            np.testing.assert_allclose(svt(a.T, tau), out.T, rtol=0, atol=1e-9 * norm)

    # the range finder's smallest width and the width that `rank` kept values
    # ask for, at n = 200, at a small n and at the subspaces workload's n;
    # full rank, rank-deficient, and with a zero column
    @pytest.mark.parametrize("m, rank, zero_column", [
        (200, 16, False), (17, 16, False), (200, 5, False), (17, 3, False), (200, 7, True),
        (320, 93, False),
    ])
    def test_range_finder_basis_is_orthonormal_and_spans_the_input(self, m, rank, zero_column):
        rng = np.random.default_rng(m + rank)
        p = solver.SVT_OVERSAMPLE
        for width in (p, min(m, rank + p)):
            x = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, width))
            if zero_column:
                x[:, 3] = 0.0
            given = x.copy()
            q = solver._orthonormal_basis(x)
            np.testing.assert_array_equal(x, given)
            assert q.shape == x.shape
            np.testing.assert_allclose(q.T @ q, np.eye(width), rtol=0, atol=1e-14)
            np.testing.assert_allclose(q @ (q.T @ x), x, rtol=0, atol=1e-13 * np.linalg.norm(x))

    def test_svt_negative_threshold_raises(self):
        with pytest.raises(InvalidParameterError):
            svt(np.eye(3), -1e-3)
        # NaN < 0 is false, so only a test of tau >= 0 turns it away
        with pytest.raises(InvalidParameterError):
            svt(np.eye(3), float("nan"))


class TestGradient:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            obs = ObservationMatrix(rng.normal(size=(m, n)))
            graph = epsilon_ball_hyperedges(obs, 0.6, mode="quantile")
            locality = locality_operator_from_hypergraph(graph)
            cfg = SolverConfig(beta=float(rng.uniform(0, 3)))
            state, w, j = random_state(rng, m, n, mu=float(rng.uniform(0.5, 2.0)))
            assert_gradient_matches_finite_differences(state, w, j, locality, obs, cfg)

    def test_gradient_zero_at_feasible_stationary_point(self):
        rng = np.random.default_rng(6)
        obs = ObservationMatrix(rng.normal(size=(3, 4)))
        z = rng.normal(size=(4, 4))
        state = SolverState(
            Z=z,
            E=obs.data - obs.data @ z,
            U1=np.zeros((3, 4)),
            U2=np.zeros((4, 4)),
            U3=np.zeros((4, 4)),
            mu=1.0,
        )
        cfg = SolverConfig(beta=0.0)
        primal = primal_residual(state, obs)
        grad = grad_q(state, z, z, None, obs, cfg, primal)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_step_size_bound(self, monkeypatch):
        # the penalty is fixed, so every W-step thresholds at 1 / mu0, and
        # the locality term bounds no step: beta from 0 to 2000 leaves it alone
        rng = np.random.default_rng(7)
        obs = ObservationMatrix(rng.normal(size=(3, 6)))
        locality = knn_graph_laplacian(obs, 2)
        taus = []
        real_svt = solver.svt

        def traced_svt(a, tau, warm=None):
            taus.append(tau)
            return real_svt(a, tau, warm)

        monkeypatch.setattr(solver, "svt", traced_svt)
        iterations = sum(
            solve(obs, locality, SolverConfig(beta=beta, mu0=4.0, max_iter=30)).iterations
            for beta in (0.0, 2.0, 2000.0)
        )
        assert taus == [0.25] * iterations


class TestUpdates:
    def test_update_Z_composes_primitives(self):
        # solve's first iterate from the zero state: W = svt(0) = 0, then J
        # and E by their prox steps, then Z from the dense normal equations
        rng = np.random.default_rng(7)
        obs = ObservationMatrix(rng.normal(size=(3, 4)))
        locality = knn_graph_laplacian(obs, 2)
        cfg = SolverConfig(mu0=1.0, max_iter=1)
        state = SolverState.initial(3, 4, cfg.mu0)
        w = svt(state.Z + state.U3, 1.0 / cfg.mu0)
        j = update_J(state, cfg)
        state.E = update_E(state, obs.data, cfg)
        expected = dense_z_step(state, w, j, locality, obs, cfg)
        assert np.abs(expected).max() > 1e-3
        np.testing.assert_allclose(solve(obs, locality, cfg).Z, expected, atol=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(
        m=st.integers(1, 4),
        n=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        beta=st.floats(0.0, 100.0),
        mu=st.floats(0.01, 100.0),
    )
    def test_z_step_matches_dense_sylvester_solve(self, m, n, seed, beta, mu):
        # each of three iterations' Z against a dense solve at that iteration's
        # W, J, E and multipliers, on a random positive semidefinite operator
        rng = np.random.default_rng(seed)
        obs = ObservationMatrix(rng.normal(size=(m, n)))
        g = rng.normal(size=(n, n))
        locality = LocalityOperator(g @ g.T + (g @ g.T).T)
        assert_z_steps_match_dense_solve(obs, locality, SolverConfig(beta=beta, mu0=mu, max_iter=3))

    @settings(deadline=None, max_examples=50)
    @given(
        m=st.integers(1, 4),
        sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        beta=st.floats(0.01, 100.0),
        mu=st.floats(0.01, 100.0),
    )
    def test_split_z_step_matches_dense_sylvester_solve(self, m, sizes, seed, beta, mu):
        # a block-diagonal operator, singletons included, under a random
        # vertex order: each group of components solves alone, gathering its
        # columns of R where they are not contiguous
        rng = np.random.default_rng(seed)
        locality, _ = shuffled_block_operator(rng, sizes)
        assert len(solver._column_groups(locality.matrix)) >= 2
        obs = ObservationMatrix(rng.normal(size=(m, locality.n)))
        assert_z_steps_match_dense_solve(obs, locality, SolverConfig(beta=beta, mu0=mu, max_iter=3))

    def test_class_sorted_z_step_writes_its_slices_straight_into_z(self):
        # two far-apart kNN clusters in class order: both groups are slices,
        # whose R[:, g] P_g goes straight into Z's columns
        rng = np.random.default_rng(5)
        obs = ObservationMatrix(np.hstack([rng.normal(size=(3, 15)),
                                           100.0 + rng.normal(size=(3, 15))]))
        locality = knn_graph_laplacian(obs, 3)
        groups = solver._column_groups(locality.matrix)
        assert sum(isinstance(g, slice) for g in groups) >= 2
        assert_z_steps_match_dense_solve(obs, locality, SolverConfig(beta=2.0, mu0=1.0,
                                                                     max_iter=5))

    @pytest.mark.parametrize("with_operator", [False, True])
    def test_rhs_with_its_rank_m_term_added_in_place_is_z_step_rhs(self, monkeypatch,
                                                                   with_operator):
        # the R the Z-step receives, its Y^T (Y - E + U1) added by an in-place
        # GEMM, is z_step_rhs / mu at that iteration's W, J, E and multipliers
        rng = np.random.default_rng(9)
        obs = ObservationMatrix(rng.normal(size=(3, 12)))
        locality = knn_graph_laplacian(obs, 3) if with_operator else None
        cfg = SolverConfig(beta=2.0, mu0=0.5, max_iter=6)
        pairs = []
        real_z_step, real_mult = solver._z_step, solver.update_multipliers
        latest = spy_w_and_j(monkeypatch)

        def spied_z_step(r, *args):
            pairs.append([r.copy()])
            return real_z_step(r, *args)

        def traced_mult(state, primal):
            rhs = z_step_rhs(state, latest["W"], latest["J"], locality, obs, cfg)
            pairs[-1].append(rhs / state.mu)
            return real_mult(state, primal)

        monkeypatch.setattr(solver, "_z_step", spied_z_step)
        monkeypatch.setattr(solver, "update_multipliers", traced_mult)
        solve(obs, locality, cfg)
        assert len(pairs) == cfg.max_iter
        for r, expected in pairs:
            assert np.linalg.norm(r - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_update_E_scalar_prox_oracle(self):
        rng = np.random.default_rng(8)
        obs = ObservationMatrix(rng.normal(size=(2, 3)))
        cfg = SolverConfig(gamma=0.7)
        state, _, _ = random_state(rng, 2, 3, mu=1.3)
        fit = obs.data - obs.data @ state.Z
        out = update_E(state, fit, cfg)
        resid = obs.data - obs.data @ state.Z + state.U1
        grid = np.linspace(-6.0, 6.0, 24001)
        for idx in np.ndindex(out.shape):
            objective = cfg.gamma * np.abs(grid) + 0.5 * state.mu * (
                grid - resid[idx]
            ) ** 2
            assert out[idx] == pytest.approx(grid[np.argmin(objective)], abs=1e-3)

    def test_update_J_scalar_prox_oracle(self):
        rng = np.random.default_rng(9)
        cfg = SolverConfig(lam=0.4)
        state, _, _ = random_state(rng, 2, 3, mu=0.9)
        out = update_J(state, cfg)
        assert np.all(out >= 0)
        arg = state.Z + state.U2
        grid = np.linspace(0.0, 8.0, 16001)
        for idx in np.ndindex(out.shape):
            objective = cfg.lam * grid + 0.5 * state.mu * (grid - arg[idx]) ** 2
            assert out[idx] == pytest.approx(grid[np.argmin(objective)], abs=1e-3)

    def test_update_J_all_negative_argument(self):
        state = SolverState.initial(2, 3, 1.0)
        state.Z = -np.ones((3, 3))
        np.testing.assert_array_equal(update_J(state, SolverConfig()), np.zeros((3, 3)))

    def test_update_J_threshold_value(self):
        cfg = SolverConfig(lam=0.5)
        state = SolverState.initial(2, 2, 1.0)
        state.Z = np.full((2, 2), 2 * cfg.lam)
        np.testing.assert_allclose(update_J(state, cfg), np.full((2, 2), cfg.lam))

    @settings(deadline=None)  # a shared machine can stall one example past the default
    @given(
        z=arrays(np.float64, (3, 3), elements=st.floats(-1e6, 1e6)),
        u2=arrays(np.float64, (3, 3), elements=st.floats(-1e6, 1e6)),
        mu=st.floats(1.0, 1e3),
        lam=st.floats(0.0, 1e3),
    )
    def test_update_J_is_nonnegative_soft_threshold(self, z, u2, mu, lam):
        # the one clip max(x - tau, 0) equals max(shrink(x, tau), 0) entry by entry
        state = SolverState.initial(2, 3, mu)
        state.Z, state.U2 = z, u2
        cfg = SolverConfig(lam=lam)
        expected = np.maximum(shrink(z + u2, lam / mu), 0.0)
        np.testing.assert_array_equal(update_J(state, cfg), expected)

    def test_multipliers_feasible_fixed_point(self):
        rng = np.random.default_rng(10)
        obs = ObservationMatrix(rng.normal(size=(2, 3)))
        z = rng.normal(size=(3, 3))
        w, j = z.copy(), z.copy()
        state = SolverState(
            Z=z, E=obs.data - obs.data @ z,
            U1=rng.normal(size=(2, 3)), U2=rng.normal(size=(3, 3)),
            U3=rng.normal(size=(3, 3)), mu=1.0,
        )
        # the dual step works in place, so compare against copies
        before = [u.copy() for u in (state.U1, state.U2, state.U3)]
        primal = (primal_residual(state, obs), state.Z - j, state.Z - w)
        u1, u2, _, u3 = update_multipliers(state, primal)
        for new, old in zip((u1, u2, u3), before):
            np.testing.assert_allclose(new, old, atol=1e-12)

    def test_penalty_growth_rules(self):
        # mu is fixed: update_multipliers returns state.mu at index 2 (where
        # the benchmark's span tracer reads it) whatever the residuals, and
        # adds each residual to its scaled multiplier U = M / mu, in place
        rng = np.random.default_rng(11)
        state, _, _ = random_state(rng, 2, 3, mu=1.7)
        for scale in (0.0, 1e-8, 10.0):
            scaled = (state.U1, state.U2, state.U3)
            before = [u.copy() for u in scaled]
            primal = tuple(scale * rng.normal(size=u.shape) for u in scaled)
            u1, u2, mu, u3 = update_multipliers(state, primal)
            assert mu == 1.7
            for new, u, old, p in zip((u1, u2, u3), scaled, before, primal):
                assert new is u
                np.testing.assert_array_equal(new, old + p)

    def test_check_convergence(self):
        rng = np.random.default_rng(12)
        obs = ObservationMatrix(rng.normal(size=(2, 3)))
        z = rng.normal(size=(3, 3))
        state = SolverState(
            Z=z, E=obs.data - obs.data @ z,
            U1=np.zeros((2, 3)), U2=np.zeros((3, 3)), U3=np.zeros((3, 3)), mu=1.0,
        )

        def residual():
            return np.linalg.norm(primal_residual(state, obs)) / np.linalg.norm(obs.data)

        assert check_convergence(residual(), 0.0)
        # inclusive <= on the dual side, strict < on the primal side
        assert check_convergence(residual(), solver.EPS2)
        assert not check_convergence(residual(), 2 * solver.EPS2)
        assert not check_convergence(solver.EPS1, 0.0)
        # infeasible state fails regardless of the dual residual
        state.E = state.E + 1.0
        assert not check_convergence(residual(), 0.0)


def z_step_rhs(state, w, j, locality, observations, cfg):
    """R of the Z-step mu (Y^T Y + 2 I) Z + 2 beta Z L = R at W = w and
    J = j: minus grad_q at Z = 0, since the Z-step's objective is quadratic."""
    zero = replace(state, Z=np.zeros_like(state.Z))
    return -grad_q(zero, w, j, locality, observations, cfg, observations.data - state.E)


def dense_z_step(state, w, j, locality, observations, cfg):
    """The Z-step's solution from one dense solve of its normal equations."""
    rhs = z_step_rhs(state, w, j, locality, observations, cfg)
    return dense_sylvester_solve(rhs, state.mu, locality, observations, cfg)


def dense_sylvester_solve(rhs, mu, locality, observations, cfg):
    """Z from mu (Y^T Y + 2 I) Z + 2 beta Z L = rhs, by one dense solve."""
    y = observations.data
    n = y.shape[1]
    lap = np.zeros((n, n)) if locality is None else locality.matrix
    # column-major vec: vec(A Z) = (I kron A) vec Z and vec(Z B) = (B^T kron I) vec Z
    op = np.kron(np.eye(n), mu * (y.T @ y + 2.0 * np.eye(n)))
    op += np.kron(2.0 * cfg.beta * lap.T, np.eye(n))
    return np.linalg.solve(op, rhs.flatten(order="F")).reshape((n, n), order="F")


def unscaled_admm(observations, locality, cfg):
    """The ADMM loop written out with the unscaled multipliers M, each
    gaining mu times its primal residual, and a dense Z-step; the reference
    for `solve`, which keeps U = M / mu. Runs all max_iter iterations and
    returns Z, E, M1, M2 and the histories of r and s."""
    y = observations.data
    m, n = y.shape
    mu = cfg.mu0

    def stacked(*blocks):
        return np.sqrt(sum(np.sum(b**2) for b in blocks))

    z, e = np.zeros((n, n)), np.zeros((m, n))
    m1, m2, m3 = np.zeros((m, n)), np.zeros((n, n)), np.zeros((n, n))
    residuals, changes = [], []
    for _ in range(cfg.max_iter):
        w = svt(z + m3 / mu, 1.0 / mu)
        j = np.maximum(z + m2 / mu - cfg.lam / mu, 0.0)
        e = shrink(y - y @ z + m1 / mu, cfg.gamma / mu)
        rhs = y.T @ (mu * (y - e) + m1) + mu * (j + w) - m2 - m3
        z_new = dense_sylvester_solve(rhs, mu, locality, observations, cfg)
        primal = (y - y @ z_new - e, z_new - j, z_new - w)
        m1, m2, m3 = (mult + mu * p for mult, p in zip((m1, m2, m3), primal))
        dz = z_new - z
        z = z_new
        residuals.append(stacked(*primal) / max(stacked(e, j, w), stacked(y @ z, z, z),
                                                stacked(y)))
        changes.append(mu * stacked(y @ dz, dz, dz) / stacked(m1, m2, m3))
    return z, e, m1, m2, residuals, changes


def assert_z_steps_match_dense_solve(obs, locality, cfg):
    """Every iteration's Z of the real `solve` is within 1e-8 max|Z| of a
    dense solve at that iteration's W, J, E and multipliers."""
    iterates = []
    real_mult = solver.update_multipliers

    def traced_mult(state, primal):
        expected = dense_z_step(state, latest["W"], latest["J"], locality, obs, cfg)
        iterates.append((state.Z, expected))
        return real_mult(state, primal)

    with pytest.MonkeyPatch.context() as patch:
        latest = spy_w_and_j(patch)
        patch.setattr(solver, "update_multipliers", traced_mult)
        solve(obs, locality, cfg)
    assert iterates
    for z, expected in iterates:
        scale = max(np.abs(expected).max(), 1e-300)
        np.testing.assert_allclose(z, expected, rtol=0, atol=1e-8 * scale)


def shuffled_block_operator(rng, sizes):
    """(operator, labels): a positive semidefinite operator whose graph has
    one connected component of each size in `sizes`, a singleton's entry
    zero or positive, with its vertices in a random order; labels[i] is the
    component of vertex i."""
    n = sum(sizes)
    lap = np.zeros((n, n))
    ends = np.cumsum(sizes)
    for k, end in zip(sizes, ends):
        g = rng.normal(size=(k, k))
        lap[end - k:end, end - k:end] = (g @ g.T + (g @ g.T).T) * (k > 1 or rng.integers(2))
    perm = rng.permutation(n)
    return LocalityOperator(lap[np.ix_(perm, perm)]), np.repeat(np.arange(len(sizes)), sizes)[perm]


def check_loop_invariants(monkeypatch, obs, locality, cfg):
    """Run the real `solve`, checking every iteration before its dual step.

    J >= 0, mu is mu0, and the new Z solves the Z-step: grad_q there is at
    most 1e-10 ||R||. W and J are the iteration's, as `svt` and `update_J`
    returned them. The dual step runs once per reported iteration.
    Returns the report.
    """
    calls = []
    update_mult = solver.update_multipliers
    latest = spy_w_and_j(monkeypatch)

    def traced_update_mult(state, primal):
        calls.append(state.mu)
        w, j = latest["W"], latest["J"]
        assert np.all(j >= 0)
        assert state.mu == cfg.mu0
        grad = grad_q(state, w, j, locality, obs, cfg, primal[0])
        rhs = z_step_rhs(state, w, j, locality, obs, cfg)
        assert np.linalg.norm(grad) <= 1e-10 * np.linalg.norm(rhs)
        return update_mult(state, primal)

    monkeypatch.setattr(solver, "update_multipliers", traced_update_mult)
    report = solve(obs, locality, cfg)
    assert len(calls) == report.iterations
    return report


def indefinite_operator(n, rng):
    """-(A + A^T): symmetric, indefinite, largest |eigenvalue| negative."""
    a = rng.normal(size=(n, n))
    op = LocalityOperator(-(a + a.T))
    eigs = np.linalg.eigvalsh(op.matrix)
    assert -eigs.min() > eigs.max() > 0
    return op


def subspaces_workload_data(seed):
    """The benchmark's subspaces input, in its construction and random
    stream: 64 unit-norm points on each of 5 random 4-dim subspaces of R^50,
    plus noise at 0.01, with 16 of the 320 columns replaced by unit-norm
    random outliers."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(5):
        basis = np.linalg.qr(rng.normal(size=(50, 4)))[0]
        coef = rng.normal(size=(4, 64))
        coef /= np.linalg.norm(coef, axis=0)
        blocks.append(basis @ coef)
    data = np.concatenate(blocks, axis=1)
    data = data + rng.normal(0.0, 0.01, size=data.shape)
    for i in rng.choice(320, size=16, replace=False):
        v = rng.normal(size=50)
        data[:, i] = v / np.linalg.norm(v)
    return data


def assert_same_solve(a, b):
    """Two solve reports agree byte for byte in every iterate and history."""
    for name in ("Z", "E", "M1", "M2"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.residual_history == b.residual_history
    assert a.change_history == b.change_history
    assert a.iterations == b.iterations


class TestSolveLoop:
    @settings(deadline=None)
    @given(
        m=st.integers(1, 4),
        n=st.integers(3, 2 * solver.SVT_OVERSAMPLE),
        seed=st.integers(0, 2**32 - 1),
        with_operator=st.booleans(),
        beta=st.floats(0.0, 100.0),
        mu0=st.floats(0.01, 10.0),
        max_iter=st.integers(1, 60),
    )
    def test_solve_is_equivariant_under_a_permutation_of_the_points(
            self, m, n, seed, with_operator, beta, mu0, max_iter):
        # solve(Y P, P^T L P) = (P^T Z P, E P) in exact arithmetic; at
        # n <= 2 SVT_OVERSAMPLE every W-step is exact, so no random range
        # enters, and the two solves differ only by rounding
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(m, n))
        g = rng.normal(size=(n, n))
        laplacian = g @ g.T + (g @ g.T).T if with_operator else None
        perm = rng.permutation(n)

        def operator(order):
            return None if laplacian is None else LocalityOperator(laplacian[np.ix_(order, order)])

        cfg = SolverConfig(beta=beta, mu0=mu0, max_iter=max_iter)
        base = solve(y, operator(np.arange(n)), cfg)
        moved = solve(y[:, perm], operator(perm), cfg)
        np.testing.assert_allclose(moved.Z, base.Z[np.ix_(perm, perm)], rtol=0,
                                   atol=1e-8 * np.abs(base.Z).max())
        np.testing.assert_allclose(moved.E, base.E[:, perm], rtol=0,
                                   atol=1e-8 * np.abs(y).max())

    def test_accepted_low_rank_w_steps_match_the_exact_svt(self, monkeypatch):
        # plain LRR on the benchmark's two moons at n = 200, where every
        # W-step after the first takes the low-rank path; without its power
        # step the worst accepted W is off by about 1e-3 of max|W|, with it
        # by about 3e-7
        obs = two_moons(n_per_moon=100, noise_sigma=0.04, seed=0).observations
        errors = []
        accepted = []
        real_svt, real_low_rank = solver.svt, solver._svt_low_rank

        def spied_low_rank(a, tau, warm):
            found = real_low_rank(a, tau, warm)
            accepted.append(found is not None)
            return found

        def checked_svt(a, tau, warm=None):
            del accepted[:]
            out = real_svt(a, tau, warm)
            if accepted == [True]:
                exact = real_svt(a, tau)
                errors.append(np.abs(out - exact).max() / max(np.abs(exact).max(), 1e-300))
            return out

        monkeypatch.setattr(solver, "_svt_low_rank", spied_low_rank)
        monkeypatch.setattr(solver, "svt", checked_svt)
        report = solve(obs, None, SolverConfig(mu0=1.0, max_iter=60))
        assert report.svt_fallbacks == 0 and len(errors) == report.iterations
        assert max(errors) < 1e-5

    @pytest.mark.parametrize("method, fallbacks", [("lrr", 5), ("tlr-lrr", 6)])
    def test_subspaces_w_steps_fall_back_no_more_than_they_did(self, method, fallbacks):
        # the benchmark's subspaces workload at seed 0: n = 320, about 75 kept
        # values and 123 above tau / 2, so a range about 129 columns wide; 5
        # and 6 of its 100 W-steps fail their certificate (counted with 1 BLAS
        # thread)
        obs = ObservationMatrix(subspaces_workload_data(seed=0))
        locality = None if method == "lrr" else locality_operator_from_hypergraph(
            epsilon_ball_hyperedges(obs, 0.05, mode="quantile"))
        cfg = SolverConfig(beta=1.0, gamma=0.4, mu0=1.0, max_iter=100)
        report = solve(obs, locality, cfg)
        assert report.iterations == 100
        assert report.svt_fallbacks <= fallbacks

    @pytest.mark.parametrize("method", ["lrr", "tlr-lrr"])
    def test_wide_two_moons_w_steps_all_take_the_low_rank_path(self, monkeypatch, method):
        # the benchmark's wide-n workload at seed 0: two moons at n = 800
        # with the frozen two-moons solver settings and 10 iterations
        obs = two_moons(n_per_moon=400, noise_sigma=0.04, seed=0).observations
        locality = None if method == "lrr" else locality_operator_from_hypergraph(
            epsilon_ball_hyperedges(obs, 0.10, mode="quantile"))
        accepted = []
        real_low_rank = solver._svt_low_rank

        def spied_low_rank(a, tau, warm):
            found = real_low_rank(a, tau, warm)
            accepted.append(found is not None)
            return found

        monkeypatch.setattr(solver, "_svt_low_rank", spied_low_rank)
        report = solve(obs, locality, SolverConfig(beta=800.0, mu0=1.0, max_iter=10))
        assert report.iterations == 10 and report.svt_fallbacks == 0
        assert accepted == [True] * 10

    def test_duplicated_columns_converge(self, monkeypatch):
        # both stop tests are relative, so the solve stops soon after the
        # constraint is met
        rng = np.random.default_rng(13)
        base = rng.normal(size=(4, 5))
        y = np.concatenate([base, base], axis=1)
        obs = ObservationMatrix(y)
        cfg = SolverConfig(beta=0.0, lam=1e-4, mu0=1.0, max_iter=3000)
        steps = []
        real_mult = solver.update_multipliers
        latest = spy_w_and_j(monkeypatch)

        def traced_mult(state, primal):
            u1, u2, mu, u3 = real_mult(state, primal)
            # the dual step updates U in place: keep this iteration's M = mu U
            steps.append((state.Z, latest["W"], latest["J"], state.E, primal,
                          (mu * u1, mu * u2, mu * u3)))
            return u1, u2, mu, u3

        monkeypatch.setattr(solver, "update_multipliers", traced_mult)
        report = solve(obs, None, cfg)
        assert report.converged
        resid = np.linalg.norm(y - y @ report.Z - report.E) / np.linalg.norm(y)
        assert resid < 1e-6
        assert report.iterations <= 300
        assert report.residual_history[-1] < solver.EPS1
        assert report.change_history[-1] <= solver.EPS2
        # the histories hold the relative primal residual r and dual residual s
        z_prev = np.zeros((10, 10))
        for (z, w, j, e, primal, (m1, m2, m3)), r, s in zip(
            steps, report.residual_history, report.change_history
        ):
            stacked = np.linalg.norm(np.concatenate([p.ravel() for p in primal]))
            scale = max(np.sqrt(np.sum(e**2) + np.sum(j**2) + np.sum(w**2)),
                        np.sqrt(np.sum((y @ z) ** 2) + 2 * np.sum(z**2)),
                        np.linalg.norm(y))
            assert r == pytest.approx(stacked / scale, rel=1e-10)
            dz = z - z_prev
            dual = cfg.mu0 * np.sqrt(np.sum((y @ dz) ** 2) + 2 * np.sum(dz**2))
            multipliers = np.sqrt(np.sum(m1**2) + np.sum(m2**2) + np.sum(m3**2))
            assert s == pytest.approx(dual / multipliers, rel=1e-6)
            z_prev = z

    def test_loop_invariants_each_iteration(self, monkeypatch):
        # J >= 0, mu fixed and the Z-step exact after every iteration
        rng = np.random.default_rng(14)
        obs = ObservationMatrix(rng.normal(size=(3, 8)))
        graph = epsilon_ball_hyperedges(obs, 0.3, mode="quantile")
        locality = locality_operator_from_hypergraph(graph)
        cfg = SolverConfig(mu0=1.0, max_iter=60)
        check_loop_invariants(monkeypatch, obs, locality, cfg)

    def test_loop_invariants_on_a_shuffled_two_component_operator(self, monkeypatch):
        # two far-apart clusters in a random order: the kNN graph has two
        # components whose columns interleave, so every Z-step gathers R
        rng = np.random.default_rng(21)
        data = np.hstack([rng.normal(size=(3, 7)), 100.0 + rng.normal(size=(3, 7))])
        obs = ObservationMatrix(data[:, rng.permutation(14)])
        locality = knn_graph_laplacian(obs, 3)
        groups = solver._column_groups(locality.matrix)
        assert [len(g) for g in groups] == [7, 7]
        assert all(isinstance(g, np.ndarray) for g in groups)
        check_loop_invariants(monkeypatch, obs, locality, SolverConfig(beta=2.0, mu0=1.0,
                                                                       max_iter=40))

    def test_indefinite_operator_raises(self):
        # the exact Z-step needs 2 mu + 2 beta b > 0 at every eigenvalue b of L
        rng = np.random.default_rng(18)
        obs = ObservationMatrix(rng.normal(size=(3, 10)))
        with pytest.raises(InvalidInputError):
            solve(obs, indefinite_operator(obs.n, rng), SolverConfig(beta=2.0, mu0=1.0))

    @pytest.mark.parametrize("builder", [
        lambda obs: locality_operator_from_hypergraph(
            epsilon_ball_hyperedges(obs, 0.3, mode="quantile")),
        lambda obs: knn_graph_laplacian(obs, 3),
        lambda obs: knn_hypergraph_laplacian(obs, 3),
        lambda obs: None,
    ], ids=["eps-ball", "knn-graph", "knn-hypergraph", "none"])
    def test_z_step_is_svt_of_gradient_step(self, monkeypatch, builder):
        """The nuclear-norm step is an SVT: every iteration's W is
        SVT(Z + U3, 1 / mu) at the previous iterate, U3 = M3 / mu. The Z-step after it
        is exact: check_loop_invariants finds grad_q zero at the new Z."""
        rng = np.random.default_rng(18)
        obs = ObservationMatrix(rng.normal(size=(3, 10)))
        locality = builder(obs)
        cfg = SolverConfig(beta=2.0, mu0=1.0, max_iter=25)
        svt_calls, iterates = [], [(np.zeros((obs.n, obs.n)), np.zeros((obs.n, obs.n)))]
        real_svt, real_mult = solver.svt, solver.update_multipliers

        def traced_svt(a, tau, warm=None):
            svt_calls.append((a, tau, real_svt(a, tau, warm)))
            return svt_calls[-1][2]

        def traced_mult(state, primal):
            out = real_mult(state, primal)
            iterates.append((state.Z, out[3].copy()))  # U3 changes in place
            return out

        monkeypatch.setattr(solver, "svt", traced_svt)
        monkeypatch.setattr(solver, "update_multipliers", traced_mult)
        report = check_loop_invariants(monkeypatch, obs, locality, cfg)
        assert len(svt_calls) == report.iterations
        for (a, tau, w), (z, u3) in zip(svt_calls, iterates):
            assert tau == 1.0 / cfg.mu0
            np.testing.assert_array_equal(a, z + u3)
            # n = 10 is at most twice the first width, so the solve takes the
            # exact path
            np.testing.assert_array_equal(w, svt(a, tau))
        np.testing.assert_array_equal(report.Z, iterates[-1][0])

    @pytest.mark.parametrize("mu0", [0.25, 4.0])
    def test_scaled_form_matches_the_unscaled_loop(self, mu0):
        # away from mu = 1, where U = M / mu differs from M; n = 10 is at most
        # twice the first width, so every W-step takes the exact path
        rng = np.random.default_rng(22)
        obs = ObservationMatrix(rng.normal(size=(3, 10)))
        locality = knn_graph_laplacian(obs, 3)
        cfg = SolverConfig(beta=2.0, mu0=mu0, max_iter=30)
        report = solve(obs, locality, cfg)
        assert report.iterations == cfg.max_iter
        z, e, m1, m2, residuals, changes = unscaled_admm(obs, locality, cfg)
        for got, want in ((report.Z, z), (report.E, e), (report.M1, m1), (report.M2, m2)):
            assert np.abs(want).max() > 1e-3
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max())
        np.testing.assert_allclose(report.residual_history, residuals, rtol=1e-9)
        np.testing.assert_allclose(report.change_history, changes, rtol=1e-9)

    @pytest.mark.parametrize("method, ceiling", [
        ("lrr", 10.1), ("graph-lrr", 11.1), ("tlr-lrr", 11.1),
    ])
    def test_traced_peak_memory_stays_under_its_ceiling(self, method, ceiling):
        # the loop's traced peak in n x n doubles, at n = 400 where both
        # operators split 200 + 200: one more n x n buffer alive at the peak
        # adds 1 to it
        obs = two_moons(n_per_moon=200, noise_sigma=0.04, seed=0).observations
        locality = LOCALITY[method](obs, BENCHMARK_CONFIG["two-moons"]["method_params"])
        tracemalloc.start()
        try:
            solve(obs, locality, SolverConfig(beta=800.0, mu0=1.0, max_iter=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * obs.n**2) <= ceiling

    def test_e_ratio_is_the_share_of_the_data_e_absorbed(self):
        obs = two_moons(n_per_moon=20, noise_sigma=0.04, seed=2).observations
        cfg = SolverConfig(beta=10.0, gamma=0.1, mu0=1.0, max_iter=30)
        report = solve(obs, knn_graph_laplacian(obs, 5), cfg)
        expected = np.linalg.norm(report.E) / np.linalg.norm(obs.data)
        assert 0 < report.e_ratio < 1
        assert report.e_ratio == pytest.approx(expected, rel=1e-12)

    def test_all_zero_data_raises(self):
        with pytest.raises(InvalidInputError, match="all-zero data matrix"):
            solve(np.zeros((2, 3)))

    def test_data_whose_norm_underflows_are_refused_by_name(self):
        # nonzero data, but the sum of squares behind ||Y||_F underflows to 0
        y = two_moons(n_per_moon=20, seed=1).observations.data * 1e-200
        assert np.any(y) and np.linalg.norm(y) == 0
        with pytest.raises(InvalidInputError, match="underflows to 0; rescale the data"):
            solve(y)

    def test_too_few_observations_or_a_mismatched_operator_raise(self):
        with pytest.raises(InvalidInputError, match="at least two observations"):
            solve(np.ones((2, 1)))
        obs = ObservationMatrix(np.random.default_rng(23).normal(size=(3, 4)))
        with pytest.raises(InvalidInputError, match="dimension mismatch"):
            solve(obs, knn_graph_laplacian(ObservationMatrix(obs.data[:, :3]), 1))

    def test_separated_clusters_give_block_dominant_affinity(self):
        rng = np.random.default_rng(15)
        a = rng.normal(size=(2, 10)) * 0.2
        b = rng.normal(size=(2, 10)) * 0.2 + 20.0
        obs = ObservationMatrix(np.concatenate([a, b], axis=1))
        graph = epsilon_ball_hyperedges(obs, 0.2, mode="quantile")
        locality = locality_operator_from_hypergraph(graph)
        report = solve(obs, locality, SolverConfig(mu0=1.0, max_iter=2000))
        w = (np.abs(report.Z) + np.abs(report.Z.T)) / 2
        np.fill_diagonal(w, 0.0)
        within = (w[:10, :10].sum() + w[10:, 10:].sum()) / (2 * 10 * 9)
        cross = w[:10, 10:].sum() / (10 * 10)
        assert within > cross

    def test_solve_is_deterministic(self):
        rng = np.random.default_rng(16)
        obs = ObservationMatrix(rng.normal(size=(3, 8)))
        cfg = SolverConfig(mu0=1.0, max_iter=50)
        r1 = solve(obs, None, cfg)
        r2 = solve(obs, None, cfg)
        np.testing.assert_array_equal(r1.Z, r2.Z)
        np.testing.assert_array_equal(r1.E, r2.E)
        assert r1.residual_history == r2.residual_history

    def test_nonconvergence_is_reported_not_raised(self):
        rng = np.random.default_rng(17)
        obs = ObservationMatrix(rng.normal(size=(3, 6)))
        report = solve(obs, None, SolverConfig(max_iter=2))
        assert not report.converged
        assert report.iterations == 2

    def test_no_operator_ignores_beta(self):
        rng = np.random.default_rng(19)
        obs = ObservationMatrix(rng.normal(size=(3, 8)))
        cfg = SolverConfig(beta=10.0, mu0=1.0, max_iter=50)
        plain = solve(obs, None, replace(cfg, beta=0.0))
        assert_same_solve(solve(obs, None, cfg), plain)

    def test_zero_beta_drops_the_operator(self):
        rng = np.random.default_rng(20)
        obs = ObservationMatrix(rng.normal(size=(3, 8)))
        graph = epsilon_ball_hyperedges(obs, 0.3, mode="quantile")
        locality = locality_operator_from_hypergraph(graph)
        assert np.abs(locality.matrix).max() > 0
        cfg = SolverConfig(beta=0.0, mu0=1.0, max_iter=50)
        assert_same_solve(solve(obs, locality, cfg), solve(obs, None, cfg))

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(gamma=0.0)
        with pytest.raises(InvalidInputError):
            SolverConfig(mu0=0.0)
        # mu0 above MU_MAX; 10**400 overflows a float; max_iter must be a positive int
        for bad in ({"gamma": np.nan}, {"beta": np.inf}, {"lam": -np.inf}, {"mu0": 1e11},
                    {"lam": 10**400}, {"max_iter": 2.5}, {"max_iter": 0}):
            with pytest.raises(InvalidInputError):
                SolverConfig(**bad)

    @pytest.mark.parametrize("name", [f.name for f in fields(SolverConfig)])
    def test_every_config_field_reaches_the_solve(self, name):
        # data of test_loop_invariants_each_iteration; each weight and mu0 doubled,
        # max_iter one more
        rng = np.random.default_rng(14)
        obs = ObservationMatrix(rng.normal(size=(3, 8)))
        graph = epsilon_ball_hyperedges(obs, 0.3, mode="quantile")
        locality = locality_operator_from_hypergraph(graph)
        base = SolverConfig(mu0=1.0, max_iter=50)
        value = getattr(base, name)
        changed = replace(base, **{name: value + 1 if name == "max_iter" else 2 * value})
        a, b = solve(obs, locality, base), solve(obs, locality, changed)
        assert a.iterations != b.iterations or a.Z.tobytes() != b.Z.tobytes()


class TestColumnGroups:
    def test_connected_operator_is_one_group_in_place(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(9, 9))
        assert solver._column_groups(g @ g.T + (g @ g.T).T) == [slice(0, 9)]

    def test_class_sorted_components_are_slices_in_order(self):
        obs = two_moons(n_per_moon=100, noise_sigma=0.04, seed=1).observations
        groups = solver._column_groups(knn_graph_laplacian(obs, 5).matrix)
        assert groups == [slice(0, 100), slice(100, 200)]

    def test_isolated_points_are_pooled(self):
        # a 30-point path and 10 isolated points among its vertices, in groups
        # of at least ceil(40 / 8) = 5 points
        isolated = np.arange(3, 40, 4)
        path = np.setdiff1d(np.arange(40), isolated)
        adjacency = np.zeros((40, 40))
        adjacency[path[:-1], path[1:]] = 1.0
        groups = solver._column_groups(adjacency + adjacency.T)
        np.testing.assert_array_equal(groups[0], path)
        np.testing.assert_array_equal(np.concatenate(groups[1:]), isolated)
        assert [len(g) for g in groups[1:]] == [5, 5]

    def test_all_isolated_points_fold_the_remainder_into_the_last_group(self):
        groups = solver._column_groups(np.zeros((20, 20)))
        assert groups == [slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 12),
                          slice(12, 15), slice(15, 20)]

    @settings(deadline=None, max_examples=200)
    @given(labels=st.lists(st.integers(0, 30), min_size=2, max_size=80))
    def test_groups_partition_the_components_into_at_most_8(self, labels):
        labels = np.array(labels)
        n = len(labels)
        groups = solver._column_groups((labels[:, None] == labels).astype(float))
        columns = [np.arange(n)[g] for g in groups]
        assert len(groups) <= solver.Z_GROUPS
        assert all(len(c) >= -(-n // solver.Z_GROUPS) for c in columns)
        assert all(np.all(np.diff(c) > 0) for c in columns)
        np.testing.assert_array_equal(np.sort(np.concatenate(columns)), np.arange(n))
        # a component never straddles two groups
        owner = np.concatenate([np.full(len(c), i) for i, c in enumerate(columns)])
        owner = owner[np.argsort(np.concatenate(columns))]
        assert all(len(set(owner[labels == v])) == 1 for v in set(labels.tolist()))

    @pytest.mark.parametrize("dataset, counts", [
        ("two-moons", {"graph-lrr": 2, "lrlrr": 2, "tlr-lrr": 2}),
        ("three-circles", {"graph-lrr": 3, "lrlrr": 3, "tlr-lrr": 1}),
    ])
    def test_seed_0_grid_operators_split_by_class(self, dataset, counts):
        # the frozen grid's operators at seed 0, each group one class (or all
        # of them), its columns contiguous
        spec = BENCHMARK_CONFIG[dataset]
        obs = GENERATORS[dataset](seed=0, **spec["generator"]).observations
        for method, count in counts.items():
            groups = solver._column_groups(LOCALITY[method](obs, spec["method_params"]).matrix)
            n = obs.n
            assert groups == [slice(i * n // count, (i + 1) * n // count) for i in range(count)]
