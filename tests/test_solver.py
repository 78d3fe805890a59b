"""Solver primitives against independent oracles, plus loop invariants."""

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
from subspace_lrr.errors import InvalidInputError, InvalidParameterError
from subspace_lrr.solver import (
    SolverConfig,
    SolverState,
    check_convergence,
    grad_q,
    update_E,
    update_J,
    update_multipliers,
)


def random_state(rng, m, n, mu):
    return SolverState(
        Z=rng.normal(size=(n, n)),
        J=rng.normal(size=(n, n)),
        E=rng.normal(size=(m, n)),
        M1=rng.normal(size=(m, n)),
        M2=rng.normal(size=(n, n)),
        mu=mu,
    )


def primal_residual(state, observations):
    y = observations.data
    return y - y @ state.Z - state.E


def smooth_objective(z, state, locality, observations, cfg):
    """The linearized subproblem's smooth part q(Z), evaluated directly."""
    y = observations.data
    r1 = y - y @ z - state.E + state.M1 / state.mu
    r2 = z - state.J + state.M2 / state.mu
    val = cfg.beta * float(np.trace(z @ locality.matrix @ z.T))
    val += 0.5 * state.mu * float(np.sum(r1 * r1))
    val += 0.5 * state.mu * float(np.sum(r2 * r2))
    return val


def assert_gradient_matches_finite_differences(state, locality, observations, cfg):
    """grad_q at state.Z against central differences of smooth_objective."""
    step = 1e-5
    grad = grad_q(state, locality, observations, cfg, primal_residual(state, observations))
    fd = np.zeros_like(grad)
    for i, j in np.ndindex(grad.shape):
        zp, zm = state.Z.copy(), state.Z.copy()
        zp[i, j] += step
        zm[i, j] -= step
        fd[i, j] = (
            smooth_objective(zp, state, locality, observations, cfg)
            - smooth_objective(zm, state, locality, observations, cfg)
        ) / (2 * step)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-5)


def assert_shrink_minimizes_on_grid(r, tau):
    """shrink(r, tau) minimizes tau |e| + (e - r)^2 / 2 over a fine grid."""
    grid = np.linspace(-5.0, 5.0, 20001)
    objective = tau * np.abs(grid) + 0.5 * (grid - r) ** 2
    assert shrink(r, tau) == pytest.approx(grid[np.argmin(objective)], abs=1e-3)


def assert_svt_beats_perturbations(a, tau, rng):
    """svt(a, tau) must beat 1000 random perturbations of itself on
    tau ||X||_* + 0.5 ||X - A||_F^2."""
    out = svt(a, tau)

    def objective(x):
        return tau * np.linalg.svd(x, compute_uv=False).sum() + 0.5 * np.sum((x - a) ** 2)

    base = objective(out)
    for _ in range(1000):
        probe = out + rng.normal(size=out.shape) * rng.uniform(1e-4, 0.3)
        assert objective(probe) >= base - 1e-9


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

    def test_svt_negative_threshold_raises(self):
        with pytest.raises(InvalidParameterError):
            svt(np.eye(3), -1e-3)


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
            state = random_state(rng, m, n, mu=float(rng.uniform(0.5, 2.0)))
            assert_gradient_matches_finite_differences(state, locality, obs, cfg)

    def test_gradient_zero_at_feasible_stationary_point(self):
        rng = np.random.default_rng(6)
        obs = ObservationMatrix(rng.normal(size=(3, 4)))
        z = rng.normal(size=(4, 4))
        state = SolverState(
            Z=z,
            J=z.copy(),
            E=obs.data - obs.data @ z,
            M1=np.zeros((3, 4)),
            M2=np.zeros((4, 4)),
            mu=1.0,
        )
        cfg = SolverConfig(beta=0.0)
        primal = primal_residual(state, obs)
        grad = grad_q(state, None, obs, cfg, primal)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)


    def test_step_size_bound(self, monkeypatch):
        # with no locality term, solve thresholds at 1 / eta1 = 1 / (1.02 mu (1 + ||Y||_2^2)),
        # so the threshold falls as mu grows and settles at MU_MAX
        rng = np.random.default_rng(7)
        obs = ObservationMatrix(rng.normal(size=(3, 6)))
        monkeypatch.setattr(solver, "MU_MAX", 4.0)
        monkeypatch.setattr(solver, "EPS2", 1e6)
        cfg = SolverConfig(mu0=1.0, max_iter=30)
        taus = []
        real_svt = solver.svt

        def traced_svt(a, tau):
            taus.append(tau)
            return real_svt(a, tau)

        monkeypatch.setattr(solver, "svt", traced_svt)
        solve(obs, None, cfg)
        y_norm2 = np.linalg.norm(obs.data, 2)
        for tau, mu in ((taus[0], cfg.mu0), (taus[-1], solver.MU_MAX)):
            assert tau == pytest.approx(1.0 / (1.02 * mu * (1.0 + y_norm2**2)), rel=1e-12)
        assert all(b <= a for a, b in zip(taus, taus[1:]))


class TestUpdates:
    def test_update_Z_composes_primitives(self):
        # solve's first Z is SVT(-grad_q / eta1, 1 / eta1) taken from the zero state
        rng = np.random.default_rng(7)
        obs = ObservationMatrix(rng.normal(size=(3, 4)))
        locality = knn_graph_laplacian(obs, 2)
        cfg = SolverConfig(mu0=1.0, max_iter=1)
        state = SolverState.initial(3, 4, cfg.mu0)
        l_norm2 = float(np.linalg.norm(locality.matrix, 2))
        y_norm2 = float(np.linalg.norm(obs.data, 2))
        eta1 = 1.02 * (2.0 * cfg.beta * l_norm2 + cfg.mu0 * (1.0 + y_norm2**2))
        primal = primal_residual(state, obs)
        expected = svt(-grad_q(state, locality, obs, cfg, primal) / eta1, 1.0 / eta1)
        assert np.abs(expected).max() > 1e-3  # the threshold keeps part of the step
        np.testing.assert_allclose(solve(obs, locality, cfg).Z, expected, atol=1e-12)

    def test_update_E_scalar_prox_oracle(self):
        rng = np.random.default_rng(8)
        obs = ObservationMatrix(rng.normal(size=(2, 3)))
        cfg = SolverConfig(gamma=0.7)
        state = random_state(rng, 2, 3, mu=1.3)
        fit = obs.data - obs.data @ state.Z
        out = update_E(state, fit, cfg)
        resid = obs.data - obs.data @ state.Z + state.M1 / state.mu
        grid = np.linspace(-6.0, 6.0, 24001)
        for idx in np.ndindex(out.shape):
            objective = cfg.gamma * np.abs(grid) + 0.5 * state.mu * (
                grid - resid[idx]
            ) ** 2
            assert out[idx] == pytest.approx(grid[np.argmin(objective)], abs=1e-3)

    def test_update_J_scalar_prox_oracle(self):
        rng = np.random.default_rng(9)
        cfg = SolverConfig(lam=0.4)
        state = random_state(rng, 2, 3, mu=0.9)
        out = update_J(state, cfg)
        assert np.all(out >= 0)
        arg = state.Z + state.M2 / state.mu
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
        m2=arrays(np.float64, (3, 3), elements=st.floats(-1e6, 1e6)),
        mu=st.floats(1.0, 1e3),
        lam=st.floats(0.0, 1e3),
    )
    def test_update_J_is_nonnegative_soft_threshold(self, z, m2, mu, lam):
        # the one clip max(x - tau, 0) equals max(shrink(x, tau), 0) entry by entry
        state = SolverState(z, np.zeros((3, 3)), np.zeros((2, 3)), np.zeros((2, 3)), m2, mu)
        cfg = SolverConfig(lam=lam)
        expected = np.maximum(shrink(z + m2 / mu, lam / mu), 0.0)
        np.testing.assert_array_equal(update_J(state, cfg), expected)

    def test_multipliers_feasible_fixed_point(self):
        rng = np.random.default_rng(10)
        obs = ObservationMatrix(rng.normal(size=(2, 3)))
        z = rng.normal(size=(3, 3))
        state = SolverState(
            Z=z, J=z.copy(), E=obs.data - obs.data @ z,
            M1=rng.normal(size=(2, 3)), M2=rng.normal(size=(3, 3)), mu=1.0,
        )
        m1, m2, _ = update_multipliers(state, primal_residual(state, obs), 0.0)
        np.testing.assert_allclose(m1, state.M1, atol=1e-12)
        np.testing.assert_allclose(m2, state.M2, atol=1e-12)

    def test_penalty_growth_rules(self):
        rng = np.random.default_rng(11)
        obs = ObservationMatrix(rng.normal(size=(2, 3)))
        state = random_state(rng, 2, 3, mu=1.0)
        primal = primal_residual(state, obs)
        # large iterate change: mu frozen
        _, _, mu = update_multipliers(state, primal, 10.0)
        assert mu == 1.0
        # small change: mu grows by RHO0
        _, _, mu = update_multipliers(state, primal, 0.0)
        assert mu == pytest.approx(solver.RHO0)
        # cap binds
        state.mu = solver.MU_MAX
        _, _, mu = update_multipliers(state, primal, 0.0)
        assert mu == solver.MU_MAX

    def test_check_convergence(self):
        rng = np.random.default_rng(12)
        obs = ObservationMatrix(rng.normal(size=(2, 3)))
        z = rng.normal(size=(3, 3))
        state = SolverState(
            Z=z, J=z.copy(), E=obs.data - obs.data @ z,
            M1=np.zeros((2, 3)), M2=np.zeros((3, 3)), mu=1.0,
        )

        def residual():
            return np.linalg.norm(primal_residual(state, obs)) / np.linalg.norm(obs.data)

        assert check_convergence(residual(), 0.0)
        # inclusive <= on the iterate-change side, strict < on the residual side
        assert check_convergence(residual(), solver.EPS2)
        assert not check_convergence(residual(), 2 * solver.EPS2)
        assert not check_convergence(solver.EPS1, 0.0)
        # infeasible state fails regardless of the iterate change
        state.E = state.E + 1.0
        assert not check_convergence(residual(), 0.0)


def check_loop_invariants(monkeypatch, obs, locality, cfg):
    """Run the real `solve`, recording J and mu after every iteration.

    J >= 0 each time, and mu0 <= mu, nondecreasing, <= MU_MAX. Each step
    is called once per reported iteration. Returns mu after each iteration.
    """
    js, mus = [], []
    update_j, update_mult = solver.update_J, solver.update_multipliers

    def traced_update_j(*args):
        js.append(update_j(*args))
        return js[-1]

    def traced_update_mult(*args):
        out = update_mult(*args)
        mus.append(out[2])
        return out

    monkeypatch.setattr(solver, "update_J", traced_update_j)
    monkeypatch.setattr(solver, "update_multipliers", traced_update_mult)
    report = solve(obs, locality, cfg)
    assert len(js) == len(mus) == report.iterations
    assert all(np.all(j >= 0) for j in js)
    assert cfg.mu0 <= mus[0]
    assert all(a <= b for a, b in zip(mus, mus[1:]))
    assert mus[-1] <= solver.MU_MAX
    return mus


def indefinite_operator(n, rng):
    """-(A + A^T): symmetric, indefinite, largest |eigenvalue| negative."""
    a = rng.normal(size=(n, n))
    op = LocalityOperator(-(a + a.T))
    eigs = np.linalg.eigvalsh(op.matrix)
    assert -eigs.min() > eigs.max() > 0
    return op


def assert_same_solve(a, b):
    """Two solve reports agree byte for byte in every iterate and history."""
    for name in ("Z", "E", "M1", "M2"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.residual_history == b.residual_history
    assert a.change_history == b.change_history
    assert a.iterations == b.iterations


class TestSolveLoop:
    def test_duplicated_columns_converge(self):
        rng = np.random.default_rng(13)
        base = rng.normal(size=(4, 5))
        y = np.concatenate([base, base], axis=1)
        obs = ObservationMatrix(y)
        cfg = SolverConfig(beta=0.0, lam=1e-4, mu0=1.0, max_iter=3000)
        report = solve(obs, None, cfg)
        assert report.converged
        resid = np.linalg.norm(y - y @ report.Z - report.E) / np.linalg.norm(y)
        assert resid < 1e-6

    def test_loop_invariants_each_iteration(self, monkeypatch):
        # J >= 0 after every iteration; mu nondecreasing and capped
        rng = np.random.default_rng(14)
        obs = ObservationMatrix(rng.normal(size=(3, 8)))
        graph = epsilon_ball_hyperedges(obs, 0.3, mode="quantile")
        locality = locality_operator_from_hypergraph(graph)
        monkeypatch.setattr(solver, "MU_MAX", 5.0)
        cfg = SolverConfig(mu0=1.0, max_iter=60)
        check_loop_invariants(monkeypatch, obs, locality, cfg)

    def test_penalty_grows_to_its_cap(self, monkeypatch):
        # same data as above; EPS2 = 1e6 makes every iterate change small
        rng = np.random.default_rng(14)
        obs = ObservationMatrix(rng.normal(size=(3, 8)))
        graph = epsilon_ball_hyperedges(obs, 0.3, mode="quantile")
        locality = locality_operator_from_hypergraph(graph)
        monkeypatch.setattr(solver, "MU_MAX", 5.0)
        monkeypatch.setattr(solver, "EPS2", 1e6)
        cfg = SolverConfig(mu0=1.0, max_iter=60)
        mus = check_loop_invariants(monkeypatch, obs, locality, cfg)
        assert any(a < b for a, b in zip([cfg.mu0, *mus], mus))
        assert mus[-1] == solver.MU_MAX

    @pytest.mark.parametrize("builder", [
        lambda obs, rng: locality_operator_from_hypergraph(
            epsilon_ball_hyperedges(obs, 0.3, mode="quantile")),
        lambda obs, rng: knn_graph_laplacian(obs, 3),
        lambda obs, rng: knn_hypergraph_laplacian(obs, 3),
        lambda obs, rng: indefinite_operator(obs.n, rng),
        lambda obs, rng: None,
    ], ids=["eps-ball", "knn-graph", "knn-hypergraph", "indefinite", "none"])
    def test_z_step_is_svt_of_gradient_step(self, monkeypatch, builder):
        """Every iteration's Z is SVT(Z - grad_q / eta1, 1 / eta1) with
        eta1 = 1.02 (2 beta ||L||_2 + mu (1 + ||Y||_2^2)) at that iteration's mu."""
        rng = np.random.default_rng(18)
        obs = ObservationMatrix(rng.normal(size=(3, 10)))
        locality = builder(obs, rng)
        l_norm2 = 0.0 if locality is None else np.linalg.norm(locality.matrix, 2)
        y_norm2 = np.linalg.norm(obs.data, 2)
        # EPS2 = 1e6 lets mu grow, so the step changes from one iteration to the next
        monkeypatch.setattr(solver, "MU_MAX", 4.0)
        monkeypatch.setattr(solver, "EPS2", 1e6)
        cfg = SolverConfig(beta=2.0, mu0=1.0, max_iter=25)
        svt_calls, grads, mus = [], [], [cfg.mu0]
        real_svt, real_grad_q, real_mult = solver.svt, solver.grad_q, solver.update_multipliers

        def traced_svt(a, tau):
            svt_calls.append((a, tau, real_svt(a, tau)))
            return svt_calls[-1][2]

        def traced_grad_q(*args):
            grads.append(real_grad_q(*args))
            return grads[-1]

        def traced_mult(*args):
            out = real_mult(*args)
            mus.append(out[2])
            return out

        monkeypatch.setattr(solver, "svt", traced_svt)
        monkeypatch.setattr(solver, "grad_q", traced_grad_q)
        monkeypatch.setattr(solver, "update_multipliers", traced_mult)
        report = solve(obs, locality, cfg)
        assert len(svt_calls) == len(grads) == report.iterations
        assert len(set(mus)) > 1
        z_prev = np.zeros((obs.n, obs.n))
        for (a, tau, z), g, mu in zip(svt_calls, grads, mus):
            eta1 = 1.02 * (2.0 * cfg.beta * l_norm2 + mu * (1.0 + y_norm2**2))
            assert tau == pytest.approx(1.0 / eta1, rel=1e-12)
            np.testing.assert_allclose(a, z_prev - g / eta1, rtol=0, atol=1e-12)
            z_prev = z
        np.testing.assert_array_equal(report.Z, z_prev)

    def test_all_zero_data_raises(self):
        with pytest.raises(InvalidInputError):
            solve(np.zeros((2, 3)))

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
        # mu0 above MU_MAX; 10**400 overflows a float; max_iter must be an int
        for bad in ({"gamma": np.nan}, {"beta": np.inf}, {"lam": -np.inf}, {"mu0": 1e11},
                    {"lam": 10**400}, {"max_iter": 2.5}):
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
