"""Linearized ADMM solver for locality-regularized low-rank self-expression.

Minimizes  ||Z||_* + lambda ||J||_1 + beta tr(Z L Z^T) + gamma ||E||_1
subject to Y = YZ + E, Z = J, J >= 0, by alternating closed-form proximal
steps (singular value thresholding for Z, soft thresholding for E and J)
with an adaptive penalty schedule.

Per iteration: Z-step, fit = Y - YZ, E-step, J-step, primal = fit - E,
stop test, dual ascent. fit, primal, the residual ||primal|| / ||Y||_F and
the iterate change are each computed once and handed to the later steps.
"""

import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import InvalidInputError, NumericalError
from .hypergraph import LocalityOperator, ObservationMatrix


@dataclass(frozen=True)
class SolverConfig:
    lam: float = 0.01       # l1 weight on J
    beta: float = 10.0      # locality weight
    gamma: float = 1.1      # l1 weight on the error matrix
    eps1: float = 1e-6      # relative feasibility tolerance
    eps2: float = 1e-4      # iterate-change tolerance
    mu0: float = 1e-2       # initial penalty
    mu_max: float = 1e10    # penalty cap
    rho0: float = 1.1       # penalty growth factor
    max_iter: int = 1000
    eta_margin: float = 1.02  # safety factor on the step-size bound

    def __post_init__(self):
        if self.lam < 0 or self.beta < 0 or self.gamma <= 0:
            raise InvalidInputError("lam, beta must be >= 0 and gamma > 0")
        if min(self.eps1, self.eps2, self.mu0) <= 0:
            raise InvalidInputError("tolerances and mu0 must be positive")
        if self.rho0 <= 1 or self.eta_margin <= 1:
            raise InvalidInputError("rho0 and eta_margin must exceed 1")
        if self.max_iter < 1:
            raise InvalidInputError("max_iter must be positive")

    def replace(self, **kwargs):
        values = asdict(self)
        values.update(kwargs)
        return SolverConfig(**values)


@dataclass
class SolverState:
    Z: np.ndarray
    J: np.ndarray
    E: np.ndarray
    M1: np.ndarray
    M2: np.ndarray
    mu: float

    @classmethod
    def initial(cls, m, n, mu0):
        return cls(
            Z=np.zeros((n, n)),
            J=np.zeros((n, n)),
            E=np.zeros((m, n)),
            M1=np.zeros((m, n)),
            M2=np.zeros((n, n)),
            mu=mu0,
        )


@dataclass(frozen=True)
class SolveReport:
    Z: np.ndarray
    E: np.ndarray
    converged: bool
    iterations: int
    residual_history: list = field(repr=False)
    change_history: list = field(repr=False)
    M1: np.ndarray = field(repr=False)  # final multipliers of Y = YZ + E
    M2: np.ndarray = field(repr=False)  # and of Z = J
    wall_time_s: float = 0.0


def shrink(x, tau):
    """Elementwise soft threshold sgn(x) max(|x| - tau, 0)."""
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def _svt_gram(a, tau):
    """SVT via an eigendecomposition of the Gram matrix.

    Faster than a direct SVD on larger inputs because the work shifts into
    matrix products. Only safe for tau > 0: singular vectors for values
    below tau are never formed, so their sqrt-precision loss is discarded.
    Returns None if the eigensolver fails.
    """
    m, n = a.shape
    if n > m:
        out = _svt_gram(a.T, tau)
        return None if out is None else out.T
    try:
        lam, v = np.linalg.eigh(a.T @ a)
    except np.linalg.LinAlgError:
        return None
    s = np.sqrt(np.maximum(lam, 0.0))
    keep = s > tau
    if not np.any(keep):
        return np.zeros_like(a)
    u = a @ (v[:, keep] / s[keep])
    return (u * (s[keep] - tau)) @ v[:, keep].T


def svt(a, tau):
    """Singular value thresholding: soft-threshold the spectrum of a."""
    if tau > 0 and min(a.shape) >= 64:
        out = _svt_gram(a, tau)
        if out is not None:
            return out
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD failed during singular value thresholding") from exc
    s = np.maximum(s - tau, 0.0)
    keep = s > 0
    if not np.any(keep):
        return np.zeros_like(a)
    return (u[:, keep] * s[keep]) @ vt[keep]


def grad_q(state, locality, observations, cfg, primal):
    """Gradient of the smooth part of the Z-subproblem at the current Z.

    `primal` is the residual Y - YZ - E at the current Z and E.
    """
    out = state.mu * (state.Z - state.J + state.M2 / state.mu)
    out -= state.mu * (observations.data.T @ (primal + state.M1 / state.mu))
    if cfg.beta != 0.0:
        out += 2.0 * cfg.beta * (state.Z @ locality.matrix)
    return out


def step_size(beta, locality, mu, y_norm2, eta_margin):
    """Linearization step eta_1, with a margin over its validity bound."""
    return eta_margin * (2.0 * beta * locality.spectral_norm + mu * (1.0 + y_norm2**2))


def update_Z(state, locality, observations, cfg, eta1, primal):
    g = grad_q(state, locality, observations, cfg, primal)
    return svt(state.Z - g / eta1, 1.0 / eta1)


def update_E(state, fit, cfg):
    """Prox step on E; `fit` is Y - YZ at the new Z."""
    return shrink(fit + state.M1 / state.mu, cfg.gamma / state.mu)


def update_J(state, cfg):
    return np.maximum(shrink(state.Z + state.M2 / state.mu, cfg.lam / state.mu), 0.0)


def update_multipliers(state, primal, cfg, change):
    """Dual ascent on both constraints plus the conditional penalty growth."""
    m1 = state.M1 + state.mu * primal
    m2 = state.M2 + state.mu * (state.Z - state.J)
    rho = cfg.rho0 if change <= cfg.eps2 else 1.0
    mu = min(cfg.mu_max, rho * state.mu)
    return m1, m2, mu


def check_convergence(residual, change, cfg):
    return residual < cfg.eps1 and change <= cfg.eps2


def solve(observations, locality=None, cfg=None):
    """Run the full alternating loop from zero initialization.

    The plain low-rank model is this with beta = 0 (or a zero operator);
    graph- and hypergraph-regularized variants differ only in `locality`.
    Non-convergence at max_iter is reported, not raised.
    """
    if isinstance(observations, np.ndarray):
        observations = ObservationMatrix(observations)
    cfg = cfg or SolverConfig()
    m, n = observations.m, observations.n
    if n < 2:
        raise InvalidInputError("need at least two observations")
    if locality is None:
        locality = LocalityOperator.zero(n)
    if locality.n != n:
        raise InvalidInputError("locality operator dimension mismatch")

    y = observations.data
    y_fro = float(np.linalg.norm(y))
    if y_fro == 0:
        raise InvalidInputError("all-zero data matrix")
    y_norm2 = float(np.linalg.norm(y, 2))

    state = SolverState.initial(m, n, cfg.mu0)
    primal = y  # Y - YZ - E at Z = 0, E = 0
    residual_history = []
    change_history = []
    converged = False
    t0 = time.perf_counter()

    for iterations in range(1, cfg.max_iter + 1):
        eta1 = step_size(cfg.beta, locality, state.mu, y_norm2, cfg.eta_margin)

        z_prev, j_prev, e_prev = state.Z, state.J, state.E
        state.Z = update_Z(state, locality, observations, cfg, eta1, primal)
        fit = y - y @ state.Z
        state.E = update_E(state, fit, cfg)
        state.J = update_J(state, cfg)
        primal = fit - state.E

        change = float(max(
            eta1 * np.linalg.norm(state.Z - z_prev),
            state.mu * np.linalg.norm(state.J - j_prev),
            state.mu * np.linalg.norm(state.E - e_prev),
        ))
        residual = float(np.linalg.norm(primal) / y_fro)
        residual_history.append(residual)
        change_history.append(change)
        converged = check_convergence(residual, change, cfg)

        state.M1, state.M2, state.mu = update_multipliers(state, primal, cfg, change)
        if converged:
            break

    return SolveReport(
        Z=state.Z,
        E=state.E,
        converged=converged,
        iterations=iterations,
        residual_history=residual_history,
        change_history=change_history,
        M1=state.M1,
        M2=state.M2,
        wall_time_s=time.perf_counter() - t0,
    )
