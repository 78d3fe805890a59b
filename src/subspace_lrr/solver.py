"""Linearized ADMM solver for locality-regularized low-rank self-expression.

Minimizes  ||Z||_* + lambda ||J||_1 + beta tr(Z L Z^T) + gamma ||E||_1
subject to Y = YZ + E, Z = J, J >= 0, by alternating closed-form proximal
steps (singular value thresholding for Z, soft thresholding for E and J)
with an adaptive penalty schedule.

Per iteration: Z-step, fit = Y - YZ, E-step, J-step, primal = fit - E,
stop test, dual ascent. fit, primal, the residual ||primal|| / ||Y||_F and
the iterate change are each computed once and handed to the later steps.
"""

from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, NumericalError
from .hypergraph import ObservationMatrix

# Safety factor of the step eta_1 over its validity bound
# 2 beta ||L||_2 + mu (1 + ||Y||_2^2).
ETA_MARGIN = 1.02
EPS1 = 1e-6     # relative feasibility tolerance
EPS2 = 1e-4     # iterate-change tolerance
RHO0 = 1.1      # penalty growth factor
MU_MAX = 1e10   # penalty cap


@dataclass(frozen=True)
class SolverConfig:
    lam: float = 0.01       # l1 weight on J
    beta: float = 10.0      # locality weight
    gamma: float = 1.1      # l1 weight on the error matrix
    mu0: float = 1e-2       # initial penalty
    max_iter: int = 1000

    def __post_init__(self):
        if not isinstance(self.max_iter, (int, np.integer)):
            raise InvalidInputError("max_iter must be an integer")
        try:
            values = [float(v) for v in astuple(self)]
        except OverflowError:
            raise InvalidInputError("solver parameters must fit in a float") from None
        if not all(np.isfinite(values)):
            raise InvalidInputError("solver parameters must be finite")
        if self.lam < 0 or self.beta < 0 or self.gamma <= 0:
            raise InvalidInputError("lam, beta must be >= 0 and gamma > 0")
        if not 0 < self.mu0 <= MU_MAX:
            raise InvalidInputError(f"mu0 must lie in (0, {MU_MAX:g}]")
        if self.max_iter < 1:
            raise InvalidInputError("max_iter must be positive")


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


def shrink(x, tau):
    """Elementwise soft threshold sgn(x) max(|x| - tau, 0)."""
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def svt(a, tau):
    """Singular value thresholding: soft-threshold the spectrum of a.

    Works from an eigendecomposition of the Gram matrix on the shorter
    side, so the work is matrix products. Singular vectors are formed only
    for values above tau, which keeps the sqrt-precision loss of small
    singular values out of the result.
    """
    if tau < 0:
        raise InvalidParameterError("SVT threshold must be nonnegative")
    wide = a.shape[1] > a.shape[0]
    if wide:
        a = a.T
    try:
        lam, v = np.linalg.eigh(a.T @ a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigensolver failed during singular value thresholding") from exc
    s = np.sqrt(np.maximum(lam, 0.0))
    keep = s > tau
    u = a @ (v[:, keep] / s[keep])
    out = (u * (s[keep] - tau)) @ v[:, keep].T
    return out.T if wide else out


def grad_q(state, locality, observations, cfg, primal):
    """Gradient of the smooth part of the Z-subproblem at the current Z.

    `primal` is the residual Y - YZ - E at the current Z and E.
    """
    out = state.mu * (state.Z - state.J + state.M2 / state.mu)
    out -= state.mu * (observations.data.T @ (primal + state.M1 / state.mu))
    if locality is not None:
        out += 2.0 * cfg.beta * (state.Z @ locality.matrix)
    return out


def update_E(state, fit, cfg):
    """Prox step on E; `fit` is Y - YZ at the new Z."""
    return shrink(fit + state.M1 / state.mu, cfg.gamma / state.mu)


def update_J(state, cfg):
    """Prox of lam ||J||_1 + indicator(J >= 0): one clip at lam / mu."""
    return np.maximum(state.Z + state.M2 / state.mu - cfg.lam / state.mu, 0.0)


def update_multipliers(state, primal, change):
    """Dual ascent on both constraints plus the conditional penalty growth."""
    m1 = state.M1 + state.mu * primal
    m2 = state.M2 + state.mu * (state.Z - state.J)
    rho = RHO0 if change <= EPS2 else 1.0
    mu = min(MU_MAX, rho * state.mu)
    return m1, m2, mu


def check_convergence(residual, change):
    return residual < EPS1 and change <= EPS2


def solve(observations, locality=None, cfg=None):
    """Run the full alternating loop from zero initialization.

    With `locality=None` (or beta = 0) this is plain low-rank representation
    and beta has no effect; the other variants differ only in `locality`.
    Non-convergence at max_iter is reported, not raised.
    """
    if isinstance(observations, np.ndarray):
        observations = ObservationMatrix(observations)
    cfg = cfg or SolverConfig()
    m, n = observations.m, observations.n
    if n < 2:
        raise InvalidInputError("need at least two observations")
    if locality is not None and locality.n != n:
        raise InvalidInputError("locality operator dimension mismatch")
    if cfg.beta == 0:
        locality = None

    y = observations.data
    y_fro = float(np.linalg.norm(y))
    if y_fro == 0:
        raise InvalidInputError("all-zero data matrix")
    y_norm2 = float(np.linalg.norm(y, 2))
    # the operator is symmetric, so ||L||_2 is its largest |eigenvalue|
    l_norm2 = 0.0 if locality is None else float(np.abs(np.linalg.eigvalsh(locality.matrix)).max())

    state = SolverState.initial(m, n, cfg.mu0)
    primal = y  # Y - YZ - E at Z = 0, E = 0
    residual_history = []
    change_history = []
    converged = False

    for iterations in range(1, cfg.max_iter + 1):
        eta1 = ETA_MARGIN * (2.0 * cfg.beta * l_norm2 + state.mu * (1.0 + y_norm2**2))

        z_prev, j_prev, e_prev = state.Z, state.J, state.E
        g = grad_q(state, locality, observations, cfg, primal)
        state.Z = svt(state.Z - g / eta1, 1.0 / eta1)
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
        converged = check_convergence(residual, change)

        state.M1, state.M2, state.mu = update_multipliers(state, primal, change)
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
    )
