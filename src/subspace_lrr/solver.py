"""Two-block ADMM solver for locality-regularized low-rank self-expression.

Minimizes  ||Z||_* + lambda ||J||_1 + beta tr(Z L Z^T) + gamma ||E||_1
subject to Y = YZ + E, Z = J, J >= 0. A copy W = Z carries the nuclear
norm, as in the inexact ALM method for LRR (Liu et al., arXiv:1010.2955).
At a fixed penalty mu, each iteration minimizes the augmented Lagrangian
in two blocks and then takes a dual ascent step:

1. W, J and E at the current Z, each in closed form: singular value
   thresholding for W, one clip for J, soft thresholding for E;
2. Z exactly, from mu (Y^T Y + 2 I) Z + 2 beta Z L = R. This Sylvester
   equation is diagonalized once per solve, from L = Q diag(b) Q^T and the
   thin SVD of Y;
3. dual ascent on Y = YZ + E, Z = J and Z = W.

The loop runs in the scaled form of that paper's section 3.1.1: it keeps
U = M / mu for each multiplier M, so the dual step adds each primal residual
to its U, and no iteration multiplies or divides an n x n array by mu.

Two-block ADMM converges for any fixed mu (Boyd et al., Distributed
Optimization and Statistical Learning via ADMM, 2011, section 3.2). The
stop test is that paper's relative primal and dual residuals (section
3.3.1). While W has low rank, `svt` thresholds it through a randomized
range finder, checked by a residual bound (or, when that fails, a power
estimate), and both paths threshold through one thin-SVD kernel. Each
W-step carries its whole range to the next and sizes the next range to the
spectrum it must certify.
"""

import math
from dataclasses import astuple, dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidInputError, InvalidParameterError, NumericalError
from .hypergraph import ObservationMatrix

EPS1 = 1e-6     # relative primal residual tolerance
EPS2 = 1e-4     # relative dual residual tolerance
MU_MAX = 1e10   # largest accepted penalty mu0
SVT_OVERSAMPLE = 6  # range finder columns beyond the last W-step's values above tau / 2
SVT_CERT_STEPS = 5  # power iterations that estimate the range finder's residual


@dataclass(frozen=True)
class SolverConfig:
    lam: float = 0.01       # l1 weight on J
    beta: float = 10.0      # locality weight
    gamma: float = 1.1      # l1 weight on the error matrix
    mu0: float = 1e-2       # penalty, fixed for the whole solve
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
    """What crosses an iteration; `solve` forms W and J inside one."""

    Z: np.ndarray
    E: np.ndarray
    U1: np.ndarray  # scaled multiplier M1 / mu of Y = YZ + E
    U2: np.ndarray  # M2 / mu, of Z = J
    U3: np.ndarray  # M3 / mu, of Z = W
    mu: float

    @classmethod
    def initial(cls, m, n, mu0):
        return cls(
            Z=np.zeros((n, n)),
            E=np.zeros((m, n)),
            U1=np.zeros((m, n)),
            U2=np.zeros((n, n)),
            U3=np.zeros((n, n)),
            mu=mu0,
        )


@dataclass
class SvtWarmStart:
    """What the low-rank path of `svt` carries from one call to the next.

    `basis` holds the right singular vectors of the last call's range, in
    descending order of their values: on the low-rank path those of
    b = Q^T a, on the exact path the leading ones of a. Vectors whose values
    sit at the rounding level of the Gram matrix they came from are left out,
    so a zero or rank-deficient input carries fewer columns; `svt` never
    leaves it wider than `width`, the next range finder's column count:
    SVT_OVERSAMPLE, then SVT_OVERSAMPLE beyond the last spectrum's values
    above tau / 2. While 2 width >= min(a.shape), `svt` takes the exact
    path at once. `fallbacks` counts the failed low-rank attempts.
    """

    rng: np.random.Generator
    basis: np.ndarray
    width: int = SVT_OVERSAMPLE
    fallbacks: int = 0


@dataclass(frozen=True)
class SolveReport:
    Z: np.ndarray
    E: np.ndarray
    converged: bool
    iterations: int
    residual_history: list = field(repr=False)  # relative primal residual r
    change_history: list = field(repr=False)    # relative dual residual s
    M1: np.ndarray = field(repr=False)  # final multipliers mu U1 of Y = YZ + E
    M2: np.ndarray = field(repr=False)  # and mu U2 of Z = J
    svt_fallbacks: int  # low-rank W-steps that failed their certificate


def shrink(x, tau):
    """Elementwise soft threshold sgn(x) max(|x| - tau, 0)."""
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def svt(a, tau, warm=None):
    """Singular value thresholding: soft-threshold the spectrum of a.

    The exact path works from an eigendecomposition of the Gram matrix on
    the shorter side (`_thin_svd`), so the work is matrix products.

    Given an SvtWarmStart whose width w satisfies 2 w < min(a.shape), `svt`
    first tries a randomized range finder of w columns (Halko, Martinsson &
    Tropp, arXiv:0909.4061): the basis the warm start carries, padded with a
    Gaussian block from its random stream, then one power step. Its result
    is used only when the residual ||a - Q Q^T a||_2 is at most tau / 2.
    That is first checked by a residual bound: ||a||_F^2 - ||Q^T a||_F^2,
    which is ||a - Q Q^T a||_F^2 and so bounds the spectral norm's square
    from above. Only when the bound fails do SVT_CERT_STEPS power iterations
    estimate the spectral norm, from below, so an acceptance there rests on
    an estimate. When the estimate fails too, the failure is counted and the
    exact path runs. Either way the warm start then carries this call's
    right basis, and the next width follows this call's spectrum, as inexact
    ALM's predicted rank does (Lin, Chen & Ma, arXiv:1009.5055): every value
    above tau / 2, which the certificate needs inside the range, plus
    SVT_OVERSAMPLE more.
    """
    if not tau >= 0:
        raise InvalidParameterError("SVT threshold must be nonnegative")
    found = None
    if warm is not None and 2 * warm.width < min(a.shape):
        found = _svt_low_rank(a, tau, warm)
        warm.fallbacks += found is None
    u, s, v = _thin_svd(a, tau) if found is None else found
    kept = u.shape[1]
    if warm is not None:
        warm.width = np.count_nonzero(s > tau / 2) + SVT_OVERSAMPLE
        warm.basis = v[:, :min(warm.width, _resolved(s, a.shape))]
    return (u * (s[:kept] - tau)) @ v[:, :kept].T


def _resolved(s, shape):
    """How many of the singular values s of a matrix of that shape lie above
    the rounding of its Gram matrix, whose worst case max(shape) eps ||a||_F^2
    bounds the squares; the singular vectors of values below it are noise."""
    return np.count_nonzero(s**2 > max(shape) * np.finfo(float).eps * np.sum(s**2))


def _thin_svd(a, tau):
    """(u, s, v): all singular values s of a, descending, from `eigh` of the
    Gram matrix on the shorter side, with the left singular vectors u of the
    values above tau and leading right singular vectors v, at least those of
    the values above tau and of the values `_resolved` counts.

    Singular vectors on the side the Gram matrix does not give are formed
    only for those values, which keeps the sqrt-precision loss of small
    singular values out of the result.
    """
    wide = a.shape[1] > a.shape[0]
    if wide:
        a = a.T
    try:
        lam, x = np.linalg.eigh(a.T @ a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigensolver failed during singular value thresholding") from exc
    s = np.sqrt(np.maximum(lam[::-1], 0.0))
    x = x[:, ::-1]
    kept = np.count_nonzero(s > tau)
    if not wide:
        return a @ (x[:, :kept] / s[:kept]), s, x
    rank = max(kept, _resolved(s, a.shape))
    return x[:, :kept], s, a @ (x[:, :rank] / s[:rank])


def _svt_low_rank(a, tau, warm):
    """(Q u, s, v), where Q is a range of a with warm.width columns and
    (u, s, v) is `_thin_svd` of b = Q^T a; None when both the residual bound
    and the power estimate exceed tau / 2."""
    m, n = a.shape
    start = warm.basis
    if start.shape[1] < warm.width:
        start = np.hstack([start, warm.rng.standard_normal((n, warm.width - start.shape[1]))])
    q = _orthonormal_basis(a @ start)
    q = _orthonormal_basis(a @ (a.T @ q))
    b = q.T @ a
    # ||a - q b||_F^2, as q has orthonormal columns, with m eps ||a||_F^2 for
    # the rounding of the two sums and of b
    a_sq = np.vdot(a, a)
    if a_sq - np.vdot(b, b) + m * np.finfo(float).eps * a_sq > (tau / 2) ** 2:
        x = warm.rng.standard_normal(n)
        for _ in range(SVT_CERT_STEPS):
            rx = a @ x - q @ (b @ x)
            x = a.T @ rx - b.T @ (q.T @ rx)
            norm = np.linalg.norm(x)
            if norm == 0:
                break  # a zero residual is certified
            x /= norm
        if np.linalg.norm(a @ x - q @ (b @ x)) > tau / 2:
            return None
    # svt(q b) = (q u) diag(s - tau) v^T, from the thin SVD of the small b
    u, s, v = _thin_svd(b, tau)
    return q @ u, s, v


def _orthonormal_basis(x):
    """The Q of a thin QR factorization of the tall x, from LAPACK's geqrf
    and orgqr; the R factor is never formed."""
    qr, tau, _, info = lapack.dgeqrf(x)
    q, _, info_q = lapack.dorgqr(qr, tau, overwrite_a=True)
    if info or info_q:
        raise NumericalError("QR factorization failed in the low-rank SVT")
    return q


def grad_q(state, w, j, locality, observations, cfg, primal):
    """Gradient of the Z-step's objective at state.Z: the augmented
    Lagrangian in Z at fixed W = w, J = j, E and multipliers.

    `primal` is the residual Y - YZ - E at state.Z and state.E. The Z-step
    zeroes this gradient; `solve` forms its solution directly.
    """
    out = 2.0 * state.Z - j - w + state.U2 + state.U3
    out -= observations.data.T @ (primal + state.U1)
    out *= state.mu
    if locality is not None:
        out += 2.0 * cfg.beta * (state.Z @ locality.matrix)
    return out


def update_E(state, fit, cfg):
    """Prox step on E; `fit` is Y - YZ at the current Z."""
    return shrink(fit + state.U1, cfg.gamma / state.mu)


def update_J(state, cfg):
    """Prox of lam ||J||_1 + indicator(J >= 0): one clip at lam / mu."""
    out = state.Z + state.U2
    out -= cfg.lam / state.mu
    return np.maximum(out, 0.0, out=out)


def update_multipliers(state, primal):
    """Dual ascent on Y = YZ + E, Z = J and Z = W, whose residuals `primal`
    holds in that order: each is added to its scaled multiplier in place.
    Returns (U1, U2, mu, U3). mu is fixed; it stays at index 2, where
    perfbench's span tracer reads it."""
    for u, p in zip((state.U1, state.U2, state.U3), primal):
        u += p
    return state.U1, state.U2, state.mu, state.U3


def check_convergence(residual, change):
    return residual < EPS1 and change <= EPS2


def _norm(*blocks):
    """Frobenius norm of the arrays stacked together."""
    return math.hypot(*(math.sqrt(np.vdot(b, b)) for b in blocks))


def solve(observations, locality=None, cfg=None):
    """Run the ADMM loop from zero initialization.

    With `locality=None` (or beta = 0) this is plain low-rank representation
    and beta has no effect; the other variants differ only in `locality`,
    which must be positive semidefinite, as every builder's operator is.
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
        raise InvalidInputError("||Y||_F underflows to 0; rescale the data" if np.any(y)
                                else "all-zero data matrix")
    state = SolverState.initial(m, n, cfg.mu0)

    # The Z-step, divided by mu: (Y^T Y + 2 I) Z + 2 (beta / mu) Z L = R, with
    # R = Y^T (Y - E + U1) + J + W - U2 - U3. From Y = U diag(s) V^T and
    # L = Q diag(b) Q^T, column j of Z Q solves (Y^T Y + c_j I) x = g, where g
    # is column j of R Q and c_j = 2 + 2 beta b_j / mu. By Woodbury,
    # x = g / c_j - V diag(d_j) V^T g with d_j = s^2 / ((c_j + s^2) c_j). Back
    # in the original basis, Z = R P - V ((d * (V^T R Q)) Q^T) with
    # P = Q diag(1 / c) Q^T: one n x n product per iteration, and none without
    # an operator. c, d and P are formed once per solve.
    try:
        _, s, vt = np.linalg.svd(y, full_matrices=False)
        b, q = (np.zeros(n), None) if locality is None else np.linalg.eigh(locality.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("factoring the data or the locality operator failed") from exc
    if b[0] < -1e-10 * np.abs(b).max():
        raise InvalidInputError("locality operator must be positive semidefinite")
    b = np.maximum(b, 0.0)  # what is left below zero is rounding
    c = 2.0 + 2.0 * cfg.beta * b / state.mu
    d = s[:, None] ** 2 / (c + s[:, None] ** 2) / c
    p = None if q is None else (q / c) @ q.T

    warm = SvtWarmStart(np.random.default_rng(0), np.empty((n, 0)))
    fit = y  # Y - YZ at Z = 0
    residual_history = []
    change_history = []
    tiny = np.finfo(float).tiny

    for iterations in range(1, cfg.max_iter + 1):
        w = svt(state.Z + state.U3, 1.0 / state.mu, warm)
        j = update_J(state, cfg)
        state.E = update_E(state, fit, cfg)

        r = y.T @ (y - state.E + state.U1)
        r += j + w
        r -= state.U2
        r -= state.U3
        if q is None:
            z = r / c - vt.T @ (d * (vt @ r))
        else:
            z = r @ p - vt.T @ ((d * (vt @ r @ q)) @ q.T)
        yz = y @ z
        dz_norm = _norm(z - state.Z)
        state.Z, fit_prev, fit = z, fit, y - yz

        primal = (fit - state.E, z - j, z - w)
        update_multipliers(state, primal)
        z_norm = _norm(z)
        residual = _norm(*primal) / max(
            _norm(state.E, j, w), math.hypot(_norm(yz), z_norm, z_norm), y_fro
        )
        # the dual residual mu ||(Y dZ, dZ, dZ)|| relative to ||M|| = mu ||U||; mu cancels
        change = math.hypot(_norm(fit_prev - fit), dz_norm, dz_norm) / max(
            _norm(state.U1, state.U2, state.U3), tiny)
        residual_history.append(residual)
        change_history.append(change)
        converged = check_convergence(residual, change)
        if converged:
            break

    return SolveReport(
        Z=state.Z,
        E=state.E,
        converged=converged,
        iterations=iterations,
        residual_history=residual_history,
        change_history=change_history,
        M1=state.mu * state.U1,
        M2=state.mu * state.U2,
        svt_fallbacks=warm.fallbacks,
    )
