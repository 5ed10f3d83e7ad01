"""Measurement-update particle flow in a pseudo-time.

A measurement is absorbed by moving particles from pseudo-time 0 (the
prior) to 1 (the posterior) along a stochastic flow:

    dx = P H^T R^-1 (y - h(x)) dl + dw,   E[dw dw^T] = P H^T R^-1 H P dl
    dP/dl = -P H^T R^-1 H P

This module integrates the drift only.  Both a per-particle numeric route
(:func:`flow_ensemble_ode`) and the polynomial-map route
(:func:`build_flow_map`) are provided; the map route integrates a single
polynomial state alongside the covariance and replaces every particle
integration with one polynomial evaluation.  The drift alone carries
deviations by Phi = P1 P0^-1, so a drift-flowed ensemble has covariance
P1 P0^-1 P1 rather than P1; the filters restore the diffusion's share with
:func:`daflow.filter.spread_correction`, from the P1 that both routes
return on request (``return_cov=True``).

Two covariance couplings are supported (``cov_coupling``):

* ``"mean"`` -- one shared covariance trajectory, with H frozen at the
  running mean (the polynomial state's constant part).
* ``"particle"`` -- the covariance rides along the flow as part of the
  state: per particle in the numeric route, as polynomials in the map
  route, with H evaluated wherever the state is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import (
    AlgebraContext,
    DAScalar,
    DAVector,
    compose,
    concatenate,
    constant,
    identity_map,
    partial_derive,
    stack,
)
from .integrate import IntegratorSpec, Stacked, integrate

__all__ = [
    "FlowError",
    "GaussianBelief",
    "MeasurementModel",
    "LambdaSchedule",
    "Ensemble",
    "geometric_schedule",
    "flow_rhs",
    "cov_rhs",
    "flow_mean_cov",
    "build_flow_map",
    "flow_ensemble_ode",
    "da_jacobian",
]

INNOVATION_MODES = ("nonlinear", "linearized")
COV_COUPLINGS = ("mean", "particle")


class FlowError(RuntimeError):
    """The flow integration produced an invalid covariance or state."""


def _check_symmetric_psd(cov: np.ndarray, what: str) -> None:
    scale = max(np.abs(cov).max(), 1.0)
    if np.abs(cov - cov.T).max() > 1e-10 * scale:
        raise ValueError(f"{what} is not symmetric")
    eigmin = float(np.linalg.eigvalsh(cov).min())
    if eigmin < -1e-10 * max(np.trace(cov), 1e-300):
        raise ValueError(f"{what} is not positive semidefinite (eigmin={eigmin:g})")


@dataclass
class GaussianBelief:
    """Mean and covariance of the state distribution."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.asarray(self.cov, dtype=float)
        n = len(self.mean)
        if self.cov.shape != (n, n):
            raise ValueError(f"cov shape {self.cov.shape} does not match mean ({n},)")
        _check_symmetric_psd(self.cov, "belief covariance")

    @property
    def dim(self) -> int:
        return len(self.mean)

    def information(self):
        """Information pair (S, z) = (P^-1, P^-1 x)."""
        s = np.linalg.inv(self.cov)
        return s, s @ self.mean


@dataclass
class MeasurementModel:
    """Nonlinear measurement y = h(x) + v with Gaussian noise covariance R.

    ``h`` must accept a real state vector, a (N, n) batch, or a polynomial
    state (a (n,) :class:`DAScalar` array) and return the matching kind:
    (m,), (N, m) or an (m,) polynomial array.  ``jac`` optionally supplies
    the analytic Jacobian for the real paths; the polynomial path always
    differentiates the polynomial image of h.  ``noise_inv`` is R^-1,
    computed from ``noise_cov``.
    """

    h: Callable
    noise_cov: np.ndarray
    dim: int
    jac: Callable | None = None
    noise_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.noise_cov = np.asarray(self.noise_cov, dtype=float)
        if self.noise_cov.shape != (self.dim, self.dim):
            raise ValueError("noise_cov shape does not match dim")
        scale = np.abs(self.noise_cov).max()
        if np.abs(self.noise_cov - self.noise_cov.T).max() > 1e-12 * scale:
            raise ValueError("noise_cov must be symmetric")
        if np.linalg.eigvalsh(self.noise_cov).min() <= 0:
            raise ValueError("noise_cov must be positive definite")
        self.noise_inv = np.linalg.inv(self.noise_cov)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """dh/dx at a real state (or (N, n) batch -> (N, m, n))."""
        if self.jac is not None:
            return np.asarray(self.jac(x), dtype=float)
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return np.stack([self.jacobian(row) for row in x])
        return da_jacobian(self.h, x, self.dim)


def da_jacobian(h: Callable, x: np.ndarray, m: int) -> np.ndarray:
    """Jacobian of h at x extracted from a first-order polynomial expansion."""
    x = np.asarray(x, dtype=float)
    hx = h(identity_map(AlgebraContext(len(x), 1), x).components)
    if hx.shape != (m,):
        raise ValueError(f"h returned shape {hx.shape}, expected ({m},)")
    # at order 1 the coefficients after the constant are the first derivatives
    return hx.coeffs[:, 1:].copy()


@dataclass
class LambdaSchedule:
    """Strictly increasing pseudo-time nodes from 0 to 1."""

    nodes: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if (
            self.nodes.ndim != 1
            or len(self.nodes) < 2
            or self.nodes[0] != 0.0
            or self.nodes[-1] != 1.0
            or np.any(np.diff(self.nodes) <= 0)
        ):
            raise ValueError("schedule nodes must satisfy 0 = l0 < l1 < ... < lM = 1")

    def segments(self):
        return zip(self.nodes[:-1], self.nodes[1:])

    def __len__(self):
        return len(self.nodes)


def geometric_schedule(first: float = 0.001, last: float = 1.0, count: int = 50) -> LambdaSchedule:
    """{0} followed by ``count`` geometrically spaced nodes from first to last.

    Small early steps move particles gently where the flow is stiffest;
    later steps grow as the flow relaxes.
    """
    if not (0.0 < first < last <= 1.0):
        raise ValueError(f"need 0 < first < last <= 1, got ({first}, {last})")
    if count < 2:
        raise ValueError("count must be >= 2")
    ratio = (last / first) ** (1.0 / (count - 1))
    nodes = np.concatenate([[0.0], first * ratio ** np.arange(count)])
    nodes[-1] = last
    return LambdaSchedule(nodes)


@dataclass
class Ensemble:
    """Equally weighted particles representing a distribution."""

    particles: np.ndarray

    def __post_init__(self):
        self.particles = np.atleast_2d(np.asarray(self.particles, dtype=float))
        if self.particles.shape[0] < 2:
            raise ValueError("an ensemble needs at least 2 particles")
        if not np.isfinite(self.particles).all():
            raise ValueError("ensemble contains non-finite particles")

    @property
    def n_particles(self) -> int:
        return self.particles.shape[0]

    @property
    def dim(self) -> int:
        return self.particles.shape[1]


# ---------------------------------------------------------------------------
# drift / covariance right-hand sides


def _drift_poly(x: DAScalar, P, model: MeasurementModel, y, innovation):
    """Drift P H^T R^-1 (y - h(x)) at a polynomial state, and the (m, n)
    polynomial Jacobian H it used.  ``P`` is a float or polynomial matrix.

    Differentiating h's polynomial image yields the true Jacobian only at an
    identity state (elsewhere it gives the chain-rule composite H * dx/dd),
    so h and H are expanded around the state's running mean and composed
    with the actual polynomials.
    """
    n, m = x.shape[0], model.dim
    xbar = x.constant
    hloc = model.h(identity_map(x.ctx, xbar).components)
    jloc = stack([partial_derive(hloc, j) for j in range(n)], axis=-1)
    local = DAVector(concatenate([hloc, jloc.reshape(m * n)], 0), center=xbar)
    composed = compose(local, DAVector(x, center=xbar)).components
    hx, hjx = composed[:m], composed[m:].reshape(m, n)
    if innovation == "nonlinear":
        innov = y - hx
    else:
        # first-order expansion of h about the running mean
        innov = (y - hx.constant) - (x - x.constant) @ hjx.constant.T
    u = (innov @ model.noise_inv.T) @ hjx
    return P @ u, hjx


def flow_rhs(x, P, model: MeasurementModel, y, innovation: str = "nonlinear",
             center=None):
    """Drift P H^T R^-1 (y - h(x)) of the measurement flow.

    Accepts a real state (n,), a particle batch (N, n), or a polynomial
    state (a (n,) DAScalar array), with H taken at the state itself
    (polynomial H in the polynomial case).  ``P`` may likewise be a constant
    matrix, a (N, n, n) per-particle stack, or an (n, n) polynomial array.
    ``innovation='linearized'`` replaces h(x) by its first-order expansion
    about the running mean (``center`` for the real paths).
    """
    if innovation not in INNOVATION_MODES:
        raise ValueError(f"innovation must be one of {INNOVATION_MODES}")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (model.dim,):
        raise ValueError(f"measurement shape {y.shape} does not match model dim {model.dim}")
    if isinstance(x, DAScalar):
        return _drift_poly(x, P, model, y, innovation)[0]
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return _flow_rhs_real(x[None, :], P, model, y, innovation, center)[0]
    return _flow_rhs_real(x, P, model, y, innovation, center)


def _flow_rhs_real(x, P, model, y, innovation, center):
    hx = np.atleast_2d(np.asarray(model.h(x), dtype=float))
    hj = model.jacobian(x)
    if hj.ndim == 2:
        hj = hj[None, :, :]
    if innovation == "nonlinear" or center is None:
        innov = y[None, :] - hx
    else:
        center = np.asarray(center, dtype=float)
        hc = np.asarray(model.h(center), dtype=float)
        hjc = model.jacobian(center)
        innov = (y - hc)[None, :] - (x - center[None, :]) @ hjc.T
    w = innov @ model.noise_inv.T
    u = np.einsum("nij,ni->nj", hj, w)
    P = np.asarray(P, dtype=float)
    if P.ndim == 3:
        return np.einsum("njk,nk->nj", P, u)
    return u @ P.T


def cov_rhs(P: np.ndarray, H: np.ndarray, R: np.ndarray) -> np.ndarray:
    """-P H^T R^-1 H P, exactly symmetrized."""
    P = np.asarray(P, dtype=float)
    H = np.asarray(H, dtype=float)
    hp = H @ P
    out = -hp.T @ np.linalg.solve(np.asarray(R, dtype=float), hp)
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# flow drivers


def _fix_cov(P: np.ndarray) -> np.ndarray:
    P = 0.5 * (P + P.T)
    eigmin = float(np.linalg.eigvalsh(P).min())
    if eigmin < -1e-10 * max(np.trace(P), 1e-300):
        raise FlowError(
            f"flow covariance lost positive semidefiniteness (eigmin={eigmin:g}); "
            "the pseudo-time steps are too large"
        )
    return P


def _run_segments(rhs, state, schedule: LambdaSchedule, spec: IntegratorSpec, fix):
    for lam0, lam1 in schedule.segments():
        state = integrate(rhs, state, lam0, lam1, spec)
        state = fix(state)
    return state


def flow_mean_cov(prior: GaussianBelief, model: MeasurementModel, y,
                  schedule: LambdaSchedule, spec: IntegratorSpec,
                  innovation: str = "nonlinear") -> GaussianBelief:
    """Integrate the mean/covariance flow ODEs from prior to posterior."""

    def rhs(s, lam):
        xbar, P = s.parts
        hbar = model.jacobian(xbar)
        return Stacked(
            flow_rhs(xbar, P, model, y, innovation, center=xbar),
            cov_rhs(P, hbar, model.noise_cov),
        )

    def fix(s):
        return Stacked(s.parts[0], _fix_cov(s.parts[1]))

    out = _run_segments(rhs, Stacked(prior.mean.copy(), prior.cov.copy()),
                        schedule, spec, fix)
    return GaussianBelief(out.parts[0], out.parts[1])


def build_flow_map(prior: GaussianBelief, model: MeasurementModel, y,
                   schedule: LambdaSchedule, order: int, spec: IntegratorSpec,
                   innovation: str = "nonlinear",
                   cov_coupling: str = "mean", return_cov: bool = False):
    """Polynomial flow map from prior deviations to posterior states.

    The polynomial state starts as the identity around the prior mean and is
    integrated through the drift with a polynomial-valued H.  Under
    ``cov_coupling="mean"`` the covariance entering the drift follows its
    own real-valued ODE with H frozen at the running mean; under
    ``"particle"`` the covariance is expanded in the deviation variables as
    well, so evaluating the map reproduces per-particle covariance flows.

    The map realizes the drift only.  ``return_cov=True`` returns
    ``(map, P1)`` instead, where P1 is the shared covariance at pseudo-time
    1 from the same integration (None under the particle coupling, which
    has no shared covariance).
    """
    if cov_coupling not in COV_COUPLINGS:
        raise ValueError(f"cov_coupling must be one of {COV_COUPLINGS}")
    if cov_coupling == "particle" and innovation == "linearized":
        raise ValueError("linearized innovation is defined about the running mean, "
                         "which the particle coupling does not carry")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.isfinite(y).all():
        raise ValueError("measurement must be finite")
    n = prior.dim
    ctx = AlgebraContext(n, order)
    x0 = identity_map(ctx, prior.mean).components

    if cov_coupling == "mean":
        def rhs(s, lam):
            x, P = s.parts
            return Stacked(
                flow_rhs(x, P, model, y, innovation),
                cov_rhs(P, model.jacobian(x.constant), model.noise_cov),
            )

        def fix(s):
            return Stacked(s.parts[0], _fix_cov(s.parts[1]))

        out = _run_segments(rhs, Stacked(x0, prior.cov.copy()), schedule, spec, fix)
        post_cov = out.parts[1]
    else:
        def rhs(s, lam):
            x, P = s.parts
            dx, hjx = _drift_poly(x, P, model, y, innovation)
            # polynomial -P H^T R^-1 H P, via G = P H^T
            G = P @ hjx.T
            dP = -((G @ model.noise_inv) @ G.T)
            return Stacked(dx, 0.5 * (dP + dP.T))

        def fix(s):
            x, P = s.parts
            _fix_cov(P.constant)
            return Stacked(x, 0.5 * (P + P.T))

        out = _run_segments(rhs, Stacked(x0, constant(ctx, prior.cov)), schedule, spec, fix)
        post_cov = None

    fmap = DAVector(out.parts[0], center=prior.mean, metadata="flow lambda 0->1")
    return (fmap, post_cov) if return_cov else fmap


def flow_ensemble_ode(particles, prior: GaussianBelief, model: MeasurementModel,
                      y, schedule: LambdaSchedule, spec: IntegratorSpec,
                      innovation: str = "nonlinear",
                      cov_coupling: str = "mean", return_cov: bool = False):
    """Flow every particle through the drift ODE.

    Under ``cov_coupling="mean"`` all particles share one covariance
    trajectory, integrated from the prior covariance with H evaluated at the
    running prior mean; under ``"particle"`` each particle carries its own
    covariance (initialized at the prior covariance) with H evaluated at the
    particle.  Each particle's drift always evaluates H at the particle
    itself.  Returns the kind it was given (Ensemble in, Ensemble out);
    ``return_cov=True`` returns ``(flowed, P1)`` as :func:`build_flow_map`
    does.
    """
    if cov_coupling not in COV_COUPLINGS:
        raise ValueError(f"cov_coupling must be one of {COV_COUPLINGS}")
    if cov_coupling == "particle" and innovation == "linearized":
        raise ValueError("linearized innovation is defined about the running mean, "
                         "which the particle coupling does not carry")
    wrap = isinstance(particles, Ensemble)
    x = particles.particles if wrap else np.atleast_2d(np.asarray(particles, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))

    if cov_coupling == "mean":
        def rhs(s, lam):
            xbar, P, X = s.parts
            hbar = model.jacobian(xbar)
            return Stacked(
                flow_rhs(xbar, P, model, y, innovation, center=xbar),
                cov_rhs(P, hbar, model.noise_cov),
                flow_rhs(X, P, model, y, innovation, center=xbar),
            )

        def fix(s):
            return Stacked(s.parts[0], _fix_cov(s.parts[1]), s.parts[2])

        out = _run_segments(
            rhs, Stacked(prior.mean.copy(), prior.cov.copy(), x.copy()),
            schedule, spec, fix)
        flowed = out.parts[2]
        post_cov = out.parts[1]
    else:
        PP0 = np.broadcast_to(prior.cov, (x.shape[0],) + prior.cov.shape).copy()

        def rhs(s, lam):
            X, PP = s.parts
            hj = model.jacobian(X)
            innov = y[None, :] - np.atleast_2d(np.asarray(model.h(X), dtype=float))
            w = innov @ model.noise_inv.T
            u = np.einsum("nij,ni->nj", hj, w)
            dX = np.einsum("njk,nk->nj", PP, u)
            G = np.einsum("nij,nkj->nik", PP, hj)
            dPP = -np.einsum("nip,pq,njq->nij", G, model.noise_inv, G)
            return Stacked(dX, dPP)

        def fix(s):
            X, PP = s.parts
            PP = 0.5 * (PP + np.swapaxes(PP, 1, 2))
            if np.min(np.diagonal(PP, axis1=1, axis2=2)) < -1e-10 * max(
                float(np.trace(prior.cov)), 1e-300
            ):
                raise FlowError("a per-particle flow covariance lost positive "
                                "semidefiniteness; the pseudo-time steps are too large")
            return Stacked(X, PP)

        out = _run_segments(rhs, Stacked(x.copy(), PP0), schedule, spec, fix)
        flowed = out.parts[0]
        post_cov = None

    if not np.isfinite(flowed).all():
        raise FlowError("particle flow produced non-finite particles")
    if wrap:
        flowed = Ensemble(flowed)
    return (flowed, post_cov) if return_cov else flowed
