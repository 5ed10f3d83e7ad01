"""Measurement-update particle flow in a pseudo-time.

A measurement is absorbed by moving particles from pseudo-time 0 (the
prior) to 1 (the posterior) along a stochastic flow:

    dx = P H^T R^-1 (y - h(x)) dl + dw,   E[dw dw^T] = P H^T R^-1 H P dl
    dP/dl = -P H^T R^-1 H P

This module integrates the drift only, with one driver for every route
and one law: every particle's drift takes the nonlinear innovation
y - h(x) and H at the particle itself.
The state it carries is either a polynomial state, which the map route
(:func:`build_flow_map`) starts as the identity around the prior mean and
which replaces every particle integration with one polynomial evaluation,
or a batch of particles (:func:`flow_ensemble_ode`, and
:func:`flow_mean_cov` on the one-row batch of the prior mean).  Next to the
state rides one real (n, n) covariance, shared by every particle, whose
law takes H at the running mean.  The running mean is the image of the
prior mean, so it is read off the state: the polynomial state's constant
part, or row 0 of a batch that starts with the prior mean.

One drift body serves every kind of state: the model's h and Jacobian run
on the state as it is, and on a polynomial state they return their
truncated expansions directly (as in DACE, Rasotto et al., 2016).

The drift alone carries deviations by Phi = P1 P0^-1, so a drift-flowed
ensemble has covariance P1 P0^-1 P1 rather than P1; the filters restore
the diffusion's share with :func:`daflow.filter.spread_correction`, from
the P1 that both routes return on request (``return_cov=True``).
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


class FlowError(RuntimeError):
    """The flow integration produced an invalid covariance or state."""


def _measurement(model: MeasurementModel, y) -> np.ndarray:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (model.dim,):
        raise ValueError(f"measurement shape {y.shape} does not match model dim {model.dim}")
    if not np.isfinite(y).all():
        raise ValueError("measurement must be finite")
    return y


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
    (m,), (N, m) or an (m,) polynomial array.  ``jac``, the Jacobian of h,
    takes the same three kinds and returns (m, n), (N, m, n) or an (m, n)
    polynomial array; a Jacobian that does not depend on the state may
    return one float (m, n) matrix for every kind.  ``noise_inv`` is R^-1,
    computed from ``noise_cov``.
    """

    h: Callable
    noise_cov: np.ndarray
    jac: Callable
    noise_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.noise_cov = np.asarray(self.noise_cov, dtype=float)
        if self.noise_cov.ndim != 2 or self.noise_cov.shape[0] != self.noise_cov.shape[1]:
            raise ValueError(f"noise_cov must be a square matrix, got shape {self.noise_cov.shape}")
        scale = np.abs(self.noise_cov).max()
        if np.abs(self.noise_cov - self.noise_cov.T).max() > 1e-12 * scale:
            raise ValueError("noise_cov must be symmetric")
        if np.linalg.eigvalsh(self.noise_cov).min() <= 0:
            raise ValueError("noise_cov must be positive definite")
        self.noise_inv = np.linalg.inv(self.noise_cov)

    @property
    def dim(self) -> int:
        """Measurement dimension m, the number of rows of ``noise_cov``."""
        return self.noise_cov.shape[0]


def da_jacobian(h: Callable, x, m: int):
    """Jacobian of h from a polynomial expansion of h about a point.

    At a real state (n,) -> (m, n), the expansion is first order about the
    state.  At a polynomial state -> (m, n) polynomial array, h is expanded
    about the state's constant part at the state's order, differentiated,
    and composed with the state; the top degree of the result is lost to
    the differentiation.
    """
    if not isinstance(x, DAScalar):
        x = np.asarray(x, dtype=float)
        return da_jacobian(h, identity_map(AlgebraContext(len(x), 1), x).components, m).constant
    n, center = x.shape[0], x.constant
    hloc = h(identity_map(x.ctx, center).components)
    if hloc.shape != (m,):
        raise ValueError(f"h returned shape {hloc.shape}, expected ({m},)")
    jloc = stack([partial_derive(hloc, j) for j in range(n)], axis=-1).reshape(m * n)
    # the expansion is about the constant part, so compose it with the state
    return compose(DAVector(jloc, center), DAVector(x, center)).components.reshape(m, n)


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


# ---------------------------------------------------------------------------
# drift / covariance right-hand sides


def _drift(x, P, model: MeasurementModel, y):
    """Drift P H^T R^-1 (y - h(x)) at a polynomial state, a single state or
    a batch, with H taken at the state itself.

    The model code runs on the state as it is, so a polynomial state gets
    the truncated expansions of h and H directly.
    """
    w = (y - model.h(x)) @ model.noise_inv.T
    u = (w[..., None, :] @ model.jac(x))[..., 0, :]
    return u @ P.T


def flow_rhs(x, P, model: MeasurementModel, y):
    """Drift P H^T R^-1 (y - h(x)) of the measurement flow.

    Accepts a real state (n,), a particle batch (N, n), or a polynomial
    state (a (n,) DAScalar array), with H taken at the state itself
    (polynomial H in the polynomial case), and the real (n, n) covariance
    ``P``.
    """
    y = _measurement(model, y)
    if not isinstance(x, DAScalar):
        x = np.asarray(x, dtype=float)
    return _drift(x, np.asarray(P, dtype=float), model, y)


def cov_rhs(P: np.ndarray, H: np.ndarray, R: np.ndarray) -> np.ndarray:
    """-P H^T R^-1 H P, exactly symmetrized."""
    P = np.asarray(P, dtype=float)
    H = np.asarray(H, dtype=float)
    hp = H @ P
    out = -hp.T @ np.linalg.solve(np.asarray(R, dtype=float), hp)
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# flow drivers


def _fix_cov(P):
    """Symmetrize the flow covariance and check it is positive semidefinite."""
    P = 0.5 * (P + P.T)
    try:
        _check_symmetric_psd(P, "flow covariance")
    except ValueError as exc:
        raise FlowError(f"{exc}; the pseudo-time steps are too large") from None
    return P


def _flow(x, cov, model: MeasurementModel, y, schedule: LambdaSchedule,
          spec: IntegratorSpec):
    """Carry the state ``x`` and the covariance from pseudo-time 0 to 1.

    ``x`` is a polynomial state whose constant part is the prior mean, or a
    batch of particles whose row 0 is the prior mean; either way the image
    of the prior mean, the running mean, rides along in ``x``.  ``cov`` is
    the prior covariance, whose law takes H at the running mean.  Returns
    ``(x1, P1)``.
    """
    y = _measurement(model, y)
    poly = isinstance(x, DAScalar)

    def rhs(s, lam):
        x, P = s.parts
        dP = cov_rhs(P, model.jac(x.constant if poly else x[0]), model.noise_cov)
        return Stacked(_drift(x, P, model, y), dP)

    state = Stacked(x, cov)
    for lam0, lam1 in schedule.segments():
        state = integrate(rhs, state, lam0, lam1, spec)
        state = Stacked(state.parts[0], _fix_cov(state.parts[1]))
    return state.parts


def flow_mean_cov(prior: GaussianBelief, model: MeasurementModel, y,
                  schedule: LambdaSchedule, spec: IntegratorSpec) -> GaussianBelief:
    """Integrate the mean/covariance flow ODEs from prior to posterior."""
    x1, P1 = _flow(prior.mean[None, :], prior.cov, model, y, schedule, spec)
    return GaussianBelief(x1[0], P1)


def build_flow_map(prior: GaussianBelief, model: MeasurementModel, y,
                   schedule: LambdaSchedule, order: int, spec: IntegratorSpec,
                   *, return_cov: bool = False):
    """Polynomial flow map from prior deviations to posterior states.

    The polynomial state starts as the identity around the prior mean and is
    integrated through the drift with a polynomial-valued H.  The covariance
    entering the drift follows its own real-valued ODE with H frozen at the
    running mean.

    The map realizes the drift only.  ``return_cov=True`` returns
    ``(map, P1)`` instead, where P1 is the covariance at pseudo-time 1 from
    the same integration.
    """
    x0 = identity_map(AlgebraContext(prior.dim, order), prior.mean).components
    x1, post_cov = _flow(x0, prior.cov, model, y, schedule, spec)
    fmap = DAVector(x1, center=prior.mean)
    return (fmap, post_cov) if return_cov else fmap


def flow_ensemble_ode(particles, prior: GaussianBelief, model: MeasurementModel,
                      y, schedule: LambdaSchedule, spec: IntegratorSpec,
                      *, return_cov: bool = False):
    """Flow every particle of an (N, n) array through the drift ODE.

    All particles share one covariance trajectory, integrated from the
    prior covariance with H evaluated at the running prior mean.  Each
    particle's drift evaluates H at the particle itself.  Returns the
    flowed (N, n) array; ``return_cov=True`` returns ``(flowed, P1)`` as
    :func:`build_flow_map` does.
    """
    x = np.atleast_2d(np.asarray(particles, dtype=float))
    x1, post_cov = _flow(np.vstack([prior.mean, x]), prior.cov, model, y, schedule, spec)
    flowed = x1[1:]
    if not np.isfinite(flowed).all():
        raise FlowError("particle flow produced non-finite particles")
    return (flowed, post_cov) if return_cov else flowed
