"""Measurement-update particle flow in a pseudo-time.

A measurement is absorbed by moving particles from pseudo-time 0 (the
prior) to 1 (the posterior) along a stochastic flow:

    dx = P H^T R^-1 (y - h(x)) dl + dw,   E[dw dw^T] = P H^T R^-1 H P dl
    dJ/dl = H^T R^-1 H,   P = (I + P0 J)^-1 P0

J is the information gained since the prior (J = 0 at l = 0); for a frozen
H, P is the exact Daum-Huang covariance (P0^-1 + l H^T R^-1 H)^-1, written
so that a singular P0 needs no inverse.  J's rate does not depend on P,
so a step cannot make P indefinite.

This module integrates the drift only, with one driver for every route
and one law: every particle's drift takes the nonlinear innovation
y - h(x) and H at the particle itself.
The state it carries is either a polynomial state, an (n,) polynomial
array that the map route (:func:`build_flow_map`) starts as the identity
around the prior mean or as the filter's dynamics map, and which replaces
every particle integration with one polynomial evaluation, or a batch of
particles (:func:`flow_ensemble_ode`, and :func:`flow_mean_cov` on the
one-row batch of the prior mean).  Next to the state rides one real
(n, n) information matrix J, shared by every particle, whose rate takes H
at the running mean.  The running mean is the image of the prior mean, so
it is read off the state: the polynomial state's constant part, or row 0
of a batch that starts with the prior mean.

One drift body serves every kind of state: the model's h and its
vector-Jacobian product H(x)^T w run on the state as it is, and on a
polynomial state they return their truncated expansions directly (as in
DACE, Rasotto et al., 2016).  The drift never forms H itself; the model's
Jacobian is evaluated only at the running mean, a real state, for J's rate.

The drift alone carries deviations by Phi = P1 P0^-1, so a drift-flowed
ensemble has covariance P1 P0^-1 P1 rather than P1; the filters restore
the diffusion's share with :func:`daflow.filter.spread_correction`, from
the P1 that both routes return on request (``return_cov=True``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# compose is not called here: perfbench's tracer looks up daflow.flow.compose
from .algebra import AlgebraContext, DAScalar, compose, identity_map
from .integrate import IntegrationError, IntegratorSpec, Stacked, integrate

__all__ = [
    "GaussianBelief",
    "MeasurementModel",
    "LambdaSchedule",
    "Ensemble",
    "geometric_schedule",
    "flow_mean_cov",
    "build_flow_map",
    "flow_ensemble_ode",
    "da_jacobian",
]


# the integrators raise IntegrationError on a non-finite state, so the flow
# raises no error of its own; perfbench's workloads still import this name
FlowError = IntegrationError


def _measurement(model: MeasurementModel, y) -> np.ndarray:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (model.dim,):
        raise ValueError(f"measurement shape {y.shape} does not match model dim {model.dim}")
    if not np.isfinite(y).all():
        raise ValueError("measurement must be finite")
    return y


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
        for name in ("mean", "cov"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"belief {name} must be finite")
        cov = self.cov
        if np.abs(cov - cov.T).max() > 1e-10 * max(np.abs(cov).max(), 1.0):
            raise ValueError("belief covariance is not symmetric")
        eigmin = float(np.linalg.eigvalsh(cov).min())
        if eigmin < -1e-10 * max(np.trace(cov), 1e-300):
            raise ValueError(f"belief covariance is not positive semidefinite (eigmin={eigmin:g})")

    @property
    def dim(self) -> int:
        return len(self.mean)


@dataclass
class MeasurementModel:
    """Nonlinear measurement y = h(x) + v with Gaussian noise covariance R.

    ``h`` must accept a real state vector, a (N, n) batch, or a polynomial
    state (a (n,) :class:`DAScalar` array) and return the matching kind:
    (m,), (N, m) or an (m,) polynomial array.  ``vjp(x, w)``, the
    vector-Jacobian product H(x)^T w, takes the same three kinds of state
    with a w of the kind h returns, and returns (n,), (N, n) or an (n,)
    polynomial array; the drift calls it on every kind.  ``jac``, the (m, n)
    Jacobian of h, is called only on a real state, the running mean, for
    the rate of the information J.  ``noise_inv`` is R^-1, computed from
    ``noise_cov``.
    """

    h: Callable
    noise_cov: np.ndarray
    jac: Callable
    vjp: Callable
    noise_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.noise_cov = np.asarray(self.noise_cov, dtype=float)
        if self.noise_cov.ndim != 2 or self.noise_cov.shape[0] != self.noise_cov.shape[1]:
            raise ValueError(f"noise_cov must be a square matrix, got shape {self.noise_cov.shape}")
        if not np.isfinite(self.noise_cov).all():
            raise ValueError("noise_cov must be finite")
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


def da_jacobian(h: Callable, x, m: int) -> np.ndarray:
    """Jacobian (m, n) of h at a real state (n,), read off the first-order
    block of h's order-1 expansion about the state."""
    if isinstance(x, DAScalar):
        raise TypeError("da_jacobian takes a real state (n,), not a polynomial state")
    x = np.asarray(x, dtype=float)
    hloc = h(identity_map(AlgebraContext(len(x), 1), x))
    if hloc.shape != (m,):
        raise ValueError(f"h returned shape {hloc.shape}, expected ({m},)")
    # the degree-1 monomials follow the constant, in variable order; the
    # copy is contiguous, so a caller's ravel() is a view
    return hloc.coeffs[:, 1:].copy()


@dataclass
class LambdaSchedule:
    """Strictly increasing pseudo-time nodes from 0 to 1."""

    nodes: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if not np.isfinite(self.nodes).all():
            raise ValueError("schedule nodes must be finite")
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


def geometric_schedule(first: float, count: int) -> LambdaSchedule:
    """{0} followed by ``count`` geometrically spaced nodes from first to 1.

    Small early steps move particles gently where the flow is stiffest;
    later steps grow as the flow relaxes.
    """
    if not (0.0 < first < 1.0):
        raise ValueError(f"need 0 < first < 1, got {first}")
    if count < 2:
        raise ValueError("count must be >= 2")
    ratio = (1.0 / first) ** (1.0 / (count - 1))
    nodes = np.concatenate([[0.0], first * ratio ** np.arange(count)])
    nodes[-1] = 1.0
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
# drift and flow driver


def _drift(x, P, model: MeasurementModel, y):
    """Drift P H^T R^-1 (y - h(x)) at a polynomial state, a single state or
    a batch, with H taken at the state itself.

    H^T w is the model's vector-Jacobian product, so no Jacobian is formed.
    The model code runs on the state as it is, so a polynomial state gets
    the truncated expansions of h and H^T w directly.
    """
    w = (y - model.h(x)) @ model.noise_inv.T
    return model.vjp(x, w) @ P.T


def _flow(x, cov, model: MeasurementModel, y, schedule: LambdaSchedule,
          spec: IntegratorSpec):
    """Carry the state ``x`` and the information gained from pseudo-time 0
    to 1.

    ``x`` is a polynomial state whose constant part is the prior mean, or a
    batch of particles whose row 0 is the prior mean; either way the image
    of the prior mean, the running mean, rides along in ``x``.  ``cov`` is
    the prior covariance P0.  Next to ``x`` rides the information J, from
    J = 0, whose rate H^T R^-1 H takes H at the running mean; the drift's
    covariance is P = (I + P0 J)^-1 P0.  Returns ``(x1, P1)``.
    """
    y = _measurement(model, y)
    poly = isinstance(x, DAScalar)
    eye = np.eye(len(cov))

    def rhs(s, lam):
        x, J = s.parts
        H = model.jac(x.constant if poly else x[0])
        P = np.linalg.solve(eye + cov @ J, cov)
        return Stacked(_drift(x, P, model, y), H.T @ model.noise_inv @ H)

    state = Stacked(x, np.zeros_like(cov))
    for lam0, lam1 in schedule.segments():
        state = integrate(rhs, state, lam0, lam1, spec)
    x1, J1 = state.parts
    P1 = np.linalg.solve(eye + cov @ J1, cov)
    return x1, 0.5 * (P1 + P1.T)


def flow_mean_cov(prior: GaussianBelief, model: MeasurementModel, y,
                  schedule: LambdaSchedule, spec: IntegratorSpec) -> GaussianBelief:
    """Flow the prior mean and covariance to pseudo-time 1: the mean through
    the drift, the covariance as P1 = (I + P0 J1)^-1 P0."""
    x1, P1 = _flow(prior.mean[None, :], prior.cov, model, y, schedule, spec)
    return GaussianBelief(x1[0], P1)


def build_flow_map(prior: GaussianBelief, model: MeasurementModel, y,
                   schedule: LambdaSchedule, start, spec: IntegratorSpec,
                   *, return_cov: bool = False):
    """Polynomial flow map from ``start``'s deviations to posterior states.

    The polynomial state starts as ``start``: an int order for the identity
    around the prior mean, or an (n,) polynomial array whose constant part
    is exactly the prior mean, such as the dynamics map that propagated it.
    It is integrated through the drift with a polynomial-valued H.  The
    covariance entering the drift comes from the real information J, whose
    rate takes H at the running mean.

    The map realizes the drift only.  ``return_cov=True`` returns
    ``(map, P1)`` instead, where P1 is the covariance at pseudo-time 1 from
    the same integration.
    """
    if not isinstance(start, DAScalar):
        start = identity_map(AlgebraContext(prior.dim, start), prior.mean)
    elif not np.array_equal(start.constant, prior.mean):
        raise ValueError("the start map's constant part is not the prior mean")
    fmap, post_cov = _flow(start, prior.cov, model, y, schedule, spec)
    return (fmap, post_cov) if return_cov else fmap


def flow_ensemble_ode(particles, prior: GaussianBelief, model: MeasurementModel,
                      y, schedule: LambdaSchedule, spec: IntegratorSpec,
                      *, return_cov: bool = False):
    """Flow every particle of an (N, n) array through the drift ODE.

    All particles share one covariance trajectory, read off the information
    J, whose rate takes H at the running prior mean.  Each particle's drift
    evaluates H at the particle itself.  Returns the flowed (N, n) array;
    ``return_cov=True`` returns ``(flowed, P1)`` as :func:`build_flow_map`
    does.
    """
    x = np.atleast_2d(np.asarray(particles, dtype=float))
    x1, post_cov = _flow(np.vstack([prior.mean, x]), prior.cov, model, y, schedule, spec)
    flowed = x1[1:]
    return (flowed, post_cov) if return_cov else flowed
