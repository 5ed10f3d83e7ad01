"""Polynomial-map particle flow filter and its per-particle ODE baseline.

Each measurement epoch builds one state-transition polynomial map through
the dynamics and then flows that polynomial state itself through the
measurement update, so the flow's result is the epoch's single map from
pre-propagation deviations to posterior states; every particle is evaluated
through it.  Both maps are (n,) polynomial arrays whose constant part is
the image of the current estimate.  The baseline filter does the same work
with direct numerical integration of every particle.  The dynamics are
deterministic, so that one map is the only evaluation path.  Both filters
integrate the dynamics with ``DYNAMICS_SPEC`` and the measurement flow with
``FLOW_SPEC``, one RK7(8) call over the flow's log pseudo-time, whose
step count follows the flow's error: many steps on a track's first epochs,
one on a converged epoch.  The attitude truth
(:func:`daflow.models.simulate_truth`) runs ``DYNAMICS_SPEC`` too, so no
integration of an experiment takes a fixed step.

Both maps and ODE solves realize only the drift of the measurement flow,
which carries deviations by Phi = P1 P0^-1 and leaves the ensemble with
covariance P1 P0^-1 P1 instead of the flow's P1; the diffusion of the
stochastic flow is what makes up the difference.  Both filters add its
deterministic stand-in, :func:`spread_correction`, to the flowed
particles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# compose is not called here: perfbench's tracer looks up daflow.filter.compose
from .algebra import AlgebraContext, DAScalar, compose, evaluate_many, identity_map
from .flow import (
    Ensemble,
    GaussianBelief,
    MeasurementModel,
    build_flow_map,
    flow_ensemble_ode,
)
from .integrate import IntegratorSpec, integrate

__all__ = [
    "DynamicsModel",
    "FilterConfig",
    "FilterState",
    "StepTiming",
    "build_stpm",
    "ensemble_stats",
    "spread_correction",
    "daruff_step",
    "baseline_pff_step",
]

# RK7(8) holds the map's integration error far below its truncation error in a few steps
DYNAMICS_SPEC = IntegratorSpec("rk78_adaptive")
# one RK7(8) call over the flow's log pseudo-time (daflow.flow._flow); its
# integration error stays far below the order-2 attitude map's truncation
# error, 1.6e-3 at most and 1.2e-5 at the median particle
FLOW_SPEC = IntegratorSpec("rk78_adaptive", tolerance=1e-6)


@dataclass
class DynamicsModel:
    """Equations of motion x' = f(x, t), evaluable on real vectors,
    (N, n) batches, and polynomial states ((n,) DAScalar arrays), returning
    the same kind."""

    f: Callable


@dataclass
class StepTiming:
    """Wall-clock seconds per filter-step phase."""

    propagate: float = 0.0
    flow: float = 0.0
    evaluate: float = 0.0


@dataclass
class FilterState:
    """Filter loop state: current time, belief, and particle ensemble."""

    time: float
    belief: GaussianBelief
    ensemble: Ensemble
    timing: StepTiming | None = None


@dataclass
class FilterConfig:
    """Knobs shared by both filters for one scenario; both integrate the
    dynamics with ``DYNAMICS_SPEC`` and the flow with ``FLOW_SPEC``."""

    order: int
    meas_period: float
    particle_postprocess: Callable | None = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.meas_period <= 0:
            raise ValueError("meas_period must be positive")


def build_stpm(center, dynamics: DynamicsModel, t0: float, t1: float,
               order: int, spec: IntegratorSpec) -> DAScalar:
    """State-transition polynomial map of the dynamics from t0 to t1, an
    (n,) polynomial array in the deviations from ``center``."""
    if t1 <= t0:
        raise ValueError(f"need t1 > t0, got {t0} -> {t1}")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    ctx = AlgebraContext(len(center), order)
    return integrate(dynamics.f, identity_map(ctx, center), t0, t1, spec)


# the flow starts from the dynamics map, so no step composes two maps;
# perfbench's tracer still looks up this name
combine_maps = compose


def ensemble_stats(ensemble: Ensemble) -> GaussianBelief:
    """Equal-weight mean and covariance (1/N normalization)."""
    x = ensemble.particles
    mean = x.mean(axis=0)
    dev = x - mean
    cov = dev.T @ dev / x.shape[0]
    return GaussianBelief(mean, 0.5 * (cov + cov.T))


def _psd_roots(cov: np.ndarray):
    """Symmetric square root of a PSD matrix and the pseudo-inverse of that
    root; eigenvalues at the round-off floor count as zero."""
    s, v = np.linalg.eigh(0.5 * (cov + cov.T))
    keep = s > len(s) * np.finfo(float).eps * max(s.max(), 0.0)
    root = np.sqrt(s[keep])
    v = v[:, keep]
    return (v * root) @ v.T, (v / root) @ v.T


def spread_correction(predicted: np.ndarray, prior_cov: np.ndarray,
                      post_cov: np.ndarray) -> np.ndarray:
    """Per-particle increment (M - Phi)(p_i - p_bar) that gives the flowed
    ensemble the flow's posterior covariance.

    ``predicted`` holds the particles p_i the flow started from, p_bar is
    their mean, P0 = ``prior_cov`` and P1 = ``post_cov`` are the shared
    covariance at pseudo-time 0 and 1.  The drift carries deviations by
    Phi = P1 P0^-1; M is the symmetric positive-definite solution of
    M P0 M = P1.  The increment sums to zero over the ensemble, so the mean
    is unchanged, and in the linear-Gaussian case the corrected ensemble has
    exactly the Kalman mean and covariance.  It is a deterministic stand-in
    with the second moment of the flow's diffusion.
    """
    root, inv_root = _psd_roots(prior_cov)
    m = inv_root @ _psd_roots(root @ post_cov @ root)[0] @ inv_root
    phi = post_cov @ inv_root @ inv_root
    devs = predicted - predicted.mean(axis=0)
    return devs @ (m - phi).T


def _finish_step(t1, particles, cfg, timing: StepTiming) -> FilterState:
    if cfg.particle_postprocess is not None:
        particles = cfg.particle_postprocess(particles)
    ens = Ensemble(particles)
    return FilterState(t1, ensemble_stats(ens), ens, timing)


def daruff_step(state: FilterState, dynamics: DynamicsModel,
                model: MeasurementModel, y, cfg: FilterConfig) -> FilterState:
    """One measurement epoch of the polynomial-map filter.

    Deviations are stored against the current estimate, the dynamics map is
    built to the measurement time and flowed through the measurement update
    from the propagated mean, and every particle moves by one evaluation of
    the flowed map plus its :func:`spread_correction`.
    """
    t0 = state.time
    t1 = t0 + cfg.meas_period
    xhat = state.belief.mean
    devs = state.ensemble.particles - xhat

    tic = time.perf_counter()
    stpm = build_stpm(xhat, dynamics, t0, t1, cfg.order, DYNAMICS_SPEC)
    predicted = evaluate_many(stpm, devs)
    t_prop = time.perf_counter() - tic

    tic = time.perf_counter()
    prior = GaussianBelief(stpm.constant, ensemble_stats(Ensemble(predicted)).cov)
    epoch_map, post_cov = build_flow_map(prior, model, y, None, stpm, FLOW_SPEC,
                                         return_cov=True)
    t_flow = time.perf_counter() - tic

    tic = time.perf_counter()
    posterior = evaluate_many(epoch_map, devs)
    posterior = posterior + spread_correction(predicted, prior.cov, post_cov)
    t_eval = time.perf_counter() - tic

    return _finish_step(t1, posterior, cfg, StepTiming(t_prop, t_flow, t_eval))


def baseline_pff_step(state: FilterState, dynamics: DynamicsModel,
                      model: MeasurementModel, y, cfg: FilterConfig) -> FilterState:
    """One measurement epoch of the per-particle ODE flow filter: every
    particle is integrated through the dynamics and the drift, then moved by
    its :func:`spread_correction`."""
    t0 = state.time
    t1 = t0 + cfg.meas_period

    tic = time.perf_counter()
    predicted = integrate(dynamics.f, state.ensemble.particles, t0, t1, DYNAMICS_SPEC)
    t_prop = time.perf_counter() - tic

    tic = time.perf_counter()
    prior = ensemble_stats(Ensemble(predicted))
    flowed, post_cov = flow_ensemble_ode(predicted, prior, model, y, None, FLOW_SPEC,
                                         return_cov=True)
    flowed = flowed + spread_correction(predicted, prior.cov, post_cov)
    t_flow = time.perf_counter() - tic

    return _finish_step(t1, flowed, cfg, StepTiming(t_prop, t_flow, 0.0))
