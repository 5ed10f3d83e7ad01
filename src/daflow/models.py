"""Benchmark models: planar range measurement and CubeSat attitude.

Each model function, the measurement Jacobians and log-likelihood
gradients H(x)^T R^-1 (y - h(x)) included, has one body that serves plain
state vectors, (N, n) particle batches, and polynomial arrays; on a
polynomial state it returns its truncated expansion.  Every polynomial
product is the algebra's elementwise ``*``, and ``@`` only ever takes a
constant matrix.  The range model unpacks the components along the last
axis with ``x.T`` and applies the :mod:`daflow.algebra` intrinsics; its
gradient is R^-1 (y rsqrt(x . x) - 1) x, which never expands the norm.
Every attitude function is at most quadratic in the state, so each is one
gathered pair product ``x[..., a] * x[..., b]`` times a constant matrix
plus a constant or linear term; :func:`_pair_coefficients` reads each
matrix once off the textbook formula, and the measurement's affine
Jacobian and its gradient come from its pair matrix.
Quaternions are stored vector-first, scalar-last: q = (qi, qj, qk, qs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .filter import DYNAMICS_SPEC, DynamicsModel
from .flow import MeasurementModel
from .integrate import integrate

__all__ = [
    "AttitudeState",
    "RigidBodyParams",
    "StarCatalog",
    "TruthLog",
    "range_h",
    "range_model",
    "quat_mul",
    "attitude_rhs",
    "attitude_dynamics",
    "dcm_from_quat",
    "stacked_measurement",
    "measurement_epochs",
    "simulate_truth",
    "normalize_quaternion_block",
    "DEFAULT_PARAMS",
    "DEFAULT_CATALOG",
    "DEFAULT_INITIAL_STATE",
    "INITIAL_STATE_COV",
    "STAR_NOISE_SIGMA",
    "GYRO_NOISE_SIGMA",
]

STATE_DIM = 10
STAR_NOISE_SIGMA = 0.01
GYRO_NOISE_SIGMA = 0.2 * np.pi / 180.0  # rad/s


# ---------------------------------------------------------------------------
# planar range toy


def _squared_range(x):
    x = algebra.asarray(x)
    # one product squares both components of a polynomial state
    xx = x * x
    return xx[..., 0] + xx[..., 1]


def range_h(x):
    """Euclidean norm of a 2-d state; singular when expanded around the origin."""
    return algebra.sqrt(_squared_range(x))[..., None]


def range_model(noise_sigma: float) -> MeasurementModel:
    """Range measurement y = ||x|| + v for the planar toy problem.

    The Jacobian is the single row x / ||x||, the unit vector
    ``x * rsqrt(x . x)``: the algebra divides by numbers only, so a
    polynomial state takes the inverse norm as one series.  So the
    log-likelihood gradient H^T R^-1 (y - ||x||) is R^-1 (y rsqrt(x . x) - 1)
    times x: one product for x . x, one ``rsqrt`` and one elementwise
    product with x, in which the length-1 last axis broadcasts; it never
    expands ``sqrt``.
    """

    def jac(x):
        x = algebra.asarray(x)
        return (x * algebra.rsqrt(_squared_range(x))[..., None])[..., None, :]

    def loglik_grad(x, y, noise_inv):
        x = algebra.asarray(x)
        inv_norm = algebra.rsqrt(_squared_range(x))[..., None]
        return ((inv_norm * y - 1.0) @ noise_inv.T) * x

    return MeasurementModel(h=range_h, noise_cov=[[noise_sigma ** 2]], jac=jac,
                            loglik_grad=loglik_grad)


# ---------------------------------------------------------------------------
# attitude problem


def quat_mul(a, b):
    """Hamilton product, vector-first scalar-last component order."""
    ai, aj, ak, asc = algebra.asarray(a).T
    bi, bj, bk, bsc = algebra.asarray(b).T
    return algebra.stack(
        [
            asc * bi + bsc * ai + aj * bk - ak * bj,
            asc * bj + bsc * aj + ak * bi - ai * bk,
            asc * bk + bsc * ak + ai * bj - aj * bi,
            asc * bsc - ai * bi - aj * bj - ak * bk,
        ],
        axis=-1,
    )


def dcm_from_quat(q):
    """Direction cosine matrix rotating inertial vectors into the body frame.

    Returns a 3x3 nested list so entries may be polynomials; exactly
    orthogonal for unit quaternions.
    """
    qi, qj, qk, qs = algebra.asarray(q).T
    ii, jj, kk, ss = qi * qi, qj * qj, qk * qk, qs * qs
    ij, ik, is_ = qi * qj, qi * qk, qi * qs
    jk, js = qj * qk, qj * qs
    ks = qk * qs
    return [
        [ss + ii - jj - kk, 2.0 * (ij + ks), 2.0 * (ik - js)],
        [2.0 * (ij - ks), ss - ii + jj - kk, 2.0 * (jk + is_)],
        [2.0 * (ik + js), 2.0 * (jk - is_), ss - ii - jj + kk],
    ]


# State-index pairs of the quadratic attitude terms: (w_a, q_b) of the
# kinematics and (w_a, w_b), a <= b, of the Euler term; (q_a, q_b), a <= b,
# of the star trackers.
_RHS_A, _RHS_B = np.array([(4 + a, b) for a in range(3) for b in range(4)]
                          + [(4 + a, 4 + b) for a in range(3) for b in range(a, 3)]).T
_Q_A, _Q_B = np.array([(a, b) for a in range(4) for b in range(a, 4)]).T


def _pair_coefficients(f, pairs_a, pairs_b) -> np.ndarray:
    """Coefficient of each product x_a x_b in ``f``, a float function of the
    state that is quadratic with no linear part, by polarization on unit
    states: f(e_a) - f(0) when a = b, else f(e_a + e_b) - f(e_a) - f(e_b) + f(0)."""
    e = np.eye(STATE_DIM)
    f0 = f(np.zeros(STATE_DIM))
    return np.stack([f(e[a]) - f0 if a == b else f(e[a] + e[b]) - f(e[a]) - f(e[b]) + f0
                     for a, b in zip(pairs_a, pairs_b)])


# (10, 3, 3) coefficients of q_a q_b in C(q), exact: the entries are small integers
_DCM_PAIRS = _pair_coefficients(lambda x: np.array(dcm_from_quat(x[0:4])), _Q_A, _Q_B)


@dataclass
class AttitudeState:
    """Quaternion (vector-first), body rates, and gyro bias."""

    q: np.ndarray
    omega_b: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.omega_b = np.asarray(self.omega_b, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.q.shape != (4,) or self.omega_b.shape != (3,) or self.bias.shape != (3,):
            raise ValueError("attitude state blocks must be (4,), (3,), (3,)")
        for name in ("q", "omega_b", "bias"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"attitude state {name} must be finite")
        if abs(np.linalg.norm(self.q) - 1.0) > 1e-9:
            raise ValueError("quaternion must have unit norm")

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.q, self.omega_b, self.bias])


@dataclass
class RigidBodyParams:
    """Inertia matrix (kg m^2) and constant external torque (N m).

    ``rhs_quadratic`` (18, 10) and ``rhs_constant`` (10,) hold
    :func:`attitude_rhs` as a quadratic form: the products of its 18 state
    pairs times ``rhs_quadratic``, plus ``rhs_constant``.
    """

    inertia: np.ndarray
    external_torque: np.ndarray

    def __post_init__(self):
        self.inertia = np.asarray(self.inertia, dtype=float)
        self.external_torque = np.asarray(self.external_torque, dtype=float)
        if self.inertia.shape != (3, 3) or self.external_torque.shape != (3,):
            raise ValueError("inertia must be 3x3 and torque length 3")
        for name in ("inertia", "external_torque"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if np.abs(self.inertia - self.inertia.T).max() > 1e-12 * np.abs(self.inertia).max():
            raise ValueError("inertia must be symmetric")
        if np.linalg.eigvalsh(self.inertia).min() <= 0:
            raise ValueError("inertia must be positive definite")
        self.inertia_inv = np.linalg.inv(self.inertia)

        def rhs(x):
            q, w = x[0:4], x[4:7]
            w_dot = self.inertia_inv @ (self.external_torque - np.cross(w, self.inertia @ w))
            return np.concatenate([0.5 * quat_mul(np.append(w, 0.0), q), w_dot, np.zeros(3)])

        self.rhs_quadratic = _pair_coefficients(rhs, _RHS_A, _RHS_B)
        self.rhs_constant = rhs(np.zeros(STATE_DIM))


@dataclass
class StarCatalog:
    """Two inertial star directions (unit vectors)."""

    r1: np.ndarray
    r2: np.ndarray

    def __post_init__(self):
        for name in ("r1", "r2"):
            r = np.asarray(getattr(self, name), dtype=float)
            if r.shape != (3,) or not (np.isfinite(r).all() and r.any()):
                raise ValueError(f"star direction {name} must be a finite, nonzero 3-vector, "
                                 f"got {r.tolist()}")
            # hypot neither overflows nor underflows on a finite nonzero r
            setattr(self, name, r / math.hypot(*r))


DEFAULT_PARAMS = RigidBodyParams(np.diag([100.0, 60.0, 50.0]), np.zeros(3))
DEFAULT_CATALOG = StarCatalog([5.0, 2.0, 3.0], [1.0, 10.0, 4.0])
DEFAULT_INITIAL_STATE = AttitudeState(
    q=0.5 * np.ones(4),
    omega_b=(10.0 * np.pi / 180.0) * np.array([1.0, 2.0, 3.0]) / np.linalg.norm([1.0, 2.0, 3.0]),
    bias=np.zeros(3),
)
# filter initialization spread; a reproduction choice, not a published value
INITIAL_STATE_COV = np.diag([0.1 ** 2] * 4 + [0.05 ** 2] * 3 + [0.01 ** 2] * 3)


def attitude_rhs(x, params: RigidBodyParams = DEFAULT_PARAMS):
    """Quaternion kinematics 0.5 [w; 0] (x) q, Euler rigid-body rates
    J^-1 (m - w x J w), constant bias."""
    x = algebra.asarray(x)
    return (x[..., _RHS_A] * x[..., _RHS_B]) @ params.rhs_quadratic + params.rhs_constant


def attitude_dynamics(params: RigidBodyParams = DEFAULT_PARAMS) -> DynamicsModel:
    return DynamicsModel(f=lambda x, t: attitude_rhs(x, params))


def stacked_measurement(catalog: StarCatalog = DEFAULT_CATALOG) -> MeasurementModel:
    """Two star trackers, C(q) r1 and C(q) r2, and a rate gyro, body rates
    plus bias, as one 9-dimensional quadratic form.

    The log-likelihood gradient H(x)^T w, with w = (y - h(x)) R^-1, is one
    product of the 24 (quaternion, star tracker) pairs x_i w_k times a
    (24, 10) matrix, plus the gyro's constant part ``w @ H(0)``; it never
    forms H.
    """
    quad = np.zeros((len(_Q_A), 9))
    quad[:, 0:3] = _DCM_PAIRS @ catalog.r1
    quad[:, 3:6] = _DCM_PAIRS @ catalog.r2
    lin = np.zeros((STATE_DIM, 9))
    lin[4:7, 6:9] = lin[7:10, 6:9] = np.eye(3)

    def h(x):
        x = algebra.asarray(x)
        return (x[..., _Q_A] * x[..., _Q_B]) @ quad + x @ lin

    # h is quadratic, so H(x) = H(0) + sum_i x_i slope_i is affine: pair (a, b)
    # puts its row of quad in column a of slope_b and column b of slope_a (twice
    # when a = b).  The copy of H(0) is contiguous, so jac's ravel() is a view
    h0 = lin.T.copy()
    slope = np.zeros((STATE_DIM, 9, STATE_DIM))
    np.add.at(slope, (_Q_B, slice(None), _Q_A), quad)
    np.add.at(slope, (_Q_A, slice(None), _Q_B), quad)
    # so H^T w = w @ h0 + sum_ik x_i w_k slope_i[k], in which only the 4 x 6
    # (quaternion, star tracker) pairs (i, k) have a nonzero row
    pair_rows = slope[0:4, 0:6].reshape(24, STATE_DIM)
    slope = slope.reshape(STATE_DIM, -1)

    def jac(x):
        x = algebra.asarray(x)
        out = x @ slope
        # in place: a second batch-sized temporary costs more than the product
        out += h0.ravel()
        return out.reshape(*x.shape[:-1], *h0.shape)

    def loglik_grad(x, y, noise_inv):
        x = algebra.asarray(x)
        w = (y - h(x)) @ noise_inv.T
        pairs = x[..., 0:4, None] * w[..., None, 0:6]
        out = pairs.reshape(*pairs.shape[:-2], 24) @ pair_rows
        out += w @ h0
        return out

    noise = np.diag(
        [STAR_NOISE_SIGMA ** 2] * 6 + [GYRO_NOISE_SIGMA ** 2] * 3
    )
    return MeasurementModel(h=h, noise_cov=noise, jac=jac, loglik_grad=loglik_grad)


def normalize_quaternion_block(x):
    """Rescale the quaternion block of a state (or batch) to unit norm."""
    x = np.array(x, dtype=float, copy=True)
    q = x[..., 0:4]
    x[..., 0:4] = q / np.linalg.norm(q, axis=-1, keepdims=True)
    return x


# ---------------------------------------------------------------------------
# truth simulation


@dataclass
class TruthLog:
    """Truth states and noisy measurements at each measurement epoch."""

    times: np.ndarray
    states: np.ndarray
    measurements: np.ndarray
    initial_state: np.ndarray


def measurement_epochs(duration: float, meas_period: float) -> int:
    """Epochs the truth runs: both values positive and finite, and
    ``duration`` a whole number (>= 1) of measurement periods."""
    for name, value in (("duration", duration), ("meas_period", meas_period)):
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    # a quotient of finite values can still overflow
    ratio = duration / meas_period
    if not (np.isfinite(ratio) and round(ratio) >= 1 and abs(ratio - round(ratio)) <= 1e-9):
        raise ValueError("duration must be a whole multiple (>= 1) of meas_period")
    return round(ratio)


# the unread dt slot is perfbench/workloads.py's positional call (lines 129-131)
def simulate_truth(x0: AttitudeState, params: RigidBodyParams, duration: float,
                   dt, meas_period: float, seed) -> TruthLog:
    """Propagate the truth from one measurement to the next with the
    filters' ``DYNAMICS_SPEC`` (adaptive RK7(8)) and log noisy measurements.

    ``dt`` is not read; the library passes None.  ``seed=None`` disables
    measurement noise entirely.
    """
    n_epochs = measurement_epochs(duration, meas_period)
    model = stacked_measurement()
    rng = None if seed is None else np.random.default_rng(seed)
    noise_scale = np.sqrt(np.diag(model.noise_cov))
    x = x0.as_vector()
    times = np.empty(n_epochs)
    states = np.empty((n_epochs, STATE_DIM))
    meas = np.empty((n_epochs, model.dim))
    rhs = lambda s, t: attitude_rhs(s, params)
    for k in range(n_epochs):
        x = integrate(rhs, x, k * meas_period, (k + 1) * meas_period, DYNAMICS_SPEC)
        times[k] = (k + 1) * meas_period
        states[k] = x
        clean = model.h(x)
        if rng is None:
            meas[k] = clean
        else:
            meas[k] = clean + noise_scale * rng.standard_normal(model.dim)
    return TruthLog(times, states, meas, x0.as_vector())
