"""Benchmark models: planar range measurement and CubeSat attitude.

All model functions are written against a small set of generic operations
(slicing, unpacking the components along the last axis with ``x.T``,
arithmetic, and the :mod:`daflow.algebra` intrinsics and
``stack``/``concatenate``) so one definition serves plain state vectors,
(N, n) particle batches, and polynomial arrays.
Quaternions are stored vector-first, scalar-last: q = (qi, qj, qk, qs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .filter import DynamicsModel
from .flow import MeasurementModel
from .integrate import IntegratorSpec, integrate

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
    "star_tracker_h",
    "gyro_h",
    "stacked_measurement",
    "star_tracker_jacobian",
    "stacked_jacobian",
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


def range_h(x):
    """Euclidean norm of a 2-d state; singular when expanded around the origin."""
    x0, x1 = algebra.asarray(x).T
    return algebra.sqrt(x0 * x0 + x1 * x1)[..., None]


def range_model(noise_sigma: float = 0.1) -> MeasurementModel:
    """Range measurement y = ||x|| + v for the planar toy problem."""

    def jac(x):
        xa = np.asarray(x, dtype=float)
        if xa.ndim == 1:
            nrm = np.linalg.norm(xa)
            return (xa / nrm)[None, :]
        nrm = np.linalg.norm(xa, axis=1, keepdims=True)
        return (xa / nrm)[:, None, :]

    return MeasurementModel(h=range_h, noise_cov=[[noise_sigma ** 2]], dim=1, jac=jac)


# ---------------------------------------------------------------------------
# attitude problem


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
        if abs(np.linalg.norm(self.q) - 1.0) > 1e-9:
            raise ValueError("quaternion must have unit norm")

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.q, self.omega_b, self.bias])

    @classmethod
    def from_vector(cls, x) -> "AttitudeState":
        x = np.asarray(x, dtype=float)
        return cls(x[:4], x[4:7], x[7:10])


@dataclass
class RigidBodyParams:
    """Inertia matrix (kg m^2) and constant external torque (N m)."""

    inertia: np.ndarray
    external_torque: np.ndarray

    def __post_init__(self):
        self.inertia = np.asarray(self.inertia, dtype=float)
        self.external_torque = np.asarray(self.external_torque, dtype=float)
        if self.inertia.shape != (3, 3) or self.external_torque.shape != (3,):
            raise ValueError("inertia must be 3x3 and torque length 3")
        if np.abs(self.inertia - self.inertia.T).max() > 1e-12 * np.abs(self.inertia).max():
            raise ValueError("inertia must be symmetric")
        if np.linalg.eigvalsh(self.inertia).min() <= 0:
            raise ValueError("inertia must be positive definite")
        self.inertia_inv = np.linalg.inv(self.inertia)


@dataclass
class StarCatalog:
    """Two inertial star directions (unit vectors)."""

    r1: np.ndarray
    r2: np.ndarray

    def __post_init__(self):
        self.r1 = np.asarray(self.r1, dtype=float) / np.linalg.norm(self.r1)
        self.r2 = np.asarray(self.r2, dtype=float) / np.linalg.norm(self.r2)


DEFAULT_PARAMS = RigidBodyParams(np.diag([100.0, 60.0, 50.0]), np.zeros(3))
DEFAULT_CATALOG = StarCatalog([5.0, 2.0, 3.0], [1.0, 10.0, 4.0])
DEFAULT_INITIAL_STATE = AttitudeState(
    q=0.5 * np.ones(4),
    omega_b=(10.0 * np.pi / 180.0) * np.array([1.0, 2.0, 3.0]) / np.linalg.norm([1.0, 2.0, 3.0]),
    bias=np.zeros(3),
)
# filter initialization spread; a reproduction choice, not a published value
INITIAL_STATE_COV = np.diag([0.1 ** 2] * 4 + [0.05 ** 2] * 3 + [0.01 ** 2] * 3)


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


def attitude_rhs(x, params: RigidBodyParams = DEFAULT_PARAMS):
    """Quaternion kinematics, Euler rigid-body rates, constant bias."""
    j = params.inertia
    jinv = params.inertia_inv
    m = params.external_torque

    # q' = 0.5 [w; 0] (x) q, written out so polynomial states pass through
    qi, qj, qk, qs, wi, wj, wk = algebra.asarray(x).T[0:7]
    dq = [
        0.5 * (qs * wi + wj * qk - wk * qj),
        0.5 * (qs * wj + wk * qi - wi * qk),
        0.5 * (qs * wk + wi * qj - wj * qi),
        0.5 * (-wi * qi - wj * qj - wk * qk),
    ]

    jw = [j[r, 0] * wi + j[r, 1] * wj + j[r, 2] * wk for r in range(3)]
    torque = [
        m[0] - (wj * jw[2] - wk * jw[1]),
        m[1] - (wk * jw[0] - wi * jw[2]),
        m[2] - (wi * jw[1] - wj * jw[0]),
    ]
    dw = [
        jinv[r, 0] * torque[0] + jinv[r, 1] * torque[1] + jinv[r, 2] * torque[2]
        for r in range(3)
    ]

    zero = 0.0 * qi
    return algebra.stack(dq + dw + [zero, zero, zero], axis=-1)


def attitude_dynamics(params: RigidBodyParams = DEFAULT_PARAMS) -> DynamicsModel:
    return DynamicsModel(f=lambda x, t: attitude_rhs(x, params))


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


def star_tracker_h(x, r):
    """Body-frame direction of an inertial star: C(q) r."""
    c = dcm_from_quat(algebra.asarray(x)[..., 0:4])
    return algebra.stack(
        [c[row][0] * r[0] + c[row][1] * r[1] + c[row][2] * r[2] for row in range(3)],
        axis=-1,
    )


def gyro_h(x):
    """Rate-gyro reading: body rates plus bias."""
    x = algebra.asarray(x)
    return x[..., 4:7] + x[..., 7:10]


def star_tracker_jacobian(q, r):
    """d(C(q) r)/dq, rows stacked over the measurement components."""
    q = np.asarray(q, dtype=float)
    qi, qj, qk, qs = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    r0, r1, r2 = r
    rows = [
        [
            2 * (qi * r0 + qj * r1 + qk * r2),
            2 * (-qj * r0 + qi * r1 - qs * r2),
            2 * (-qk * r0 + qs * r1 + qi * r2),
            2 * (qs * r0 + qk * r1 - qj * r2),
        ],
        [
            2 * (qj * r0 - qi * r1 + qs * r2),
            2 * (qi * r0 + qj * r1 + qk * r2),
            2 * (-qs * r0 - qk * r1 + qj * r2),
            2 * (-qk * r0 + qs * r1 + qi * r2),
        ],
        [
            2 * (qk * r0 - qs * r1 - qi * r2),
            2 * (qs * r0 + qk * r1 - qj * r2),
            2 * (qi * r0 + qj * r1 + qk * r2),
            2 * (qj * r0 - qi * r1 + qs * r2),
        ],
    ]
    return np.stack([np.stack([np.asarray(c, dtype=float) for c in row], axis=-1)
                     for row in rows], axis=-2)


def stacked_jacobian(x, catalog: StarCatalog):
    """Analytic Jacobian of the stacked star/star/gyro measurement."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    n = xb.shape[0]
    out = np.zeros((n, 9, STATE_DIM))
    out[:, 0:3, 0:4] = star_tracker_jacobian(xb[:, 0:4], catalog.r1)
    out[:, 3:6, 0:4] = star_tracker_jacobian(xb[:, 0:4], catalog.r2)
    out[:, 6:9, 4:7] = np.eye(3)
    out[:, 6:9, 7:10] = np.eye(3)
    return out[0] if single else out


def stacked_measurement(catalog: StarCatalog = DEFAULT_CATALOG) -> MeasurementModel:
    """Two star trackers and a rate gyro as one 9-dimensional measurement."""

    def h(x):
        return algebra.concatenate(
            [star_tracker_h(x, catalog.r1), star_tracker_h(x, catalog.r2), gyro_h(x)],
            axis=-1)

    noise = np.diag(
        [STAR_NOISE_SIGMA ** 2] * 6 + [GYRO_NOISE_SIGMA ** 2] * 3
    )
    return MeasurementModel(h=h, noise_cov=noise, dim=9,
                            jac=lambda x: stacked_jacobian(x, catalog))


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


def simulate_truth(x0: AttitudeState, params: RigidBodyParams, duration: float,
                   dt: float, meas_period: float, seed,
                   catalog: StarCatalog = DEFAULT_CATALOG) -> TruthLog:
    """Propagate the truth with fixed-step RK4 and log noisy measurements.

    ``seed=None`` disables measurement noise entirely.
    """
    steps_per_epoch = meas_period / dt
    if abs(steps_per_epoch - round(steps_per_epoch)) > 1e-9:
        raise ValueError("meas_period must be a multiple of dt")
    n_epochs = int(round(duration / meas_period))
    model = stacked_measurement(catalog)
    rng = None if seed is None else np.random.default_rng(seed)
    noise_scale = np.sqrt(np.diag(model.noise_cov))
    spec = IntegratorSpec("rk4_fixed", step_size=dt)
    x = x0.as_vector()
    times = np.empty(n_epochs)
    states = np.empty((n_epochs, STATE_DIM))
    meas = np.empty((n_epochs, model.dim))
    rhs = lambda s, t: attitude_rhs(s, params)
    for k in range(n_epochs):
        x = integrate(rhs, x, k * meas_period, (k + 1) * meas_period, spec)
        times[k] = (k + 1) * meas_period
        states[k] = x
        clean = model.h(x)
        if rng is None:
            meas[k] = clean
        else:
            meas[k] = clean + noise_scale * rng.standard_normal(model.dim)
    return TruthLog(times, states, meas, x0.as_vector())
