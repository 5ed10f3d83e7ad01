"""Explicit Runge-Kutta integration over duck-typed state algebras.

One integrator body serves plain float vectors, batches of particles,
polynomial states (:class:`~daflow.algebra.DAScalar` arrays), and
heterogeneous bundles (:class:`Stacked`): the state only has to support
``a + b`` and ``scalar * a``.  Two methods are provided, a fixed-step
classic RK4 and the Fehlberg 7(8) embedded adaptive pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DAScalar

__all__ = ["IntegratorSpec", "IntegrationError", "Stacked", "integrate"]

METHODS = ("rk4_fixed", "rk78_adaptive")
TOLERANCE = 1e-10  # rk78_adaptive's relative and absolute error tolerance
MAX_STEPS = 1_000_000  # steps (rk4_fixed) or attempts (rk78_adaptive) per call


class IntegrationError(RuntimeError):
    """Integration failed: divergence, step collapse, or step budget hit."""


@dataclass(frozen=True)
class IntegratorSpec:
    """Integrator selection.  rk4_fixed splits the span into
    ceil(span/step_size) equal steps, so the last step lands exactly on the
    endpoint; rk78_adaptive holds its error estimate within ``TOLERANCE``.
    """

    method: str
    step_size: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.method == "rk4_fixed" and (self.step_size is None or self.step_size <= 0):
            raise ValueError("rk4_fixed requires step_size > 0")


class Stacked:
    """Fixed-shape bundle of states integrated as one ODE state.

    Parts may be float arrays or polynomial arrays; elementwise add and
    scalar multiply distribute over the parts.
    """

    __slots__ = ("parts",)

    def __init__(self, *parts):
        self.parts = parts

    # the parts as lists: unpacking a generator costs more per op, and a
    # flow step makes 13 of these ops
    def __add__(self, other):
        return Stacked(*[p + q for p, q in zip(self.parts, other.parts)])

    def __mul__(self, s):
        return Stacked(*[s * p for p in self.parts])

    __rmul__ = __mul__

    def __repr__(self):
        return f"<Stacked {len(self.parts)} parts>"


def _leading_values(y) -> np.ndarray:
    """Float view of a state used for error control: constant parts for
    polynomial entries, the raw values otherwise."""
    if isinstance(y, Stacked):
        return np.concatenate([_leading_values(p) for p in y.parts])
    if isinstance(y, DAScalar):
        return y.coeffs[..., 0].ravel()
    return np.asarray(y).ravel().astype(float)


def _state_finite(y) -> bool:
    if isinstance(y, Stacked):
        return all(_state_finite(p) for p in y.parts)
    arr = y.coeffs if isinstance(y, DAScalar) else np.asarray(y)
    return bool(np.isfinite(arr).all())


def integrate(rhs, y0, t0: float, t1: float, spec: IntegratorSpec):
    """Approximate y(t1) for y' = rhs(y, t), y(t0) = y0."""
    if t1 < t0:
        raise ValueError(f"t1={t1} must be >= t0={t0}")
    if t1 == t0:
        return y0
    if spec.method == "rk4_fixed":
        return _rk4(rhs, y0, t0, t1, spec)
    return _rk78(rhs, y0, t0, t1)


def _rk4(rhs, y0, t0, t1, spec):
    span = t1 - t0
    n = max(1, math.ceil(span / spec.step_size - 1e-12))
    if n > MAX_STEPS:
        raise IntegrationError(
            f"rk4_fixed needs {n} steps, exceeding max_steps={MAX_STEPS}"
        )
    h = span / n
    y = y0
    for i in range(n):
        t = t0 + i * h
        k1 = rhs(y, t)
        k2 = rhs(y + (h / 2) * k1, t + h / 2)
        k3 = rhs(y + (h / 2) * k2, t + h / 2)
        k4 = rhs(y + h * k3, t + h)
        y = y + (h / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not _state_finite(y):
            raise IntegrationError(f"non-finite state at t={t + h}")
    return y


# Fehlberg 7(8) embedded pair: 13 stages, 8th-order solution propagated,
# error estimated against the embedded 7th-order formula.
_C = np.array([0, 2/27, 1/9, 1/6, 5/12, 1/2, 5/6, 1/6, 2/3, 1/3, 1, 0, 1])
_A = [
    [],
    [2/27],
    [1/36, 1/12],
    [1/24, 0, 1/8],
    [5/12, 0, -25/16, 25/16],
    [1/20, 0, 0, 1/4, 1/5],
    [-25/108, 0, 0, 125/108, -65/27, 125/54],
    [31/300, 0, 0, 0, 61/225, -2/9, 13/900],
    [2, 0, 0, -53/6, 704/45, -107/9, 67/90, 3],
    [-91/108, 0, 0, 23/108, -976/135, 311/54, -19/60, 17/6, -1/12],
    [2383/4100, 0, 0, -341/164, 4496/1025, -301/82, 2133/4100, 45/82, 45/164, 18/41],
    [3/205, 0, 0, 0, 0, -6/41, -3/205, -3/41, 3/41, 6/41, 0],
    [-1777/4100, 0, 0, -341/164, 4496/1025, -289/82, 2193/4100, 51/82, 33/164, 12/41, 0, 1],
]
_B7 = np.array([41/840, 0, 0, 0, 0, 34/105, 9/35, 9/35, 9/280, 9/280, 41/840, 0, 0])
_B8 = np.array([0, 0, 0, 0, 0, 34/105, 9/35, 9/35, 9/280, 9/280, 0, 41/840, 41/840])


def _weighted_sum(terms):
    """sum of (weight, state) pairs, skipping zero weights."""
    acc = None
    for w, k in terms:
        if w == 0.0:
            continue
        wk = w * k
        acc = wk if acc is None else acc + wk
    return acc


def _rk78(rhs, y0, t0, t1):
    t = t0
    y = y0
    h = t1 - t0
    attempts = 0
    tiny = 1e-14 * (t1 - t0)
    while t < t1 - tiny:
        h = min(h, t1 - t)
        if h < tiny:
            raise IntegrationError("rk78_adaptive step size collapsed")
        if attempts >= MAX_STEPS:
            raise IntegrationError(
                f"rk78_adaptive exceeded max_steps={MAX_STEPS}"
            )
        attempts += 1

        ks = []
        for s in range(13):
            inc = _weighted_sum(zip(_A[s], ks))
            ys = y if inc is None else y + h * inc
            ks.append(rhs(ys, t + _C[s] * h))

        y8 = y + h * _weighted_sum(zip(_B8, ks))
        # leading-value error estimate of the 7th- vs 8th-order solutions
        diff = h * sum(
            (b8 - b7) * _leading_values(k)
            for b7, b8, k in zip(_B7, _B8, ks)
            if b8 != b7
        )
        ref = np.maximum(np.abs(_leading_values(y)), np.abs(_leading_values(y8)))
        err = float(np.max(np.abs(diff) / (TOLERANCE + TOLERANCE * ref)))
        # k1 = rhs(y, t) does not depend on h, so a smaller step cannot
        # mend it; later stages may overflow on a long step and are retried
        if not math.isfinite(err) and not _state_finite(ks[0]):
            raise IntegrationError(f"non-finite right-hand side at t={t}")

        if err <= 1.0:
            y = y8
            t = t + h
            if not _state_finite(y):
                raise IntegrationError(f"non-finite state at t={t}")
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.125))
        else:
            factor = max(0.2, 0.9 * err ** -0.125)
        h = h * factor
    return y
