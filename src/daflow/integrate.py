"""Explicit Runge-Kutta integration over duck-typed state algebras.

One integrator serves plain float vectors, batches of particles,
polynomial states (:class:`~daflow.algebra.DAScalar` arrays), and
heterogeneous bundles (:class:`Stacked`).  Two methods are provided:

- ``rk4_fixed``, classic RK4 in fixed steps, runs on the state's own
  arithmetic, so the state only has to support ``a + b`` and
  ``scalar * a``.
- ``rk78_adaptive``, the Fehlberg 7(8) embedded adaptive pair, holds its
  error estimate within the spec's ``tolerance``.  It reads the state's
  float leaves: a float array, a ``DAScalar``'s coefficient block, and
  each part of a ``Stacked``, laid end to end in one flat vector.  It
  forms every stage from one flat block of stage derivatives, into one
  buffer that a state of the state's own type views.  An attempt that
  overflows is rejected and retried with a shorter step, without a
  floating-point warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DAScalar

__all__ = ["IntegratorSpec", "IntegrationError", "Stacked", "integrate"]

METHODS = ("rk4_fixed", "rk78_adaptive")
TOLERANCE = 1e-10  # rk78_adaptive's default relative and absolute error tolerance
MAX_STEPS = 1_000_000  # steps (rk4_fixed) or attempts (rk78_adaptive) per call


class IntegrationError(RuntimeError):
    """Integration failed: divergence, step collapse, or step budget hit."""


@dataclass(frozen=True)
class IntegratorSpec:
    """Integrator selection.  rk4_fixed splits the span into
    ceil(span/step_size) equal steps, so the last step lands exactly on the
    endpoint, and takes no tolerance; rk78_adaptive holds its error
    estimate within ``tolerance`` (``TOLERANCE`` unless given) and chooses
    its own steps, so it takes no step_size.
    """

    method: str
    step_size: float | None = None
    tolerance: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        # "not > 0" refuses a NaN step or tolerance too
        if self.method == "rk4_fixed":
            if self.step_size is None or not self.step_size > 0:
                raise ValueError("rk4_fixed requires step_size > 0")
            if self.tolerance is not None:
                raise ValueError("rk4_fixed takes no tolerance; its steps are fixed")
            return
        if self.step_size is not None:
            raise ValueError("rk78_adaptive takes no step_size; it chooses its own steps")
        if self.tolerance is None:
            object.__setattr__(self, "tolerance", TOLERANCE)
        elif not 0 < self.tolerance < math.inf:
            raise ValueError(f"rk78_adaptive requires 0 < tolerance < inf, got {self.tolerance}")


class Stacked:
    """Fixed-shape bundle of states integrated as one ODE state.

    Parts may be float arrays, polynomial arrays or ``Stacked`` bundles;
    elementwise add and scalar multiply, which RK4 uses, distribute over
    the parts.
    """

    __slots__ = ("parts",)

    def __init__(self, *parts):
        self.parts = parts

    # the parts as lists: unpacking a generator costs more per op, and an
    # RK4 step makes 13 of these ops
    def __add__(self, other):
        return Stacked(*[p + q for p, q in zip(self.parts, other.parts)])

    def __mul__(self, s):
        return Stacked(*[s * p for p in self.parts])

    __rmul__ = __mul__

    def __repr__(self):
        return f"<Stacked {len(self.parts)} parts>"


def _leaves(y) -> list:
    """The float leaves of a state, in order, each as ``(array, stride)``:
    a float array with stride 1, a ``DAScalar``'s coefficient block with
    stride the basis size, and each part of a ``Stacked``, taken
    recursively.  ``array.ravel()[::stride]`` are the leaf's leading
    values: its constant column for a polynomial leaf, every value
    otherwise."""
    if isinstance(y, Stacked):
        return [leaf for p in y.parts for leaf in _leaves(p)]
    if isinstance(y, DAScalar):
        return [(y.coeffs, y.coeffs.shape[-1])]
    return [(np.asarray(y), 1)]


def _rebuild(like, values):
    """The state of ``like``'s type and structure whose leaves, in
    :func:`_leaves` order, are the next flat arrays of ``values``."""
    if isinstance(like, Stacked):
        return Stacked(*[_rebuild(p, values) for p in like.parts])
    if isinstance(like, DAScalar):
        return DAScalar(like.ctx, next(values).reshape(like.coeffs.shape))
    return next(values).reshape(np.shape(like))


def _state_finite(y) -> bool:
    for a, _ in _leaves(y):
        if not np.isfinite(a).all():
            return False
    return True


def integrate(rhs, y0, t0: float, t1: float, spec: IntegratorSpec):
    """Approximate y(t1) for y' = rhs(y, t), y(t0) = y0."""
    if t1 < t0:
        raise ValueError(f"t1={t1} must be >= t0={t0}")
    if t1 == t0:
        return y0
    if spec.method == "rk4_fixed":
        return _rk4(rhs, y0, t0, t1, spec)
    return _rk78(rhs, y0, t0, t1, spec.tolerance)


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
# A is zero-padded to (13, 13): stage s reads its row's first s entries
_A = np.array([row + [0] * (13 - len(row)) for row in [
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
]])
_B7 = np.array([41/840, 0, 0, 0, 0, 34/105, 9/35, 9/35, 9/280, 9/280, 41/840, 0, 0])
_B8 = np.array([0, 0, 0, 0, 0, 34/105, 9/35, 9/35, 9/280, 9/280, 0, 41/840, 41/840])
_E = _B8 - _B7  # weights of the 8th- minus the 7th-order solution


def _rk78(rhs, y0, t0, t1, tol):
    """Fehlberg 7(8) on the float leaves of the state, laid end to end in
    one flat vector.  One (13, size) stage block K holds every stage
    derivative; each stage state is one weighted sum over it, written into
    one buffer whose leaf views form a state of ``y0``'s type, built once,
    which ``rhs`` sees at every stage after the first.  The solution and
    the error estimate are one product each.

    An attempt runs under ``np.errstate(over="ignore", invalid="ignore")``:
    a long first step may overflow in a late stage, and the finiteness
    checks, not a warning, decide whether the attempt is rejected or the
    integration fails."""
    leaves = _leaves(y0)
    ends = np.cumsum([a.size for a, _ in leaves])
    bounds = list(zip([0, *ends[:-1]], ends))
    # the leading values of the flat vector, where the error is measured
    lead = np.concatenate([np.arange(lo, hi, stride)
                           for (lo, hi), (_, stride) in zip(bounds, leaves)])
    if len(lead) == ends[-1]:  # every value leads: read them in place
        lead = slice(None)
    values = np.concatenate([a.ravel() for a, _ in leaves], dtype=float)  # y, flat
    block = np.empty((13, values.size))
    buf = np.empty(values.size)
    stage = _rebuild(y0, (buf[lo:hi] for lo, hi in bounds))
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

        ha = h * _A
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(13):
                if s:
                    np.add(values, ha[s, :s] @ block[:s], out=buf)
                k = rhs(stage if s else y, t + _C[s] * h)
                # copied out at once: the next stage overwrites the buffer,
                # which an rhs may return as it is
                np.concatenate([a.ravel() for a, _ in _leaves(k)], out=block[s])

            y8 = values + (h * _B8) @ block
            # error estimate of the 7th- vs 8th-order solutions at the
            # leading values; np.max, unlike max(), passes a NaN on
            ref = np.maximum(np.abs(values[lead]), np.abs(y8[lead]))
            err = float(np.max(np.abs(((h * _E) @ block)[lead]) / (tol + tol * ref)))
        # k1 = rhs(y, t) does not depend on h, so a smaller step cannot
        # mend it; later stages may overflow on a long step and are retried
        if not math.isfinite(err) and not np.isfinite(block[0]).all():
            raise IntegrationError(f"non-finite right-hand side at t={t}")

        if err <= 1.0:
            values = y8
            y = _rebuild(y0, (y8[lo:hi] for lo, hi in bounds))
            t = t + h
            if not np.isfinite(y8).all():
                raise IntegrationError(f"non-finite state at t={t}")
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.125))
        else:
            factor = max(0.2, 0.9 * err ** -0.125)
        h = h * factor
    return y
