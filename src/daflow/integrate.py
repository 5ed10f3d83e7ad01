"""Explicit Runge-Kutta integration over duck-typed state algebras.

One integrator serves plain float vectors, batches of particles,
polynomial states (:class:`~daflow.algebra.DAScalar` arrays), and
heterogeneous bundles (:class:`Stacked`).  Both methods read the state's
float leaves: a float array, a ``DAScalar``'s coefficient block, and each
part of a ``Stacked``, laid end to end in one flat vector, and hand the
right-hand side a state of the state's own type built on it.

- ``dop853``, the Dormand-Prince 8(5,3) embedded adaptive pair, holds its
  error estimate within the spec's ``tolerance``.  It takes 12 new
  right-hand sides per attempt, reusing the derivative at the end of an
  accepted step as the next step's first stage.  It forms every stage
  from one flat block of stage derivatives, into one buffer that a state
  of the state's own type views, all in one workspace per call.  An
  attempt that overflows is rejected and retried with a shorter step,
  without a floating-point warning.  Every integration of the library
  runs it.
- ``rk4_fixed``, classic RK4 in fixed steps, is the fixed-step reference
  that tests hold ``dop853`` and the flow against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DAScalar

__all__ = ["IntegratorSpec", "IntegrationError", "Stacked", "integrate"]

METHODS = ("rk4_fixed", "dop853")
TOLERANCE = 1e-10  # dop853's default relative and absolute error tolerance
MAX_STEPS = 1_000_000  # steps (rk4_fixed) or attempts (dop853) per call


class IntegrationError(RuntimeError):
    """Integration failed: divergence, step collapse, or step budget hit."""


@dataclass(frozen=True)
class IntegratorSpec:
    """Integrator selection.  rk4_fixed splits the span into
    ceil(span/step_size) equal steps, so the last step lands exactly on the
    endpoint, and takes no tolerance; dop853 holds its error
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
            raise ValueError("dop853 takes no step_size; it chooses its own steps")
        if self.tolerance is None:
            object.__setattr__(self, "tolerance", TOLERANCE)
        elif not 0 < self.tolerance < math.inf:
            raise ValueError(f"dop853 requires 0 < tolerance < inf, got {self.tolerance}")


class Stacked:
    """Fixed-shape bundle of states integrated as one ODE state.

    Parts may be float arrays, polynomial arrays or ``Stacked`` bundles;
    the integrators read and rebuild them through their float leaves.
    """

    __slots__ = ("parts",)

    def __init__(self, *parts):
        self.parts = parts

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


def _flat(y) -> np.ndarray:
    """The float leaves of a state laid end to end in one new flat vector."""
    return np.concatenate([a.ravel() for a, _ in _leaves(y)], dtype=float)


def _bounds(leaves) -> list:
    """The ``(lo, hi)`` slice of each leaf in the flat vector."""
    ends = np.cumsum([a.size for a, _ in leaves])
    return list(zip([0, *ends[:-1]], ends))


def integrate(rhs, y0, t0: float, t1: float, spec: IntegratorSpec):
    """Approximate y(t1) for y' = rhs(y, t), y(t0) = y0."""
    if t1 < t0:
        raise ValueError(f"t1={t1} must be >= t0={t0}")
    if t1 == t0:
        return y0
    if spec.method == "rk4_fixed":
        return _rk4(rhs, y0, t0, t1, spec)
    return _dop853(rhs, y0, t0, t1, spec.tolerance)


def _rk4(rhs, y0, t0, t1, spec):
    """Classic RK4 on the flat vector of the state's float leaves; each
    stage state is a new state of ``y0``'s type on the stage's values."""
    span = t1 - t0
    n = max(1, math.ceil(span / spec.step_size - 1e-12))
    if n > MAX_STEPS:
        raise IntegrationError(
            f"rk4_fixed needs {n} steps, exceeding max_steps={MAX_STEPS}"
        )
    h = span / n
    bounds = _bounds(_leaves(y0))

    def state(values):
        return _rebuild(y0, (values[lo:hi] for lo, hi in bounds))

    y = y0
    values = _flat(y0)
    for i in range(n):
        t = t0 + i * h
        k1 = _flat(rhs(y, t))
        k2 = _flat(rhs(state(values + (h / 2) * k1), t + h / 2))
        k3 = _flat(rhs(state(values + (h / 2) * k2), t + h / 2))
        k4 = _flat(rhs(state(values + h * k3), t + h))
        values = values + (h / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(values).all():
            raise IntegrationError(f"non-finite state at t={t + h}")
        y = state(values)
    return y


# Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, Solving ODEs I, II.10;
# dop853.f): 12 stages, the 8th-order solution propagated, and two embedded
# error estimates, of 5th and 3rd order.  The derivative at the step's end
# is the next step's first stage ("first same as last"); no weight reads it.
_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])
# A is zero-padded to (12, 12): stage s reads its row's first s entries
_A = np.zeros((12, 12))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
_A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
                    9.24834003261792003115737966543e-1]
_A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
                    1.25467687566822425016691814123e-1]
_A[6, [0, 3, 4, 5]] = [3.7109375e-2, 1.70252211019544039314978060272e-1,
                       6.02165389804559606850219397283e-2, -1.7578125e-2]
_A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3]
_A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1]
_B = np.zeros(12)
_B[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2]
# the 8th- minus the 3rd-order solution's weights, and the 5th-order estimate's
_E3 = _B.copy()
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]
_E5 = np.zeros(12)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]
_E53 = np.array([_E5, _E3])  # both estimates from one product


def _dop853(rhs, y0, t0, t1, tol):
    """Dormand-Prince 8(5,3) on the float leaves of the state, laid end to
    end in one flat vector.  One (15, size) workspace, allocated once per
    call, holds every array the call writes: the 12 stage derivatives
    (rows 0-11), the derivative at the attempt's end (row 12), one stage
    buffer (row 13) and the accepted values (row 14).  Each stage state is
    one weighted sum over the stage rows, written into the buffer, whose
    leaf views form a state of ``y0``'s type, built once, which ``rhs``
    sees at every evaluation after the first.

    Each attempt evaluates 11 stages and the derivative at its end, 12
    right-hand sides; the first attempt also evaluates ``rhs(y0, t0)``.  A
    rejected attempt keeps its first stage, and an accepted one hands the
    derivative at its end on as the next first stage.  The error is
    err5^2 / sqrt(err5^2 + 0.01 err3^2) of the 5th- and 3rd-order
    estimates' largest scaled entries at the leading values.

    Every evaluation runs under ``np.errstate(over="ignore",
    invalid="ignore")``: a long first step may overflow in a late stage,
    and the finiteness checks, not a warning, decide whether the attempt
    is rejected or the integration fails.  The returned state views a copy
    of the values, not the workspace."""
    leaves = _leaves(y0)
    bounds = _bounds(leaves)
    # the leading values of the flat vector, where the error is measured
    lead = np.concatenate([np.arange(lo, hi, stride)
                           for (lo, hi), (_, stride) in zip(bounds, leaves)])
    if len(lead) == bounds[-1][1]:  # every value leads: read them in place
        lead = slice(None)
    work = np.empty((15, bounds[-1][1]))
    block, end, buf, values = work[:12], work[12], work[13], work[14]
    stage = _rebuild(y0, (buf[lo:hi] for lo, hi in bounds))

    def derivative(y, t, out):
        # copied out at once: the next evaluation overwrites the buffer,
        # which an rhs may return as it is
        np.concatenate([a.ravel() for a, _ in _leaves(rhs(y, t))], out=out)

    np.concatenate([a.ravel() for a, _ in leaves], out=values)
    with np.errstate(over="ignore", invalid="ignore"):
        derivative(y0, t0, block[0])
    t = t0
    h = t1 - t0
    attempts = 0
    tiny = 1e-14 * (t1 - t0)
    while t < t1 - tiny:
        h = min(h, t1 - t)
        if h < tiny:
            raise IntegrationError("dop853 step size collapsed")
        if attempts >= MAX_STEPS:
            raise IntegrationError(f"dop853 exceeded max_steps={MAX_STEPS}")
        attempts += 1

        ha = h * _A
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(1, 12):
                np.matmul(ha[s, :s], block[:s], out=buf)
                buf += values
                derivative(stage, t + _C[s] * h, block[s])
            np.matmul(h * _B, block, out=buf)
            buf += values  # the 8th-order solution
            derivative(stage, t + h, end)
            # np.max, unlike max(), passes a NaN on
            scale = tol + tol * np.maximum(np.abs(values[lead]), np.abs(buf[lead]))
            err5, err3 = np.max(np.abs(((h * _E53) @ block)[:, lead]) / scale, axis=1)
            denominator = float(err5 * err5 + 0.01 * err3 * err3)
            err = 0.0 if denominator == 0.0 else float(err5 * err5) / math.sqrt(denominator)
        # the first stage does not depend on h, so a smaller step cannot
        # mend it; later stages may overflow on a long step and are retried
        if not math.isfinite(err) and not np.isfinite(block[0]).all():
            raise IntegrationError(f"non-finite right-hand side at t={t}")

        if err <= 1.0:
            t = t + h
            if not np.isfinite(buf).all():
                raise IntegrationError(f"non-finite state at t={t}")
            values[:] = buf
            block[0] = end
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.125))
        else:
            factor = max(0.2, 0.9 * err ** -0.125)
        h = h * factor
    out = values.copy()
    return _rebuild(y0, (out[lo:hi] for lo, hi in bounds))
