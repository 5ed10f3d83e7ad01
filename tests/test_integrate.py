import importlib
import math

import numpy as np
import pytest

import daflow.algebra as da
from daflow.integrate import IntegrationError, IntegratorSpec, Stacked, integrate

# the package exports the function integrate under the module's name
INTEGRATE = importlib.import_module("daflow.integrate")
RK4 = IntegratorSpec("rk4_fixed", step_size=0.01)
RK78 = IntegratorSpec("rk78_adaptive")


def exponential(y, t):
    return y


class TestSpecValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            IntegratorSpec("euler")

    def test_rk4_needs_step(self):
        with pytest.raises(ValueError, match="step_size"):
            IntegratorSpec("rk4_fixed")
        with pytest.raises(ValueError, match="step_size"):
            IntegratorSpec("rk4_fixed", step_size=-0.1)
        with pytest.raises(ValueError, match="step_size"):
            IntegratorSpec("rk4_fixed", step_size=float("nan"))

    def test_rk78_takes_no_step(self):
        # an ignored step size would read as a setting that took effect
        with pytest.raises(ValueError, match="rk78_adaptive takes no step_size"):
            IntegratorSpec("rk78_adaptive", step_size=0.01)

    def test_rk4_takes_no_tolerance(self):
        with pytest.raises(ValueError, match="rk4_fixed takes no tolerance"):
            IntegratorSpec("rk4_fixed", step_size=0.01, tolerance=1e-6)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, float("nan"), float("inf")])
    def test_rk78_needs_a_positive_finite_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            IntegratorSpec("rk78_adaptive", tolerance=tolerance)

    def test_rk78_tolerance_defaults_to_module_tolerance(self):
        assert IntegratorSpec("rk78_adaptive").tolerance == INTEGRATE.TOLERANCE
        assert IntegratorSpec("rk78_adaptive", tolerance=1e-6).tolerance == 1e-6


def _infinite_coefficient(bundle=lambda poly: poly):
    # the slope coefficient doubles past the float range; error control reads
    # constant parts only, so the step is accepted and the finiteness check trips
    ctx = da.AlgebraContext(1, 1)
    huge = bundle(da.DAScalar(ctx, np.array([0.0, 1e308])))
    return integrate(lambda y, t: huge, huge, 0.0, 1.0, RK78)


def _nan_rhs(y0, nan_of):
    # the first attempt's error estimate is NaN: one attempt, 13 stages
    calls = []

    def rhs(y, t):
        calls.append(t)
        return nan_of(y)

    try:
        integrate(rhs, y0, 0.0, 1.0, RK78)
    finally:
        assert len(calls) == 13


def _stacked_nan_rhs():
    # NaN in the float matrix only: error control reads all of its values
    ctx = da.AlgebraContext(2, 3)
    y0 = Stacked(da.identity_map(ctx, [1.0, 2.0]), np.eye(2))
    _nan_rhs(y0, lambda s: Stacked(s.parts[0], s.parts[1] * np.nan))


@pytest.mark.parametrize("run,expected,match", [
    (lambda: repr(Stacked(np.zeros(2), np.zeros(3))), "<Stacked 2 parts>", None),
    (lambda: _nan_rhs(np.array([1.0]), lambda y: y * np.nan),
     IntegrationError, r"non-finite right-hand side at t=0\.0"),
    (_stacked_nan_rhs, IntegrationError, r"non-finite right-hand side at t=0\.0"),
    (lambda: integrate(lambda y, t: -1e15 * y, np.array([1.0]), 0.0, 1.0, RK78),
     IntegrationError, "rk78_adaptive step size collapsed"),
    (_infinite_coefficient, IntegrationError, r"non-finite state at t=1\.0"),
    (lambda: _infinite_coefficient(lambda poly: Stacked(poly, np.zeros((2, 2)))),
     IntegrationError, r"non-finite state at t=1\.0"),
], ids=["stacked-repr", "rk78-nan-rhs", "rk78-stacked-nan-rhs", "rk78-stiff-collapses",
        "rk78-accepts-infinite-coefficient", "rk78-stacked-accepts-infinite-coefficient"])
def test_edge_paths(run, expected, match):
    """Stacked's repr, and the RK7(8) failures, on plain and ``Stacked``
    states: an exception type and message, or a value."""
    if match is None:
        assert run() == expected
        return
    # the overflow and NaN are the point here; warnings are errors in tier-1
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(expected, match=match):
        run()


class TestRK4:
    def test_exponential(self):
        y = integrate(exponential, np.array([1.0]), 0.0, 1.0, RK4)
        assert abs(y[0] - math.e) < 1e-8

    def test_halving_reduces_error_sixteenfold(self):
        half = IntegratorSpec("rk4_fixed", step_size=0.005)
        e1 = abs(integrate(exponential, np.array([1.0]), 0.0, 1.0, RK4)[0] - math.e)
        e2 = abs(integrate(exponential, np.array([1.0]), 0.0, 1.0, half)[0] - math.e)
        assert 12.0 < e1 / e2 < 20.0

    def test_deterministic(self):
        def lorenz_like(y, t):
            return np.array([y[1], -y[0] + 0.1 * y[0] * y[1], y[0] - y[2]])

        y0 = np.array([1.0, -0.5, 0.25])
        a = integrate(lorenz_like, y0, 0.0, 3.0, RK4)
        b = integrate(lorenz_like, y0, 0.0, 3.0, RK4)
        assert np.array_equal(a, b)

    def test_step_count_lands_on_endpoint(self):
        # span not divisible by step: n = ceil(span/step) equal steps
        calls = []

        def rhs(y, t):
            calls.append(t)
            return 0.0 * y

        integrate(rhs, np.array([1.0]), 0.0, 0.25, IntegratorSpec("rk4_fixed", step_size=0.1))
        assert len(calls) == 4 * 3  # ceil(0.25/0.1) = 3 steps, 4 stages each

    def test_max_steps_guard(self, monkeypatch):
        monkeypatch.setattr(INTEGRATE, "MAX_STEPS", 100)
        spec = IntegratorSpec("rk4_fixed", step_size=1e-6)
        with pytest.raises(IntegrationError, match="max_steps"):
            integrate(exponential, np.array([1.0]), 0.0, 1.0, spec)

    def test_nonfinite_detection(self):
        # y' = y^2 blows up at t = 1/y0
        def blowup(y, t):
            return y * y

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError, match="non-finite"):
                integrate(blowup, np.array([1.5]), 0.0, 1.0, RK4)


class TestRK78:
    def test_harmonic_oscillator_period(self):
        def ho(y, t):
            return np.array([y[1], -y[0]])

        y = integrate(ho, np.array([1.0, 0.0]), 0.0, 2.0 * math.pi, RK78)
        assert np.abs(y - [1.0, 0.0]).max() < 1e-8

    def test_loose_tolerance_is_less_accurate(self):
        def ho(y, t):
            return np.array([y[1], -y[0]])

        y_tight = integrate(ho, np.array([1.0, 0.0]), 0.0, 20.0, RK78)
        loose = IntegratorSpec("rk78_adaptive", tolerance=1e-4)
        y_loose = integrate(ho, np.array([1.0, 0.0]), 0.0, 20.0, loose)
        exact = np.array([math.cos(20.0), -math.sin(20.0)])
        assert np.abs(y_tight - exact).max() < np.abs(y_loose - exact).max()
        assert np.abs(y_tight - exact).max() < 1e-9

    def test_max_steps_guard(self, monkeypatch):
        monkeypatch.setattr(INTEGRATE, "MAX_STEPS", 3)

        def ho(y, t):
            return np.array([y[1], -y[0]])

        with pytest.raises(IntegrationError, match="max_steps"):
            integrate(ho, np.array([1.0, 0.0]), 0.0, 100.0, RK78)

    def test_stage_overflow_on_first_attempt_is_retried(self):
        # y' = -y^3, y(0) = 10: y(t) = 1 / sqrt(2 t + 0.01). The first attempt
        # spans all 10 s and its later stages overflow although rhs(y0) is
        # finite; the step is rejected and shrunk, not reported as a NaN RHS,
        # and no overflow warning escapes (the test suite makes it an error)
        y = integrate(lambda y, t: -y ** 3, np.array([10.0]), 0.0, 10.0, RK78)
        assert y[0] == pytest.approx(1.0 / math.sqrt(20.01), rel=1e-8)


    def test_stage_overflow_in_one_leaf_is_retried(self):
        # the same blow-up in the second leaf of a bundle whose first leaf
        # stays finite: the error estimate must pass the second leaf's NaN
        # on, or the first attempt's finite first-leaf error would accept it
        ctx = da.AlgebraContext(1, 2)
        y0 = Stacked(da.identity_map(ctx, [1.0]), np.array([10.0]))
        y = integrate(lambda s, t: Stacked(0.0 * s.parts[0], -s.parts[1] ** 3),
                      y0, 0.0, 10.0, RK78)
        assert y.parts[1][0] == pytest.approx(1.0 / math.sqrt(20.01), rel=1e-8)


def _weighted_sum(terms):
    """sum of (weight, state) pairs, skipping zero weights."""
    acc = None
    for w, k in terms:
        if w == 0.0:
            continue
        wk = w * k
        acc = wk if acc is None else acc + wk
    return acc


def _leading_values(y):
    if isinstance(y, Stacked):
        return np.concatenate([_leading_values(p) for p in y.parts])
    if isinstance(y, da.DAScalar):
        return y.coeffs[..., 0].ravel()
    return np.asarray(y).ravel().astype(float)


def reference_rk78(rhs, y0, t0, t1):
    """The sequential Fehlberg 7(8) step on the state's own ``+`` and
    ``*``: each stage a sum of scaled derivatives, zero weights skipped.
    Same tableau, tolerance and step control as ``integrate``; no failure
    checks."""
    A, B7, B8, C = INTEGRATE._A, INTEGRATE._B7, INTEGRATE._B8, INTEGRATE._C
    t, y, h = t0, y0, t1 - t0
    tiny = 1e-14 * (t1 - t0)
    while t < t1 - tiny:
        h = min(h, t1 - t)
        ks = []
        for s in range(13):
            inc = _weighted_sum(zip(A[s, :s], ks))
            ys = y if inc is None else y + h * inc
            ks.append(rhs(ys, t + C[s] * h))
        y8 = y + h * _weighted_sum(zip(B8, ks))
        diff = h * sum((b8 - b7) * _leading_values(k)
                       for b7, b8, k in zip(B7, B8, ks) if b8 != b7)
        ref = np.maximum(np.abs(_leading_values(y)), np.abs(_leading_values(y8)))
        err = float(np.max(np.abs(diff) / (INTEGRATE.TOLERANCE + INTEGRATE.TOLERANCE * ref)))
        if err <= 1.0:
            y, t = y8, t + h
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.125))
        else:
            factor = max(0.2, 0.9 * err ** -0.125)
        h = h * factor
    return y


def _arrays(y):
    """The float arrays a state is made of."""
    if isinstance(y, Stacked):
        return [a for p in y.parts for a in _arrays(p)]
    return [y.coeffs if isinstance(y, da.DAScalar) else y]


def forced_oscillator(y, t):
    # a damped linear oscillator on the last axis, a quadratic term and a forcing
    M = np.array([[0.0, 1.0], [-1.0, -0.1]])
    return y @ M.T - 0.1 * (y * y) + 0.1 * math.cos(t)


def oscillator_with_information(s, t):
    # the matrix part grows with the polynomial part's constant, as the
    # flow's information grows with H at the running mean
    x, J = s.parts
    c = x.constant
    return Stacked(forced_oscillator(x, t), np.outer(c, c) - 0.3 * J)


_POLY = da.identity_map(da.AlgebraContext(2, 4), [1.0, 0.5])


class TestRK78AgainstReference:
    @pytest.mark.parametrize("rhs,y0", [
        (forced_oscillator, np.array([1.0, 0.5])),
        (forced_oscillator, np.random.default_rng(3).normal(size=(6, 2))),
        (forced_oscillator, _POLY),
        (oscillator_with_information, Stacked(_POLY, np.eye(2))),
    ], ids=["vector", "batch", "polynomial", "stacked"])
    def test_stage_block_matches_sequential_step(self, rhs, y0):
        # the stage block sums in another order than the sequential step,
        # so the two states agree to rounding
        calls = {"block": [], "reference": []}

        def recorded(name):
            def f(y, t):
                calls[name].append(t)
                return rhs(y, t)
            return f

        got = integrate(recorded("block"), y0, 0.0, 3.0, RK78)
        want = reference_rk78(recorded("reference"), y0, 0.0, 3.0)
        assert type(got) is type(want)
        scale = max(np.abs(a).max() for a in _arrays(want))
        for g, w in zip(_arrays(got), _arrays(want), strict=True):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-14 * scale
        # the same attempts, rejections at the same places: a rejected
        # attempt's retry starts at the same t
        block, reference = calls["block"], calls["reference"]
        assert len(block) == len(reference)
        rejected = [[a == b for a, b in zip(ts[::13], ts[13::13])] for ts in (block, reference)]
        assert rejected[0] == rejected[1] and any(rejected[0])
        # the first attempt spans the whole interval in both; later step sizes
        # follow error estimates that cancel four stages, which amplifies
        # the rounding of the two sums to about 1e-8 relative
        assert block[:13] == reference[:13]
        np.testing.assert_allclose(block, reference, rtol=1e-7, atol=0)


class TestRK78StageBuffer:
    """Every stage after the first hands ``rhs`` views of one buffer that
    the next stage overwrites."""

    @pytest.mark.parametrize("y0", [
        np.array([1.0, -0.5]), _POLY, Stacked(_POLY, np.eye(2)),
    ], ids=["vector", "polynomial", "stacked"])
    def test_rhs_that_returns_its_argument(self, y0):
        # y' = y: each stage derivative is the stage buffer itself
        got = integrate(lambda y, t: y, y0, 0.0, 1.0, RK78)
        want = reference_rk78(lambda y, t: y, y0, 0.0, 1.0)
        for g, w, a in zip(_arrays(got), _arrays(want), _arrays(y0), strict=True):
            np.testing.assert_allclose(g, w, rtol=1e-14, atol=0)
            np.testing.assert_allclose(g, math.e * a, rtol=1e-9, atol=0)

    def test_rhs_that_keeps_its_argument(self):
        kept = []

        def rhs(s, t):
            kept.append(s)
            return oscillator_with_information(s, t)

        y0 = Stacked(_POLY, np.eye(2))
        got = integrate(rhs, y0, 0.0, 3.0, RK78)
        want = reference_rk78(oscillator_with_information, y0, 0.0, 3.0)
        for g, w in zip(_arrays(got), _arrays(want), strict=True):
            assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()
        # stage 0 reads the step's start, every later stage the buffer
        assert len(kept) % 13 == 0 and kept[1] is kept[2]
        for g in _arrays(got):
            assert not any(np.shares_memory(g, a) for a in _arrays(kept[1]))


class TestGenericStates:
    def test_polynomial_state_linear_flow(self):
        # y' = y with initial polynomial 1 + d: solution e^t (1 + d)
        ctx = da.AlgebraContext(1, 3)
        y0 = da.identity_map(ctx, [1.0])
        y = integrate(exponential, y0, 0.0, 1.0, RK4)
        assert abs(y[0].constant - math.e) < 1e-8
        assert abs(y[0].terms[(1,)] - math.e) < 1e-8

    def test_polynomial_state_matches_shifted_real_integration(self):
        # evaluating the polynomial solution at a deviation reproduces the
        # real integration started from the shifted initial condition
        def logistic(y, t):
            return y - 0.25 * y * y

        ctx = da.AlgebraContext(1, 6)
        ypoly = integrate(logistic, da.identity_map(ctx, [0.8]),
                          0.0, 1.5, RK4)
        for dev in (0.05, -0.08, 0.12):
            shifted = integrate(logistic, np.array([0.8 + dev]), 0.0, 1.5, RK4)
            assert abs(da.evaluate(ypoly[0], [dev]) - shifted[0]) < 1e-8

    def test_particle_batch(self):
        y0 = np.array([[1.0], [2.0], [-0.5]])
        y = integrate(exponential, y0, 0.0, 1.0, RK4)
        np.testing.assert_allclose(y[:, 0], y0[:, 0] * math.e, rtol=1e-8)

    def test_stacked_state(self):
        s0 = Stacked(np.array([1.0]), np.eye(2))

        def rhs(s, t):
            return Stacked(s.parts[0], -s.parts[1])

        out = integrate(rhs, s0, 0.0, 1.0, RK4)
        assert abs(out.parts[0][0] - math.e) < 1e-8
        assert abs(out.parts[1][0, 0] - math.exp(-1.0)) < 1e-8

    def test_polynomial_state_rk78(self):
        ctx = da.AlgebraContext(1, 2)
        y0 = da.identity_map(ctx, [1.0])
        y = integrate(exponential, y0, 0.0, 1.0, RK78)
        assert abs(y[0].constant - math.e) < 1e-9


class TestEndpoints:
    def test_zero_span_returns_input(self):
        y0 = np.array([1.0, 2.0])
        assert integrate(exponential, y0, 2.0, 2.0, RK4) is y0

    def test_backward_rejected(self):
        with pytest.raises(ValueError, match="t1"):
            integrate(exponential, np.array([1.0]), 1.0, 0.0, RK4)

    def test_one_step_when_step_exceeds_span(self):
        calls = []

        def rhs(y, t):
            calls.append(t)
            return y

        integrate(rhs, np.array([1.0]), 0.0, 0.02,
                  IntegratorSpec("rk4_fixed", step_size=1.0))
        assert len(calls) == 4
