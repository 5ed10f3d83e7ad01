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


def _infinite_coefficient():
    # the slope coefficient doubles past the float range; error control reads
    # constant parts only, so the step is accepted and the finiteness check trips
    ctx = da.AlgebraContext(1, 1)
    huge = da.DAScalar(ctx, np.array([0.0, 1e308]))
    return integrate(lambda y, t: huge, huge, 0.0, 1.0, RK78)


@pytest.mark.parametrize("run,expected,match", [
    (lambda: repr(Stacked(np.zeros(2), np.zeros(3))), "<Stacked 2 parts>", None),
    (lambda: integrate(lambda y, t: y * np.nan, np.array([1.0]), 0.0, 1.0, RK78),
     IntegrationError, "rk78_adaptive step size collapsed"),
    (_infinite_coefficient, IntegrationError, r"non-finite state at t=1\.0"),
], ids=["stacked-repr", "rk78-nan-collapses", "rk78-accepts-infinite-coefficient"])
def test_edge_paths(run, expected, match):
    """Stacked's repr, and the two RK7(8) failures: an exception type and
    message, or a value."""
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

    def test_loose_tolerance_is_less_accurate(self, monkeypatch):
        def ho(y, t):
            return np.array([y[1], -y[0]])

        y_tight = integrate(ho, np.array([1.0, 0.0]), 0.0, 20.0, RK78)
        monkeypatch.setattr(INTEGRATE, "TOLERANCE", 1e-4)
        y_loose = integrate(ho, np.array([1.0, 0.0]), 0.0, 20.0, RK78)
        exact = np.array([math.cos(20.0), -math.sin(20.0)])
        assert np.abs(y_tight - exact).max() < np.abs(y_loose - exact).max()
        assert np.abs(y_tight - exact).max() < 1e-9

    def test_max_steps_guard(self, monkeypatch):
        monkeypatch.setattr(INTEGRATE, "MAX_STEPS", 3)

        def ho(y, t):
            return np.array([y[1], -y[0]])

        with pytest.raises(IntegrationError, match="max_steps"):
            integrate(ho, np.array([1.0, 0.0]), 0.0, 100.0, RK78)


class TestGenericStates:
    def test_polynomial_state_linear_flow(self):
        # y' = y with initial polynomial 1 + d: solution e^t (1 + d)
        ctx = da.AlgebraContext(1, 3)
        y0 = da.identity_map(ctx, [1.0]).components
        y = integrate(exponential, y0, 0.0, 1.0, RK4)
        assert abs(y[0].constant - math.e) < 1e-8
        assert abs(y[0].terms[(1,)] - math.e) < 1e-8

    def test_polynomial_state_matches_shifted_real_integration(self):
        # evaluating the polynomial solution at a deviation reproduces the
        # real integration started from the shifted initial condition
        def logistic(y, t):
            return y - 0.25 * y * y

        ctx = da.AlgebraContext(1, 6)
        ypoly = integrate(logistic, da.identity_map(ctx, [0.8]).components,
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
        y0 = da.identity_map(ctx, [1.0]).components
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
