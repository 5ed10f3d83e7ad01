import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import daflow.algebra as da
import daflow.filter as dfilter
import daflow.flow as dflow
from daflow.filter import (
    DynamicsModel,
    FilterConfig,
    FilterState,
    baseline_pff_step,
    build_stpm,
    daruff_step,
    ensemble_stats,
    spread_correction,
)
from daflow.flow import (
    Ensemble,
    GaussianBelief,
    LambdaSchedule,
    build_flow_map,
    geometric_schedule,
)
from daflow.integrate import IntegratorSpec, integrate
from daflow import models
from daflow.harness import ScenarioConfig
from test_flow import CONFIGS, kalman_information_update, linear_model, record_integrations

RK4 = IntegratorSpec("rk4_fixed", step_size=0.01)
ONE_STEP = IntegratorSpec("rk4_fixed", step_size=1.0)
DENSE = LambdaSchedule(np.linspace(0.0, 1.0, 201))


def linear_dynamics(A):
    A = np.asarray(A, dtype=float)

    def f(x, t):
        return x @ A.T

    return DynamicsModel(f=f)


@pytest.mark.parametrize("changes,message", [
    ({"order": 0}, "order must be >= 1"),
    ({"meas_period": 0.0}, "meas_period must be positive"),
], ids=["order", "meas_period"])
def test_filter_config_rejects(changes, message):
    with pytest.raises(ValueError, match=message):
        FilterConfig(**{"order": 2, "schedule": DENSE, "meas_period": 1.0, **changes})


class TestBuildStpm:
    def test_zero_dynamics_gives_identity(self):
        dyn = DynamicsModel(f=lambda x, t: 0.0 * x)
        stpm = build_stpm([1.0, -2.0], dyn, 0.0, 1.0, 2, RK4)
        ident = da.identity_map(stpm.ctx, [1.0, -2.0])
        np.testing.assert_allclose(stpm.coeffs, ident.coeffs, atol=1e-15)

    def test_linear_dynamics_matches_matrix_exponential(self):
        rng = np.random.default_rng(0)
        A = 0.5 * rng.normal(size=(3, 3))
        dt = 0.8
        stpm = build_stpm(rng.normal(size=3), linear_dynamics(A), 0.0, dt, 1, RK4)
        slope = stpm.coeffs[:, 1:4]
        np.testing.assert_allclose(slope, expm(A * dt), rtol=1e-8, atol=1e-10)

    def test_constant_part_is_plain_integration(self):
        dyn = models.attitude_dynamics()
        x0 = models.DEFAULT_INITIAL_STATE.as_vector()
        stpm = build_stpm(x0, dyn, 0.0, 2.0, 2, RK4)
        direct = integrate(dyn.f, x0, 0.0, 2.0, RK4)
        np.testing.assert_allclose(stpm.constant, direct, rtol=1e-12)

    def test_adaptive_attitude_map_against_fine_reference(self):
        # rk78_adaptive controls its error on constant parts only, so pin
        # every coefficient of the attitude STPM, and a particle batch,
        # against fine-step RK4 over one 2 s epoch.  Truncated arithmetic
        # commutes with truncation and graded-lex bases nest, so the order-3
        # reference's leading coefficients are the order-1 and order-2
        # references too.
        rng = np.random.default_rng(5)
        dyn = models.attitude_dynamics()
        fine = IntegratorSpec("rk4_fixed", step_size=1e-3)
        adaptive = IntegratorSpec("rk78_adaptive")
        x0 = models.DEFAULT_INITIAL_STATE.as_vector()
        draws = rng.multivariate_normal(x0, models.INITIAL_STATE_COV, size=2)
        for center in [x0, *models.normalize_quaternion_block(draws)]:
            ref = build_stpm(center, dyn, 0.0, 2.0, 3, fine).coeffs
            scale = np.abs(ref).max(axis=1)
            for order in (1, 2, 3):
                got = build_stpm(center, dyn, 0.0, 2.0, order, adaptive).coeffs
                err = np.abs(got - ref[:, :got.shape[1]]).max(axis=1) / scale
                # at most 1.7e-11, 4.0e-10 and 6.9e-9 at orders 1, 2 and 3;
                # 1e-7 is still four orders of magnitude below the order-2
                # map's own truncation error, 6.9e-3 at the initial spread
                assert err.max() < 1e-7, (order, err.max())
        particles = rng.multivariate_normal(x0, models.INITIAL_STATE_COV, size=2500)
        got = integrate(dyn.f, particles, 0.0, 2.0, adaptive)
        ref = integrate(dyn.f, particles, 0.0, 2.0, fine)
        assert np.abs(got - ref).max() < 1e-10  # 3.3e-12

    def test_attitude_epoch_takes_one_attempt(self, monkeypatch):
        # the tracer counts RK7(8) attempts off the rhs t values
        cfg = ScenarioConfig.from_json(CONFIGS / "attitude.json")
        calls = record_integrations(monkeypatch, dfilter)
        build_stpm(models.DEFAULT_INITIAL_STATE.as_vector(), models.attitude_dynamics(),
                   0.0, cfg.meas_period, cfg.order, dfilter.DYNAMICS_SPEC)
        [(t0, t1, ts)] = calls
        assert (t0, t1, len(ts), ts[0]) == (0.0, cfg.meas_period, 13, 0.0)

    def test_requires_forward_interval(self):
        dyn = DynamicsModel(f=lambda x, t: x)
        with pytest.raises(ValueError, match="t1 > t0"):
            build_stpm([1.0], dyn, 1.0, 1.0, 1, RK4)


class TestPropagateEnsembleMap:
    """Particles move by the state-transition map evaluated at their
    deviations from its center."""

    def test_center_particle_moves_to_constant_part(self):
        dyn = linear_dynamics([[0.0, 1.0], [-1.0, 0.0]])
        center = np.array([1.0, 0.0])
        stpm = build_stpm(center, dyn, 0.0, 0.5, 2, RK4)
        out = da.evaluate_many(stpm, np.zeros((2, 2)))
        np.testing.assert_allclose(out[0], stpm.constant, rtol=1e-14)

    def test_identity_map_keeps_ensemble(self):
        ctx = da.AlgebraContext(2, 2)
        stpm = da.identity_map(ctx, [0.5, -0.5])
        parts = np.random.default_rng(1).normal(size=(6, 2))
        out = da.evaluate_many(stpm, parts - [0.5, -0.5])
        np.testing.assert_allclose(out, parts, atol=1e-14)

    def test_attitude_short_step_accuracy(self):
        # order-2 map over 0.1 s against direct integration of the same
        # particles, deviations at 3x the sensor noise scales
        rng = np.random.default_rng(2)
        dyn = models.attitude_dynamics()
        x0 = models.DEFAULT_INITIAL_STATE.as_vector()
        sigma = np.array([0.01] * 4 + [models.GYRO_NOISE_SIGMA] * 6)
        devs = 3.0 * sigma * rng.standard_normal((200, 10))
        stpm = build_stpm(x0, dyn, 0.0, 0.1, 2, RK4)
        mapped = da.evaluate_many(stpm, devs)
        direct = integrate(dyn.f, x0 + devs, 0.0, 0.1, RK4)
        rms = np.sqrt(np.mean((mapped - direct) ** 2, axis=0))
        assert rms.max() < 1e-6


class TestFlowFromStpm:
    """The flow started from the dynamics map is the epoch's one map from
    pre-propagation deviations to posterior states."""

    def test_zero_information_flow_keeps_stpm(self):
        # H = 0: the drift vanishes, so the flow returns its start map
        dyn = linear_dynamics([[0.0, 1.0], [-0.5, 0.0]])
        stpm = build_stpm([1.0, 2.0], dyn, 0.0, 0.7, 3, RK4)
        prior = GaussianBelief(stpm.constant, np.eye(2))
        combined = build_flow_map(prior, linear_model(np.zeros((1, 2)), [[0.25]]), [0.7],
                                  DENSE, stpm, ONE_STEP)
        np.testing.assert_allclose(combined.coeffs, stpm.coeffs, atol=1e-13)

    def test_sequential_evaluation_oracle(self):
        rng = np.random.default_rng(3)
        dyn = models.attitude_dynamics()
        model = models.stacked_measurement()
        x0 = models.normalize_quaternion_block(
            models.DEFAULT_INITIAL_STATE.as_vector() + 0.01 * rng.standard_normal(10))
        stpm = build_stpm(x0, dyn, 0.0, 2.0, 2, RK4)
        prior = GaussianBelief(stpm.constant, models.INITIAL_STATE_COV)
        truth_meas = model.h(stpm.constant)
        schedule = geometric_schedule(0.001, 50)
        fmap = build_flow_map(prior, model, truth_meas, schedule, 2, ONE_STEP)
        combined = build_flow_map(prior, model, truth_meas, schedule, stpm, ONE_STEP)
        for _ in range(100):
            d = 0.005 * rng.standard_normal(10)
            sequential = da.evaluate(fmap, da.evaluate(stpm, d) - stpm.constant)
            np.testing.assert_allclose(da.evaluate(combined, d), sequential,
                                       rtol=1e-7, atol=1e-9)

    def test_linear_composition_matches_kalman_chain(self):
        rng = np.random.default_rng(4)
        A = 0.3 * rng.normal(size=(2, 2))
        H = rng.normal(size=(1, 2))
        R = [[0.25]]
        x0 = rng.normal(size=2)
        P0 = np.eye(2)
        y = [0.7]
        dt = 1.0

        stpm = build_stpm(x0, linear_dynamics(A), 0.0, dt, 1, RK4)
        phi = expm(A * dt)
        p_minus = phi @ P0 @ phi.T
        prior = GaussianBelief(stpm.constant, p_minus)
        combined = build_flow_map(prior, linear_model(H, R), y, DENSE, stpm, ONE_STEP)
        for _ in range(5):
            d = rng.normal(size=2)
            x_pred = phi @ (x0 + d)
            expected, _ = kalman_information_update(x_pred, p_minus, np.asarray(H), R, y)
            np.testing.assert_allclose(da.evaluate(combined, d), expected,
                                       rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("route", ["map", "ode"])
    def test_track_start_epoch_under_flow_spec(self, route, monkeypatch):
        # the first epoch of a 10 s arc: an estimate one prior draw off the
        # truth, at the initial covariance.  RK7(8)'s first attempt spans
        # all of pseudo-time and is rejected; on the ODE route it overflows
        # at some particles, which must warn nothing.  The call still takes
        # fewer rhs than RK4's 200 on the 50-segment schedule
        cfg = ScenarioConfig.from_json(CONFIGS / "attitude_arc10.json")
        dyn = models.attitude_dynamics()
        model = models.stacked_measurement()
        rng = np.random.default_rng(0)
        truth = models.DEFAULT_INITIAL_STATE.as_vector()
        xhat = models.normalize_quaternion_block(
            truth + rng.multivariate_normal(np.zeros(10), models.INITIAL_STATE_COV))
        y = model.h(integrate(dyn.f, truth, 0.0, cfg.meas_period, dfilter.DYNAMICS_SPEC))
        calls = record_integrations(monkeypatch, dflow)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if route == "map":
                stpm = build_stpm(xhat, dyn, 0.0, cfg.meas_period, cfg.order,
                                  dfilter.DYNAMICS_SPEC)
                prior = GaussianBelief(stpm.constant, models.INITIAL_STATE_COV)
                out = build_flow_map(prior, model, y, cfg.schedule(), stpm,
                                     dfilter.FLOW_SPEC).coeffs
            else:
                cloud = xhat + rng.multivariate_normal(np.zeros(10), models.INITIAL_STATE_COV,
                                                       size=20)
                predicted = integrate(dyn.f, cloud, 0.0, cfg.meas_period,
                                      dfilter.DYNAMICS_SPEC)
                prior = ensemble_stats(Ensemble(predicted))
                out = dflow.flow_ensemble_ode(predicted, prior, model, y, cfg.schedule(),
                                              dfilter.FLOW_SPEC)
        [(t0, t1, ts)] = calls
        starts = ts[::13]
        assert (t0, t1) == (0.0, 1.0) and len(ts) % 13 == 0
        assert any(a == b for a, b in zip(starts, starts[1:]))  # a rejected attempt
        assert len(ts) < 200
        assert np.isfinite(out).all()

    def test_start_not_prior_mean_rejected(self):
        # the start map's constant part must be the prior mean exactly
        stpm = da.identity_map(da.AlgebraContext(2, 2), [1.0, 1.0])
        prior = GaussianBelief([1.0, 1.0 + 1e-12], np.eye(2))
        with pytest.raises(ValueError, match="not the prior mean"):
            build_flow_map(prior, linear_model(np.eye(2), np.eye(2)), [1.0, 1.0],
                           DENSE, stpm, ONE_STEP)


def _map_and_point(name):
    """One way of building a polynomial map on a 2-state problem, and the
    point the map's constant part must hold."""
    x0 = np.array([1.0, -2.0])
    dyn = linear_dynamics([[0.0, 1.0], [-0.5, 0.0]])
    ident = da.identity_map(da.AlgebraContext(2, 2), x0)
    stpm = build_stpm(x0, dyn, 0.0, 0.7, 2, RK4)
    if name == "identity_map":
        return ident, x0
    if name == "build_stpm":
        return stpm, integrate(dyn.f, x0, 0.0, 0.7, RK4)
    if name == "compose":
        return da.compose(stpm, ident), stpm.constant
    prior = GaussianBelief(stpm.constant, np.eye(2))
    model, y = linear_model([[1.0, 0.5]], [[0.25]]), [0.7]
    start = 2 if name == "flow-from-order" else stpm
    return (build_flow_map(prior, model, y, DENSE, start, ONE_STEP),
            dflow.flow_mean_cov(prior, model, y, DENSE, ONE_STEP).mean)


@pytest.mark.parametrize("name", ["identity_map", "build_stpm", "compose",
                                  "flow-from-order", "flow-from-map"])
def test_map_is_polynomial_array(name):
    # a map is its (n,) polynomial array, with no wrapper to unwrap
    fmap, point = _map_and_point(name)
    assert type(fmap) is da.DAScalar and fmap.shape == (2,)
    np.testing.assert_allclose(fmap.constant, point, rtol=1e-12)


class TestEnsembleStats:
    def test_two_particle_convention(self):
        # 1/N normalization, not 1/(N-1)
        stats = ensemble_stats(Ensemble([[-1.0], [1.0]]))
        assert stats.mean[0] == 0.0
        assert stats.cov[0, 0] == 1.0

    def test_identical_particles_zero_cov(self):
        stats = ensemble_stats(Ensemble(np.ones((5, 3))))
        np.testing.assert_array_equal(stats.cov, np.zeros((3, 3)))

    def test_large_sample_standard_normal(self):
        rng = np.random.default_rng(5)
        stats = ensemble_stats(Ensemble(rng.standard_normal((100_000, 2))))
        assert np.abs(stats.mean).max() < 0.02
        assert np.abs(stats.cov - np.eye(2)).max() < 0.02


def make_filter_config(**overrides):
    defaults = dict(
        order=1,
        schedule=DENSE,
        meas_period=1.0,
    )
    defaults.update(overrides)
    return FilterConfig(**defaults)


class TestDaruffStep:
    def test_static_linear_matches_kalman(self):
        rng = np.random.default_rng(6)
        H = rng.normal(size=(1, 2))
        R = [[0.5]]
        x0 = rng.normal(size=2)
        parts = rng.multivariate_normal(x0, np.eye(2), size=400)
        ens = Ensemble(parts)
        state = FilterState(0.0, ensemble_stats(ens), ens)
        dyn = DynamicsModel(f=lambda x, t: 0.0 * x)
        y = [1.2]
        out = daruff_step(state, dyn, linear_model(H, R), y, make_filter_config())
        prior = ensemble_stats(ens)
        expected, _ = kalman_information_update(prior.mean, prior.cov,
                                                np.asarray(H), R, y)
        np.testing.assert_allclose(out.belief.mean, expected, rtol=1e-6, atol=1e-8)
        assert out.time == 1.0

    def test_zero_innovation_keeps_propagated_mean(self):
        rng = np.random.default_rng(7)
        A = 0.2 * rng.normal(size=(2, 2))
        dyn = linear_dynamics(A)
        x0 = rng.normal(size=2)
        # symmetric ensemble about x0 so the sample mean is exactly x0
        half = rng.multivariate_normal(x0, 0.1 * np.eye(2), size=100) - x0
        parts = x0 + np.vstack([half, -half])
        ens = Ensemble(parts)
        state = FilterState(0.0, ensemble_stats(ens), ens)
        prop_mean = integrate(dyn.f, x0, 0.0, 1.0, RK4)
        H = np.array([[1.0, 0.0]])
        y = H @ prop_mean
        out = daruff_step(state, dyn, linear_model(H, [[0.04]]), y, make_filter_config())
        np.testing.assert_allclose(out.belief.mean, prop_mean, atol=5e-4)

    def test_matches_baseline_on_linear_problem(self):
        rng = np.random.default_rng(8)
        A = 0.3 * rng.normal(size=(2, 2))
        H = rng.normal(size=(1, 2))
        R = [[0.3]]
        x0 = rng.normal(size=2)
        parts = rng.multivariate_normal(x0, 0.5 * np.eye(2), size=64)
        ens = Ensemble(parts)
        cfg = make_filter_config()
        state = FilterState(0.0, ensemble_stats(ens), ens)
        y = [0.4]
        dyn = linear_dynamics(A)
        model = linear_model(H, R)
        out_da = daruff_step(state, dyn, model, y, cfg)
        out_ode = baseline_pff_step(state, dyn, model, y, cfg)
        np.testing.assert_allclose(out_da.ensemble.particles,
                                   out_ode.ensemble.particles, atol=1e-6)

    def test_one_algebra_context_and_no_composition(self, monkeypatch):
        # the flow starts from the dynamics map, so an epoch builds one
        # context and joins no two maps by composition
        contexts, composed = [], []
        init, compose = da.AlgebraContext.__init__, da.compose

        def counted_init(ctx, *args):
            contexts.append(args)
            init(ctx, *args)

        def counted_compose(outer, inner):
            composed.append(outer)
            return compose(outer, inner)

        rng = np.random.default_rng(11)
        ens = Ensemble(rng.normal(size=(16, 2)))
        state = FilterState(0.0, ensemble_stats(ens), ens)
        dyn = linear_dynamics(0.3 * rng.normal(size=(2, 2)))
        model = linear_model([[1.0, 0.5]], [[0.3]])
        monkeypatch.setattr(da.AlgebraContext, "__init__", counted_init)
        for module in (da, dfilter, dflow):
            monkeypatch.setattr(module, "compose", counted_compose)
        daruff_step(state, dyn, model, [0.4], make_filter_config(order=2))
        assert contexts == [(2, 2)]
        assert composed == []

    def test_second_step_builds_no_multiplication_table(self, monkeypatch):
        # each epoch makes a fresh context, but its shape's table is built
        # once per process: the second step runs no table-building loop
        built = []
        build = da._build_multiplication_table

        def counted_build(ctx):
            built.append((ctx.n_vars, ctx.max_order))
            return build(ctx)

        monkeypatch.setattr(da, "_MUL_TABLES", {})
        monkeypatch.setattr(da, "_build_multiplication_table", counted_build)
        # the range model's rsqrt multiplies polynomials
        rng = np.random.default_rng(12)
        ens = Ensemble([-3.5, 0.0] + 0.1 * rng.normal(size=(16, 2)))
        state = FilterState(0.0, ensemble_stats(ens), ens)
        dyn = linear_dynamics(0.3 * rng.normal(size=(2, 2)))
        model = models.range_model(0.1)
        first = daruff_step(state, dyn, model, [3.4], make_filter_config(order=2))
        assert built == [(2, 2)]
        second = daruff_step(state, dyn, model, [3.4], make_filter_config(order=2))
        assert built == [(2, 2)]
        np.testing.assert_array_equal(second.ensemble.particles, first.ensemble.particles)

    def test_timing_recorded(self):
        rng = np.random.default_rng(9)
        ens = Ensemble(rng.normal(size=(16, 2)))
        state = FilterState(0.0, ensemble_stats(ens), ens)
        out = daruff_step(state, linear_dynamics(np.zeros((2, 2))),
                          linear_model([[1.0, 0.0]], [[1.0]]), [0.0],
                          make_filter_config())
        t = out.timing
        assert t.propagate >= 0 and t.flow >= 0 and t.evaluate >= 0

    def test_postprocess_hook_applies(self):
        rng = np.random.default_rng(10)
        ens = Ensemble(rng.normal(size=(8, 2)))
        state = FilterState(0.0, ensemble_stats(ens), ens)
        seen = []

        def hook(parts):
            seen.append(parts.shape)
            return parts

        daruff_step(state, linear_dynamics(np.zeros((2, 2))),
                    linear_model([[1.0, 0.0]], [[1.0]]), [0.0],
                    make_filter_config(particle_postprocess=hook))
        assert seen == [(8, 2)]


class TestSpreadCorrection:
    def test_restores_flow_covariance_and_keeps_mean(self):
        rng = np.random.default_rng(20)
        p0 = np.array([[1.0, 0.6], [0.6, 2.0]])
        p1 = np.array([[0.4, 0.1], [0.1, 0.9]])
        parts = rng.multivariate_normal([1.0, -1.0], p0, size=50)
        prior = ensemble_stats(Ensemble(parts))
        phi = p1 @ np.linalg.inv(prior.cov)
        flowed = [0.5, 0.2] + (parts - prior.mean) @ phi.T
        corrected = flowed + spread_correction(parts, prior.cov, p1)
        post = ensemble_stats(Ensemble(corrected))
        np.testing.assert_allclose(post.mean, [0.5, 0.2], atol=1e-12)
        np.testing.assert_allclose(post.cov, p1, atol=1e-12)

    def test_rank_deficient_prior(self):
        # particles on a line: only the deviations' own direction is moved,
        # to the spread P1 gives it
        t = np.linspace(-1.0, 1.0, 21)
        parts = np.outer(t, [1.0, 1.0])
        prior = ensemble_stats(Ensemble(parts))
        p1 = 0.25 * prior.cov
        inc = spread_correction(parts, prior.cov, p1)
        assert np.isfinite(inc).all()
        np.testing.assert_allclose(inc, (0.5 - 0.25) * parts, atol=1e-12)

    @pytest.mark.parametrize("step", [daruff_step, baseline_pff_step])
    def test_linear_gaussian_step_matches_kalman_mean_and_cov(self, step):
        rng = np.random.default_rng(21)
        H = np.array([[1.0, 0.5]])
        R = [[0.4]]
        mean0 = np.array([0.3, -0.2])
        cov0 = np.array([[1.0, 0.6], [0.6, 2.0]])
        n = 20000
        ens = Ensemble(rng.multivariate_normal(mean0, cov0, size=n))
        state = FilterState(0.0, ensemble_stats(ens), ens)
        y = [1.2]
        out = step(state, DynamicsModel(f=lambda x, t: 0.0 * x), linear_model(H, R),
                   y, make_filter_config())
        x_k, p_k = kalman_information_update(mean0, cov0, H, R, y)
        # Monte Carlo error: the ensemble only samples the prior, so its
        # posterior moments scatter about the Kalman ones by O(sigma/sqrt(N))
        tol = 5.0 * np.abs(cov0).max() / np.sqrt(n)
        np.testing.assert_allclose(out.belief.mean, x_k, atol=tol)
        np.testing.assert_allclose(out.belief.cov, p_k, atol=tol)
        # against the Kalman update of the ensemble's own prior moments the
        # flow leaves only integration error
        prior = ensemble_stats(ens)
        x_s, p_s = kalman_information_update(prior.mean, prior.cov, H, R, y)
        np.testing.assert_allclose(out.belief.mean, x_s, atol=1e-6)
        np.testing.assert_allclose(out.belief.cov, p_s, atol=1e-6)


class TestAttitudeStepParity:
    def test_single_epoch_matches_baseline_within_one_percent(self):
        rng = np.random.default_rng(16)
        truth = models.simulate_truth(models.DEFAULT_INITIAL_STATE,
                                      models.DEFAULT_PARAMS, 2.0, 0.01, 2.0, seed=17)
        xhat0 = models.normalize_quaternion_block(
            truth.initial_state + rng.multivariate_normal(
                np.zeros(10), models.INITIAL_STATE_COV))
        parts = xhat0 + rng.multivariate_normal(
            np.zeros(10), models.INITIAL_STATE_COV, size=300)
        ens = Ensemble(parts)
        cfg = FilterConfig(
            order=2,
            schedule=geometric_schedule(0.001, 50),
            meas_period=2.0,
            particle_postprocess=models.normalize_quaternion_block,
        )
        dyn = models.attitude_dynamics()
        meas = models.stacked_measurement()
        state = FilterState(0.0, GaussianBelief(xhat0, models.INITIAL_STATE_COV), ens)
        out_da = daruff_step(state, dyn, meas, truth.measurements[0], cfg)
        out_ode = baseline_pff_step(state, dyn, meas, truth.measurements[0], cfg)
        mean_scale = np.abs(out_ode.belief.mean).max()
        assert np.abs(out_da.belief.mean - out_ode.belief.mean).max() < 0.01 * mean_scale
        cov_scale = np.abs(out_ode.belief.cov).max()
        assert np.abs(out_da.belief.cov - out_ode.belief.cov).max() < 0.01 * cov_scale


class TestBaselineStep:
    def test_tighter_noise_concentrates_on_manifold(self):
        # with shrinking measurement noise the flowed cloud hugs the range
        # ring ever tighter
        rng = np.random.default_rng(14)
        prior_parts = rng.multivariate_normal([-3.5, 0.0],
                                              [[1.0, 0.5], [0.5, 1.0]], size=200)
        spreads = []
        for sigma in (0.5, 0.2, 0.1):
            model = models.range_model(sigma)
            ens = Ensemble(prior_parts)
            state = FilterState(0.0, ensemble_stats(ens), ens)
            out = baseline_pff_step(
                state, DynamicsModel(f=lambda x, t: 0.0 * x), model, [1.0],
                make_filter_config(schedule=geometric_schedule(0.001, 50)))
            radii = np.linalg.norm(out.ensemble.particles, axis=1)
            spreads.append(radii.std())
        assert spreads[0] > spreads[1] > spreads[2]

    def test_belief_matches_ensemble_stats(self):
        rng = np.random.default_rng(15)
        ens = Ensemble(rng.normal(size=(32, 2)))
        state = FilterState(0.0, ensemble_stats(ens), ens)
        out = baseline_pff_step(state, linear_dynamics(np.eye(2) * -0.1),
                                linear_model([[1.0, 0.0]], [[1.0]]), [0.1],
                                make_filter_config())
        stats = ensemble_stats(out.ensemble)
        np.testing.assert_allclose(out.belief.mean, stats.mean, atol=1e-14)
        np.testing.assert_allclose(out.belief.cov, stats.cov, atol=1e-14)
