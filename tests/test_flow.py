from pathlib import Path

import numpy as np
import pytest

import daflow.algebra as da
import daflow.flow as dflow
from daflow.flow import (
    Ensemble,
    GaussianBelief,
    MeasurementModel,
    _drift,
    build_flow_map,
    da_jacobian,
    flow_ensemble_ode,
    flow_mean_cov,
)
from daflow.harness import (
    TOY_MEASUREMENT,
    TOY_NOISE_SIGMA,
    TOY_PRIOR_COV,
    TOY_PRIOR_MEAN,
    ScenarioConfig,
)
from daflow.integrate import IntegratorSpec
from daflow.models import range_model

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# the fixed-step reference: 200 RK4 steps over the log pseudo-time tau
TAU_RK4 = IntegratorSpec("rk4_fixed", step_size=0.005)
DOP853 = IntegratorSpec("dop853")


def linear_model(A, R):
    """Measurement y = A x + v, evaluable on all state kinds."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape

    def h(x):
        return x @ A.T

    def jac(x):
        return np.broadcast_to(A, x.shape[:-1] + (m, n))

    def loglik_grad(x, y, noise_inv):
        return (y - h(x)) @ noise_inv.T @ A

    return MeasurementModel(h=h, noise_cov=R, jac=jac, loglik_grad=loglik_grad)


def kalman_information_update(mean, cov, A, R, y):
    s_post = np.linalg.inv(cov) + A.T @ np.linalg.inv(R) @ A
    p_post = np.linalg.inv(s_post)
    x_post = p_post @ (np.linalg.inv(cov) @ mean + A.T @ np.linalg.inv(R) @ y)
    return x_post, p_post


def record_integrations(monkeypatch, module):
    """Patch ``module.integrate`` to record, for each call, ``(t0, t1, ts)``:
    its span and the t of every rhs call it makes, as perfbench's tracer
    sees them."""
    calls = []
    inner = module.integrate

    def integrate(rhs, y0, t0, t1, spec):
        ts = []
        calls.append((t0, t1, ts))

        def recorded(y, t):
            ts.append(t)
            return rhs(y, t)

        return inner(recorded, y0, t0, t1, spec)

    monkeypatch.setattr(module, "integrate", integrate)
    return calls


@pytest.fixture
def linear_case():
    rng = np.random.default_rng(42)
    A = rng.normal(size=(2, 3))
    R = np.diag([0.3, 0.7])
    P0 = np.eye(3) + 0.4 * np.ones((3, 3))
    x0 = rng.normal(size=3)
    y = rng.normal(size=2)
    return A, R, P0, x0, y


class TestFlowRhs:
    def test_zero_innovation_at_mean(self):
        model = range_model(0.1)
        xhat = np.array([-3.5, 0.0])
        y = model.h(xhat)
        drift = _drift(xhat, np.eye(2), model, y)
        np.testing.assert_array_equal(drift, [0.0, 0.0])

    def test_scalar_linear(self):
        model = linear_model([[1.0]], [[1.0]])
        drift = _drift(np.array([0.0]), np.array([[1.0]]), model, np.array([2.0]))
        assert drift[0] == pytest.approx(2.0, abs=1e-15)

    def test_range_drift_at_prior_mean(self):
        # gradient of the norm at (-3.5, 0) is (-1, 0); drift follows
        # P H^T (y - 3.5) / R elementwise
        model = range_model(0.1)
        P = np.array([[1.0, 0.5], [0.5, 1.0]])
        drift = _drift(np.array([-3.5, 0.0]), P, model, np.array([1.0]))
        expected = P @ np.array([-1.0, 0.0]) * (1.0 - 3.5) / 0.01
        np.testing.assert_allclose(drift, expected, rtol=1e-12)

    def test_polynomial_and_real_agree(self, linear_case):
        A, R, P0, x0, y = linear_case
        model = linear_model(A, R)
        ctx = da.AlgebraContext(3, 2)
        xpoly = da.identity_map(ctx, x0)
        dp = _drift(xpoly, P0, model, y)
        dr = _drift(x0, P0, model, y)
        np.testing.assert_allclose([p.constant for p in dp], dr, rtol=1e-12)

    def test_batch_matches_single(self, linear_case):
        A, R, P0, x0, y = linear_case
        model = linear_model(A, R)
        X = np.vstack([x0, x0 + 0.1, x0 - 0.2])
        batch = _drift(X, P0, model, y)
        singles = np.vstack([_drift(row, P0, model, y) for row in X])
        np.testing.assert_allclose(batch, singles, rtol=1e-13)

    def test_measurement_dimension_checked(self):
        # the drivers check the measurement before any drift is taken
        model = range_model(0.1)
        with pytest.raises(ValueError, match="measurement"):
            flow_mean_cov(GaussianBelief([1.0, 2.0], np.eye(2)), model, [1.0, 2.0],
                          TAU_RK4)


class TestCovRhs:
    """The covariance law: the information J gains H^T R^-1 H per unit of
    pseudo-time, and flow_mean_cov returns P1 = (I + P0 J1)^-1 P0."""

    def test_zero_jacobian(self):
        model = MeasurementModel(h=lambda x: 0.0 * x[..., :2], noise_cov=np.eye(2),
                                 jac=lambda x: np.zeros((2, 3)),
                                 loglik_grad=lambda x, y, noise_inv: 0.0 * x)
        P0 = np.eye(3) + 0.4 * np.ones((3, 3))
        post = flow_mean_cov(GaussianBelief(np.zeros(3), P0), model, [0.0, 0.0], TAU_RK4)
        np.testing.assert_array_equal(post.cov, P0)

    def test_scalar(self):
        # P0 = R = 1 gives P1 = 1/2; one DOP853 call over the log
        # pseudo-time lands there within its tolerance, 1e-10
        model = linear_model([[1.0]], [[1.0]])
        post = flow_mean_cov(GaussianBelief([0.0], [[1.0]]), model, [0.0], DOP853)
        assert post.cov[0, 0] == pytest.approx(0.5, rel=1e-10)

    def test_scalar_closed_form(self):
        # dJ/dl = 1/R gives P1 = P0 / (1 + P0/R), the integral of -P^2/R
        P0, R = 2.0, 0.5
        model = linear_model([[1.0]], [[R]])
        post = flow_mean_cov(GaussianBelief([0.0], [[P0]]), model, [0.0], TAU_RK4)
        assert post.cov[0, 0] == pytest.approx(P0 / (1.0 + P0 / R), rel=1e-8)

    def test_negative_semidefinite(self):
        # the flow only removes uncertainty: P0 - P1 is positive semidefinite
        rng = np.random.default_rng(2)
        for _ in range(20):
            B = rng.normal(size=(4, 4))
            P = B @ B.T
            H = rng.normal(size=(2, 4))
            R = np.diag(rng.uniform(0.1, 1.0, size=2))
            post = flow_mean_cov(GaussianBelief(np.zeros(4), P), linear_model(H, R),
                                 np.zeros(2), TAU_RK4)
            assert np.linalg.eigvalsh(post.cov - P).max() < 1e-10 * np.trace(P)

    def test_symmetric_output(self):
        rng = np.random.default_rng(3)
        B = rng.normal(size=(3, 3))
        post = flow_mean_cov(GaussianBelief(np.zeros(3), B @ B.T),
                             linear_model(rng.normal(size=(2, 3)), np.eye(2)),
                             np.zeros(2), TAU_RK4)
        np.testing.assert_array_equal(post.cov, post.cov.T)


class TestFlowMeanCov:
    def test_information_form_exactness(self, linear_case):
        A, R, P0, x0, y = linear_case
        model = linear_model(A, R)
        post = flow_mean_cov(GaussianBelief(x0, P0), model, y, TAU_RK4)
        x_k, p_k = kalman_information_update(x0, P0, A, R, y)
        np.testing.assert_allclose(post.mean, x_k, rtol=1e-8, atol=1e-10)
        assert np.abs(post.cov - p_k).max() <= 1e-8 * np.abs(p_k).max()

    def test_trace_monotone_along_flow(self, linear_case):
        # for a linear model the flow to pseudo-time b is the flow to 1
        # with noise R / b
        A, R, P0, x0, y = linear_case
        prior = GaussianBelief(x0, P0)
        traces = [np.trace(P0)] + [
            np.trace(flow_mean_cov(prior, linear_model(A, R / b), y, TAU_RK4).cov)
            for b in np.linspace(0.1, 1.0, 10)
        ]
        assert np.all(np.diff(traces) < 0)


class TestBuildFlowMap:
    def test_linear_matches_kalman_at_deviations(self, linear_case):
        A, R, P0, x0, y = linear_case
        model = linear_model(A, R)
        fmap = build_flow_map(GaussianBelief(x0, P0), model, y, None, 1, TAU_RK4)
        rng = np.random.default_rng(1)
        for _ in range(5):
            d = rng.normal(size=3) * 0.5
            expected, _ = kalman_information_update(x0 + d, P0, A, R, y)
            np.testing.assert_allclose(da.evaluate(fmap, d), expected, rtol=1e-6, atol=1e-8)

    def test_order_one_map_is_affine(self, linear_case):
        A, R, P0, x0, y = linear_case
        model = linear_model(A, R)
        fmap = build_flow_map(GaussianBelief(x0, P0), model, y, None, 1, TAU_RK4)
        assert fmap.coeffs.shape == (3, 4)  # constant + one slope per variable

    def test_toy_flow_is_one_integration_over_unit_time(self, monkeypatch):
        # one DOP853 call over the log pseudo-time [0, 1], whose step
        # control spends fewer rhs calls than one attempt in each of the 50
        # segments the retired schedule took (650); the first attempt
        # evaluates 13 right-hand sides and every later one 12
        toy = ScenarioConfig.from_json(CONFIGS / "toy.json")
        calls = record_integrations(monkeypatch, dflow)
        build_flow_map(GaussianBelief(TOY_PRIOR_MEAN, TOY_PRIOR_COV),
                       range_model(TOY_NOISE_SIGMA), [TOY_MEASUREMENT], None,
                       toy.order, toy.flow_spec())
        assert [(t0, t1) for t0, t1, _ in calls] == [(0.0, 1.0)]
        ts = calls[0][2]
        assert len(ts) % 12 == 1 and ts[0] == 0.0
        assert len(ts) < 650

    @pytest.mark.parametrize("noise", [0.3, 1e-6])
    def test_adaptive_flow_lands_on_kalman(self, linear_case, noise):
        # one DOP853 call over the log pseudo-time reaches l = 1 however
        # informative the measurement: kappa = tr(P0 A^T R^-1 A) is 34 and
        # 1e7 here, and the mean and P1 are the Kalman posterior's
        A, _, P0, x0, y = linear_case
        R = noise * np.eye(2)
        fmap, p1 = build_flow_map(GaussianBelief(x0, P0), linear_model(A, R), y, None, 1,
                                  DOP853, return_cov=True)
        x_k, p_k = kalman_information_update(x0, P0, A, R, y)
        assert np.abs(fmap.constant - x_k).max() <= 1e-8 * np.abs(x_k).max()
        assert np.abs(p1 - p_k).max() <= 1e-8 * np.abs(p_k).max()

    def test_measurement_must_be_finite(self, linear_case):
        A, R, P0, x0, _ = linear_case
        model = linear_model(A, R)
        with pytest.raises(ValueError, match="finite"):
            build_flow_map(GaussianBelief(x0, P0), model, [np.nan, 1.0], None, 1, TAU_RK4)
        with pytest.raises(ValueError, match="finite"):
            flow_mean_cov(GaussianBelief(x0, P0), model, [np.nan, 1.0], TAU_RK4)
        with pytest.raises(ValueError, match="finite"):
            flow_ensemble_ode(np.vstack([x0, x0 + 0.1]), GaussianBelief(x0, P0), model,
                              [np.nan, 1.0], None, TAU_RK4)

    def test_return_cov_is_the_flowed_covariance(self, linear_case):
        A, R, P0, x0, y = linear_case
        model = linear_model(A, R)
        prior = GaussianBelief(x0, P0)
        fmap, p1 = build_flow_map(prior, model, y, None, 1, TAU_RK4, return_cov=True)
        plain = build_flow_map(prior, model, y, None, 1, TAU_RK4)
        np.testing.assert_array_equal(fmap.coeffs, plain.coeffs)
        np.testing.assert_allclose(p1, flow_mean_cov(prior, model, y, TAU_RK4).cov,
                                   atol=1e-14)

    def test_return_cov_is_keyword_only(self, linear_case):
        # a seventh positional argument must not land in return_cov and
        # silently turn the result into a (map, P1) tuple
        A, R, P0, x0, y = linear_case
        model = linear_model(A, R)
        X0 = np.vstack([x0, x0 + 0.1])
        with pytest.raises(TypeError):
            build_flow_map(GaussianBelief(x0, P0), model, y, None, 1, TAU_RK4, True)
        with pytest.raises(TypeError):
            flow_ensemble_ode(X0, GaussianBelief(x0, P0), model, y, None, TAU_RK4, True)

    def test_unknown_innovation_rejected(self, linear_case):
        # the retired keyword is refused, not ignored
        A, R, P0, x0, y = linear_case
        model = linear_model(A, R)
        with pytest.raises(TypeError, match="innovation"):
            build_flow_map(GaussianBelief(x0, P0), model, y, None, 1, TAU_RK4,
                           innovation="linearized")


class TestFlowEnsembleOde:
    def test_particle_at_mean_does_not_move(self):
        model = range_model(0.1)
        xhat = np.array([-3.5, 0.0])
        y = model.h(xhat)
        prior = GaussianBelief(xhat, [[1.0, 0.5], [0.5, 1.0]])
        X = np.vstack([xhat, xhat])
        out = flow_ensemble_ode(X, prior, model, y, None, TAU_RK4)
        np.testing.assert_allclose(out, X, atol=1e-12)

    def test_linear_gaussian_ensemble_moments(self, linear_case):
        A, R, P0, x0, y = linear_case
        model = linear_model(A, R)
        rng = np.random.default_rng(7)
        X0 = rng.multivariate_normal(x0, P0, size=20000)
        out = flow_ensemble_ode(X0, GaussianBelief(x0, P0), model, y, None, TAU_RK4)
        x_k, p_k = kalman_information_update(x0, P0, A, R, y)
        # the drift-only flow is an affine contraction Phi = P+ P0^-1 about
        # the Kalman mean: the ensemble mean converges there, the ensemble
        # covariance to Phi P0 Phi^T (tighter than P+; no diffusion term)
        phi = p_k @ np.linalg.inv(P0)
        sample_mean = X0.mean(axis=0)
        expected_mean = x_k + phi @ (sample_mean - x0)
        np.testing.assert_allclose(out.mean(axis=0), expected_mean, atol=5e-3)
        expected_cov = phi @ np.cov(X0.T, bias=True) @ phi.T
        np.testing.assert_allclose(np.cov(out.T, bias=True), expected_cov, atol=5e-3)

    def test_return_cov_matches_map_route(self, linear_case):
        A, R, P0, x0, y = linear_case
        toy = ScenarioConfig.from_json(CONFIGS / "toy.json")
        # (prior, model, y, map order, spec): the linear case, and the
        # nonlinear toy range problem at its configs/toy.json setting
        cases = [
            (GaussianBelief(x0, P0), linear_model(A, R), y, 1, TAU_RK4),
            (GaussianBelief(TOY_PRIOR_MEAN, TOY_PRIOR_COV), range_model(TOY_NOISE_SIGMA),
             [TOY_MEASUREMENT], toy.order, toy.flow_spec()),
        ]
        for prior, model, y, order, spec in cases:
            X0 = np.random.default_rng(11).multivariate_normal(prior.mean, prior.cov, size=8)
            flowed, p1 = flow_ensemble_ode(X0, prior, model, y, None, spec, return_cov=True)
            np.testing.assert_array_equal(
                flowed, flow_ensemble_ode(X0, prior, model, y, None, spec))
            fmap, p1_map = build_flow_map(prior, model, y, None, order, spec,
                                          return_cov=True)
            # the running mean H is frozen at is the image of the prior mean
            # on every route, so all three carry the same mean and covariance
            post = flow_mean_cov(prior, model, y, spec)
            np.testing.assert_allclose(fmap.constant, post.mean, rtol=1e-12)
            np.testing.assert_allclose(p1_map, post.cov, rtol=1e-12)
            if spec.method == "rk4_fixed":  # every route takes the same steps
                np.testing.assert_allclose(p1, p1_map, atol=1e-14)
                np.testing.assert_allclose(p1, post.cov, rtol=1e-12)
            else:
                # DOP853 measures the ODE route's error at every particle, so
                # that route picks its own steps: 2.7e-12 apart on the toy
                np.testing.assert_allclose(p1, post.cov, rtol=1e-10)

    def test_toy_ring_concentration(self):
        model = range_model(0.1)
        prior = GaussianBelief([-3.5, 0.0], [[1.0, 0.5], [0.5, 1.0]])
        rng = np.random.default_rng(9)
        X0 = rng.multivariate_normal(prior.mean, prior.cov, size=400)
        out = flow_ensemble_ode(X0, prior, model, [1.0], None, DOP853)
        radii = np.linalg.norm(out, axis=1)
        assert np.mean(np.abs(radii - 1.0) < 0.3) >= 0.9
        # the posterior hugs the prior's side of the ring (rare far-tail
        # particles may wrap past it)
        assert np.mean(out[:, 0] < 0) > 0.99

    def test_unknown_innovation_rejected(self, linear_case):
        # the retired keyword is refused, not ignored
        A, R, P0, x0, y = linear_case
        model = linear_model(A, R)
        X0 = np.random.default_rng(12).multivariate_normal(x0, P0, size=4)
        with pytest.raises(TypeError, match="innovation"):
            flow_ensemble_ode(X0, GaussianBelief(x0, P0), model, y, None, TAU_RK4,
                              innovation="linearized")


# placeholders for the validation tests, which never call them
ANY_CALLABLES = dict(h=lambda x: x, jac=lambda x: x, loglik_grad=lambda x, y, noise_inv: x)


class TestValidation:
    def test_belief_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianBelief([0.0, 0.0], [[1.0, 0.2], [0.1, 1.0]])

    def test_belief_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            GaussianBelief([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("mean, cov, name", [
        ([np.nan, 0.0], np.eye(2), "mean"),
        ([0.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]], "cov"),
        ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]], "cov"),
    ])
    def test_belief_rejects_non_finite(self, mean, cov, name):
        with pytest.raises(ValueError, match=f"belief {name} must be finite"):
            GaussianBelief(mean, cov)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_measurement_model_rejects_non_finite_noise(self, bad):
        with pytest.raises(ValueError, match="noise_cov must be finite"):
            MeasurementModel(noise_cov=[[bad]], **ANY_CALLABLES)

    @pytest.mark.parametrize("build,message", [
        (lambda: GaussianBelief([0.0, 0.0], np.eye(3)),
         r"cov shape \(3, 3\) does not match mean \(2,\)"),
        (lambda: MeasurementModel(noise_cov=[[1.0, 0.2], [0.1, 1.0]], **ANY_CALLABLES),
         "noise_cov must be symmetric"),
    ], ids=["belief-shape", "noise-asymmetric"])
    def test_rejects_shape_mismatch_and_asymmetric_noise(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_measurement_model_rejects_bad_noise(self):
        with pytest.raises(ValueError, match="positive definite"):
            MeasurementModel(noise_cov=[[0.0]], **ANY_CALLABLES)
        for bad in (np.ones((2, 3)), [0.01], 0.01):
            with pytest.raises(ValueError, match="square"):
                MeasurementModel(noise_cov=bad, **ANY_CALLABLES)

    def test_measurement_model_needs_jac_and_reads_dim_off_noise(self):
        with pytest.raises(TypeError, match="jac"):
            MeasurementModel(h=lambda x: x, noise_cov=np.eye(2),
                             loglik_grad=lambda x, y, noise_inv: x)
        assert MeasurementModel(noise_cov=np.eye(3), **ANY_CALLABLES).dim == 3

    def test_measurement_model_needs_loglik_grad(self):
        # the drift has one body, the log-likelihood gradient; jac alone is refused
        with pytest.raises(TypeError, match="loglik_grad"):
            MeasurementModel(h=lambda x: x, noise_cov=np.eye(2), jac=lambda x: x)

    def test_ensemble_needs_two_particles(self):
        with pytest.raises(ValueError, match="2 particles"):
            Ensemble(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="finite"):
            Ensemble(np.array([[0.0, np.inf], [1.0, 2.0]]))

    def test_one_huge_step_gives_the_kalman_cov(self):
        # DOP853's first attempt spans all of tau in [0, 1]; in the log
        # pseudo-time the information's rate is smooth however informative
        # y is (kappa = 1e4 here), so the call lands on the Kalman
        # covariance within its tolerance, 1e-10
        model = linear_model([[1.0]], [[1e-4]])
        prior = GaussianBelief([0.0], [[1.0]])
        post = flow_mean_cov(prior, model, [0.5], DOP853)
        _, p_k = kalman_information_update(prior.mean, prior.cov, np.eye(1), model.noise_cov,
                                           [0.5])
        assert np.abs(post.cov - p_k).max() <= 1e-10 * np.abs(p_k).max()

    @pytest.mark.parametrize("kind", ["moments", "map", "ode"])
    def test_one_step_runs_every_route(self, kind):
        # a linear flow whose one unit step in l made the covariance law's
        # P1 indefinite (eigenvalues -0.092, 0.712); DOP853's first attempt
        # spans all of tau in [0, 1], and the information law returns the
        # Kalman P1 on every route
        A = [[0.8402512931077276, -1.3118265094485249],
             [0.20145912676069028, 0.056839705014396134]]
        R = np.diag([0.06907406862333866, 0.06589931642998445])
        model = linear_model(A, R)
        prior = GaussianBelief([0.0, 0.0], [[0.9385325976516461, 0.5758117032171621],
                                            [0.5758117032171621, 0.4955044426180122]])
        y = [0.3, -0.2]
        X0 = np.random.default_rng(13).multivariate_normal(prior.mean, prior.cov, size=4)
        if kind == "moments":
            post = flow_mean_cov(prior, model, y, DOP853)
            out, p1 = post.mean, post.cov
        elif kind == "map":
            fmap, p1 = build_flow_map(prior, model, y, None, 1, DOP853, return_cov=True)
            out = fmap.coeffs
        else:
            out, p1 = flow_ensemble_ode(X0, prior, model, y, None, DOP853, return_cov=True)
        _, p_k = kalman_information_update(prior.mean, prior.cov, np.asarray(A), R, y)
        assert np.isfinite(out).all()
        assert np.abs(p1 - p_k).max() <= 1e-12 * np.abs(p_k).max()

    @pytest.mark.parametrize("kind", ["moments", "map", "ode"])
    def test_rank_deficient_prior_flows(self, kind):
        # a prior with no spread along (1, -1) keeps none: P1 (1, -1) = 0,
        # and no route needs the prior's inverse
        toy = ScenarioConfig.from_json(CONFIGS / "toy.json")
        prior = GaussianBelief(TOY_PRIOR_MEAN, [[1.0, 1.0], [1.0, 1.0]])
        model = range_model(TOY_NOISE_SIGMA)
        args = (model, [TOY_MEASUREMENT])
        X0 = np.random.default_rng(14).multivariate_normal(prior.mean, prior.cov, size=8)
        if kind == "moments":
            post = flow_mean_cov(prior, *args, toy.flow_spec())
            out, p1 = post.mean, post.cov
            # the mean moves only where the prior has spread
            step = out - prior.mean
            assert abs(step[0] - step[1]) <= 1e-12 * np.abs(step).max()
        elif kind == "map":
            fmap, p1 = build_flow_map(prior, *args, None, toy.order, toy.flow_spec(),
                                      return_cov=True)
            out = fmap.coeffs
        else:
            out, p1 = flow_ensemble_ode(X0, prior, *args, None, toy.flow_spec(),
                                        return_cov=True)
        assert np.isfinite(out).all()
        assert np.linalg.eigvalsh(p1).min() >= -1e-12 * np.trace(p1)
        np.testing.assert_allclose(p1 @ [1.0, -1.0], 0.0, atol=1e-12 * np.abs(p1).max())

    def test_da_jacobian_matches_analytic(self):
        model = range_model(0.1)
        for x in ([3.0, 4.0], [-3.5, 0.0], [1.0, -2.0]):
            np.testing.assert_allclose(
                da_jacobian(model.h, np.asarray(x), 1), model.jac(np.asarray(x)),
                rtol=1e-12,
            )

    def test_da_jacobian_checks_output_shape(self):
        with pytest.raises(ValueError, match=r"expected \(3,\)"):
            da_jacobian(range_model(0.1).h, np.array([3.0, 4.0]), 3)

    def test_da_jacobian_takes_a_real_state(self):
        x = da.identity_map(da.AlgebraContext(2, 2), [3.0, 4.0])
        with pytest.raises(TypeError, match="real state"):
            da_jacobian(range_model(0.1).h, x, 1)
