import warnings

import numpy as np
import pytest

import daflow.algebra as da
from daflow import flow, models
from daflow.flow import da_jacobian
from daflow.integrate import IntegratorSpec, integrate

RK4 = IntegratorSpec("rk4_fixed", step_size=0.01)


class TestRangeH:
    def test_pythagorean(self):
        assert models.range_h(np.array([3.0, 4.0]))[0] == 5.0

    def test_prior_mean_value(self):
        assert models.range_h(np.array([-3.5, 0.0]))[0] == 3.5

    def test_da_gradient_at_prior_mean(self):
        grad = da_jacobian(models.range_h, np.array([-3.5, 0.0]), 1)
        np.testing.assert_allclose(grad, [[-1.0, 0.0]], atol=1e-15)

    def test_singular_expansion_at_origin(self):
        ctx = da.AlgebraContext(2, 2)
        xp = da.identity_map(ctx, [0.0, 0.0])
        with pytest.raises(da.DomainError):
            models.range_h(xp)

    def test_da_expansion_tracks_direct_norm(self):
        ctx = da.AlgebraContext(2, 4)
        xp = da.identity_map(ctx, [-3.5, 0.0])
        h = models.range_h(xp)[0]
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = 0.1 * rng.standard_normal(2)
            exact = np.linalg.norm(np.array([-3.5, 0.0]) + d)
            assert abs(da.evaluate(h, d) - exact) < 1e-7

    def test_batch(self):
        X = np.array([[3.0, 4.0], [0.0, 2.0]])
        np.testing.assert_allclose(models.range_h(X)[:, 0], [5.0, 2.0])

    def test_polynomial_jacobian_tracks_real(self):
        model = models.range_model(0.1)
        x0 = np.array([-3.5, 0.0])
        ctx = da.AlgebraContext(2, 8)
        J = model.jac(da.identity_map(ctx, x0))
        assert J.shape == (1, 2)
        np.testing.assert_allclose(J.constant, model.jac(x0), rtol=1e-15)
        D = 0.1 * np.random.default_rng(0).standard_normal((10, 2))
        # the first dropped degree is about (|d| / 3.5)^9 <= 3e-11 here
        np.testing.assert_allclose(da.evaluate_many(J, D), model.jac(x0 + D), atol=1e-10)

    def test_polynomial_jacobian_is_x_over_range(self):
        x = da.identity_map(da.AlgebraContext(2, 8), [-3.5, 0.7])
        J = models.range_model(0.1).jac(x)
        # the algebra divides by numbers only: J times the range gives x back
        back = J[0] * models.range_h(x)
        np.testing.assert_allclose(back.coeffs, x.coeffs, rtol=1e-14,
                                   atol=1e-14 * np.abs(x.coeffs).max())

    def test_drift_product_count(self, monkeypatch):
        # h takes 2 + 8 products, the Jacobian 2 + 8 + 1; the matmul none
        calls = []
        mul = da.DAScalar.__mul__

        def counted(self, other):
            calls.append(isinstance(other, da.DAScalar))
            return mul(self, other)

        x = da.identity_map(da.AlgebraContext(2, 8), [-3.5, 0.0])
        monkeypatch.setattr(da.DAScalar, "__mul__", counted)
        flow._drift(x, np.eye(2), models.range_model(0.1), np.array([3.4]))
        assert sum(calls) <= 21

    def test_float_jacobian_at_origin_warns_no_division(self):
        # 0 * rsqrt(0) is nan, an invalid value as 0 / 0 was; rsqrt's pole adds
        # no divide-by-zero warning of its own
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.filterwarnings("ignore", "invalid value", RuntimeWarning)
            J = models.range_model(0.1).jac(np.zeros(2))
        assert J.shape == (1, 2) and np.isnan(J).all()


class TestQuatMul:
    def test_identity(self):
        q = np.array([0.1, -0.2, 0.3, 0.9])
        np.testing.assert_array_equal(models.quat_mul([0, 0, 0, 1], q), q)

    def test_i_squared_is_minus_one(self):
        np.testing.assert_array_equal(models.quat_mul([1, 0, 0, 0], [1, 0, 0, 0]),
                                      [0, 0, 0, -1])

    def test_norm_multiplicativity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.normal(size=4), rng.normal(size=4)
            lhs = np.linalg.norm(models.quat_mul(a, b))
            rhs = np.linalg.norm(a) * np.linalg.norm(b)
            assert abs(lhs - rhs) < 1e-12 * rhs


class TestAttitudeRhs:
    def test_rest_state_is_stationary(self):
        x = models.DEFAULT_INITIAL_STATE.as_vector().copy()
        x[4:7] = 0.0
        np.testing.assert_array_equal(models.attitude_rhs(x), np.zeros(10))

    def test_principal_axis_spin_has_zero_angular_acceleration(self):
        x = models.DEFAULT_INITIAL_STATE.as_vector().copy()
        x[4:7] = [0.0, 0.3, 0.0]
        np.testing.assert_allclose(models.attitude_rhs(x)[4:7], np.zeros(3), atol=1e-16)

    def test_euler_term_against_componentwise_expansion(self):
        # independent evaluation of J^-1 (-w x J w) at the nominal rates
        x = models.DEFAULT_INITIAL_STATE.as_vector()
        w = x[4:7]
        j = np.array([100.0, 60.0, 50.0])
        cross = np.array([
            w[1] * j[2] * w[2] - w[2] * j[1] * w[1],
            w[2] * j[0] * w[0] - w[0] * j[2] * w[2],
            w[0] * j[1] * w[1] - w[1] * j[0] * w[0],
        ])
        np.testing.assert_allclose(models.attitude_rhs(x)[4:7], -cross / j, rtol=1e-14)

    def test_quaternion_norm_is_first_order_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=10)
            r = models.attitude_rhs(x)
            assert abs(np.dot(x[:4], r[:4])) < 1e-15

    def test_bias_is_constant(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=10)
        np.testing.assert_array_equal(models.attitude_rhs(x)[7:10], np.zeros(3))

    def test_polynomial_state_passthrough(self):
        x0 = models.DEFAULT_INITIAL_STATE.as_vector()
        ctx = da.AlgebraContext(10, 2)
        xp = da.identity_map(ctx, x0)
        rp = models.attitude_rhs(xp)
        rng = np.random.default_rng(4)
        d = 0.01 * rng.standard_normal(10)
        evald = np.array([da.evaluate(c, d) for c in rp])
        # the dynamics are quadratic, so order 2 is exact
        np.testing.assert_allclose(evald, models.attitude_rhs(x0 + d), atol=1e-14)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(7, 10))
        batch = models.attitude_rhs(X)
        for i in range(7):
            np.testing.assert_array_equal(batch[i], models.attitude_rhs(X[i]))


# full symmetric inertia and a nonzero torque: every (w_a, w_b) pair of the
# Euler term has both orders, which the diagonal default inertia hides
GENERAL_PARAMS = models.RigidBodyParams(
    [[90.0, 4.0, -3.0], [4.0, 70.0, 6.0], [-3.0, 6.0, 55.0]], [1e-3, -2e-3, 5e-4])


def direct_rhs(x, params):
    """0.5 [w; 0] (x) q and J^-1 (m - w x J w) evaluated on one float state."""
    q, w = x[0:4], x[4:7]
    dq = 0.5 * models.quat_mul(np.append(w, 0.0), q)
    dw = params.inertia_inv @ (params.external_torque - np.cross(w, params.inertia @ w))
    return np.concatenate([dq, dw, np.zeros(3)])


def sensor_blocks(x, catalog=models.DEFAULT_CATALOG):
    """The stacked measurement's three blocks, each on its own: C(q) r1 and
    C(q) r2 from :func:`dcm_from_quat`, then w + b.  ``x`` is a float state,
    a batch or a polynomial state."""
    x = da.asarray(x)
    c = models.dcm_from_quat(x[..., 0:4])
    stars = [da.stack([sum(c[i][j] * r[j] for j in range(3)) for i in range(3)], axis=-1)
             for r in (catalog.r1, catalog.r2)]
    return stars[0], stars[1], x[..., 4:7] + x[..., 7:10]


def assert_blocks(y, blocks, **tol):
    for lo, block in zip((0, 3, 6), blocks):
        np.testing.assert_allclose(getattr(y[..., lo:lo + 3], "coeffs", y[..., lo:lo + 3]),
                                   getattr(block, "coeffs", block), **tol)


class TestQuadraticForms:
    def test_rhs_float_state(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = rng.normal(size=10)
            np.testing.assert_allclose(models.attitude_rhs(x, GENERAL_PARAMS),
                                       direct_rhs(x, GENERAL_PARAMS), rtol=1e-13, atol=1e-15)

    def test_rhs_batch(self):
        X = np.random.default_rng(13).normal(size=(6, 10))
        expected = np.array([direct_rhs(x, GENERAL_PARAMS) for x in X])
        np.testing.assert_allclose(models.attitude_rhs(X, GENERAL_PARAMS), expected,
                                   rtol=1e-13, atol=1e-15)

    def test_rhs_polynomial_state_exact_at_order_two(self):
        rng = np.random.default_rng(14)
        x0 = rng.normal(size=10)
        ctx = da.AlgebraContext(10, 2)
        rp = models.attitude_rhs(da.identity_map(ctx, x0), GENERAL_PARAMS)
        D = 0.5 * rng.normal(size=(5, 10))
        expected = np.array([direct_rhs(x0 + d, GENERAL_PARAMS) for d in D])
        np.testing.assert_allclose(da.evaluate_many(rp, D), expected, rtol=1e-12, atol=1e-14)

    def test_star_tracker_against_dcm(self):
        rng = np.random.default_rng(15)
        catalog = models.StarCatalog(rng.normal(size=3), rng.normal(size=3))
        h = models.stacked_measurement(catalog).h
        X = rng.normal(size=(6, 10))
        assert_blocks(h(X), sensor_blocks(X, catalog), rtol=1e-13, atol=1e-15)
        for x in X:
            assert_blocks(h(x), sensor_blocks(x, catalog), rtol=1e-13, atol=1e-15)

    def test_stacked_jacobian_batch_with_non_unit_quaternions(self):
        model = models.stacked_measurement(models.StarCatalog([1.0, -2.0, 0.5], [0.3, 0.2, 4.0]))
        X = 2.0 * np.random.default_rng(16).normal(size=(6, 10))
        J = model.jac(X)
        assert J.shape == (6, 9, 10)
        for x, jx in zip(X, J):
            np.testing.assert_allclose(jx, da_jacobian(model.h, x, 9), rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(model.jac(X[0]), J[0], rtol=1e-13, atol=1e-14)


class TestDcm:
    def test_identity_quaternion(self):
        np.testing.assert_array_equal(
            np.array(models.dcm_from_quat(np.array([0.0, 0.0, 0.0, 1.0]))), np.eye(3))

    def test_quarter_turn_about_z(self):
        s = np.sqrt(0.5)
        c = np.array(models.dcm_from_quat(np.array([0.0, 0.0, s, s])))
        np.testing.assert_allclose(c @ [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], atol=1e-15)

    def test_orthogonality_and_determinant(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            c = np.array(models.dcm_from_quat(q))
            assert np.abs(c.T @ c - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(c) - 1.0) < 1e-12


def identity_attitude(omega=(0.0, 0.0, 0.0), bias=(0.0, 0.0, 0.0)):
    return np.concatenate([[0.0, 0.0, 0.0, 1.0], omega, bias])


class TestStarTracker:
    def test_identity_attitude_returns_star(self):
        y = models.stacked_measurement().h(identity_attitude())
        np.testing.assert_allclose(y[0:3], models.DEFAULT_CATALOG.r1, atol=1e-15)
        np.testing.assert_allclose(y[3:6], models.DEFAULT_CATALOG.r2, atol=1e-15)

    def test_unit_norm_preserved(self):
        h = models.stacked_measurement().h
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.normal(size=10)
            x[:4] /= np.linalg.norm(x[:4])
            y = h(x)
            assert abs(np.linalg.norm(y[0:3]) - 1.0) < 1e-12
            assert abs(np.linalg.norm(y[3:6]) - 1.0) < 1e-12

    def test_catalog_normalization(self):
        np.testing.assert_allclose(models.DEFAULT_CATALOG.r1,
                                   np.array([5.0, 2.0, 3.0]) / np.sqrt(38.0))
        np.testing.assert_allclose(models.DEFAULT_CATALOG.r2,
                                   np.array([1.0, 10.0, 4.0]) / np.sqrt(117.0))
        y = models.stacked_measurement(models.StarCatalog([0.0, 3.0, 4.0], [1e200, 0.0, 0.0])).h(
            identity_attitude())
        np.testing.assert_allclose(y[0:6], [0.0, 0.6, 0.8, 1.0, 0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0],
                                     [1.0, 2.0], [[1.0, 0.0, 0.0]]])
    def test_catalog_refuses_degenerate_direction(self, bad):
        with pytest.raises(ValueError, match="r2 must be a finite, nonzero 3-vector"):
            models.StarCatalog([1.0, 0.0, 0.0], bad)


class TestGyro:
    def test_zero_bias(self):
        x = identity_attitude(omega=[0.1, -0.2, 0.3])
        np.testing.assert_array_equal(models.stacked_measurement().h(x)[6:9], x[4:7])

    def test_bias_only(self):
        x = identity_attitude(bias=[0.01, 0.0, 0.0])
        np.testing.assert_array_equal(models.stacked_measurement().h(x)[6:9], [0.01, 0.0, 0.0])

    def test_noise_sigma_value(self):
        assert models.GYRO_NOISE_SIGMA == pytest.approx(3.4907e-3, rel=1e-4)


class TestStackedMeasurement:
    def test_dimension(self):
        assert models.stacked_measurement().dim == 9

    def test_noise_blocks(self):
        R = models.stacked_measurement().noise_cov
        assert R.shape == (9, 9)
        np.testing.assert_array_equal(R[:6, :6], models.STAR_NOISE_SIGMA ** 2 * np.eye(6))
        np.testing.assert_array_equal(R[6:, 6:], models.GYRO_NOISE_SIGMA ** 2 * np.eye(3))
        assert np.abs(R - np.diag(np.diag(R))).max() == 0.0

    def test_polynomial_blocks_against_dcm(self):
        rng = np.random.default_rng(8)
        x0 = rng.normal(size=10)
        x0[:4] /= np.linalg.norm(x0[:4])
        xp = da.identity_map(da.AlgebraContext(10, 2), x0)
        # the oracle runs dcm_from_quat on the polynomial quaternion itself
        assert_blocks(models.stacked_measurement().h(xp), sensor_blocks(xp),
                      rtol=1e-13, atol=1e-15)

    def test_analytic_jacobian_matches_polynomial_differentiation(self):
        model = models.stacked_measurement()
        rng = np.random.default_rng(9)
        for _ in range(5):
            x = rng.normal(size=10)
            x[:4] /= np.linalg.norm(x[:4])
            np.testing.assert_allclose(model.jac(x), da_jacobian(model.h, x, 9),
                                       atol=1e-12)

    def test_polynomial_evaluation_tracks_real(self):
        model = models.stacked_measurement()
        x0 = models.DEFAULT_INITIAL_STATE.as_vector()
        ctx = da.AlgebraContext(10, 2)
        hp = model.h(da.identity_map(ctx, x0))
        rng = np.random.default_rng(10)
        d = 0.01 * rng.standard_normal(10)
        evald = np.array([da.evaluate(c, d) for c in hp])
        # star tracker rows are quadratic and the gyro is linear: exact at order 2
        np.testing.assert_allclose(evald, model.h(x0 + d), atol=1e-14)
        # so the Jacobian is affine, and its polynomial image is exact too
        J = model.jac(da.identity_map(ctx, x0))
        assert J.shape == (9, 10)
        np.testing.assert_allclose(J.constant, model.jac(x0), atol=1e-14)
        np.testing.assert_allclose(da.evaluate(J, d), model.jac(x0 + d), atol=1e-14)


def vjp_case(name, rng):
    """A model and a float state for the VJP tests: the range toy off the
    origin, or the attitude measurement of a random catalog at a state with
    a non-unit quaternion."""
    if name == "range":
        return models.range_model(0.1), np.array([-3.5, 0.7]) + 0.3 * rng.normal(size=2)
    catalog = models.StarCatalog(rng.normal(size=3), rng.normal(size=3))
    return models.stacked_measurement(catalog), 2.0 * rng.normal(size=10)


@pytest.mark.parametrize("name", ["range", "attitude"])
class TestVjp:
    """vjp(x, w) is H(x)^T w, with da_jacobian's H as the oracle."""

    def test_float_state(self, name):
        rng = np.random.default_rng(30)
        for _ in range(5):
            model, x = vjp_case(name, rng)
            w = rng.normal(size=model.dim)
            u = model.vjp(x, w)
            assert u.shape == x.shape
            np.testing.assert_allclose(u, da_jacobian(model.h, x, model.dim).T @ w,
                                       rtol=1e-12, atol=1e-14)

    def test_batch_with_non_unit_quaternions(self, name):
        rng = np.random.default_rng(31)
        model, x = vjp_case(name, rng)
        X = x + 0.5 * rng.normal(size=(6, len(x)))
        W = rng.normal(size=(6, model.dim))
        U = model.vjp(X, W)
        assert U.shape == X.shape
        for x, w, u in zip(X, W, U):
            np.testing.assert_allclose(u, da_jacobian(model.h, x, model.dim).T @ w,
                                       rtol=1e-12, atol=1e-14)
            # a batch row and a single-state call differ by round-off only
            np.testing.assert_allclose(u, model.vjp(x, w), rtol=1e-13, atol=1e-15)

    def test_polynomial_state(self, name):
        rng = np.random.default_rng(32)
        model, x0 = vjp_case(name, rng)
        n, m = len(x0), model.dim
        xp = da.identity_map(da.AlgebraContext(n, 2), x0)
        # an affine weight, so that the attitude's H^T w is exact at order 2
        w0, B = rng.normal(size=m), rng.normal(size=(n, m))
        wp = w0 + (xp - x0) @ B
        U = model.vjp(xp, wp)
        assert U.shape == (n,)
        # the expansion of H^T w is that of the expanded Jacobian's contraction
        full = (wp[None, :] @ model.jac(xp))[0]
        np.testing.assert_allclose(U.coeffs, full.coeffs, rtol=1e-13,
                                   atol=1e-14 * np.abs(full.coeffs).max())
        # and at a deviation d it is w(d) @ H(x0 + d) up to truncation: none
        # for the attitude, whose H is affine; for the range the dropped
        # degree-3 terms are at most about 1e-9 at |d| ~ 1e-3
        D = 1e-3 * rng.normal(size=(4, n))
        expected = np.array([(w0 + d @ B) @ model.jac(x0 + d) for d in D])
        atol = 5e-9 if name == "range" else 1e-12 * np.abs(expected).max()
        np.testing.assert_allclose(da.evaluate_many(U, D), expected, rtol=1e-12, atol=atol)


class TestAttitudeState:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError, match="unit"):
            models.AttitudeState(q=[1.0, 1.0, 0.0, 0.0], omega_b=np.zeros(3),
                                 bias=np.zeros(3))

    def test_paper_initial_condition(self):
        s = models.DEFAULT_INITIAL_STATE
        np.testing.assert_array_equal(s.q, [0.5, 0.5, 0.5, 0.5])
        np.testing.assert_allclose(np.linalg.norm(s.omega_b), 10.0 * np.pi / 180.0)
        np.testing.assert_allclose(s.omega_b / np.linalg.norm(s.omega_b),
                                   np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0))
        np.testing.assert_array_equal(s.bias, np.zeros(3))

    @pytest.mark.parametrize("field", ["q", "omega_b", "bias"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_state_rejects_non_finite(self, field, bad):
        blocks = {"q": np.array([0.0, 0.0, 0.0, 1.0]), "omega_b": np.zeros(3),
                  "bias": np.zeros(3)}
        blocks[field][0] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            models.AttitudeState(**blocks)

    @pytest.mark.parametrize("build,message", [
        (lambda: models.AttitudeState(np.array([0.0, 0.0, 1.0]), np.zeros(3), np.zeros(3)),
         r"attitude state blocks must be \(4,\), \(3,\), \(3,\)"),
        (lambda: models.RigidBodyParams(np.eye(2), np.zeros(3)),
         "inertia must be 3x3 and torque length 3"),
        (lambda: models.RigidBodyParams(np.eye(3), np.zeros(2)),
         "inertia must be 3x3 and torque length 3"),
        (lambda: models.RigidBodyParams([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                                        np.zeros(3)), "inertia must be symmetric"),
    ], ids=["state-blocks", "inertia-shape", "torque-shape", "inertia-asymmetric"])
    def test_rejects_malformed_blocks(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_params_validation(self):
        with pytest.raises(ValueError, match="positive definite"):
            models.RigidBodyParams(-np.eye(3), np.zeros(3))

    @pytest.mark.parametrize("field", ["inertia", "external_torque"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_params_reject_non_finite(self, field, bad):
        args = {"inertia": np.eye(3), "external_torque": np.zeros(3)}
        args[field].flat[0] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            models.RigidBodyParams(**args)


class TestNormalizeQuaternionBlock:
    def test_single_vector(self):
        x = np.arange(10.0) + 1.0
        out = models.normalize_quaternion_block(x)
        assert abs(np.linalg.norm(out[:4]) - 1.0) < 1e-15
        np.testing.assert_array_equal(out[4:], x[4:])

    def test_batch_and_no_mutation(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(5, 10))
        before = X.copy()
        out = models.normalize_quaternion_block(X)
        np.testing.assert_array_equal(X, before)
        np.testing.assert_allclose(np.linalg.norm(out[:, :4], axis=1), np.ones(5))


class TestSimulateTruth:
    def test_quaternion_norm_drift(self):
        log = models.simulate_truth(models.DEFAULT_INITIAL_STATE,
                                    models.DEFAULT_PARAMS, 120.0, 0.01, 2.0, seed=1)
        norms = np.linalg.norm(log.states[:, :4], axis=1)
        assert np.abs(norms - 1.0).max() < 1e-9

    def test_kinetic_energy_conserved_without_torque(self):
        log = models.simulate_truth(models.DEFAULT_INITIAL_STATE,
                                    models.DEFAULT_PARAMS, 120.0, 0.01, 2.0, seed=1)
        w = log.states[:, 4:7]
        ke = 0.5 * np.einsum("ni,ij,nj->n", w, models.DEFAULT_PARAMS.inertia, w)
        assert np.abs(ke - ke[0]).max() < 1e-9 * ke[0]

    def test_zero_noise_mode_reproduces_model(self):
        log = models.simulate_truth(models.DEFAULT_INITIAL_STATE,
                                    models.DEFAULT_PARAMS, 6.0, 0.01, 2.0, seed=None)
        model = models.stacked_measurement()
        for k in range(len(log.times)):
            np.testing.assert_array_equal(log.measurements[k], model.h(log.states[k]))

    def test_noise_is_seeded(self):
        a = models.simulate_truth(models.DEFAULT_INITIAL_STATE,
                                  models.DEFAULT_PARAMS, 4.0, 0.01, 2.0, seed=3)
        b = models.simulate_truth(models.DEFAULT_INITIAL_STATE,
                                  models.DEFAULT_PARAMS, 4.0, 0.01, 2.0, seed=3)
        np.testing.assert_array_equal(a.measurements, b.measurements)

    def test_meas_period_must_divide(self):
        with pytest.raises(ValueError, match="multiple"):
            models.simulate_truth(models.DEFAULT_INITIAL_STATE,
                                  models.DEFAULT_PARAMS, 4.0, 0.03, 2.0, seed=1)

    @pytest.mark.parametrize("duration,dt,message", [
        (4.0, 1e12, r"meas_period must be a whole multiple \(>= 1\) of dt"),
        (float("inf"), 0.01, "duration must be positive and finite"),
    ], ids=["dt", "duration"])
    def test_grid_refuses_unrunnable_values(self, duration, dt, message):
        with pytest.raises(ValueError, match=message):
            models.simulate_truth(models.DEFAULT_INITIAL_STATE,
                                  models.DEFAULT_PARAMS, duration, dt, 2.0, seed=1)

    @pytest.mark.parametrize("duration", [5.0, 1.0])
    def test_duration_must_be_whole_epochs(self, duration):
        with pytest.raises(ValueError, match="duration must be a whole multiple"):
            models.simulate_truth(models.DEFAULT_INITIAL_STATE,
                                  models.DEFAULT_PARAMS, duration, 0.01, 2.0, seed=1)
