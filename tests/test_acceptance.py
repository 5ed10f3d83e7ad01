"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavyweight scenario runs (toy order sweep, scaled attitude Monte Carlo,
timing benchmark) come from session fixtures in conftest.py and are shared
by the criteria that consume them.
"""

import time

import numpy as np

import daflow.algebra as da
from daflow import models
from daflow.filter import (
    FilterState,
    build_stpm,
    daruff_step,
    ensemble_stats,
)
from daflow.filter import DynamicsModel
from daflow.flow import Ensemble, GaussianBelief, build_flow_map, flow_mean_cov
from daflow.integrate import IntegratorSpec, integrate
from test_filter import linear_dynamics
from test_flow import kalman_information_update, linear_model

GYRO_SIGMA_BOUND = 3.49e-3  # rad/s


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


class TestCriterion1LinearGaussianOracle:
    def test_flow_matches_information_update(self):
        tic = time.perf_counter()
        rng = np.random.default_rng(2024)
        A = rng.normal(size=(2, 3))
        R = np.diag([0.2, 0.5])
        P0 = np.eye(3) + 0.3 * np.ones((3, 3))
        x0 = rng.normal(size=3)
        y = rng.normal(size=2)
        model = linear_model(A, R)
        # 200 RK4 steps over the log pseudo-time
        spec = IntegratorSpec("rk4_fixed", step_size=0.005)

        post = flow_mean_cov(GaussianBelief(x0, P0), model, y, spec)
        x_k, p_k = kalman_information_update(x0, P0, A, R, y)
        mean_err = np.abs(post.mean - x_k).max() / np.abs(x_k).max()
        cov_err = np.abs(post.cov - p_k).max() / np.abs(p_k).max()

        fmap = build_flow_map(GaussianBelief(x0, P0), model, y, None, 1, spec)
        map_err = 0.0
        for _ in range(10):
            d = rng.normal(size=3) * 0.5
            expected, _ = kalman_information_update(x0 + d, P0, A, R, y)
            err = np.abs(da.evaluate(fmap, d) - expected).max() / np.abs(expected).max()
            map_err = max(map_err, err)
        elapsed = time.perf_counter() - tic

        ok = mean_err < 1e-6 and cov_err < 1e-6 and map_err < 1e-6 and elapsed < 5.0
        report(1, "linear-Gaussian information-form oracle", ok,
               f"mean {mean_err:.2e}, cov {cov_err:.2e}, order-1 map {map_err:.2e}, "
               f"{elapsed:.1f}s")


class TestCriterion2ToyAgreement:
    def test_da_tracks_per_particle_flow_across_orders(self, toy_sweep):
        results, elapsed = toy_sweep
        rms = {order: results[order].rms_discrepancy for order in results}
        nonincreasing = all(
            rms[a] >= rms[b] - 1e-15 for a, b in zip((1, 2, 4, 8), (2, 4, 8))
        )
        ok = rms[8] < 1e-2 and nonincreasing and elapsed < 60.0
        report(2, "toy-problem DA/ODE agreement", ok,
               "rms by order " + ", ".join(f"{o}: {rms[o]:.3e}" for o in (1, 2, 4, 8))
               + "; ODE-flowed particles by order "
               + ", ".join(f"{o}: {results[o].n_ode_fallback}" for o in (1, 2, 4, 8))
               + f"; nonincreasing {nonincreasing}; {elapsed:.1f}s"
               + ("" if rms[8] < 1e-2 else
                  " | RMS target missed: particles under the truncation bound"
                  " still carry map error that the indicator underestimates"))


class TestCriterion3ToyPosteriorGeometry:
    def test_particles_concentrate_on_range_ring(self, toy_sweep):
        results, _ = toy_sweep
        result = results[8]
        ok = result.ring_fraction_da >= 0.9 and result.ring_fraction_ode >= 0.9
        report(3, "toy posterior concentrates on the range ring", ok,
               f"DA {result.ring_fraction_da:.3f}, ODE {result.ring_fraction_ode:.3f} "
               "within 3 sigma of radius 1")


class TestCriterion4StpmSoundness:
    def test_order_two_map_over_two_seconds(self):
        tic = time.perf_counter()
        rng = np.random.default_rng(11)
        dyn = models.attitude_dynamics()
        x0 = models.DEFAULT_INITIAL_STATE.as_vector()
        spec = IntegratorSpec("rk4_fixed", step_size=0.01)
        stpm = build_stpm(x0, dyn, 0.0, 2.0, 2, spec)
        # deviations at 3x the sensor-noise scales, the regime a converged
        # filter feeds the map
        sigma = np.array([0.01] * 4 + [models.GYRO_NOISE_SIGMA] * 6)
        devs = 3.0 * sigma * rng.standard_normal((500, 10))
        mapped = da.evaluate_many(stpm, devs)
        direct = integrate(dyn.f, x0 + devs, 0.0, 2.0, spec)
        rms = np.sqrt(np.mean((mapped - direct) ** 2, axis=0))
        elapsed = time.perf_counter() - tic
        ok = rms.max() < 1e-5 and elapsed < 30.0
        report(4, "order-2 dynamics map soundness", ok,
               f"worst per-component rms {rms.max():.2e} over 500 particles, "
               f"{elapsed:.1f}s")


class TestCriterion5MapCombination:
    def test_composition_equals_sequential_evaluation(self):
        tic = time.perf_counter()
        rng = np.random.default_rng(21)

        # polynomial (linear) test dynamics: composition must be exact
        # coefficientwise against the affine-algebra oracle
        A = 0.4 * rng.normal(size=(2, 2))
        H = rng.normal(size=(1, 2))
        x0 = rng.normal(size=2)
        stpm = build_stpm(x0, linear_dynamics(A), 0.0, 1.0, 1,
                          IntegratorSpec("rk4_fixed", step_size=0.01))
        prior = GaussianBelief(stpm.constant, np.eye(2))
        flow_args = (linear_model(H, [[0.5]]), [0.3], None)
        # 200 RK4 steps over the log pseudo-time
        dense = IntegratorSpec("rk4_fixed", step_size=0.005)
        fmap = build_flow_map(prior, *flow_args, 1, dense)
        # the flow started from the dynamics map is the combined map
        combined = build_flow_map(prior, *flow_args, stpm, dense)
        c1 = stpm.coeffs                    # columns: constant, d0, d1
        c2 = fmap.coeffs
        oracle = np.empty_like(c1)
        oracle[:, 0] = c2[:, 0]             # flow is centered at stpm's constant
        oracle[:, 1:] = c2[:, 1:] @ c1[:, 1:]
        coeff_err = np.abs(combined.coeffs - oracle).max()

        # nonlinear attitude maps: 100 random deviations, sequential oracle
        dyn = models.attitude_dynamics()
        xa = models.DEFAULT_INITIAL_STATE.as_vector()
        model = models.stacked_measurement()
        stpm_a = build_stpm(xa, dyn, 0.0, 2.0, 2,
                            IntegratorSpec("rk4_fixed", step_size=0.01))
        prior_a = GaussianBelief(stpm_a.constant, models.INITIAL_STATE_COV)
        flow_args_a = (model, model.h(stpm_a.constant), None)
        # 50 fixed RK4 steps: at y = h(prior mean) RK7(8) takes one step,
        # and its error estimate misses the map's moving coefficients
        fifty_steps = IntegratorSpec("rk4_fixed", step_size=0.02)
        fmap_a = build_flow_map(prior_a, *flow_args_a, 2, fifty_steps)
        combined_a = build_flow_map(prior_a, *flow_args_a, stpm_a, fifty_steps)
        seq_err = 0.0
        for _ in range(100):
            d = 0.005 * rng.standard_normal(10)
            seq = da.evaluate(fmap_a, da.evaluate(stpm_a, d) - stpm_a.constant)
            seq_err = max(seq_err, np.abs(da.evaluate(combined_a, d) - seq).max())
        elapsed = time.perf_counter() - tic
        ok = coeff_err < 1e-9 and seq_err < 1e-7 and elapsed < 5.0
        report(5, "map combination equals sequential evaluation", ok,
               f"linear coefficientwise {coeff_err:.2e}, nonlinear sequential "
               f"{seq_err:.2e} over 100 deviations, {elapsed:.1f}s")


class TestCriterion6AttitudeRmseParity:
    def test_da_and_ode_filters_agree(self, attitude_mc_scaled):
        summary, elapsed = attitude_mc_scaled
        labels = ("q", "omega", "bias")
        avg_da = summary.time_averaged_rmse("da")
        avg_ode = summary.time_averaged_rmse("ode")
        rel = np.abs(avg_da - avg_ode) / avg_ode
        ok = bool(np.all(rel <= 0.10)) and elapsed < 900.0 and not summary.failed_runs
        report(6, "scaled attitude Monte Carlo RMSE parity", ok,
               ", ".join(f"{l}: da {a:.3e} ode {o:.3e} ({r:.1%})"
                         for l, a, o, r in zip(labels, avg_da, avg_ode, rel))
               + f"; {elapsed:.0f}s")


class TestCriterion7BiasConvergence:
    def test_final_bias_rmse_below_gyro_noise(self, attitude_mc_scaled):
        summary, _ = attitude_mc_scaled
        final_bias_rmse = summary.rmse["da"][-1, 2]
        ok = final_bias_rmse < GYRO_SIGMA_BOUND
        report(7, "bias error settles below gyro noise", ok,
               f"final bias rmse {final_bias_rmse:.3e} rad/s vs {GYRO_SIGMA_BOUND:.2e}"
               + ("" if ok else
                  f" | per-axis {final_bias_rmse / np.sqrt(3.0):.3e}; the 3-axis norm"
                  " stalls above the target when the ensemble fed back as the next"
                  " prior is narrower than the flow's posterior covariance"))


class TestCriterion8Timing:
    def test_da_step_is_faster_and_scales_flatter(self, bench_table):
        rows = bench_table.rows
        step = {(r["method"], r["n_per_dim"]): r["step_seconds"] for r in rows}
        da_fast_at_1000 = step[("da", 1000)] < step[("ode", 1000)]
        slopes = {}
        for method in ("da", "ode"):
            pts = [(r["n_particles"], r["step_seconds"]) for r in rows
                   if r["method"] == method and r["n_per_dim"] in (50, 100, 250)]
            slopes[method] = float(np.polyfit(np.log([p[0] for p in pts]),
                                              np.log([p[1] for p in pts]), 1)[0])
        ok = da_fast_at_1000 and slopes["da"] < slopes["ode"]
        report(8, "polynomial filter is faster and scales flatter", ok,
               f"step at 1000/dim: da {step[('da', 1000)]:.2f}s vs "
               f"ode {step[('ode', 1000)]:.2f}s; slopes da {slopes['da']:.2f} "
               f"vs ode {slopes['ode']:.2f} over 50/100/250 per dim")


class TestCriterion9AlgebraPropertySuite:
    def test_thousand_randomized_cases(self):
        tic = time.perf_counter()
        rng = np.random.default_rng(99)

        # 400 cases: truncated-product remainder sits strictly above the
        # truncation order (the O(|d|^(k+1)) evaluation-homomorphism bound)
        for _ in range(400):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(2, 5))
            ctx = da.AlgebraContext(n, k)
            hi = da.AlgebraContext(n, 2 * k)
            a = da.DAScalar(ctx, rng.normal(size=ctx.size))
            b = da.DAScalar(ctx, rng.normal(size=ctx.size))
            tr = (a * b).terms
            full = _embed(a, hi) * _embed(b, hi)
            for exps, c in full.terms.items():
                if sum(exps) <= k:
                    assert abs(tr.get(exps, 0.0) - c) < 1e-12
            kept = _embed(a * b, hi)
            resid = full.coeffs - kept.coeffs
            low = np.abs(resid[hi.degrees <= k]).max()
            assert low < 1e-12

        # 300 cases: composition associativity, coefficientwise
        for _ in range(300):
            ctx = da.AlgebraContext(2, int(rng.integers(3, 6)))
            ca, cb = rng.normal(size=2), rng.normal(size=2)

            def rand_map(const):
                comps = []
                for i in range(2):
                    p = da.DAScalar(ctx, rng.normal(size=ctx.size) * (ctx.degrees <= 2))
                    p.coeffs[0] = const[i]
                    comps.append(p)
                return comps

            a_map = da.stack(rand_map(rng.normal(size=2)), 0)
            b_map = da.stack(rand_map(ca), 0)
            c_map = da.stack(rand_map(cb), 0)
            left = da.compose(da.compose(a_map, b_map), c_map)
            right = da.compose(a_map, da.compose(b_map, c_map))
            for l, r in zip(left, right):
                scale = max(1.0, np.abs(l.coeffs).max())
                assert np.abs(l.coeffs - r.coeffs).max() < 1e-9 * scale

        # 300 cases: an affine inner map keeps the composed degree within the
        # truncation order, so the composed map evaluates exactly as the
        # outer map at the inner map's image, pinning the ladder on both its
        # polynomial (compose) and its float (evaluate_many) input
        for _ in range(300):
            n = int(rng.integers(1, 5))
            ctx = da.AlgebraContext(n, int(rng.integers(2, 6)))
            center = rng.normal(size=n)
            outer = da.DAScalar(ctx, rng.normal(size=(n, ctx.size)))
            affine = rng.normal(size=(n, ctx.size)) * (ctx.degrees <= 1)
            affine[:, 0] = center
            inner = da.DAScalar(ctx, affine)
            d = rng.normal(size=(3, n))
            got = da.evaluate_many(da.compose(outer, inner), d)
            want = da.evaluate_many(outer, da.evaluate_many(inner, d) - center)
            assert np.abs(got - want).max() < 1e-9 * max(1.0, np.abs(want).max())

        elapsed = time.perf_counter() - tic
        ok = elapsed < 30.0
        report(9, "algebra property suite (1000 randomized cases)", ok,
               f"400 homomorphism + 300 associativity + 300 affine substitution, "
               f"{elapsed:.1f}s")


def _embed(p, target_ctx):
    out = da.DAScalar(target_ctx)
    for exps, c in p.terms.items():
        out.coeffs[target_ctx.index_of(exps)] = c
    return out


class TestThreeSigmaConsistency:
    def test_errors_stay_inside_filter_envelope(self, attitude_mc_scaled):
        # per-component coverage of the 3-sigma envelope, transient excluded
        summary, _ = attitude_mc_scaled
        worst = {}
        for method in ("da", "ode"):
            keep = summary.times > 10.0
            fractions = []
            for run in summary.runs[method]:
                sigma = np.sqrt(np.maximum(
                    np.diagonal(run.covariances, axis1=1, axis2=2), 0.0))
                inside = np.abs(run.errors[keep]) <= 3.0 * sigma[keep]
                fractions.append(inside.mean(axis=0))
            worst[method] = np.min(np.mean(fractions, axis=0))
        assert worst["da"] >= 0.95, worst
        assert worst["ode"] >= 0.95, worst
