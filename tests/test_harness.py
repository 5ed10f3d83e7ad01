import dataclasses
import json

import numpy as np
import pytest

from daflow import harness
from daflow.algebra import truncation_indicator
from daflow.cli import main
from daflow.filter import daruff_step
from daflow.flow import FlowError, GaussianBelief, build_flow_map, flow_ensemble_ode
from daflow.harness import (
    TOY_NOISE_SIGMA,
    TOY_PRIOR_COV,
    TOY_PRIOR_MEAN,
    TOY_TRUNCATION_BOUND,
    ConfigError,
    ScenarioConfig,
    emit_csv,
    run_attitude_mc,
    run_toy,
)
from daflow.models import range_model


@pytest.fixture(scope="module")
def small_toy():
    return ScenarioConfig.toy_defaults(order=2, n_particles_per_dim=100)


@pytest.fixture(scope="module")
def tiny_mc():
    return ScenarioConfig.attitude_defaults(
        n_mc=1, duration=6.0, n_particles_per_dim=20, order=1
    )


class TestScenarioConfig:
    def test_defaults_carry_nominal_parameters(self):
        cfg = ScenarioConfig.attitude_defaults()
        assert cfg.n_particles_per_dim == 250
        assert cfg.n_mc == 100
        assert cfg.duration == 120.0
        assert cfg.dt == 0.01
        assert cfg.meas_period == 2.0
        assert cfg.lambda_schedule == (0.001, 1.0, 50)
        assert cfg.integrator == "rk4_fixed"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: particles"):
            ScenarioConfig.from_dict({"scenario": "attitude", "particles": 5})

    @pytest.mark.parametrize("patch", [
        {"scenario": "orbit"},
        {"method": "all"},
        {"order": 0},
        {"n_mc": 0},
        {"duration": -1.0},
        {"lambda_schedule": (0.0, 1.0, 50)},
        {"lambda_schedule": (0.1, 1.0)},
        {"integrator": "rk2"},
        {"rel_tol": 0.0},
        {"innovation": "cubic"},
        {"cov_coupling": "shared"},
        {"dt": 0.03},
    ])
    def test_invalid_values_rejected(self, patch):
        data = {"scenario": "attitude"}
        data.update(patch)
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(data)

    def test_json_round_trip(self, tmp_path):
        cfg = ScenarioConfig.toy_defaults(order=3, seed=7)
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        again = ScenarioConfig.from_json(path)
        assert again == cfg

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            ScenarioConfig.from_json(path)

    def test_scenario_guards(self, small_toy):
        with pytest.raises(ConfigError, match="toy_range"):
            run_toy(ScenarioConfig.attitude_defaults())
        with pytest.raises(ConfigError, match="attitude"):
            run_attitude_mc(small_toy)


class TestRunToy:
    def test_particle_counts_and_agreement(self, small_toy):
        result = run_toy(small_toy)
        assert result.prior.shape == (200, 2)
        assert result.posterior_da.shape == (200, 2)
        assert result.posterior_ode.shape == (200, 2)
        assert result.rms_discrepancy < 0.2
        assert result.ring_fraction_ode > 0.9

    def test_single_method_leaves_other_empty(self):
        cfg = ScenarioConfig.toy_defaults(order=1, n_particles_per_dim=50, method="da")
        result = run_toy(cfg)
        assert result.posterior_ode is None
        assert result.rms_discrepancy is None
        assert result.ring_fraction_da is not None
        assert result.n_ode_fallback == 0  # an affine map flags nothing

    def test_deterministic(self, small_toy):
        a = run_toy(small_toy)
        b = run_toy(small_toy)
        np.testing.assert_array_equal(a.prior, b.prior)
        np.testing.assert_array_equal(a.posterior_da, b.posterior_da)
        np.testing.assert_array_equal(a.posterior_ode, b.posterior_ode)

    def test_order_one_posterior_is_affine_image(self):
        cfg = ScenarioConfig.toy_defaults(order=1, n_particles_per_dim=100)
        result = run_toy(cfg)
        devs = result.prior - [-3.5, 0.0]
        # fit the affine map on three particles, it must predict all others
        A = np.hstack([devs[:3], np.ones((3, 1))])
        coef = np.linalg.solve(A, result.posterior_da[:3])
        predicted = np.hstack([devs, np.ones((len(devs), 1))]) @ coef
        np.testing.assert_allclose(result.posterior_da, predicted, atol=1e-9)

    def test_particles_beyond_convergence_region_are_ode_flowed(self, small_toy):
        result = run_toy(small_toy)
        prior = GaussianBelief(TOY_PRIOR_MEAN, TOY_PRIOR_COV)
        model = range_model(TOY_NOISE_SIGMA)
        fmap = build_flow_map(prior, model, [1.0], small_toy.schedule(),
                              small_toy.order, small_toy.flow_spec())
        devs = result.prior - TOY_PRIOR_MEAN
        beyond = truncation_indicator(fmap, devs) > TOY_TRUNCATION_BOUND
        assert 0 < result.n_ode_fallback == beyond.sum() < len(devs)
        np.testing.assert_array_equal(result.posterior_da[~beyond],
                                      fmap.evaluate_many(devs[~beyond]))
        ode = flow_ensemble_ode(result.prior[beyond], prior, model, [1.0],
                                small_toy.schedule(), small_toy.flow_spec())
        np.testing.assert_array_equal(result.posterior_da[beyond], ode)


class TestEmitCsv:
    def test_toy_schema(self, small_toy, tmp_path):
        result = run_toy(small_toy)
        paths = emit_csv(result, tmp_path)
        lines = paths[0].read_text().splitlines()
        assert lines[0] == ("particle_id,x0_prior,x1_prior,x0_post_da,x1_post_da,"
                            "x0_post_ode,x1_post_ode")
        assert len(lines) == 201
        # 17 significant digits survive a read back
        first = lines[1].split(",")
        assert float(first[1]) == result.prior[0, 0]
        summary = paths[1].read_text().splitlines()
        assert summary[0] == "order,seed,rms_da_vs_ode,ring_fraction_da,ring_fraction_ode"

    def test_toy_nan_fill_for_missing_method(self, tmp_path):
        cfg = ScenarioConfig.toy_defaults(order=1, n_particles_per_dim=50, method="ode")
        paths = emit_csv(run_toy(cfg), tmp_path)
        row = paths[0].read_text().splitlines()[1].split(",")
        assert row[3] == "nan" and row[4] == "nan"
        assert row[5] != "nan"

    def test_rerun_is_byte_identical(self, small_toy, tmp_path):
        a = emit_csv(run_toy(small_toy), tmp_path / "a")
        b = emit_csv(run_toy(small_toy), tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_unknown_result_type(self, tmp_path):
        with pytest.raises(TypeError):
            emit_csv(object(), tmp_path)


class TestAttitudeMc:
    def test_single_run_summary(self, tiny_mc):
        summary = run_attitude_mc(tiny_mc)
        n_epochs = int(tiny_mc.duration / tiny_mc.meas_period)
        assert summary.times.shape == (n_epochs,)
        for method in ("da", "ode"):
            assert summary.rmse[method].shape == (n_epochs, 3)
            assert np.all(summary.rmse[method] >= 0)
            assert summary.coverage[method].shape == (10,)
            assert np.all((summary.coverage[method] >= 0)
                          & (summary.coverage[method] <= 1))
        assert summary.run_seeds == [f"{tiny_mc.seed}:0"]
        assert summary.failed_runs == []

    def test_single_run_rmse_is_error_norm(self, tiny_mc):
        # with one Monte Carlo run the index reduces to the error norm
        summary = run_attitude_mc(tiny_mc)
        run = summary.runs["da"][0]
        np.testing.assert_allclose(
            summary.rmse["da"][:, 0],
            np.linalg.norm(run.errors[:, 0:4], axis=1),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            summary.rmse["da"][:, 2],
            np.linalg.norm(run.errors[:, 7:10], axis=1),
            rtol=1e-12,
        )

    def test_mc_csv_schema(self, tiny_mc, tmp_path):
        summary = run_attitude_mc(tiny_mc)
        paths = emit_csv(summary, tmp_path)
        rmse_lines = paths[0].read_text().splitlines()
        assert rmse_lines[0] == ("time,xi_q_da,xi_omega_da,xi_bias_da,"
                                 "xi_q_ode,xi_omega_ode,xi_bias_ode")
        assert len(rmse_lines) == 1 + len(summary.times)
        cov_lines = paths[1].read_text().splitlines()
        assert cov_lines[0] == "method,component,coverage_3sigma"
        assert len(cov_lines) == 1 + 2 * 10
        runs_lines = paths[2].read_text().splitlines()
        assert runs_lines[0] == "run_index,seed,failed_methods"
        assert runs_lines[1] == "0,0:0,"

    def test_failed_run_is_reported(self, tiny_mc, tmp_path, monkeypatch):
        # three epochs per run: the fourth step is run 1's first epoch
        calls = []

        def step(*args):
            calls.append(None)
            if len(calls) == 4:
                raise FlowError("injected failure")
            return daruff_step(*args)

        monkeypatch.setattr(harness, "daruff_step", step)
        summary = run_attitude_mc(dataclasses.replace(tiny_mc, n_mc=2, method="da"))
        assert summary.failed_runs == [(1, "da", "injected failure")]
        assert [r.seed_label for r in summary.runs["da"]] == ["0:0"]
        runs_lines = emit_csv(summary, tmp_path)[2].read_text().splitlines()
        assert runs_lines == ["run_index,seed,failed_methods", "0,0:0,", "1,0:1,da"]


class TestCli:
    def write_config(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path, ScenarioConfig.toy_defaults())
        assert main(["validate", "--config", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_rejects_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        data = json.loads(json.dumps(ScenarioConfig.toy_defaults().__dict__))
        data["typo_key"] = 1
        path.write_text(json.dumps(data))
        assert main(["validate", "--config", str(path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_file_fails(self, capsys):
        assert main(["validate", "--config", "/nonexistent/cfg.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_toy_run_writes_outputs(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, ScenarioConfig.toy_defaults(order=1, n_particles_per_dim=25))
        out = tmp_path / "out"
        assert main(["toy", "--config", path, "--out", str(out)]) == 0
        assert (out / "particles.csv").exists()
        assert (out / "toy_summary.csv").exists()
        assert "rms DA vs ODE" in capsys.readouterr().out

    def test_cli_overrides_apply(self, tmp_path):
        path = self.write_config(
            tmp_path, ScenarioConfig.toy_defaults(order=1, n_particles_per_dim=25))
        out = tmp_path / "out"
        assert main(["toy", "--config", path, "--order", "2", "--method", "da",
                     "--seed", "5", "--out", str(out)]) == 0
        summary = (out / "toy_summary.csv").read_text().splitlines()[1].split(",")
        assert summary[0] == "2"
        assert summary[1] == "5:0"

    def test_bench_requires_particle_list(self, tmp_path, capsys):
        path = self.write_config(tmp_path, ScenarioConfig.attitude_defaults())
        assert main(["bench", "--config", path, "--particles", "",
                     "--out", str(tmp_path / "o")]) == 1
        assert "particles" in capsys.readouterr().err
