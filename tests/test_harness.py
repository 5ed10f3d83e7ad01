import dataclasses
import gc
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from daflow import harness
from daflow.algebra import DomainError, evaluate_many, truncation_indicator
from daflow.cli import main
from daflow.filter import DYNAMICS_SPEC, FLOW_SPEC, daruff_step
from daflow.flow import GaussianBelief, build_flow_map, flow_ensemble_ode
from daflow.harness import (
    TOY_NOISE_SIGMA,
    TOY_PRIOR_COV,
    TOY_PRIOR_MEAN,
    TOY_TRUNCATION_BOUND,
    ConfigError,
    ScenarioConfig,
    bench_timing,
    emit_csv,
    run_attitude_mc,
    run_toy,
)
from daflow.integrate import IntegrationError, IntegratorSpec
from daflow.models import range_model

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DROP = object()  # a patch value that removes its key


def committed(name: str, **changes) -> ScenarioConfig:
    """``configs/<name>.json`` with ``changes`` applied."""
    return dataclasses.replace(ScenarioConfig.from_json(CONFIGS / f"{name}.json"), **changes)


@pytest.fixture(scope="module")
def small_toy():
    return committed("toy", order=2, n_particles_per_dim=100)


@pytest.fixture(scope="module")
def tiny_mc():
    return committed("attitude", n_mc=1, duration=6.0, n_particles_per_dim=20, order=1)


class TestScenarioConfig:
    def test_defaults_carry_nominal_parameters(self):
        cfg = ScenarioConfig.from_json(CONFIGS / "attitude.json")
        assert cfg == ScenarioConfig(
            scenario="attitude", order=2, n_particles_per_dim=250, n_mc=100,
            duration=120.0, meas_period=2.0, seed=0)
        assert DYNAMICS_SPEC == IntegratorSpec("dop853")
        assert harness.FLOW_SPECS["attitude"] is FLOW_SPEC
        assert committed("toy").flow_spec() == IntegratorSpec("dop853")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: particles"):
            ScenarioConfig.from_dict({"scenario": "attitude", "particles": 5})
        # retired: every experiment runs both filters
        data = json.loads((CONFIGS / "toy.json").read_text())
        with pytest.raises(ConfigError, match="unknown config keys: method$"):
            ScenarioConfig.from_dict({**data, "method": "both"})
        # retired: the flow takes no schedule and the truth no fixed step,
        # though both names stay as unread fields
        for key, value in (("lambda_schedule", [0.001, 1.0, 50]), ("dt", 0.01)):
            with pytest.raises(ConfigError, match=f"unknown config keys: {key}$"):
                ScenarioConfig.from_dict({**data, key: value})

    @pytest.mark.parametrize("patch", [
        {"scenario": "orbit"},
        {"method": "both"},  # retired key: stale configs must fail
        {"order": 0},
        {"n_mc": 0},
        {"duration": -1.0},
        {"lambda_schedule": (0.001, 1.0, 50)},  # retired key: the flow takes no schedule
        {"meas_period": 0.0},
        {"integrator": "rk2"},
        {"rel_tol": 0.0},
        {"innovation": "cubic"},
        {"cov_coupling": "particle"},  # retired key: stale configs must fail
        {"dt": 0.01},  # retired key: the truth takes no fixed step
        {"innovation": "nonlinear"},  # retired key: stale configs must fail
        {"integrator": "rk4_fixed"},  # retired key: the scenario sets the integrators
        {"seed": DROP},  # every key is required
        {"duration": 63.0},  # off the 2 s measurement grid
        {"duration": 1.0},  # shorter than one measurement period
        {"meas_period": float("nan")},
        {"seed": -1},  # default_rng takes no negative seed
        {"duration": float("inf")},
        {"meas_period": 1e12},  # longer than the duration
    ])
    def test_invalid_values_rejected(self, patch):
        data = json.loads((CONFIGS / "attitude.json").read_text())
        data.update(patch)
        data = {key: value for key, value in data.items() if value is not DROP}
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(data)

    @pytest.mark.parametrize("key,value,message", [
        ("order", 2.5, "order must be an integer"),
        ("order", True, "order must be an integer"),
        ("n_particles_per_dim", 2.5, "n_particles_per_dim must be an integer"),
        ("n_mc", 1.5, "n_mc must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("duration", "60", "duration must be a number"),
        ("meas_period", True, "meas_period must be a number"),
        # the id this case had while the retired keys' cases preceded it
        pytest.param("scenario", ["attitude"], "scenario must be one of",
                     id="scenario-value13-scenario must be one of"),
    ])
    def test_wrong_types_rejected(self, key, value, message):
        # a value of the wrong type fails validation, naming its key, rather
        # than crashing the run or being truncated
        data = json.loads((CONFIGS / "attitude_scaled.json").read_text())
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig.from_dict({**data, key: value})

    def test_json_round_trip(self, tmp_path):
        cfg = committed("toy", order=3, seed=7)
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        again = ScenarioConfig.from_json(path)
        assert again == cfg
        assert len(json.loads(path.read_text())) == 4  # the toy has no filter keys

    @pytest.mark.parametrize("key", ["n_mc", "duration", "meas_period"])
    def test_filter_keys_only_on_attitude(self, key):
        toy = json.loads((CONFIGS / "toy.json").read_text())
        attitude = json.loads((CONFIGS / "attitude.json").read_text())
        with pytest.raises(ConfigError, match=f"'toy_range' runs no filter; drop config keys: {key}$"):
            ScenarioConfig.from_dict({**toy, key: attitude.pop(key)})
        with pytest.raises(ConfigError, match=f"'attitude' needs config keys: {key}$"):
            ScenarioConfig.from_dict(attitude)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            ScenarioConfig.from_json(path)

    @pytest.mark.parametrize("text,message", [
        (json.dumps({**json.loads((CONFIGS / "toy.json").read_text()), "n_particles_per_dim": 0}),
         "n_particles_per_dim must be positive"),
        ("[1, 2]", "config must be a JSON object"),
    ], ids=["no-particles", "not-an-object"])
    def test_rejects_with_message(self, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig.from_json(path)

    def test_scenario_guards(self, small_toy):
        with pytest.raises(ConfigError, match="toy_range"):
            run_toy(committed("attitude"))
        with pytest.raises(ConfigError, match="attitude"):
            run_attitude_mc(small_toy)
        with pytest.raises(ConfigError, match="attitude"):
            bench_timing(small_toy, [2])
        with pytest.raises(ConfigError, match="no dynamics"):
            committed("toy").filter_config()


class TestRunToy:
    def test_particle_counts_and_agreement(self, small_toy):
        result = run_toy(small_toy)
        assert result.prior.shape == (200, 2)
        assert result.posterior_da.shape == (200, 2)
        assert result.posterior_ode.shape == (200, 2)
        assert result.rms_discrepancy < 0.2
        assert result.ring_fraction_ode > 0.9

    def test_deterministic(self, small_toy):
        a = run_toy(small_toy)
        b = run_toy(small_toy)
        np.testing.assert_array_equal(a.prior, b.prior)
        np.testing.assert_array_equal(a.posterior_da, b.posterior_da)
        np.testing.assert_array_equal(a.posterior_ode, b.posterior_ode)

    def test_order_one_posterior_is_affine_image(self):
        cfg = committed("toy", order=1, n_particles_per_dim=100)
        result = run_toy(cfg)
        assert result.n_ode_fallback == 0  # an affine map flags nothing
        devs = result.prior - [-3.5, 0.0]
        # fit the affine map on three particles, it must predict all others
        A = np.hstack([devs[:3], np.ones((3, 1))])
        coef = np.linalg.solve(A, result.posterior_da[:3])
        predicted = np.hstack([devs, np.ones((len(devs), 1))]) @ coef
        np.testing.assert_allclose(result.posterior_da, predicted, atol=1e-9)

    def test_particles_beyond_convergence_region_are_ode_flowed(self, small_toy, monkeypatch):
        calls = []

        def ode(*args, **kwargs):
            calls.append(None)
            return flow_ensemble_ode(*args, **kwargs)

        monkeypatch.setattr(harness, "flow_ensemble_ode", ode)
        result = run_toy(small_toy)
        assert len(calls) == 1  # one ODE pass serves both routes
        prior = GaussianBelief(TOY_PRIOR_MEAN, TOY_PRIOR_COV)
        model = range_model(TOY_NOISE_SIGMA)
        fmap = build_flow_map(prior, model, [1.0], None, small_toy.order,
                              small_toy.flow_spec())
        devs = result.prior - TOY_PRIOR_MEAN
        beyond = truncation_indicator(fmap, devs) > TOY_TRUNCATION_BOUND
        assert 0 < result.n_ode_fallback == beyond.sum() < len(devs)
        np.testing.assert_array_equal(result.posterior_da[~beyond],
                                      evaluate_many(fmap, devs[~beyond]))
        np.testing.assert_array_equal(result.posterior_da[beyond],
                                      result.posterior_ode[beyond])


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

    @pytest.mark.parametrize("config, run", [("small_toy", run_toy),
                                             ("tiny_mc", run_attitude_mc)],
                             ids=["toy", "attitude"])
    def test_rerun_is_byte_identical(self, config, run, request, tmp_path):
        cfg = request.getfixturevalue(config)
        a = emit_csv(run(cfg), tmp_path / "a")
        b = emit_csv(run(cfg), tmp_path / "b")
        assert len(a) == len(b) > 0
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
        # three epochs per run: the fourth polynomial-map step is run 1's first epoch
        calls = []

        def step(*args):
            calls.append(None)
            if len(calls) == 4:
                raise IntegrationError("injected failure")
            return daruff_step(*args)

        monkeypatch.setattr(harness, "daruff_step", step)
        summary = run_attitude_mc(dataclasses.replace(tiny_mc, n_mc=2))
        assert summary.failed_runs == [(1, "da", "injected failure")]
        assert [r.seed_label for r in summary.runs["da"]] == ["0:0"]
        assert [r.seed_label for r in summary.runs["ode"]] == ["0:0", "0:1"]
        runs_lines = emit_csv(summary, tmp_path)[2].read_text().splitlines()
        assert runs_lines == ["run_index,seed,failed_methods", "0,0:0,", "1,0:1,da"]

    def test_ten_second_arc_runs_without_failure(self):
        # configs/attitude_arc10.json shortened to two runs of two epochs;
        # a 50-segment RK4 flow diverged on its first epoch
        cfg = committed("attitude_arc10", n_mc=2, duration=20.0)
        summary = run_attitude_mc(cfg)
        assert summary.failed_runs == []
        for method in ("da", "ode"):
            assert [r.seed_label for r in summary.runs[method]] == ["0:0", "0:1"]
            assert summary.rmse[method].shape == (2, 3)
            assert np.isfinite(summary.rmse[method]).all()

    def test_domain_error_run_is_reported(self, tiny_mc, tmp_path, monkeypatch):
        # three epochs per run: the second polynomial-map step is run 0's second epoch
        calls = []

        def step(*args):
            calls.append(None)
            if len(calls) == 2:
                raise DomainError("injected domain error")
            return daruff_step(*args)

        monkeypatch.setattr(harness, "daruff_step", step)
        summary = run_attitude_mc(dataclasses.replace(tiny_mc, n_mc=2))
        assert summary.failed_runs == [(0, "da", "injected domain error")]
        assert [r.seed_label for r in summary.runs["da"]] == ["0:1"]
        assert [r.seed_label for r in summary.runs["ode"]] == ["0:0", "0:1"]
        runs_lines = emit_csv(summary, tmp_path)[2].read_text().splitlines()
        assert runs_lines == ["run_index,seed,failed_methods", "0,0:0,da", "1,0:1,"]


class TestBenchTiming:
    def test_failed_step_is_counted_in_its_cell(self, tmp_path, monkeypatch):
        # six polynomial-map steps per cell: the ninth is the second cell's
        # second timed step; each records whether the collector ran
        calls = []

        def step(*args):
            calls.append(gc.isenabled())
            if len(calls) == 9:
                raise IntegrationError("injected failure")
            return daruff_step(*args)

        monkeypatch.setattr(harness, "daruff_step", step)
        table = bench_timing(committed("attitude"), [20, 30])
        assert calls == [False] * 12 and gc.isenabled()
        cells = [(r["method"], r["n_per_dim"], r["failed_steps"]) for r in table.rows]
        assert cells == [("da", 20, 0), ("ode", 20, 0), ("da", 30, 1), ("ode", 30, 0)]
        assert all(np.isfinite(r["step_seconds"]) for r in table.rows)
        assert all(np.isfinite(slope) for slope in table.slopes.values())
        lines = emit_csv(table, tmp_path)[0].read_text().splitlines()
        assert lines[0].endswith(",evaluate_seconds,failed_steps")
        assert [line.split(",")[-1] for line in lines[1:]] == ["0", "0", "1", "0"]

        # an error that escapes bench_timing leaves the collector running too
        def escaping(*args):
            raise RuntimeError("injected escape")

        monkeypatch.setattr(harness, "daruff_step", escaping)
        with pytest.raises(RuntimeError, match="injected escape"):
            bench_timing(committed("attitude"), [20])
        assert gc.isenabled()

    def test_methods_alternate_on_each_shared_draw(self, monkeypatch):
        # each draw is stepped by both methods back to back, and the one
        # that goes first alternates from draw to draw
        calls = []

        def recorded(method, step):
            def run(state, *args):
                calls.append((method, state.ensemble.particles.copy()))
                return step(state, *args)
            return run

        monkeypatch.setattr(harness, "daruff_step", recorded("da", daruff_step))
        monkeypatch.setattr(harness, "baseline_pff_step",
                            recorded("ode", harness.baseline_pff_step))
        bench_timing(committed("attitude"), [20])
        pairs = [calls[i:i + 2] for i in range(0, len(calls), 2)]
        assert len(pairs) == harness.BENCH_REPETITIONS + 1
        assert [[method for method, _ in pair] for pair in pairs] == [
            ["da", "ode"] if rep % 2 == 0 else ["ode", "da"] for rep in range(len(pairs))]
        for (_, first), (_, second) in pairs:
            np.testing.assert_array_equal(first, second)
        assert not np.array_equal(pairs[0][0][1], pairs[1][0][1])

    def test_cell_reports_its_fastest_timed_step(self, monkeypatch):
        # each step advances a fake clock by a scripted time and reports it
        # as its phase split: the cell reads the fastest timed step and that
        # step's split, never the warm-up's
        clock = [0.0]
        durations = {"da": [0.001, 0.05, 0.02, 0.004, 0.03, 0.01],
                     "ode": [0.5, 0.3, 0.1, 0.2, 0.6, 0.4]}

        def scripted(method):
            def step(*args):
                seconds = durations[method].pop(0)
                clock[0] += seconds
                return SimpleNamespace(timing=SimpleNamespace(
                    propagate=seconds, flow=2 * seconds, evaluate=3 * seconds))
            return step

        monkeypatch.setattr(harness, "daruff_step", scripted("da"))
        monkeypatch.setattr(harness, "baseline_pff_step", scripted("ode"))
        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        da, ode = bench_timing(committed("attitude"), [20]).rows
        assert [da[k] for k in ("step_seconds", "propagate", "flow", "evaluate")] == \
            pytest.approx([0.004, 0.004, 0.008, 0.012])
        assert [ode[k] for k in ("step_seconds", "propagate", "flow", "evaluate")] == \
            pytest.approx([0.1, 0.1, 0.2, 0.3])

    def test_cell_without_timed_steps_reads_nan(self, monkeypatch):
        def step(*args):
            raise IntegrationError("injected failure")

        monkeypatch.setattr(harness, "daruff_step", step)
        table = bench_timing(committed("attitude"), [20])
        da, ode = table.rows
        assert da["failed_steps"] == harness.BENCH_REPETITIONS + 1
        assert np.isnan([da["step_seconds"], da["propagate"], da["flow"],
                         da["evaluate"]]).all()
        assert ode["failed_steps"] == 0 and np.isfinite(ode["step_seconds"])
        # one timed cell per method fits no slope
        assert np.isnan(table.slopes["da"]) and np.isnan(table.slopes["ode"])


class TestCli:
    def write_config(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path, committed("toy"))
        assert main(["validate", "--config", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_rejects_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        data = json.loads((CONFIGS / "toy.json").read_text())
        data["typo_key"] = 1
        path.write_text(json.dumps(data))
        assert main(["validate", "--config", str(path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", [63.0, 1.0])
    def test_validate_rejects_duration_off_the_grid(self, tmp_path, capsys, duration):
        # the truth runs whole epochs; rounding 1.0 s to none would leave nan RMSEs
        path = tmp_path / "bad.json"
        data = json.loads((CONFIGS / "attitude_scaled.json").read_text())
        path.write_text(json.dumps({**data, "duration": duration}))
        assert main(["validate", "--config", str(path)]) == 1
        assert "duration must be a whole multiple" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("seed", -1, "seed must be non-negative"),
        ("duration", float("inf"), "duration must be positive and finite"),
        ("meas_period", 1e12, "duration must be a whole multiple (>= 1) of meas_period"),
    ], ids=["seed", "duration", "meas_period"])
    def test_validate_rejects_a_setting_every_run_would_fail_on(
            self, tmp_path, capsys, key, value, message):
        path = tmp_path / "bad.json"
        data = json.loads((CONFIGS / "attitude_scaled.json").read_text())
        path.write_text(json.dumps({**data, key: value}))  # inf is written Infinity
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert message in err[0]

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
    def test_committed_config_loads(self, path, capsys):
        ScenarioConfig.from_json(path)
        assert main(["validate", "--config", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_missing_file_fails(self, capsys):
        assert main(["validate", "--config", "/nonexistent/cfg.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_toy_run_writes_outputs(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, committed("toy", order=1, n_particles_per_dim=25))
        out = tmp_path / "out"
        assert main(["toy", "--config", path, "--out", str(out)]) == 0
        assert (out / "particles.csv").exists()
        assert (out / "toy_summary.csv").exists()
        assert "rms DA vs ODE" in capsys.readouterr().out

    @pytest.mark.parametrize("fails,code,err", [
        (lambda call: False, 0, []),
        # three epochs per run: the fourth polynomial-map step is run 1's first epoch
        (lambda call: call == 4, 0, ["run 1 (da) diverged: injected failure"]),
        (lambda call: True, 1, ["error: every Monte Carlo run diverged for method 'da' "
                                "(run 0: injected failure; run 1: injected failure)"]),
    ], ids=["no-failure", "one-run-fails", "every-run-fails"])
    def test_attitude_run(self, tiny_mc, tmp_path, capsys, monkeypatch, fails, code, err):
        calls = []

        def step(*args):
            calls.append(None)
            if fails(len(calls)):
                raise IntegrationError("injected failure")
            return daruff_step(*args)

        monkeypatch.setattr(harness, "daruff_step", step)
        path = self.write_config(tmp_path, dataclasses.replace(tiny_mc, n_mc=2))
        out = tmp_path / "out"
        assert main(["attitude", "--config", path, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err.splitlines() == err
        if code:
            assert not out.exists()
            return
        assert sorted(p.name for p in out.iterdir()) == ["coverage.csv", "rmse.csv", "runs.csv"]
        rmse_lines = [line for line in captured.out.splitlines() if "time-averaged RMSE" in line]
        assert [line.split(":")[0] for line in rmse_lines] == ["da", "ode"]

    def test_cli_overrides_apply(self, tmp_path):
        path = self.write_config(
            tmp_path, committed("toy", order=1, n_particles_per_dim=25))
        out = tmp_path / "out"
        assert main(["toy", "--config", path, "--order", "2", "--out", str(out)]) == 0
        summary = (out / "toy_summary.csv").read_text().splitlines()[1].split(",")
        assert summary[0] == "2"
        assert summary[1] == "0:0"

    def test_bench_refuses_toy(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["bench", "--config", str(CONFIGS / "toy.json"), "--particles", "2",
                     "--out", str(out)]) == 1
        assert "bench_timing needs scenario 'attitude', got 'toy_range'" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_reports_a_failed_step(self, tmp_path, capsys, monkeypatch):
        def bench_timing(cfg, grid):
            raise IntegrationError("non-finite state at t=0.25")

        monkeypatch.setattr("daflow.cli.bench_timing", bench_timing)
        out = tmp_path / "o"
        assert main(["bench", "--config", str(CONFIGS / "attitude.json"), "--particles", "2",
                     "--out", str(out)]) == 1
        assert "error: non-finite state at t=0.25" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_reports_failed_steps_and_exits_zero(self, tmp_path, capsys, monkeypatch):
        def bench_timing(cfg, grid):
            rows = [dict(method=m, n_per_dim=2, n_particles=20, step_seconds=0.1,
                         propagate=0.0, flow=0.0, evaluate=0.0, failed_steps=f)
                    for m, f in (("da", 2), ("ode", 0))]
            return harness.TimingTable(rows=rows, slopes={"da": np.nan, "ode": np.nan})

        monkeypatch.setattr("daflow.cli.bench_timing", bench_timing)
        out = tmp_path / "o"
        assert main(["bench", "--config", str(CONFIGS / "attitude.json"), "--particles", "2",
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["da at 2 per dimension: 2 failed steps left out"]
        assert (out / "timing.csv").exists()

    @pytest.mark.parametrize("grid", ["", "0", "-3", "1.5"])
    def test_bench_requires_particle_list(self, tmp_path, capsys, grid):
        path = self.write_config(tmp_path, committed("attitude"))
        assert main(["bench", "--config", path, "--particles", grid,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"--particles must list positive integers, got '{grid}'" in err
