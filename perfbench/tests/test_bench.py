"""Self-tests of the benchmark, on tiny versions of every workload.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import runner
import workloads
from conftest import BENCH
from tracer import Tracer

# the repository's settings, shrunk to seconds
TINY = {
    "attitude-da": replace(workloads.load_config("attitude"), n_particles_per_dim=3,
                           meas_period=0.1, lambda_schedule=(0.001, 1.0, 8)),
    "toy-range": replace(workloads.load_config("toy"), n_particles_per_dim=20,
                         lambda_schedule=(0.001, 1.0, 8)),
}
TINY["attitude-ode"] = TINY["attitude-da"]
NAMES = sorted(TINY)
OPS = 5


@pytest.fixture(autouse=True)
def tiny_layout(monkeypatch):
    """Short attitude tracks, a loose RMSE gate, and every other toy update
    checked against the per-particle ODE."""
    monkeypatch.setattr(workloads, "TRACK_EPOCHS", 4)
    monkeypatch.setattr(workloads, "RMSE_EPOCHS", 3)
    monkeypatch.setattr(workloads, "RMSE_REFERENCE", {"q": 1.0, "omega": 1.0, "bias": 1.0})
    monkeypatch.setattr(workloads, "CHECK_EVERY", 2)


def _run(name, seed, traced):
    """OPS operations of a tiny workload; returns the digests and the
    tracer."""
    workload = workloads.WORKLOADS[name](seed, TINY[name])
    workload.setup()
    tracer = Tracer()
    if traced:
        with tracer.models(workload):
            results = runner.run_ops(workload, 0.0, OPS, tracer)
    else:
        results = runner.run_ops(workload, 0.0, OPS)
    assert all(r.failure is None for r in results), [r.failure for r in results]
    return [r.digest for r in results], tracer


@pytest.mark.parametrize("name", NAMES)
def test_smoke_untraced(name):
    out = runner.measure(name, 1, 0.01, cfg=TINY[name])
    assert out["correct"], out["problems"]
    assert out["attempted"] >= 1 and out["failed"] == 0
    assert set(out["metrics"]) == set(runner.END_TO_END)
    assert all(math.isfinite(v) and v > 0 for v in out["metrics"].values())
    rel = [s / r for s, r in zip(out["step_seconds"], out["reference_seconds"], strict=True)]
    assert out["metrics"]["step_rel"] == statistics.median(rel)
    assert out["metrics"]["step_tail_rel"] == runner.tail(rel)[0]


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced(name):
    out = runner.measure_traced(name, 1, 0.01, cfg=TINY[name])
    assert out["correct"], out["problems"]
    assert set(out["metrics"]) == set(runner.per_layer_units())
    assert all(math.isfinite(v) for v in out["metrics"].values())
    m = out["metrics"]
    assert m["integrate.calls"] > 0 and m["integrate.steps"] > 0
    if name == "attitude-ode":
        assert m["algebra.mul_calls"] == m["algebra.compose_calls"] == 0
        assert m["algebra.context_builds"] == 0
    else:
        assert m["algebra.mul_calls"] > 0 and m["flow.build_flow_map_s"] > 0
    assert m["models.h_jac_evals"] > 0 and m["models.h_jac_s"] > 0
    if name == "toy-range":
        assert m["integrate.rk78_attempts"] > 0
    else:
        assert m["harness.simulate_truth_s"] > 0 and m["models.dynamics_evals"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_tracing_leaves_outputs_unchanged(name):
    plain, _ = _run(name, 3, traced=False)
    traced, tracer = _run(name, 3, traced=True)
    assert plain == traced
    assert len(tracer.ops) == OPS


@pytest.mark.parametrize("name", NAMES)
def test_counters_repeat_exactly(name):
    _, first = _run(name, 4, traced=True)
    _, second = _run(name, 4, traced=True)
    assert [c for _, c in first.ops] == [c for _, c in second.ops]


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_inputs_not_counter_set(name):
    digests_a, a = _run(name, 5, traced=True)
    digests_b, b = _run(name, 6, traced=True)
    assert not set(digests_a) & set(digests_b)
    assert [sorted(c) for _, c in a.ops] == [sorted(c) for _, c in b.ops]


def test_operations_never_repeat_inputs():
    workload = workloads.ToyWorkload(7, TINY["toy-range"])
    clouds = [workload.inputs(np.random.default_rng([7, 1, i]))[2] for i in range(3)]
    assert not np.array_equal(clouds[0], clouds[1])
    digests, _ = _run("attitude-da", 7, traced=False)
    assert len(set(digests)) == len(digests)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_typed_errors_are_counted(monkeypatch):
    workload = workloads.ToyWorkload(1, TINY["toy-range"])
    inputs = workload.inputs

    def at_origin(rng):
        prior, y, cloud = inputs(rng)
        # range is not differentiable at the origin: sqrt raises DomainError
        return workloads.GaussianBelief(np.zeros(2), prior.cov), y, cloud

    monkeypatch.setattr(workload, "inputs", at_origin)
    results = runner.run_ops(workload, 0.0, 2)
    assert all(r.failure.startswith("DomainError") for r in results)
    out = runner._outcome(workload, results)
    assert out["failed"] == out["attempted"] == 2 and out["failed_frac"] == 1.0
    assert not out["correct"]


def test_rmse_gate_fails_against_a_tiny_reference(monkeypatch):
    monkeypatch.setattr(workloads, "RMSE_REFERENCE", {"q": 1e-9, "omega": 1e-9, "bias": 1e-9})
    out = runner.measure("attitude-da", 1, 0.01, cfg=TINY["attitude-da"])
    assert not out["correct"]
    assert any(p.startswith("rmse_") for p in out["problems"])


def test_tail_rule():
    assert runner.tail(range(1, 21)) == (10, 50.0, 10)
    assert runner.tail(range(1, 101)) == (90, 90.0, 10)
    assert runner.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == runner.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "toy-range", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
