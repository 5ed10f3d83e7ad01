"""Shared fixtures; the expensive scenario runs are session-scoped so the
acceptance criteria that share them pay for them once."""

import dataclasses
import time
from pathlib import Path

import pytest

from daflow.harness import ScenarioConfig, bench_timing, run_attitude_mc, run_toy

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TOY_ORDERS = (1, 2, 4, 8)


@pytest.fixture(scope="session")
def toy_sweep():
    """Order sweep on the planar range problem: same 1000 particles, both
    flow routes, configs/toy.json otherwise."""
    toy = ScenarioConfig.from_json(CONFIGS / "toy.json")
    results = {}
    tic = time.perf_counter()
    for order in TOY_ORDERS:
        results[order] = run_toy(dataclasses.replace(toy, order=order))
    return results, time.perf_counter() - tic


@pytest.fixture(scope="session")
def attitude_mc_scaled():
    """Desk-scale attitude Monte Carlo at configs/attitude_scaled.json: 10
    runs, 60 s, 100 particles/dim, order 2, both filters."""
    cfg = ScenarioConfig.from_json(CONFIGS / "attitude_scaled.json")
    tic = time.perf_counter()
    summary = run_attitude_mc(cfg)
    return summary, time.perf_counter() - tic


@pytest.fixture(scope="session")
def bench_table():
    """Filter-step timing on the attitude problem across ensemble sizes, at
    configs/attitude.json."""
    cfg = ScenarioConfig.from_json(CONFIGS / "attitude.json")
    return bench_timing(cfg, [50, 100, 250, 1000])
