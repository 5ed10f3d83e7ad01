"""Measurement loop, metrics and provenance of the daflow benchmark.

An untraced run (``trace=False``) gives the end-to-end metrics; a traced run
gives the per-layer metrics.  See README.md in this directory for what each
metric means and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import micro
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]

# set-up runs per run, by workload; setup_s is their median.  A toy set-up
# is one update, an attitude set-up a truth simulation and one epoch.  An
# untraced run spaces them evenly between its operations, so that a slow
# phase of the host early in the run does not set the median.
SETUP_REPEATS = {"attitude-da": 5, "attitude-ode": 5, "toy-range": 9}
TAIL_BEYOND = 10         # samples the tail percentile must leave above it
TRACED_SHARE = 2 / 3     # share of a traced run's seconds spent tracing
COUNTED_OPS = 3          # leading traced ops the counters average over
UNTRACED_MIN_OPS = 3     # untraced ops in a traced run, for the overhead

END_TO_END = {
    "setup_s": "s",
    "step_rel": "ref",
    "step_tail_rel": "ref",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, how it is read from the traced ops)
_SPAN = "span"           # median over traced ops of the span's seconds
_COUNT = "count"         # mean over the first COUNTED_OPS of the count
PER_LAYER = {
    "filter.build_stpm_s": ("s", _SPAN, "filter.build_stpm"),
    "filter.combine_maps_s": ("s", _SPAN, "filter.combine_maps"),
    "filter.ensemble_stats_s": ("s", _SPAN, "filter.ensemble_stats"),
    "flow.build_flow_map_s": ("s", _SPAN, "flow.build_flow_map"),
    "flow.flow_ensemble_ode_s": ("s", _SPAN, "flow.flow_ensemble_ode"),
    "integrate.calls": ("count", _COUNT, "integrate"),
    "integrate.steps": ("count", _COUNT, "integrate.steps"),
    "integrate.rhs_evals": ("count", _COUNT, "integrate.rhs"),
    "integrate.rk78_attempts": ("count", _COUNT, "integrate.rk78_attempts"),
    "integrate.rk78_rejected": ("count", _COUNT, "integrate.rk78_rejected"),
    "algebra.mul_calls": ("count", _COUNT, "algebra.mul"),
    "algebra.mul_s": ("s", _SPAN, "algebra.mul"),
    "algebra.compose_calls": ("count", _COUNT, "algebra.compose"),
    "algebra.compose_s": ("s", _SPAN, "algebra.compose"),
    "algebra.evaluate_many_s": ("s", _SPAN, "algebra.evaluate_many"),
    "algebra.context_builds": ("count", _COUNT, "algebra.context"),
}
for _model in ("dynamics", "h"):
    for _kind in ("poly", "batch"):
        PER_LAYER[f"models.{_model}_evals.{_kind}"] = ("count", _COUNT, f"models.{_model}.{_kind}")
        PER_LAYER[f"models.{_model}_s.{_kind}"] = ("s", _SPAN, f"models.{_model}.{_kind}")
PER_LAYER["models.h_jac_evals"] = ("count", _COUNT, "models.h_jac")
PER_LAYER["models.h_jac_s"] = ("s", _SPAN, "models.h_jac")

# per-layer metrics computed rather than read off one span or counter
DERIVED = {
    "filter.propagate_s": "s",
    "filter.flow_s": "s",
    "filter.evaluate_s": "s",
    "integrate.self_s": "s",
    "integrate.rk78_accept_ratio": "ratio",
    "models.dynamics_evals": "count",
    "models.dynamics_s": "s",
    "models.h_evals": "count",
    "models.h_s": "s",
    "harness.simulate_truth_s": "s",
    "trace.step_s": "s",
    "trace.untraced_step_s": "s",
    "trace.overhead_s": "s",
    "trace.top_span_share": "ratio",
}
MICRO = {
    "algebra.mul_us.n10o2": "us",
    "algebra.mul_us.n2o8": "us",
    "algebra.compose_ms.n10o2": "ms",
    "algebra.compose_ms.n2o8": "ms",
    "algebra.evaluate_many_ns.n10o2": "ns",
    "algebra.context_ms.n10o2": "ms",
    "algebra.context_ms.n2o8": "ms",
    "algebra.sqrt_us.n2o8": "us",
}


def per_layer_units() -> dict:
    units = {name: spec[0] for name, spec in PER_LAYER.items()}
    units.update(DERIVED)
    units.update(MICRO)
    return units


# ---------------------------------------------------------------------------
# measurement


def set_up(name: str, seed: int, cfg=None):
    """Build and set up the workload once from the seed, from the scenario
    ``cfg`` or else the repository's config; returns it, the set-up's
    seconds and its truth simulation seconds."""
    tic = time.perf_counter()
    workload = WORKLOADS[name](seed, cfg)
    workload.setup()
    return workload, time.perf_counter() - tic, workload.truth_seconds


def run_ops(workload, seconds: float, min_ops: int, recorder=None, reference=None) -> list:
    """Closed loop: run operations until ``seconds`` have passed and at
    least ``min_ops`` have run.  With a ``reference`` list, the workload's
    reference kernel is timed before each operation and its seconds
    appended."""
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < min_ops or time.perf_counter() < deadline:
        if reference is not None:
            tic = time.perf_counter()
            workload.reference_kernel()
            reference.append(time.perf_counter() - tic)
        results.append(workload.run_op(recorder))
    return results


def tail(samples) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it, as
    (value, percentile, samples beyond); the maximum when there are too
    few samples for one."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _step_seconds(results) -> list:
    ok = [r.seconds for r in results if r.failure is None]
    return ok or [r.seconds for r in results]


def _outcome(workload, results) -> dict:
    """Counts and quality findings shared by both kinds of run."""
    quality, problems = workload.quality()
    failures = [r.failure for r in results if r.failure is not None]
    attempted = len(results)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "quality": quality,
        "problems": failures[:5] + problems,
        "correct": not failures and not problems,
    }


def measure(name: str, seed: int, seconds: float, cfg=None) -> dict:
    """Untraced run: the end-to-end metrics."""
    repeats = SETUP_REPEATS[name]
    workload, first, _ = set_up(name, seed, cfg)
    setup_seconds, results, reference = [first], [], []
    for _ in range(repeats - 1):
        results += run_ops(workload, seconds / repeats, 0, reference=reference)
        setup_seconds.append(set_up(name, seed, cfg)[1])
    results += run_ops(workload, seconds / repeats, workload.min_ops() - len(results),
                       reference=reference)
    ok = [i for i, r in enumerate(results) if r.failure is None] or range(len(results))
    steps = [results[i].seconds for i in ok]
    rel = [results[i].seconds / reference[i] for i in ok]
    rel_tail, pct, beyond = tail(rel)
    out = _outcome(workload, results)
    out["metrics"] = {
        "setup_s": statistics.median(setup_seconds),
        "step_rel": statistics.median(rel),
        "step_tail_rel": rel_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    out["wall"] = {"step_s": statistics.median(steps), "step_tail_s": tail(steps)[0],
                   "reference_s": statistics.median(reference)}
    out["step_tail"] = {"percentile": pct, "samples_beyond": beyond, "samples": len(rel)}
    out["step_seconds"] = steps
    out["reference_seconds"] = [reference[i] for i in ok]
    out["digests"] = [r.digest for r in results]
    return out


def measure_traced(name: str, seed: int, seconds: float, cfg=None) -> dict:
    """Traced run: the per-layer metrics, then untraced operations for the
    tracing overhead."""
    builds = [set_up(name, seed, cfg) for _ in range(SETUP_REPEATS[name])]
    workload = builds[-1][0]
    truth_seconds = [t for _, _, truth in builds for t in truth]
    figures = micro.run(seed)
    tracer = Tracer()
    with tracer.models(workload):
        traced = run_ops(workload, seconds * TRACED_SHARE, COUNTED_OPS, tracer)
    plain = run_ops(workload, seconds * (1 - TRACED_SHARE),
                    max(UNTRACED_MIN_OPS, workload.min_ops() - len(traced)))
    out = _outcome(workload, traced + plain)
    metrics = layer_metrics(tracer.ops, traced, plain)
    metrics["harness.simulate_truth_s"] = statistics.median(truth_seconds or [0.0])
    metrics.update(figures)
    out["metrics"] = metrics
    out["digests"] = [r.digest for r in traced + plain]
    return out


def layer_metrics(ops, traced, plain) -> dict:
    """Per-layer metrics from the tracer's per-op spans and counts."""
    spans = [s for s, _ in ops]
    counted = [c for _, c in ops[:COUNTED_OPS]]

    def span(key):
        return statistics.median(s.get(key, 0.0) for s in spans)

    def count(key):
        return sum(c.get(key, 0) for c in counted) / len(counted)

    out = {}
    for name, (_, kind, key) in PER_LAYER.items():
        out[name] = span(key) if kind == _SPAN else count(key)
    for phase in ("propagate", "flow", "evaluate"):
        out[f"filter.{phase}_s"] = statistics.median(
            getattr(r.timing, phase) if r.timing is not None else 0.0 for r in traced)
    out["integrate.self_s"] = statistics.median(
        s.get("integrate", 0.0) - s.get("integrate.rhs", 0.0) for s in spans)
    attempts = out["integrate.rk78_attempts"]
    out["integrate.rk78_accept_ratio"] = (
        1.0 - out["integrate.rk78_rejected"] / attempts if attempts else 1.0)
    for model in ("dynamics", "h"):
        out[f"models.{model}_evals"] = (out[f"models.{model}_evals.poly"]
                                        + out[f"models.{model}_evals.batch"])
        out[f"models.{model}_s"] = statistics.median(
            s.get(f"models.{model}.poly", 0.0) + s.get(f"models.{model}.batch", 0.0)
            for s in spans)
    traced_step = statistics.median(_step_seconds(traced))
    plain_step = statistics.median(_step_seconds(plain))
    out["trace.step_s"] = traced_step
    out["trace.untraced_step_s"] = plain_step
    out["trace.overhead_s"] = traced_step - plain_step
    out["trace.top_span_share"] = statistics.median(
        s.get("root", 0.0) / r.seconds for s, r in zip(spans, traced))
    return out


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(seed: int, thread_vars) -> dict:
    """Environment and source identity to store with every result;
    ``thread_vars`` names the BLAS thread settings to record."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = dirty = None
    if (ROOT / ".git").exists():
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": commit,
        "git_dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }
