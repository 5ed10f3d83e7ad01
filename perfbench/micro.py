"""Micro-benchmarks of the polynomial algebra at the two context shapes the
workloads use: 10 variables at order 2 (attitude) and 2 variables at
order 8 (toy range).

Operands are random coefficient vectors drawn from the seed; each figure is
the median over REPEATS batches of the time per call, in the unit its name
carries.
"""

from __future__ import annotations

import time

import numpy as np

from daflow import algebra
from daflow.algebra import AlgebraContext, DAScalar, DAVector

REPEATS = 5
BATCH_SECONDS = 0.03      # target length of one timed batch
EVAL_PARTICLES = 20_000   # batch size of the evaluate_many figure

SHAPES = {"n10o2": (10, 2), "n2o8": (2, 8)}


def _per_call(fn, scale: float) -> float:
    """Median seconds per call of ``fn`` times ``scale``."""
    fn()
    tic = time.perf_counter()
    fn()
    once = max(time.perf_counter() - tic, 1e-7)
    n = max(1, int(BATCH_SECONDS / once))
    samples = []
    for _ in range(REPEATS):
        tic = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - tic) / n)
    return float(np.median(samples)) * scale


def _scalar(ctx: AlgebraContext, rng, const: float = 0.0) -> DAScalar:
    coeffs = rng.standard_normal(ctx.size) / (1.0 + ctx.degrees)
    coeffs[0] = const
    return DAScalar(ctx, coeffs)


def _vector(ctx: AlgebraContext, rng) -> DAVector:
    comps = [_scalar(ctx, rng, const=0.0) for _ in range(ctx.n_vars)]
    return DAVector(comps, center=np.zeros(ctx.n_vars))


def run(seed: int) -> dict:
    """Every micro-benchmark figure, keyed by metric name."""
    rng = np.random.default_rng([seed, 3])
    out = {}
    for tag, (n, order) in SHAPES.items():
        out[f"algebra.context_ms.{tag}"] = _per_call(
            lambda: AlgebraContext(n, order).multiplication_table(), 1e3)
        ctx = AlgebraContext(n, order)
        a, b = _scalar(ctx, rng, 1.0), _scalar(ctx, rng, 2.0)
        out[f"algebra.mul_us.{tag}"] = _per_call(lambda: a * b, 1e6)
        outer, inner = _vector(ctx, rng), _vector(ctx, rng)
        out[f"algebra.compose_ms.{tag}"] = _per_call(lambda: algebra.compose(outer, inner), 1e3)
    ctx = AlgebraContext(2, 8)
    pos = _scalar(ctx, rng, const=3.0)
    out["algebra.sqrt_us.n2o8"] = _per_call(lambda: algebra.sqrt(pos), 1e6)
    ctx = AlgebraContext(10, 2)
    vec = _vector(ctx, rng)
    devs = 0.1 * rng.standard_normal((EVAL_PARTICLES, 10))
    out["algebra.evaluate_many_ns.n10o2"] = _per_call(
        lambda: algebra.evaluate_many(vec, devs), 1e9 / EVAL_PARTICLES)
    return out
