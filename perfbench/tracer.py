"""Per-layer tracing from outside the program.

Nothing under ``src/`` is edited.  While an operation is recorded, the
tracer rebinds the names callers look up at call time (``daflow.filter``'s
imported ``build_flow_map``, ``daflow.flow.integrate``, ``DAScalar.__mul__``
and so on) to wrappers that time and count each call, and restores the
originals afterwards.  Model callables are wrapped by :meth:`Tracer.models`
and record only while an operation is recorded.

A span's time includes the spans nested in it.  ``integrate.self_s`` is the
integrator's span minus the right-hand-side calls it made: the RK stage
arithmetic, finite checks and error control.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from functools import wraps

import numpy as np

from daflow import algebra, filter as dfilter, flow
from daflow.algebra import AlgebraContext, DAScalar

RK4_STAGES = 4
RK78_STAGES = 13   # every Fehlberg 7(8) attempt evaluates all 13 stages


class Tracer:
    """Spans and counters of the operations recorded so far, one dict per
    operation."""

    def __init__(self):
        self.active = False
        self.ops = []             # (span seconds, counts) per recorded op
        self._spans = None
        self._counts = None
        self._depth = 0
        self._saved = []

    # -- recording ---------------------------------------------------------

    def __enter__(self):
        self._spans = defaultdict(float)
        self._counts = defaultdict(int)
        self._depth = 0
        self._install()
        self.active = True
        return self

    def __exit__(self, *exc):
        self.active = False
        self._uninstall()
        self.ops.append((dict(self._spans), dict(self._counts)))
        return False

    def _span(self, name, fn):
        """Wrap ``fn`` so each call adds its duration to span ``name``;
        calls made outside any other span also add to ``root``."""
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._depth += 1
            tic = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - tic
                tracer._depth -= 1
                tracer._spans[name] += dt
                tracer._counts[name] += 1
                if tracer._depth == 0:
                    tracer._spans["root"] += dt

        return wrapper

    # -- rebinding ---------------------------------------------------------

    def _targets(self):
        """(owner, attribute, replacement) for every rebound name."""
        out = []
        for owner, attr, span in (
            (dfilter, "build_stpm", "filter.build_stpm"),
            (dfilter, "combine_maps", "filter.combine_maps"),
            (dfilter, "ensemble_stats", "filter.ensemble_stats"),
            (dfilter, "build_flow_map", "flow.build_flow_map"),
            (flow, "build_flow_map", "flow.build_flow_map"),
            (dfilter, "flow_ensemble_ode", "flow.flow_ensemble_ode"),
            (flow, "flow_ensemble_ode", "flow.flow_ensemble_ode"),
            (dfilter, "evaluate_many", "algebra.evaluate_many"),
            (algebra, "evaluate_many", "algebra.evaluate_many"),
            (dfilter, "compose", "algebra.compose"),
            (flow, "compose", "algebra.compose"),
        ):
            out.append((owner, attr, self._span(span, getattr(owner, attr))))
        for owner in (dfilter, flow):
            out.append((owner, "integrate", self._integrate(owner.integrate)))
        out.append((DAScalar, "__mul__", self._mul(DAScalar.__mul__)))
        out.append((AlgebraContext, "__init__", self._context_init(AlgebraContext.__init__)))
        return out

    def _install(self):
        targets = self._targets()
        self._saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        for owner, attr, repl in targets:
            setattr(owner, attr, repl)

    def _uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    def _integrate(self, fn):
        """Integrator span plus step accounting read off the ``t`` values its
        right-hand side sees."""
        tracer = self
        span = self._span("integrate", fn)
        rhs_span = "integrate.rhs"

        def integrate(rhs, y0, t0, t1, spec):
            ts = []
            timed_rhs = tracer._span(rhs_span, rhs)

            def traced_rhs(y, t):
                ts.append(t)
                return timed_rhs(y, t)

            try:
                return span(traced_rhs, y0, t0, t1, spec)
            finally:
                c = tracer._counts
                if spec.method == "rk4_fixed":
                    c["integrate.steps"] += len(ts) // RK4_STAGES
                else:
                    starts = ts[::RK78_STAGES]
                    rejected = sum(a == b for a, b in zip(starts, starts[1:]))
                    c["integrate.rk78_attempts"] += len(starts)
                    c["integrate.rk78_rejected"] += rejected
                    c["integrate.steps"] += len(starts) - rejected

        return integrate

    def _mul(self, fn):
        """Polynomial-by-polynomial products only; scaling by a float is not
        a multiply of the algebra."""
        tracer = self

        def mul(a, b):
            if not (tracer.active and type(b) is DAScalar):
                return fn(a, b)
            tic = time.perf_counter()
            out = fn(a, b)
            tracer._spans["algebra.mul"] += time.perf_counter() - tic
            tracer._counts["algebra.mul"] += 1
            return out

        return mul

    def _context_init(self, fn):
        tracer = self

        def init(ctx, *args, **kwargs):
            if tracer.active:
                tracer._counts["algebra.context"] += 1
            return fn(ctx, *args, **kwargs)

        return init

    # -- model callables -------------------------------------------------------

    @contextmanager
    def models(self, workload):
        """Within the block, the workload's dynamics and measurement
        callables are wrappers that time them: ``f`` and ``h`` split by
        polynomial or float input, and the measurement's analytic Jacobian
        ``jac``, which only takes floats, as ``models.h_jac``."""
        saved = {}
        for attr, name in (("dynamics", "models.dynamics"), ("measurement", "models.h"),
                           ("model", "models.h")):
            obj = getattr(workload, attr, None)
            if obj is None:
                continue
            saved[attr] = obj
            if attr == "dynamics":
                wrapped = {"f": self._model(name, obj.f)}
            else:
                wrapped = {"h": self._model(name, obj.h)}
                if obj.jac is not None:
                    wrapped["jac"] = self._span("models.h_jac", obj.jac)
            setattr(workload, attr, replace(obj, **wrapped))
        try:
            yield
        finally:
            for attr, obj in saved.items():
                setattr(workload, attr, obj)

    def _model(self, name, fn):
        poly = self._span(name + ".poly", fn)
        batch = self._span(name + ".batch", fn)

        def model(x, *args):
            kind = poly if np.asarray(x).dtype == object else batch
            return kind(x, *args)

        return model
