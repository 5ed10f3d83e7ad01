"""Experiment runner: scenario configs, the planar-range update study, the
attitude Monte Carlo, timing benchmarks, and CSV emission.

All randomness flows from one master seed; run ``i`` of a Monte Carlo batch
draws from ``default_rng([seed, i])`` so runs are independent and the whole
batch is reproducible byte-for-byte.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import models
from .algebra import DomainError, evaluate_many, truncation_indicator
from .filter import FLOW_SPEC, FilterConfig, FilterState, baseline_pff_step, daruff_step
from .flow import (
    Ensemble,
    GaussianBelief,
    LambdaSchedule,
    build_flow_map,
    flow_ensemble_ode,
    geometric_schedule,
)
from .integrate import IntegrationError, IntegratorSpec

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "ToyResult",
    "AttitudeRun",
    "MCSummary",
    "TimingTable",
    "run_toy",
    "run_attitude_mc",
    "bench_timing",
    "emit_csv",
]

# flow integrator per scenario, each one RK7(8) call over the log
# pseudo-time: the attitude filter's, and for the toy the default tolerance,
# 1e-10, since the toy's DA-vs-ODE agreement is the accuracy oracle of the
# flow map; neither reads the lambda_schedule
FLOW_SPECS = {
    "toy_range": IntegratorSpec("rk78_adaptive"),
    "attitude": FLOW_SPEC,
}
# the attitude filter's settings, which the toy's single flow update has none of
FILTER_KEYS = ("n_mc", "duration", "dt", "meas_period")
# a real-valued config key may be written as an integer, 2 for 2.0
REAL = (int, float)
# timed filter steps per method and ensemble size in bench_timing
BENCH_REPETITIONS = 5
# a filter step's typed failures, which the experiments count instead of stopping
RUN_FAILURES = (IntegrationError, DomainError)
FLOAT_FMT = "%.17g"

# planar toy constants
TOY_PRIOR_MEAN = np.array([-3.5, 0.0])
TOY_PRIOR_COV = np.array([[1.0, 0.5], [0.5, 1.0]])
TOY_MEASUREMENT = 1.0
TOY_NOISE_SIGMA = 0.1
# particles whose flow-map truncation indicator exceeds this lie beyond the
# map's convergence region and are flowed by the per-particle ODE instead;
# one hundredth of the range noise sigma keeps the map's error far below the
# measurement's own resolution
TOY_TRUNCATION_BOUND = 0.01 * TOY_NOISE_SIGMA


class ConfigError(ValueError):
    """A scenario configuration is malformed or inconsistent, or every Monte
    Carlo run of a method fails on it."""


@dataclass
class ScenarioConfig:
    """Flat, JSON-compatible description of one experiment.  The first five
    fields are required; the last four set up the attitude filter, which
    requires them, and the toy, one flow update with no filter, refuses them.
    The filters integrate with ``daflow.filter``'s constants, and ``dt`` is the
    truth simulation's RK4 step only.  ``lambda_schedule`` is validated and
    passed on, but no experiment reads it: every flow spec is RK7(8), which
    takes its own steps.  Every experiment runs both filters."""

    scenario: str
    order: int
    n_particles_per_dim: int
    lambda_schedule: tuple
    seed: int
    n_mc: int | None = None
    duration: float | None = None
    dt: float | None = None
    meas_period: float | None = None

    def __post_init__(self):
        if isinstance(self.lambda_schedule, list):
            self.lambda_schedule = tuple(self.lambda_schedule)
        self.validate()

    def validate(self) -> None:
        if not isinstance(self.scenario, str) or self.scenario not in FLOW_SPECS:
            raise ConfigError(f"scenario must be one of {list(FLOW_SPECS)}, got {self.scenario!r}")
        # the attitude filter needs every filter key; the toy runs no filter
        attitude = self.scenario == "attitude"
        wrong = [name for name in FILTER_KEYS if (getattr(self, name) is None) == attitude]
        if wrong:
            verb = "needs" if attitude else "runs no filter; drop"
            raise ConfigError(f"scenario {self.scenario!r} {verb} config keys: {', '.join(wrong)}")
        if not isinstance(self.lambda_schedule, tuple) or len(self.lambda_schedule) != 3:
            raise ConfigError("lambda_schedule must be [first, last, count]")
        first, last, count = self.lambda_schedule
        typed = [(name, getattr(self, name), int) for name in ("order", "n_particles_per_dim", "seed")]
        typed += [("lambda_schedule count", count, int),
                  ("lambda_schedule first", first, REAL),
                  ("lambda_schedule last", last, REAL)]
        if attitude:
            typed += [("n_mc", self.n_mc, int)]
            typed += [(name, getattr(self, name), REAL) for name in ("duration", "dt", "meas_period")]
        for name, value, kinds in typed:
            # bool is an int to Python, but true is no order or count
            if isinstance(value, bool) or not isinstance(value, kinds):
                what = "an integer" if kinds is int else "a number"
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        if self.order < 1:
            raise ConfigError("order must be >= 1")
        if self.n_particles_per_dim < 1:
            raise ConfigError("n_particles_per_dim must be positive")
        # each run draws from default_rng([seed, i]), which takes no negative seed
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        try:
            self.schedule()
        except ValueError as exc:
            raise ConfigError(f"lambda_schedule {list(self.lambda_schedule)}: {exc}") from exc
        if not attitude:
            return
        if self.n_mc < 1:
            raise ConfigError("n_mc must be positive")
        try:
            models.measurement_epochs(self.duration, self.dt, self.meas_period)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(data) - set(names))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        missing = [name for name in names if name not in data and name not in FILTER_KEYS]
        if missing:
            raise ConfigError(f"missing config keys: {', '.join(missing)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)

    def to_json(self, path) -> None:
        data = {name: value for name, value in asdict(self).items() if value is not None}
        Path(path).write_text(json.dumps(data, indent=2) + "\n")

    def schedule(self) -> LambdaSchedule:
        first, last, count = self.lambda_schedule
        if last != 1:
            raise ValueError(f"the schedule ends at 1, got last = {last}")
        return geometric_schedule(first, count)

    def flow_spec(self) -> IntegratorSpec:
        return FLOW_SPECS[self.scenario]

    def filter_config(self, particle_postprocess=None) -> FilterConfig:
        if self.scenario != "attitude":
            raise ConfigError(f"scenario {self.scenario!r} has no dynamics to integrate")
        return FilterConfig(
            order=self.order,
            schedule=self.schedule(),
            meas_period=self.meas_period,
            particle_postprocess=particle_postprocess,
        )


def _run_seed(master: int, index: int):
    return np.random.default_rng([master, index]), f"{master}:{index}"


# ---------------------------------------------------------------------------
# toy range scenario


@dataclass
class ToyResult:
    """Prior cloud, posterior clouds per method, and their agreement.

    ``n_ode_fallback`` counts the particles of the DA route that lay beyond
    the flow map's convergence region; their DA rows are the ODE route's.
    """

    order: int
    seed_label: str
    prior: np.ndarray
    posterior_da: np.ndarray
    posterior_ode: np.ndarray
    rms_discrepancy: float
    ring_fraction_da: float
    ring_fraction_ode: float
    n_ode_fallback: int


def _ring_fraction(cloud: np.ndarray) -> float:
    gap = np.abs(np.linalg.norm(cloud, axis=1) - TOY_MEASUREMENT)
    return float(np.mean(gap < 3.0 * TOY_NOISE_SIGMA))


def run_toy(cfg: ScenarioConfig) -> ToyResult:
    """Flow one range measurement through a sampled planar prior.

    The DA route evaluates one flow map for the whole cloud, except at the
    particles whose truncation indicator exceeds ``TOY_TRUNCATION_BOUND``:
    those take their rows from the ODE route, which flows every particle
    once with the same prior and schedule.
    """
    if cfg.scenario != "toy_range":
        raise ConfigError(f"run_toy needs scenario 'toy_range', got {cfg.scenario!r}")
    rng, seed_label = _run_seed(cfg.seed, 0)
    n = cfg.n_particles_per_dim * 2
    prior_cloud = rng.multivariate_normal(TOY_PRIOR_MEAN, TOY_PRIOR_COV, size=n)
    prior = GaussianBelief(TOY_PRIOR_MEAN, TOY_PRIOR_COV)
    model = models.range_model(TOY_NOISE_SIGMA)
    schedule = cfg.schedule()
    spec = cfg.flow_spec()
    y = [TOY_MEASUREMENT]

    fmap = build_flow_map(prior, model, y, schedule, cfg.order, spec)
    devs = prior_cloud - TOY_PRIOR_MEAN
    beyond = truncation_indicator(fmap, devs) > TOY_TRUNCATION_BOUND
    post_ode = flow_ensemble_ode(prior_cloud, prior, model, y, schedule, spec)
    post_da = np.where(beyond[:, None], post_ode, evaluate_many(fmap, devs))

    return ToyResult(
        order=cfg.order,
        seed_label=seed_label,
        prior=prior_cloud,
        posterior_da=post_da,
        posterior_ode=post_ode,
        rms_discrepancy=float(np.sqrt(np.mean(np.sum((post_da - post_ode) ** 2, axis=1)))),
        ring_fraction_da=_ring_fraction(post_da),
        ring_fraction_ode=_ring_fraction(post_ode),
        n_ode_fallback=int(beyond.sum()),
    )


# ---------------------------------------------------------------------------
# attitude Monte Carlo


@dataclass
class AttitudeRun:
    """Per-epoch filter output of one Monte Carlo run and one method."""

    seed_label: str
    covariances: np.ndarray
    errors: np.ndarray


@dataclass
class MCSummary:
    """Aggregated Monte Carlo output for the attitude scenario."""

    times: np.ndarray
    rmse: dict
    coverage: dict
    runs: dict
    run_seeds: list
    failed_runs: list

    def time_averaged_rmse(self, method: str) -> np.ndarray:
        return self.rmse[method].mean(axis=0)


BLOCKS = {"q": slice(0, 4), "omega": slice(4, 7), "bias": slice(7, 10)}


def _attitude_setup(cfg: ScenarioConfig) -> tuple:
    """The attitude filter's settings and models, shared by every step."""
    return (cfg.filter_config(particle_postprocess=models.normalize_quaternion_block),
            models.attitude_dynamics(), models.stacked_measurement())


def _draw_truth(rng, cfg: ScenarioConfig, duration: float) -> tuple:
    """A simulated truth and an initial estimate one prior draw off its start."""
    truth = models.simulate_truth(models.DEFAULT_INITIAL_STATE,
                                  models.DEFAULT_PARAMS, duration,
                                  cfg.dt, cfg.meas_period,
                                  seed=rng.integers(2 ** 32))
    xhat0 = models.normalize_quaternion_block(
        truth.initial_state
        + rng.multivariate_normal(np.zeros(models.STATE_DIM), models.INITIAL_STATE_COV)
    )
    return truth, xhat0


def _draw_cloud(rng, xhat0: np.ndarray, n_particles: int) -> np.ndarray:
    """A particle cloud of ``n_particles`` prior draws about the estimate."""
    return xhat0 + rng.multivariate_normal(
        np.zeros(models.STATE_DIM), models.INITIAL_STATE_COV, size=n_particles
    )


def _attitude_filter_run(step, setup, truth, xhat0, particles):
    fcfg, dynamics, measurement = setup
    state = FilterState(0.0, GaussianBelief(xhat0, models.INITIAL_STATE_COV),
                        Ensemble(particles))
    n_epochs = len(truth.times)
    covs = np.empty((n_epochs, models.STATE_DIM, models.STATE_DIM))
    errors = np.empty((n_epochs, models.STATE_DIM))
    for k in range(n_epochs):
        state = step(state, dynamics, measurement, truth.measurements[k], fcfg)
        covs[k] = state.belief.cov
        errors[k] = truth.states[k] - models.normalize_quaternion_block(state.belief.mean)
    return covs, errors


def run_attitude_mc(cfg: ScenarioConfig) -> MCSummary:
    """Monte Carlo attitude estimation: fresh truth, noise, and initial
    ensemble per run; per-epoch block RMSE and 3-sigma coverage per method."""
    if cfg.scenario != "attitude":
        raise ConfigError(f"run_attitude_mc needs scenario 'attitude', got {cfg.scenario!r}")
    setup = _attitude_setup(cfg)
    methods = (("da", daruff_step), ("ode", baseline_pff_step))
    n_particles = cfg.n_particles_per_dim * models.STATE_DIM

    runs = {m: [] for m, _ in methods}
    run_seeds = []
    failed = []
    times = None
    for i in range(cfg.n_mc):
        rng, seed_label = _run_seed(cfg.seed, i)
        run_seeds.append(seed_label)
        truth, xhat0 = _draw_truth(rng, cfg, cfg.duration)
        times = truth.times
        particles = _draw_cloud(rng, xhat0, n_particles)
        for method, step in methods:
            try:
                covs, errors = _attitude_filter_run(step, setup, truth, xhat0, particles)
            except RUN_FAILURES as exc:
                failed.append((i, method, str(exc)))
                continue
            runs[method].append(AttitudeRun(seed_label, covs, errors))

    rmse = {}
    coverage = {}
    for method in runs:
        if not runs[method]:
            detail = "; ".join(f"run {i}: {msg}" for i, m, msg in failed if m == method)
            raise ConfigError(f"every Monte Carlo run diverged for method {method!r} ({detail})")
        errs = np.stack([r.errors for r in runs[method]])          # (runs, epochs, 10)
        covs = np.stack([r.covariances for r in runs[method]])
        rmse[method] = np.stack(
            [np.sqrt(np.mean(np.sum(errs[:, :, blk] ** 2, axis=2), axis=0))
             for blk in BLOCKS.values()],
            axis=1,
        )                                                          # (epochs, 3)
        sigma = np.sqrt(np.maximum(np.diagonal(covs, axis1=2, axis2=3), 0.0))
        coverage[method] = np.mean(np.abs(errs) <= 3.0 * sigma, axis=(0, 1))
    return MCSummary(times=times, rmse=rmse, coverage=coverage, runs=runs,
                     run_seeds=run_seeds, failed_runs=failed)


# ---------------------------------------------------------------------------
# timing benchmark


@dataclass
class TimingTable:
    """Fastest per-step wall clock per (method, ensemble size), plus the
    fitted log-log slope of step time versus particle count per method."""

    rows: list
    slopes: dict


def bench_timing(cfg: ScenarioConfig, particle_grid) -> TimingTable:
    """Time one filter step per method across ensemble sizes.

    ``particle_grid`` is in particles per state dimension.  Each cell runs
    one warm-up step plus ``BENCH_REPETITIONS`` timed steps, each from a
    fresh particle draw that both methods share, and reports each method's
    fastest timed step with that step's phase split: a slow host phase only
    ever adds time, so the fastest step is the steadiest reading of a cell.
    The two methods step on each draw back to back, alternating which goes
    first, and the garbage collector is paused during each timed step.
    A step failing with one of ``RUN_FAILURES`` counts in ``failed_steps``
    and not in the timings; a cell with no timed step left reads NaN, and a
    method with fewer than two timed cells has a NaN slope.
    """
    if cfg.scenario != "attitude":
        raise ConfigError(f"bench_timing needs scenario 'attitude', got {cfg.scenario!r}")
    fcfg, dynamics, measurement = _attitude_setup(cfg)
    rng, _ = _run_seed(cfg.seed, 0)
    truth, xhat0 = _draw_truth(rng, cfg, cfg.meas_period)
    y = truth.measurements[0]

    methods = (("da", daruff_step), ("ode", baseline_pff_step))
    rows = []
    for per_dim in particle_grid:
        n_particles = int(per_dim) * models.STATE_DIM
        draws = [_draw_cloud(rng, xhat0, n_particles) for _ in range(BENCH_REPETITIONS + 1)]
        samples = {method: [] for method, _ in methods}
        failed_steps = dict.fromkeys(samples, 0)
        for rep, particles in enumerate(draws):
            # both methods step on each draw back to back, the one that goes
            # first alternating, so a host phase change moves both alike
            for method, step in (methods if rep % 2 == 0 else methods[::-1]):
                state = FilterState(0.0, GaussianBelief(xhat0, models.INITIAL_STATE_COV),
                                    Ensemble(particles))
                # as in timeit, the collector pauses for the timed step, so a
                # pass set off by earlier allocations is not charged to it
                gc_was_enabled = gc.isenabled()
                gc.disable()
                try:
                    tic = time.perf_counter()
                    out = step(state, dynamics, measurement, y, fcfg)
                    elapsed = time.perf_counter() - tic
                except RUN_FAILURES:
                    failed_steps[method] += 1
                    continue
                finally:
                    if gc_was_enabled:
                        gc.enable()
                if rep > 0:  # discard warm-up
                    samples[method].append((elapsed, out.timing))
        for method, _ in methods:
            row = dict(method=method, n_per_dim=int(per_dim), n_particles=n_particles,
                       step_seconds=np.nan, propagate=np.nan, flow=np.nan,
                       evaluate=np.nan, failed_steps=failed_steps[method])
            cell = samples[method]
            if cell:
                elapsed, timing = min(cell, key=lambda sample: sample[0])
                row.update(step_seconds=elapsed, propagate=timing.propagate,
                           flow=timing.flow, evaluate=timing.evaluate)
            rows.append(row)

    slopes = {}
    for method in ("da", "ode"):
        pts = [(r["n_particles"], r["step_seconds"]) for r in rows
               if r["method"] == method and not np.isnan(r["step_seconds"])]
        if len(pts) < 2:
            slopes[method] = np.nan
            continue
        logn = np.log([p[0] for p in pts])
        logt = np.log([p[1] for p in pts])
        slopes[method] = float(np.polyfit(logn, logt, 1)[0])
    return TimingTable(rows=rows, slopes=slopes)


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FMT % float(value)


def _write_csv(path: Path, header: list, rows) -> Path:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def emit_csv(result, out_dir) -> list:
    """Write a result object to its fixed-schema CSV file(s); returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(result, ToyResult):
        return _emit_toy(result, out)
    if isinstance(result, MCSummary):
        return _emit_mc(result, out)
    if isinstance(result, TimingTable):
        return _emit_timing(result, out)
    raise TypeError(f"no CSV schema for {type(result).__name__}")


def _emit_toy(result: ToyResult, out: Path) -> list:
    n = result.prior.shape[0]
    da, ode = result.posterior_da, result.posterior_ode
    rows = (
        [i, result.prior[i, 0], result.prior[i, 1], da[i, 0], da[i, 1], ode[i, 0], ode[i, 1]]
        for i in range(n)
    )
    particles = _write_csv(
        out / "particles.csv",
        ["particle_id", "x0_prior", "x1_prior", "x0_post_da", "x1_post_da",
         "x0_post_ode", "x1_post_ode"],
        rows,
    )
    summary = _write_csv(
        out / "toy_summary.csv",
        ["order", "seed", "rms_da_vs_ode", "ring_fraction_da", "ring_fraction_ode"],
        [[result.order, result.seed_label, result.rms_discrepancy,
          result.ring_fraction_da, result.ring_fraction_ode]],
    )
    return [particles, summary]


def _emit_mc(summary: MCSummary, out: Path) -> list:
    methods = ("da", "ode")
    header = ["time"] + [f"xi_{blk}_{m}" for m in methods for blk in BLOCKS]
    rows = ([t] + [v for m in methods for v in summary.rmse[m][k]]
            for k, t in enumerate(summary.times))
    rmse_path = _write_csv(out / "rmse.csv", header, rows)

    cov_rows = []
    for m in methods:
        for comp in range(models.STATE_DIM):
            cov_rows.append([m, comp, summary.coverage[m][comp]])
    coverage_path = _write_csv(out / "coverage.csv",
                               ["method", "component", "coverage_3sigma"],
                               cov_rows)
    failed = {}
    for i, method, _ in summary.failed_runs:
        failed.setdefault(i, []).append(method)
    seeds_path = _write_csv(out / "runs.csv", ["run_index", "seed", "failed_methods"],
                            ([i, s, ";".join(failed.get(i, []))]
                             for i, s in enumerate(summary.run_seeds)))
    return [rmse_path, coverage_path, seeds_path]


def _emit_timing(table: TimingTable, out: Path) -> list:
    rows = (
        [r["method"], r["n_per_dim"], r["n_particles"], r["step_seconds"],
         r["propagate"], r["flow"], r["evaluate"], r["failed_steps"]]
        for r in table.rows
    )
    timing_path = _write_csv(
        out / "timing.csv",
        ["method", "n_per_dim", "n_particles", "step_seconds",
         "propagate_seconds", "flow_seconds", "evaluate_seconds", "failed_steps"],
        rows,
    )
    slopes_path = _write_csv(out / "slopes.csv", ["method", "loglog_slope"],
                             ([m, s] for m, s in sorted(table.slopes.items())))
    return [timing_path, slopes_path]
