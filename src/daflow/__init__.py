"""Truncated Taylor-polynomial particle flow filtering toolkit."""

from .algebra import (
    AlgebraContext,
    DAScalar,
    DAVector,
    DomainError,
    compose,
    dump,
    evaluate,
    evaluate_many,
    identity_map,
    make_variable,
    partial_derive,
    reciprocal,
    rsqrt,
    sqrt,
    truncation_indicator,
)
from .filter import (
    DynamicsModel,
    FilterConfig,
    FilterState,
    StepTiming,
    baseline_pff_step,
    build_stpm,
    combine_maps,
    daruff_step,
    ensemble_stats,
    spread_correction,
)
from .flow import (
    Ensemble,
    FlowError,
    GaussianBelief,
    LambdaSchedule,
    MeasurementModel,
    build_flow_map,
    da_jacobian,
    flow_ensemble_ode,
    flow_mean_cov,
    geometric_schedule,
)
from .harness import (
    ConfigError,
    MCSummary,
    ScenarioConfig,
    TimingTable,
    ToyResult,
    bench_timing,
    emit_csv,
    run_attitude_mc,
    run_toy,
)
from .integrate import IntegrationError, IntegratorSpec, Stacked, integrate

__version__ = "0.1.0"
