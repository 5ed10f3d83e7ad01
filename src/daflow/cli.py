"""Command-line entry point: `daflow {toy,attitude,bench,validate}`."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (
    ConfigError,
    ScenarioConfig,
    bench_timing,
    emit_csv,
    run_attitude_mc,
    run_toy,
)
from .integrate import IntegrationError


def _add_common(parser, need_out=True):
    parser.add_argument("--config", required=True, help="scenario config (JSON)")
    parser.add_argument("--order", type=int, help="override truncation order")
    if need_out:
        parser.add_argument("--out", required=True, help="output directory for CSVs")


def _load_config(args) -> ScenarioConfig:
    cfg = ScenarioConfig.from_json(args.config)
    if args.order is None:
        return cfg
    return dataclasses.replace(cfg, order=args.order)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daflow",
        description="Polynomial-map particle flow filtering experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    toy = sub.add_parser("toy", help="planar range-measurement update study")
    _add_common(toy)

    att = sub.add_parser("attitude", help="CubeSat attitude Monte Carlo")
    _add_common(att)

    bench = sub.add_parser("bench", help="filter-step timing across ensemble sizes")
    _add_common(bench)
    bench.add_argument("--particles", required=True,
                       help="comma-separated particles-per-dimension grid, e.g. 50,100,250")

    val = sub.add_parser("validate", help="check a config file and exit")
    _add_common(val, need_out=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "validate":
            print(f"{args.config}: OK ({cfg.scenario}, order {cfg.order}, seed {cfg.seed})")
            return 0
        if args.command == "toy":
            result = run_toy(cfg)
            paths = emit_csv(result, args.out)
            print(f"rms DA vs ODE discrepancy: {result.rms_discrepancy:.6g}; "
                  f"{result.n_ode_fallback} of {len(result.prior)} DA-route particles "
                  "beyond the map's convergence region flowed by ODE")
        elif args.command == "attitude":
            result = run_attitude_mc(cfg)
            paths = emit_csv(result, args.out)
            for method in sorted(result.rmse):
                avg = result.time_averaged_rmse(method)
                print(f"{method}: time-averaged RMSE q={avg[0]:.6g} "
                      f"omega={avg[1]:.6g} bias={avg[2]:.6g}")
            for idx, method, msg in result.failed_runs:
                print(f"run {idx} ({method}) diverged: {msg}", file=sys.stderr)
        else:
            fields = args.particles.split(",")
            if not all(p.isdecimal() and int(p) > 0 for p in fields):
                raise ConfigError(
                    f"--particles must list positive integers, got '{args.particles}'")
            result = bench_timing(cfg, [int(p) for p in fields])
            paths = emit_csv(result, args.out)
            for method, slope in sorted(result.slopes.items()):
                print(f"{method}: log-log step-time slope {slope:.3f}")
            for r in result.rows:
                if r["failed_steps"]:
                    print(f"{r['method']} at {r['n_per_dim']} per dimension: "
                          f"{r['failed_steps']} failed steps left out", file=sys.stderr)
        for p in paths:
            print(f"wrote {p}")
        return 0
    # the experiments account for a failed filter step per run or per step;
    # one that escapes a runner anyway is reported like bad input
    except (ConfigError, OSError, ValueError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
