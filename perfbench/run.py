"""Benchmark of the daflow filters, end to end and per layer.

    python3 perfbench/run.py --workload attitude-da --seed 1 --seconds 30 --trace 0

runs one workload from the repository's ``src/`` for ``--seconds`` seconds
and prints a JSON report line, then a result line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A readable
table goes to standard error.  ``--workload all`` runs every workload in a
process of its own, one after the other, passes their lines through, and
prints one result line for all of them with metrics named
``<workload>.<metric>``.

BLAS runs single-threaded: the thread variables are pinned before numpy is
imported and recorded in the report.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAMES = ("attitude-da", "attitude-ode", "toy-range")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_one(runner, name, args) -> dict:
    if args.trace:
        out = runner.measure_traced(name, args.seed, args.seconds)
        units = runner.per_layer_units()
    else:
        out = runner.measure(name, args.seed, args.seconds)
        units = runner.END_TO_END
    out["metrics"] = {key: {"value": out["metrics"][key], "unit": unit}
                      for key, unit in units.items()}
    report = {"workload": name, "seconds": args.seconds, "trace": args.trace,
              **{k: v for k, v in out.items() if k != "digests"}}
    print(json.dumps({"report": report}))
    print(f"\n{name}  seed={args.seed}  trace={args.trace}  correct={out['correct']}  "
          f"attempted={out['attempted']}  failed={out['failed']}  "
          f"failed_frac={out['failed_frac']:.3g}", file=sys.stderr)
    for key, value in out["quality"].items():
        print(f"  {key:34s} {value:.6g}", file=sys.stderr)
    for key, value in out.get("wall", {}).items():
        print(f"  {key:34s} {value:.6g} s", file=sys.stderr)
    if "step_tail" in out:
        t = out["step_tail"]
        print(f"  {'step_tail percentile':34s} {t['percentile']:.1f} "
              f"({t['samples_beyond']} of {t['samples']} samples beyond)", file=sys.stderr)
    for key, m in out["metrics"].items():
        print(f"  {key:34s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for problem in out["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)
    return out


def _run_all(args) -> int:
    """Each workload in a child process of its own, so that each gets a
    fresh interpreter and its own peak memory."""
    results = {}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": m for name, r in results.items()
                    for key, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "daflow" / "__init__.py").is_file():
        print(f"error: no daflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return _run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import runner

    print(json.dumps({"provenance": runner.provenance(args.seed, THREAD_VARS)}))
    out = _run_one(runner, args.workload, args)
    print(json.dumps({key: out[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
