"""Alternating benchmark pairs of two checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --workload attitude-da --pairs 6 --seconds 30

runs each checkout's ``perfbench/run.py`` once per pair, the side that
goes first alternating from pair to pair so that a slow phase of the host
falls on both sides alike, and prints one row per metric: the parent's
median and interquartile range (IQR), the change's median, the relative
move of the medians, and in how many pairs the change read lower.  A move
is resolved when it exceeds the parent's IQR.  ``--log`` writes every
run's result line to a JSON-lines file as it comes; ``--from-log``
summarizes such a file without running anything.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_side(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run of a checkout: its result line, with
    single-workload metric names prefixed ``<workload>.`` as in an
    ``--workload all`` run."""
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: perfbench exited with code {done.returncode}\n"
                           f"{done.stderr}")
    return normalize(json.loads(lines[-1]), workload)


def normalize(result: dict, workload: str) -> dict:
    """``result`` with every metric named ``<workload>.<metric>``."""
    if workload == "all":
        return result
    metrics = {f"{workload}.{key}": m for key, m in result["metrics"].items()}
    return {**result, "metrics": metrics}


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs) -> list:
    """One row per metric over ``pairs`` of ``(parent, change)`` result
    lines: medians, the parent's IQR, and the pairs in which the change
    read lower.  Only metrics present on both sides of every pair count."""
    names = set.intersection(*(set(r["metrics"]) for pair in pairs for r in pair))
    rows = []
    for name in sorted(names):
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        q1, parent_median, q3 = quartiles(parent)
        change_median = statistics.median(change)
        rows.append({
            "metric": name,
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "parent_median": parent_median,
            "parent_iqr": q3 - q1,
            "change_median": change_median,
            "rel": change_median / parent_median - 1.0 if parent_median else float("nan"),
            "lower": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "resolved": abs(change_median - parent_median) > q3 - q1,
        })
    return rows


def runs_line(pairs) -> str:
    """How many runs of each side were correct, and their failed operations."""
    parts = []
    for i, side in enumerate(SIDES):
        results = [pair[i] for pair in pairs]
        correct = sum(bool(r["correct"]) for r in results)
        failed = sum(r["failed"] for r in results)
        parts.append(f"{side}: {correct} of {len(results)} runs correct, {failed} failed ops")
    return "; ".join(parts)


def format_rows(rows) -> str:
    header = ("metric", "unit", "parent", "parent IQR", "change", "move", "lower", "resolved")
    lines = ["  ".join(header)]
    for r in rows:
        lines.append("  ".join([
            r["metric"], r["unit"], f"{r['parent_median']:.4g}", f"{r['parent_iqr']:.3g}",
            f"{r['change_median']:.4g}", f"{100 * r['rel']:+.1f}%",
            f"{r['lower']} of {r['pairs']}", "yes" if r["resolved"] else "no"]))
    return "\n".join(lines)


def read_log(path: Path) -> list:
    """Pairs from a ``--log`` file, in pair order."""
    by_pair = {}
    for line in path.read_text().splitlines():
        entry = json.loads(line)
        by_pair.setdefault(entry["pair"], {})[entry["side"]] = entry["result"]
    return [(sides["parent"], sides["change"]) for _, sides in sorted(by_pair.items())
            if set(sides) == set(SIDES)]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?", help="checkout of the parent")
    parser.add_argument("change", type=Path, nargs="?", help="checkout of the change")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", type=Path, help="write each run's result line here")
    parser.add_argument("--from-log", type=Path, help="summarize this log; run nothing")
    args = parser.parse_args(argv)
    if args.from_log is None and (args.parent is None or args.change is None):
        parser.error("give PARENT and CHANGE, or --from-log")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if args.from_log is not None:
        pairs = read_log(args.from_log)
    else:
        pairs = []
        trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
        if args.log is not None:
            args.log.parent.mkdir(parents=True, exist_ok=True)
            args.log.write_text("")
        for pair in range(args.pairs):
            results = {}
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                results[side] = run_side(trees[side], args.workload, args.seed,
                                         args.seconds, args.trace)
                if args.log is not None:
                    with args.log.open("a") as log:
                        log.write(json.dumps({"pair": pair, "side": side,
                                              "result": results[side]}) + "\n")
                print(f"pair {pair + 1} {side}: correct={results[side]['correct']} "
                      f"failed={results[side]['failed']}", file=sys.stderr, flush=True)
            pairs.append((results["parent"], results["change"]))
    if not pairs:
        print("error: no complete pair", file=sys.stderr)
        return 1
    print(runs_line(pairs))
    print(format_rows(summarize(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
