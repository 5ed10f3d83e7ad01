"""Alternating benchmark pairs of two checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --workload attitude-da --pairs 6 --seconds 30

runs each checkout's ``perfbench/run.py`` once per pair, the side that
goes first alternating from pair to pair so that a slow phase of the host
falls on both sides alike, and prints one row per metric: the parent's
median and interquartile range (IQR), the change's median, the relative
move of the medians, and in how many pairs the change read better: lower,
or higher for a metric that the repository's ``BENCHMARK.json`` declares
``"better": "higher"`` (looked up without the ``<workload>.`` prefix; a
metric the file does not name counts lower).  A move is resolved when it
exceeds the parent's IQR; with one pair the IQR says nothing, and the
move reads ``n/a``.

Below the table, each end-to-end metric gets a verdict against the
``bound`` that ``BENCHMARK.json`` fixes for it, a share of the parent's
median: ``regressed`` when the change's median is worse than the parent's
by more than the bound, ``unresolved`` when the parent's IQR is wider than
the bound (or there is one pair), ``worse, within bound`` when the median
moved worse by more than the parent's IQR but not past the bound, and
``within bound`` otherwise.  ``claim
met`` marks a metric on which the change read better in at least nine
tenths of the pairs and moved its median by more than the parent's IQR.

``--log`` writes every run's result line to a JSON-lines file as it
comes; ``--from-log`` summarizes such a file without running anything.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
RESOLVED = {True: "yes", False: "no", None: "n/a"}
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


def read_directions() -> dict:
    """``better`` ("lower" or "higher") of each metric ``BENCHMARK.json``
    declares; the file is only read."""
    spec = _benchmark()
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def read_bounds() -> dict:
    """``bound`` of each end-to-end metric ``BENCHMARK.json`` declares: how
    far, as a share of the parent's median, it may worsen; the file is only
    read."""
    return {m["name"]: m["bound"] for m in _benchmark()["end_to_end"]}


def verdict(row: dict, higher: bool) -> str:
    """``regressed``, ``unresolved``, ``worse, within bound`` or ``within
    bound`` for a summary row of an end-to-end metric, against its
    ``bound``."""
    bound = row["bound"]
    worse = -row["rel"] if higher else row["rel"]
    if worse > bound:
        return "regressed"
    if row["resolved"] is None or row["parent_iqr"] > bound * abs(row["parent_median"]):
        return "unresolved"
    if row["resolved"] and worse > 0:
        return "worse, within bound"
    return "within bound"


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
    read better by :func:`read_directions`.  Only metrics present on both
    sides of every pair count.  End-to-end metrics also get their
    :func:`verdict` and whether a claim on them is met; other rows hold
    ``None`` there."""
    directions = read_directions()
    bounds = read_bounds()
    names = set.intersection(*(set(r["metrics"]) for pair in pairs for r in pair))
    rows = []
    for name in sorted(names):
        # names read <workload>.<metric>; workload names hold no dot
        metric = name.split(".", 1)[-1]
        higher = directions.get(metric) == "higher"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        q1, parent_median, q3 = quartiles(parent)
        change_median = statistics.median(change)
        # one parent value has an IQR of 0, which no spread of runs backs
        resolved = abs(change_median - parent_median) > q3 - q1 if len(pairs) > 1 else None
        better = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        row = {
            "metric": name,
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "parent_median": parent_median,
            "parent_iqr": q3 - q1,
            "change_median": change_median,
            "rel": change_median / parent_median - 1.0 if parent_median else float("nan"),
            "better": better,
            "pairs": len(pairs),
            "resolved": resolved,
            "bound": bounds.get(metric),
            "verdict": None,
            "claim_met": None,
        }
        if row["bound"] is not None:
            row["verdict"] = verdict(row, higher)
            moved_better = (change_median > parent_median) if higher else (
                change_median < parent_median)
            row["claim_met"] = bool(resolved) and moved_better and better >= 0.9 * len(pairs)
        rows.append(row)
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
    header = ("metric", "unit", "parent", "parent IQR", "change", "move", "better", "resolved")
    lines = ["  ".join(header)]
    for r in rows:
        lines.append("  ".join([
            r["metric"], r["unit"], f"{r['parent_median']:.4g}", f"{r['parent_iqr']:.3g}",
            f"{r['change_median']:.4g}", f"{100 * r['rel']:+.1f}%",
            f"{r['better']} of {r['pairs']}", RESOLVED[r["resolved"]]]))
    return "\n".join(lines)


def format_verdicts(rows) -> str:
    """One line per end-to-end row: its verdict, the move and the parent's
    IQR as shares of the parent's median, the bound, and a met claim."""
    lines = []
    for r in rows:
        if r["verdict"] is None:
            continue
        iqr = r["parent_iqr"] / abs(r["parent_median"]) if r["parent_median"] else float("nan")
        lines.append(f"{r['metric']}: {r['verdict']}, move {100 * r['rel']:+.1f}%, "
                     f"parent IQR {100 * iqr:.1f}%, bound {100 * r['bound']:.0f}%"
                     + (", claim met" if r["claim_met"] else ""))
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
    rows = summarize(pairs)
    print(runs_line(pairs))
    print(format_rows(rows))
    print(format_verdicts(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
