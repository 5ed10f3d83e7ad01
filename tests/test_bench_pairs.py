import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def result_line(step_rel, setup_s, correct=True, failed=0):
    """A single-workload result line as ``perfbench/run.py`` prints it."""
    return json.dumps({"correct": correct, "attempted": 40, "failed": failed, "metrics": {
        "step_rel": {"value": step_rel, "unit": "ref"},
        "setup_s": {"value": setup_s, "unit": "s"}}})


def test_summary_of_canned_result_lines(tmp_path):
    # parent step_rel 5.0, 5.1, 5.2, 5.3: median 5.15, IQR 0.15; the change
    # reads lower in three of four pairs
    parent = [(5.0, 0.20), (5.1, 0.30), (5.2, 0.10), (5.3, 0.25)]
    change = [(4.4, 0.22), (5.2, 0.21), (4.5, 0.30), (4.3, 0.24)]
    log = tmp_path / "pairs.jsonl"
    with log.open("w") as out:
        for pair, (p, c) in enumerate(zip(parent, change)):
            # the side that goes first alternates; the log keeps run order
            sides = [("parent", p), ("change", c)]
            for side, values in (sides if pair % 2 == 0 else sides[::-1]):
                # the change's first run reads incorrect
                correct = not (side == "change" and pair == 0)
                result = bench_pairs.normalize(
                    json.loads(result_line(*values, correct=correct)), "attitude-da")
                out.write(json.dumps({"pair": pair, "side": side, "result": result}) + "\n")
    pairs = bench_pairs.read_log(log)
    assert len(pairs) == 4
    rows = {r["metric"]: r for r in bench_pairs.summarize(pairs)}
    assert set(rows) == {"attitude-da.step_rel", "attitude-da.setup_s"}
    step = rows["attitude-da.step_rel"]
    assert step["parent_median"] == pytest.approx(5.15)
    assert step["parent_iqr"] == pytest.approx(0.15)
    assert step["change_median"] == pytest.approx(4.45)
    assert step["rel"] == pytest.approx(4.45 / 5.15 - 1)
    assert (step["better"], step["pairs"], step["resolved"]) == (3, 4, True)
    setup = rows["attitude-da.setup_s"]
    assert setup["parent_median"] == pytest.approx(0.225)
    assert setup["parent_iqr"] == pytest.approx(0.0875)
    assert (setup["better"], setup["resolved"]) == (2, False)
    assert bench_pairs.runs_line(pairs) == ("parent: 4 of 4 runs correct, 0 failed ops; "
                                            "change: 3 of 4 runs correct, 0 failed ops")
    table = bench_pairs.format_rows(bench_pairs.summarize(pairs)).splitlines()
    assert table[2].split() == ["attitude-da.step_rel", "ref", "5.15", "0.15", "4.45",
                                "-13.6%", "3", "of", "4", "yes"]
    # an --workload all line is already prefixed
    line = json.loads(result_line(5.0, 0.2))
    assert bench_pairs.normalize(line, "all") == line


def test_one_pair_reads_not_applicable(tmp_path, capsys):
    # one parent value has an IQR of 0: a move of any size is not resolved
    log = tmp_path / "pairs.jsonl"
    with log.open("w") as out:
        for side, values in (("parent", (5.0, 0.20)), ("change", (4.0, 0.30))):
            result = bench_pairs.normalize(json.loads(result_line(*values)), "toy-range")
            out.write(json.dumps({"pair": 0, "side": side, "result": result}) + "\n")
    rows = {r["metric"]: r for r in bench_pairs.summarize(bench_pairs.read_log(log))}
    step = rows["toy-range.step_rel"]
    assert (step["rel"], step["better"], step["pairs"]) == (pytest.approx(-0.2), 1, 1)
    assert step["resolved"] is None and rows["toy-range.setup_s"]["resolved"] is None
    assert bench_pairs.main(["--from-log", str(log)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[3].split() == ["toy-range.step_rel", "ref", "5", "0", "4", "-20.0%",
                                  "1", "of", "1", "n/a"]


def test_better_counts_by_each_metric_direction():
    # BENCHMARK.json declares the accept ratio and the top span's share
    # better when higher; a metric it does not name counts lower as better
    def line(step_rel, accept, share, other):
        values = {"step_rel": step_rel, "integrate.rk78_accept_ratio": accept,
                  "trace.top_span_share": share, "made.up_metric": other}
        return {"correct": True, "attempted": 40, "failed": 0, "metrics": {
            f"toy-range.{key}": {"value": v, "unit": "x"} for key, v in values.items()}}

    pairs = [(line(5.0, 0.90, 0.50, 1.0), line(4.0, 0.95, 0.40, 2.0)),
             (line(5.0, 0.90, 0.50, 1.0), line(4.5, 0.97, 0.45, 0.5)),
             (line(5.0, 0.90, 0.50, 1.0), line(5.5, 0.80, 0.60, 0.5))]
    directions = bench_pairs.read_directions()
    assert directions["integrate.rk78_accept_ratio"] == "higher"
    assert directions["step_rel"] == "lower"
    rows = {r["metric"]: r["better"] for r in bench_pairs.summarize(pairs)}
    assert rows == {"toy-range.step_rel": 2, "toy-range.integrate.rk78_accept_ratio": 2,
                    "toy-range.trace.top_span_share": 1, "toy-range.made.up_metric": 2}
    table = bench_pairs.format_rows(bench_pairs.summarize(pairs)).splitlines()
    assert table[0].split()[-2:] == ["better", "resolved"]


def test_verdicts_against_the_bounds_of_benchmark_json():
    # ten pairs; BENCHMARK.json bounds step_rel and setup_s at 0.25 and
    # peak_rss_mb at 0.1 of the parent's median
    def line(step_rel, tail, setup_s, rss, self_s):
        values = {"step_rel": step_rel, "step_tail_rel": tail, "setup_s": setup_s,
                  "peak_rss_mb": rss, "integrate.self_s": self_s}
        return {"correct": True, "attempted": 40, "failed": 0, "metrics": {
            f"toy-range.{key}": {"value": v, "unit": "x"} for key, v in values.items()}}

    pairs = []
    for i in range(10):
        # step_rel: 15.0-15.9 against 12.0-12.9, better in 10 of 10;
        # step_tail_rel better in 8 of 10 only; setup_s spread over
        # 0.1-1.0 s; peak_rss_mb 40 against 45 MB, 12.5% worse
        tail_change = 21.0 if i < 2 else 17.0
        pairs.append((line(15.0 + 0.1 * i, 20.0, 0.1 * (i + 1), 40.0, 0.03),
                      line(12.0 + 0.1 * i, tail_change, 0.1 * (i + 1), 45.0, 0.015)))
    bounds = bench_pairs.read_bounds()
    assert bounds == {"step_rel": 0.25, "step_tail_rel": 0.25, "setup_s": 0.25,
                      "peak_rss_mb": 0.1}
    rows = {r["metric"].split(".", 1)[1]: r for r in bench_pairs.summarize(pairs)}
    assert (rows["step_rel"]["verdict"], rows["step_rel"]["claim_met"]) == ("within bound", True)
    assert (rows["step_tail_rel"]["verdict"], rows["step_tail_rel"]["claim_met"]) == (
        "within bound", False)
    assert (rows["setup_s"]["verdict"], rows["setup_s"]["claim_met"]) == ("unresolved", False)
    assert (rows["peak_rss_mb"]["verdict"], rows["peak_rss_mb"]["bound"]) == ("regressed", 0.1)
    # a per-layer metric has no bound and no verdict
    assert (rows["integrate.self_s"]["verdict"], rows["integrate.self_s"]["claim_met"]) == (
        None, None)
    lines = bench_pairs.format_verdicts(bench_pairs.summarize(pairs)).splitlines()
    assert lines == [
        "toy-range.peak_rss_mb: regressed, move +12.5%, parent IQR 0.0%, bound 10%",
        "toy-range.setup_s: unresolved, move +0.0%, parent IQR 81.8%, bound 25%",
        "toy-range.step_rel: within bound, move -19.4%, parent IQR 2.9%, bound 25%, claim met",
        "toy-range.step_tail_rel: within bound, move -15.0%, parent IQR 0.0%, bound 25%",
    ]


def test_resolved_worse_move_within_the_bound_is_named():
    # step_rel 12.00-12.09 against 12.50-12.59, worse by about 4% in every
    # pair with a parent IQR of about 0.4%; step_tail_rel worse by 1.0
    # against a parent IQR of 1.75, so not resolved
    def line(step_rel, tail):
        values = {"step_rel": step_rel, "step_tail_rel": tail}
        return {"correct": True, "attempted": 40, "failed": 0, "metrics": {
            f"toy-range.{key}": {"value": v, "unit": "ref"} for key, v in values.items()}}

    pairs = [(line(12.0 + 0.01 * i, 14.0 + (i % 4)), line(12.5 + 0.01 * i, 15.0 + (i % 4)))
             for i in range(10)]
    rows = {r["metric"].split(".", 1)[1]: r for r in bench_pairs.summarize(pairs)}
    step = rows["step_rel"]
    assert step["resolved"] and 0 < step["rel"] < step["bound"]
    assert (step["verdict"], step["claim_met"]) == ("worse, within bound", False)
    tail = rows["step_tail_rel"]
    assert (tail["resolved"], tail["verdict"]) == (False, "within bound")
    assert bench_pairs.format_verdicts(bench_pairs.summarize(pairs)).splitlines() == [
        "toy-range.step_rel: worse, within bound, move +4.2%, parent IQR 0.4%, bound 25%",
        "toy-range.step_tail_rel: within bound, move +6.7%, parent IQR 11.7%, bound 25%",
    ]


def test_peak_memory_row_shows_the_operations_attempted():
    # peak_rss_mb grows with the operations a run makes, so its row carries
    # each side's median count, read off the report lines of each run
    def run(rss, attempted):
        lines = [json.dumps({"provenance": {"seed": 1}}),
                 json.dumps({"report": {"workload": "toy-range", "attempted": attempted}}),
                 json.dumps({"report": {"workload": "attitude-da", "attempted": 7}})]
        return {"correct": True, "attempted": attempted + 7, "failed": 0,
                "attempted_by_workload": bench_pairs.attempted_by_workload(lines),
                "metrics": {"toy-range.peak_rss_mb": {"value": rss, "unit": "MB"},
                            "toy-range.step_rel": {"value": 5.0, "unit": "ref"}}}

    pairs = [(run(44.0, 116), run(45.0, 170)), (run(44.2, 120), run(45.1, 180)),
             (run(44.1, 118), run(45.3, 176))]
    assert pairs[0][0]["attempted_by_workload"] == {"toy-range": 116, "attitude-da": 7}
    rows = {r["metric"]: r for r in bench_pairs.summarize(pairs)}
    assert rows["toy-range.peak_rss_mb"]["attempted"] == (118, 176)
    assert rows["toy-range.step_rel"]["attempted"] is None
    table = bench_pairs.format_rows(bench_pairs.summarize(pairs)).splitlines()
    assert table[1].split()[-4:] == ["attempted", "118", "->", "176"]
    assert table[2].split()[-1] == "no"  # no count on other rows
    # a log written before the counts were kept has none to show
    for pair in pairs:
        del pair[1]["attempted_by_workload"]
    rows = {r["metric"]: r for r in bench_pairs.summarize(pairs)}
    assert rows["toy-range.peak_rss_mb"]["attempted"] is None
