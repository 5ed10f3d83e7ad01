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
    assert (step["lower"], step["pairs"], step["resolved"]) == (3, 4, True)
    setup = rows["attitude-da.setup_s"]
    assert setup["parent_median"] == pytest.approx(0.225)
    assert setup["parent_iqr"] == pytest.approx(0.0875)
    assert (setup["lower"], setup["resolved"]) == (2, False)
    assert bench_pairs.runs_line(pairs) == ("parent: 4 of 4 runs correct, 0 failed ops; "
                                            "change: 3 of 4 runs correct, 0 failed ops")
    table = bench_pairs.format_rows(bench_pairs.summarize(pairs)).splitlines()
    assert table[2].split() == ["attitude-da.step_rel", "ref", "5.15", "0.15", "4.45",
                                "-13.6%", "3", "of", "4", "yes"]
    # an --workload all line is already prefixed
    line = json.loads(result_line(5.0, 0.2))
    assert bench_pairs.normalize(line, "all") == line
