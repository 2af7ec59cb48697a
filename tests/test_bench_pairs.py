import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    path = REPO / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(name, parent, change):
    return [{"parent": {name: old}, "change": {name: new}} for old, new in zip(parent, change)]


def test_the_end_to_end_metrics_come_from_the_benchmark(bench_pairs):
    end_to_end = bench_pairs._end_to_end()
    assert set(end_to_end) == {"op_a_ms", "op_b_ms", "setup_s", "peak_rss_mb"}
    for better, bound in end_to_end.values():
        assert better in ("lower", "higher") and 0.0 < bound < 1.0


# parent runs, change runs, which way is better, and the verdict at a bound of 0.25
VERDICTS = {
    "same": ([100, 101, 102, 103, 104], [102, 103, 101, 104, 100], "lower", "within bound"),
    "worse by 20 %": ([100, 101, 102, 103, 104], [121, 122, 123, 124, 125], "lower",
                      "within bound"),
    "worse by 30 %": ([100, 101, 102, 103, 104], [131, 132, 133, 134, 135], "lower",
                      "worse beyond bound"),
    "higher, worse by 30 %": ([100, 101, 102, 103, 104], [71, 72, 70, 69, 73], "higher",
                              "worse beyond bound"),
    "higher, better by 30 %": ([100, 101, 102, 103, 104], [131, 132, 133, 134, 135], "higher",
                               "within bound"),
    # the parent's IQR is 0.4 of its median: within the spread, nothing can be told
    "wide parent, same": ([80, 90, 100, 120, 130], [100, 85, 125, 95, 110], "lower",
                          "unresolved"),
    "wide parent, change 60 % worse": ([80, 90, 100, 120, 130], [160, 150, 170, 79, 165], "lower",
                                       "unresolved"),
    # unless every change run beats every parent run
    "wide parent, every change run better": ([80, 90, 100, 120, 130], [50, 60, 79, 70, 65],
                                             "lower", "within bound"),
    "wide parent, higher, every change run better": ([80, 90, 100, 120, 130],
                                                     [131, 140, 150, 135, 160], "higher",
                                                     "within bound"),
}


@pytest.mark.parametrize("case", VERDICTS)
def test_each_metric_gets_one_verdict(bench_pairs, case):
    parent, change, better, verdict = VERDICTS[case]
    summary = bench_pairs._summary(_runs("m", parent, change), {"m": (better, 0.25)})
    assert summary["m"]["verdict"] == verdict
    assert summary["m"]["bound"] == 0.25


def test_a_summary_covers_each_declared_metric_it_has_runs_of(bench_pairs):
    runs = [{"parent": {"op_a_ms": 1.0, "setup_s": 0.1}, "change": {"op_a_ms": 1.0,
                                                                   "setup_s": 0.2}}] * 3
    summary = bench_pairs._summary(runs, bench_pairs._end_to_end())
    assert {name: entry["verdict"] for name, entry in summary.items()} == {
        "op_a_ms": "within bound", "setup_s": "worse beyond bound"}
