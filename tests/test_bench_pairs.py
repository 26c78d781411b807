"""The paired-benchmark summary of `tools/bench_pairs.py`, on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "instances_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
]


def _pairs(parent, change, name="instances_per_s"):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("9101-9103,9200") == [9101, 9102, 9103, 9200]
    assert bench_pairs.parse_seeds("7") == [7]


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert bench_pairs.quartiles([6.0]) == {"q1": 6.0, "median": 6.0, "q3": 6.0}


def test_summary_counts_wins_in_the_metric_direction_and_ties_for_neither():
    pairs = _pairs([100.0, 110.0, 90.0, 105.0, 95.0], [120.0, 110.0, 80.0, 130.0, 125.0])
    s = bench_pairs.summarize(pairs, METRICS)
    assert list(s) == ["instances_per_s"]  # no pair has the RSS
    s = s["instances_per_s"]
    assert (s["wins"], s["losses"], s["pairs"]) == (3, 1, 5)
    assert s["parent"] == {"q1": 95.0, "median": 100.0, "q3": 105.0}
    assert s["change"] == {"q1": 110.0, "median": 120.0, "q3": 125.0}
    assert s["median_change_pct"] == pytest.approx(20.0)
    assert s["parent_iqr"] == 10.0 and s["beyond_parent_iqr"]

    rss = bench_pairs.summarize(_pairs([40.0, 41.0, 42.0], [40.5, 40.0, 42.0], "peak_rss_mb"), METRICS)["peak_rss_mb"]
    assert (rss["wins"], rss["losses"]) == (1, 1)  # lower is better; the tie counts for neither
    assert rss["parent_iqr"] == 1.0 and not rss["beyond_parent_iqr"]


def test_a_gain_within_the_parent_spread_or_the_wrong_way_is_not_beyond_it():
    within = bench_pairs.summarize(_pairs([90.0, 100.0, 110.0], [95.0, 105.0, 115.0]), METRICS)["instances_per_s"]
    assert within["wins"] == 3 and within["parent_iqr"] == 10.0 and not within["beyond_parent_iqr"]
    worse = bench_pairs.summarize(_pairs([100.0, 100.0, 100.0], [50.0, 50.0, 50.0]), METRICS)["instances_per_s"]
    assert worse["losses"] == 3 and not worse["beyond_parent_iqr"]


def test_a_median_at_the_bound_is_within_it_and_one_beyond_is_not():
    # 25% fewer instances per second is at the bound, 26% beyond it
    at = bench_pairs.summarize(_pairs([100.0, 100.0, 100.0], [75.0, 75.0, 75.0]), METRICS)["instances_per_s"]
    assert at["within_bound"]
    beyond = bench_pairs.summarize(_pairs([100.0, 100.0, 100.0], [74.0, 74.0, 74.0]), METRICS)["instances_per_s"]
    assert not beyond["within_bound"]
    # lower is better: 5% more memory is at the bound, more is beyond it
    rss = bench_pairs.summarize(_pairs([40.0, 40.0], [42.0, 42.0], "peak_rss_mb"), METRICS)["peak_rss_mb"]
    assert rss["within_bound"]
    rss = bench_pairs.summarize(_pairs([40.0, 40.0], [42.5, 42.5], "peak_rss_mb"), METRICS)["peak_rss_mb"]
    assert not rss["within_bound"]
    # a gain is always within
    assert bench_pairs.summarize(_pairs([100.0], [200.0]), METRICS)["instances_per_s"]["within_bound"]


def test_a_gain_is_resolved_by_nine_wins_in_ten_beyond_the_parent_iqr():
    parent = [100.0 + k for k in range(10)]  # median 104.5, quartiles 102.25 and 106.75
    nine = bench_pairs.summarize(_pairs(parent, [115.0] * 9 + [90.0]), METRICS)["instances_per_s"]
    assert (nine["wins"], nine["parent_iqr"], nine["resolved"]) == (9, 4.5, True)
    eight = bench_pairs.summarize(_pairs(parent, [115.0] * 8 + [90.0] * 2), METRICS)["instances_per_s"]
    assert eight["wins"] == 8 and eight["beyond_parent_iqr"] and not eight["resolved"]
    # ten wins, but the medians are 4 apart, within the parent's IQR of 4.5
    close = bench_pairs.summarize(_pairs(parent, [p + 4.0 for p in parent]), METRICS)["instances_per_s"]
    assert close["wins"] == 10 and not close["beyond_parent_iqr"] and not close["resolved"]
    # lower is better: fewer MB in every pair, beyond the IQR
    rss = bench_pairs.summarize(_pairs([40.0, 41.0, 40.0], [30.0, 30.0, 30.0], "peak_rss_mb"), METRICS)["peak_rss_mb"]
    assert rss["resolved"]


def test_a_parent_spread_wider_than_the_bound_is_flagged():
    # three pairs: the parent's IQR is half its range.  26 on a median of 100
    # is wider than the 25% bound; 25 is at it
    wide = bench_pairs.summarize(_pairs([74.0, 100.0, 126.0], [100.0] * 3), METRICS)["instances_per_s"]
    assert wide["parent_iqr"] == 26.0 and wide["spread_exceeds_bound"]
    at = bench_pairs.summarize(_pairs([75.0, 100.0, 125.0], [100.0] * 3), METRICS)["instances_per_s"]
    assert at["parent_iqr"] == 25.0 and not at["spread_exceeds_bound"]
    # 5% of 40 MB is 2 MB
    rss = bench_pairs.summarize(_pairs([39.0, 40.0, 41.0], [40.0] * 3, "peak_rss_mb"), METRICS)["peak_rss_mb"]
    assert rss["parent_iqr"] == 1.0 and not rss["spread_exceeds_bound"]
    rss = bench_pairs.summarize(_pairs([37.0, 40.0, 43.0], [40.0] * 3, "peak_rss_mb"), METRICS)["peak_rss_mb"]
    assert rss["parent_iqr"] == 3.0 and rss["spread_exceeds_bound"]


def test_a_run_keeps_its_attempted_count_next_to_its_metrics(tmp_path):
    # peak_rss_mb grows with the rounds a run completes, so each run keeps
    # how many instances it attempted, and the summary reads each side's median
    line = {"correct": 90, "attempted": 90, "failed": 0, "metrics": {"peak_rss_mb": {"value": 41.5, "unit": "MB"}}}
    (tmp_path / "pipebench").mkdir()
    (tmp_path / "pipebench" / "run.py").write_text(f"print('warming up')\nprint({json.dumps(json.dumps(line))})\n")
    assert bench_pairs.run_once(str(tmp_path), "suite", 1, 1.0) == {"peak_rss_mb": 41.5, "attempted": 90}

    pairs = [{"parent": {"attempted": p}, "change": {"attempted": c}} for p, c in [(100, 130), (90, 120), (110, 150)]]
    assert bench_pairs.attempted_medians(pairs) == {"parent": 100, "change": 130}
    assert bench_pairs.summarize(pairs, METRICS) == {}  # not a metric of the benchmark
