"""The pair summary of tools/bench_pairs.py, on hand-made runs (no benchmark is run)."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}


def _run(pair, side, ops, rss):
    return {"pair": pair, "side": side, "metrics": {"ops_per_s": ops, "peak_rss_mb": rss}}


def test_summary_counts_wins_by_direction_and_skips_incomplete_pairs():
    runs = [_run(0, "parent", 100, 60), _run(0, "change", 150, 61),
            _run(1, "change", 140, 59), _run(1, "parent", 110, 62),
            _run(2, "parent", 90, 60), _run(2, "change", 80, 60),
            _run(3, "parent", 1000, 1),   # its change run failed
            {"pair": 3, "side": "change", "error": "exit 1"}]
    out = bench_pairs.summary(runs, SPEC)
    assert out["pairs"] == 3
    ops, rss = out["ops_per_s"], out["peak_rss_mb"]
    assert (ops["parent_median"], ops["change_median"], ops["change_wins"]) == (100, 140, 2)
    assert ops["relative_change"] == pytest.approx(0.4)
    assert rss["change_wins"] == 1   # lower wins; the tie counts for neither side
    assert (rss["parent_median"], rss["change_median"]) == (60, 60)
    assert ops["parent_quartiles"] == [90, 110] and ops["bound"] == 0.25


def test_summary_of_no_complete_pair():
    assert bench_pairs.summary([{"pair": 0, "side": "parent", "error": "exit 1"}], SPEC) == {"pairs": 0}
