"""The pair summary of tools/bench_pairs.py, on hand-made runs (no benchmark is run)."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}


def _run(pair, side, ops, rss, attempted=1000):
    return {"pair": pair, "side": side, "attempted": attempted,
            "metrics": {"ops_per_s": ops, "peak_rss_mb": rss}}


RUNS = [_run(0, "parent", 100, 60, 1000), _run(0, "change", 150, 61, 1500),
        _run(1, "change", 140, 59, 1400), _run(1, "parent", 110, 62, 1100),
        _run(2, "parent", 90, 60, 900), _run(2, "change", 80, 60, 800),
        _run(3, "parent", 1000, 1, 9999),   # its change run failed
        {"pair": 3, "side": "change", "error": "exit 1"}]


def test_summary_counts_wins_by_direction_and_skips_incomplete_pairs():
    out = bench_pairs.summary(RUNS, SPEC)
    assert out["pairs"] == 3
    assert out["attempted"] == {"parent": 1000, "change": 1400}   # complete pairs only
    ops, rss = out["ops_per_s"], out["peak_rss_mb"]
    assert (ops["parent_median"], ops["change_median"], ops["change_wins"]) == (100, 140, 2)
    assert ops["relative_change"] == pytest.approx(0.4)
    assert rss["change_wins"] == 1   # lower wins; the tie counts for neither side
    assert (rss["parent_median"], rss["change_median"]) == (60, 60)
    assert ops["parent_quartiles"] == [90, 110] and ops["bound"] == 0.25


def test_summary_of_no_complete_pair():
    assert bench_pairs.summary([{"pair": 0, "side": "parent", "error": "exit 1"}], SPEC) == {"pairs": 0}


def test_report_prints_one_line_per_metric():
    lines = bench_pairs.report("verify", bench_pairs.summary(RUNS, SPEC))
    assert lines == ["verify ops_per_s: parent 100 -> change 140 (+40.0%), change won 2/3",
                     "verify peak_rss_mb: parent 60 -> change 60 (+0.0%), change won 1/3"]


def test_main_prints_one_report_line_per_benchmark_metric_to_stderr(monkeypatch, tmp_path, capsys):
    with open(os.path.join(bench_pairs.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, scratch: (str(tmp_path), "0" * 40))
    monkeypatch.setattr(bench_pairs, "bench", lambda checkout, workload, seed, seconds: {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {name: 2.0 if checkout == bench_pairs.ROOT else 1.0 for name in names}})
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--out", str(out), "--workload", "verify", "--pairs", "2", "--seed", "1",
                             "--scratch", str(tmp_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"verify {name}: parent 1 -> change 2 (+100.0%), change won "
                   f"{2 if name == 'ops_per_s' else 0}/2" for name in names]
    summ = json.loads(out.read_text())["workloads"]["verify"]["summary"]
    assert summ["attempted"] == {"parent": 10, "change": 10}
