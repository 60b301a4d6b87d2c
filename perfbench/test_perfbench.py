"""Self-tests of the benchmark harness (not of galcd).

    python3 -m pytest -q perfbench/test_perfbench.py

They check that inputs follow the seed, that the checkers flag a
hand-corrupted output, that the printed metrics match BENCHMARK.json,
and that a traced run's layer self times and harness time add up to its
wall time.  They take about half a minute, most of it the verify
workload's set-up and two short runs of run.py.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from galcd.constacyclic import CatalogRecord  # noqa: E402
from galcd.linear import CodeParams  # noqa: E402

import workloads  # noqa: E402
from spans import OFF  # noqa: E402
from worker import golden_digest, run_item  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
    DIGESTS = json.load(fh)

_SETUP = {}


def ready(name, seed):
    key = (name, seed)
    if key not in _SETUP:
        wl = workloads.WORKLOADS[name](seed)
        wl.setup(OFF)
        _SETUP[key] = wl
    return _SETUP[key]


def inputs(wl, count=50):
    """A plain-data view of the first items, enough to tell two input sets apart."""
    out = []
    for i in range(min(count, len(wl.items))):
        it = wl.item(i)
        if wl.name == "catalog":
            out.append([it["key"], it["modulus"]])
        elif wl.name == "verify":
            out.append(list(it))
        elif wl.name == "linear":
            out.append([it["shape"], it["A"], it["k_dual"], it["k_ext"]])
        else:
            out.append(it["argv"])
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    a, b, c = ready(name, 1), workloads.WORKLOADS[name](1), ready(name, 2)
    b.setup(OFF)
    assert inputs(a) == inputs(b)
    assert inputs(a) != inputs(c)


def _run(wl, i):
    out = run_item(wl, wl.item(i), OFF)
    assert out.failed == 0, out.note
    return out


def _checked(wl, out, i, reference):
    wl.check(out, wl.item(i), reference)
    return out.failed


def test_catalog_checker_flags_a_corrupted_record():
    wl = ready("catalog", 0)
    i = next(j for j, it in enumerate(wl.items) if it["key"] == "11,2,1,10,1")
    reference = DIGESTS["catalog"]["reference"]
    out = _run(wl, i)
    assert _checked(wl, out, i, reference) == 0
    # one distance raised by one: the stored projection no longer matches
    records = list(out.data)
    j = next(k for k, r in enumerate(records) if r.params and r.params.d < r.params.n - r.params.dim + 1)
    r = records[j]
    records[j] = CatalogRecord(r.code, CodeParams(r.params.n, r.params.dim, r.params.d + 1, True), r.lcd, r.bch)
    bad = workloads.Outcome(out.record, out.ops, data=records)
    assert _checked(wl, bad, i, reference) == out.ops
    # without a stored digest, an inexact distance is still one failed record
    records[j] = CatalogRecord(r.code, CodeParams(r.params.n, r.params.dim, (1, r.params.n), False),
                               r.lcd, r.bch)
    bad = workloads.Outcome(out.record, out.ops, data=records)
    assert _checked(wl, bad, i, {}) == 1
    # a corrupted stored digest is flagged too
    assert _checked(wl, workloads.Outcome(out.record, out.ops, data=out.data), i,
                    {"11,2,1,10,1": "0" * 64}) == out.ops


def test_linear_checker_flags_corrupted_outputs():
    wl = ready("linear", 0)
    out = _run(wl, 0)
    assert _checked(wl, out, 0, {}) == 0
    C, prm, verdicts, D, X = out.data
    too_far = CodeParams(prm.n, prm.dim, prm.n - prm.dim + 1, True)
    if too_far.d != prm.d:
        bad = workloads.Outcome(out.record, 1, data=(C, too_far, verdicts, D, X))
        assert _checked(wl, bad, 0, {}) == 1
    short = workloads.LinearCode(D.field, D.generator()[1:], n=D.n) if D.dim > 1 else C
    bad = workloads.Outcome(out.record, 1, data=(C, prm, verdicts, short, X))
    assert _checked(wl, bad, 0, {}) == 1


def test_cli_checker_flags_corrupted_stdout():
    wl = ready("cli", 0)
    reference = DIGESTS["cli"]["reference"]
    for i in (0, 4):   # reproduce all, lcd-check
        out = _run(wl, i)
        assert _checked(wl, out, i, reference) == 0
        text = out.data
        corrupted = text.replace("true", "false", 1) if i == 0 else \
            re.sub(r"galois-lcd: (True|False)", lambda m: "galois-lcd: " + str(m.group(1) != "True"), text)
        assert corrupted != text
        bad = workloads.Outcome(out.record, 1, data=corrupted)
        assert _checked(wl, bad, i, reference) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_golden_digest_is_checked_whatever_the_seed(name):
    # a run with another seed re-runs seed 0's golden items after timing
    assert golden_digest(ready(name, 1), []) == DIGESTS[name]["seed0"]


def test_golden_digest_detects_corruption():
    for name in ("linear", "verify"):
        wl = ready(name, 0)
        outs = [_run(wl, i) for i in range(max(wl.golden_items) + 1)]
        assert golden_digest(wl, outs) == DIGESTS[name]["seed0"]
        outs[3] = workloads.Outcome(outs[3].record.replace("true", "false", 1) + " ", 1)
        assert golden_digest(wl, outs) != DIGESTS[name]["seed0"]


def _bench(*args, stdout=False):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return (res, proc.stdout) if stdout else res


def test_end_to_end_metrics_match_the_spec():
    res = _bench("--workload", "linear", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_metrics_match_the_spec_and_add_up():
    res, out = _bench("--workload", "linear", "--seed", "3", "--seconds", "1", "--trace", "1", stdout=True)
    # the traced passes run a count of items fixed by --seconds, not by galcd's speed
    assert re.search(r"^# ops (\d+) ", out, re.M).group(1) == str(workloads.Linear(3).trace_count(1))
    value = {k: v["value"] for k, v in res["metrics"].items()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    setup_layers = {"fields.make_field_s", "fields.ext_build_s", "fields.embedding_s",
                    "constacyclic.family_build_s"}
    timed = sum(v for k, v in value.items() if k.endswith("_s") and not k.startswith("trace.")
                and k not in setup_layers)
    assert timed + value["trace.harness_s"] == pytest.approx(value["trace.timed_wall_s"], rel=1e-9)
    setup = sum(value[k] for k in setup_layers)
    assert setup + value["trace.setup_harness_s"] == pytest.approx(value["trace.setup_wall_s"], rel=1e-9)
    assert value["linear.min_distance_s"] > 0


def test_every_per_layer_metric_has_a_producer():
    """Each layer span or counter named in BENCHMARK.json is recorded somewhere in the harness."""
    source = "".join(open(os.path.join(HERE, f), encoding="utf-8").read()
                     for f in ("workloads.py", "cli_child.py", "worker.py"))
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name.startswith("trace."):
            assert f'"{name[len("trace."):]}"' in source, name
        else:
            assert f'"{name[:-2] if name.endswith("_s") else name}"' in source, name
