"""Alternating parent/change pairs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --out BENCH_19.json --workload linear --pairs 10 --seed 1901
    python3 tools/bench_pairs.py --out BENCH_19.json --workload all --pairs 5 --parent HEAD~1

The parent is a revision's committed files, unpacked with ``git archive``
into a scratch directory (``--scratch``, default a fresh temporary
directory), the way a benchmark of committed files sees them; nothing is
added to the repository's ``.git``.  The change is this working tree.

Pair i of a workload runs ``perfbench/run.py --seed SEED+i`` once on each
side, one run at a time, for the ``run_seconds`` of ``BENCHMARK.json``;
the parent runs first in even pairs and the change first in odd ones,
so a drift in machine speed falls on both sides alike.  The file holds
every run, and per workload and metric of ``BENCHMARK.json`` the
medians and quartiles of each side, the relative change of the medians,
the bound, and how many pairs the change won,
next to each side's median number of attempted operations.  It is
rewritten after every pair, so a cut session keeps what it measured.
After each workload one line per metric goes to stderr: the medians,
their relative change and the wins.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("catalog", "verify", "linear", "cli")


def unpack(rev: str, scratch: str) -> tuple[str, str]:
    """The committed files of rev in scratch/parent-<sha>: (that directory, sha)."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    dest = os.path.join(scratch, f"parent-{sha[:12]}")
    if not os.path.isdir(dest):
        archive = os.path.join(scratch, f"parent-{sha[:12]}.tar")
        subprocess.run(["git", "archive", "--format=tar", "-o", archive, sha], cwd=ROOT, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(dest, filter="data")
        os.remove(archive)
    return dest, sha


def bench(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One ``--trace 0`` run in checkout: its final JSON line, or the error."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    out = json.loads(lines[-1])
    return {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {name: m["value"] for name, m in out["metrics"].items()}}


def summary(runs: list[dict], spec: dict) -> dict:
    """Per metric: each side's median and quartiles, the median's relative change, the wins.

    ``attempted`` holds each side's median count of attempted operations:
    a workload that keeps its outcomes until the end-of-run checks reads a
    higher ``peak_rss_mb`` the more operations a run completes.
    """
    pairs: dict[int, dict] = {}
    for run in runs:
        if "metrics" in run:
            pairs.setdefault(run["pair"], {})[run["side"]] = run
    pairs = {i: p for i, p in pairs.items() if len(p) == 2}
    out = {"pairs": len(pairs)}
    if not pairs:
        return out
    out["attempted"] = {side: statistics.median(p[side]["attempted"] for p in pairs.values())
                        for side in ("parent", "change")}
    pairs = {i: {side: run["metrics"] for side, run in p.items()} for i, p in pairs.items()}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        sides = {side: [p[side][name] for p in pairs.values()] for side in ("parent", "change")}
        med = {side: statistics.median(v) for side, v in sides.items()}
        wins = sum((p["change"][name] < p["parent"][name]) if lower else
                   (p["change"][name] > p["parent"][name]) for p in pairs.values())
        out[name] = {
            "better": m["better"], "bound": m["bound"],
            "parent_median": med["parent"], "change_median": med["change"],
            "parent_quartiles": _quartiles(sides["parent"]),
            "change_quartiles": _quartiles(sides["change"]),
            "relative_change": (med["change"] - med["parent"]) / med["parent"] if med["parent"] else None,
            "change_wins": wins,
        }
    return out


def report(workload: str, summ: dict) -> list[str]:
    """One line per metric: the medians, their relative change and the change's wins."""
    lines = []
    for name, m in summ.items():
        if isinstance(m, dict) and "change_wins" in m:
            rel = "n/a" if m["relative_change"] is None else f"{m['relative_change']:+.1%}"
            lines.append(f"{workload} {name}: parent {m['parent_median']:.4g} -> change "
                         f"{m['change_median']:.4g} ({rel}), change won {m['change_wins']}/{summ['pairs']}")
    return lines


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_19.json")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair i uses seed + i")
    ap.add_argument("--parent", default="HEAD", help="revision whose committed files are the parent")
    ap.add_argument("--scratch", default=None, help="directory for the parent's files")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    scratch = args.scratch or tempfile.mkdtemp(prefix="bench_pairs_")
    os.makedirs(scratch, exist_ok=True)
    parent, sha = unpack(args.parent, scratch)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"parent": sha, "change": "working tree", "seconds": spec["run_seconds"], "workloads": {}}
    if os.path.isfile(args.out):   # keep the other workloads of an earlier call
        with open(args.out, encoding="utf-8") as fh:
            result["workloads"] = json.load(fh).get("workloads", {})
    checkouts = {"parent": parent, "change": ROOT}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        runs: list[dict] = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = {"pair": i, "seed": seed, "side": side, "first": side == order[0]}
                run.update(bench(checkouts[side], workload, seed, spec["run_seconds"]))
                runs.append(run)
                print(json.dumps({"workload": workload, **run}), flush=True)
            result["workloads"][workload] = {"runs": runs, "summary": summary(runs, spec)}
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1, sort_keys=True)
                fh.write("\n")
        for line in report(workload, result["workloads"][workload]["summary"]):
            print(line, file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
