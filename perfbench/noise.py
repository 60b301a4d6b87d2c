"""Measure the benchmark's run-to-run spread.

    python3 perfbench/noise.py --seeds 301-310 [--workloads catalog,cli] [--seconds 10] --out FILE

Runs run.py once per seed and workload with ``--trace 0``, workloads
interleaved (seed 1 of every workload, then seed 2, ...), and writes
one JSON set: each run's metric values, whether it was correct, and for
every metric the median, quartiles and (q3 - q1) / median as
``statistics.quantiles(values, n=4)`` gives them.  noise.json holds the
sets the bounds in BENCHMARK.json rest on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "iqr_over_median": round((q3 - q1) / med, 4),
            "min": round(min(values), 6), "max": round(max(values), 6)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 301-310")
    ap.add_argument("--workloads", default="catalog,verify,linear,cli")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seeds, names = seeds_of(args.seeds), args.workloads.split(",")
    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            start = time.monotonic()
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=200)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited with {proc.returncode}: {proc.stderr[-500:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[name].append({"seed": seed, "correct": res["correct"], "run_wall_s": round(wall, 1),
                               "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{name} seed {seed}: {wall:.1f} s, correct {res['correct']}, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    out = {}
    for name, rs in runs.items():
        out[name] = {
            "seeds": [r["seed"] for r in rs],
            "all_correct": all(r["correct"] for r in rs),
            "run_wall_s_max": max(r["run_wall_s"] for r in rs),
            "metrics": {m: summary([r["metrics"][m] for r in rs]) for m in rs[0]["metrics"]},
            "runs": rs,
        }
        print(name, {m: s["iqr_over_median"] for m, s in out[name]["metrics"].items()})
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
