"""galcd benchmark entry point.

    python3 perfbench/run.py --workload {catalog,verify,linear,cli,all} --seed N --seconds S --trace 0|1

Each workload runs in fresh Python processes started one at a time
(worker.py), because galcd's field and family caches are process-wide
and set-up cost would otherwise vanish after the first run.  With
``--trace 0`` set-up is repeated in SETUP_REPEATS fresh processes and
its median reported, times are speed-normalised (speed.py), and the
last line of stdout is one JSON object with every end-to-end metric
named in BENCHMARK.json.  With ``--trace 1`` the worker times one
untraced and one traced pass over the same fixed number of items (set
by ``--seconds`` alone, not by galcd's speed) and the last line holds
every per-layer metric instead.
The lines before it record the input mix, the environment, the sample
counts and the digests.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalog", "verify", "linear", "cli")
# fresh set-up processes per --trace 0 run; verify's set-up takes about 7 s, the others' under 0.5 s
SETUP_REPEATS = {"catalog": 15, "verify": 3, "linear": 15, "cli": 15}
WORKLOAD_TIMEOUT_S = 170   # every worker of one workload, so a run ends within 180 s


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def worker(workload: str, seed: int, seconds: int, trace: int, deadline: float,
           setup_only: bool = False) -> dict:
    """Run worker.py in its own process group; on timeout kill the group (cli children too)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def metrics_for(spec: dict, raw: dict, trace: int) -> dict:
    """Every metric BENCHMARK.json names for this mode, with its unit."""
    if not trace:   # a missing end-to-end metric is a harness defect: KeyError
        return {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    values = dict(raw["layers"])
    values.update(raw["counts"])
    values.update({"trace." + k: v for k, v in raw["trace"].items()})
    # a layer this workload never calls reads 0
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}


def run_workload(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    setups = []
    if not trace:
        setups = [worker(workload, seed, seconds, trace, deadline, setup_only=True)
                  for _ in range(SETUP_REPEATS[workload] - 1)]
    raw = worker(workload, seed, seconds, trace, deadline)
    setups.append({k: raw[k] for k in ("setup_s", "setup_wall_s", "import_wall_s")})
    raw["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    metrics = metrics_for(spec, raw, trace)

    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    print(f"# workload {workload}: {why}")
    print("# mix " + json.dumps(raw["mix"], sort_keys=True))
    print("# env " + json.dumps(raw["env"], sort_keys=True))
    unit = "wall s" if trace else "normalised s"
    print(f"# ops {raw['ops']} in {raw['timed_s']:.3f} {unit} ({raw['timed_wall_s']:.3f} wall s); "
          f"latency samples {raw['latency_samples']}; "
          f"op_ms_p90 {raw['op_ms_p90'] if raw['op_ms_p90'] is not None else 'n/a (< 100 samples)'}; "
          f"wall ms per item p50 {raw['wall_ms_p50']:.3f}")
    if trace:
        print(f"# spans recorded {raw['spans']}")
    print(f"# set-up samples {[round(s['setup_s'], 4) for s in setups]} {unit}, "
          f"{[round(s['setup_wall_s'], 4) for s in setups]} wall s; "
          f"import galcd {[round(s['import_wall_s'], 4) for s in setups]} wall s (in no metric)")
    print(f"# ops_failed_frac {raw['failed'] / raw['attempted']:.6f} ({raw['failed']} of {raw['attempted']})")
    print(f"# digest {raw['digest']}; seed-0 digest {raw['seed0_digest']}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "galcd", "__init__.py")):
        print(f"perfbench: no galcd sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(spec, name, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
