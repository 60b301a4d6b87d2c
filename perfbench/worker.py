"""One workload run in a fresh Python process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Imports galcd from the checkout's ``src`` (nothing installed), makes the
inputs from the seed, sets up, runs the timed phase, checks every
outcome, and prints one JSON line with the raw measurements.  run.py
starts it; ``--setup-only`` stops after set-up, so run.py can repeat
set-up in fresh processes.  ``--record`` prints the seed-0 digests that
digests.json stores instead of checking them.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from speed import Clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")


def import_galcd():
    """Put the checkout's src first on the path and refuse any other galcd."""
    if not os.path.isfile(os.path.join(SRC, "galcd", "__init__.py")):
        sys.exit(f"perfbench: no galcd sources under {SRC}")
    sys.path.insert(0, SRC)
    import galcd

    if os.path.dirname(os.path.dirname(os.path.abspath(galcd.__file__))) != SRC:
        sys.exit(f"perfbench: imported galcd from {galcd.__file__}, not from {SRC}")


class Phase:
    """The outcomes of one timed phase and its wall time."""

    def __init__(self, outcomes, start, end):
        self.outcomes = outcomes
        self.start = start
        self.wall = end - start

    def normalise(self, clock, inside_only=False) -> float:
        """Speed-normalise every outcome's time; return the phase's normalised time.

        An outcome timed inside a child process keeps that time.  With
        ``inside_only`` the phase's time is the sum of the outcomes'
        times, leaving out the harness's time between them.
        """
        raw = sum(o.seconds for o in self.outcomes)
        for o in self.outcomes:
            o.seconds = o.inner_s if o.inner_s is not None else clock.scaled(o.start, o.start + o.seconds)
        if inside_only:
            return sum(o.seconds for o in self.outcomes)
        gaps = (self.wall - raw) * clock.factor(self.start, self.start + self.wall)
        return sum(o.seconds for o in self.outcomes) + gaps


def run_item(wl, item, sp):
    """One closed-loop call.  Exceptions are counted as failed operations, never fatal."""
    from workloads import Outcome

    start = perf_counter()
    try:
        out = wl.run(item, sp)
    except Exception as ex:   # the loop must keep running and count the failure
        traceback.print_exc(limit=3, file=sys.stderr)
        n = wl.item_ops(item)
        out = Outcome(f"error {type(ex).__name__}: {ex}", n, failed=n, note=repr(ex))
    out.start = start
    out.seconds = perf_counter() - start
    return out


def timed_phase(wl, sp, seconds=None, count=None) -> Phase:
    """Run items until ``seconds`` have passed on a round boundary, or exactly ``count`` items."""
    outcomes = []
    start = perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % wl.round_len == 0 and i and perf_counter() - start >= seconds:
            break
        sp.op = i
        outcomes.append(run_item(wl, wl.item(i), sp))
        i += 1
    return Phase(outcomes, start, perf_counter())


def post_check(wl, outcomes, reference):
    """Invariant checks after timing; an exception fails the outcome it was checking."""
    for i, out in enumerate(outcomes):
        if out.failed == out.ops:
            continue
        try:
            wl.check(out, wl.item(i), reference)
        except Exception as ex:   # a malformed output is a failed operation
            out.fail(f"check raised {ex!r}")


def golden_digest(wl, outcomes):
    """The digest of seed 0's ``golden_items``.

    A seed-0 run that reached them digests its own outcomes; any other
    run sets up a seed-0 workload after timing and runs those items, so
    the byte-identical gate is checked whatever the seed.
    """
    from spans import OFF
    from workloads import digest

    items = wl.golden_items
    if wl.seed != 0 or len(outcomes) <= max(items):
        ref = type(wl)(0)
        ref.setup(OFF)
        outcomes = {i: run_item(ref, ref.item(i), OFF) for i in items}
    return digest(outcomes[i].record for i in items)


def environment():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "commit": commit,
    }


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    import_start = perf_counter()
    import_galcd()
    import workloads  # noqa: F401  (imports galcd's modules)

    import_s = perf_counter() - import_start   # printed, but in no metric: see speed.py
    # traced runs report raw seconds, so that self times add up to wall time
    clock = None if args.trace else Clock()
    if clock:
        clock.start()
    try:
        return measure(args, clock, import_s)
    finally:
        if clock:
            clock.stop()


def measure(args, clock, import_s) -> int:
    from spans import OFF, Spans
    from workloads import WORKLOADS, digest

    wl = WORKLOADS[args.workload](args.seed)
    wl.clocked = clock is not None
    sp = Spans() if args.trace else OFF
    setup_start = perf_counter()
    wl.setup(sp)
    setup_end = perf_counter()
    result = {"setup_s": clock.scaled(setup_start, setup_end) if clock else setup_end - setup_start,
              "setup_wall_s": setup_end - setup_start, "import_wall_s": import_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    traced = None
    if args.trace:
        # both passes run the same fixed items, so layer figures are costs of fixed work
        count = wl.trace_count(args.seconds)
        phase = timed_phase(wl, OFF, count=count)
        traced = timed_phase(wl, sp, count=count)
        for a, b in zip(phase.outcomes, traced.outcomes):
            if a.record != b.record and not a.failed:
                a.fail("traced and untraced outputs differ")
    else:
        phase = timed_phase(wl, OFF, seconds=args.seconds)
    wall_ms = [1e3 * o.seconds for o in phase.outcomes]
    if clock:
        clock.stop()
    timed_s = phase.normalise(clock, inside_only=wl.timed_inside) if clock else phase.wall

    with open(DIGESTS, encoding="utf-8") as fh:
        stored = json.load(fh).get(wl.name, {})
    reference = stored.get("reference", {})
    if args.record:
        reference = wl.reference(phase.outcomes)
    post_check(wl, phase.outcomes, reference)

    outcomes = phase.outcomes
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    golden = golden_digest(wl, outcomes)
    if args.record:
        record = {"seed0": golden}
        if reference:
            record["reference"] = reference
        print(json.dumps({wl.name: record}, indent=1, sort_keys=True))
        return 0
    attempted += 1
    if golden != stored.get("seed0"):
        failed += 1
        print(f"perfbench: {wl.name} seed-0 digest {golden} != stored {stored.get('seed0')}",
              file=sys.stderr)
    notes = sorted({o.note for o in outcomes if o.note})
    for note in notes[:5]:
        print(f"perfbench: {wl.name} failure: {note}", file=sys.stderr)

    lat = sorted(wl.latencies_ms(outcomes))
    result.update({
        "workload": wl.name,
        "attempted": attempted,
        "failed": failed,
        "ops": sum(o.ops for o in outcomes),
        "timed_s": timed_s,
        "timed_wall_s": phase.wall,
        "wall_ms_p50": statistics.median(wall_ms),
        "ops_per_s": sum(o.ops for o in outcomes) / timed_s,
        "latency_samples": len(lat),
        "op_ms_p50": statistics.median(lat),
        "op_ms_p90": lat[int(0.9 * len(lat))] if len(lat) >= 100 else None,
        "peak_rss_mb": peak_rss_mb(),
        "digest": digest(o.record for o in outcomes[:max(wl.round_len, len(wl.golden_items))]),
        "seed0_digest": golden,
        "mix": wl.mix(outcomes),
        "env": environment(),
    })
    if traced is not None:
        selfs = sp.self_times()
        setup_wall = setup_end - setup_start
        result["layers"] = {name + "_s": t for name, t in selfs.items()}
        result["counts"] = dict(sp.counts)
        # set-up layers (make_field, ext_build, embedding, family_build) only run in set-up,
        # so each phase's layer self times plus its harness time equal its wall time
        harness = traced.wall - sp.root_time(since=traced.start)
        result["trace"] = {
            "setup_wall_s": setup_wall,
            "setup_harness_s": setup_wall - (sp.root_time() - sp.root_time(since=traced.start)),
            "timed_wall_s": traced.wall,
            "harness_s": harness,
            "overhead_s": traced.wall - phase.wall,
        }
        result["spans"] = len(sp.records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
