"""Run one galcd CLI command as a cold process, as ``python -m galcd.cli`` would.

    python3 perfbench/cli_child.py {plain,speed,spans} ARGV...

The cli workload starts every operation through this file.  It prints
what the CLI prints and, for ``speed`` and ``spans``, ends stderr with
``spans.SPANS_TAG`` and a JSON report:

- ``speed``: the operation's time, that of ``cli.main`` speed-normalised
  on this process's own core; the import is left out (see speed.py);
- ``spans``: spans around ``import galcd.cli`` and ``cli.main``.
  ``reproduce all --format json`` is walked one
  ``registry.run_example`` call at a time and formatted as the CLI
  formats it; the worker checks the bytes against the CLI's digest.
"""

import json
import sys
from time import perf_counter

from spans import SPANS_TAG
from speed import Clock

mode, argv = sys.argv[1], sys.argv[2:]
spans = []
start = perf_counter()
import galcd.cli  # noqa: E402  (timed import)
from galcd import registry  # noqa: E402

IMPORTED = perf_counter()
spans.append(("cli.import", start, IMPORTED))
clock = Clock() if mode == "speed" else None
if clock:
    clock.start()
MAIN_START = perf_counter()
if mode == "spans" and argv == ["reproduce", "all", "--format", "json"]:
    reports = []
    for eid in registry.EXAMPLE_IDS:
        start = perf_counter()
        reports.append(registry.run_example(eid))
        spans.append(("registry.run_example", start, perf_counter()))
    sys.stdout.write(json.dumps([rep.to_json() for rep in reports], sort_keys=True, separators=(",", ":")) + "\n")
    code = 0 if all(rep.ok for rep in reports) else galcd.cli.REPRODUCE_MISMATCH
else:
    start = perf_counter()
    code = galcd.cli.main(argv)
    spans.append(("cli.main", start, perf_counter()))
END = perf_counter()
sys.stdout.flush()
if clock:
    clock.stop()
if mode != "plain":
    report = {"spans": spans if mode == "spans" else [],
              "seconds": clock.scaled(MAIN_START, END) if clock else None}
    sys.stderr.write(SPANS_TAG + json.dumps(report) + "\n")
sys.exit(code)
