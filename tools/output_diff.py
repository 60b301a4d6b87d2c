"""The CLI's exit codes, stdout and stderr at a parent revision against this working tree.

    python3 tools/output_diff.py --parent HEAD

The parent is a revision's committed files, unpacked by
``bench_pairs.unpack``; the change is this working tree.  Each argv of
``VECTORS`` runs as ``python -m galcd.cli`` once per side, with that
side's ``src`` on PYTHONPATH.  One line per argv says ``same`` or which
of exit code, stdout and stderr differ byte for byte; a summary line
follows.  The exit code is 1 when any argv differs, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

from bench_pairs import ROOT, unpack

_GEN_7_3 = "[[1,0,0,1,1,0,1],[0,1,0,1,0,1,1],[0,0,1,0,1,1,1]]"

# Worked examples, catalogs, the census inside and outside the frame
# (GF(9) with lambda = x of order 4 leaves it at k = 0), duals on both
# sides of it, single-code queries, help texts, three refusals, generators
# from splitting fields above the log-table limit, and queries whose
# splitting field lies below it but builds no log table.
VECTORS = [
    ["reproduce", "all"],
    ["reproduce", "all", "--format", "json"],
    ["classify", "-p", "3", "-e", "2", "-k", "1", "-n", "8", "--lambda", "1"],
    ["classify", "-p", "5", "-e", "2", "-k", "1", "-n", "12", "--lambda", "1", "--format", "csv"],
    ["classify", "-p", "13", "-e", "3", "-k", "2", "-n", "9", "--lambda", "-1"],
    ["classify", "-p", "3", "-e", "2", "-k", "0", "-n", "13", "--lambda", "1", "--no-exact-distance"],
    ["cosets", "-p", "3", "-e", "2", "-k", "1", "-n", "4"],
    ["cosets", "-p", "2", "-e", "3", "-k", "1", "-n", "27"],
    ["cosets", "-p", "3", "-e", "2", "-k", "0", "-n", "2", "--lambda", "0,1"],
    ["dual", "-p", "3", "-e", "2", "-k", "1", "-n", "8", "--defining-set", "1,3"],
    ["dual", "-p", "3", "-e", "2", "-k", "0", "-n", "2", "--lambda", "0,1", "--defining-set", "1"],
    ["lcd-check", "-p", "3", "-e", "2", "-k", "1", "-n", "8", "--defining-set", "0,4"],
    ["genpoly", "-p", "3", "-e", "2", "-k", "1", "-n", "8", "--defining-set", "1,3"],
    ["mindist", "-p", "2", "-e", "1", "-n", "7", "--gen", _GEN_7_3],
    ["extend", "-p", "5", "-e", "1", "--mode", "pmod4", "--gen", "[[1,0,1,2],[0,1,3,4]]"],
    ["--help"],
    ["lcd-check", "--help"],
    ["dual", "--help"],
    ["genpoly", "--help"],
    ["classify", "-p", "3", "-e", "2", "-k", "0", "-n", "2", "--lambda", "0,1"],
    ["mindist", "-p", "2", "-e", "1", "-n", "7", "--strategy", "messages",
     "--budget-messages", "1", "--gen", _GEN_7_3],
    # generators read off theta in the untabled splitting fields GF(3^22), GF(5^22) and GF(7^22)
    ["genpoly", "-p", "3", "-e", "2", "-k", "1", "-n", "23", "--defining-set", "1,2,3,4,6,8,9,12,13,16,18"],
    ["genpoly", "-p", "5", "-e", "2", "-k", "1", "-n", "23", "--defining-set", "1,2,3,4,6,8,9,12,13,16,18"],
    ["genpoly", "-p", "7", "-e", "2", "-k", "1", "-n", "23", "--defining-set", "1,2,3,4,6,8,9,12,13,16,18"],
    # a check polynomial through code_params, the message walk over all three
    # projective blocks and over the shifted block 0, a degree-1 default
    # modulus with the prime-field embedding, and a log-table base field
    ["mindist", "-p", "11", "-e", "2", "-k", "1", "-n", "10", "--lambda", "1", "--defining-set", "2,3,4,5,6,7,8"],
    ["mindist", "-p", "2", "-e", "1", "-n", "7", "--strategy", "messages", "--gen", _GEN_7_3],
    ["mindist", "-p", "3", "-e", "2", "-k", "1", "-n", "8", "--defining-set", "1,3", "--strategy", "messages"],
    ["classify", "-p", "2", "-e", "1", "-k", "0", "-n", "7"],
    ["dual", "-p", "11", "-e", "3", "-k", "1", "-n", "5", "--lambda", "-1", "--defining-set", "3,5,7"],
    # the Gram determinant witness over log tables (GF(11^3)) and packed products (GF(257^2))
    ["lcd-check", "-p", "11", "-e", "3", "-k", "1", "-n", "5", "--lambda", "-1", "--defining-set", "3,5,7"],
    ["lcd-check", "-p", "257", "-e", "2", "-k", "0", "-n", "4", "--lambda", "1", "--defining-set", "1,3"],
    # theta's splitting fields GF(3^10), GF(5^6) and GF(7^4) take powers only, no product
    ["genpoly", "-p", "3", "-e", "2", "-k", "1", "-n", "11", "--defining-set", "1,3,4,5,9"],
    ["lcd-check", "-p", "5", "-e", "2", "-k", "1", "-n", "7", "--defining-set", "1,2,4"],
    ["dual", "-p", "7", "-e", "2", "-k", "1", "-n", "5", "--defining-set", "1,4"],
    # products of size-3 cosets' minimal polynomials over the row lists of GF(4)
    ["genpoly", "-p", "2", "-e", "2", "-k", "1", "-n", "21", "--defining-set", "1,4,16"],
    ["dual", "-p", "2", "-e", "2", "-k", "1", "-n", "21", "--defining-set", "1,4,16"],
    # a non-default irreducible modulus, and a reducible one (exit 1)
    ["genpoly", "-p", "3", "-e", "2", "-k", "1", "-n", "8", "--defining-set", "1,3", "--modulus", "2,1,1"],
    ["genpoly", "-p", "3", "-e", "2", "-k", "1", "-n", "8", "--defining-set", "1,3", "--modulus", "2,0,1"],
]


def run(checkout: str, argv: list[str]) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, stderr) of ``python -m galcd.cli argv`` on checkout's src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run([sys.executable, "-m", "galcd.cli", *argv], cwd=checkout, env=env,
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="revision whose committed files are the parent")
    ap.add_argument("--scratch", default=None, help="directory for the parent's files")
    args = ap.parse_args(argv)
    scratch = args.scratch or tempfile.mkdtemp(prefix="output_diff_")
    os.makedirs(scratch, exist_ok=True)
    parent, sha = unpack(args.parent, scratch)
    differing = 0
    for vector in VECTORS:
        sides = [run(parent, vector), run(ROOT, vector)]
        diff = [part for part, a, b in zip(("exit", "stdout", "stderr"), *sides) if a != b]
        differing += bool(diff)
        print(f"{'DIFF ' + '+'.join(diff) if diff else 'same'}: {' '.join(vector)}", flush=True)
    print(f"{differing} of {len(VECTORS)} argv differ between {sha[:12]} and the working tree")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
