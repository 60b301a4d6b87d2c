"""The benchmark's four workloads: catalog, verify, linear and cli.

Each workload makes its inputs from the seed alone, builds what they
need in ``setup``, runs one item per ``run`` call (closed loop, one
caller), and checks every outcome afterwards in ``check`` against
invariants that hold for any seed.  Every call into a galcd layer goes
through ``sp.call(name, fn, ...)`` so that a traced run can time the
layers from outside; see spans.py.

Canonical outputs are JSON strings; their sha256 digests for seed 0
are stored in digests.json and checked by the worker.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import product

from galcd.constacyclic import (
    CatalogRecord,
    classify_all_lcd,
    code_from_defining_set,
    code_params,
    galois_dual_code,
    is_lcd,
    to_generator_matrix,
)
from galcd.cosets import (
    CosetContext,
    bch_lower_bound,
    cyclotomic_cosets,
    dual_defining_set,
    enumerate_stable_sets,
    tau_cycles,
)
from galcd.fields import embedding, make_field, mult_order, multiplicative_order, poly_is_irreducible
from galcd.linalg import rank, same_row_space
from galcd.linear import BudgetExceeded, LinearCode, extend_lcd, galois_dual, is_galois_lcd, min_distance
from galcd.polys import splitting_field

from spans import OFF, SPANS_TAG

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class Outcome:
    """What one item produced: its canonical output and how many operations it stands for."""

    record: str
    ops: int
    failed: int = 0
    seconds: float = 0.0          # speed-normalised when the run has a Clock
    note: str = ""
    data: object = None
    inner_s: float | None = None  # speed-normalised seconds of cli.main, measured in the child process
    start: float = 0.0            # perf_counter() when the item began

    def fail(self, note: str, count: int | None = None) -> None:
        self.failed = self.ops if count is None else min(self.ops, self.failed + count)
        self.note = self.note or note


class Workload:
    name = ""
    round_len = 1          # the timed phase stops only on a round boundary
    golden_items = ()      # seed-0 items whose digest is checked in every run, whatever its seed
    trace_rate = 1.0       # items per --seconds second in each pass of a traced run; see trace_count
    clocked = False        # set by the worker when times are speed-normalised
    timed_inside = False   # cli: ops_per_s and latencies use inner_s, the child-measured time

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.items: list = []
        self._fields: set = set()
        self._families: set = set()

    def item(self, i: int):
        return self.items[i % len(self.items)]

    def item_ops(self, item) -> int:
        return 1

    def trace_count(self, seconds: float) -> int:
        """Items in each pass of a traced run: whole rounds, fixed by ``seconds`` alone.

        The count does not depend on how fast galcd is, so per-layer
        times and counts are the cost of a fixed amount of work.
        ``trace_rate`` makes the two passes take about ``seconds`` on
        the 2-vCPU Xeon the benchmark was built on.
        """
        return self.round_len * max(1, round(seconds * self.trace_rate / self.round_len))

    def latencies_ms(self, outcomes) -> list[float]:
        return [1e3 * o.seconds for o in outcomes]

    def check(self, outcome, item, reference) -> None:
        """Invariant checks after timing; verify cross-checks inside the operation instead."""

    def reference(self, outcomes) -> dict:
        """Seed-independent digests that check() compares every run against."""
        return {}

    # -- traced set-up helpers ---------------------------------------------

    def _built(self, sp, field):
        if field not in self._fields:
            self._fields.add(field)
            sp.count("fields.fields_built")

    def field(self, sp, p, e, modulus=None):
        field = sp.call("fields.make_field", make_field, p, e, modulus)
        self._built(sp, field)
        return field

    def family(self, sp, field, n, lam, k):
        """Build the splitting field, its embedding and the (field, n, lambda) family."""
        rn = mult_order(lam) * n
        ext = sp.call("fields.ext_build", splitting_field, field, rn)
        self._built(sp, ext)
        sp.call("fields.embedding", embedding, field, ext)
        key = (field, n, lam.code)
        if key not in self._families:
            self._families.add(key)
            sp.count("constacyclic.families_built")
            sp.call("constacyclic.family_build", code_from_defining_set, field, n, lam, (), k)
        return ext


def _smallest_of_order(field, r):
    for x in field.elements():
        if x and mult_order(x) == r:
            return x
    raise ValueError(f"no element of order {r} in GF({field.q})")


def _lam_arg(lam) -> str:
    return ",".join(str(c) for c in lam.coeffs)


def _criterion6_contexts(sp, wl):
    """(field, n, lam, k) with p in {3,5,7}, e = 2, k in {0,1}, rn <= 26 and the LCD gate active.

    This is the family of the acceptance suite's criterion-6 sweep: 212
    contexts, every one with lambda^(1 + p^(e-k)) = 1.
    """
    out = []
    for p in (3, 5, 7):
        field = wl.field(sp, p, 2)
        for k in (0, 1):
            gate = 1 + p ** (2 - k)
            for r in range(1, math.gcd(gate, field.q - 1) + 1):
                if math.gcd(gate, field.q - 1) % r:
                    continue
                lam = _smallest_of_order(field, r)
                for n in range(1, 26 // r + 1):
                    if math.gcd(n, p) == 1:
                        out.append((field, n, lam, k))
    return out


def _coset_blocks(field, n, lam, k):
    return cyclotomic_cosets(CosetContext(p=field.p, e=field.e, k=k, n=n, r=mult_order(lam)))


def _residues(blocks, mask) -> tuple[int, ...]:
    return tuple(sorted(x for i, b in enumerate(blocks) if mask >> i & 1 for x in b))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

# (p, e, k, n, lambda); about 5 s per round on a 2-core Xeon.
CATALOG_POOL = ((3, 2, 1, 16, 1), (3, 2, 1, 14, 1), (11, 2, 1, 10, 1), (5, 3, 1, 13, -1))
# the cheapest context (about 0.3 s); seed 0 keeps the pool's order and the default moduli
CATALOG_GOLDEN = CATALOG_POOL.index((11, 2, 1, 10, 1))


def _moduli(p: int, e: int) -> list[tuple[int, ...]]:
    """Monic irreducible polynomials of degree e over GF(p), constant term first."""
    out = []
    for low in product(range(p), repeat=e):
        mod = tuple(low) + (1,)
        if low[0] and poly_is_irreducible(mod, p):
            out.append(mod)
    return out


def _projection(records) -> list:
    """The part of a catalog that does not depend on the base field's modulus."""
    return [[list(r.code.P.residues), r.params.to_json() if r.params else None, r.lcd, r.bch]
            for r in records]


class Catalog(Workload):
    """One item is one classify_all_lcd call; each catalog record is one operation.

    The seed picks the order of the pool and, for seeds other than 0, a
    random irreducible modulus for every base field.  Fields with
    different moduli are isomorphic, so each seed gets different
    generator polynomials for the same distance work, and the
    modulus-free projection of every catalog is checkable against a
    stored digest whatever the seed.
    """

    name = "catalog"
    golden_items = (CATALOG_GOLDEN,)
    trace_rate = 0.4

    def setup(self, sp):
        order = list(CATALOG_POOL)
        if self.seed:
            self.rng.shuffle(order)
        for p, e, k, n, l in order:
            mod = self.rng.choice(_moduli(p, e)) if self.seed else None
            field = self.field(sp, p, e, mod)
            lam = field.from_int(l)
            ext = self.family(sp, field, n, lam, k)
            ctx = CosetContext(p=p, e=e, k=k, n=n, r=mult_order(lam))
            stable = 2 ** len(tau_cycles(ctx))
            # fill the numpy table cache message enumeration uses
            min_distance(LinearCode(field, [[1]]), "messages")
            self.items.append({"key": f"{p},{e},{k},{n},{l}", "field": field, "n": n, "lam": lam,
                               "k": k, "ctx": ctx, "stable": stable, "modulus": list(field.modulus),
                               "ext": f"GF({ext.p}^{ext.e})"})
        self.round_len = len(self.items)

    def item_ops(self, item) -> int:
        return item["stable"]

    def latencies_ms(self, outcomes) -> list[float]:
        return [1e3 * o.seconds / o.ops for o in outcomes if o.ops]

    def run(self, item, sp) -> Outcome:
        field, n, lam, k = item["field"], item["n"], item["lam"], item["k"]
        if sp is OFF:
            records = classify_all_lcd(field, n, lam, k).records
        else:
            records = self._walk(item, sp)
        out = {"context": item["key"], "modulus": item["modulus"],
               "records": [rec.to_json() for rec in records]}
        return Outcome(canon(out), len(records), data=records)

    @staticmethod
    def _walk(item, sp):
        """classify_all_lcd's steps, one public call at a time; the worker checks the records match."""
        field, n, lam, k = item["field"], item["n"], item["lam"], item["k"]
        sets = sp.call("cosets.enumerate_stable_sets", lambda: list(enumerate_stable_sets(item["ctx"])))
        records = []
        for P in sets:
            code = sp.call("constacyclic.code_from_defining_set",
                           code_from_defining_set, field, n, lam, P.residues, k)
            lcd = sp.call("constacyclic.is_lcd", is_lcd, code)
            if code.dim == 0:
                records.append(CatalogRecord(code, None, lcd, None))
                continue
            # code_params is its two public calls; walking them shows min_distance's share
            G = sp.call("constacyclic.to_generator_matrix", to_generator_matrix, code)
            sp.count("linear.min_distance_calls")
            try:
                params = sp.call("linear.min_distance", min_distance, G)
            except BudgetExceeded:
                sp.count("linear.budget_refusals")
                raise
            if not params.exact:
                sp.count("linear.inexact_params")
            bch = sp.call("cosets.bch_lower_bound", bch_lower_bound, code.P)
            records.append(CatalogRecord(code, params, lcd, bch))
        records.sort(key=lambda rec: (len(rec.code.P.residues), rec.code.P.residues))
        return records

    def check(self, outcome, item, reference) -> None:
        records = outcome.data
        if len(records) != item["stable"]:
            outcome.fail(f"{len(records)} records, expected {item['stable']}")
        want = reference.get(item["key"])
        if want is not None and digest([canon(_projection(records))]) != want:
            outcome.fail(f"catalog of {item['key']} differs from the stored projection")
        for rec in records:
            if rec.params is None:
                continue
            prm, n = rec.params, item["n"]
            if not prm.exact:
                outcome.fail("inexact distance", 1)
            elif not (rec.bch <= prm.d <= n - prm.dim + 1 and prm.dim == n - len(rec.code.P)):
                outcome.fail(f"bch {rec.bch} <= d {prm.d} <= n - dim + 1 fails", 1)

    def reference(self, outcomes) -> dict:
        return {o_item["key"]: digest([canon(_projection(o.data))])
                for o, o_item in zip(outcomes, self.items)}

    def mix(self, outcomes) -> dict:
        return {
            "contexts": [it["key"] for it in self.items],
            "moduli": [it["modulus"] for it in self.items],
            "codes_per_round": sum(it["stable"] for it in self.items),
            "extension_fields": sorted({it["ext"] for it in self.items}),
            "sum_q_pow_dim": sum(it["field"].q ** r.code.dim
                                 for o, it in zip(outcomes, self.items) for r in o.data or ()),
        }


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_ITEMS = 12000
EXHAUSTIVE_COSET_LIMIT = 7      # as in the criterion-6 sweep: 2^c sets up to c = 7 cosets
SAMPLED_SETS = 96               # ... and 96 sampled sets above that


class Verify(Workload):
    """One operation is one (context, defining set) code, fully cross-checked.

    Contexts appear with the weight the criterion-6 sweep gives them
    (its number of sets there), defining sets are uniform among unions
    of cosets.
    """

    name = "verify"
    golden_items = tuple(range(100))
    trace_rate = 200.0

    def setup(self, sp):
        self.contexts = _criterion6_contexts(sp, self)
        self.blocks = [_coset_blocks(f, n, lam, k) for f, n, lam, k in self.contexts]
        weights = [2 ** len(b) if len(b) <= EXHAUSTIVE_COSET_LIMIT else SAMPLED_SETS
                   for b in self.blocks]
        # systematic sampling: context c takes evenly spaced slots from a random
        # phase, so every prefix of the list holds the contexts in weight proportion
        slots = []
        for c, w in enumerate(weights):
            count = max(1, round(VERIFY_ITEMS * w / sum(weights)))
            phase = self.rng.random()
            slots += [((j + phase) / count, c) for j in range(count)]
        slots.sort()
        self.items = [(c, _residues(self.blocks[c], self.rng.randrange(1 << len(self.blocks[c]))))
                      for _, c in slots]
        self.ext = [self.family(sp, *ctx) for ctx in self.contexts]

    def run(self, item, sp) -> Outcome:
        c, residues = item
        field, n, lam, k = self.contexts[c]
        C = sp.call("constacyclic.code_from_defining_set", code_from_defining_set, field, n, lam, residues, k)
        coset = sp.call("constacyclic.is_lcd", is_lcd, C)
        gram = True   # the zero code meets its dual trivially
        if C.dim:
            G = sp.call("constacyclic.to_generator_matrix", to_generator_matrix, C)
            gram = sp.call("linear.is_galois_lcd", is_galois_lcd, G, k).lcd
        D = sp.call("constacyclic.galois_dual_code", galois_dual_code, C)
        P_dual = sp.call("cosets.dual_defining_set", dual_defining_set, C.P)
        back = sp.call("cosets.dual_defining_set", dual_defining_set, P_dual)
        same = None
        if C.dim and D.dim:
            GD = sp.call("constacyclic.to_generator_matrix", to_generator_matrix, D)
            H = sp.call("linear.galois_dual", galois_dual, G, k)
            same = sp.call("linalg.same_row_space", same_row_space, field, GD.codes_matrix(), H.codes_matrix())
        out = Outcome(canon([field.p, k, n, lam.code, residues, C.dim, coset, gram,
                             D.P.residues, D.dim, same]), 1, data=C.dim)
        if coset != gram:
            out.fail("coset and Gram verdicts disagree")
        if P_dual.residues != D.P.residues or back.residues != C.P.residues:
            out.fail("defining-set duality disagrees with the polynomial dual")
        if C.dim + D.dim != n or same is False:
            out.fail("dual dimensions or row spaces disagree")
        return out

    def mix(self, outcomes) -> dict:
        used = sorted({self.item(i)[0] for i in range(len(outcomes))})
        fields = sorted({(self.ext[c].p, self.ext[c].e) for c in used})
        return {
            "contexts": len(used),
            "codes": len(outcomes),
            "extension_fields": [f"GF({p}^{e})" for p, e in fields],
            "largest_extension_q": max(p ** e for p, e in fields),
            "sum_q_pow_dim": sum(self.contexts[self.item(i)[0]][0].q ** o.data
                                 for i, o in enumerate(outcomes) if o.data is not None),
        }


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

# (p, e, n, dim): "auto" picks message enumeration for the first five
# shapes and support search for the rest.  One round is one code of each
# shape; an odd count keeps the median latency inside one shape's spread.
LINEAR_SHAPES = (
    (2, 2, 16, 4), (2, 3, 14, 4), (3, 2, 14, 4), (2, 1, 18, 12), (3, 1, 14, 6),
    (3, 2, 12, 4), (2, 4, 10, 4), (5, 1, 12, 8), (13, 1, 10, 6), (5, 2, 8, 5), (7, 1, 9, 6),
)
LINEAR_ITEMS = 6000


class Linear(Workload):
    """One operation: build [I | A], its exact distance, every Gram verdict, a dual and an extension."""

    name = "linear"
    golden_items = tuple(range(40))
    round_len = len(LINEAR_SHAPES)
    trace_rate = 77.0

    def setup(self, sp):
        fields = [self.field(sp, p, e) for p, e, _, _ in LINEAR_SHAPES]
        self.items = [self._make(s, fields[s], self.rng) for s in
                      (i % len(LINEAR_SHAPES) for i in range(LINEAR_ITEMS))]
        warm = random.Random("linear-warm")   # the same warm-up codes for every seed
        for s, field in enumerate(fields):   # lazy tables and square roots, before timing
            self.run(self._make(s, field, warm), OFF)

    @staticmethod
    def _make(s, field, rng):
        _, _, n, l = LINEAR_SHAPES[s]
        A = [[rng.randrange(field.q) for _ in range(n - l)] for _ in range(l)]
        return {"shape": s, "field": field, "A": A,
                "k_dual": rng.randrange(field.e), "k_ext": rng.randrange(field.e)}

    def run(self, item, sp) -> Outcome:
        field, p, A = item["field"], item["field"].p, item["A"]
        l = len(A)
        rows = [[field.one if i == j else field.zero for j in range(l)] + [field.from_code(x) for x in A[i]]
                for i in range(l)]
        C = sp.call("linear.code_init", LinearCode, field, rows)
        sp.count("linear.min_distance_calls")
        try:
            prm = sp.call("linear.min_distance", min_distance, C)
        except BudgetExceeded:
            sp.count("linear.budget_refusals")
            raise
        if not prm.exact:
            sp.count("linear.inexact_params")
        verdicts = [sp.call("linear.is_galois_lcd", is_galois_lcd, C, k) for k in range(field.e)]
        D = sp.call("linear.galois_dual", galois_dual, C, item["k_dual"])
        X = None
        if p == 2 or p % 4 == 1:
            X = sp.call("linear.extend_lcd", extend_lcd, C, item["k_ext"], "char2" if p == 2 else "pmod4")
        out = Outcome(canon([item["shape"], item["A"], prm.to_json(),
                             [[v.lcd, v.det.code] for v in verdicts], item["k_dual"], D.rows,
                             item["k_ext"], X.rows if X else None]), 1)
        out.data = (C, prm, verdicts, D, X)
        if not prm.exact:
            out.fail("inexact distance")
        return out

    def check(self, outcome, item, reference) -> None:
        C, prm, verdicts, D, X = outcome.data
        n, l = C.n, C.dim
        if prm.exact and prm.d > min(sum(1 for x in row if x) for row in C.rows):
            outcome.fail("distance exceeds a generator row weight")
        if D.dim + l != n:
            outcome.fail("dual dimensions do not sum to n")
        # C is k-LCD exactly when C and its k-dual together span the whole space
        if (rank(C.field, C.codes_matrix() + D.codes_matrix()) == n) != verdicts[item["k_dual"]].lcd:
            outcome.fail("Gram verdict disagrees with the dual's span")
        if X is not None and (X.n != 2 * n - l or not is_galois_lcd(X, item["k_ext"]).lcd):
            outcome.fail("extended code is not Galois LCD")

    def mix(self, outcomes) -> dict:
        return {
            "shapes": [f"GF({p}^{e}) [{n},{l}]" for p, e, n, l in LINEAR_SHAPES],
            "codes": len(outcomes),
            "sum_q_pow_dim": sum(self.item(i)["field"].q ** LINEAR_SHAPES[self.item(i)["shape"]][3]
                                 for i in range(len(outcomes))),
        }


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_ROUNDS = 60


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli(Workload):
    """One operation is one cold CLI process (cli_child.py, which runs galcd.cli.main).

    A round is reproduce-all, one small classify and four single-code
    queries on contexts whose splitting field is at most GF(p^4), with
    seeded defining sets.
    An operation's time is that of ``cli.main`` in the child, which
    starts with galcd's caches empty, speed-normalised by the child's
    own clock.  Process spawn, interpreter start-up, ``import galcd.cli``
    and exit are left out (see speed.py); the median wall time per
    process is printed on the ``#`` lines, and ``cli.import_s`` is a
    per-layer metric.
    """

    name = "cli"
    round_len = 6
    golden_items = (1, 2, 3, 4, 5)   # the first round's five single-query processes
    trace_rate = 1.2
    timed_inside = True

    def setup(self, sp):
        self.env = cli_env()
        small, tiny = [], []
        for field, n, lam, k in _criterion6_contexts(sp, self):
            r = mult_order(lam)
            if n >= 2 and r * n <= 12 and multiplicative_order(field.q % (r * n), r * n) <= 2:
                small.append((field, n, lam, k))
                if len(tau_cycles(CosetContext(p=field.p, e=field.e, k=k, n=n, r=r))) <= 4:
                    tiny.append((field, n, lam, k))
        for contexts in (small, tiny):   # one fixed mixed order for every seed
            random.Random("cli-contexts").shuffle(contexts)
        # the contexts cycle in a fixed order and the seed picks the defining sets: a
        # cli.main call takes 2-15 ms depending on its context, and a 10 s run holds
        # only about 20 queries, so seeded contexts moved the median by a quarter
        for r in range(CLI_ROUNDS):
            self.items.append({"kind": "reproduce", "argv": ["reproduce", "all", "--format", "json"]})
            self.items.append(self._query("classify", tiny[r % len(tiny)]))
            for t, kind in enumerate(("cosets", "genpoly", "lcd-check", "mindist")):
                self.items.append(self._query(kind, small[(4 * r + t) % len(small)]))

    def _query(self, kind, ctx):
        field, n, lam, k = ctx
        argv = [kind, "-p", str(field.p), "-e", str(field.e), "-k", str(k), "-n", str(n),
                "--lambda", _lam_arg(lam)]
        item = {"kind": kind, "argv": argv, "ctx": ctx}
        if kind in ("genpoly", "lcd-check", "mindist"):
            blocks = _coset_blocks(field, n, lam, k)
            # never the full set: the zero code has no distance
            item["residues"] = _residues(blocks, self.rng.randrange((1 << len(blocks)) - 1))
            argv += ["--defining-set", ",".join(map(str, item["residues"]))]
        return item

    def run(self, item, sp) -> Outcome:
        mode = "spans" if sp is not OFF else "speed" if self.clocked else "plain"
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), mode] + item["argv"]
        proc, inner_s = sp.call("cli.process", self._spawn, cmd, sp)
        out = Outcome(canon([item["argv"], proc.returncode,
                             hashlib.sha256(proc.stdout.encode()).hexdigest()]), 1,
                      data=proc.stdout, inner_s=inner_s)
        if proc.returncode != 0:
            out.fail(f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return out

    def _spawn(self, cmd, sp):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=120)
        if SPANS_TAG not in proc.stderr:
            return proc, None
        proc.stderr, _, tail = proc.stderr.rpartition(SPANS_TAG)
        report = json.loads(tail)
        for name, start, end in report["spans"]:
            sp.add(name, start, end)
        return proc, report["seconds"]

    def check(self, outcome, item, reference) -> None:
        text, kind = outcome.data, item["kind"]
        if kind == "reproduce":
            reports = json.loads(text)
            if not all(rep["ok"] for rep in reports):
                outcome.fail("a worked example reports a mismatch")
            want = reference.get("reproduce_all")
            if want is not None and hashlib.sha256(text.encode()).hexdigest() != want:
                outcome.fail("reproduce-all output differs from the stored digest")
            return
        field, n, lam, k = item["ctx"]
        lines = text.splitlines()
        if kind == "classify":
            got = json.loads(text)["records"]
            want_records = [rec.to_json() for rec in classify_all_lcd(field, n, lam, k).records]
            ok = canon(got) == canon(want_records)
        elif kind == "cosets":
            got = [line.strip() for line in lines if line.startswith("  {")]
            ok = got == ["{" + ", ".join(map(str, c)) + "}" for c in _coset_blocks(field, n, lam, k)]
        else:
            C = code_from_defining_set(field, n, lam, item["residues"], k)
            if kind == "genpoly":
                ok = lines[0] == f"generator: {C.g}"
            elif kind == "lcd-check":
                ok = lines[-1] == f"galois-lcd: {is_lcd(C)}"
            else:
                ok = lines[0] == f"params: {code_params(C)}"
        if not ok:
            outcome.fail(f"{kind} output disagrees with the library")

    def reference(self, outcomes) -> dict:
        return {"reproduce_all": hashlib.sha256(outcomes[0].data.encode()).hexdigest()}

    def mix(self, outcomes) -> dict:
        used = [self.item(i) for i in range(len(outcomes))]
        return {
            "processes": len(used),
            "commands": {kind: sum(1 for it in used if it["kind"] == kind)
                         for kind in ("reproduce", "classify", "cosets", "genpoly", "lcd-check", "mindist")},
            "contexts": sorted({" ".join(it["argv"][1:11]) for it in used if "ctx" in it}),
        }


WORKLOADS = {w.name: w for w in (Catalog, Verify, Linear, Cli)}
