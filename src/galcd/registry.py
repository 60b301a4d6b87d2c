"""Registry of bundled worked examples with recorded expected values.

Each entry recomputes every numeric claim of one worked example from
scratch and compares it with the recorded value.  A few recorded
values are known to disagree with exact computation; those live in the
KNOWN_DISCREPANCIES manifest below, carry the recorded value verbatim,
and are reported as "flagged" rather than as failures.  Soft claims
(recorded values that exact computation may legitimately overrule) are
also flagged instead of failed on mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from galcd import constacyclic, cosets, linear
from galcd.constacyclic import factor_xn_minus_lambda
from galcd.cosets import CosetContext, DefiningSet
from galcd.fields import make_field, mult_order, multiplicative_order, frobenius_pow
from galcd.linalg import rank
from galcd.linear import LinearCode, galois_inner_product

# Recorded claims that exact recomputation contradicts.  "recorded" keeps
# the claim verbatim; "rule" states how the oracle value is obtained.
KNOWN_DISCREPANCIES: dict[tuple[str, str], dict[str, str]] = {
    ("3.8", "params"): {
        "recorded": "[10,7,4]",
        "rule": "n = 5 and |P| = 3 give dim 2; exact distance 4, so the code is [5,2,4]",
    },
    ("4.5", "relation-Q1"): {
        "recorded": "-11*Q1 = Q1",
        "rule": "-11*1 = 9 mod 10, so -11*Q1 = Q9",
    },
    ("4.5", "P3-params"): {
        "recorded": "[10,3,7]",
        "rule": "the run bound gives d >= 8 = Singleton, so d = 8 exactly",
    },
    ("4.8", "family-count"): {
        "recorded": "9 codes",
        "rule": "d ranges over 2..n = 5, giving 4 codes",
    },
}


@dataclass(frozen=True)
class Claim:
    claim_id: str
    description: str
    expected: object
    computed: object
    kind: str = "hard"      # hard claims fail on mismatch; soft ones flag
    status: str = "match"   # match | flagged | mismatch
    note: str = ""

    def to_json(self) -> dict:
        return {
            "claim": self.claim_id,
            "description": self.description,
            "expected": self.expected,
            "computed": self.computed,
            "kind": self.kind,
            "status": self.status,
            "note": self.note,
        }


@dataclass
class ExampleReport:
    example_id: str
    inputs: dict
    claims: list[Claim] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status != "mismatch" for c in self.claims)

    @property
    def flagged(self) -> list[Claim]:
        return [c for c in self.claims if c.status == "flagged"]

    def to_json(self) -> dict:
        return {
            "example": self.example_id,
            "inputs": self.inputs,
            "claims": [c.to_json() for c in self.claims],
            "ok": self.ok,
        }


def _claim(report: ExampleReport, claim_id: str, description: str, expected, computed, kind="hard"):
    if expected == computed:
        status, note = "match", ""
    else:
        known = KNOWN_DISCREPANCIES.get((report.example_id, claim_id))
        if known is not None:
            status, note = "flagged", known["rule"]
        elif kind == "soft":
            status, note = "flagged", "exact computation disagrees with the recorded value"
        else:
            status, note = "mismatch", ""
    report.claims.append(Claim(claim_id, description, expected, computed, kind, status, note))


def _params_list(params) -> list[int]:
    return [params.n, params.dim, params.d]


def run_2_4(**budgets) -> ExampleReport:
    f8 = make_field(2, 3, (1, 1, 0, 1))
    a = f8.gen
    G = LinearCode(f8, [[f8.one, f8.zero, a, a], [f8.zero, f8.one, f8.one, a]])
    rep = ExampleReport("2.4", {
        "field": f8.to_json(),
        "generator": [[list(x.coeffs) for x in row] for row in G.generator()],
        "k": 1,
    })

    _claim(rep, "alpha-order", "multiplicative order of the generator a", 7, mult_order(a))
    _claim(rep, "alpha-cube", "a^3 = 1 + a under the pinned modulus", [1, 1, 0], list((a**3).coeffs))

    powered = linear.p_power_code(G, 2)
    _claim(rep, "p-power-entry", "entry a of G maps to a^4 in G^(4)",
           list(frobenius_pow(a, 2).coeffs), list(powered.generator()[0][2].coeffs))

    chk = linear.is_galois_lcd(G, 1)
    _claim(rep, "det", "det of G (G^(4))^T", [0, 1, 0], list(chk.det.coeffs))
    _claim(rep, "lcd", "Galois LCD at k = 1", True, chk.lcd)

    dual = linear.galois_dual(G, 1)
    stacked = G.codes_matrix() + dual.codes_matrix()
    hull = G.dim + dual.dim - rank(f8, stacked)
    _claim(rep, "hull", "dim of C intersected with its k = 1 dual", 0, hull)
    ortho = all(
        not galois_inner_product(grow, drow, 1)
        for grow in G.generator()
        for drow in dual.generator()
    )
    _claim(rep, "dual-orthogonality", "every generator row pairs to 0 with every dual row", True, ortho)

    pm = linear.min_distance(G, "messages", **budgets)
    psup = linear.min_distance(G, "supports", **budgets)
    _claim(rep, "params", "exact parameters", [4, 2, 3], _params_list(pm))
    _claim(rep, "strategies-agree", "message and support engines agree", _params_list(pm), _params_list(psup))
    _claim(rep, "mds", "attains the Singleton bound", True, pm.mds)

    ext = linear.extend_lcd(G, 1, "char2")
    ext_chk = linear.is_galois_lcd(ext, 1)
    ext_params = linear.min_distance(ext, **budgets)
    _claim(rep, "extension-char2", "[I A A] extension is LCD with d >= 3",
           True, bool(ext_chk.lcd and ext_params.exact and ext_params.d >= 3))

    return rep


def run_3_8(**budgets) -> ExampleReport:
    f = make_field(11, 3)
    lam = f.from_int(-1)
    ctx = CosetContext(p=11, e=3, k=1, n=5, r=2)
    rep = ExampleReport("3.8", {
        "field": f.to_json(), "lambda": lam.to_json(), "n": 5, "k": 1,
        "defining_set": [3, 5, 7],
    })

    cs = cosets.cyclotomic_cosets(ctx)
    _claim(rep, "cosets", "q-cyclotomic cosets on 1 + 2Z_10",
           [[1], [3], [5], [7], [9]], [list(c) for c in cs])

    relations = cosets.tau(ctx)
    _claim(rep, "relations", "-11 action on the cosets",
           {"1": 9, "3": 7, "5": 5, "7": 3, "9": 1},
           {str(k): v for k, v in relations.items()})

    P = DefiningSet(ctx, (3, 5, 7))
    _claim(rep, "stability", "-11 P = P", True, cosets.is_lcd_defining_set(P))

    factors = factor_xn_minus_lambda(5, lam)
    _claim(rep, "factor-degrees", "x^5 + 1 splits into linear factors over GF(1331)",
           [1, 1, 1, 1, 1], sorted(m.degree for _, m in factors))

    C = constacyclic.code_from_defining_set(f, 5, lam, (3, 5, 7), k=1)
    _claim(rep, "lcd", "coset criterion verdict", True, constacyclic.is_lcd(C))
    _claim(rep, "lcd-matrix", "nonsingular-Gram verdict", True, constacyclic.matrix_lcd_check(C).lcd)

    D = constacyclic.galois_dual_code(C)
    _claim(rep, "dual-set", "dual defining set", [1, 9], list(D.P.residues))
    _claim(rep, "dual-dim", "dual dimension", 3, D.dim)

    params = constacyclic.code_params(C, **budgets)
    _claim(rep, "params", "recorded parameters", [10, 7, 4], _params_list(params))
    _claim(rep, "computed-params", "oracle parameters for n = 5", [5, 2, 4], _params_list(params))
    _claim(rep, "mds", "the computed code attains the Singleton bound", True, params.mds)

    return rep


def run_3_14(**budgets) -> ExampleReport:
    f = make_field(5, 3)
    lam = f.from_int(-1)
    ctx = CosetContext(p=5, e=3, k=1, n=13, r=2)
    rep = ExampleReport("3.14", {
        "field": f.to_json(), "lambda": lam.to_json(), "n": 13, "k": 1,
    })

    cs = cosets.cyclotomic_cosets(ctx)
    _claim(rep, "cosets", "q-cyclotomic cosets on 1 + 2Z_26",
           [[1, 5, 21, 25], [3, 11, 15, 23], [7, 9, 17, 19], [13]],
           [list(c) for c in cs])

    _claim(rep, "all-lcd-exponent", "5^(3j-1) = -1 mod 26 at j = 1", 1, cosets.all_lcd_exponent(ctx))
    _claim(rep, "q1-fixed", "-5 lies in the coset of 1", True, cosets.q1_fixed_test(ctx))

    census = cosets.stable_orbit_census(ctx)
    _claim(rep, "census", "fixed cosets and swapped pairs", [4, 0], [census.t, census.h])

    factors = factor_xn_minus_lambda(13, lam)
    _claim(rep, "factor-degrees", "x^13 + 1 factor degrees over GF(125)",
           [1, 4, 4, 4], sorted(m.degree for _, m in factors))

    cat = constacyclic.classify_all_lcd(f, 13, lam, 1, **budgets)
    _claim(rep, "stable-sets", "stable defining sets (including empty and full)", 16, cat.stable_count)
    _claim(rep, "count", "recorded code count (excludes the zero code)", 15, cat.census.count)
    _claim(rep, "all-lcd", "every catalog entry is Galois LCD", True, all(r.lcd for r in cat.records))

    recorded_types = [[13, 12, 2], [13, 9, 4], [13, 8, 4], [13, 4, 8], [13, 5, 7]]
    types = {t for t in cat.parameter_types()}
    _claim(rep, "parameter-types", "the five recorded parameter types all occur",
           recorded_types, [t for t in recorded_types if tuple(t) in types])

    return rep


def run_3_15(**budgets) -> ExampleReport:
    f = make_field(13, 3)
    lam = f.from_int(-1)
    ctx = CosetContext(p=13, e=3, k=2, n=9, r=2)
    rep = ExampleReport("3.15", {
        "field": f.to_json(), "lambda": lam.to_json(), "n": 9, "k": 2,
    })

    cs = cosets.cyclotomic_cosets(ctx)
    _claim(rep, "cosets", "nine singleton cosets on 1 + 2Z_18",
           [[1], [3], [5], [7], [9], [11], [13], [15], [17]], [list(c) for c in cs])

    relations = cosets.tau(ctx)
    _claim(rep, "relations", "-13^2 action on the cosets",
           {"1": 11, "11": 13, "13": 17, "17": 7, "7": 5, "5": 1, "3": 15, "15": 3, "9": 9},
           {str(k): v for k, v in relations.items()})

    closure1 = cosets.lcd_closure(ctx, (1,))
    _claim(rep, "closure-Q1", "stability closure of Q1 is P1",
           [1, 5, 7, 11, 13, 17], list(closure1.residues))
    closure3 = cosets.lcd_closure(ctx, (3,))
    _claim(rep, "closure-Q3", "stability closure of Q3", [3, 15], list(closure3.residues))

    census = cosets.stable_orbit_census(ctx)
    _claim(rep, "census", "fixed cosets and halved non-fixed count", [1, 4], [census.t, census.h])
    _claim(rep, "all-lcd-exponent", "no j with 13^(3j-2) = -1 mod 18", None, cosets.all_lcd_exponent(ctx))

    p_sets = {
        "P1": (1, 5, 7, 11, 13, 17),
        "P2": (1, 5, 7, 9, 11, 13, 17),
        "P3": (1, 3, 5, 7, 11, 13, 15, 17),
        "P4": (3, 15),
        "P5": (3, 9, 15),
        "P6": (9,),
    }
    recorded = {
        "P1": ([9, 3, 3], "soft"), "P2": ([9, 2, 6], "soft"), "P3": ([9, 1, 9], "hard"),
        "P4": ([9, 7, 2], "soft"), "P5": ([9, 6, 2], "soft"), "P6": ([9, 8, 2], "hard"),
    }
    dims = []
    for name, residues in p_sets.items():
        C = constacyclic.code_from_defining_set(f, 9, lam, residues, k=2)
        dims.append(C.dim)
        _claim(rep, f"{name}-stable", f"-13^2 fixes {name}", True, constacyclic.is_lcd(C))
        params = constacyclic.code_params(C, **budgets)
        expected, kind = recorded[name]
        _claim(rep, f"{name}-params", f"parameters of {name}", expected, _params_list(params), kind=kind)
        if name in ("P3", "P6"):
            _claim(rep, f"{name}-mds", f"{name} attains the Singleton bound", True, params.mds)
    _claim(rep, "dims", "dimensions of P1..P6", [3, 2, 1, 7, 6, 8], dims)

    return rep


def run_4_5(**budgets) -> ExampleReport:
    f = make_field(11, 2)
    lam = f.one
    ctx = CosetContext(p=11, e=2, k=1, n=10, r=1)
    rep = ExampleReport("4.5", {
        "field": f.to_json(), "lambda": lam.to_json(), "n": 10, "k": 1,
    })

    cs = cosets.cyclotomic_cosets(ctx)
    _claim(rep, "cosets", "ten singleton cosets modulo 10",
           [[i] for i in range(10)], [list(c) for c in cs])

    relations = cosets.tau(ctx)
    _claim(rep, "relation-Q1", "-11 Q1 (recorded as Q1)", 1, relations[1])
    for src, dst in ((2, 8), (3, 7), (4, 6), (5, 5)):
        _claim(rep, f"relation-Q{src}", f"-11 Q{src} = Q{dst}", dst, relations[src])

    census = cosets.stable_orbit_census(ctx)
    _claim(rep, "census", "fixed cosets and swapped pairs", [2, 4], [census.t, census.h])

    cat = constacyclic.classify_all_lcd(f, 10, lam, 1, **budgets)
    _claim(rep, "count", "number of Hermitian LCD cyclic codes", 63, cat.census.count)
    _claim(rep, "stable-sets", "enumerated stable sets including empty and full", 64, cat.stable_count)

    p_sets = {"P1": (4, 5, 6), "P2": (3, 4, 5, 6, 7), "P3": (2, 3, 4, 5, 6, 7, 8)}
    for name, residues in p_sets.items():
        C = constacyclic.code_from_defining_set(f, 10, lam, residues, k=1)
        _claim(rep, f"{name}-lcd", f"{name} is Hermitian LCD (coset criterion)", True, constacyclic.is_lcd(C))
        _claim(rep, f"{name}-lcd-matrix", f"{name} is Hermitian LCD (Gram criterion)",
               True, constacyclic.matrix_lcd_check(C).lcd)
        params = constacyclic.code_params(C, **budgets)
        if name == "P3":
            _claim(rep, "P3-bch", "run bound for the seven consecutive exponents",
                   8, cosets.bch_lower_bound(C.P))
            _claim(rep, "P3-params", "recorded parameters", [10, 3, 7], _params_list(params))
            _claim(rep, "P3-computed", "oracle parameters", [10, 3, 8], _params_list(params))
        else:
            expected = {"P1": [10, 7, 4], "P2": [10, 5, 6]}[name]
            _claim(rep, f"{name}-params", f"parameters of {name}", expected, _params_list(params))
        _claim(rep, f"{name}-mds", f"{name} attains the Singleton bound", True, params.mds)

    return rep


def run_4_8(**budgets) -> ExampleReport:
    p, a, n = 3, 2, 5
    f = make_field(p, 2 * a)
    lam = f.from_int(-1)
    rep = ExampleReport("4.8", {
        "field": f.to_json(), "lambda": lam.to_json(), "n": n, "a": a,
    })

    rn = 2 * n
    _claim(rep, "order", "9 has order 2 modulo 10", 2, multiplicative_order(p**a % rn, rn))
    _claim(rep, "unique-involution", "Z_10* has 9 as its only involution",
           True, cosets.unique_order2_unit(rn))

    produced = []
    for d in range(2, n + 1):
        C = constacyclic.hermitian_mds_family(p, a, -1, n, d)
        params = constacyclic.code_params(C, **budgets)
        produced.append(_params_list(params))
        _claim(rep, f"d{d}-params", f"designed distance {d} yields [n, n+1-d, d]",
               [n, n + 1 - d, d], _params_list(params))
        _claim(rep, f"d{d}-mds", f"designed distance {d} member is MDS", True, params.mds)
        _claim(rep, f"d{d}-lcd", f"designed distance {d} member is Hermitian LCD (Gram criterion)",
               True, constacyclic.matrix_lcd_check(C).lcd)
    _claim(rep, "family-count", "number of codes produced", 9, len(produced))

    return rep


_RUNNERS = {
    "2.4": run_2_4,
    "3.8": run_3_8,
    "3.14": run_3_14,
    "3.15": run_3_15,
    "4.5": run_4_5,
    "4.8": run_4_8,
}
EXAMPLE_IDS = tuple(_RUNNERS)


def run_example(example_id: str, **budgets) -> ExampleReport:
    runner = _RUNNERS.get(example_id)
    if runner is None:
        raise KeyError(f"unknown example id {example_id!r}; known: {', '.join(EXAMPLE_IDS)}")
    return runner(**budgets)


def run_all(**budgets) -> list[ExampleReport]:
    return [run_example(eid, **budgets) for eid in EXAMPLE_IDS]
