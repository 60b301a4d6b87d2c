"""Command-line front end.

Subcommands: cosets, classify, lcd-check, dual, genpoly, mindist,
extend, reproduce.  Exit codes: 0 success, 1 usage error, 2 refused
for budget reasons, 3 reproduction mismatch.  Output files are byte
deterministic for identical flags: catalogs are sorted, the root of
unity is pinned by the library's deterministic rule, and no timestamps
are emitted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import partial

from galcd import constacyclic, cosets, linear, registry
from galcd.cosets import CosetContext
from galcd.fields import Element, Field, make_field, mult_order
from galcd.linear import BudgetExceeded, LinearCode

USAGE_ERROR = 1
BUDGET_REFUSED = 2
REPRODUCE_MISMATCH = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_ints(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(tok) for tok in text.replace(";", ",").split(",")]


def _coefficients(flag: str, toks: list[int], p: int) -> list[int]:
    # Checked here: make_field and from_coeffs would reduce coefficients mod p.
    for c in toks:
        if not 0 <= c < p:
            raise ValueError(f"{flag} coefficient {c} out of range: need an integer in [0, {p})")
    return toks


def _field_from_args(args) -> Field:
    modulus = _coefficients("--modulus", _parse_ints(args.modulus), args.p) if args.modulus else None
    return make_field(args.p, args.e, modulus)


def _lambda_from_args(field: Field, text: str) -> Element:
    toks = _parse_ints(text)
    if len(toks) == 1:
        return field.from_int(toks[0])
    return field.from_coeffs(_coefficients("--lambda", toks, field.p))


def _entry_from_json(field: Field, entry):
    # Checked here: from_coeffs would reduce coefficients mod p, and JSON numbers
    # may be floats or booleans.
    is_vector = isinstance(entry, list)
    for c in entry if is_vector else [entry]:
        if type(c) is not int or not 0 <= c < field.p:
            raise ValueError(f"--gen value {c!r} out of range: need an integer in [0, {field.p})")
    return field.from_coeffs(entry) if is_vector else entry


def _matrix_from_json(field: Field, payload) -> LinearCode:
    if not isinstance(payload, list) or not all(isinstance(row, list) for row in payload):
        raise ValueError("--gen must be a JSON list of rows, each a list of entries")
    return LinearCode(field, [[_entry_from_json(field, entry) for entry in row] for row in payload])


def _load_matrix_arg(field: Field, text: str) -> LinearCode:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        payload = json.loads(text)
    return _matrix_from_json(field, payload)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_cosets(args) -> int:
    field = _field_from_args(args)
    lam = _lambda_from_args(field, args.lam)
    if not lam:
        raise _UsageError("lambda must be nonzero")
    r = mult_order(lam)
    ctx = CosetContext(p=field.p, e=field.e, k=args.k, n=args.n, r=r)
    cs = cosets.cyclotomic_cosets(ctx)
    print(f"context: p={field.p} e={field.e} k={args.k} n={args.n} lambda={lam} r={r} rn={ctx.rn}")
    print(f"cosets ({len(cs)}):")
    for c in cs:
        print("  {" + ", ".join(str(x) for x in c) + "}")
    if not cosets.frame_preserved(ctx):
        print("census: n/a (-p^k leaves the exponent set; "
              "lambda^(1+p^(e-k)) != 1, so every code here is Galois LCD)")
        print("all-LCD: yes (automatic)")
        return 0
    census = cosets.stable_orbit_census(ctx)
    if census.h is None:
        print(f"census: t={census.t} h=n/a (non-fixed cosets do not pair)")
    else:
        inv = "involutive" if census.involutive else "not involutive"
        print(f"census: t={census.t} h={census.h} ({inv})")
        if census.pairs:
            print("orbit pairs: " + "  ".join(f"Q{a}<->Q{b}" for a, b in census.pairs))
    j = cosets.all_lcd_exponent(ctx)
    q1 = cosets.q1_fixed_test(ctx)
    if (j is not None) != q1:
        raise AssertionError("exponent test and coset-of-1 test disagree")
    if j is not None:
        print(f"all-LCD: yes (p^(e*{j}-k) = -1 mod {ctx.rn})")
    else:
        print("all-LCD: no")
    if field.e == 2 * args.k and r % 2 == 0 and args.n % 2 == 0:
        ok = cosets.hermitian_necessary_check(field.p, args.k, r, args.n)
        print(f"hermitian necessary condition (r | p^a+1 and 2^(b1+b2) | p^a+1): {'holds' if ok else 'fails'}")
    return 0


def cmd_classify(args) -> int:
    field = _field_from_args(args)
    lam = _lambda_from_args(field, args.lam)
    cat = constacyclic.classify_all_lcd(
        field, args.n, lam, args.k,
        exact_distance=args.exact_distance,
        budget_messages=args.budget_messages,
        budget_supports=args.budget_supports,
    )
    census = cat.census
    if args.format == "json":
        payload = {
            "p": field.p, "e": field.e, "k": args.k, "n": args.n,
            "lambda": lam.to_json(), "r": cat.records[0].code.r,
            "theta": cat.records[0].code.theta.to_json(),
            "records": [rec.to_json() for rec in cat.records],
            "census": {"t": census.t, "h": census.h, "involutive": census.involutive},
            "counts": {
                "stable_sets": cat.stable_count,
                "excluding_zero_code": cat.nonzero_count,
                "census_formula": census.count,
            },
        }
        _emit(_dump_json(payload), args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["p", "e", "k", "n", "lambda", "r", "defining_set",
                         "dim", "d", "exact", "bch", "lcd", "mds"])
        for rec in cat.records:
            C = rec.code
            d = ""
            exact = ""
            if rec.params:
                d = rec.params.d if rec.params.exact else f"{rec.params.d[0]}..{rec.params.d[1]}"
                exact = rec.params.exact
            writer.writerow([
                field.p, field.e, args.k, args.n, lam.code, C.r,
                ";".join(str(x) for x in C.P.residues),
                C.dim, d, exact, rec.bch if rec.bch is not None else "",
                rec.lcd, rec.mds,
            ])
        _emit(buf.getvalue(), args.out)
    if census.h is None:
        formula = "n/a (non-fixed cosets do not pair)"
    elif census.involutive:
        formula = f"= {census.count} ({'matches' if cat.nonzero_count == census.count else 'differs'})"
    else:
        formula = f"= {census.count} (formula needs an involutive action)"
    print(f"stable sets: {cat.stable_count} including empty and full; "
          f"{cat.nonzero_count} excluding the zero code", file=sys.stderr)
    h = "n/a" if census.h is None else census.h
    print(f"census: t={census.t} h={h}; 2^(t+h)-1 {formula}", file=sys.stderr)
    return 0


def _code_from_args(args) -> constacyclic.ConstacyclicCode:
    field = _field_from_args(args)
    lam = _lambda_from_args(field, args.lam)
    residues = tuple(_parse_ints(args.defining_set))
    return constacyclic.code_from_defining_set(field, args.n, lam, residues, args.k)


def cmd_lcd_check(args) -> int:
    C = _code_from_args(args)
    coset_verdict = constacyclic.is_lcd(C)
    print(f"code: n={C.n} dim={C.dim} lambda={C.lam} k={C.k} P={{{', '.join(map(str, C.P.residues))}}}")
    if not cosets.frame_preserved(C.P.ctx):
        print("lambda^(1+p^(e-k)) != 1: automatically LCD")
    else:
        print(f"-p^k stability: {cosets.is_lcd_defining_set(C.P)}")
    if C.dim >= 1:
        chk = constacyclic.matrix_lcd_check(C)
        print(f"gram determinant: {chk.det} nonzero={chk.lcd}")
        if chk.lcd != coset_verdict:
            raise AssertionError("coset and Gram criteria disagree")
    print(f"galois-lcd: {coset_verdict}")
    return 0


def cmd_dual(args) -> int:
    C = _code_from_args(args)
    D = constacyclic.galois_dual_code(C)
    print(f"code: n={C.n} dim={C.dim} P={{{', '.join(map(str, C.P.residues))}}}")
    print(f"dual: dim={D.dim} lambda'={D.lam} k'={D.k}")
    print(f"dual defining set: {{{', '.join(map(str, D.P.residues))}}}")
    print(f"dual generator: {D.g}")
    return 0


def cmd_genpoly(args) -> int:
    C = _code_from_args(args)
    print(f"generator: {C.g}")
    print(f"coefficients (constant first): {_dump_json(C.g.to_json()).strip()}")
    print(f"dim = {C.dim}, bch bound = {cosets.bch_lower_bound(C.P) if not C.P.is_full else 'n/a'}")
    return 0


def cmd_mindist(args) -> int:
    if args.gen:
        # --gen is a bare matrix: the family options would be silently dropped
        if args.defining_set is not None:
            raise _UsageError("--defining-set cannot be combined with --gen")
        if args.lam != "1":
            raise _UsageError("--lambda cannot be combined with --gen")
        code = _load_matrix_arg(_field_from_args(args), args.gen)
        if code.n != args.n:
            raise _UsageError(f"-n {args.n} differs from the --gen row width {code.n}")
        distance = partial(linear.min_distance, code)
    elif args.defining_set or args.defining_set == "":
        # code_params passes the BCH bound and the shift symmetry as hints
        distance = partial(constacyclic.code_params, _code_from_args(args))
    else:
        raise _UsageError("provide --defining-set or --gen")
    params = distance(
        args.strategy,
        budget_messages=args.budget_messages,
        budget_supports=args.budget_supports,
    )
    return _report_params(params, _dump_json(params.to_json()).strip())


def cmd_extend(args) -> int:
    field = _field_from_args(args)
    code = _load_matrix_arg(field, args.gen)
    ext = linear.extend_lcd(code, args.k, args.mode)
    chk = linear.is_galois_lcd(ext, args.k)
    print(f"extended: [{ext.n}, {ext.dim}] over {field!r}")
    print(_dump_json([[list(Element(field, c).coeffs) for c in row] for row in ext.rows]).strip())
    print(f"galois-lcd at k={args.k}: {chk.lcd} (gram determinant {chk.det})")
    params = linear.min_distance(
        ext, budget_messages=args.budget_messages, budget_supports=args.budget_supports
    )
    return _report_params(params)


def _report_params(params: linear.CodeParams, *extra: str) -> int:
    print(f"params: {params}", *extra, sep="\n")
    if not params.exact:
        print("refused: exact distance exceeds the enumeration budgets", file=sys.stderr)
        return BUDGET_REFUSED
    return 0


def cmd_reproduce(args) -> int:
    if args.example == "all":
        reports = registry.run_all(
            budget_messages=args.budget_messages, budget_supports=args.budget_supports
        )
    else:
        try:
            reports = [registry.run_example(
                args.example,
                budget_messages=args.budget_messages,
                budget_supports=args.budget_supports,
            )]
        except KeyError as ex:
            raise _UsageError(ex.args[0]) from None
    if args.format == "json":
        _emit(_dump_json([rep.to_json() for rep in reports]), args.out)
    else:
        lines = []
        for rep in reports:
            for c in rep.claims:
                if c.status == "match":
                    line = f"[{rep.example_id}] {c.claim_id}: match ({c.computed})"
                elif c.status == "flagged":
                    line = (f"[{rep.example_id}] {c.claim_id}: FLAGGED recorded {c.expected}, "
                            f"computed {c.computed} ({c.note})")
                else:
                    line = (f"[{rep.example_id}] {c.claim_id}: MISMATCH recorded {c.expected}, "
                            f"computed {c.computed}")
                lines.append(line)
            lines.append(f"[{rep.example_id}] {'ok' if rep.ok else 'MISMATCH'}; "
                         f"{len(rep.claims)} claims, {len(rep.flagged)} flagged")
        _emit("".join(line + "\n" for line in lines), args.out)
    return 0 if all(rep.ok for rep in reports) else REPRODUCE_MISMATCH


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_field_args(sp, family=True):
    sp.add_argument("-p", type=int, required=True, help="prime characteristic")
    sp.add_argument("-e", type=int, required=True, help="extension degree")
    sp.add_argument("-k", type=int, default=0, help="Galois duality parameter (0 <= k < e)")
    if family:  # the -n and --lambda of a constacyclic family
        sp.add_argument("-n", type=int, required=True, help="code length")
        sp.add_argument("--lambda", dest="lam", default="1",
                        help="constacyclic constant: signed integer or comma coefficients")
    sp.add_argument("--modulus", default=None,
                    help="field modulus coefficients, constant first (default: smallest irreducible)")


def _add_budget_args(sp):
    sp.add_argument("--budget-messages", type=_nonnegative_int,
                    default=linear.DEFAULT_MESSAGE_BUDGET, help="codeword-enumeration budget")
    sp.add_argument("--budget-supports", type=_nonnegative_int,
                    default=linear.DEFAULT_SUPPORT_BUDGET, help="budget of supports examined")


def _cosets_args(sp):
    _add_field_args(sp)
    sp.set_defaults(func=cmd_cosets)


def _classify_args(sp):
    _add_field_args(sp)
    _add_budget_args(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None, help="write the catalog to a file")
    sp.add_argument("--exact-distance", action=argparse.BooleanOptionalAction, default=True,
                    help="compute exact distances (default) or report bound intervals")
    sp.set_defaults(func=cmd_classify)


def _defining_set_args(func, help_text=None):
    """The arguments of a command on the one code that --defining-set picks in a family."""
    def add_args(sp):
        _add_field_args(sp)
        sp.add_argument("--defining-set", required=True, help=help_text)
        sp.set_defaults(func=func)
    return add_args


def _mindist_args(sp):
    _add_field_args(sp)
    _add_budget_args(sp)
    sp.add_argument("--defining-set", default=None)
    sp.add_argument("--gen", default=None,
                    help="generator matrix as JSON (rows of coefficient vectors), or @file")
    sp.add_argument("--strategy", choices=("auto", "messages", "supports"), default="auto")
    sp.set_defaults(func=cmd_mindist)


def _extend_args(sp):
    _add_field_args(sp, family=False)
    _add_budget_args(sp)
    sp.add_argument("--mode", choices=("char2", "pmod4"), required=True)
    sp.add_argument("--gen", required=True, help="standard-form generator as JSON or @file")
    sp.set_defaults(func=cmd_extend)


def _reproduce_args(sp):
    _add_budget_args(sp)
    sp.add_argument("example", help="example id (e.g. 3.14) or 'all'")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_reproduce)


# name -> (help text, function adding the subparser's arguments and func), in help order
COMMANDS = {
    "cosets": ("cyclotomic cosets, census and the all-LCD test", _cosets_args),
    "classify": ("catalog of all -p^k-stable defining sets", _classify_args),
    "lcd-check": ("LCD verdict for one defining set",
                  _defining_set_args(cmd_lcd_check, "comma-separated exponents")),
    "dual": ("Galois dual of a constacyclic code", _defining_set_args(cmd_dual)),
    "genpoly": ("generator polynomial for a defining set", _defining_set_args(cmd_genpoly)),
    "mindist": ("exact minimum distance", _mindist_args),
    "extend": ("standard-form LCD extension [I A A] or [I A eta*A]", _extend_args),
    "reproduce": ("recompute the bundled worked examples", _reproduce_args),
}


def build_parser(command: str | None = None) -> _Parser:
    """The galcd parser with every subcommand, or with only the one named.

    A subcommand's help, usage and error texts do not depend on which
    other subcommands the parser holds, so ``main`` builds only the one
    it runs.
    """
    parser = _Parser(prog="galcd", description="Galois LCD constacyclic code toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in COMMANDS.items():
        if command is None or name == command:
            add_args(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The full parser answers --help, a missing command and an unknown one.
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        if "k" in args and not 0 <= args.k < args.e:
            raise _UsageError(f"-k must satisfy 0 <= k < e = {args.e}, got {args.k}")
        return args.func(args)
    except _UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return USAGE_ERROR
    except BudgetExceeded as ex:
        print(f"refused: {ex}", file=sys.stderr)
        return BUDGET_REFUSED
    except (ValueError, OSError, json.JSONDecodeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
