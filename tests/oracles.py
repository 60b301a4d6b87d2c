"""Independent brute-force oracles used by the test suite.

These deliberately avoid the production decision paths: field products
are schoolbook digit products reduced one leading term at a time,
irreducibility is checked by literal trial division, intersections by
rank counting or literal codeword enumeration, and distances by walking
the whole codebook in pure Python.
"""

from __future__ import annotations

from itertools import combinations, product

from galcd import linalg
from galcd.constacyclic import CatalogRecord, code_from_defining_set, code_params, is_lcd
from galcd.cosets import CosetContext, bch_lower_bound, enumerate_stable_sets
from galcd.fields import Field, embedding, mult_order
from galcd.linear import LinearCode, euclidean_parity_check, galois_dual
from galcd.polys import Poly


def _digits(code: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        code, d = divmod(code, p)
        out.append(d)
    return out


def poly_rem(a, m, p: int) -> list[int]:
    """The remainder of a by monic m over GF(p), len(m) - 1 digits, one leading term at a time."""
    d = len(m) - 1
    r = [c % p for c in a] + [0] * max(0, d - len(a))
    for top in range(len(r) - 1, d - 1, -1):
        lead = r[top]
        if lead:
            for i, c in enumerate(m):
                r[top - d + i] = (r[top - d + i] - lead * c) % p
    return r[:d]


def schoolbook_mul(field: Field, a: int, b: int) -> int:
    """a*b on codes: the digit polynomials multiplied term by term, then reduced by the modulus."""
    p, e = field.p, field.e
    da, db = _digits(a, p, e), _digits(b, p, e)
    prod = [0] * (2 * e - 1)
    for j, bj in enumerate(db):
        if bj:
            for i, ai in enumerate(da):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return sum(c * p**i for i, c in enumerate(poly_rem(prod, field.modulus, p)))


def trial_division_irreducible(coeffs, p: int) -> bool:
    """Divide by every monic polynomial of degree 1..deg//2."""
    c = [x % p for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    e = len(c) - 1
    if e < 1:
        return False
    for d in range(1, e // 2 + 1):
        for tail in range(p**d):
            if not any(poly_rem(c, _digits(tail, p, d) + [1], p)):
                return False
    return True


def brute_log_tables(field: Field) -> tuple[int, list[int], list[int]]:
    """Smallest generator with its exp and log tables, by plain walks.

    The powers of each candidate code are walked with ``schoolbook_mul``
    until they first return to 1; the first candidate whose walk takes
    q - 1 steps generates the multiplicative group.
    """
    q = field.q
    for g in range(1, q):
        exp = [1]
        val = schoolbook_mul(field, 1, g)
        while val != 1:
            exp.append(val)
            val = schoolbook_mul(field, val, g)
        if len(exp) == q - 1:
            return g, exp, _log_of(exp, q)
    raise AssertionError(f"no generator of {field!r}")


def walk_log_tables(field: Field, g: int) -> tuple[list[int], list[int]]:
    """The exp and log tables of g by q - 2 sequential ``schoolbook_mul`` steps.

    Raises AssertionError unless g has order q - 1.
    """
    q = field.q
    exp = [1]
    for _ in range(q - 2):
        exp.append(schoolbook_mul(field, exp[-1], g))
    if schoolbook_mul(field, exp[-1], g) != 1 or len(set(exp)) != q - 1:
        raise AssertionError(f"{g} does not generate {field!r}")
    return exp, _log_of(exp, q)


def _log_of(exp: list[int], q: int) -> list[int]:
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    return log


def naive_pow(field: Field, a: int, n: int) -> int:
    """a^n for n >= 0 as n plain ``schoolbook_mul`` products starting from 1."""
    out = 1
    for _ in range(n):
        out = schoolbook_mul(field, out, a)
    return out


def digitwise_add(field: Field, a: int, b: int) -> int:
    """a + b on codes, adding the base-p digits mod p one place at a time."""
    p, out, place = field.p, 0, 1
    for _ in range(field.e):
        out += (a % p + b % p) % p * place
        a, b, place = a // p, b // p, place * p
    return out


def naive_axpy(field: Field, xs, f: int, ys) -> list[int]:
    """The row xs + f*ys entry by entry through ``schoolbook_mul`` and ``digitwise_add``."""
    return [digitwise_add(field, x, schoolbook_mul(field, f, y)) for x, y in zip(xs, ys)]


def mod_p_kernels(p: int) -> dict:
    """GF(p)'s scalar calls and row kernels as plain integer arithmetic mod p.

    Keyed by the ``Field`` method each one checks; plain ``%`` and
    ``pow``, with none of the tables or digit loops ``Field`` runs on.
    """
    return {
        "add_codes": lambda a, b: (a + b) % p,
        "neg_code": lambda a: -a % p,
        "sub_codes": lambda a, b: (a - b) % p,
        "mul_codes": lambda a, b: a * b % p,
        "inv_code": lambda a: pow(a, -1, p),
        "pow_code": lambda a, n: pow(a, n, p),
        "axpy": lambda xs, f, ys: [(x + f * y) % p for x, y in zip(xs, ys)],
        "axmy": lambda xs, f, ys: [(x - f * y) % p for x, y in zip(xs, ys)],
        "scale": lambda f, xs: [f * x % p for x in xs],
    }


def root_test_defining_set(fam, g: Poly) -> tuple[int, ...]:
    """The exponents i with g(theta^i) = 0, by evaluation in the splitting field.

    ``fam`` is a constacyclic family (``galcd.constacyclic._family``);
    g is lifted into ``fam.ext`` and evaluated at theta^i for every i
    in the exponent set 1 + r*Z_rn.
    """
    emb = embedding(fam.field, fam.ext)
    g_ext = Poly.make(fam.ext, [emb.fwd[c] for c in g.codes])
    return tuple(i for i in fam.base_ctx.exponent_set() if not g_ext(fam.theta**i))


def codewords(C: LinearCode):
    """All codewords as tuples of codes (pure Python, no numpy)."""
    field = C.field
    rows = C.codes_matrix()
    if not rows:
        yield (0,) * C.n
        return
    add, mul = field.add_codes, field.mul_codes
    for coeffs in product(range(field.q), repeat=len(rows)):
        word = [0] * C.n
        for c, row in zip(coeffs, rows):
            if c:
                for j, x in enumerate(row):
                    if x:
                        word[j] = add(word[j], mul(c, x))
        yield tuple(word)


def brute_min_distance(C: LinearCode) -> int:
    best = C.n + 1
    for word in codewords(C):
        w = sum(1 for x in word if x)
        if 0 < w < best:
            best = w
    return best


def support_scan(C: LinearCode, lower_bound: int = 1, shift: bool = False) -> tuple[int, int]:
    """(d, tests) of the support search, from the codewords alone.

    Supports are walked by weight from lower_bound, each weight in
    lexicographic order, skipping those without coordinate 0 when shift
    is set, and counting every support looked at; the parity-check
    columns on a support are dependent exactly when a nonzero codeword
    has its support inside it.  Needs dim < n.
    """
    supports = {frozenset(j for j, x in enumerate(word) if x) for word in codewords(C)}
    supports.discard(frozenset())
    tests = 0
    for w in range(lower_bound, C.n + 1):
        for support in combinations(range(C.n), w):
            if shift and 0 not in support:
                continue
            tests += 1
            if any(s <= set(support) for s in supports):
                return w, tests
    raise AssertionError("the code has no nonzero codeword")


def support_scan_echelon(C: LinearCode, budget: int, lower_bound: int = 1,
                         shift: bool = False) -> tuple[int | None, int]:
    """(d, tests) of the support search, support by support.

    The prefix-echelon scan that the depth-first walk of
    ``linear._distance_supports`` replaced: supports in lex order, each
    one tested by reducing its last column against an echelon basis of
    its prefix, rebuilt whenever the prefix changes.  (None, w - 1) once
    the budget runs out at weight w.
    """
    field = C.field
    h = euclidean_parity_check(C)
    n, l = C.n, C.dim
    m = n - l
    if m == 0:
        return 1, 0
    cols = [tuple(row[j] for row in h) for j in range(n)]
    reduce, echelon = linalg.reduce, linalg.echelon
    tests = 0
    for w in range(lower_bound, m + 2):
        # every smaller support is independent (tested, or below the
        # bound), so only a support's last column can make it dependent;
        # lex order keeps the w - 1 column prefix, and its basis, for runs
        # of consecutive supports
        if shift:
            supports = ((0,) + s for s in combinations(range(1, n), w - 1))
        else:
            supports = combinations(range(n), w)
        prefix, basis = None, []
        for support in supports:
            tests += 1
            if tests > budget:
                return None, w - 1
            if support[:-1] != prefix:
                prefix = support[:-1]
                basis = [(lead, row) for lead, _, row in echelon(field, [cols[j] for j in prefix])]
            if not any(reduce(field, basis, cols[support[-1]])):
                return w, tests
    raise AssertionError("no dependent support up to the Singleton weight")  # unreachable


def catalog_per_record(field: Field, n: int, lam, k: int) -> list:
    """classify_all_lcd's records with one exact distance per record.

    Every nonzero code gets its own BCH bound and its own ``code_params``
    call, with no sharing between codes; records are sorted as catalogs
    sort them.
    """
    ctx = CosetContext(p=field.p, e=field.e, k=k, n=n, r=mult_order(lam))
    records = []
    for P in enumerate_stable_sets(ctx):
        C = code_from_defining_set(field, n, lam, P.residues, k)
        if C.dim == 0:
            records.append(CatalogRecord(C, None, is_lcd(C), None))
        else:
            records.append(CatalogRecord(C, code_params(C), is_lcd(C), bch_lower_bound(C.P)))
    records.sort(key=lambda rec: (len(rec.code.P.residues), rec.code.P.residues))
    return records


def intersection_dim(field: Field, A: LinearCode, B: LinearCode) -> int:
    """dim(A intersect B) = dim A + dim B - dim(A + B)."""
    stacked = A.codes_matrix() + B.codes_matrix()
    return A.dim + B.dim - linalg.rank(field, stacked)


def rref_same_row_space(field: Field, a, b) -> bool:
    """Row-space equality as the nonzero rows of the two reduced echelon forms."""
    ra = [row for row in linalg.rref(field, a)[0] if any(row)]
    rb = [row for row in linalg.rref(field, b)[0] if any(row)]
    return ra == rb


def hull_dim(C: LinearCode, k: int) -> int:
    return intersection_dim(C.field, C, galois_dual(C, k))


def literal_intersection_dim(field: Field, A: LinearCode, B: LinearCode) -> int:
    """Exhaustive codeword-set intersection; only for tiny codes."""
    sa = set(codewords(A))
    sb = set(codewords(B))
    size = len(sa & sb)
    dim = 0
    while field.q**dim < size:
        dim += 1
    assert field.q**dim == size, "intersection is not a subspace?"
    return dim
