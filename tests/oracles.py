"""Independent brute-force oracles used by the test suite.

These deliberately avoid the production decision paths: field products
are schoolbook digit products reduced one leading term at a time,
minimal polynomials, theta and embeddings come from ``Element`` and
``Poly`` arithmetic where the library runs on packed values,
irreducibility is checked by literal trial division and by Rabin's
test (the library runs Ben-Or's), intersections by rank counting or
literal codeword enumeration, and distances by walking the whole
codebook in pure Python.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from galcd import fields, linalg
from galcd.constacyclic import (
    CatalogRecord,
    code_from_defining_set,
    code_params,
    from_generator_polynomial,
    is_lcd,
)
from galcd.cosets import CosetContext, DefiningSet, act_scale, bch_lower_bound, enumerate_stable_sets
from galcd.fields import Element, Field, embedding, factorize, mult_order
from galcd.linear import LinearCode, euclidean_parity_check, galois_dual
from galcd.polys import Poly, frobenius_poly, reciprocal, xn_minus_lambda


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


def rabin_irreducible(coeffs, p: int) -> bool:
    """Irreducibility over GF(p) by Rabin's test (M. O. Rabin, SIAM J. Comput., 1980).

    x^(p^e) == x mod f, and gcd(x^(p^(e/l)) - x, f) == 1 for each prime
    l | e; every one of the e Frobenius powers is taken, on the packed
    kernels of ``fields``.
    """
    c = [x % p for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    e = len(c) - 1
    if e < 1:
        return False
    inv = pow(c[-1], -1, p)
    c = [x * inv % p for x in c]
    if e == 1:
        return True
    proper = {e // ell for ell in factorize(e)}
    packing = fields._packing(c, p)
    w = packing[1]
    f = fields._pack(c, w)
    x = h = 1 << w  # x packed; e >= 2, so it is reduced mod f
    for i in range(1, e + 1):
        h = fields._ppowmod(h, p, packing)
        if i in proper:
            # h - x is h with p - 1 added to slot 1, reduced
            if fields._pgcd(fields._preduce(h + (p - 1 << w), packing), f, packing) != 1:
                return False
    return h == x


def poly_gcd(a, b, p: int) -> list[int]:
    """The monic gcd over GF(p) of two coefficient lists, constant term first, by Euclid on lists.

    Each step divides by the monic multiple of the divisor with ``poly_rem``;
    the gcd of two zero polynomials is [].
    """
    def trim(c):
        c = [x % p for x in c]
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, trim(poly_rem(a, b, p))
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


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


def prime_walk_log_tables(p: int, g: int) -> tuple[list[int], list[int]]:
    """The exp and log tables of g in GF(p) by p - 2 integer products mod p.

    Raises AssertionError unless g has order p - 1.
    """
    exp = [1]
    for _ in range(p - 2):
        exp.append(exp[-1] * g % p)
    if exp[-1] * g % p != 1 or len(set(exp)) != p - 1:
        raise AssertionError(f"{g} does not generate GF({p})")
    return exp, _log_of(exp, p)


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


def embedding_by_scan(src: Field, dst: Field) -> tuple[dict, dict]:
    """(fwd, inv) of the embedding GF(p^e) -> GF(p^(e*m)), e >= 2, from every root of the modulus.

    Evaluates src's modulus at every power of the subfield generator
    w = g^((dst.q - 1) / (src.q - 1)), takes the smallest of its e roots
    as the image rho of x, and maps each code by Horner's rule in rho.
    """
    add, mul = dst.add_codes, dst.mul_codes
    w = dst.pow_code(dst.primitive_element.code, (dst.q - 1) // (src.q - 1))
    roots = []
    cand = 1
    for _ in range(src.q - 1):
        acc = 0
        for c in reversed(src.modulus):
            acc = add(mul(acc, cand), c)
        if not acc:
            roots.append(cand)
        cand = mul(cand, w)
    if len(roots) != src.e:
        raise AssertionError("modulus did not split in the target subfield")
    rho = min(roots)
    fwd = {}
    for code in range(src.q):
        acc = 0
        for d in reversed(_digits(code, src.p, src.e)):
            acc = add(mul(acc, rho), d)
        fwd[code] = acc
    return fwd, {v: k for k, v in fwd.items()}


def minimal_poly_by_products(coset, theta: Element, base: Field) -> Poly:
    """prod (x - theta^i) over the coset by ``Poly`` products of ``Element`` powers in theta's field.

    The product is descended to base through the embedding's inverse
    table; a coefficient outside base raises ValueError.
    """
    ext = theta.field
    emb = embedding(base, ext)
    prod = Poly(ext, (1,))
    for i in sorted(set(coset)):
        prod = prod * Poly.make(ext, [ext.neg_code((theta**i).code), 1])
    try:
        return Poly(base, tuple(emb.inv[c] for c in prod.codes))
    except KeyError:
        raise ValueError("coset is not closed under multiplication by the base field size") from None


def product_by_poly_mul(field: Field, factors) -> Poly:
    """The product of the factors by ``Poly.__mul__``, 1 when there are none."""
    return math.prod(factors, start=Poly(field, (1,)))


def rn_root_by_scan(ext: Field, rn: int, n: int, lam: Element) -> Element:
    """The first g^(u*(q-1)/rn), u = 1, 2, ... coprime to rn, whose n-th power is lam, by ``Element`` arithmetic.

    g is ext's smallest-code primitive element; the root's order rn is
    checked with ``mult_order``.
    """
    step = ext.primitive_element ** ((ext.q - 1) // rn)
    cand = ext.one
    for u in range(1, rn + 1):
        cand = cand * step
        if math.gcd(u, rn) == 1 and cand**n == lam:
            assert mult_order(cand) == rn
            return cand
    raise ValueError(f"no primitive {rn}-th root with theta^{n} = {lam!r}")


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


def full_message_walk(C: LinearCode, lower_bound: int = 1, chunk: int = 1 << 16) -> int:
    """Least weight of the words of all q^dim - 1 nonzero messages.

    The full walk that ``linear._distance_messages`` ran before it took
    one message per line: message indices 1, 2, ... in chunks, each word
    built by gathers in the field's add and mul tables, stopping after
    the first chunk whose least weight is at most lower_bound.
    """
    q, n, rows = C.field.q, C.n, C.codes_matrix()
    mul, add = C.field.tables()
    best = n + 1
    for start in range(1, q ** len(rows), chunk):
        idx = np.arange(start, min(start + chunk, q ** len(rows)), dtype=np.int64)
        cw = np.zeros((len(idx), n), dtype=np.int64)
        for i, row in enumerate(rows):
            cw = add[cw, mul[(idx // q**i % q)[:, None], np.array(row)[None, :]]]
        best = min(best, int(np.count_nonzero(cw, axis=1).min()))
        if best <= lower_bound:
            break
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


def transpose(mat) -> list[list[int]]:
    return [list(col) for col in zip(*mat)] if mat else []


def matmul(field: Field, a, b) -> list[list[int]]:
    """The matrix product a*b, one ``axpy`` per nonzero entry of a."""
    if not a:
        return []
    axpy = field.axpy
    out = []
    for row in a:
        acc = [0] * len(b[0]) if b else []
        for x, brow in zip(row, b):
            if x:
                acc = axpy(acc, x, brow)
        out.append(acc)
    return out


def rref_top_down(field: Field, mat) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form and pivots, each echelon row reduced top-down.

    Row i, in insertion order, is cleared against the unreduced echelon
    rows inserted after it, each of which may fill in the leads of the
    rows after it again; the rows are sorted by lead at the end.
    """
    if not mat:
        return [], []
    basis = [(lead, row) for lead, _, row in linalg.echelon(field, mat) if lead is not None]
    rows = sorted((lead, list(linalg.reduce(field, basis[i + 1:], row)))
                  for i, (lead, row) in enumerate(basis))
    zero_rows = [[0] * len(mat[0]) for _ in range(len(mat) - len(rows))]
    return [row for _, row in rows] + zero_rows, [lead for lead, _ in rows]


def rref_same_row_space(field: Field, a, b) -> bool:
    """Row-space equality as the nonzero rows of the two reduced echelon forms."""
    ra = [row for row in rref_top_down(field, a)[0] if any(row)]
    rb = [row for row in rref_top_down(field, b)[0] if any(row)]
    return ra == rb


def check_poly_by_division(C) -> Poly:
    """(x^n - lambda) // g, a constacyclic code's check polynomial by long division."""
    h, rem = divmod(xn_minus_lambda(C.field, C.n, C.lam), C.g)
    assert rem.is_zero, "generator does not divide x^n - lambda"
    return h


def galois_dual_by_roots(C):
    """The Galois dual of a constacyclic code by recovering its defining set from its generator.

    The generator is the p^(e-k) power of the monic reciprocal of C's
    check polynomial; ``from_generator_polynomial`` recovers the defining
    set by trial division by every coset's minimal polynomial, whichever
    family the dual lies in.
    """
    field = C.field
    e, k = field.e, C.k
    g_dual = frobenius_poly(reciprocal(C.check_poly), e - k)
    lam_dual = C.lam ** (-(field.p ** (e - k)))
    return from_generator_polynomial(field, C.n, lam_dual, g_dual, (e - k) % e)


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


def census_readings(cycles) -> dict:
    """The (t, h) census of the -p^k cycles on the cosets, computed in one pass.

    Fixed cosets are the 1-cycles; the moved ones pair off along each
    even cycle, and any odd moved cycle leaves h and count None.
    """
    moved = [c for c in cycles if len(c) > 1]
    pairs = tuple((cyc[i], cyc[i + 1]) for cyc in moved if len(cyc) % 2 == 0
                  for i in range(0, len(cyc), 2))
    fixed = tuple(c[0] for c in cycles if len(c) == 1)
    h = None if any(len(c) % 2 for c in moved) else len(pairs)
    return {
        "fixed": fixed, "t": len(fixed), "pairs": pairs, "h": h,
        "involutive": all(len(c) <= 2 for c in cycles),
        "count": None if h is None else 2 ** (len(fixed) + h) - 1,
    }


def fixpoint_closure(ctx: CosetContext, residues) -> DefiningSet:
    """The smallest -p^k-stable q-closed superset: scale by -p^k until nothing new appears."""
    current = set(DefiningSet(ctx, tuple(residues)).residues)
    s = ctx.minus_pk()
    while True:
        scaled = set(act_scale(tuple(current), s, rn=ctx.rn))
        if scaled <= current:
            return DefiningSet(ctx, tuple(sorted(current)))
        current |= scaled
