"""Constacyclic codes as ideals of GF(q)[x]/(x^n - lambda).

A code is carried by its defining set P: the exponents i in the set
1 + r*Z_rn for which theta^i is a root of every codeword, where theta
is the canonical primitive rn-th root with theta^n = lambda chosen by
the deterministic rule in galcd.fields.  A code keeps both of its
polynomials, built together from one split of the family's cosets:
the generator g is the product of the coset minimal polynomials inside
P and the check polynomial h the product of those outside, so
g*h = x^n - lambda.  Every product of minimal polynomials, here and in
the family's check, is ``polys.monic_product``, and each code's context
is ``cosets.with_k`` of the family's k = 0 context, validated once per
k.  An explicit generator can be supplied only through
from_generator_polynomial, which validates it and recovers P by
dividing by the coset minimal polynomials.  A Galois dual inside the
family gets both polynomials by the reciprocal-Frobenius rule, and the
product over its defining set checks its generator (galois_dual_code).

Defining-set labels are theta-relative.  Parameters and LCD verdicts
do not depend on the choice of theta, but the labels do, so catalogs
record theta next to every defining set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable

from galcd.cosets import (
    CosetContext,
    DefiningSet,
    OrbitCensus,
    _stable_sets,
    bch_lower_bound,
    cyclotomic_cosets,
    dual_defining_set,
    frame_preserved,
    is_lcd_defining_set,
    multiplier_orbit_key,
    multipliers,
    stable_orbit_census,
    unique_order2_unit,
    with_k,
)
from galcd.fields import (
    Element,
    Field,
    as_int,
    embed,
    make_field,
    mult_order,
    multiplicative_order,
    primitive_rn_root,
)
from galcd.linear import (
    DEFAULT_MESSAGE_BUDGET,
    DEFAULT_SUPPORT_BUDGET,
    BudgetExceeded,
    CodeParams,
    LinearCode,
    check_budgets,
    is_galois_lcd,
    min_distance,
)
from galcd.polys import (
    Poly,
    frobenius_poly,
    minimal_polys,
    monic_product,
    reciprocal,
    splitting_field,
    xn_minus_lambda,
)


@dataclass(eq=False)
class _Family:
    """Shared data for all constacyclic codes with one (field, n, lambda)."""

    field: Field
    n: int
    lam: Element
    ext: Field
    theta: Element
    base_ctx: CosetContext           # k = 0; cosets do not depend on k
    cosets: tuple[tuple[int, ...], ...]
    minpolys: dict[int, Poly]        # smallest coset member -> M_Q


@cache
def _family_memo(field: Field, n: int, lam: Element) -> _Family:
    if lam.field != field or not lam:
        raise ValueError("lambda must be a nonzero element of the field")
    ctx = CosetContext(p=field.p, e=field.e, k=0, n=n, r=mult_order(lam))
    ext = splitting_field(field, ctx.rn)
    theta = primitive_rn_root(ext, ctx.rn, n, embed(field, ext, lam))
    cosets = cyclotomic_cosets(ctx)
    minpolys = {c[0]: m for c, m in zip(cosets, minimal_polys(cosets, theta, field))}
    if monic_product(field, minpolys.values()) != xn_minus_lambda(field, n, lam):
        raise AssertionError("coset factorization does not multiply back to x^n - lambda")
    return _Family(field, n, lam, ext, theta, ctx, cosets, minpolys)


def _family(field: Field, n: int, lam: Element) -> _Family:
    """The one family per (field, n, lambda).

    n is read through ``as_int`` before the memo, so every key is an int:
    a numpy 4 finds the family of 4, and 4.0 and True raise.
    """
    return _family_memo(field, as_int(n), lam)


# the memo's report and reset, under the name every caller uses
_family.cache_info, _family.cache_clear = _family_memo.cache_info, _family_memo.cache_clear


def factor_xn_minus_lambda(n: int, lam: Element) -> list[tuple[tuple[int, ...], Poly]]:
    """Irreducible factors of x^n - lambda, one per q-cyclotomic coset.

    Returns (coset, factor) pairs sorted by the smallest coset member,
    where cosets live on the exponent set {1 + r t mod rn} of a fixed
    primitive rn-th root theta with theta^n = lambda.  ``CosetContext``
    refuses a length that is not coprime to the characteristic.
    """
    fam = _family(lam.field, n, lam)
    return [(c, fam.minpolys[c[0]]) for c in fam.cosets]


@dataclass(frozen=True, slots=True, eq=False)
class ConstacyclicCode:
    """A lambda-constacyclic code of length n with Galois parameter k.

    The field, n and lambda are the family's and k is P's: a catalog
    holds one code per record, so a code stores none of them twice.  g
    and the check polynomial h = (x^n - lambda)/g are built together,
    so no caller passes h along or rebuilds it.
    """

    P: DefiningSet
    g: Poly
    check_poly: Poly
    fam: _Family

    @property
    def field(self) -> Field:
        return self.fam.field

    @property
    def n(self) -> int:
        return self.fam.n

    @property
    def lam(self) -> Element:
        return self.fam.lam

    @property
    def k(self) -> int:
        return self.P.ctx.k

    @property
    def r(self) -> int:
        return self.P.ctx.r

    @property
    def rn(self) -> int:
        return self.P.ctx.rn

    @property
    def theta(self) -> Element:
        return self.fam.theta

    @property
    def dim(self) -> int:
        return self.n - len(self.P)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstacyclicCode):
            return NotImplemented
        # P's context carries n and k
        return (self.field, self.lam, self.P, self.g) == (other.field, other.lam, other.P, other.g)

    def __hash__(self):
        return hash((self.field, self.n, self.lam, self.k, self.P.residues))

    def __repr__(self) -> str:
        return (
            f"ConstacyclicCode(n={self.n}, dim={self.dim}, lam={self.lam!s}, "
            f"k={self.k}, P={list(self.P.residues)})"
        )


def _code(fam: _Family, P: DefiningSet) -> ConstacyclicCode:
    """The code of a validated defining set: g is the product of the minimal polynomials of
    the cosets inside P, and h of those outside."""
    pool = set(P.residues)
    inside, outside = [], []
    for key, m in fam.minpolys.items():
        (inside if key in pool else outside).append(m)
    return ConstacyclicCode(P, monic_product(fam.field, inside), monic_product(fam.field, outside), fam)


def code_from_defining_set(
    field: Field, n: int, lam: Element, residues: Iterable[int], k: int = 0
) -> ConstacyclicCode:
    """Build the code whose roots are theta^i for i in the given set.

    The set must be a union of q-cyclotomic cosets inside 1 + r*Z_rn.
    """
    fam = _family(field, n, lam)
    return _code(fam, DefiningSet(with_k(fam.base_ctx, k), tuple(residues)))


def from_generator_polynomial(
    field: Field, n: int, lam: Element, g: Poly, k: int = 0
) -> ConstacyclicCode:
    """Validated entry point for an explicit generator polynomial."""
    if g.field != field:
        raise ValueError("generator polynomial over the wrong field")
    if not g.is_monic:
        raise ValueError("generator polynomial must be monic")
    fam = _family(field, n, lam)
    roots: list[int] = []
    rest = g
    for coset in fam.cosets:
        if rest.degree == 0:
            break
        quo, rem = divmod(rest, fam.minpolys[coset[0]])
        if rem.is_zero:
            roots.extend(coset)
            rest = quo
    # x^n - lambda is the product of the distinct M_Q: only a divisor ends at 1,
    # and then the monic g is the product of the factors found
    if rest.degree != 0:
        raise ValueError("generator does not divide x^n - lambda")
    return _code(fam, DefiningSet(with_k(fam.base_ctx, k), tuple(roots)))


def galois_dual_code(C: ConstacyclicCode) -> ConstacyclicCode:
    """The Galois dual, a lambda^(-p^(e-k))-constacyclic code.

    Its generator is the coefficientwise p^(e-k) power of the monic
    reciprocal of the check polynomial h.  When the dual stays in the
    same constacyclic family (lambda^(1 + p^(e-k)) = 1, which is
    ``cosets.frame_preserved``), its defining set is -p^(e-k) times the
    complement of P (``cosets.dual_defining_set``), and the product of
    that set's coset minimal polynomials checks the generator.  Its check
    polynomial is the p^(e-k) power of the monic reciprocal of g: the
    reciprocals multiply to x^n - lambda^(-1), which the Frobenius power
    takes to x^n - lambda in the frame.  Outside the family the generator
    goes to ``from_generator_polynomial``, which recovers the defining
    set by dividing by the coset minimal polynomials.  The returned code
    carries the matched Galois parameter (e - k) mod e.
    """
    field = C.field
    e, k = field.e, C.k
    g_dual = frobenius_poly(reciprocal(C.check_poly), e - k)
    if frame_preserved(C.P.ctx):
        P_dual = dual_defining_set(C.P)
        pool = set(P_dual.residues)
        inside = [m for key, m in C.fam.minpolys.items() if key in pool]
        if monic_product(field, inside) != g_dual:
            raise AssertionError("polynomial and defining-set duals disagree")
        dual = ConstacyclicCode(P_dual, g_dual, frobenius_poly(reciprocal(C.g), e - k), C.fam)
    else:
        lam_dual = C.lam ** (-(field.p ** (e - k)))
        dual = from_generator_polynomial(field, C.n, lam_dual, g_dual, (e - k) % e)
    if dual.dim + C.dim != C.n:
        raise AssertionError("dual dimension mismatch")
    return dual


def is_lcd(C: ConstacyclicCode) -> bool:
    """Galois LCD test: automatic unless lambda^(1 + p^(e-k)) = 1, then by -p^k stability."""
    return not frame_preserved(C.P.ctx) or is_lcd_defining_set(C.P)


def to_generator_matrix(C: ConstacyclicCode) -> LinearCode:
    """Rows x^i * g(x) for i = 0 .. dim-1 as length-n coefficient vectors."""
    n, dim = C.n, C.dim
    if dim == 0:
        raise ValueError("the zero code has no generator matrix")
    g = C.g.codes
    rows = [(0,) * i + g + (0,) * (n - i - len(g)) for i in range(dim)]
    return LinearCode._trusted(C.field, rows, n)


def code_params(
    C: ConstacyclicCode,
    strategy: str = "auto",
    *,
    budget_messages: int = DEFAULT_MESSAGE_BUDGET,
    budget_supports: int = DEFAULT_SUPPORT_BUDGET,
) -> CodeParams:
    """[n, k, d] by min_distance, hinted with the BCH bound and the constacyclic shift.

    d is an interval, flagged inexact, when both engines exceed their budgets.
    """
    if C.dim == 0:
        raise ValueError("the zero code has no parameters")
    return _hinted_params(C, bch_lower_bound(C.P), strategy, budget_messages, budget_supports)


def _parity_check_rows(h: Poly, n: int) -> list[list[int]]:
    """A Euclidean parity-check matrix of the nonzero code whose check polynomial is h,
    with no elimination.

    The dual is spanned by the multiples of reverse(h) of degree below n:
    row j of the generator, x^j g(x), meets x^i reverse(h) in the
    coefficient of x^(dim + i - j) in g*h = x^n - lambda, and
    1 <= dim + i - j <= n - 1.  Row t is x^(dim + t) minus its remainder
    modulo reverse(h): 1 at coordinate dim + t and 0 at every other
    coordinate from dim on.  So these are the rows that
    ``linear.euclidean_parity_check`` eliminates its way to from the
    generator rows x^i g(x), whose pivots are the first dim columns; the
    identity on the last n - dim columns keeps the support walk's
    residuals sparse, which the banded shifts of reverse(h) do not.
    """
    field, dim = h.field, h.degree
    rev = h.codes[::-1]
    low = field.scale(field.inv_code(rev[-1]), rev[:-1])  # reverse(h) made monic, less its x^dim
    rows = []
    s = low  # -(x^j mod reverse(h)), starting at j = dim
    for j in range(dim, n):
        rows.append(s + [0] * (j - dim) + [1] + [0] * (n - 1 - j))
        top, s = s[-1], [0] + s[:-1]
        if top:
            s = field.axmy(s, top, low)
    return rows


def _hinted_params(
    C: ConstacyclicCode, bch: int, strategy: str, budget_messages: int, budget_supports: int
) -> CodeParams:
    """min_distance of the rows x^i g(x), with the parity-check rows of C's check polynomial;
    the shift x*c(x) mod x^n - lambda maps C onto C."""
    return min_distance(
        to_generator_matrix(C),
        strategy,
        budget_messages=budget_messages,
        budget_supports=budget_supports,
        lower_bound=bch,
        shift=True,
        parity_check=_parity_check_rows(C.check_poly, C.n),
    )


# ---------------------------------------------------------------------------
# Catalogs of LCD codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CatalogRecord:
    code: ConstacyclicCode
    params: CodeParams | None      # None for the zero code
    lcd: bool
    bch: int | None

    @property
    def mds(self) -> bool:
        return bool(self.params and self.params.mds)

    def to_json(self) -> dict:
        C = self.code
        return {
            "p": C.field.p,
            "e": C.field.e,
            "k": C.k,
            "n": C.n,
            "lambda": C.lam.to_json(),
            "r": C.r,
            "theta": C.theta.to_json(),
            "defining_set": list(C.P.residues),
            "generator": C.g.to_json(),
            "params": self.params.to_json() if self.params else None,
            "lcd": self.lcd,
            "mds": self.mds,
            "bch_bound": self.bch,
        }


@dataclass(frozen=True)
class Catalog:
    """Every -p^k-stable defining set's record, and the census the sets were enumerated from."""

    records: tuple[CatalogRecord, ...]
    census: OrbitCensus

    @property
    def stable_count(self) -> int:
        return len(self.records)

    @property
    def nonzero_count(self) -> int:
        """Stable sets excluding the full one (the zero code)."""
        return self.stable_count - 1

    def parameter_types(self) -> tuple[tuple[int, int, int], ...]:
        seen = []
        for rec in self.records:
            if rec.params and rec.params.exact:
                item = (rec.params.n, rec.params.dim, rec.params.d)
                if item not in seen:
                    seen.append(item)
        return tuple(sorted(seen))


MAX_STABLE_SETS = 1 << 20


def _stable_codes(fam: _Family, ctx: CosetContext, cycles: tuple[tuple[int, ...], ...]):
    """The code of every stable set, in ``_stable_sets``' mask order.

    The generator of mask m is that of m without its top bit times the
    top cycle's product of coset minimal polynomials: one product per
    set, equal to ``_code``'s since products are exact.  The check
    polynomial of m is the generator of the complement mask.
    """
    gens = [Poly(fam.field, (1,))]
    for cyc in cycles:
        m_cyc = monic_product(fam.field, [fam.minpolys[key] for key in cyc])
        gens += [monic_product(fam.field, (g, m_cyc)) for g in gens]
    full = len(gens) - 1
    for mask, P in enumerate(_stable_sets(ctx, cycles, fam.cosets)):
        yield ConstacyclicCode(P, gens[mask], gens[full ^ mask], fam)


def classify_all_lcd(
    field: Field,
    n: int,
    lam: Element,
    k: int,
    *,
    exact_distance: bool = True,
    budget_messages: int = DEFAULT_MESSAGE_BUDGET,
    budget_supports: int = DEFAULT_SUPPORT_BUDGET,
) -> Catalog:
    """Enumerate all -p^k-stable defining sets and their exact parameters.

    Stable sets are unions of cycles of the -p^k action on cosets, so
    there are 2^(number of cycles) of them including the empty set and
    the full exponent set (the zero code).

    d is computed once per multiplier orbit.  For a unit s of Z_rn with
    s = 1 mod r (cosets.multipliers), lambda^s = lambda, so
    c(x) -> c(x^s) mod x^n - lambda sends coordinate i to s*i mod n
    times a power of lambda: a monomial bijection, since gcd(s, n) = 1,
    that takes the roots theta^i, i in P, to theta^j, j in s^-1 P, and
    commutes with -p^k (Chen-Dinh-Fan-Ling, "Polyadic constacyclic
    codes", IEEE Trans. IT, 2015).  Weights are kept, so every member's
    BCH bound bounds the orbit's shared d: the first member in
    enumeration order is searched from the largest of them, and its
    CodeParams goes to every member.  Each record keeps its own bch; with
    exact_distance=False its interval starts there.  The budgets are
    checked either way (``linear.check_budgets``).

    Nothing is eliminated: each generator is one product
    (``_stable_codes``), and the searched member's parity-check rows come
    from its check polynomial, the generator of the complementary stable
    set (``_parity_check_rows``).
    """
    check_budgets(budget_messages, budget_supports)
    fam = _family(field, n, lam)
    ctx = with_k(fam.base_ctx, k)
    census = stable_orbit_census(ctx)
    if 2 ** len(census.cycles) > MAX_STABLE_SETS:
        raise BudgetExceeded(
            f"2^{len(census.cycles)} stable sets exceed the enumeration budget {MAX_STABLE_SETS}"
        )
    mults = multipliers(ctx)
    records = []
    orbits: dict[tuple[int, ...], list[tuple[ConstacyclicCode, int]]] = {}
    for code in _stable_codes(fam, ctx, census.cycles):
        if code.dim == 0:
            records.append(CatalogRecord(code, None, is_lcd(code), None))
        else:
            orbit = orbits.setdefault(multiplier_orbit_key(code.P, mults), [])
            orbit.append((code, bch_lower_bound(code.P)))
    distinct: dict[CodeParams, CodeParams] = {}
    for orbit in orbits.values():
        if exact_distance:
            best = max(bch for _, bch in orbit)
            shared = _hinted_params(orbit[0][0], best, "auto", budget_messages, budget_supports)
            shared = distinct.setdefault(shared, shared)  # equal parameters, one object
        for code, bch in orbit:
            top = code.n - code.dim + 1
            params = shared if exact_distance else CodeParams(code.n, code.dim, (bch, top), False)
            records.append(CatalogRecord(code, params, is_lcd(code), bch))
    records.sort(key=lambda rec: (len(rec.code.P.residues), rec.code.P.residues))
    return Catalog(tuple(records), census)


def hermitian_mds_family(
    p: int, a: int, lam: "Element | int", n: int, d: int
) -> ConstacyclicCode:
    """The [n, n+1-d, d] Hermitian LCD MDS code from consecutive exponents.

    Requires ord_rn(p^a) = 2 and that -1 is the unique involution in
    Z_rn^*; then every coset is a -p^a-fixed singleton and the defining
    set {1 + r*i : 0 <= i <= d-2} yields an MDS code whose distance is
    pinned by the consecutive-run bound against the Singleton bound.
    """
    n, d = as_int(n), as_int(d)
    field = make_field(p, 2 * a)
    lam_el = lam if isinstance(lam, Element) else field.from_int(lam)
    if lam_el.field != field:
        raise ValueError("lambda must live in GF(p^(2a))")
    r = mult_order(lam_el)
    rn = r * n
    if rn < 2 or multiplicative_order(p**a % rn, rn) != 2:
        raise ValueError(f"p^a must have order 2 modulo rn = {rn}")
    if not unique_order2_unit(rn):
        raise ValueError(f"-1 is not the unique involution modulo rn = {rn}")
    if not 2 <= d <= n:
        raise ValueError(f"designed distance d = {d} must satisfy 2 <= d <= n = {n}")
    residues = tuple((1 + r * i) % rn for i in range(d - 1))
    code = code_from_defining_set(field, n, lam_el, residues, k=a)
    if not is_lcd(code):
        raise AssertionError("family member failed the LCD stability criterion")
    return code


def matrix_lcd_check(C: ConstacyclicCode):
    """The nonsingular-Gram verdict for a constacyclic code's generator matrix."""
    return is_galois_lcd(to_generator_matrix(C), C.k)
