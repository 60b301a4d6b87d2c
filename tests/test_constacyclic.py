import gc
import math
import weakref
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galcd import cosets, linalg, linear
from galcd.constacyclic import (
    Catalog,
    ConstacyclicCode,
    _family,
    build_family,
    classify_all_lcd,
    code_from_defining_set,
    code_params,
    from_generator_polynomial,
    galois_dual_code,
    hermitian_mds_family,
    is_lcd,
    matrix_lcd_check,
    to_generator_matrix,
)
from galcd.cosets import (
    CosetContext,
    act_scale,
    bch_lower_bound,
    cyclotomic_cosets,
    enumerate_stable_sets,
    multiplier_orbit_key,
    multipliers,
)
from galcd.fields import make_field, mult_order, embedding
from galcd.linear import BudgetExceeded, CodeParams, _distance_supports, galois_dual, min_distance
from galcd.polys import Poly, splitting_field, xn_minus_lambda
from oracles import (
    brute_min_distance,
    catalog_per_record,
    hull_dim,
    root_test_defining_set,
    support_scan,
    support_scan_echelon,
)


def test_full_space_code():
    f9 = make_field(3, 2)
    C = code_from_defining_set(f9, 4, f9.one, (), k=0)
    assert C.dim == 4 and C.g == Poly(f9, (1,))
    G = to_generator_matrix(C)
    assert G.rows == tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))


def test_family_and_context_memos_share_one_object():
    f = make_field(11, 2)
    fam = _family(f, 10, f.one)
    assert _family(f, 10, f.from_int(1)) is fam  # equal lambdas built separately
    assert code_from_defining_set(f, 10, f.one, (1,), k=1).P.ctx == CosetContext(p=11, e=2, k=1, n=10, r=1)
    # a catalog's records share the one context its stable sets were enumerated in
    cat = classify_all_lcd(f, 10, f.one, 1, exact_distance=False)
    assert len({id(rec.code.P.ctx) for rec in cat.records}) == 1
    _family.cache_clear()
    fresh = _family(f, 10, f.one)
    assert fresh is not fam and _family(f, 10, f.one) is fresh


def test_clearing_the_family_memo_frees_the_family():
    f = make_field(11, 2)
    ref = weakref.ref(code_from_defining_set(f, 10, f.one, (1,), k=1).fam)
    _family.cache_clear()
    gc.collect()
    assert ref() is None


def test_code_from_defining_set_recorded_examples():
    f2197 = make_field(13, 3)
    C = code_from_defining_set(f2197, 9, f2197.from_int(-1), (9,), k=2)
    assert C.dim == 8 and C.g == Poly.from_ints(f2197, [1, 1])

    f125 = make_field(5, 3)
    C = code_from_defining_set(f125, 13, f125.from_int(-1), (1, 5, 21, 25), k=1)
    assert C.dim == 9 and C.g.degree == 4


def test_code_from_defining_set_validation():
    f125 = make_field(5, 3)
    lam = f125.from_int(-1)
    with pytest.raises(ValueError):
        code_from_defining_set(f125, 13, lam, (1,), k=1)  # not q-closed
    with pytest.raises(ValueError):
        code_from_defining_set(f125, 13, lam, (2,), k=1)  # outside 1 + 2Z_26
    with pytest.raises(ValueError):
        code_from_defining_set(f125, 13, f125.zero, (), k=1)


def test_zero_code_has_no_matrix():
    f9 = make_field(3, 2)
    full = tuple(x for c in cyclotomic_cosets_ctx(f9, 4, 1, 0) for x in c)
    C = code_from_defining_set(f9, 4, f9.one, full, k=0)
    assert C.dim == 0
    with pytest.raises(ValueError):
        to_generator_matrix(C)
    with pytest.raises(ValueError):
        code_params(C)


def cyclotomic_cosets_ctx(field, n, r, k):
    from galcd.cosets import CosetContext
    return cyclotomic_cosets(CosetContext(p=field.p, e=field.e, k=k, n=n, r=r))


def test_generator_matrix_shape_and_rank():
    f2197 = make_field(13, 3)
    C = code_from_defining_set(f2197, 9, f2197.from_int(-1), (9,), k=2)
    G = to_generator_matrix(C)
    assert G.dim == 8 and G.n == 9
    assert linalg.rank(f2197, G.codes_matrix()) == 8
    for i, row in enumerate(G.rows):
        assert row[i] == 1 and row[i + 1] == 1
        assert all(x == 0 for j, x in enumerate(row) if j not in (i, i + 1))

    f125 = make_field(5, 3)
    C = code_from_defining_set(f125, 13, f125.from_int(-1), (1, 5, 21, 25), k=1)
    G = to_generator_matrix(C)
    assert (G.dim, G.n) == (9, 13)
    assert linalg.rank(f125, G.codes_matrix()) == 9


def test_galois_dual_code_trivial_cases():
    f9 = make_field(3, 2)
    lam = f9.from_int(-1)
    full = code_from_defining_set(f9, 4, lam, (), k=1)
    dual = galois_dual_code(full)
    assert dual.dim == 0
    assert dual.g == xn_minus_lambda(f9, 4, dual.lam)
    back = galois_dual_code(dual)
    assert back.dim == 4 and back.g == Poly(f9, (1,))


def test_galois_dual_code_recorded_example():
    f1331 = make_field(11, 3)
    C = code_from_defining_set(f1331, 5, f1331.from_int(-1), (3, 5, 7), k=1)
    D = galois_dual_code(C)
    assert D.P.residues == (1, 9) and D.dim == 3
    assert D.k == (f1331.e - C.k) % f1331.e
    assert galois_dual_code(D).P.residues == C.P.residues


def test_dual_polynomial_route_equals_matrix_route():
    # polynomial dual generates exactly the nullspace-based Galois dual
    cases = [
        (make_field(2, 2), 5, 1), (make_field(2, 2), 9, 3), (make_field(2, 2), 7, 3),
        (make_field(3, 2), 8, 1), (make_field(3, 2), 8, 2), (make_field(3, 2), 5, 4),
        (make_field(5, 2), 8, 4), (make_field(5, 2), 6, 3), (make_field(5, 2), 9, 2),
    ]
    for field, n, r in cases:
        lam = next(x for x in field.elements() if x and mult_order(x) == r)
        for k in range(field.e):
            fam_cosets = cyclotomic_cosets_ctx(field, n, r, k)
            for take in range(1, 1 << min(len(fam_cosets), 5)):
                residues = tuple(sorted(
                    x for i, c in enumerate(fam_cosets) if take >> i & 1 for x in c))
                C = code_from_defining_set(field, n, lam, residues, k=k)
                if C.dim == 0:
                    continue
                D = galois_dual_code(C)
                assert C.dim + D.dim == n
                matrix_dual = galois_dual(to_generator_matrix(C), k)
                if D.dim == 0:
                    assert matrix_dual.dim == 0
                    continue
                assert linalg.same_row_space(
                    field,
                    to_generator_matrix(D).codes_matrix(),
                    matrix_dual.codes_matrix(),
                )


def test_is_lcd_matches_matrix_criterion_and_hull():
    cases = [
        (make_field(3, 2), 8, 2), (make_field(3, 2), 4, 4),
        (make_field(5, 2), 6, 2), (make_field(2, 2), 5, 3),
    ]
    for field, n, r in cases:
        lam = next(x for x in field.elements() if x and mult_order(x) == r)
        for k in range(field.e):
            fam_cosets = cyclotomic_cosets_ctx(field, n, r, k)
            for take in range(1 << min(len(fam_cosets), 5)):
                residues = tuple(sorted(
                    x for i, c in enumerate(fam_cosets) if take >> i & 1 for x in c))
                C = code_from_defining_set(field, n, lam, residues, k=k)
                verdict = is_lcd(C)
                if C.dim == 0:
                    continue
                G = to_generator_matrix(C)
                assert verdict == matrix_lcd_check(C).lcd == (hull_dim(G, k) == 0)


def test_cor33_regime_is_always_lcd():
    # lambda^(1 + p^(e-k)) != 1 forces LCD regardless of the defining set
    f9 = make_field(3, 2)
    lam = next(x for x in f9.elements() if x and mult_order(x) == 8)
    assert lam ** (1 + 3 ** (2 - 0)) != f9.one
    fam_cosets = cyclotomic_cosets_ctx(f9, 4, 8, 0)
    for take in range(1 << len(fam_cosets)):
        residues = tuple(sorted(
            x for i, c in enumerate(fam_cosets) if take >> i & 1 for x in c))
        C = code_from_defining_set(f9, 4, lam, residues, k=0)
        assert is_lcd(C)
        if C.dim:
            assert matrix_lcd_check(C).lcd


def test_recorded_lcd_examples():
    f1331 = make_field(11, 3)
    C = code_from_defining_set(f1331, 5, f1331.from_int(-1), (3, 5, 7), k=1)
    assert is_lcd(C)
    f2197 = make_field(13, 3)
    P1 = code_from_defining_set(
        f2197, 9, f2197.from_int(-1), (1, 5, 7, 11, 13, 17), k=2)
    assert is_lcd(P1)
    # the coset of 1 alone is not stable under -13^2
    with_q1 = code_from_defining_set(f2197, 9, f2197.from_int(-1), (1,), k=2)
    assert not is_lcd(with_q1)


def test_from_generator_polynomial_round_trip():
    f125 = make_field(5, 3)
    lam = f125.from_int(-1)
    C = code_from_defining_set(f125, 13, lam, (1, 5, 13, 21, 25), k=1)
    rebuilt = from_generator_polynomial(f125, 13, lam, C.g, k=1)
    assert rebuilt.P.residues == C.P.residues
    assert rebuilt.g == C.g
    with pytest.raises(ValueError):
        from_generator_polynomial(f125, 13, lam, Poly.from_ints(f125, [1, 2]), k=1)
    with pytest.raises(ValueError):
        from_generator_polynomial(f125, 13, lam, C.g.scale(f125.from_int(2)), k=1)


@pytest.mark.parametrize("p, e, k, n, lam_int", [
    (5, 3, 1, 13, -1),
    (11, 2, 1, 10, 1),
    (3, 3, 1, 7, 1),
    (7, 2, 1, 19, -1),   # splitting field GF(7^6), no log tables
    (5, 2, 1, 17, 1),    # splitting field GF(5^16), no log tables
])
def test_from_generator_polynomial_matches_root_testing(p, e, k, n, lam_int):
    field = make_field(p, e)
    lam = field.from_int(lam_int)
    fam = _family(field, n, lam)
    for mask in range(1 << len(fam.cosets)):
        chosen = [c for i, c in enumerate(fam.cosets) if mask >> i & 1]
        g = Poly(field, (1,))
        for c in chosen:
            g = g * fam.minpolys[c[0]]
        C = from_generator_polynomial(field, n, lam, g, k)
        assert C.P.residues == root_test_defining_set(fam, g)
        assert C.P.residues == tuple(sorted(x for c in chosen for x in c))
    g = fam.minpolys[fam.cosets[-1][0]]
    with pytest.raises(ValueError):
        from_generator_polynomial(field, n, lam, g.scale(field.from_int(2)), k)
    with pytest.raises(ValueError):
        from_generator_polynomial(field, n, lam, g * g, k)


def test_code_params_recorded_values():
    f121 = make_field(11, 2)
    C = code_from_defining_set(f121, 10, f121.one, (4, 5, 6), k=1)
    prm = code_params(C)
    assert (prm.n, prm.dim, prm.d, prm.mds) == (10, 7, 4, True)
    assert prm.d >= bch_lower_bound(C.P)


@st.composite
def small_constacyclic_codes(draw):
    """A random union of cosets: p in {2, 3, 5, 7}, e <= 2, n <= 12 coprime to p, any lambda."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    field = make_field(p, draw(st.integers(1, 2)))
    n = draw(st.integers(1, 12).filter(lambda n: math.gcd(n, p) == 1))
    lam = field.from_code(draw(st.integers(1, field.q - 1)))
    cosets_ = _family(field, n, lam).cosets
    take = draw(st.lists(st.booleans(), min_size=len(cosets_), max_size=len(cosets_)))
    residues = tuple(x for t, c in zip(take, cosets_) if t for x in c)
    return code_from_defining_set(field, n, lam, residues)


@settings(max_examples=100, deadline=None)
@given(small_constacyclic_codes().filter(lambda C: C.dim > 0))
def test_hinted_engines_agree_with_bare_engines_and_brute_force(C):
    G = to_generator_matrix(C)
    hints = {"lower_bound": bch_lower_bound(C.P), "shift": True}
    d = min_distance(G, "supports").d
    for strategy in ("supports", "auto"):
        assert min_distance(G, strategy, **hints).d == d
    assert code_params(C).d == d
    # coordinate 0 fixed, no bound: the shift alone keeps d
    assert _distance_supports(G, 10**9, 1, True)[0] == d
    size = C.field.q ** C.dim
    if size <= 10**5:
        assert min_distance(G, "messages").d == min_distance(G, "messages", **hints).d == d
    if size <= 2000:
        assert brute_min_distance(G) == d


@settings(max_examples=100, deadline=None)
@given(small_constacyclic_codes().filter(lambda C: 0 < C.dim < C.n <= 10), st.integers(0, 300))
def test_shift_walk_matches_both_oracles(C, budget):
    """With the shift: (d, tests) from every valid bound, the refusal one test short, any budget."""
    G = to_generator_matrix(C)
    d = support_scan_echelon(G, 10**9)[0]
    for bound in range(1, d + 1):
        found = support_scan_echelon(G, 10**9, bound, True)
        assert found[0] == d and _distance_supports(G, 10**9, bound, True) == found
        assert _distance_supports(G, found[1] - 1, bound, True) == (None, d - 1)
    if C.field.q**C.dim <= 1024:
        for bound in (1, *range(d + 1, C.n - C.dim + 2)):
            assert _distance_supports(G, 10**9, bound, True) == support_scan(G, bound, shift=True)
    assert _distance_supports(G, budget, 1, True) == support_scan_echelon(G, budget, 1, True)


@settings(max_examples=60, deadline=None)
@given(small_constacyclic_codes().filter(lambda C: C.dim > 0))
def test_multiplier_orbit_shares_d(C):
    """x -> x^s is a monomial map from the code of s*P onto the code of P."""
    d = code_params(C).d
    for s in multipliers(C.P.ctx):
        image = code_from_defining_set(C.field, C.n, C.lam, act_scale(C.P, s), C.k)
        assert code_params(image).d == d
    if C.field.q**C.dim <= 2000:
        assert brute_min_distance(to_generator_matrix(C)) == d


# (p, e, n, lambda as an integer)
SCAN_CONTEXTS = [(2, 1, 7, 1), (2, 1, 9, 1), (3, 1, 8, 1), (3, 1, 8, -1),
                 (2, 2, 5, 1), (5, 1, 6, -1), (7, 1, 4, -1)]


@pytest.mark.parametrize("p, e, n, lam", SCAN_CONTEXTS)
def test_hinted_engines_match_codeword_oracle(p, e, n, lam, monkeypatch):
    """Every code of the context with q^dim <= 1024: the hinted scan's (d, tests) step by step,
    and message enumeration in chunks of 3, so that its stop at the bound is exercised."""
    monkeypatch.setattr(linear, "_CHUNK", 3)
    field = make_field(p, e)
    lam = field.from_int(lam)
    cosets_ = _family(field, n, lam).cosets
    for take in product((False, True), repeat=len(cosets_)):
        C = code_from_defining_set(field, n, lam, [x for t, c in zip(take, cosets_) if t for x in c])
        if not 0 < C.dim < n or field.q**C.dim > 1024:
            continue
        G, bch = to_generator_matrix(C), bch_lower_bound(C.P)
        d, tests = support_scan(G)
        assert _distance_supports(G, 10**9) == (d, tests)
        assert _distance_supports(G, 10**9, bch, True) == support_scan(G, bch, shift=True)
        assert support_scan(G, 1, shift=True)[0] == d
        assert min_distance(G, "messages", lower_bound=bch, shift=True).d == d


def test_hinted_budget_interval_starts_at_the_bch_bound():
    f125 = make_field(5, 3)
    C = code_from_defining_set(f125, 13, f125.from_int(-1), (1, 5, 21, 25), k=1)
    bch, d, top = bch_lower_bound(C.P), code_params(C).d, C.n - C.dim + 1
    assert 1 < bch < d
    out = code_params(C, "supports", budget_supports=1)
    lo, hi = out.d
    assert not out.exact and bch <= lo <= d and hi == top
    # neither engine fits its budget: the bound is the interval's low end
    assert code_params(C, budget_messages=1, budget_supports=1) == CodeParams(C.n, C.dim, (bch, top), False)


def test_theta_labels_are_relative_but_verdicts_invariant():
    f121 = make_field(11, 2)
    lam = f121.one
    ext = splitting_field(f121, 10)
    default = build_family(f121, 10, lam)
    # pick a different admissible theta: another primitive 10th root with theta^10 = 1
    g = ext.primitive_element
    alt = None
    step = g ** ((ext.q - 1) // 10)
    for u in range(1, 10):
        if math.gcd(u, 10) == 1:
            cand = step**u
            if cand != default.theta:
                alt = cand
                break
    assert alt is not None
    relabeled = build_family(f121, 10, lam, theta=alt)
    # same factor multiset, different labelling
    assert sorted(m.codes for m in default.minpolys.values()) == \
        sorted(m.codes for m in relabeled.minpolys.values())

    from galcd.cosets import DefiningSet, is_lcd_defining_set

    P = (2, 3, 4, 5, 6, 7, 8)
    g_default = Poly(f121, (1,))
    for c in default.cosets:
        if c[0] in P:
            g_default = g_default * default.minpolys[c[0]]
    # find the relabeled defining set with the same generator polynomial
    emb = embedding(f121, ext)
    lifted = Poly.make(ext, [emb.fwd[c] for c in g_default.codes])
    relabeled_P = tuple(i for i in range(10) if lifted(relabeled.theta**i).code == 0)
    assert relabeled_P != P or relabeled.theta == default.theta
    ctx = CosetContext(p=11, e=2, k=1, n=10, r=1)
    assert is_lcd_defining_set(DefiningSet(ctx, P)) == \
        is_lcd_defining_set(DefiningSet(ctx, relabeled_P))
    C1 = code_from_defining_set(f121, 10, lam, P, k=1)
    prm = code_params(C1)
    C2 = from_generator_polynomial(f121, 10, lam, g_default, k=1)
    assert code_params(C2) == prm


def test_classify_recorded_catalog():
    f125 = make_field(5, 3)
    cat = classify_all_lcd(f125, 13, f125.from_int(-1), 1)
    assert cat.stable_count == 16 and cat.census.count == 15
    assert cat.nonzero_count == 15
    assert cat.census.involutive
    types = set(cat.parameter_types())
    for expected in [(13, 12, 2), (13, 9, 4), (13, 8, 4), (13, 4, 8), (13, 5, 7)]:
        assert expected in types
    assert all(rec.lcd for rec in cat.records)
    # records are sorted by defining set size then content
    sizes = [len(rec.code.P.residues) for rec in cat.records]
    assert sizes == sorted(sizes)


def test_classify_degenerate_all_fixed_context():
    f9 = make_field(3, 2)
    cat = classify_all_lcd(f9, 4, f9.one, 1, exact_distance=False)
    ncosets = len(cyclotomic_cosets_ctx(f9, 4, 1, 1))
    assert cat.stable_count == 2**ncosets


def test_classify_budget_refusal():
    f121 = make_field(11, 2)
    # 22 tau-cycles: 2^22 stable sets exceed MAX_STABLE_SETS = 2^20
    with pytest.raises(BudgetExceeded, match=r"2\^22 stable sets exceed the enumeration budget 1048576"):
        classify_all_lcd(f121, 40, f121.one, 1)


def test_classify_inexact_mode_reports_intervals():
    f121 = make_field(11, 2)
    cat = classify_all_lcd(f121, 10, f121.one, 1, exact_distance=False)
    assert cat.stable_count == 64
    for rec in cat.records:
        if rec.params:
            assert not rec.params.exact
            lo, hi = rec.params.d
            assert lo == rec.bch and hi == rec.code.n - rec.code.dim + 1


def test_hermitian_mds_family_recorded_members():
    expected = {2: (5, 4, 2), 3: (5, 3, 3), 4: (5, 2, 4), 5: (5, 1, 5)}
    for d, (n_, dim_, dist_) in expected.items():
        C = hermitian_mds_family(3, 2, -1, 5, d)
        prm = code_params(C)
        assert (prm.n, prm.dim, prm.d) == (n_, dim_, dist_)
        assert prm.mds
        assert matrix_lcd_check(C).lcd


def test_hermitian_mds_family_hypothesis_failures():
    with pytest.raises(ValueError):
        hermitian_mds_family(3, 1, -1, 5, 3)  # ord_10(3) = 4 != 2
    with pytest.raises(ValueError):
        hermitian_mds_family(3, 2, -1, 5, 6)  # d > n
    with pytest.raises(ValueError):
        hermitian_mds_family(3, 2, -1, 5, 1)  # d < 2
    with pytest.raises(ValueError):
        # rn = 24: units 5,7,11,... give several involutions
        hermitian_mds_family(5, 1, -1, 12, 3)


def test_exact_distance_never_below_run_bound():
    f121 = make_field(11, 2)
    cat = classify_all_lcd(f121, 10, f121.one, 1)
    for rec in cat.records:
        if rec.params:
            assert rec.params.d >= rec.bch


def test_dual_dim_identity_over_small_sweep():
    for field, n in [(make_field(2, 2), 9), (make_field(3, 2), 8), (make_field(5, 2), 6)]:
        for r in (1, 2):
            if (field.q - 1) % r:
                continue
            lam = next(x for x in field.elements() if x and mult_order(x) == r)
            cosets_ = cyclotomic_cosets_ctx(field, n, r, 0)
            for take in range(1 << min(len(cosets_), 4)):
                residues = tuple(sorted(
                    x for i, c in enumerate(cosets_) if take >> i & 1 for x in c))
                C = code_from_defining_set(field, n, lam, residues, k=0)
                assert C.dim + galois_dual_code(C).dim == n


def test_hermitian_family_is_mds_beyond_the_recorded_case():
    # GF(25), a = 1: 5 has order 2 mod 6, and Z_6* has the unique involution 5
    for d in (2, 3):
        C = hermitian_mds_family(5, 1, -1, 3, d)
        prm = code_params(C)
        assert (prm.n, prm.dim, prm.d) == (3, 4 - d, d) and prm.mds
        assert matrix_lcd_check(C).lcd


def test_catalog_record_json_schema():
    f125 = make_field(5, 3)
    cat = classify_all_lcd(f125, 13, f125.from_int(-1), 1, exact_distance=False)
    for rec in cat.records:
        blob = rec.to_json()
        assert set(blob) == {"p", "e", "k", "n", "lambda", "r", "theta",
                             "defining_set", "generator", "params", "lcd",
                             "mds", "bch_bound"}
        assert blob["p"] == 5 and blob["e"] == 3 and blob["k"] == 1
        assert isinstance(blob["lambda"], list) and isinstance(blob["theta"], list)
        if rec.code.dim == 0:
            assert blob["params"] is None and blob["bch_bound"] is None
        else:
            assert set(blob["params"]) == {"n", "dim", "d", "exact", "mds"}


def test_classify_rejects_the_automatic_lcd_regime():
    f9 = make_field(3, 2)
    lam = next(x for x in f9.elements() if x and mult_order(x) == 8)
    with pytest.raises(ValueError):
        classify_all_lcd(f9, 4, lam, 0)


def test_classify_handles_unpairable_census():
    # the census (t, h) is undefined here but the catalog still enumerates
    f27 = make_field(3, 3)
    cat = classify_all_lcd(f27, 7, f27.one, 1)
    assert cat.stable_count == 4  # one fixed coset plus one 3-cycle
    assert cat.census.h is None and cat.census.count is None
    assert not cat.census.involutive
    assert all(rec.lcd == is_lcd(rec.code) for rec in cat.records)


def test_classify_derives_the_cosets_and_tau_cycles_once(monkeypatch):
    f9 = make_field(3, 2)
    calls = {"tau_cycles": [], "cyclotomic_cosets": []}
    for name, seen in calls.items():
        def counting(ctx, real=getattr(cosets, name), seen=seen):
            seen.append(ctx)
            return real(ctx)

        monkeypatch.setattr(cosets, name, counting)
    cat = classify_all_lcd(f9, 10, f9.one, 1, exact_distance=False)
    assert {name: len(seen) for name, seen in calls.items()} == {"tau_cycles": 1, "cyclotomic_cosets": 1}
    ctx = calls["tau_cycles"][0]
    monkeypatch.undo()
    assert [rec.code.P.residues for rec in cat.records] == sorted(
        (P.residues for P in enumerate_stable_sets(ctx)), key=lambda res: (len(res), res))


def _sweep_contexts():
    """(field, n, lambda, k): p in {2, 3, 5, 7}, e <= 2, n <= 10 coprime to p, one lambda
    of each order r with r | 1 + p^k, so that the catalog is defined."""
    out = []
    for p in (2, 3, 5, 7):
        for e in (1, 2):
            field = make_field(p, e)
            by_order = {}
            for x in field.elements():
                if x:
                    by_order.setdefault(mult_order(x), x)
            for k in range(e):
                for r, lam in sorted(by_order.items()):
                    if (1 + p**k) % r == 0:
                        out.extend((field, n, lam, k) for n in range(1, 11) if math.gcd(n, p) == 1)
    return out


def test_classify_matches_one_distance_per_record():
    """The orbit-shared catalog equals the per-record catalog, record JSON for record JSON."""
    contexts = _sweep_contexts()
    assert len(contexts) >= 100
    assert any(mult_order(lam) > 1 for _, _, lam, _ in contexts)
    assert any(k == 0 for *_, k in contexts)
    assert any(n * mult_order(lam) == 1 for _, n, lam, _ in contexts)
    for field, n, lam, k in contexts:
        got = [rec.to_json() for rec in classify_all_lcd(field, n, lam, k).records]
        want = [rec.to_json() for rec in catalog_per_record(field, n, lam, k)]
        assert got == want, (field, n, lam, k)


def test_budget_limited_catalog_shares_intervals_per_orbit():
    f121 = make_field(11, 2)
    cat = classify_all_lcd(f121, 10, f121.one, 1, budget_messages=1, budget_supports=1)
    mults = multipliers(cat.records[0].code.P.ctx)
    orbits = {}
    for rec in cat.records:
        if rec.params:
            lo = rec.params.d if rec.params.exact else rec.params.d[0]
            assert rec.bch <= lo
            orbits.setdefault(multiplier_orbit_key(rec.code.P, mults), []).append(rec)
    assert len(orbits) == 39
    for orbit in orbits.values():
        assert all(rec.params is orbit[0].params for rec in orbit)
    # an orbit's interval starts at its best bound, above some members' own
    assert any(not rec.params.exact and rec.bch < rec.params.d[0]
               for rec in cat.records if rec.params)
