import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galcd.constacyclic import _family, factor_xn_minus_lambda
from galcd.fields import embed, embedding, make_field, mult_order
from galcd.polys import (
    Poly,
    frobenius_poly,
    minimal_poly,
    monic_product,
    poly_from_json,
    reciprocal,
    splitting_field,
    xn_minus_lambda,
)
from oracles import minimal_poly_by_products, product_by_poly_mul, rn_root_by_scan


def _poly(field, ints):
    return Poly.from_ints(field, ints)


def test_poly_basics():
    f3 = make_field(3, 1)
    f = _poly(f3, [1, 2, 1])  # (x+1)^2
    g = _poly(f3, [1, 1])
    assert f == g * g
    q, r = divmod(f, g)
    assert q == g and r.is_zero
    assert f % g == Poly(f3, ())
    assert (f - f).is_zero
    assert f(f3.from_int(-1)).code == 0
    assert f.degree == 2 and g.degree == 1
    assert Poly(f3, ()).degree == -1


def test_from_ints_takes_only_integers():
    f3 = make_field(3, 1)
    for bad in [1.5, 2.0, "2", True, None]:
        with pytest.raises(ValueError, match="expected an integer"):
            Poly.from_ints(f3, [1, bad])
    assert Poly.from_ints(f3, [4, -1]).codes == (1, 2)


def test_poly_degree_adds_on_products():
    f5 = make_field(5, 1)
    a = _poly(f5, [2, 0, 1])
    b = _poly(f5, [3, 4])
    assert (a * b).degree == a.degree + b.degree


def _schoolbook_product(field, a, b):
    out = [0] * (len(a) + len(b) - 1)
    add, mul = field.add_codes, field.mul_codes
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return Poly.make(field, out)


@pytest.mark.parametrize("pe", [(2, 1), (3, 2), (7, 1), (3, 7)])
def test_product_loops_over_either_factor_like_the_schoolbook_product(pe):
    field = make_field(*pe)
    rng = random.Random(pe[0] * 10 + pe[1])
    for _ in range(40):
        a, b = (Poly.make(field, [rng.randrange(field.q) for _ in range(rng.randrange(0, 9))])
                for _ in range(2))
        expected = _schoolbook_product(field, a.codes, b.codes) if a.codes and b.codes else Poly(field, ())
        assert a * b == expected and b * a == expected, (a, b)


# (p, e, n): row lists for GF(4), GF(9) and GF(49), log tables for GF(11^3)
# and packed products for GF(257^2); x^n - 1 splits into several cosets
@pytest.mark.parametrize("p,e,n", [(2, 2, 21), (3, 2, 8), (7, 2, 8), (11, 3, 5), (257, 2, 4)])
def test_monic_product_matches_poly_products(p, e, n):
    f = make_field(p, e)
    regime = "rows" if f.q <= 600 else "logs" if f.q <= 1 << 16 else "packed"
    assert regime == {4: "rows", 9: "rows", 49: "rows", 1331: "logs", 66049: "packed"}[f.q]
    rng = random.Random(f.q)
    minpolys = list(_family(f, n, f.one).minpolys.values())
    assert monic_product(f, minpolys) == xn_minus_lambda(f, n, f.one)
    lists = [minpolys, minpolys[::-1]]
    lists += [rng.sample(minpolys, rng.randrange(len(minpolys) + 1)) for _ in range(20)]
    lists += [[Poly(f, tuple(rng.choice((0, rng.randrange(f.q))) for _ in range(rng.randrange(7))) + (1,))
               for _ in range(rng.randrange(5))] for _ in range(40)]
    for factors in lists:
        assert monic_product(f, factors) == product_by_poly_mul(f, factors), factors
    assert monic_product(f, []) == Poly(f, (1,))


def test_monic_product_refuses_factors_that_are_not_monic_or_from_another_field():
    f4, f9 = make_field(2, 2), make_field(3, 2)
    x = Poly(f4, (0, 1))
    for bad in (Poly(f4, (1, 2)), Poly(f4, (3,)), Poly(f4, ())):
        with pytest.raises(ValueError, match="monic"):
            monic_product(f4, [x, bad])
    with pytest.raises(ValueError, match="mixed fields"):
        monic_product(f4, [x, Poly(f9, (0, 1))])


def test_reciprocal_examples():
    f3 = make_field(3, 1)
    assert reciprocal(_poly(f3, [1, 1])) == _poly(f3, [1, 1])
    assert reciprocal(_poly(f3, [1, 2, 1])) == _poly(f3, [1, 2, 1])
    assert reciprocal(_poly(f3, [2, 1])) == _poly(f3, [2, 1])
    f2 = make_field(2, 1)
    with pytest.raises(ValueError):
        reciprocal(_poly(f2, [0, 1]))  # f(0) = 0
    with pytest.raises(ValueError):
        reciprocal(Poly(f2, ()))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(3, 1), (2, 3), (5, 1)]), st.lists(st.integers(0, 6), min_size=1, max_size=6))
def test_reciprocal_is_an_involution_on_monic(pe, ints):
    f = make_field(*pe)
    codes = [c % f.q for c in ints]
    if codes[0] == 0:
        codes[0] = 1
    poly = Poly.make(f, codes + [1])  # monic with nonzero constant term
    assert reciprocal(reciprocal(poly)) == poly


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=4),
       st.lists(st.integers(0, 8), min_size=1, max_size=4))
def test_reciprocal_is_multiplicative_up_to_monic(ia, ib):
    f9 = make_field(3, 2)
    a = Poly.make(f9, [c % 9 for c in ia] + [1])
    b = Poly.make(f9, [c % 9 for c in ib] + [1])
    if a.codes[0] == 0 or b.codes[0] == 0:
        return
    lhs = reciprocal(a * b).monic()
    rhs = (reciprocal(a) * reciprocal(b)).monic()
    assert lhs == rhs


def test_frobenius_poly_examples():
    f8 = make_field(2, 3)
    a = f8.gen
    p = Poly.from_elements(f8, [a, f8.one])  # x + a
    assert frobenius_poly(p, 1) == Poly.from_elements(f8, [a * a, f8.one])
    assert frobenius_poly(p, f8.e) == p
    assert frobenius_poly(Poly(f8, ()), 3).is_zero


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=4),
       st.lists(st.integers(0, 8), min_size=1, max_size=4), st.integers(0, 3))
def test_frobenius_poly_commutes_with_products(ia, ib, j):
    f9 = make_field(3, 2)
    a = Poly.make(f9, [c % 9 for c in ia])
    b = Poly.make(f9, [c % 9 for c in ib])
    assert frobenius_poly(a * b, j) == frobenius_poly(a, j) * frobenius_poly(b, j)


def test_minimal_poly_forced_linear_factors():
    # theta^(rn/2) = -1 forces the factor x + 1 for the half-way coset
    f125 = make_field(5, 3)
    th = _family(f125, 13, f125.from_int(-1)).theta
    m = minimal_poly((13,), th, f125)
    assert m == Poly.from_ints(f125, [1, 1])

    f2197 = make_field(13, 3)
    th18 = _family(f2197, 9, f2197.from_int(-1)).theta
    assert minimal_poly((9,), th18, f2197) == Poly.from_ints(f2197, [1, 1])


def test_minimal_poly_degree_four_coset():
    f125 = make_field(5, 3)
    th = _family(f125, 13, f125.from_int(-1)).theta
    m = minimal_poly((1, 5, 21, 25), th, f125)
    assert m.degree == 4 and m.is_monic
    target = xn_minus_lambda(f125, 13, f125.from_int(-1))
    assert m.divides(target)
    # irreducible over GF(125): no roots and no quadratic factor
    assert all(m(x).code != 0 for x in f125.elements())
    ext2 = make_field(5, 6)
    emb = embedding(f125, ext2)
    lifted = Poly.make(ext2, [emb.fwd[c] for c in m.codes])
    roots_in_ext2 = sum(1 for x in ext2.elements() if lifted(x).code == 0)
    assert roots_in_ext2 == 0  # degree-4 irreducible has no roots in GF(125^2)


def _families():
    """The 118 families (field, n, lambda) of the 212 criterion-6 contexts, and example 3.14's.

    The criterion-6 contexts are p in {3, 5, 7}, e = 2, rn <= 26 and
    lambda the smallest element of each order r dividing
    gcd(1 + p^(2-k), q - 1) for k in {0, 1}; example 3.14 is
    GF(125), n = 13, lambda = -1, split in GF(5^12).
    """
    out = {}
    for p in (3, 5, 7):
        field = make_field(p, 2)
        orders = {r for k in (0, 1) for r in range(1, field.q) if math.gcd(1 + p ** (2 - k), field.q - 1) % r == 0}
        for r in orders:
            lam = next(x for x in field.elements() if x and mult_order(x) == r)
            for n in range(1, 26 // r + 1):
                if n % p:
                    out[field, n, lam] = None
    f125 = make_field(5, 3)
    out[f125, 13, f125.from_int(-1)] = None
    return [_family(*key) for key in out]


def test_packed_minimal_polys_and_theta_match_the_element_oracles_on_every_family():
    families = _families()
    assert len(families) == 119
    assert {(fam.ext.p, fam.ext.e) for fam in families} >= {(5, 12), (3, 22), (5, 22), (7, 22)}
    cosets = 0
    for fam in families:
        lam = embed(fam.field, fam.ext, fam.lam)
        assert rn_root_by_scan(fam.ext, fam.base_ctx.rn, fam.n, lam) == fam.theta, fam.base_ctx
        for coset in fam.cosets:
            expected = minimal_poly_by_products(coset, fam.theta, fam.field)
            assert minimal_poly(coset, fam.theta, fam.field) == fam.minpolys[coset[0]] == expected
            cosets += 1
    assert cosets == 603 + 4


def test_minimal_poly_reads_residues_through_as_int():
    f125 = make_field(5, 3)
    th = _family(f125, 13, f125.from_int(-1)).theta
    m = minimal_poly((1, 5, 21, 25), th, f125)
    assert minimal_poly([np.int64(i) for i in (25, 21, 5, 1)], th, f125) == m
    assert minimal_poly((1 - 26, 5, 21, 25 + 26), th, f125) == m  # theta^26 = 1
    assert minimal_poly((), th, f125) == Poly(f125, (1,))
    for bad in [(True,), (1.0, 5, 21, 25), ("13",)]:
        with pytest.raises(ValueError, match="expected an integer"):
            minimal_poly(bad, th, f125)
    with pytest.raises(ValueError, match="nonzero"):
        minimal_poly((1,), th.field.zero, f125)


def test_minimal_poly_rejects_non_closed_sets():
    f125 = make_field(5, 3)
    th = _family(f125, 13, f125.from_int(-1)).theta
    with pytest.raises(ValueError):
        minimal_poly((1, 5), th, f125)  # proper subset of a coset


def test_minimal_poly_roots():
    f125 = make_field(5, 3)
    th = _family(f125, 13, f125.from_int(-1)).theta
    ext = th.field
    emb = embedding(f125, ext)
    for coset in [(1, 5, 21, 25), (3, 11, 15, 23), (7, 9, 17, 19), (13,)]:
        m = minimal_poly(coset, th, f125)
        lifted = Poly.make(ext, [emb.fwd[c] for c in m.codes])
        for i in coset:
            assert lifted(th**i).code == 0


def test_factor_xn_minus_lambda_shapes():
    f1331 = make_field(11, 3)
    fac = factor_xn_minus_lambda(5, f1331.from_int(-1))
    assert [c for c, _ in fac] == [(1,), (3,), (5,), (7,), (9,)]
    assert all(m.degree == 1 for _, m in fac)

    f125 = make_field(5, 3)
    fac = factor_xn_minus_lambda(13, f125.from_int(-1))
    assert sorted(m.degree for _, m in fac) == [1, 4, 4, 4]

    f2 = make_field(2, 1)
    fac = factor_xn_minus_lambda(1, f2.one)
    assert len(fac) == 1 and fac[0][1] == Poly.from_ints(f2, [1, 1])


def test_factor_product_reconstructs_exactly():
    for (p, e, n, lam_int) in [(3, 2, 8, 1), (5, 1, 6, -1), (11, 2, 10, 1), (13, 3, 9, -1)]:
        f = make_field(p, e)
        lam = f.from_int(lam_int)
        fac = factor_xn_minus_lambda(n, lam)
        prod = Poly(f, (1,))
        for _, m in fac:
            prod = prod * m
        assert prod == xn_minus_lambda(f, n, lam)
        assert sum(m.degree for _, m in fac) == n


def test_factor_rejects_characteristic_dividing_length():
    f = make_field(3, 2)
    with pytest.raises(ValueError):
        factor_xn_minus_lambda(6, f.one)


def test_splitting_field_orders():
    f125 = make_field(5, 3)
    assert splitting_field(f125, 26).e == 12  # ord_26(125) = 4
    f121 = make_field(11, 2)
    assert splitting_field(f121, 10) is f121  # 121 = 1 mod 10


def test_splitting_field_refuses_rn_outside_the_rule():
    f9 = make_field(3, 2)
    for rn in (0, -1, -4, 3, 6):
        with pytest.raises(ValueError, match=r"rn >= 1 with gcd\(rn, p\) = 1"):
            splitting_field(f9, rn)  # -4 used to loop forever
    for rn in (4.0, True, "4"):
        with pytest.raises(ValueError, match="expected an integer"):
            splitting_field(f9, rn)
    assert splitting_field(f9, np.int64(4)) is f9 and splitting_field(f9, 1) is f9
    assert splitting_field(f9, 23).e == 22


def test_poly_json_round_trip():
    f9 = make_field(3, 2)
    poly = Poly.make(f9, [4, 0, 7, 1])
    assert poly_from_json(f9, poly.to_json()) == poly
