import ast
import json
import math
import pathlib
import random
import re
import sys
import threading
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galcd import fields
from galcd.fields import (
    _WALK_WIDTH,
    TABLE_LIMIT,
    Element,
    Field,
    default_modulus,
    embed,
    embedding,
    factorize,
    is_prime,
    make_field,
    mult_order,
    multiplicative_order,
    frobenius_pow,
    poly_is_irreducible,
    primitive_rn_root,
    root_products,
    sqrt_minus_one,
)
from galcd.linear import LinearCode, p_power_code
from galcd.polys import Poly, frobenius_poly, splitting_field
from oracles import (
    brute_log_tables,
    digitwise_add,
    embedding_by_scan,
    mod_p_kernels,
    naive_axpy,
    naive_pow,
    poly_gcd,
    prime_walk_log_tables,
    rabin_irreducible,
    schoolbook_mul,
    trial_division_irreducible,
    walk_log_tables,
)


def test_prime_field_default_modulus_is_x():
    f = make_field(2, 1)
    assert f.modulus == (0, 1)
    assert f.q == 2


def test_gf8_matches_the_recorded_power_table():
    f8 = make_field(2, 3)
    assert f8.modulus == (1, 1, 0, 1)  # x^3 + x + 1
    a = f8.gen
    table = {
        3: (1, 1, 0),  # 1 + a
        4: (0, 1, 1),  # a + a^2
        5: (1, 1, 1),  # 1 + a + a^2
        6: (1, 0, 1),  # 1 + a^2
        7: (1, 0, 0),  # 1
    }
    for exp, coeffs in table.items():
        assert (a**exp).coeffs == coeffs


def test_default_modulus_is_irreducible_by_trial_division():
    for p, e in [(11, 3), (5, 3), (13, 3), (3, 4), (11, 2)]:
        mod = default_modulus(p, e)
        assert trial_division_irreducible(mod, p)
        assert poly_is_irreducible(mod, p)
        # nothing smaller is irreducible
        value = sum(c * p**i for i, c in enumerate(mod[:-1]))
        for smaller in range(value):
            cand = []
            t = smaller
            for _ in range(e):
                cand.append(t % p)
                t //= p
            cand.append(1)
            assert not trial_division_irreducible(cand, p)


def _irreducible_count(p, e):
    """Gauss: the count of monic irreducibles of degree e is (1/e) sum_{d | e} mu(d) p^(e/d)."""
    def mobius(d):
        sign, ell = 1, 2
        while d > 1:
            if d % ell == 0:
                d //= ell
                if d % ell == 0:
                    return 0
                sign = -sign
            ell += 1
        return sign

    return sum(mobius(d) * p ** (e // d) for d in range(1, e + 1) if e % d == 0) // e


def test_irreducibility_matches_trial_division_on_every_small_monic_polynomial(monkeypatch):
    """Every monic polynomial of degree 1-4 over GF(2), GF(3) and GF(5), of degree 5-8 over
    GF(2), and of degree 2-3 over GF(7), GF(11) and GF(13): the reducible ones stop at every
    step of the distinct-degree test.  Degree 2-3 below the screen's limit is decided by
    evaluation alone, so no packing is built there."""
    cases = [(p, e) for p in (2, 3, 5) for e in range(1, 5)] + [(2, e) for e in range(5, 9)]
    cases += [(p, e) for p in (7, 11, 13) for e in (2, 3)]
    packing = fields._packing
    for p, e in cases:
        if e <= 3:
            monkeypatch.setattr(fields, "_packing", None)  # a call would raise TypeError
        found = 0
        for tail in range(p**e):
            cand = [tail // p**i % p for i in range(e)] + [1]
            verdict = poly_is_irreducible(cand, p)
            assert verdict == trial_division_irreducible(cand, p), (p, cand)
            found += verdict
        monkeypatch.setattr(fields, "_packing", packing)
        assert found == _irreducible_count(p, e), (p, e)


def test_both_linear_factor_screens_give_the_same_verdicts(monkeypatch):
    """Every monic polynomial of degree 2-4 over GF(3), GF(5) and GF(7), by evaluation and by
    the packed gcd(x^p - x, f), the screen above the crossover on p."""
    for p, e in [(p, e) for p in (3, 5, 7) for e in (2, 3, 4)]:
        verdicts = []
        for limit in (0, fields._SCREEN_LIMIT):
            monkeypatch.setattr(fields, "_SCREEN_LIMIT", limit)
            verdicts.append([poly_is_irreducible([tail // p**i % p for i in range(e)] + [1], p)
                             for tail in range(p**e)])
        assert verdicts[0] == verdicts[1], (p, e)
        assert sum(verdicts[0]) == _irreducible_count(p, e), (p, e)


def test_irreducibility_matches_rabins_test_on_random_polynomials():
    """Seeded: random monic polynomials of degree 4-22 over GF(3), GF(5), GF(7) and GF(257),
    half of them products of random irreducible factors, so that the smallest factor degree
    (the step that refuses them) ranges over 2-11, and the irreducible factors themselves."""
    rng = random.Random(3201)

    def monic(p, d):
        return [rng.randrange(p) for _ in range(d)] + [1]

    def times(a, b, p):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def irreducible(p, d):
        while not rabin_irreducible(f := monic(p, d), p):
            pass
        return f

    verdicts = {True: 0, False: 0}
    for p in (3, 5, 7, 257):
        for _ in range(80):
            e = rng.randrange(4, 23)
            if rng.random() < 0.5:
                f = monic(p, e)
            elif rng.random() < 0.3:
                f = irreducible(p, e)
            else:
                low = rng.randrange(2, e // 2 + 1)
                f = times(irreducible(p, low), irreducible(p, e - low), p)
            verdict = poly_is_irreducible(f, p)
            assert verdict == rabin_irreducible(f, p), (p, f)
            verdicts[verdict] += 1
    assert min(verdicts.values()) >= 40, verdicts


def test_default_moduli_of_large_prime_fields_are_pinned():
    """Above the screen's limit the linear factors are screened by a packed gcd, not by
    evaluation at up to p points."""
    assert default_modulus(65537, 2) == (3, 0, 1)
    assert default_modulus(1000003, 2) == (1, 0, 1)


def test_packed_gcd_matches_the_list_oracle():
    """Every pair of monic polynomials of degree <= 4 over GF(2) and GF(3), and 500 random
    pairs of degree <= 22 over GF(5), GF(7) and GF(13), on the slots of a degree-22 packing."""
    def monic(p, degree, tail):
        return [tail // p**i % p for i in range(degree)] + [1]

    def check(a, b, p, packing):
        w = packing[1]
        g = fields._pgcd(fields._pack(a, w), fields._pack(b, w), packing)
        expect = poly_gcd(a, b, p)
        assert (g.bit_length() - 1) // w == len(expect) - 1, (p, a, b)  # the degree
        assert fields._unpack(g, len(expect), w) == expect, (p, a, b)

    for p in (2, 3):
        packing = fields._packing([0] * 22 + [1], p)
        polys = [monic(p, d, t) for d in range(5) for t in range(p**d)]
        for a in polys:
            for b in polys:
                check(a, b, p, packing)
    def times(a, b, p):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    rng = random.Random(22)
    for p in (5, 7, 13):
        packing = fields._packing([0] * 22 + [1], p)
        for _ in range(500):
            # half the pairs share a factor of degree <= 3, so gcds of positive degree are common
            shared = rng.randrange(4) if rng.random() < 0.5 else 0
            common = monic(p, shared, rng.randrange(p**shared))
            a, b = (times(monic(p, d, rng.randrange(p**d)), common, p)
                    for d in (rng.randrange(23 - shared), rng.randrange(23 - shared)))
            check(a, b, p, packing)


# (p, e) -> default modulus for the 22 splitting fields of the criterion-6 family
# (p in {3, 5, 7}, GF(p^2), rn <= 26), constant term first
SPLITTING_FIELD_MODULI = {
    (3, 2): (1, 0, 1), (3, 4): (2, 1, 0, 0, 1), (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 10): (1, 0, 2) + (0,) * 7 + (1,), (3, 16): (1, 0, 1, 1) + (0,) * 12 + (1,),
    (3, 18): (1, 2, 0, 1) + (0,) * 14 + (1,), (3, 20): (1, 2, 0, 1) + (0,) * 16 + (1,),
    (3, 22): (1, 0, 1, 1) + (0,) * 18 + (1,),
    (5, 2): (2, 0, 1), (5, 4): (2, 0, 0, 0, 1), (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 10): (3, 1, 1) + (0,) * 7 + (1,), (5, 16): (2,) + (0,) * 15 + (1,),
    (5, 18): (1, 1) + (0,) * 16 + (1,), (5, 22): (1, 1) + (0,) * 20 + (1,),
    (7, 2): (1, 0, 1), (7, 4): (1, 1, 0, 0, 1), (7, 6): (2,) + (0,) * 5 + (1,),
    (7, 10): (3, 2) + (0,) * 8 + (1,), (7, 12): (2, 1, 1) + (0,) * 9 + (1,),
    (7, 16): (3, 2) + (0,) * 14 + (1,), (7, 22): (4, 0, 1) + (0,) * 19 + (1,),
}


def test_default_moduli_of_the_criterion_6_splitting_fields_are_pinned():
    found = set()
    for p in (3, 5, 7):
        q = p * p
        for k in (0, 1):
            gate = math.gcd(1 + p ** (2 - k), q - 1)  # lambda^(1 + p^(e-k)) = 1 allows these orders r
            for r in (r for r in range(1, gate + 1) if gate % r == 0):
                found |= {(p, 2 * multiplicative_order(q, r * n))
                          for n in range(1, 26 // r + 1) if math.gcd(n, p) == 1}
    assert found == set(SPLITTING_FIELD_MODULI)
    for (p, e), modulus in SPLITTING_FIELD_MODULI.items():
        assert len(modulus) == e + 1 and default_modulus(p, e) == modulus, (p, e)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        make_field(3, 2, (1, 1))  # not degree 2
    with pytest.raises(ValueError, match="expected an integer"):
        make_field(3, 2, (2.5, 2, 1))  # not truncated to x^2 + 2x + 2


@pytest.mark.parametrize("p, e", [(3.0, 2), (3, 2.0), (True, 2), (3, True)])
def test_make_field_refuses_p_and_e_that_are_not_integers(p, e):
    with pytest.raises(ValueError, match="expected an integer"):
        make_field(p, e)


def test_galois_parameter_check():
    for k in range(3):
        assert fields.check_galois_parameter(k, 3) is None
    for k in (-1, 3):
        with pytest.raises(ValueError, match=rf"^need 0 <= k < e, got k={k}, e=3$"):
            fields.check_galois_parameter(k, 3)
    for k in (1.0, True, "1"):
        with pytest.raises(ValueError, match="expected an integer"):
            fields.check_galois_parameter(k, 3)


def test_field_identity_and_memoization():
    a = make_field(2, 3)
    b = make_field(2, 3, (1, 1, 0, 1))
    assert a == b and hash(a) == hash(b)
    assert a is b  # memoized
    c = make_field(2, 3, (1, 0, 1, 1))  # x^3 + x^2 + 1
    assert c != a


def test_every_spelling_of_a_modulus_gives_one_field():
    mod = default_modulus(5, 2)
    f = make_field(5, 2)
    assert make_field(5, 2, mod) is f
    assert make_field(5, 2, list(mod)) is f
    assert make_field(5, 2, [c + 5 for c in mod]) is f  # coefficients >= p reduce mod p


def test_invalid_fields_raise_on_every_call_and_are_not_memoized():
    sizes = fields._make_field.cache_info().currsize, fields._field.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError):
            make_field(4, 1)
    assert (fields._make_field.cache_info().currsize, fields._field.cache_info().currsize) == sizes


def test_cache_clear_makes_the_next_call_build_anew():
    f = make_field(13, 2)
    fields._make_field.cache_clear()
    fields._field.cache_clear()
    g = make_field(13, 2)
    assert g is not f and g == f and make_field(13, 2) is g
    src, dst = make_field(2, 2), make_field(2, 4)
    emb = embedding(src, dst)
    assert embedding(src, dst) is emb
    embedding.cache_clear()
    fresh = embedding(src, dst)
    assert fresh is not emb and fresh == emb and embedding(src, dst) is fresh


def test_element_arithmetic_basics():
    f9 = make_field(3, 2)
    x, y = f9.from_code(5), f9.from_code(7)
    assert (x + y) - y == x
    assert x * y == y * x
    assert (x / y) * y == x
    assert -(-x) == x
    assert x * f9.one == x and x + f9.zero == x
    with pytest.raises(ZeroDivisionError):
        x / f9.zero
    with pytest.raises(ValueError):
        x + make_field(3, 1).one


NOT_INTEGERS = [1.5, 2.0, "2", True, None]


def test_as_int_returns_exact_ints_as_they_are_and_reads_other_integers_through_index():
    big = 10**30
    assert fields.as_int(big) is big and fields.as_int(-3) == -3 and fields.as_int(0) == 0
    for x in (np.int64(7), np.uint8(7), np.int32(-7)):  # off the fast path
        assert fields.as_int(x) == int(x) and type(fields.as_int(x)) is int
    for bad in (True, False, np.bool_(True), 1.0, 7.5, "7", Fraction(7, 1), Fraction(1, 2), None):
        with pytest.raises(ValueError, match="expected an integer"):
            fields.as_int(bad)


def test_from_int_takes_only_integers():
    f5 = make_field(5, 1)
    for bad in NOT_INTEGERS:
        with pytest.raises(ValueError, match="expected an integer"):
            f5.from_int(bad)
    assert f5.from_int(np.int64(-1)) == f5.from_int(-1) == f5.from_code(4)
    assert type(f5.from_int(np.int64(7)).code) is int


def test_from_code_takes_only_integers():
    f9 = make_field(3, 2)
    for bad in NOT_INTEGERS:
        with pytest.raises(ValueError, match="expected an integer"):
            f9.from_code(bad)
    assert type(f9.from_code(np.int64(7)).code) is int
    with pytest.raises(ValueError, match="out of range"):
        f9.from_code(9)


def test_from_coeffs_takes_only_integers():
    f9 = make_field(3, 2)
    for bad in NOT_INTEGERS:
        with pytest.raises(ValueError, match="expected an integer"):
            f9.from_coeffs([bad, 2])
    assert f9.from_coeffs([np.int64(1), -1]) == f9.from_code(7)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([(2, 3), (3, 2), (5, 2), (2, 4), (2, 1), (3, 1), (7, 1)]),
       st.integers(0, 80), st.integers(0, 80), st.integers(0, 6))
def test_frobenius_is_a_homomorphism(pe, xc, yc, j):
    f = make_field(*pe)
    x, y = f.from_code(xc % f.q), f.from_code(yc % f.q)
    assert frobenius_pow(x, j) == x ** (f.p ** j)
    assert frobenius_pow(x + y, j) == frobenius_pow(x, j) + frobenius_pow(y, j)
    assert frobenius_pow(x * y, j) == frobenius_pow(x, j) * frobenius_pow(y, j)
    assert frobenius_pow(x, f.e) == x
    assert frobenius_pow(x, 0) == x


def test_frobenius_on_gf8_generator_squares():
    f8 = make_field(2, 3)
    a = f8.gen
    assert frobenius_pow(a, 1) == a * a


def test_frobenius_rejects_negative_exponent():
    f = make_field(3, 1)
    with pytest.raises(ValueError):
        frobenius_pow(f.one, -1)


def test_frobenius_exponents_have_one_check():
    """frobenius_pow, frobenius_poly and p_power_code refuse -1, 1.5 and True with one
    ValueError, and read a numpy 2 as 2."""
    f27 = make_field(3, 3)
    a = f27.gen
    calls = [lambda j: frobenius_pow(a, j),
             lambda j: frobenius_poly(Poly.from_elements(f27, [a, f27.one]), j),
             lambda j: p_power_code(LinearCode(f27, [[f27.one, a, a * a]]), j)]
    for call in calls:
        assert call(np.int64(2)) == call(2) != call(0)
        with pytest.raises(ValueError, match=r"^Frobenius exponent must be >= 0, got -1$"):
            call(-1)
        for bad in (1.5, True):
            with pytest.raises(ValueError, match="expected an integer"):
                call(bad)


def test_mult_order_examples():
    f8 = make_field(2, 3)
    assert mult_order(f8.one) == 1
    assert mult_order(f8.gen) == 7
    f5 = make_field(5, 1)
    assert mult_order(f5.from_int(-1)) == 2
    with pytest.raises(ValueError):
        mult_order(f5.zero)


def test_factorize_gives_ascending_primes_that_multiply_back():
    big = [7**22 - 1, 5**22 - 1, 3**22 - 1, 2**64 - 1, 1031**2, 1031 * 1033 * 65537, 2 * 10007**3,
           1000003 * 999983]
    for m in list(range(1, 3000)) + big:
        f = factorize(m)
        assert list(f) == sorted(f) and all(is_prime(p) for p in f), m
        assert math.prod(p**k for p, k in f.items()) == m
    assert factorize(7**22 - 1) == {2: 4, 3: 1, 23: 1, 1123: 1, 293459: 1, 10746341: 1}


def test_multiplicative_order_reads_integers_and_refuses_moduli_below_1():
    for m in (0, -4, -1):
        with pytest.raises(ValueError, match="m >= 1"):
            multiplicative_order(9, m)  # -4 used to loop forever
    for a, m in [(9, 4.0), (True, 5), (2.0, 5), (3, True)]:
        with pytest.raises(ValueError, match="expected an integer"):
            multiplicative_order(a, m)
    assert multiplicative_order(np.int64(9), np.int64(10)) == 2
    assert multiplicative_order(-1, 10) == 2 and multiplicative_order(5, 1) == 1
    with pytest.raises(ValueError, match="not a unit"):
        multiplicative_order(4, 10)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 3), (3, 2), (5, 2), (7, 1)]), st.integers(1, 200))
def test_mult_order_divides_group_order(pe, code):
    f = make_field(*pe)
    x = f.from_code(code % (f.q - 1) + 1)
    assert (f.q - 1) % mult_order(x) == 0


def test_sqrt_minus_one_values():
    assert sqrt_minus_one(make_field(5, 1)).code == 2
    assert sqrt_minus_one(make_field(13, 1)).code == 5
    eta = sqrt_minus_one(make_field(13, 1))
    assert (eta * eta).code == 12
    with pytest.raises(ValueError):
        sqrt_minus_one(make_field(7, 1))
    # char 2: -1 = 1
    assert sqrt_minus_one(make_field(2, 3)) == make_field(2, 3).one
    # e even makes -1 a square even for p = 3 mod 4
    eta49 = sqrt_minus_one(make_field(7, 2))
    assert eta49 * eta49 == -make_field(7, 2).one


def test_sqrt_minus_one_is_smallest_by_code():
    for p in (5, 13, 17, 29):
        f = make_field(p, 1)
        eta = sqrt_minus_one(f)
        brute = [c for c in range(p) if c * c % p == p - 1]
        assert eta.code == min(brute)


def test_embed_prime_subfield_and_units():
    f8 = make_field(2, 3)
    f64 = make_field(2, 6)
    assert embed(f8, f64, f8.zero) == f64.zero
    assert embed(f8, f64, f8.one) == f64.one
    f3 = make_field(3, 1)
    f9 = make_field(3, 2)
    assert embed(f3, f9, f3.from_int(2)).code == 2


@pytest.mark.parametrize("src,dst", [((2, 2), (2, 4)), ((2, 3), (2, 6))])
def test_embed_is_an_injective_ring_hom_exhaustively(src, dst):
    fs, fd = make_field(*src), make_field(*dst)
    emb = embedding(fs, fd)
    images = {emb(x).code for x in fs.elements()}
    assert len(images) == fs.q
    for x in fs.elements():
        for y in fs.elements():
            assert emb(x * y) == emb(x) * emb(y)
            assert emb(x + y) == emb(x) + emb(y)


def test_embed_respects_mult_on_random_pairs():
    f8, f64 = make_field(2, 3), make_field(2, 6)
    rng = random.Random(2024)
    for _ in range(100):
        x = f8.from_code(rng.randrange(8))
        y = f8.from_code(rng.randrange(8))
        assert embed(f8, f64, x * y) == embed(f8, f64, x) * embed(f8, f64, y)


def _embedding_pairs(limit=13**6):
    """(p, e, E) for every source GF(p^e), e >= 2, and extension GF(p^E) with p^E <= limit."""
    return [(p, e, e * m) for p in range(2, 50) if is_prime(p)
            for e in range(2, 12) for m in range(2, 12) if p ** (e * m) <= limit]


def _irreducible(p, e, rank):
    """The rank-th monic irreducible of degree e in default_modulus order (rank 0 is the default)."""
    found = (c for c in (_digits(t, p, e) + [1] for t in range(p**e)) if poly_is_irreducible(c, p))
    return next(c for i, c in enumerate(found) if i == rank)


def _digits(code, p, e):
    return [code // p**i % p for i in range(e)]


# (p, e, E, rank of src's modulus, rank of dst's modulus); E = 16 and E = 6 at p = 7
# are past the log-table limit, and every E here is past the row-table limit but 3^4.
_NON_DEFAULT_MODULI = [
    (2, 3, 6, 1, 0), (2, 3, 6, 0, 1), (3, 2, 4, 1, 1), (5, 2, 6, 1, 2),
    (7, 3, 6, 1, 1), (2, 4, 16, 2, 1), (13, 2, 4, 3, 1),
]


@pytest.mark.parametrize(
    "p,e,E,src_rank,dst_rank",
    [(p, e, E, 0, 0) for p, e, E in _embedding_pairs()] + _NON_DEFAULT_MODULI,
    ids=lambda v: str(v))
def test_embedding_tables_match_the_all_roots_scan(p, e, E, src_rank, dst_rank):
    src = make_field(p, e, _irreducible(p, e, src_rank))
    dst = make_field(p, E, _irreducible(p, E, dst_rank))
    emb = embedding(src, dst)
    fwd, inv = embedding_by_scan(src, dst)
    assert list(emb.fwd.items()) == list(fwd.items())  # same images, keyed in code order
    assert list(emb.inv.items()) == list(inv.items())


def _verify_pairs():
    """The 22 (base, splitting field) pairs of the criterion-6 families: GF(p^2) in GF(p^E), rn <= 26."""
    out = set()
    for p in (3, 5, 7):
        base = make_field(p, 2)
        out |= {(base, splitting_field(base, rn)) for rn in range(1, 27) if rn % p}
    return sorted(out, key=lambda pair: (pair[1].p, pair[1].e))


def test_embedding_matches_the_all_roots_scan_on_the_verify_pairs():
    pairs = _verify_pairs()
    assert len(pairs) == 22 and {(dst.p, dst.e) for _, dst in pairs} >= {(3, 22), (5, 22), (7, 22)}
    for src, dst in pairs:
        emb = embedding(src, dst)
        if src == dst:
            assert emb.fwd == emb.inv == {c: c for c in range(src.q)}
            continue
        fwd, inv = embedding_by_scan(src, dst)
        assert list(emb.fwd.items()) == list(fwd.items()), (src, dst)
        assert list(emb.inv.items()) == list(inv.items()), (src, dst)


def test_embed_rejects_incompatible_fields():
    with pytest.raises(ValueError):
        embedding(make_field(2, 3), make_field(3, 3))
    with pytest.raises(ValueError):
        embedding(make_field(2, 3), make_field(2, 4))


def test_primitive_rn_root_unique_square_root_case():
    f5 = make_field(5, 1)
    th = primitive_rn_root(f5, 2, 1, f5.from_int(-1))
    assert th == f5.from_int(-1)


def test_primitive_rn_root_gf1331_by_exhaustive_scan():
    f = make_field(11, 3)
    lam = f.from_int(-1)
    th = primitive_rn_root(f, 10, 5, lam)
    assert mult_order(th) == 10 and th**5 == lam
    valid = {x.code for x in f.elements()
             if x.code and mult_order(x) == 10 and x**5 == lam}
    assert th.code in valid


def test_primitive_rn_root_in_gf5_pow12(monkeypatch):
    f125 = make_field(5, 3)
    big = make_field(5, 12)
    lam = embed(f125, big, f125.from_int(-1))

    def refuse(self, a):
        raise AssertionError("theta's order checked over q - 1")

    with monkeypatch.context() as patch:  # the order is checked over the primes of rn = 26 only
        patch.setattr(Field, "_code_order", refuse)
        th = primitive_rn_root(big, 26, 13, lam)
    assert mult_order(th) == 26 and th**13 == lam


@pytest.mark.parametrize("p,e", [(3, 4), (3, 10), (2, 20), (7, 22)])
def test_root_products_match_poly_products_of_element_powers(p, e):
    f = make_field(p, e)
    rng = random.Random(p * e)
    theta = f.from_code(rng.randrange(1, f.q))
    sets = [(), (0,), (5, 5 + f.q - 1), (-1, 1), tuple(range(1, 40, 3)),
            tuple(rng.randrange(-f.q, 2 * f.q) for _ in range(7)), (np.int64(9), 2 * f.q + 3)]
    got = root_products(theta, sets)
    for s, codes in zip(sets, got):
        expected = Poly(f, (1,))
        for i in {int(i) % (f.q - 1) for i in s}:  # a set of powers of theta
            expected = expected * Poly.make(f, [(-(theta**i)).code, 1])
        assert codes == list(expected.codes), s
    with pytest.raises(ValueError, match="expected an integer"):
        root_products(theta, [(1, 2.0)])
    with pytest.raises(ValueError, match="nonzero"):
        root_products(f.zero, [(1,)])


def test_primitive_rn_root_reads_rn_and_n_through_as_int():
    f125 = make_field(5, 3)
    big = make_field(5, 12)
    lam = embed(f125, big, f125.from_int(-1))
    th = primitive_rn_root(big, 26, 13, lam)
    assert primitive_rn_root(big, np.int64(26), np.int64(13), lam) == th
    assert primitive_rn_root(big, 26, 13 - 26, lam) == th  # theta^26 = 1
    for rn, n in [(26.0, 13), (26, 13.0), (True, 1), (26, "13")]:
        with pytest.raises(ValueError, match="expected an integer"):
            primitive_rn_root(big, rn, n, lam)


def test_primitive_rn_root_rejects_impossible_requests():
    f5 = make_field(5, 1)
    with pytest.raises(ValueError):
        primitive_rn_root(f5, 3, 1, f5.one)  # 3 does not divide 4
    with pytest.raises(ValueError):
        # theta^2 = -1 forces order 4 elements, none of which has square 1
        primitive_rn_root(f5, 4, 2, f5.one)


def test_serialization_round_trips():
    f8 = make_field(2, 3)
    a = f8.gen
    assert a.to_json() == [0, 1, 0]
    assert f8.from_coeffs(a.to_json()) == a
    blob = json.dumps(f8.to_json())
    from galcd.fields import Field
    assert Field.from_json(json.loads(blob)) is f8


def first_product(f: Field) -> Field:
    """f after one product, which builds the log tables of a field with 600 < q <= 2^16."""
    f.mul_codes(1, 1)
    return f


def test_log_tables_match_the_brute_force_walks_for_every_small_field():
    for q in range(2, 2049):
        factors = factorize(q)
        if len(factors) != 1:
            continue
        (p, e), = factors.items()
        f = first_product(Field(p, e, default_modulus(p, e)))
        g, exp, log = brute_log_tables(f)
        assert (f.primitive_element.code, f._exp, f._log) == (g, exp, log), (p, e)


# Past q = 2048 the blocked walk advances whole blocks of _WALK_WIDTH
# columns, and in every case below q - 1 is not a multiple of the width,
# so the last block is cut short.  The last two moduli are not the
# defaults (dense tails, the largest irreducible ones).
@pytest.mark.parametrize("p,e,modulus", [
    (2, 16, None), (3, 10, None), (13, 4, None), (251, 2, None),
    pytest.param(2, 13, (1, 0) + (1,) * 12, id="2-13-dense"),
    pytest.param(5, 6, (2, 4, 4, 4, 4, 4, 1), id="5-6-dense"),
])
def test_log_tables_match_the_sequential_walk_past_2048(p, e, modulus):
    if modulus is None:
        modulus = default_modulus(p, e)
    else:
        assert modulus != default_modulus(p, e) and trial_division_irreducible(modulus, p)
    f = first_product(Field(p, e, modulus))  # not memoized: the tables go with it
    assert 2048 < f.q <= 1 << 16 and (f.q - 1) % _WALK_WIDTH
    exp, log = walk_log_tables(f, f.primitive_element.code)
    assert f._exp == exp and f._log == log


def test_prime_field_log_tables_match_the_integer_walk():
    primes = [p for p in range(2, 3000) if is_prime(p)] + [7919, 65521]
    assert len(primes) == 432
    for p in primes:
        f = first_product(Field(p, 1, default_modulus(p, 1)))  # not memoized: the tables go with it
        exp, log = prime_walk_log_tables(p, f.primitive_element.code)
        assert f._exp == exp and f._log == log, p


def test_lazy_values_are_built_on_first_read_and_kept():
    f = Field(2, 20, default_modulus(2, 20))  # untabled: nothing reads them at construction
    for name in ("qm1_factors", "_packing", "_generator_code"):  # the last reads the other two
        assert name not in vars(f), name
        value = getattr(f, name)
        assert name in vars(f) and getattr(f, name) is value, name
    assert f.primitive_element.code == f._generator_code
    # no cached value points back at the field, so a dropped field is freed at once
    assert not any(isinstance(v, Element) for v in vars(f).values())
    # the kernels read slots, not the instance dict
    for name in ("_exp", "_log", "_mul", "_add"):
        assert isinstance(vars(Field)[name], types.MemberDescriptorType), name
        assert name not in vars(f), name


def test_gf3_10_generator_and_sampled_exp_entries():
    f = first_product(make_field(3, 10))
    assert f.primitive_element.code == 34
    rng = random.Random(310)
    for i in rng.sample(range(f.q - 1), 100):
        assert f._exp[i] == f._raw_pow(34, i), i
        assert f._log[f._exp[i]] == i


# 600 < q <= 2^16: log tables come with the first product, not with the field
LAZY_LOG_FIELDS = [(7, 4), (3, 7), (601, 1), (5, 6)]


@pytest.mark.parametrize("p,e", LAZY_LOG_FIELDS)
def test_the_first_product_builds_the_brute_force_log_tables(p, e):
    g, exp, log = brute_log_tables(Field(p, e, default_modulus(p, e)))
    triggers = [lambda f: f.mul_codes(2, 3), lambda f: f.inv_code(2)]
    if p**e <= TABLE_LIMIT:
        triggers.append(lambda f: f.tables())
    for trigger in triggers:
        f = Field(p, e, default_modulus(p, e))  # not memoized: a fresh field each time
        assert 600 < f.q <= 1 << 16 and f._exp is None and f._log is None
        # powers, Frobenius maps, orders and the generator leave the tables unbuilt
        assert f.pow_code(2, 5) == naive_pow(f, 2, 5) and f.frob_code(2, 1) == naive_pow(f, 2, p)
        assert f.primitive_element.code == g and f._code_order(g) == f.q - 1
        assert f._exp is None and f._log is None
        trigger(f)
        assert (f._exp, f._log) == (exp, log)


@pytest.mark.parametrize("p,e", LAZY_LOG_FIELDS)
def test_powers_inverses_and_frobenius_agree_before_and_after_the_log_tables(p, e):
    f = Field(p, e, default_modulus(p, e))
    rng = random.Random(p * 10 + e)
    cases = [(rng.randrange(1, f.q), rng.randrange(3 * f.q), rng.randrange(1, 3 * e)) for _ in range(60)]

    def readings(inverse):
        return [(f.pow_code(a, n), inverse(a), f.frob_code(a, j)) for a, n, j in cases]

    # a^(q - 2) is the inverse without inv_code, which would build the tables
    before = readings(lambda a: f.pow_code(a, f.q - 2))
    assert f._exp is None
    first_product(f)
    assert f._exp is not None and readings(f.inv_code) == before


@pytest.mark.parametrize("p,e", [(2, 20), (3, 10), (3, 22), (7, 22), (23, 3), (65537, 1), (65537, 2)])
def test_code_and_packed_conversions_are_inverse_and_match_the_digits(p, e):
    f = make_field(p, e)
    w = f._packing[1]
    rng = random.Random(p * 100 + e)
    for code in [0, 1, p - 1, p % f.q, f.q - 1] + [rng.randrange(f.q) for _ in range(200)]:
        x = f._to_packed(code)
        assert x == fields._pack(f._decode(code), w)
        assert f._from_packed(x) == code


@pytest.mark.parametrize("p,e", [(3, 12), (2, 20), (5, 8), (65537, 1), (7, 22), (257, 3),
                                 (3, 22), (5, 22), (65537, 2)])
def test_untabled_pow_code_matches_repeated_raw_mul(p, e):
    f = make_field(p, e)
    assert f._exp is None
    rng = random.Random(1000 * p + e)
    for _ in range(10):
        a = rng.randrange(1, f.q)
        for n in (0, 1, rng.randrange(2, 300)):
            assert f.pow_code(a, n) == naive_pow(f, a, n), (a, n)
        # q - 1 repeated products are only affordable in the prime field;
        # elsewhere a^(q-1) = 1 and a * a^-1 = 1 stand in for the walk.
        big = naive_pow(f, a, f.q - 1) if e == 1 else 1
        assert f.pow_code(a, f.q - 1) == big == 1
        assert f._raw_mul(a, f.pow_code(a, -1)) == 1
        n1, n2 = rng.randrange(f.q, 10 * f.q), rng.randrange(f.q, 10 * f.q)
        assert f.pow_code(a, n1 + n2) == f._raw_mul(f.pow_code(a, n1), f.pow_code(a, n2))
    assert f.pow_code(0, 0) == 1 and f.pow_code(0, 7) == 0


@pytest.mark.parametrize("p,e", [(2, 20), (3, 12), (5, 8), (7, 22), (257, 3), (3, 22), (5, 22), (65537, 2)])
def test_untabled_products_match_the_schoolbook_oracle(p, e):
    f = make_field(p, e)
    assert f._exp is None
    rng = random.Random(10 * p + e)
    special = [0, 1, p - 1, f.q - 1, p ** (e - 1)]  # q - 1 has every digit p - 1; p^(e-1) codes x^(e-1)
    for a in special + [rng.randrange(f.q) for _ in range(25)]:
        for b in special + [rng.randrange(f.q) for _ in range(8)]:
            assert f._raw_mul(a, b) == schoolbook_mul(f, a, b), (a, b)
        if a:
            assert schoolbook_mul(f, a, f.inv_code(a)) == 1, a
            n1, n2 = rng.randrange(f.q, 10 * f.q), rng.randrange(f.q, 10 * f.q)
            assert f.pow_code(a, n1 + n2) == schoolbook_mul(f, f.pow_code(a, n1), f.pow_code(a, n2)), a


def test_packed_kernel_constants_reduce_every_slot_and_fold_exactly():
    """The one-step slot reduction, mu = x^(2e) div m, and reduced slots out of ``_mulmod``.

    Every p <= 13 with every e <= 24 has each value below the slot bound
    2^v checked; p = 65537 has its boundary values.  The moduli are
    random monic polynomials: the fold needs m monic, not irreducible.
    """
    def times(a, b, p):  # the product of two coefficient lists, reduced mod p
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    rng = random.Random(23)
    checked = set()
    cases = [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in range(1, 25)] + [(65537, e) for e in (1, 2, 3, 22)]
    for p, e in cases:
        m = [rng.randrange(p) for _ in range(e)] + [1]
        packing = fields._packing(m, p)
        assert packing[0] == p
        _, w, ew, s, c, low, emask, mu, m0, pp = packing
        v = w - s
        assert ew == e * w and 2 ** v > max(e * (p - 1) ** 2, 2 * p) >= 2 ** (v - 1)
        assert low == sum(((1 << v) - 1) << w * i for i in range(2 * e)) and emask == (1 << ew) - 1
        if p < 65537:
            if (p, v) not in checked:
                checked.add((p, v))
                assert all(x - p * (x * c >> s) == x % p for x in range(2 ** v)), (p, v)
        else:
            tops = {k * p + d for k in ((2 ** v - 1) // p - 1, (2 ** v - 1) // p) for d in (-1, 0, 1)}
            for x in {0, 1, p - 1, p, p + 1, 2 * p - 1, 2 * p, 2 ** v - 1, *tops}:
                assert x >= 2 ** v or x - p * (x * c >> s) == x % p, (p, e, x)
        # mu * m + rho = x^(2e) with deg rho < e, rho = x^(2e) mod m
        mu_c = fields._unpack(mu, e + 1, w)
        mu_d, rho = fields._pdivmod([0] * (2 * e) + [1], m, p)
        assert len(rho) <= e
        full = times(mu_c, m, p)
        for i, r in enumerate(rho):
            full[i] = (full[i] + r) % p
        assert full == [0] * (2 * e) + [1], (p, e)
        assert mu_d == mu_c, (p, e)
        assert fields._unpack(m0, e, w) == m[:e] and fields._unpack(pp, e, w) == [p] * e
        # products of reduced slots, the all-(p - 1) inputs among them, come back reduced and exact
        top = [p - 1] * e
        for a, b in [(top, top)] + [([rng.randrange(p) for _ in range(e)], [rng.randrange(p) for _ in range(e)])
                                    for _ in range(3)]:
            out = fields._mulmod(fields._pack(a, w), fields._pack(b, w), packing)
            assert out >> ew == 0 and all(slot < p for slot in fields._unpack(out, e, w)), (p, e)
            assert fields._ptrim(fields._unpack(out, e, w)) == fields._pdivmod(times(a, b, p), m, p)[1], (p, e)


@pytest.mark.parametrize("p,e", [(65537, 1), (2, 20), (3, 12)])
def test_untabled_powers_of_prime_subfield_elements_skip_polynomial_powering(monkeypatch, p, e):
    f = make_field(p, e)
    assert f._exp is None

    def refuse(*args):
        raise AssertionError("polynomial powering of a prime-subfield element")

    monkeypatch.setattr(fields, "_ppowmod", refuse)
    rng = random.Random(p + e)
    for a in {1, p - 1, *(rng.randrange(1, p) for _ in range(20))}:
        assert f.inv_code(a) == pow(a, -1, p), a
        for n in (0, 1, 2, p - 1, rng.randrange(p, 10**6), -3):
            assert f.pow_code(a, n) == pow(a, n, p), (a, n)


def test_tables_match_raw_products_and_digitwise_sums_on_every_small_field():
    for q in range(2, 65):
        factors = factorize(q)
        if len(factors) != 1:
            continue
        (p, e), = factors.items()
        f = make_field(p, e)
        mul, add = f.tables()
        assert f.tables() is f.tables() and not (mul.flags.writeable or add.flags.writeable)
        for a in range(q):
            assert mul[a].tolist() == [f._raw_mul(a, b) for b in range(q)], (q, a)
            assert add[a].tolist() == [digitwise_add(f, a, b) for b in range(q)], (q, a)
        assert (f._mul, f._add) == (mul.tolist(), add.tolist())


@pytest.mark.parametrize("p,e", [(5, 3), (23, 2), (7, 1)])
def test_numpy_tables_are_built_on_first_use_from_the_same_rule(p, e):
    f = Field(p, e, default_modulus(p, e))  # not memoized: a fresh field
    assert "_tables" not in vars(f)
    mul, add = f.tables()
    assert "_tables" in vars(f)
    assert (mul.tolist(), add.tolist()) == (f._mul, f._add)
    if e == 1:
        assert mul.tolist() == [[a * b % p for b in range(p)] for a in range(p)]
        assert add.tolist() == [[(a + b) % p for b in range(p)] for a in range(p)]


@pytest.mark.parametrize("p,e", [(2, 9), (23, 2), (5, 4), (2, 11), (13, 3)])
def test_tables_match_raw_products_and_digitwise_sums_on_sampled_pairs(p, e):
    f = Field(p, e, default_modulus(p, e))  # not memoized: the large tables go with it
    mul, add = f.tables()
    assert mul.shape == add.shape == (f.q, f.q)
    rng = random.Random(100 * p + e)
    for _ in range(2000):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert mul[a, b] == f._raw_mul(a, b) and add[a, b] == digitwise_add(f, a, b), (a, b)


@pytest.mark.parametrize("p,e,branch", [pytest.param(7, 1, "rows", id="7-1-prime"),
                                        pytest.param(65537, 1, "scalar", id="65537-1-prime"),
                                        (3, 2, "rows"), (2, 9, "rows"), (5, 4, "scalar"), (2, 20, "scalar")])
def test_row_kernels_match_entrywise_arithmetic(p, e, branch):
    f = make_field(p, e)
    assert branch == ("rows" if f._add is not None else "scalar")
    rng = random.Random(p * e)
    for _ in range(20):
        xs, ys = ([rng.choice((0, rng.randrange(f.q))) for _ in range(25)] for _ in range(2))
        for c in (0, 1, rng.randrange(2, f.q)):
            assert f.axpy(xs, c, ys) == naive_axpy(f, xs, c, ys), c
            assert naive_axpy(f, f.axmy(xs, c, ys), c, ys) == xs, c  # adding c*ys back
            assert f.scale(c, ys) == naive_axpy(f, [0] * len(ys), c, ys), c


@pytest.mark.parametrize("primes", [[p for p in range(600) if is_prime(p)], [601, 7919], [65537]],
                         ids=["rows", "log", "scalar"])
def test_prime_field_kernels_match_mod_p_arithmetic(primes):
    for p in primes:
        f = Field(p, 1, default_modulus(p, 1))  # not memoized: the tables go with it
        assert (f._add is not None, f._exp is not None) == (p < 600, p < 600), p
        first_product(f)
        assert (f._add is not None, f._exp is not None) == (p < 600, p < 1 << 16), p
        ref = mod_p_kernels(p)
        rng = random.Random(p)
        for _ in range(4):
            xs, ys = ([rng.choice((0, rng.randrange(p))) for _ in range(14)] for _ in range(2))
            for c in (0, 1, p - 1, rng.randrange(p)):
                for name in ("axpy", "axmy"):
                    assert getattr(f, name)(xs, c, ys) == ref[name](xs, c, ys), (p, name, c)
                assert f.scale(c, xs) == ref["scale"](c, xs), (p, c)
            for a, b in zip(xs + [0, p - 1], ys + [p - 1, 0]):
                for name in ("add_codes", "sub_codes", "mul_codes"):
                    assert getattr(f, name)(a, b) == ref[name](a, b), (p, name, a, b)
                assert f.neg_code(a) == ref["neg_code"](a), (p, a)
                if a:
                    assert f.inv_code(a) == ref["inv_code"](a), (p, a)
                    for n in (0, 1, p - 2, rng.randrange(-3 * p, 3 * p)):
                        assert f.pow_code(a, n) == ref["pow_code"](a, n), (p, a, n)


def _frob_row_fields():
    """The fields of the sweeps above that hold row lists: every q <= 64, every prime below 600."""
    qs = sorted(set(range(2, 65)) | {p for p in range(65, 600) if is_prime(p)})
    return [pe for q in qs if len(factors := factorize(q)) == 1 for pe in factors.items()]


def test_frob_row_matches_frob_code_on_every_row_list_field():
    for p, e in _frob_row_fields():
        f = Field(p, e, default_modulus(p, e))  # not memoized: each field's rows go with it
        assert f._mul is not None and "_frob_tables" not in vars(f)
        xs = list(range(f.q))
        for j in range(2 * e + 1):
            assert f.frob_row(xs, j) == [f.frob_code(x, j) for x in xs], (p, e, j)
        assert set(f._frob_tables) == set(range(1, e))  # one table per nonzero j mod e


def test_frob_row_of_an_untabled_field_calls_frob_code():
    f = make_field(3, 7)
    assert f._mul is None
    rng = random.Random(37)
    xs = [0, 1, f.q - 1] + [rng.randrange(f.q) for _ in range(40)]
    for j in range(2 * f.e + 1):
        assert f.frob_row(xs, j) == [f.frob_code(x, j) for x in xs], j
    assert "_frob_tables" not in vars(f)


def test_field_kernels_never_read_the_degree():
    kernels = {"add_codes", "neg_code", "sub_codes", "mul_codes", "inv_code", "pow_code",
               "axpy", "axmy", "scale"}
    tree = ast.parse(pathlib.Path(fields.__file__).read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Field")
    methods = {fn.name: fn for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    assert set(methods) >= kernels
    readers = sorted(name for name in kernels for node in ast.walk(methods[name])
                     if isinstance(node, ast.Attribute) and node.attr == "e"
                     and isinstance(node.value, ast.Name) and node.value.id == "self")
    assert readers == []
    # one log walk builds every field: it never tests e against 1
    def names_e(node):
        return isinstance(node, ast.Name) and node.id == "e" or isinstance(node, ast.Attribute) and node.attr == "e"

    forks = [node.lineno for node in ast.walk(methods["_build_log_tables"]) if isinstance(node, ast.Compare)
             and any(names_e(side) for side in [node.left, *node.comparators])
             and any(isinstance(side, ast.Constant) and side.value == 1 for side in [node.left, *node.comparators])]
    assert forks == []


def test_tables_are_refused_above_the_limit():
    for p, e in [(2, 12), (65537, 1)]:
        f = make_field(p, e)
        assert f.q > TABLE_LIMIT
        with pytest.raises(ValueError, match="table limit"):
            f.tables()


def test_only_the_fields_module_reads_the_tables():
    src = pathlib.Path(fields.__file__).parent
    private = re.compile(r"\._(exp|log|add|mul|tables)\b")
    readers = [f"{path.name}:{i}" for path in sorted(src.glob("*.py")) if path.name != "fields.py"
               for i, line in enumerate(path.read_text().splitlines(), 1) if private.search(line)]
    assert readers == []


def test_galcd_imports_only_at_module_level_and_without_cycles():
    src = pathlib.Path(fields.__file__).parent
    graph, nested = {}, []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
        targets = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "galcd":
                targets |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("galcd."):
                targets.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                targets |= {a.name.split(".")[1] for a in node.names if a.name.startswith("galcd.")}
        graph[path.stem] = targets - {path.stem}
    assert nested == []
    del graph["__init__"]  # the package re-exports every module; no module imports it back
    assert not any("__init__" in targets for targets in graph.values())
    order = []  # peel off modules whose galcd imports are all placed
    while len(order) < len(graph):
        ready = sorted(m for m in graph if m not in order and graph[m] <= set(order))
        assert ready, f"import cycle among {sorted(set(graph) - set(order))}"
        order += ready


def test_field_set_up_makes_far_fewer_than_q_products(monkeypatch):
    mod = default_modulus(3, 10)
    real = fields._mulmod
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(fields, "_mulmod", counting)
    f = first_product(Field(3, 10, mod))
    assert f.primitive_element.code == 34
    # The generator search powers each candidate once per prime factor of
    # q - 1, at most two products per exponent bit; the walk adds e, one
    # per column of its step matrix.
    bound = 34 * len(f.qm1_factors) * 2 * f.q.bit_length()
    assert 0 < calls <= bound < f.q


def test_two_threads_share_a_fresh_untabled_field():
    f = Field(2, 20, default_modulus(2, 20))
    x = f.from_code(12345)
    start = threading.Barrier(2)
    results = [None, None]

    def work(slot):
        start.wait(timeout=30)
        results[slot] = (f.primitive_element, mult_order(x))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results[0] is not None and results[0] == results[1]
    assert mult_order(results[0][0]) == f.q - 1
