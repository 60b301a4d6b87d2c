import ast
import json
import pathlib
import random
import re
import sys
import threading

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
    _ppowmod,
    default_modulus,
    element_from_json,
    embed,
    embedding,
    factorize,
    is_prime,
    make_field,
    mult_order,
    frobenius_pow,
    poly_is_irreducible,
    primitive_rn_root,
    sqrt_minus_one,
)
from oracles import (
    brute_log_tables,
    digitwise_add,
    mod_p_kernels,
    naive_axpy,
    naive_pow,
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


def test_mult_order_examples():
    f8 = make_field(2, 3)
    assert mult_order(f8.one) == 1
    assert mult_order(f8.gen) == 7
    f5 = make_field(5, 1)
    assert mult_order(f5.from_int(-1)) == 2
    with pytest.raises(ValueError):
        mult_order(f5.zero)


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


def test_primitive_rn_root_in_gf5_pow12():
    f125 = make_field(5, 3)
    big = make_field(5, 12)
    lam = embed(f125, big, f125.from_int(-1))
    th = primitive_rn_root(big, 26, 13, lam)
    assert mult_order(th) == 26 and th**13 == lam


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
    assert element_from_json(f8, a.to_json()) == a
    blob = json.dumps(f8.to_json())
    from galcd.fields import Field
    assert Field.from_json(json.loads(blob)) is f8


def test_log_tables_match_the_brute_force_walks_for_every_small_field():
    for q in range(2, 2049):
        factors = factorize(q)
        if len(factors) != 1:
            continue
        (p, e), = factors.items()
        f = Field(p, e, default_modulus(p, e))
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
    f = Field(p, e, modulus)  # not memoized: the tables go with it
    assert 2048 < f.q <= 1 << 16 and (f.q - 1) % _WALK_WIDTH
    exp, log = walk_log_tables(f, f.primitive_element.code)
    assert f._exp == exp and f._log == log


def test_gf3_10_generator_and_sampled_exp_entries():
    f = make_field(3, 10)
    assert f.primitive_element.code == 34
    g = f._decode(34)
    rng = random.Random(310)
    for i in rng.sample(range(f.q - 1), 100):
        assert f._exp[i] == f._encode(_ppowmod(g, i, f.modulus, f.p, f._packing)), i
        assert f._log[f._exp[i]] == i


@pytest.mark.parametrize("p,e", [(3, 12), (2, 20), (5, 8), (65537, 1), (7, 22), (257, 3)])
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


@pytest.mark.parametrize("p,e", [(2, 20), (3, 12), (5, 8), (7, 22), (257, 3)])
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
    assert f._tables is None
    mul, add = f.tables()
    assert f._tables is not None
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


def test_field_kernels_never_read_the_degree():
    kernels = {"add_codes", "neg_code", "sub_codes", "mul_codes", "inv_code", "pow_code",
               "axpy", "axmy", "scale"}
    tree = ast.parse(pathlib.Path(fields.__file__).read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Field")
    methods = {fn.name: fn for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name in kernels}
    assert set(methods) == kernels
    readers = sorted(name for name, fn in methods.items() for node in ast.walk(fn)
                     if isinstance(node, ast.Attribute) and node.attr == "e"
                     and isinstance(node.value, ast.Name) and node.value.id == "self")
    assert readers == []


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
    f = Field(3, 10, mod)
    assert f.primitive_element.code == 34
    # The generator search powers each candidate once per prime factor of
    # q - 1, at most two products per exponent bit; the walk makes none.
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
