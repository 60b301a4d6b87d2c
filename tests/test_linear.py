import json
import random
import tracemalloc
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galcd import linalg, linear
from galcd.constacyclic import _family, code_from_defining_set, to_generator_matrix
from galcd.cosets import bch_lower_bound
from galcd.fields import make_field, sqrt_minus_one
from galcd.linear import (
    BudgetExceeded,
    CodeParams,
    LinearCode,
    _distance_messages,
    _distance_supports,
    _parity_columns,
    _reverse_powers,
    _support_cost,
    euclidean_parity_check,
    extend_lcd,
    galois_dual,
    galois_inner_product,
    is_galois_lcd,
    min_distance,
    p_power_code,
)
from oracles import (
    brute_min_distance,
    constacyclic_shift,
    full_message_walk,
    hull_dim,
    literal_intersection_dim,
    matmul,
    support_scan,
    support_scan_echelon,
    systematic,
    transpose,
)


def _ex24_code():
    f8 = make_field(2, 3)
    a = f8.gen
    return f8, LinearCode(f8, [[f8.one, f8.zero, a, a], [f8.zero, f8.one, f8.one, a]])


def _random_code(rng, field, l, n):
    while True:
        rows = [[field.from_code(rng.randrange(field.q)) for _ in range(n)] for _ in range(l)]
        try:
            return LinearCode(field, rows)
        except ValueError:
            continue


def test_linear_code_construction_and_validation():
    f8, C = _ex24_code()
    assert (C.n, C.dim) == (4, 2)
    with pytest.raises(ValueError):
        LinearCode(f8, [[f8.one, f8.one], [f8.one, f8.one]])  # dependent rows
    with pytest.raises(ValueError):
        LinearCode(f8, [[f8.one], [f8.one, f8.zero]])  # ragged
    with pytest.raises(ValueError):
        LinearCode(f8, [], )  # dim 0 needs a length
    zero = LinearCode(f8, [], n=4)
    assert zero.dim == 0 and zero.n == 4
    with pytest.raises(ValueError):
        LinearCode(f8, [[3, 1]])  # 3 is not below p = 2


def test_integer_entries_must_be_integers():
    f3 = make_field(3, 1)
    for bad in [1.7, 2.0, "2", True, None]:
        with pytest.raises(ValueError, match="expected an integer"):
            LinearCode(f3, [[1, bad, 0]])
    assert LinearCode(f3, [[1, 2, 1]]).rows == ((1, 2, 1),)


def test_generator_rows_kept_as_bytes_or_tuples():
    """Rows over GF(q <= 256) are stored as bytes, larger fields keep tuples; both read back alike."""
    for pe in [(2, 1), (2, 8), (3, 6)]:
        field = make_field(*pe)
        top, mid = field.from_code(field.q - 1), field.from_code(field.q // 2)
        rows = [[field.one, field.zero, top, mid], [field.zero, field.one, mid, field.zero]]
        C = LinearCode(field, rows)
        assert C.generator() == rows and C.dim == 2
        assert C.rows == ((1, 0, field.q - 1, field.q // 2), (0, 1, field.q // 2, 0))
        assert C.codes_matrix() == [list(r) for r in C.rows]
        assert LinearCode._trusted(field, C.codes_matrix(), 4) == C
        assert hash(LinearCode.from_json(C.to_json())) == hash(C)


def test_generator_block_stays_small_per_code():
    """1000 GF(2) [18,12] codes hold at most 350 B each: one flat block of
    216 bytes per code, not twelve bytes objects in a tuple (813 B)."""
    field, rng = make_field(2, 1), random.Random(18)
    gens = [[[int(i == j) for j in range(12)] + [rng.randrange(2) for _ in range(6)]
             for i in range(12)] for _ in range(1000)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        codes = [LinearCode(field, rows) for rows in gens]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [C.dim for C in codes] == [12] * 1000
    assert held / len(codes) <= 350


def test_linear_code_json_round_trip():
    _, C = _ex24_code()
    assert LinearCode.from_json(C.to_json()) == C


def test_galois_inner_product_examples():
    f2 = make_field(2, 1)
    assert not galois_inner_product([f2.one, f2.one], [f2.one, f2.one], 0)
    f8, _ = _ex24_code()
    a = f8.gen
    assert not galois_inner_product([a], [f8.zero], 1)
    assert galois_inner_product([a], [a], 1) == a**3
    with pytest.raises(ValueError):
        galois_inner_product([a], [a, a], 1)


def test_p_power_code_identity_cases():
    _, C = _ex24_code()
    assert p_power_code(C, 0).rows == C.rows
    assert p_power_code(C, 3).rows == C.rows


def test_p_power_code_entries_match_ex24():
    f8, C = _ex24_code()
    a = f8.gen
    powered = p_power_code(C, 2)
    assert powered.generator()[0][2] == a**4
    assert powered.generator()[1][3] == a**4


def test_p_power_preserves_distance():
    rng = random.Random(9)
    f9 = make_field(3, 2)
    for _ in range(10):
        C = _random_code(rng, f9, 2, 5)
        for j in (1, 2, 3):
            assert min_distance(C).d == min_distance(p_power_code(C, j)).d


def test_galois_dual_trivial_cases():
    f2 = make_field(2, 1)
    full = LinearCode(f2, [[1, 0], [0, 1]])
    assert galois_dual(full, 0).dim == 0
    rep = LinearCode(f2, [[1, 1]])
    drep = galois_dual(rep, 0)
    assert drep.rows == ((1, 1),)


def test_galois_dual_dimension_sum_and_pairing():
    rng = random.Random(23)
    for pe in [(2, 2), (3, 2), (5, 1)]:
        field = make_field(*pe)
        for _ in range(8):
            l, n = rng.randrange(1, 4), rng.randrange(3, 6)
            l = min(l, n)
            C = _random_code(rng, field, l, n)
            for k in range(field.e):
                D = galois_dual(C, k)
                assert C.dim + D.dim == C.n
                for crow in C.generator():
                    for drow in D.generator():
                        assert not galois_inner_product(crow, drow, k)


def test_double_dual_returns_the_code_at_matched_parameter():
    rng = random.Random(31)
    for pe in [(2, 2), (3, 2), (2, 3)]:
        field = make_field(*pe)
        for _ in range(6):
            C = _random_code(rng, field, 2, 5)
            for k in range(field.e):
                kk = (field.e - k) % field.e
                DD = galois_dual(galois_dual(C, k), kk)
                assert linalg.same_row_space(field, DD.codes_matrix(), C.codes_matrix())


def test_is_galois_lcd_examples():
    f8, C = _ex24_code()
    chk = is_galois_lcd(C, 1)
    assert chk.lcd and chk.det == f8.gen
    f2 = make_field(2, 1)
    eye = LinearCode(f2, [[1, 0, 0], [0, 1, 0]])
    assert is_galois_lcd(eye, 0).lcd
    rep = LinearCode(f2, [[1, 1]])
    assert not is_galois_lcd(rep, 0).lcd


def test_is_galois_lcd_agrees_with_intersection_oracle():
    rng = random.Random(1234)
    fields = [make_field(2, 1), make_field(3, 1), make_field(2, 2),
              make_field(5, 1), make_field(7, 1), make_field(3, 2), make_field(2, 3)]
    checked = 0
    while checked < 1000:
        field = rng.choice(fields)
        n = rng.randrange(2, 7)
        l = rng.randrange(1, n + 1)
        C = _random_code(rng, field, l, n)
        k = rng.randrange(field.e)
        assert is_galois_lcd(C, k).lcd == (hull_dim(C, k) == 0)
        checked += 1


def test_hull_oracle_against_literal_enumeration():
    rng = random.Random(77)
    f3 = make_field(3, 1)
    for _ in range(20):
        C = _random_code(rng, f3, 2, 4)
        D = galois_dual(C, 0)
        assert literal_intersection_dim(f3, C, D) == hull_dim(C, 0)


def test_extend_lcd_repetition_codes():
    f2 = make_field(2, 1)
    rep = LinearCode(f2, [[1, 1]])
    ext = extend_lcd(rep, 0, "char2")
    assert ext.rows == ((1, 1, 1),)
    prm = min_distance(ext)
    assert (ext.n, ext.dim, prm.d) == (3, 1, 3)
    assert is_galois_lcd(ext, 0).lcd

    f5 = make_field(5, 1)
    c5 = LinearCode(f5, [[1, 1]])
    ext5 = extend_lcd(c5, 0, "pmod4")
    assert ext5.rows == ((1, 1, 2),)
    assert is_galois_lcd(ext5, 0).lcd


def test_extend_lcd_identity_input():
    f2 = make_field(2, 1)
    eye = LinearCode(f2, [[1, 0], [0, 1]])
    ext = extend_lcd(eye, 0, "char2")
    assert ext.rows == eye.rows and ext.n == 2
    assert is_galois_lcd(ext, 0).lcd


def test_extend_lcd_validation():
    f3 = make_field(3, 1)
    c = LinearCode(f3, [[1, 1]])
    with pytest.raises(ValueError):
        extend_lcd(c, 0, "char2")  # wrong characteristic
    with pytest.raises(ValueError):
        extend_lcd(c, 0, "pmod4")  # 3 = 3 mod 4
    f2 = make_field(2, 1)
    bad = LinearCode(f2, [[0, 1, 1]])
    with pytest.raises(ValueError):
        extend_lcd(bad, 0, "char2")  # not [I | A]
    with pytest.raises(ValueError):
        extend_lcd(LinearCode(f2, [[1, 1]]), 0, "nope")


def test_galois_inner_product_refuses_k_outside_0_to_e():
    f8, _ = _ex24_code()
    a = f8.gen
    for k in (3, 7, -1):  # 7 would read as k = 1
        with pytest.raises(ValueError, match="0 <= k < e"):
            galois_inner_product([a], [a], k)


def test_galois_dual_refuses_k_outside_0_to_e():
    f9 = make_field(3, 2)
    C = LinearCode(f9, [[1, 0, 1], [0, 1, 2]])
    for k in (2, -2):  # both would read as k = 0
        with pytest.raises(ValueError, match="0 <= k < e"):
            galois_dual(C, k)


def test_is_galois_lcd_refuses_k_outside_0_to_e():
    _, C = _ex24_code()
    for k in (3, -1):  # 3 would read as k = 0
        with pytest.raises(ValueError, match="0 <= k < e"):
            is_galois_lcd(C, k)
        with pytest.raises(ValueError, match="0 <= k < e"):
            linear.galois_gram(C, k)


def test_extend_lcd_refuses_k_outside_0_to_e():
    f2 = make_field(2, 1)
    rep = LinearCode(f2, [[1, 1]])
    for k in (1, 99, -1):
        with pytest.raises(ValueError, match="0 <= k < e"):
            extend_lcd(rep, k, "char2")


@pytest.mark.parametrize("k", [1.0, True])
def test_galois_functions_refuse_a_k_that_is_not_an_integer(k):
    f9 = make_field(3, 2)
    C = LinearCode(f9, [[1, 0, 1], [0, 1, 2]])
    calls = [
        lambda: galois_inner_product([f9.one], [f9.one], k),
        lambda: galois_dual(C, k),
        lambda: linear.galois_gram(C, k),
        lambda: extend_lcd(C, k, "char2"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="expected an integer"):
            call()


_HAMMING_DUAL = [[1, 0, 0, 1, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 0, 1, 1, 1]]


@pytest.mark.parametrize("strategy, budgets, name", [
    ("messages", {"budget_messages": -1}, "budget_messages"),
    ("supports", {"budget_supports": 2.5}, "budget_supports"),
    ("messages", {"budget_messages": True}, "budget_messages"),
    ("auto", {"budget_supports": "10"}, "budget_supports"),
    ("messages", {"budget_supports": "10"}, "budget_supports"),
])
def test_min_distance_refuses_a_budget_that_is_not_a_nonnegative_integer(strategy, budgets, name):
    G = LinearCode(make_field(2, 1), _HAMMING_DUAL)
    with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer"):
        min_distance(G, strategy, **budgets)


@pytest.mark.parametrize("bad", [2.0, True])
def test_linear_code_refuses_a_length_that_is_not_an_integer(bad):
    f3 = make_field(3, 1)
    with pytest.raises(ValueError, match=f"expected an integer, got {bad}"):
        LinearCode(f3, [], n=bad)
    with pytest.raises(ValueError, match=f"expected an integer, got {bad}"):
        LinearCode(f3, [[1, 2]], n=bad)
    assert type(LinearCode(f3, [], n=np.int64(2)).n) is int


@pytest.mark.parametrize("bad", [1.5, 2.0, True])
def test_min_distance_refuses_a_lower_bound_that_is_not_an_integer(bad):
    G = LinearCode(make_field(2, 1), _HAMMING_DUAL)
    with pytest.raises(ValueError, match=f"expected an integer, got {bad}"):
        min_distance(G, lower_bound=bad)


def test_min_distance_stores_a_numpy_lower_bound_as_an_int():
    G = LinearCode(make_field(2, 1), _HAMMING_DUAL)
    assert min_distance(G, lower_bound=np.int64(2)) == CodeParams(7, 3, 4, True)
    # auto's refusal is the whole [lower_bound, n - dim + 1]
    out = min_distance(G, lower_bound=np.int64(2), budget_messages=0, budget_supports=0)
    assert json.dumps(out.to_json()) == '{"n": 7, "dim": 3, "d": [2, 5], "exact": false, "mds": false}'


def test_min_distance_takes_zero_and_numpy_budgets():
    G = LinearCode(make_field(2, 1), _HAMMING_DUAL)
    # auto prices 119 supports for [7,3]: that budget fits it exactly
    assert str(min_distance(G, budget_messages=0, budget_supports=np.int64(119))) == "[7,3,4]"


def test_extend_lcd_gram_is_identity_and_distance_holds():
    rng = random.Random(5150)
    for pe, mode in [((2, 1), "char2"), ((2, 2), "char2"), ((5, 1), "pmod4"), ((13, 1), "pmod4")]:
        field = make_field(*pe)
        if mode == "pmod4":
            eta = sqrt_minus_one(field)
            assert eta * eta == -field.one
        for _ in range(8):
            n = rng.randrange(2, 5)
            l = rng.randrange(1, n + 1)
            a_block = [[field.from_code(rng.randrange(field.q)) for _ in range(n - l)]
                       for _ in range(l)]
            rows = [[field.one if i == j else field.zero for j in range(l)] + a_block[i]
                    for i in range(l)]
            C = LinearCode(field, rows)
            for k in range(field.e):
                ext = extend_lcd(C, k, mode)
                assert ext.n == 2 * n - l and ext.dim == l
                gram = matmul(
                    field, ext.codes_matrix(),
                    transpose(linalg.frobenius_matrix(
                        field, ext.codes_matrix(), field.e - k)))
                assert gram == linalg.identity(l)
                assert is_galois_lcd(ext, k).lcd
                assert min_distance(ext).d >= min_distance(C).d


def test_min_distance_identity_and_budget_edges():
    f7 = make_field(7, 1)
    eye = LinearCode(f7, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert min_distance(eye).d == 1
    with pytest.raises(ValueError):
        min_distance(LinearCode(f7, [], n=3))


def test_min_distance_ex24_both_strategies():
    _, C = _ex24_code()
    pm = min_distance(C, "messages")
    ps = min_distance(C, "supports")
    assert pm == ps == CodeParams(4, 2, 3, True)
    assert pm.mds


def test_min_distance_strategies_agree_on_random_corpus():
    rng = random.Random(99)
    cases = [(make_field(2, 1), 3, 7), (make_field(3, 1), 2, 6),
             (make_field(2, 2), 2, 6), (make_field(5, 1), 2, 5),
             (make_field(3, 2), 2, 5), (make_field(11, 1), 2, 4),
             (make_field(5, 4), 1, 4)]  # scalar fallback of the row kernels
    for field, l, n in cases:
        for _ in range(3):
            C = _random_code(rng, field, l, n)
            dm = min_distance(C, "messages").d
            ds = min_distance(C, "supports").d
            assert dm == ds == brute_min_distance(C)


def test_min_distance_budget_refusal_and_interval():
    f5 = make_field(5, 1)
    rng = random.Random(2)
    C = _random_code(rng, f5, 3, 6)
    with pytest.raises(BudgetExceeded):
        min_distance(C, "messages", budget_messages=10)
    out = min_distance(C, "auto", budget_messages=10, budget_supports=2)
    assert not out.exact
    lo, hi = out.d
    assert 1 <= lo <= hi == C.n - C.dim + 1
    assert not out.mds
    # GF(2^12) is above the table limit: messages are refused whatever the budget
    f4096 = make_field(2, 12)
    big = LinearCode(f4096, [[f4096.one, f4096.gen, f4096.one]])
    with pytest.raises(BudgetExceeded, match="too large for table-driven enumeration"):
        min_distance(big, "messages")
    assert min_distance(big, "auto", budget_supports=0) == CodeParams(3, 1, (1, 3), False)
    assert min_distance(big).d == 3


def test_supports_partial_scan_reports_a_valid_lower_bound():
    f2 = make_field(2, 1)
    # [7,1,7] repetition: supports needs to reach weight 7
    rep = LinearCode(f2, [[1] * 7])
    out = min_distance(rep, "supports", budget_supports=10)
    assert not out.exact and out.d[0] >= 2
    exact = min_distance(rep, "supports")
    assert exact.d == 7 and exact.mds


# GF(5^4) runs the row kernels' scalar fallback
@pytest.mark.parametrize("pe, l, n", [((2, 1), 3, 8), ((3, 1), 3, 7), ((2, 2), 2, 7),
                                      ((7, 1), 2, 6), ((5, 4), 1, 5)])
def test_support_search_counts_match_codeword_oracle(pe, l, n):
    field = make_field(*pe)
    rng = random.Random(f"supports-{pe}")
    for _ in range(4):
        C = _random_code(rng, field, l, n)
        d, tests = support_scan(C)
        assert _distance_supports(C, 10**9) == (d, tests)
        assert _distance_supports(C, tests - 1) == (None, d - 1)


@st.composite
def standard_form_codes(draw):
    """[I | A] with dim < n <= 10 over GF(2), GF(3), GF(4), GF(5) or GF(7), q^dim <= 1024."""
    field = make_field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])))
    n = draw(st.integers(2, 10))
    l = draw(st.integers(1, max(l for l in range(1, n) if l == 1 or field.q**l <= 1024)))
    a = draw(st.lists(st.integers(0, field.q - 1), min_size=l * (n - l), max_size=l * (n - l)))
    rows = [[int(i == j) for j in range(l)] + a[i * (n - l):(i + 1) * (n - l)] for i in range(l)]
    return LinearCode._trusted(field, rows, n)


@settings(max_examples=120, deadline=None)
@given(standard_form_codes(), st.integers(0, 300))
def test_support_walk_matches_both_oracles(C, budget):
    """(d, tests) from every valid bound, the refusal one test short, and any budget."""
    d, tests = support_scan(C)
    assert _distance_supports(C, 10**9) == (d, tests) == support_scan_echelon(C, 10**9)
    for bound in range(1, d + 1):
        found = support_scan_echelon(C, 10**9, bound)
        assert found[0] == d and _distance_supports(C, 10**9, bound) == found
        assert _distance_supports(C, found[1] - 1, bound) == (None, d - 1)
    assert _distance_supports(C, 10**9, d) == support_scan(C, d)
    # a bound above d: the lex-first dependent support of that weight
    for bound in range(d + 1, C.n - C.dim + 2):
        assert _distance_supports(C, 10**9, bound) == support_scan(C, bound)
    assert _distance_supports(C, budget) == support_scan_echelon(C, budget)


def test_support_walk_edge_cases():
    f3, f5 = make_field(3, 1), make_field(5, 1)
    # e_2 is a codeword: parity-check column 2 is zero
    zero_col = LinearCode(f3, [[0, 0, 1, 0], [1, 1, 0, 2]])
    assert _distance_supports(zero_col, 10**9) == (1, 3) == support_scan(zero_col)
    # the word (0, 1, 4, 0, 0): columns 1 and 2 are parallel, not equal
    parallel = LinearCode(f5, [[1, 0, 0, 2, 3], [0, 1, 4, 0, 0]])
    assert _distance_supports(parallel, 10**9) == support_scan(parallel) == support_scan_echelon(parallel, 10**9)
    assert _distance_supports(parallel, 10**9)[0] == 2
    assert _distance_supports(parallel, 10**9, 2) == support_scan(parallel, 2)
    # dim = n: no parity checks, every coordinate is a word
    full = LinearCode(f5, linalg.identity(3))
    assert _distance_supports(full, 10**9) == (1, 0) == support_scan_echelon(full, 10**9)
    # the shift at w = 2: supports (0, b) only, column 0 pivoted at the root
    g = LinearCode(f3, [[1, 0, 1, 0], [0, 1, 0, 1]])  # g, x*g for g = x^2 + 1 | x^4 - 1
    assert _distance_supports(g, 10**9, 2, True) == (2, 2) == support_scan(g, 2, shift=True)
    assert _distance_supports(g, 10**9, 1, True) == (2, 3) == support_scan(g, 1, shift=True)
    assert _distance_supports(g, 2, 1, True) == (None, 1)
    # a zero column past the budget, on the walk's last level
    assert _distance_supports(zero_col, 2) == (None, 0) == support_scan_echelon(zero_col, 2)
    # with shift, e_0 a word: column 0, the only head at w = 1, is zero
    e0 = LinearCode(f3, [[1, 0, 0], [0, 1, 1]])
    assert _distance_supports(e0, 1, 1, True) == (1, 1) == support_scan(e0, 1, shift=True)
    assert _distance_supports(e0, 0, 1, True) == (None, 0) == support_scan_echelon(e0, 0, 1, True)
    # with shift, e_3 a word: the third residual below column 0 at w = 2 is zero
    late = LinearCode(f3, [[1, 0, 1, 0, 1], [0, 0, 0, 1, 0]])
    assert _distance_supports(late, 10**9, 1, True) == (2, 4) == support_scan(late, 1, shift=True)
    assert _distance_supports(late, 3, 1, True) == (None, 1) == support_scan_echelon(late, 3, 1, True)


def _shifts(g, dim, n):
    """The rows x^i g(x), i < dim, of length n, on codes."""
    return [[0] * i + g + [0] * (n - i - len(g)) for i in range(dim)]


def _random_g(rng, field, m):
    """Codes of a random g of degree m with g(0) != 0, not necessarily monic."""
    inner = [rng.randrange(field.q) for _ in range(m - 1)]
    return [rng.randrange(1, field.q), *inner, rng.randrange(1, field.q)]


def _eliminations(monkeypatch):
    """The codes whose parity check support search eliminates, in order."""
    seen = []
    monkeypatch.setattr(linear, "euclidean_parity_check",
                        lambda C: seen.append(C) or euclidean_parity_check(C))
    return seen


def _assert_search_agrees(C, cols=None):
    """(d, tests) from every valid bound: C on cols (eliminated when None), C in
    systematic form and the codeword oracle."""
    S = systematic(C)
    d = support_scan(C)[0]
    for bound in range(1, d + 1):
        found = support_scan(C, bound)
        assert _distance_supports(C, 10**9, bound, False, cols) == _distance_supports(S, 10**9, bound) == found
        assert _distance_supports(C, found[1] - 1, bound, False, cols) == (None, d - 1)


@pytest.mark.parametrize("p, e", [(3, 1), (2, 2), (7, 1)])
def test_banded_generators_read_their_parity_check_off_row_0(p, e, monkeypatch):
    """Rows x^i g(x) for random g with g(0) != 0 and deg g = n - dim, which need not divide
    any x^n - lambda: nothing is eliminated, the columns are the eliminated ones, the shift
    is the oracle's, and the search on them agrees with the oracle and with the systematic form."""
    field = make_field(p, e)
    rng = random.Random(f"banded-{p}-{e}")
    eliminated = _eliminations(monkeypatch)
    for _ in range(12):
        m, dim = rng.randint(1, 5), rng.randint(1, 3)
        C = LinearCode(field, linalg.to_elements(field, _shifts(_random_g(rng, field, m), dim, m + dim)))
        eliminated.clear()
        powers, shift = _reverse_powers(C)
        cols = _parity_columns(C.n - C.dim, powers)
        assert not eliminated and cols == transpose(euclidean_parity_check(C))
        assert shift == constacyclic_shift(C)
        _assert_search_agrees(C, cols)


@pytest.mark.parametrize("p, e", [(3, 1), (2, 2), (7, 1)])
def test_near_banded_generators_are_eliminated(p, e):
    """Rows x^i g(x) with one entry changed, with g(0) = 0, or with deg g < n - dim give
    neither columns nor the shift: support search eliminates them, and still agrees with
    the oracle and with the systematic form."""
    field = make_field(p, e)
    rng = random.Random(f"near-banded-{p}-{e}")
    cases = 0
    while cases < 18:
        m, dim = rng.randint(1, 5), rng.randint(2, 3)
        g = _random_g(rng, field, m)
        if cases % 3 == 0:
            rows = _shifts(g, dim, m + dim)
            i, j = rng.randrange(dim), rng.randrange(m + dim)
            rows[i][j] = rng.choice([c for c in range(field.q) if c != rows[i][j]])
        elif cases % 3 == 1:
            rows = _shifts([0] + g[1:], dim, m + dim)
        else:
            rows = _shifts(g, dim, m + dim + rng.randint(1, 2))
        try:
            C = LinearCode(field, linalg.to_elements(field, rows))
        except ValueError:  # the changed entry made the rows dependent
            continue
        assert _reverse_powers(C) == (None, False) and not constacyclic_shift(C)
        _assert_search_agrees(C)
        cases += 1


@pytest.mark.parametrize("p, e", [(3, 1), (2, 2), (7, 1)])
def test_shift_read_off_banded_generators_matches_the_oracle(p, e):
    """Banded generators, constacyclic (the rows x^i g(x) of a stable code, scaled) and
    not (a random g): the shift read off the walk is the oracle's, (d, tests) on the walk's
    columns is the codeword oracle's with that shift, and min_distance is brute force."""
    field = make_field(p, e)
    rng = random.Random(f"shift-{p}-{e}")
    codes = []
    for n in (n for n in range(2, 9) if n % p):
        for _ in range(3):
            lam = field.from_code(rng.randrange(1, field.q))
            P = [x for c in _family(field, n, lam).cosets if rng.random() < 0.5 for x in c]
            C = code_from_defining_set(field, n, lam, P)
            if 0 < C.dim < n:
                c = rng.randrange(1, field.q)
                rows = [field.scale(c, row) for row in to_generator_matrix(C).rows]
                codes.append(LinearCode(field, linalg.to_elements(field, rows)))
        m, dim = rng.randint(1, 4), rng.randint(1, 3)
        codes.append(LinearCode(field, linalg.to_elements(field, _shifts(_random_g(rng, field, m), dim, m + dim))))
    shifts = []
    for G in codes:
        powers, shift = _reverse_powers(G)
        cols = _parity_columns(G.n - G.dim, powers)
        assert shift == constacyclic_shift(G)
        shifts.append(shift)
        assert _distance_supports(G, 10**9, 1, shift, cols) == support_scan(G, shift=shift)
        d = brute_min_distance(G)
        for strategy in ("auto", "messages", "supports"):
            assert min_distance(G, strategy).d == d
    assert any(shifts) and not all(shifts)


def test_columns_are_built_only_for_support_search(monkeypatch):
    """Every call reads the shift off the generator, but the parity-check columns are
    built only once support search is chosen: message enumeration and an unsearched
    interval never build them."""
    field = make_field(2, 1)
    G = to_generator_matrix(code_from_defining_set(field, 7, field.from_code(1), [1, 2, 4]))
    assert _reverse_powers(G)[1]
    built = []
    monkeypatch.setattr(linear, "_parity_columns", lambda m, powers: built.append(m) or _parity_columns(m, powers))
    assert min_distance(G, "messages") == CodeParams(7, 4, 3, True)
    assert min_distance(G, budget_messages=0, budget_supports=0) == CodeParams(7, 4, (1, 4), False)
    assert not built
    assert min_distance(G, "supports") == CodeParams(7, 4, 3, True) and built == [3]


def test_support_walk_stops_at_its_budget(monkeypatch):
    """A refused walk leaves the later nodes of its weight unvisited."""
    f2 = make_field(2, 1)
    rep = LinearCode(f2, [[1] * 40])  # [40, 1, 40]: 40 + 780 supports below weight 3
    calls = []
    reduce = linalg.reduce

    def counting_reduce(field, basis, vec):
        calls.append(1)
        return reduce(field, basis, vec)

    monkeypatch.setattr(linalg, "reduce", counting_reduce)
    # the weight-3 branch of column 0 covers 741 supports, more than the 10 left:
    # its 39 reductions and the parity check's, not the 779 of the whole weight
    assert _distance_supports(rep, 830) == (None, 2)
    assert len(calls) < 2 * rep.n


# (p, e, n, lambda as an integer): every code with 1 < q^dim <= 729
CHUNK_CONTEXTS = [(2, 1, 7, 1), (3, 1, 8, -1), (2, 2, 5, 1), (5, 1, 6, -1)]


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
def test_message_buffers_across_chunk_boundaries(chunk, monkeypatch):
    """Each chunk reuses the same buffers: partial last chunks and stops at the bound
    must see no words of an earlier chunk."""
    monkeypatch.setattr(linear, "_CHUNK", chunk)
    rng = random.Random(f"chunks-{chunk}")
    for pe, l, n in [((2, 1), 3, 7), ((3, 1), 2, 5), ((2, 2), 2, 6), ((5, 1), 3, 5)]:
        field = make_field(*pe)
        for _ in range(3):
            C = _random_code(rng, field, l, n)
            d = brute_min_distance(C)
            assert min_distance(C, "messages").d == d
            assert min_distance(C, "messages", lower_bound=d).d == d
    for p, e, n, lam in CHUNK_CONTEXTS:
        field = make_field(p, e)
        lam = field.from_int(lam)
        cosets_ = _family(field, n, lam).cosets
        for take in product((False, True), repeat=len(cosets_)):
            C = code_from_defining_set(field, n, lam, [x for t, c in zip(take, cosets_) if t for x in c])
            if not 1 < field.q**C.dim <= 729:
                continue
            G = to_generator_matrix(C)
            d = brute_min_distance(G)
            for bound in (1, bch_lower_bound(C.P), d):
                assert min_distance(G, "messages", lower_bound=bound).d == d


def _in_standard_form(C):
    return all(row[:C.dim] == tuple(int(i == j) for j in range(C.dim)) for i, row in enumerate(C.rows))


# ((p, e), dim, n) with q^dim <= 729, so brute force stays quick
PROJECTIVE_SHAPES = [((2, 1), 5, 9), ((3, 1), 4, 8), ((2, 2), 3, 7), ((5, 1), 3, 6),
                     ((7, 1), 3, 6), ((2, 3), 2, 6), ((3, 2), 3, 6)]


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7])
def test_projective_walk_matches_the_full_walk(chunk, monkeypatch):
    """One message per line finds the d of all q^dim messages, from every valid
    bound, with chunks that end inside and at the edges of the [q^i, 2 q^i) blocks."""
    monkeypatch.setattr(linear, "_CHUNK", chunk)
    rng = random.Random(f"projective-{chunk}")
    for pe, l, n in PROJECTIVE_SHAPES:
        field = make_field(*pe)
        for _ in range(3):
            C = _random_code(rng, field, l, n)
            while _in_standard_form(C):
                C = _random_code(rng, field, l, n)
            d = brute_min_distance(C)
            assert full_message_walk(C) == full_message_walk(C, chunk=chunk) == d
            for bound in range(1, d + 1):
                assert full_message_walk(C, bound, chunk) == d
                assert _distance_messages(C, bound, False) == d
                assert min_distance(C, "messages", lower_bound=bound) == CodeParams(n, l, d, True)


def test_auto_prices_messages_by_the_projective_walk(monkeypatch):
    """A bare GF(9) [12,4] code walks 820 messages, fewer than its 4016
    supports, which are fewer than its 6561 messages: auto runs messages."""
    field = make_field(3, 2)
    C = _random_code(random.Random(12), field, 4, 12)
    walked = (field.q**C.dim - 1) // (field.q - 1)
    assert walked == 820 < _support_cost(C.n, C.dim, 1, False) == 4016 < field.q**C.dim
    ran = []

    def recording(name, engine):
        def run(*args, **kwargs):
            ran.append(name)
            return engine(*args, **kwargs)
        return run

    monkeypatch.setattr(linear, "_distance_messages", recording("messages", _distance_messages))
    monkeypatch.setattr(linear, "_distance_supports", recording("supports", _distance_supports))
    assert min_distance(C) == min_distance(C, "supports")
    assert ran == ["messages", "supports"]
    # the budget still bounds q^dim, so 820 <= budget < 6561 leaves only supports
    ran.clear()
    assert min_distance(C, budget_messages=6560) == min_distance(C)
    assert ran == ["supports", "messages"]


def test_min_distance_hints_are_validated():
    f3 = make_field(3, 1)
    C = LinearCode(f3, [[1, 0, 1, 0], [0, 1, 0, 1]])  # g, x*g for g = x^2 + 1 | x^4 - 1
    assert min_distance(C, "messages", lower_bound=2).d == 2
    for bound in (0, -1, C.n - C.dim + 2):
        for strategy in ("auto", "messages", "supports"):
            with pytest.raises(ValueError, match="lower_bound"):
                min_distance(C, strategy, lower_bound=bound)
    eight = [[1, 2, 1, 0, 0, 0, 0, 0], [1, 1, 2, 1, 0, 0, 0, 0], [0, 0, 1, 2, 1, 0, 0, 0]]
    assert str(min_distance(LinearCode(f3, eight), "supports")) == "[8,3,2]"


@st.composite
def _distance_cases(draw):
    """A small code over GF(2), GF(3), GF(4) or GF(5) and its hints: a bare
    random code, or a constacyclic code's rows x^i g(x) with its BCH bound."""
    field = make_field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)])))
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        dim = draw(st.integers(1, n).filter(lambda l: field.q**l <= 4096))
        return _random_code(random.Random(draw(st.integers(0, 10**6))), field, dim, n), {}
    n = draw(st.integers(1, 10).filter(lambda n: n % field.p))
    lam = field.from_code(draw(st.integers(1, field.q - 1)))
    cosets_ = _family(field, n, lam).cosets
    take = draw(st.lists(st.booleans(), min_size=len(cosets_), max_size=len(cosets_)))
    C = code_from_defining_set(field, n, lam, [x for t, c in zip(take, cosets_) if t for x in c])
    assume(C.dim > 0 and field.q**C.dim <= 4096)
    return to_generator_matrix(C), {"lower_bound": bch_lower_bound(C.P)}


@settings(max_examples=150, deadline=None)
@given(_distance_cases(), st.integers(2, 60))
def test_min_distance_decision_table(case, small):
    """Every strategy under budgets 0, 1, small and default: exact and equal to
    brute force whenever the chosen engine fits, BudgetExceeded only from
    explicit "messages", and every interval from "auto" is the whole
    [lower_bound, n - dim + 1].  "auto" is also exact when lower_bound is
    n - dim + 1, since the two bounds then prove d."""
    C, hints = case
    d = brute_min_distance(C)
    lb, shift = hints.get("lower_bound", 1), constacyclic_shift(C)
    top = C.n - C.dim + 1
    msg_cost = C.field.q ** (C.dim - shift)
    sup_cost = sum(comb(C.n - 1, w - 1) if shift else comb(C.n, w) for w in range(lb, top + 1))
    budgets = (0, 1, small, None)
    for strategy, bm, bs in product(("auto", "messages", "supports"), budgets, budgets):
        kw = dict(hints)
        if bm is not None:
            kw["budget_messages"] = bm
        if bs is not None:
            kw["budget_supports"] = bs
        msg_fits = msg_cost <= kw.get("budget_messages", linear.DEFAULT_MESSAGE_BUDGET)
        sup_fits = sup_cost <= kw.get("budget_supports", linear.DEFAULT_SUPPORT_BUDGET)
        fits = {"messages": msg_fits, "supports": sup_fits, "auto": msg_fits or sup_fits or lb == top}[strategy]
        try:
            prm = min_distance(C, strategy, **kw)
        except BudgetExceeded:
            assert strategy == "messages" and not msg_fits
            continue
        assert (prm.n, prm.dim) == (C.n, C.dim)
        # a partial scan of explicit "supports" may still end on d
        assert prm.exact == fits or (strategy == "supports" and not fits)
        if prm.exact:
            assert prm.d == d
        elif strategy == "auto":
            assert prm.d == (lb, top)
        else:
            assert strategy == "supports" and lb <= prm.d[0] <= d and prm.d[1] == top


def test_explicit_supports_out_of_budget_at_the_singleton_bound_is_exact():
    """A supports scan whose budget runs out after clearing every weight below
    n - dim + 1 has proven d = n - dim + 1; one weight short it stays an interval."""
    f9 = make_field(3, 2)
    C = to_generator_matrix(code_from_defining_set(f9, 4, f9.one, (1,), k=1))
    assert min_distance(C, "supports", budget_supports=0, lower_bound=2) == CodeParams(4, 3, 2, True)
    assert min_distance(C, "supports", budget_supports=0) == CodeParams(4, 3, (1, 2), False)
    assert brute_min_distance(C) == 2


def test_auto_out_of_budget_with_the_bound_at_the_singleton_bound_is_exact():
    """With neither engine in budget, "auto" returns d exact when lower_bound is
    n - dim + 1, and the whole interval one weight below it."""
    f9 = make_field(3, 2)
    C = to_generator_matrix(code_from_defining_set(f9, 4, f9.one, (1,), k=1))
    none = dict(budget_messages=0, budget_supports=0)
    assert min_distance(C, "auto", lower_bound=2, **none) == CodeParams(4, 3, 2, True)
    assert min_distance(C, "auto", lower_bound=1, **none) == CodeParams(4, 3, (1, 2), False)
    assert brute_min_distance(C) == 2


def test_code_params_validation():
    with pytest.raises(ValueError):
        CodeParams(4, 2, 4, True)  # violates Singleton
    with pytest.raises(ValueError):
        CodeParams(4, 2, (1, 3), True)  # interval cannot be exact
    with pytest.raises(ValueError, match="integer distance"):
        CodeParams(4, 2, True, True)
    prm = CodeParams(4, 2, (1, 3), False)
    assert prm.to_json()["d"] == [1, 3]
    # an interval needs integer ends with 1 <= lo <= hi; lo == hi stays legal
    assert str(CodeParams(7, 4, (4, 4), False)) == "[7,4,4..4]"
    for d in [(5, 3), (0, 2), (1.0, 3), (1, 3.0), (True, 3), (1, 2, 3), [1, 3], 2]:
        with pytest.raises(ValueError, match="inexact distance"):
            CodeParams(7, 4, d, False)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_min_distance_messages_equals_brute_force(seed, n):
    rng = random.Random(seed)
    f4 = make_field(2, 2)
    C = _random_code(rng, f4, 2, n)
    assert min_distance(C, "messages").d == brute_min_distance(C)


def test_trusted_results_equal_validated_codes():
    """Codes built without checks equal the same rows through LinearCode(...)."""
    from galcd.constacyclic import code_from_defining_set, to_generator_matrix

    def assert_valid(C):
        assert LinearCode(C.field, C.generator(), C.n) == C

    rng = random.Random(77)
    for pe, mode in [((2, 2), "char2"), ((5, 2), "pmod4")]:
        field = make_field(*pe)
        for l, n in [(1, 3), (2, 5), (3, 3)]:
            a_block = [[field.from_code(rng.randrange(field.q)) for _ in range(n - l)]
                       for _ in range(l)]
            C = LinearCode(field, [[field.one if i == j else field.zero for j in range(l)]
                                   + a_block[i] for i in range(l)])
            assert_valid(extend_lcd(C, 1, mode))
            for j in range(field.e + 1):
                assert_valid(p_power_code(C, j))
            for k in range(field.e):
                assert_valid(galois_dual(C, k))
    f121 = make_field(11, 2)
    for P in [(), (4, 5, 6), (1, 2, 3, 4, 5, 6, 7, 8, 9)]:
        assert_valid(to_generator_matrix(code_from_defining_set(f121, 10, f121.one, P, k=1)))
