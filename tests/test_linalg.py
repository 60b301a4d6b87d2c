import random
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galcd import linalg
from galcd.fields import make_field
from galcd.linear import LinearCode, galois_gram, is_galois_lcd
from oracles import matmul, rref_same_row_space, rref_top_down, transpose


def _random_matrix(rng, field, m, n):
    return [[rng.randrange(field.q) for _ in range(n)] for _ in range(m)]


def _brute_det(field, mat):
    n = len(mat)
    add, mul, neg = field.add_codes, field.mul_codes, field.neg_code
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        term = 1
        for i in range(n):
            term = mul(term, mat[i][perm[i]])
        if inv % 2:
            term = neg(term)
        total = add(total, term)
    return total


def _row_space_size(field, mat):
    vectors = {tuple([0] * len(mat[0]))} if mat else set()
    add, mul = field.add_codes, field.mul_codes
    for coeffs in product(range(field.q), repeat=len(mat)):
        word = [0] * len(mat[0])
        for c, row in zip(coeffs, mat):
            if c:
                for j, x in enumerate(row):
                    word[j] = add(word[j], mul(c, x))
        vectors.add(tuple(word))
    return len(vectors)


# GF(5^4) runs the row kernels' scalar fallback, GF(2^20) has no tables at all.
@pytest.mark.parametrize("pe", [(2, 1), (3, 1), (2, 2), (3, 2), (7, 1), (5, 4), (2, 20)])
def test_det_matches_permanent_expansion(pe):
    field = make_field(*pe)
    rng = random.Random(41)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            mat = _random_matrix(rng, field, n, n)
            assert linalg.det(field, mat) == _brute_det(field, mat)


@pytest.mark.parametrize("pe", [(2, 1), (3, 1), (2, 2), (5, 1), (5, 4)])
def test_rank_matches_row_space_size(pe):
    field = make_field(*pe)
    rng = random.Random(17)
    for m, n in [(1, 3), (2, 3), (3, 4), (2, 2)]:
        if field.q**m > 10**4:
            continue  # the oracle walks all q^m combinations of the rows
        for _ in range(15):
            mat = _random_matrix(rng, field, m, n)
            r = linalg.rank(field, mat)
            assert field.q**r == _row_space_size(field, mat)


def test_rref_is_canonical_and_idempotent():
    rng = random.Random(5)
    for pe in [(3, 2), (7, 1), (5, 4), (2, 20)]:
        field = make_field(*pe)
        for _ in range(30):
            mat = _random_matrix(rng, field, 3, 5)
            r1, piv = linalg.rref(field, mat)
            r2, _ = linalg.rref(field, r1)
            assert r1 == r2
            for row_idx, c in enumerate(piv):
                assert r1[row_idx][c] == 1
                assert all(r1[i][c] == 0 for i in range(len(r1)) if i != row_idx)


def _rank_deficient_matrix(rng, field, m, n, r):
    """An m x n matrix of rank at most r: m random combinations of r random rows."""
    rows = _random_matrix(rng, field, r, n)
    return matmul(field, _random_matrix(rng, field, m, r), rows)


@pytest.mark.parametrize("pe", [(2, 1), (3, 1), (2, 2), (3, 2), (7, 2), (3, 7)])
def test_bottom_up_rref_equals_the_top_down_oracle(pe):
    # GF(3^7) has no row lists: its kernels take the scalar path
    field = make_field(*pe)
    rng = random.Random(1000 * pe[0] + pe[1])
    for _ in range(25):
        m, n = rng.randrange(1, 8), rng.randrange(1, 10)
        mats = [
            _random_matrix(rng, field, m, n),                                # full rank, mostly
            _rank_deficient_matrix(rng, field, m, n, rng.randrange(1, m + 1)),
            _random_matrix(rng, field, n + rng.randrange(1, 4), n),          # more rows than columns
        ]
        zeroed = _random_matrix(rng, field, m, n)
        for i in rng.sample(range(m), rng.randrange(1, m + 1)):
            zeroed[i] = [0] * n
        mats.append(zeroed)
        # sparse rows put leads out of order and leave entries at later leads
        mats.append([[x if rng.random() < 0.3 else 0 for x in row] for row in _random_matrix(rng, field, m, n)])
        for mat in mats:
            assert linalg.rref(field, mat) == rref_top_down(field, mat), mat


def test_nullspace_annihilates_and_has_complementary_dim():
    rng = random.Random(11)
    for pe in [(2, 1), (3, 1), (3, 2), (5, 1), (5, 4), (2, 20)]:
        field = make_field(*pe)
        for m, n in [(2, 5), (3, 4), (1, 3)]:
            mat = _random_matrix(rng, field, m, n)
            ns = linalg.nullspace(field, mat, width=n)
            assert len(ns) == n - linalg.rank(field, mat)
            if ns:
                assert linalg.rank(field, ns) == len(ns)
            for vec in ns:
                prod = matmul(field, mat, transpose([vec]))
                assert all(x == [0] for x in prod)


def test_nullspace_of_empty_matrix_is_identity():
    field = make_field(2, 1)
    assert linalg.nullspace(field, [], width=3) == linalg.identity(3)


def test_matmul_matches_manual():
    f4 = make_field(2, 2)
    a = [[2, 1], [0, 3]]
    b = [[1, 0], [2, 2]]
    out = matmul(f4, a, b)
    mul, add = f4.mul_codes, f4.add_codes
    expect = [
        [add(mul(2, 1), mul(1, 2)), add(mul(2, 0), mul(1, 2))],
        [add(0, mul(3, 2)), add(0, mul(3, 2))],
    ]
    assert out == expect


def test_same_row_space():
    field = make_field(5, 1)
    a = [[1, 2, 3], [0, 1, 4]]
    b = [[1, 0, 0], [0, 1, 0]]
    scaled = [[2, 4, 1], [0, 2, 3]]
    assert linalg.same_row_space(field, a, scaled)
    assert not linalg.same_row_space(field, a, b)
    assert linalg.same_row_space(field, [], [])
    zero = [[0, 0, 0]]
    assert linalg.same_row_space(field, zero, [])
    assert linalg.same_row_space(field, [], zero + zero)
    assert linalg.same_row_space(field, a + zero, scaled)
    assert not linalg.same_row_space(field, a, [])
    assert not linalg.same_row_space(field, [], a)
    assert not linalg.same_row_space(field, zero, a)
    # a strict subspace either way round, and a same-rank space that differs
    assert not linalg.same_row_space(field, a, a[:1])
    assert not linalg.same_row_space(field, a[:1], a)
    assert not linalg.same_row_space(field, a[:1], [[0, 1, 4]])
    # seeded pairs against the comparison of the two reduced echelon forms
    rng = random.Random(23)
    for pe in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]:
        field = make_field(*pe)
        for _ in range(60):
            n = rng.randrange(1, 6)
            a = _random_matrix(rng, field, rng.randrange(0, 5), n)
            # b: random combinations of a's rows (its space or a subspace), or unrelated rows
            if a and rng.random() < 0.7:
                b = matmul(field, _random_matrix(rng, field, rng.randrange(1, 6), len(a)), a)
            else:
                b = _random_matrix(rng, field, rng.randrange(0, 5), n)
            for x, y in ((a, b), (b, a), (a, a), (b, b)):
                assert linalg.same_row_space(field, x, y) == rref_same_row_space(field, x, y), (pe, x, y)


def test_det_multiplicative():
    rng = random.Random(3)
    for pe in [(3, 2), (7, 1), (5, 4), (2, 20)]:
        field = make_field(*pe)
        for _ in range(20):
            a = _random_matrix(rng, field, 3, 3)
            b = _random_matrix(rng, field, 3, 3)
            ab = matmul(field, a, b)
            assert linalg.det(field, ab) == field.mul_codes(
                linalg.det(field, a), linalg.det(field, b))


# one field per arithmetic regime: row lists (q <= 600), log tables (q <= 2^16), packed products
ROW_LISTS, LOG_TABLES, PACKED = [(3, 2), (7, 2)], [(11, 3), (7, 4)], [(5, 12), (257, 2)]


def _sparse_matrix(rng, field, m, n):
    """Random entries, about a third of them 0, and now and then a zero row."""
    return [[0] * n if rng.random() < 0.1 else
            [rng.randrange(1, field.q) if rng.random() < 0.65 else 0 for _ in range(n)]
            for _ in range(m)]


@pytest.mark.parametrize("pe", ROW_LISTS + LOG_TABLES + PACKED)
def test_dots_and_mul_transpose_match_matmul_in_every_regime(pe):
    field = make_field(*pe)
    field.mul_codes(1, 1)  # the first product builds the log tables of 600 < q <= 2^16
    regime = "rows" if field._add is not None else "logs" if field._exp is not None else "packed"
    assert regime == ("rows" if pe in ROW_LISTS else "logs" if pe in LOG_TABLES else "packed")
    rng = random.Random(pe[0] * 100 + pe[1])
    for _ in range(20):
        m, r, n = rng.randrange(0, 5), rng.randrange(0, 5), rng.randrange(1, 8)
        a, b = _sparse_matrix(rng, field, m, n), _sparse_matrix(rng, field, r, n)
        expect = matmul(field, a, transpose(b))
        assert linalg.mul_transpose(field, a, b) == expect
        for xs, row in zip(a, expect):
            assert field.dots(xs, b) == row
    assert field.dots([0, 0, 0], [[1, 2, 3]]) == [0]
    assert field.dots([1, 2, 3], [[0, 0, 0], [1, 0, 0]]) == [0, 1]
    assert field.dots([], [[], []]) == [0, 0] and field.dots([1, 1], []) == []
    assert linalg.mul_transpose(field, [], [[1, 2]]) == []


@pytest.mark.parametrize("pe", ROW_LISTS + LOG_TABLES + PACKED)
def test_the_gram_of_a_zero_dimension_code_is_empty_with_determinant_1(pe):
    field = make_field(*pe)
    C = LinearCode(field, [], n=3)
    for k in range(field.e):
        assert galois_gram(C, k) == [] and linalg.det(field, []) == 1
        check = is_galois_lcd(C, k)
        assert check.lcd and check.det == field.one


def _elimination_count(field, mat):
    return sum(1 for lead, _, _ in linalg.echelon(field, mat) if lead is not None)


@st.composite
def rank_matrices(draw):
    """Rows from five sources: random, zero, a copy of an earlier row, and rows whose
    first (or last) nonzero column is drawn without repeats, so some matrices take
    rank's shortcut and others fall just short of it."""
    field = make_field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (11, 3), (5, 12)])))
    n = draw(st.integers(1, 7))
    entries = st.integers(0, field.q - 1)
    ends = iter(draw(st.permutations(range(n))))
    rows = []
    for kind in draw(st.lists(st.sampled_from("rzdfl"), max_size=n + 2)):
        if kind == "r" or (kind == "d" and not rows):
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
        elif kind == "z":
            rows.append([0] * n)
        elif kind == "d":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            end = next(ends, None)
            if end is None:
                continue
            row = draw(st.lists(entries, min_size=n, max_size=n))
            row[end] = draw(st.integers(1, field.q - 1))
            zeros = range(end) if kind == "f" else range(end + 1, n)
            rows.append([0 if i in zeros else x for i, x in enumerate(row)])
    return field, rows


@settings(max_examples=300, deadline=None)
@given(rank_matrices())
@example((make_field(3, 1), [[1, 2, 0], [0, 1, 1], [0, 0, 2]]))   # distinct first columns
@example((make_field(3, 1), [[1, 0, 0], [2, 1, 0], [1, 1, 1]]))   # distinct last columns
@example((make_field(3, 1), [[1, 2, 0], [2, 1, 0], [0, 0, 1]]))   # neither: rank 2
@example((make_field(3, 1), [[1, 2, 0], [0, 0, 0], [0, 0, 1]]))   # a zero row
@example((make_field(3, 1), []))
def test_rank_equals_the_elimination_count(case):
    field, mat = case
    assert linalg.rank(field, mat) == _elimination_count(field, mat)


def _shifts(g, n):
    """The rows x^i * g for i = 0 .. n - len(g), as a constacyclic generator matrix lays them out."""
    return [[0] * i + g + [0] * (n - len(g) - i) for i in range(n - len(g) + 1)]


@pytest.mark.parametrize("pe", [(2, 1), (3, 1), (3, 2), (7, 2), (11, 3), (5, 12)])
def test_same_row_space_matches_comparing_rrefs_on_nullspace_pairs(pe):
    # a against nullspace(nullspace(a)), whose rows are reduced at their free
    # columns read right to left; shifted rows as in a generator matrix; and
    # one changed entry that leaves the row space
    field = make_field(*pe)
    rng = random.Random(7 * pe[0] + pe[1])
    for _ in range(25):
        n = rng.randrange(1, 9)
        g = [rng.randrange(1, field.q)] + [rng.randrange(field.q) for _ in range(rng.randrange(0, n))]
        for a in (_sparse_matrix(rng, field, rng.randrange(0, n + 1), n), _shifts(g, n)):
            h = linalg.nullspace(field, linalg.nullspace(field, a, width=n), width=n) if a else []
            pairs = [(a, h), (h, a), (a, a)]
            if h:
                changed = [list(row) for row in h]
                changed[0][rng.randrange(n)] = rng.randrange(field.q)
                pairs += [(a, changed), (changed, a)]
            for x, y in pairs:
                assert linalg.same_row_space(field, x, y) == rref_same_row_space(field, x, y), (pe, x, y)


@pytest.mark.parametrize("pe", [(2, 1), (3, 2), (7, 2), (11, 3), (5, 12)])
def test_nullspace_rows_read_off_the_top_down_rref(pe):
    # the row of free column f: 1 at f, minus the reduced rows' entries at f on the pivots
    field = make_field(*pe)
    rng = random.Random(31 * pe[0] + pe[1])
    for _ in range(25):
        n = rng.randrange(1, 9)
        mat = _sparse_matrix(rng, field, rng.randrange(1, n + 2), n)
        r, pivots = rref_top_down(field, mat)
        expect = []
        for fc in (c for c in range(n) if c not in pivots):
            vec = [0] * n
            vec[fc] = 1
            for row, pc in zip(r, pivots):
                vec[pc] = field.neg_code(row[fc])
            expect.append(vec)
        assert linalg.nullspace(field, mat, width=n) == expect, (pe, mat)
