import json
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galcd.cosets import (
    CosetContext,
    DefiningSet,
    act_scale,
    all_lcd_exponent,
    bch_lower_bound,
    coset_of,
    cyclotomic_cosets,
    dual_defining_set,
    enumerate_stable_sets,
    frame_preserved,
    hermitian_necessary_check,
    is_lcd_defining_set,
    lcd_closure,
    multiplier_orbit_key,
    multipliers,
    q1_fixed_test,
    stable_orbit_census,
    tau,
    tau_cycles,
    unique_order2_unit,
    with_k,
)
from galcd.fields import is_prime
from oracles import census_readings, fixpoint_closure

CTX_314 = CosetContext(p=5, e=3, k=1, n=13, r=2)
CTX_38 = CosetContext(p=11, e=3, k=1, n=5, r=2)
CTX_315 = CosetContext(p=13, e=3, k=2, n=9, r=2)
CTX_45 = CosetContext(p=11, e=2, k=1, n=10, r=1)
CTX_RN1 = CosetContext(p=3, e=2, k=1, n=1, r=1)


def _small_contexts():
    """A deterministic sweep of valid contexts with rn <= 40."""
    out = []
    for p in (3, 5, 7, 11, 13):
        for e in (1, 2, 3):
            q = p**e
            for r in sorted(set(d for d in range(1, 41) if (q - 1) % d == 0)):
                for n in range(1, 40 // r + 1):
                    if math.gcd(n, p) != 1:
                        continue
                    for k in range(e):
                        out.append(CosetContext(p=p, e=e, k=k, n=n, r=r))
    return out


SMALL_CONTEXTS = _small_contexts()


def _frame_contexts():
    """p <= 7, q <= 300, rn <= 60: every context whose -p^k action keeps the exponent set."""
    out = []
    for p in (2, 3, 5, 7):
        for e in range(1, 9):
            q = p**e
            if q > 300:
                break
            for r in (d for d in range(1, 61) if (q - 1) % d == 0):
                for n in (n for n in range(1, 60 // r + 1) if math.gcd(n, p) == 1):
                    for k in range(e):
                        ctx = CosetContext(p=p, e=e, k=k, n=n, r=r)
                        if frame_preserved(ctx):
                            out.append(ctx)
    return out


FRAME_CONTEXTS = _frame_contexts()


def test_context_validation():
    with pytest.raises(ValueError):
        CosetContext(p=4, e=1, k=0, n=3, r=1)
    with pytest.raises(ValueError):
        CosetContext(p=3, e=2, k=2, n=4, r=1)
    with pytest.raises(ValueError):
        CosetContext(p=3, e=2, k=0, n=6, r=1)  # gcd(n, p) != 1
    with pytest.raises(ValueError):
        CosetContext(p=3, e=2, k=0, n=5, r=3)  # 3 does not divide 8


def test_cyclotomic_cosets_recorded_examples():
    assert cyclotomic_cosets(CTX_314) == (
        (1, 5, 21, 25), (3, 11, 15, 23), (7, 9, 17, 19), (13,))
    assert cyclotomic_cosets(CTX_38) == ((1,), (3,), (5,), (7,), (9,))
    assert cyclotomic_cosets(CTX_45) == tuple((i,) for i in range(10))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_CONTEXTS))
def test_cosets_partition_the_exponent_set(ctx):
    cs = cyclotomic_cosets(ctx)
    flat = [x for c in cs for x in c]
    assert sorted(flat) == list(ctx.exponent_set())
    assert len(set(flat)) == len(flat) == ctx.n
    for c in cs:
        assert c == coset_of(ctx, c[0])


def test_exponent_set_is_the_residues_one_mod_r_in_order():
    for r in range(1, 31):
        # a prime p = 1 mod r above 30 makes GF(p) a valid field for every n <= 30
        p = next(p for p in range(31, 10**4) if is_prime(p) and p % r == 1 % r)
        for n in range(1, 31):
            ctx = CosetContext(p=p, e=1, k=0, n=n, r=r)
            assert ctx.exponent_set() == tuple(sorted((1 + r * t) % (r * n) for t in range(n))), (r, n)


def test_act_scale_examples():
    assert act_scale((), 3, rn=10) == ()
    assert act_scale(DefiningSet(CTX_315, (1,)), 11) == (11,)
    assert act_scale(DefiningSet(CTX_38, (3, 5, 7)), 9) == (3, 5, 7)
    with pytest.raises(ValueError):
        act_scale((1,), 5, rn=10)  # not a unit
    with pytest.raises(ValueError):
        act_scale((1, 2), 3)  # missing rn


def test_defining_set_validation():
    with pytest.raises(ValueError):
        DefiningSet(CTX_314, (2,))  # not 1 mod 2
    with pytest.raises(ValueError):
        DefiningSet(CTX_314, (1,))  # not q-closed (coset is {1,5,21,25})
    ds = DefiningSet(CTX_314, (25, 1, 21, 5))
    assert ds.residues == (1, 5, 21, 25)
    assert ds.to_json() == {"rn": 26, "r": 2, "residues": [1, 5, 21, 25]}


def test_dual_defining_set_examples():
    empty = DefiningSet(CTX_38, ())
    full = DefiningSet(CTX_38, (1, 3, 5, 7, 9))
    assert dual_defining_set(empty).residues == (1, 3, 5, 7, 9)
    assert dual_defining_set(full).residues == ()
    P = DefiningSet(CTX_38, (3, 5, 7))
    assert dual_defining_set(P).residues == (1, 9)


def test_dual_defining_set_involution_and_size():
    for ctx in SMALL_CONTEXTS:
        if (1 + ctx.p ** (ctx.e - ctx.k)) % ctx.r != 0:
            continue
        cosets_here = cyclotomic_cosets(ctx)
        if len(cosets_here) > 6:
            continue
        for take in range(1 << len(cosets_here)):
            residues = tuple(sorted(
                x for i, c in enumerate(cosets_here) if take >> i & 1 for x in c))
            P = DefiningSet(ctx, residues)
            D = dual_defining_set(P)
            assert len(D) == ctx.n - len(P)
            assert dual_defining_set(D).residues == P.residues


def test_is_lcd_defining_set_examples():
    assert is_lcd_defining_set(DefiningSet(CTX_38, (3, 5, 7)))
    assert not is_lcd_defining_set(DefiningSet(CTX_38, (1,)))
    assert is_lcd_defining_set(DefiningSet(CTX_38, ()))


def test_all_lcd_exponent_examples():
    assert all_lcd_exponent(CTX_314) == 1
    assert all_lcd_exponent(CTX_315) is None
    assert all_lcd_exponent(CosetContext(p=7, e=1, k=0, n=2, r=1)) == 1  # rn = 2


def test_q1_fixed_examples():
    assert q1_fixed_test(CTX_314)
    assert not q1_fixed_test(CTX_315)
    assert q1_fixed_test(CosetContext(p=7, e=1, k=0, n=2, r=1))


def test_exponent_q1_and_exhaustive_lcd_agree_everywhere():
    for ctx in SMALL_CONTEXTS:
        via_exponent = all_lcd_exponent(ctx) is not None
        via_q1 = q1_fixed_test(ctx)
        s = ctx.minus_pk()
        all_cosets_fixed = all(
            tuple(act_scale(c, s, rn=ctx.rn)) == c for c in cyclotomic_cosets(ctx))
        assert via_exponent == via_q1 == all_cosets_fixed, ctx
        # literal exhaustive check over all q-closed sets when small
        cs = cyclotomic_cosets(ctx)
        if len(cs) <= 10:
            every = all(
                is_lcd_defining_set(DefiningSet(ctx, tuple(
                    x for i, c in enumerate(cs) if mask >> i & 1 for x in c)))
                for mask in range(1 << len(cs)))
            assert every == via_exponent, ctx


def test_single_coset_fixed_iff_annihilator_condition():
    # -p^k Q_s = Q_s iff s (1 + p^(e j - k)) = 0 mod rn for some j
    from galcd.fields import multiplicative_order
    for ctx in SMALL_CONTEXTS:
        if ctx.rn == 1:
            continue
        order = multiplicative_order(ctx.p % ctx.rn, ctx.rn)
        for coset in cyclotomic_cosets(ctx):
            s = coset[0]
            fixed = tuple(act_scale(coset, ctx.minus_pk(), rn=ctx.rn)) == coset
            cond = any(
                s * (1 + pow(ctx.p, ctx.e * j - ctx.k, ctx.rn)) % ctx.rn == 0
                for j in range(1, order + 1))
            assert fixed == cond, (ctx, s)


def test_coset_pair_stability_iff_scaling_condition():
    # P = Q_s U (-p^k Q_s) with -p^k Q_s != Q_s is stable iff
    # p^(2k) s = q^j s mod rn for some j
    from galcd.fields import multiplicative_order
    for ctx in SMALL_CONTEXTS:
        if ctx.rn == 1:
            continue
        order = multiplicative_order(ctx.q % ctx.rn, ctx.rn)
        for coset in cyclotomic_cosets(ctx):
            s = coset[0]
            image = act_scale(coset, ctx.minus_pk(), rn=ctx.rn)
            if tuple(image) == coset:
                continue
            union = tuple(sorted(set(coset) | set(image)))
            stable = act_scale(union, ctx.minus_pk(), rn=ctx.rn) == union
            cond = any(
                pow(ctx.p, 2 * ctx.k, ctx.rn) * s % ctx.rn == pow(ctx.q, j, ctx.rn) * s % ctx.rn
                for j in range(order))
            assert stable == cond, (ctx, s)


def test_minus_pek_preserves_exponent_set_when_r_divides():
    for ctx in SMALL_CONTEXTS:
        if (1 + ctx.p ** (ctx.e - ctx.k)) % ctx.r == 0:
            S = ctx.exponent_set()
            assert act_scale(S, ctx.minus_pek(), rn=ctx.rn) == S


def test_stability_under_minus_pk_matches_minus_pek():
    # for q-closed P these are equivalent since (-p^k)(-p^(e-k)) = q
    for ctx in SMALL_CONTEXTS[::7]:
        cs = cyclotomic_cosets(ctx)
        if len(cs) > 8:
            continue
        for mask in range(1 << len(cs)):
            residues = tuple(sorted(
                x for i, c in enumerate(cs) if mask >> i & 1 for x in c))
            a = act_scale(residues, ctx.minus_pk(), rn=ctx.rn) == residues
            b = act_scale(residues, ctx.minus_pek(), rn=ctx.rn) == residues
            assert a == b


def test_census_recorded_examples():
    c = stable_orbit_census(CTX_45)
    assert (c.t, c.h) == (2, 4) and c.count == 63
    c = stable_orbit_census(CTX_314)
    assert (c.t, c.h) == (4, 0) and c.count == 15
    c = stable_orbit_census(CTX_315)
    assert (c.t, c.h) == (1, 4)
    assert c.fixed == (9,)
    assert set(c.pairs) == {(1, 11), (13, 17), (7, 5), (3, 15)}
    assert not c.involutive


def test_tau_cycles_315():
    assert tau_cycles(CTX_315) == ((1, 11, 13, 17, 7, 5), (3, 15), (9,))


def test_enumerate_stable_sets_matches_literal_filter():
    for ctx in (CTX_38, CTX_314, CTX_315, CTX_45, CTX_RN1):
        cs = cyclotomic_cosets(ctx)
        literal = set()
        for mask in range(1 << len(cs)):
            residues = tuple(sorted(
                x for i, c in enumerate(cs) if mask >> i & 1 for x in c))
            if act_scale(residues, ctx.minus_pk(), rn=ctx.rn) == residues:
                literal.add(residues)
        enumerated = {P.residues for P in enumerate_stable_sets(ctx)}
        assert enumerated == literal


def test_bch_lower_bound_examples():
    assert bch_lower_bound(DefiningSet(CTX_38, ())) == 1
    assert bch_lower_bound(DefiningSet(CTX_38, (3, 5, 7))) == 4
    assert bch_lower_bound(DefiningSet(CTX_38, (1, 3, 5, 7))) == 5
    with pytest.raises(ValueError):
        bch_lower_bound(DefiningSet(CTX_38, (1, 3, 5, 7, 9)))


def test_bch_lower_bound_wraps_around():
    # indices 5,6,7,8 then 0,1,2,3 wrap to a run of 8 (Ex 3.15 P3)
    P = DefiningSet(CTX_315, (1, 3, 5, 7, 11, 13, 15, 17))
    assert bch_lower_bound(P) == 9


def test_unique_order2_unit():
    assert unique_order2_unit(10)
    assert not unique_order2_unit(8)
    assert unique_order2_unit(26)
    assert not unique_order2_unit(2)  # no second unit at all
    with pytest.raises(ValueError):
        unique_order2_unit(1)


def test_unique_order2_unit_against_group_structure():
    # Z_rn* has a unique involution iff it is cyclic of even order or rn <= ...;
    # just cross-check against a literal unit scan
    for rn in range(2, 80):
        units = [u for u in range(1, rn) if math.gcd(u, rn) == 1]
        invol = [u for u in units if u != 1 and u * u % rn == 1]
        assert unique_order2_unit(rn) == (invol == [rn - 1])


def test_hermitian_necessary_check_examples():
    assert hermitian_necessary_check(3, 2, 2, 2) is False
    assert hermitian_necessary_check(3, 1, 2, 2) is True
    with pytest.raises(ValueError):
        hermitian_necessary_check(3, 2, 2, 5)
    with pytest.raises(ValueError):
        hermitian_necessary_check(3, 2, 3, 4)
    with pytest.raises(ValueError):
        hermitian_necessary_check(3, 2, 2, 6)  # gcd(n, p) != 1
    # p must be prime and a >= 1, as in CosetContext
    for args, match in [((3, -1, 2, 2), "a = -1"), ((3, 0, 2, 2), "a = 0"),
                        ((9, 1, 2, 4), "not prime"), ((1, 1, 2, 2), "not prime")]:
        with pytest.raises(ValueError, match=match):
            hermitian_necessary_check(*args)


@pytest.mark.parametrize("args", [(3, 1.0, 2, 2), (3, 1, 2.0, 2), (3.0, 1, 2, 2), (3, 1, 2, True),
                                  (3, 1, 2, 2.0), (True, 1, 2, 2)])
def test_hermitian_necessary_check_refuses_parameters_that_are_not_integers(args):
    with pytest.raises(ValueError, match="expected an integer"):
        hermitian_necessary_check(*args)


def test_hermitian_necessary_check_reads_numpy_parameters_as_ints():
    for args in [(3, 1, 2, 2), (3, 2, 2, 2)]:
        assert hermitian_necessary_check(*map(np.int64, args)) is hermitian_necessary_check(*args)


@pytest.mark.parametrize("bad", [10.0, True, "10"])
def test_unique_order2_unit_refuses_a_modulus_that_is_not_an_integer(bad):
    with pytest.raises(ValueError, match="expected an integer"):
        unique_order2_unit(bad)
    assert unique_order2_unit(np.int64(10)) is True


@pytest.mark.parametrize("bad", [1.5, 9.0, True])
def test_act_scale_refuses_a_multiplier_that_is_not_an_integer(bad):
    P = DefiningSet(CTX_38, (3, 5, 7))
    with pytest.raises(ValueError, match="expected an integer"):
        act_scale(P, bad)
    with pytest.raises(ValueError, match="expected an integer"):
        act_scale((1,), bad, rn=10)
    with pytest.raises(ValueError, match="expected an integer"):
        act_scale((1,), 3, rn=float(10))
    assert act_scale(P, np.int64(9)) == act_scale(P, 9) == (3, 5, 7)


def test_lcd_closure_examples():
    stable = DefiningSet(CTX_38, (3, 5, 7))
    assert lcd_closure(CTX_38, stable.residues).residues == (3, 5, 7)
    assert lcd_closure(CTX_315, (1,)).residues == (1, 5, 7, 11, 13, 17)
    assert lcd_closure(CTX_315, (3,)).residues == (3, 15)


def test_lcd_closure_refuses_a_set_that_is_not_q_closed():
    """The closure is under -p^k only: the input must already be a union of q-cyclotomic cosets."""
    ctx = CosetContext(p=2, e=2, k=1, n=21, r=1)
    with pytest.raises(ValueError, match="not closed under multiplication by q = 4"):
        lcd_closure(ctx, (1,))
    assert lcd_closure(ctx, (1, 4, 16)).residues == (1, 4, 10, 13, 16, 19)


def test_lcd_closure_is_minimal_and_stable():
    for ctx in (CTX_38, CTX_314, CTX_315, CTX_45, CTX_RN1):
        for coset in cyclotomic_cosets(ctx):
            closed = lcd_closure(ctx, coset)
            assert is_lcd_defining_set(closed)
            assert set(coset) <= set(closed.residues)
            stable_supersets = [
                P.residues for P in enumerate_stable_sets(ctx)
                if set(coset) <= set(P.residues)]
            assert closed.residues == min(stable_supersets, key=len)


def test_census_pairing_is_involutive_for_hermitian_contexts():
    for p in (3, 5, 7, 11, 13):
        for a in (1, 2):
            q = p ** (2 * a)
            for r in (1, 2):
                if (q - 1) % r:
                    continue
                for n in range(1, 61 // r):
                    if math.gcd(n, p) != 1:
                        continue
                    ctx = CosetContext(p=p, e=2 * a, k=a, n=n, r=r)
                    census = stable_orbit_census(ctx)
                    assert census.involutive
                    assert all(
                        min(act_scale(coset_of(ctx, b), ctx.minus_pk(), rn=ctx.rn)) == a_
                        for a_, b in census.pairs)


def test_unique_involution_with_half_even_order_fixes_every_coset():
    # ord_rn(p^a) = 2(1+2j) and a unique involution force -p^a Q = Q for
    # all cosets, with |Q_1| = 1 + 2j
    from galcd.fields import multiplicative_order
    hits = 0
    for p in (3, 5, 7, 11, 13):
        for a in (1, 2):
            for r in (1, 2):
                if (p ** (2 * a) - 1) % r:
                    continue
                for n in range(2, 61 // max(r, 1)):
                    if math.gcd(n, p) != 1:
                        continue
                    rn = r * n
                    if rn < 3 or math.gcd(p, rn) != 1:
                        continue
                    order = multiplicative_order(pow(p, a, rn), rn)
                    if order % 2 or (order // 2) % 2 == 0:
                        continue  # need order = 2 * odd
                    if not unique_order2_unit(rn):
                        continue
                    ctx = CosetContext(p=p, e=2 * a, k=a, n=n, r=r)
                    blocks = cyclotomic_cosets(ctx)
                    s = ctx.minus_pk()
                    assert all(tuple(act_scale(b, s, rn=rn)) == b for b in blocks)
                    q1 = coset_of(ctx, 1)
                    assert len(q1) == order // 2
                    hits += 1
    assert hits > 20


def test_census_rejects_frame_breaking_actions():
    # r = 4 over GF(9) with k = 0: 4 does not divide 1 + 3, so -p^k maps
    # the exponent set to a different residue class entirely
    ctx = CosetContext(p=3, e=2, k=0, n=2, r=4)
    from galcd.cosets import frame_preserved
    assert not frame_preserved(ctx)
    with pytest.raises(ValueError):
        stable_orbit_census(ctx)
    with pytest.raises(ValueError):
        tau_cycles(ctx)
    # k = 1 restores the frame: 4 | 1 + 3
    ctx_ok = CosetContext(p=3, e=2, k=1, n=2, r=4)
    assert frame_preserved(ctx_ok)
    stable_orbit_census(ctx_ok)


def test_every_stability_entry_point_refuses_outside_the_frame_with_one_text():
    from galcd.constacyclic import classify_all_lcd
    from galcd.fields import make_field, mult_order

    ctx = CosetContext(p=3, e=2, k=0, n=2, r=4)
    f9 = make_field(3, 2)
    lam = next(x for x in f9.elements() if x and mult_order(x) == 4)
    text = ("lambda^(1 + p^(e-k)) != 1: every code in this family is Galois LCD "
            "and the stability enumeration does not apply")
    calls = [
        lambda: tau_cycles(ctx),
        lambda: stable_orbit_census(ctx),
        lambda: dual_defining_set(DefiningSet(ctx, (1,))),
        lambda: lcd_closure(ctx, (1,)),
        lambda: classify_all_lcd(f9, 2, lam, 0),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == text


def test_frame_preserved_is_the_lambda_gate():
    """frame_preserved(ctx) holds iff lambda^(1 + p^(e-k)) = 1 for lambda of order r,
    that is iff lambda^(-p^(e-k)) = lambda: the Galois dual stays in C's family."""
    from galcd.cosets import frame_preserved
    from galcd.fields import make_field, mult_order

    seen = {True: 0, False: 0}
    for p in (2, 3, 5, 7):
        for e in (1, 2, 3):
            field = make_field(p, e)
            for lam in field.elements():
                if not lam:
                    continue
                r = mult_order(lam)
                for k in range(e):
                    expected = lam ** (1 + p ** (e - k)) == field.one
                    assert expected == (lam ** (-(p ** (e - k))) == lam)
                    for n in range(1, 13):
                        if math.gcd(n, p) == 1:
                            assert frame_preserved(CosetContext(p, e, k, n, r)) == expected
                            seen[expected] += 1
    assert min(seen.values()) > 500, seen


def test_census_undefined_for_three_cycled_cosets():
    # cyclic GF(27), n=7, k=1: -3 three-cycles the cosets {1,6},{3,4},{2,5}
    ctx = CosetContext(p=3, e=3, k=1, n=7, r=1)
    cycles = tau_cycles(ctx)
    assert sorted(len(c) for c in cycles) == [1, 3]
    census = stable_orbit_census(ctx)
    assert census.cycles == cycles and census.t == 1
    assert census.h is None and census.count is None
    assert not census.involutive


def test_census_undefined_for_two_odd_cycles():
    # cyclic GF(8), n=27, k=1: -2 three-cycles two sets of cosets, so the
    # moved cosets are even in number and still do not pair
    ctx = CosetContext(p=2, e=3, k=1, n=27, r=1)
    census = stable_orbit_census(ctx)
    assert census.cycles == ((0,), (1, 2, 4), (3, 6, 12), (9,))
    assert census.t == 2 and census.h is None and census.count is None
    assert census.pairs == ()


def test_census_pairs_each_coset_once_across_a_sweep():
    """p <= 7, q <= 300, rn <= 60 in the frame: h is set iff every moved cycle is even."""
    unpaired_even_moved = 0
    for ctx in FRAME_CONTEXTS:
        census = stable_orbit_census(ctx)
        perm = tau(ctx)
        members = [key for pair in census.pairs for key in pair]
        assert len(members) == len(set(members)), ctx
        assert all(perm[a] == b for a, b in census.pairs), ctx
        moved = [c for c in census.cycles if len(c) > 1]
        odd = any(len(c) % 2 for c in moved)
        assert (census.h is None) == odd, ctx
        if census.h is not None:
            assert len(census.pairs) == census.h, ctx
        elif sum(map(len, moved)) % 2 == 0:
            unpaired_even_moved += 1
    assert unpaired_even_moved > 0  # contexts whose odd cycles pair up in number only


def test_census_readings_match_the_one_pass_oracle_across_a_sweep():
    kinds = set()
    for ctx in FRAME_CONTEXTS:
        census = stable_orbit_census(ctx)
        assert census.cycles == tau_cycles(ctx), ctx
        want = census_readings(census.cycles)
        assert {name: getattr(census, name) for name in want} == want, ctx
        kinds.add((census.h is None, census.involutive))
    # involutive, even cycles longer than 2, and odd moved cycles all occur
    assert kinds == {(False, True), (False, False), (True, False)}


def test_lcd_closure_matches_the_fixpoint_oracle_across_a_sweep():
    rng = random.Random(2101)
    grown_without_involution = 0
    for ctx in FRAME_CONTEXTS:
        involutive = stable_orbit_census(ctx).involutive
        union = [x for c in cyclotomic_cosets(ctx) if rng.random() < 0.3 for x in c]
        for residues in (coset_of(ctx, 1), union):
            closed = lcd_closure(ctx, residues)
            assert closed == fixpoint_closure(ctx, residues), (ctx, residues)
            grown_without_involution += not involutive and len(closed) > len(set(residues))
    assert grown_without_involution > 0


@pytest.mark.parametrize("field_name", ["p", "e", "k", "n", "r"])
@pytest.mark.parametrize("bad", [1.0, True])
def test_context_refuses_parameters_that_are_not_integers(field_name, bad):
    params = dict(p=3, e=2, k=1, n=4, r=1)
    params[field_name] = bad if bad is True else float(params[field_name])
    with pytest.raises(ValueError):
        CosetContext(**params)


@pytest.mark.parametrize("field_name", ["p", "e", "k", "n", "r"])
def test_context_stores_numpy_parameters_as_ints(field_name):
    params = dict(p=3, e=2, k=1, n=4, r=1)
    params[field_name] = np.int64(params[field_name])
    ctx = CosetContext(**params)
    assert ctx == CosetContext(p=3, e=2, k=1, n=4, r=1)
    assert type(getattr(ctx, field_name)) is int


@pytest.mark.parametrize("bad", [1.0, True, "1"])
def test_defining_set_refuses_residues_that_are_not_integers(bad):
    ctx = CosetContext(p=3, e=2, k=1, n=4, r=1)
    with pytest.raises(ValueError, match="expected an integer"):
        DefiningSet(ctx, (bad,))


def test_defining_set_stores_numpy_residues_as_ints():
    P = DefiningSet(CosetContext(p=3, e=2, k=1, n=4, r=1), (np.int64(1), np.int64(5)))
    assert P.residues == (1,) and type(P.residues[0]) is int
    assert json.dumps(P.to_json()) == '{"rn": 4, "r": 1, "residues": [1]}'


def test_multipliers_examples():
    assert multipliers(CTX_RN1) == (1,)  # rn = 1 keeps s = 1
    assert multipliers(CosetContext(p=3, e=2, k=1, n=16, r=1)) == tuple(range(1, 16, 2))
    assert multipliers(CTX_314) == (1, 3, 5, 7, 9, 11, 15, 17, 19, 21, 23, 25)
    assert multipliers(CosetContext(p=5, e=2, k=0, n=3, r=4)) == (1, 5)
    P = DefiningSet(CTX_314, (3, 11, 15, 23))
    assert multiplier_orbit_key(P, multipliers(CTX_314)) == (1, 5, 21, 25)


@st.composite
def unions_of_cosets(draw):
    """p in {2, 3, 5, 7}, e <= 2, n <= 12 coprime to p, any lambda order r, any k."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    e = draw(st.integers(1, 2))
    n = draw(st.integers(1, 12).filter(lambda n: math.gcd(n, p) == 1))
    r = draw(st.sampled_from([d for d in range(1, p**e) if (p**e - 1) % d == 0]))
    ctx = CosetContext(p=p, e=e, k=draw(st.integers(0, e - 1)), n=n, r=r)
    cosets_here = cyclotomic_cosets(ctx)
    take = draw(st.lists(st.booleans(), min_size=len(cosets_here), max_size=len(cosets_here)))
    return DefiningSet(ctx, tuple(x for t, c in zip(take, cosets_here) if t for x in c))


@settings(max_examples=150, deadline=None)
@given(unions_of_cosets())
def test_multipliers_permute_unions_of_cosets_and_keep_stability(P):
    ctx = P.ctx
    mults = multipliers(ctx)
    key = multiplier_orbit_key(P, mults)
    cosets_here = [set(c) for c in cyclotomic_cosets(ctx)]
    for s in mults:
        image = DefiningSet(ctx, act_scale(P, s))  # q-closed inside 1 + r*Z_rn
        members = set(image.residues)
        assert all(c <= members or not c & members for c in cosets_here)
        assert is_lcd_defining_set(image) == is_lcd_defining_set(P)
        assert multiplier_orbit_key(image, mults) == key


def test_with_k_is_the_replaced_context_and_refuses_what_the_context_refuses():
    ctx = CosetContext(p=3, e=2, k=0, n=8, r=4)
    for k in (0, 1):
        assert with_k(ctx, k) == replace(ctx, k=k)
        # one validated context per (p, e, n, r) and k, whichever k it is reached from
        assert with_k(ctx, k) is with_k(replace(ctx, k=1), k)
    # a numpy int finds the entry of the int it stands for, and the context stores that int
    assert with_k(ctx, np.int64(1)) is with_k(ctx, 1) and type(with_k(ctx, np.int64(1)).k) is int
    for bad in (1.0, True, -1, ctx.e):
        with pytest.raises(ValueError) as direct:
            replace(ctx, k=bad)
        for _ in range(2):  # a refusal is not memoized
            with pytest.raises(ValueError, match=re.escape(str(direct.value))):
                with_k(ctx, bad)
