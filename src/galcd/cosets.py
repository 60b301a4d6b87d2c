"""Residue arithmetic modulo rn for constacyclic defining sets.

Everything here is integer combinatorics: q-cyclotomic cosets on the
exponent set 1 + r*Z_rn, the scaling actions mu_s (in particular by
-p^k, and by the multipliers whose orbits group equivalent codes),
defining-set duality, stability censuses and counting, and the
consecutive-run lower bound on minimum distance.  No field arithmetic
is needed; contexts are plain parameter bundles, and ``with_k`` keeps
one validated context per (p, e, n, r) and Galois parameter k.

Residues are canonical integers in [0, rn); sets of residues are kept
as sorted tuples so serialization and equality are stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable

from galcd.fields import as_int, check_galois_parameter, is_prime, multiplicative_order


@dataclass(frozen=True, slots=True)
class CosetContext:
    """Parameters (p, e, k, n, r) with q = p^e and modulus rn = r*n."""

    p: int
    e: int
    k: int
    n: int
    r: int

    def __post_init__(self):
        # keep the ints as_int returns: a numpy int would reach every record's JSON
        for name in ("p", "e", "n", "r", "k"):
            object.__setattr__(self, name, as_int(getattr(self, name)))
        p, n, r = self.p, self.n, self.r
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        check_galois_parameter(self.k, self.e)
        if n < 1 or math.gcd(n, p) != 1:
            raise ValueError(f"length n = {n} must be positive and coprime to p = {p}")
        if r < 1 or (self.q - 1) % r != 0:
            raise ValueError(f"r = {r} must divide q - 1 = {self.q - 1}")

    @property
    def q(self) -> int:
        return self.p**self.e

    @property
    def rn(self) -> int:
        return self.r * self.n

    def exponent_set(self) -> tuple[int, ...]:
        """The n residues {1 + r*t mod rn : t = 0..n-1}, sorted: the x in [0, rn) with x = 1 mod r."""
        return tuple(range(1 % self.r, self.rn, self.r))

    def run_index(self, residue: int) -> int:
        """The t with residue = 1 + r*t mod rn, as a residue mod n."""
        if residue % self.r != 1 % self.r:
            raise ValueError(f"{residue} is not in 1 + {self.r}*Z_{self.rn}")
        return ((residue - 1) // self.r) % self.n

    def minus_pk(self) -> int:
        return -(self.p**self.k) % self.rn

    def minus_pek(self) -> int:
        return -(self.p ** (self.e - self.k)) % self.rn


def with_k(ctx: CosetContext, k: int) -> CosetContext:
    """The context ``replace(ctx, k=k)``, validated once per (p, e, n, r) and k.

    k is read through ``as_int`` before the memo, so every key is an
    int: a numpy 1 finds the context of 1, and 1.0 and True raise as
    ``CosetContext`` refuses them.  A k outside [0, e) raises on every
    call, since a refusal is not memoized.  The memo holds contexts
    only, plain values that keep no family alive.
    """
    return _context(ctx.p, ctx.e, as_int(k), ctx.n, ctx.r)


@cache
def _context(p: int, e: int, k: int, n: int, r: int) -> CosetContext:
    return CosetContext(p=p, e=e, k=k, n=n, r=r)


def coset_of(ctx: CosetContext, s: int) -> tuple[int, ...]:
    """The q-cyclotomic coset (mu_q orbit) of s modulo rn."""
    rn, q = ctx.rn, ctx.q
    s %= rn
    orbit = {s}
    x = s * q % rn
    while x != s:
        orbit.add(x)
        x = x * q % rn
    return tuple(sorted(orbit))


def cyclotomic_cosets(ctx: CosetContext) -> tuple[tuple[int, ...], ...]:
    """Partition of the exponent set into q-cyclotomic cosets, sorted by minimum."""
    seen: set[int] = set()
    out = []
    for s in ctx.exponent_set():
        if s in seen:
            continue
        orbit = coset_of(ctx, s)
        seen.update(orbit)
        out.append(orbit)
    return tuple(sorted(out))


@dataclass(frozen=True, slots=True)
class DefiningSet:
    """A q-closed set of exponents inside 1 + r*Z_rn."""

    ctx: CosetContext
    residues: tuple[int, ...]

    def __post_init__(self):
        rn, q = self.ctx.rn, self.ctx.q
        res = tuple(sorted(set(as_int(x) % rn for x in self.residues)))
        object.__setattr__(self, "residues", res)
        marker = 1 % self.ctx.r
        for x in res:
            if x % self.ctx.r != marker:
                raise ValueError(f"residue {x} is not 1 mod r = {self.ctx.r}")
        pool = set(res)
        for x in res:
            if x * q % rn not in pool:
                raise ValueError(f"set is not closed under multiplication by q = {q}")

    def __len__(self) -> int:
        return len(self.residues)

    def __iter__(self):
        return iter(self.residues)

    def __contains__(self, x: int) -> bool:
        return x % self.ctx.rn in self.residues

    @property
    def is_full(self) -> bool:
        return len(self.residues) == self.ctx.n

    def to_json(self) -> dict:
        return {"rn": self.ctx.rn, "r": self.ctx.r, "residues": list(self.residues)}


def act_scale(P: "DefiningSet | Iterable[int]", s: int, *, rn: int | None = None) -> tuple[int, ...]:
    """Elementwise s*x mod rn.  s must be a unit modulo rn; s and rn are read through ``as_int``."""
    if isinstance(P, DefiningSet):
        residues = P.residues
        rn = P.ctx.rn
    else:
        residues = tuple(P)
        if rn is None:
            raise ValueError("rn is required when P is a plain residue collection")
        rn = as_int(rn)
    s = as_int(s)
    if math.gcd(s, rn) != 1:
        raise ValueError(f"{s} is not a unit modulo {rn}")
    return tuple(sorted(s * x % rn for x in residues))


def multipliers(ctx: CosetContext) -> tuple[int, ...]:
    """The s in [1, rn] with gcd(s, rn) = 1 and s = 1 mod r.

    Counting up to rn keeps s = 1 when rn = 1.  Each such s maps
    1 + r*Z_rn onto itself, and x -> x^s maps the code with defining set
    P monomially onto the one with s^-1 P (Chen-Dinh-Fan-Ling,
    "Polyadic constacyclic codes", IEEE Trans. IT, 2015).  The condition
    s = 1 mod r is kept for clarity: a unit u with u*P = P' for nonempty
    P, P' inside 1 + r*Z_rn already satisfies it.
    """
    rn, one = ctx.rn, 1 % ctx.r
    return tuple(s for s in range(1, rn + 1) if math.gcd(s, rn) == 1 and s % ctx.r == one)


def multiplier_orbit_key(P: DefiningSet, mults: tuple[int, ...]) -> tuple[int, ...]:
    """The smallest s*P over the multipliers s: equal keys, monomially equivalent codes."""
    return min(act_scale(P, s) for s in mults)


def dual_defining_set(P: DefiningSet) -> DefiningSet:
    """Defining set of the Galois dual code: -p^(e-k) times the complement.

    The result is expressed in the context with k replaced by e - k
    (mod e), the parameter under which dualizing again returns P.
    Requires r | 1 + p^(e-k) so that the scaled set stays inside
    1 + r*Z_rn.  The complement is scaled residue by residue; the
    returned DefiningSet validates the result.
    """
    ctx = P.ctx
    _require_frame(ctx)
    s, rn, pool = ctx.minus_pek(), ctx.rn, set(P.residues)
    scaled = tuple(s * x % rn for x in ctx.exponent_set() if x not in pool)
    return DefiningSet(with_k(ctx, (ctx.e - ctx.k) % ctx.e), scaled)


def is_lcd_defining_set(P: DefiningSet) -> bool:
    """Stability criterion: the code of P is Galois LCD iff -p^k P = P."""
    return act_scale(P, P.ctx.minus_pk()) == P.residues


def all_lcd_exponent(ctx: CosetContext) -> int | None:
    """Smallest j >= 1 with p^(e*j - k) = -1 mod rn, or None.

    Such a j exists exactly when every constacyclic code in this
    context is Galois LCD.
    """
    rn = ctx.rn
    target = rn - 1
    # exponents e*j - k repeat once j exceeds the order of p mod rn
    order = multiplicative_order(ctx.p % rn, rn)
    for j in range(1, order + 1):
        if pow(ctx.p, ctx.e * j - ctx.k, rn) == target:
            return j
    return None


def q1_fixed_test(ctx: CosetContext) -> bool:
    """True iff -p^k lies in the q-cyclotomic coset of 1 modulo rn."""
    return ctx.minus_pk() in coset_of(ctx, 1)


@dataclass(frozen=True, slots=True)
class OrbitCensus:
    """The cycles of -p^k on the cosets (``tau_cycles``) and the census read off them.

    fixed holds the smallest members of the t cosets that -p^k fixes.
    pairs holds (min(Q), min(-p^k Q)) for Q in the even cycles, each
    unordered pair once, and h halves the non-fixed cosets.  The halving
    exists whenever every cycle on the non-fixed cosets has even length,
    which holds when -p^k squares to a power of q modulo rn (always in
    the Hermitian case k = e/2).  A cycle of odd length, such as the
    3-cycles some non-Hermitian contexts produce, has no (t, h) reading
    and leaves h and count None.  involutive says whether -p^k pairs
    cosets two by two.
    """

    cycles: tuple[tuple[int, ...], ...]

    @property
    def fixed(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.cycles if len(c) == 1)

    @property
    def t(self) -> int:
        return len(self.fixed)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(pair for c in self.cycles if len(c) % 2 == 0 for pair in zip(c[::2], c[1::2]))

    @property
    def h(self) -> int | None:
        return None if any(len(c) % 2 for c in self.cycles if len(c) > 1) else len(self.pairs)

    @property
    def involutive(self) -> bool:
        return all(len(c) <= 2 for c in self.cycles)

    @property
    def count(self) -> int | None:
        """Stable-set count 2^(t+h) - 1 excluding the zero code (valid when involutive)."""
        return None if self.h is None else 2 ** (self.t + self.h) - 1


def frame_preserved(ctx: CosetContext) -> bool:
    """Whether -p^k maps 1 + r*Z_rn to itself (always true for r = 1).

    This is also the gate lambda^(1 + p^(e-k)) = 1 of the Galois LCD
    criterion, for lambda of order r: r divides q - 1, so
    p^k (1 + p^(e-k)) = p^k + q = 1 + p^k (mod r), and p^k is a unit
    mod r.  When it fails every code in the family is Galois LCD.
    """
    return (1 + ctx.p**ctx.k) % ctx.r == 0


def _require_frame(ctx: CosetContext) -> None:
    if not frame_preserved(ctx):
        raise ValueError(
            "lambda^(1 + p^(e-k)) != 1: every code in this family is Galois LCD "
            "and the stability enumeration does not apply"
        )


def tau(ctx: CosetContext) -> dict[int, int]:
    """The permutation induced by -p^k on cosets, keyed by smallest members."""
    _require_frame(ctx)
    s = ctx.minus_pk()
    return {coset[0]: min(act_scale(coset, s, rn=ctx.rn)) for coset in cyclotomic_cosets(ctx)}


def tau_cycles(ctx: CosetContext) -> tuple[tuple[int, ...], ...]:
    """Cycles of the -p^k action on cosets, each a tuple of coset keys."""
    perm = tau(ctx)
    seen: set[int] = set()
    cycles = []
    for key in sorted(perm):
        if key in seen:
            continue
        cyc = [key]
        seen.add(key)
        x = perm[key]
        while x != key:
            cyc.append(x)
            seen.add(x)
            x = perm[x]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def stable_orbit_census(ctx: CosetContext) -> OrbitCensus:
    """The census of ctx's -p^k cycles; stable-set enumeration works regardless via tau_cycles."""
    return OrbitCensus(tau_cycles(ctx))


def enumerate_stable_sets(ctx: CosetContext):
    """All q-closed sets P with -p^k P = P, i.e. unions of tau-cycles.

    Yields DefiningSet values in mask order over cycles sorted by
    smallest member; there are 2^(number of cycles) of them including
    the empty set and the full exponent set.
    """
    yield from _stable_sets(ctx, tau_cycles(ctx), cyclotomic_cosets(ctx))


def _stable_sets(ctx: CosetContext, cycles: tuple[tuple[int, ...], ...],
                 cosets: tuple[tuple[int, ...], ...]):
    """enumerate_stable_sets from ctx's tau-cycles and cyclotomic cosets, already derived."""
    cmap = {c[0]: c for c in cosets}
    blocks = [tuple(sorted(x for key in cyc for x in cmap[key])) for cyc in cycles]
    for mask in range(1 << len(blocks)):
        residues: list[int] = []
        for i, block in enumerate(blocks):
            if mask >> i & 1:
                residues.extend(block)
        yield DefiningSet(ctx, tuple(sorted(residues)))


def bch_lower_bound(P: DefiningSet) -> int:
    """1 + the longest cyclic run of consecutive root indices t mod n."""
    ctx = P.ctx
    if P.is_full:
        raise ValueError("bound undefined for the zero code (full defining set)")
    if not P.residues:
        return 1
    n = ctx.n
    idx = sorted(ctx.run_index(x) for x in P.residues)
    present = [False] * n
    for i in idx:
        present[i] = True
    best = cur = 0
    for i in range(2 * n):  # doubled scan captures wrap-around runs
        if present[i % n]:
            cur += 1
            best = max(best, min(cur, n))
        else:
            cur = 0
    return 1 + best


def unique_order2_unit(rn: int) -> bool:
    """True iff -1 is the only unit of order 2 modulo rn."""
    rn = as_int(rn)
    if rn < 2:
        raise ValueError("rn must be at least 2")
    hits = [u for u in range(2, rn) if math.gcd(u, rn) == 1 and u * u % rn == 1]
    return hits == [rn - 1]


def hermitian_necessary_check(p: int, a: int, r: int, n: int) -> bool:
    """Divisibility conditions r | p^a + 1 and 2^(b1+b2) | p^a + 1.

    Here r = 2^b1 * r' and n = 2^b2 * n' with b1, b2 > 0; even r and n
    are a hypothesis, not an input to validate silently.  Every
    parameter is read through ``as_int``.
    """
    p, a, r, n = map(as_int, (p, a, r, n))
    if r % 2 or n % 2:
        raise ValueError("hypotheses not met: r and n must both be even")
    if math.gcd(n, p) != 1:
        raise ValueError("hypotheses not met: n must be coprime to p")
    b1 = (r & -r).bit_length() - 1
    b2 = (n & -n).bit_length() - 1
    value = p**a + 1
    return value % r == 0 and value % (1 << (b1 + b2)) == 0


def lcd_closure(ctx: CosetContext, residues: Iterable[int]) -> DefiningSet:
    """Smallest q-closed superset of the input that is fixed by -p^k:
    the union of the tau-cycles whose cosets meet it."""
    _require_frame(ctx)
    pool = set(DefiningSet(ctx, tuple(residues)).residues)
    keys = [key for cyc in tau_cycles(ctx) if not pool.isdisjoint(cyc) for key in cyc]
    return DefiningSet(ctx, tuple(x for key in keys for x in coset_of(ctx, key)))
