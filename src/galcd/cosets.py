"""Residue arithmetic modulo rn for constacyclic defining sets.

Everything here is integer combinatorics: q-cyclotomic cosets on the
exponent set 1 + r*Z_rn, the scaling actions mu_s (in particular by
-p^k, and by the multipliers whose orbits group equivalent codes),
defining-set duality, stability censuses and counting, and the
consecutive-run lower bound on minimum distance.  No field arithmetic
is needed; contexts are plain parameter bundles.

Residues are canonical integers in [0, rn); sets of residues are kept
as sorted tuples so serialization and equality are stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

from galcd.fields import is_prime, multiplicative_order


@dataclass(frozen=True, slots=True)
class CosetContext:
    """Parameters (p, e, k, n, r) with q = p^e and modulus rn = r*n."""

    p: int
    e: int
    k: int
    n: int
    r: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.e < 1 or not 0 <= self.k < self.e:
            raise ValueError(f"need 0 <= k < e, got k={self.k}, e={self.e}")
        if self.n < 1 or math.gcd(self.n, self.p) != 1:
            raise ValueError(f"length n = {self.n} must be positive and coprime to p = {self.p}")
        if self.r < 1 or (self.q - 1) % self.r != 0:
            raise ValueError(f"r = {self.r} must divide q - 1 = {self.q - 1}")
        if math.gcd(self.q, self.rn) != 1:
            raise ValueError("q must be a unit modulo rn")

    @property
    def q(self) -> int:
        return self.p**self.e

    @property
    def rn(self) -> int:
        return self.r * self.n

    def exponent_set(self) -> tuple[int, ...]:
        """The n residues {1 + r*t mod rn : t = 0..n-1}, sorted."""
        return tuple(sorted((1 + self.r * t) % self.rn for t in range(self.n)))

    def run_index(self, residue: int) -> int:
        """The t with residue = 1 + r*t mod rn, as a residue mod n."""
        if residue % self.r != 1 % self.r:
            raise ValueError(f"{residue} is not in 1 + {self.r}*Z_{self.rn}")
        return ((residue - 1) // self.r) % self.n

    def minus_pk(self) -> int:
        return -(self.p**self.k) % self.rn

    def minus_pek(self) -> int:
        return -(self.p ** (self.e - self.k)) % self.rn


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
        res = tuple(sorted(set(x % rn for x in self.residues)))
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

    def complement(self) -> "DefiningSet":
        pool = set(self.residues)
        return DefiningSet(self.ctx, tuple(x for x in self.ctx.exponent_set() if x not in pool))

    def to_json(self) -> dict:
        return {"rn": self.ctx.rn, "r": self.ctx.r, "residues": list(self.residues)}


def act_scale(P: "DefiningSet | Iterable[int]", s: int, *, rn: int | None = None) -> tuple[int, ...]:
    """Elementwise s*x mod rn.  s must be a unit modulo rn."""
    if isinstance(P, DefiningSet):
        residues = P.residues
        rn = P.ctx.rn
    else:
        residues = tuple(P)
        if rn is None:
            raise ValueError("rn is required when P is a plain residue collection")
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
    1 + r*Z_rn.
    """
    ctx = P.ctx
    _require_frame(ctx)
    scaled = act_scale(P.complement(), ctx.minus_pek())
    return DefiningSet(replace(ctx, k=(ctx.e - ctx.k) % ctx.e), scaled)


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
    """Cosets fixed by -p^k (t of them) and the non-fixed ones halved (h pairs).

    h and count are None when the non-fixed cosets do not pair.
    """

    cycles: tuple[tuple[int, ...], ...]  # tau_cycles(ctx), which the census reads
    t: int
    h: int | None
    fixed: tuple[int, ...]            # smallest members of fixed cosets
    pairs: tuple[tuple[int, int], ...]  # (min(Q), min(-p^k Q)) for non-fixed Q, each unordered pair once
    involutive: bool                  # whether -p^k pairs cosets two by two

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
    """Partition the cosets into fixed ones and halved non-fixed pairs.

    The pairing exists whenever -p^k squares to a power of q modulo rn
    (always in the Hermitian case k = e/2), and more generally whenever
    the non-fixed cosets are even in number; a 3-cycle of cosets, which
    some non-Hermitian contexts produce, has no (t, h) reading and
    leaves h and count None.  Stable-set enumeration works regardless
    via tau_cycles.
    """
    cycles = tau_cycles(ctx)
    moved = sum(len(c) for c in cycles if len(c) > 1)
    pairs = []
    for cyc in (c for c in cycles if len(c) > 1):
        for i in range(0, len(cyc) - 1, 2):
            pairs.append((cyc[i], cyc[i + 1]))
        if len(cyc) % 2:  # odd cycle > 1: close with the wrap pair
            pairs.append((cyc[-1], cyc[0]))
    fixed = tuple(c[0] for c in cycles if len(c) == 1)
    return OrbitCensus(
        cycles=cycles,
        t=len(fixed),
        h=None if moved % 2 else moved // 2,
        fixed=fixed,
        pairs=tuple(pairs),
        involutive=all(len(c) <= 2 for c in cycles),
    )


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
    if rn < 2:
        raise ValueError("rn must be at least 2")
    hits = [u for u in range(2, rn) if math.gcd(u, rn) == 1 and u * u % rn == 1]
    return hits == [rn - 1]


def hermitian_necessary_check(p: int, a: int, r: int, n: int) -> bool:
    """Divisibility conditions r | p^a + 1 and 2^(b1+b2) | p^a + 1.

    Here r = 2^b1 * r' and n = 2^b2 * n' with b1, b2 > 0; even r and n
    are a hypothesis, not an input to validate silently.
    """
    if r % 2 or n % 2:
        raise ValueError("hypotheses not met: r and n must both be even")
    if math.gcd(n, p) != 1:
        raise ValueError("hypotheses not met: n must be coprime to p")
    b1 = (r & -r).bit_length() - 1
    b2 = (n & -n).bit_length() - 1
    value = p**a + 1
    return value % r == 0 and value % (1 << (b1 + b2)) == 0


def lcd_closure(ctx: CosetContext, residues: Iterable[int]) -> DefiningSet:
    """Smallest q-closed superset of the input that is fixed by -p^k."""
    _require_frame(ctx)
    current = set(DefiningSet(ctx, tuple(residues)).residues)
    s = ctx.minus_pk()
    while True:
        scaled = set(act_scale(tuple(current), s, rn=ctx.rn))
        if scaled <= current:
            return DefiningSet(ctx, tuple(sorted(current)))
        current |= scaled
