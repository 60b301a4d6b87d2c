"""Exact arithmetic in GF(p^e) with an explicit modulus polynomial.

An element of GF(p^e) is a residue class of GF(p)[x] modulo a monic
irreducible polynomial of degree e.  Coefficient vectors are stored
constant term first, so the class of x in GF(8) has coefficients
[0, 1, 0].  Internally every element is packed into a single integer
code sum(c_i * p^i), which makes equality bit-exact and lets small
fields run on lookup tables.

Field identity is the triple (p, e, modulus): two fields with the same
triple compare (and hash) equal.  When no modulus is supplied, the
default is the monic irreducible polynomial whose coefficient tuple,
read from leading to constant term as base-p digits, encodes the
smallest integer.  For GF(8) that rule picks x^3 + x + 1, under which
the generator a satisfies a^3 = 1 + a.

Fields and elements are immutable.  Only this module reads the tables;
other modules use the scalar calls and the row kernels ``axpy``,
``axmy``, ``scale`` and ``dots``.  The field size q alone picks the
arithmetic, so GF(p) runs as GF(p^1).  Built at construction for
q <= 600: ``_exp``/``_log`` (from a blocked numpy walk over the powers
of the generator, whose step matrix of columns g * x^j comes from the
packed kernel) and ``_mul``/``_add``, the q*q tables as row lists that
share one int object per code.  For 600 < q <= 2^16 the same walk
builds ``_exp``/``_log`` on the field's first product, the first call
of ``mul_codes``, ``inv_code`` or ``tables()``; ``pow_code`` and
``frob_code`` read them once they exist and run on ``_raw_pow``
before, so a splitting field that family set-up only raises to powers
builds no table.  Fields without row lists add digit by digit, and
multiply with ``_raw_mul`` while they have no log tables: both
coefficient vectors are packed into w-bit slots of one Python int and
multiplied once (Kronecker substitution), every slot is reduced mod p
in one step by a multiply-and-shift (Granlund-Montgomery), and the
high half is folded back by a Barrett quotient, three bigint products in all, whose result
again has reduced slots.  ``_ppowmod`` squares and multiplies on those
packed ints and returns one, so ``pow_code`` (through ``_raw_pow``)
packs and unpacks once per power.  ``poly_is_irreducible`` runs
Ben-Or's distinct-degree test, gcd(x^(p^i) - x, f) = 1 for
i <= e // 2, which stops at f's smallest factor degree: its step
i = 1 is a linear-factor screen that evaluates f at every point of
GF(p) on plain ints below ``_SCREEN_LIMIT`` (p = 100, the measured
crossover) and runs as a packed gcd from there on; the later steps
keep their iterated p-th powers and gcds (``_pgcd``) packed.
``_to_packed`` and ``_from_packed`` are the one code <-> packed
conversion, a loop each way that moves k
base-p digits per step through the ``_chunks`` tables.  Family set-up
runs on packed values from start to end as well, in every field:
``embedding``'s search for a root of the source modulus,
``primitive_rn_root``'s candidate scan and ``root_products`` (the
products prod (x - theta^i) behind ``polys.minimal_polys``) each
unpack only what they return.  Slots of
w = v + s bits, v the bit length of max(e*(p-1)^2, 2p) and
s = v + bits(p-1), keep every slot apart (see the comment above
``_packing``).  The kernels read ``__slots__``; the lazy values are
``functools.cached_property``s, kept in the instance ``__dict__`` from
their first read: ``qm1_factors`` (the factorization of q - 1),
``_generator_code`` (the code of ``primitive_element``; a cached
Element would point back at the field, which only a garbage collection
pass could then free), ``_packing`` (w, the reduction constants and
the packed x^(2e) div modulus, for every field: set-up and the log
walk multiply before any table exists), ``_chunks`` (the conversion
tables), ``_tables`` (the q*q numpy pair
of ``tables()``, q <= 2200, which only
message enumeration reads) and ``_frob_tables`` (for q <= 600, the
table of a -> a^(p^j) per j mod e that ``frob_row`` has read).
Sharing a field between threads is safe: each value is deterministic,
so threads that race on a first read compute equal values.  A race
only repeats work.  The log tables are published ``_log`` first, then
``_exp``, which readers test, so a reader that finds ``_exp`` finds
``_log``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Sequence

import numpy as np

_LOG_TABLE_LIMIT = 1 << 16  # build exp/log tables up to this field size
TABLE_LIMIT = 2200          # tables() serves full q*q tables up to this field size
_ROW_TABLE_LIMIT = 600      # every field keeps them as row lists up to this size
_WALK_WIDTH = 4096          # columns per block of the log-table walk
_CHUNK_LIMIT = 512          # most k-digit codes one step of a code <-> packed conversion tables
# Irreducibility screens for roots by evaluation below this p, by a packed gcd from it on:
# on random monic candidates of degree 2-6 the two cross near p = 100 (for degree 2-3, 5-7
# against 22-28 us per call at p = 31 and 32-41 against 19-24 us at p = 257; 2-vCPU VM, min of 7).
_SCREEN_LIMIT = 100


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin (the 12-witness set covers all 64-bit inputs
    and is a strong probable-prime test beyond that)."""
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % p == 0:
            return m == p
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def as_int(x) -> int:
    """x as an int; a bool or a non-integer such as 1.5 or "2" raises ValueError."""
    if type(x) is int:  # the common case, and never a bool
        return x
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"expected an integer, got {x!r}")


def check_galois_parameter(k, e: int) -> None:
    """Refuse a Galois parameter k outside [0, e), or one that is not an integer."""
    if not 0 <= as_int(k) < e:
        raise ValueError(f"need 0 <= k < e, got k={k}, e={e}")


def check_frobenius_exponent(j) -> int:
    """j as an int; refuse a Frobenius exponent that is negative or not an integer."""
    j = as_int(j)
    if j < 0:
        raise ValueError(f"Frobenius exponent must be >= 0, got {j}")
    return j


def _pollard_rho(m: int) -> int:
    """A nontrivial factor of composite odd m."""
    if m % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            d = math.gcd(abs(x - y), m)
        if d != m:
            return d
    raise AssertionError(f"rho failed on {m}")  # astronomically unlikely


def factorize(m: int) -> dict[int, int]:
    """Prime factorization in ascending primes: trial division for factors below 2^10, rho beyond."""
    out: dict[int, int] = {}
    for d in (2, 3, 5, 7, 11, 13):
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
    d = 17
    while d * d <= m and d < 1 << 10:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 2
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        f = _pollard_rho(v)
        stack.extend((f, v // f))
    return dict(sorted(out.items()))


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in Z_m^*.  Requires m >= 1 and gcd(a, m) = 1; order mod 1 is 1.

    a and m are read through ``as_int``.
    """
    a, m = as_int(a), as_int(m)
    if m < 1:
        raise ValueError(f"need a modulus m >= 1, got {m}")
    if m == 1:
        return 1
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit modulo {m}")
    order = 1
    x = a
    while x != 1:
        x = x * a % m
        order += 1
    return order


# ---------------------------------------------------------------------------
# Polynomials over GF(p) as plain int lists, constant term first, for
# modulus bookkeeping (``_pdivmod``, the one long division); products,
# powers and gcds modulo a monic m run on packed ints.
#
# A packed polynomial holds coefficient i in bits [w*i, w*(i + 1)) of one
# Python int (Kronecker substitution; D. Harvey, J. Symbolic Comput.,
# 2009), so one bigint product multiplies two polynomials.  Every slot
# the kernel forms is below 2^v, v the bit length of max(e*(p-1)^2, 2p):
# a product of polynomials with reduced slots sums at most e terms per
# slot.  One step reduces every slot mod p (T. Granlund and
# P. Montgomery, PLDI 1994): with s = v + bits(p - 1) and
# c = ceil(2^s / p), (x*c) >> s = x // p for every x < 2^v, so slots of
# w = v + s bits hold x*c, and x - p*((x*c >> s) & low) reduces them all
# with no carry across a slot.  The high half folds back through
# Barrett's quotient (P. Barrett, CRYPTO 1986): with mu = x^(2e) div m,
# a product A = A1*x^e + A0 of degree <= 2e - 2 has
# A div m = (A1*mu) div x^e exactly, since x^2e = mu*m + rho and
# A1*mu = Q*x^e + T give x^e*(A - Q*m) = x^e*A0 + A1*rho + T*m, of degree
# below 2e.  The remainder is the low e slots of A + p - Q*m.  So
# ``_mulmod`` makes three bigint products and four reductions, and its
# result has reduced slots, ready for the next product.  A sum of two
# reduced values has slots below 2p <= 2^v, so ``_preduce`` (one
# reduction) makes it a reduced value again; p - x in every slot, then
# ``_preduce``, negates.  Reduced slots are canonical, so two packed
# values are equal exactly when their elements are.
# ---------------------------------------------------------------------------

def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pdivmod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """(a div m, a mod m) over GF(p) for monic m, the remainder trimmed."""
    e = len(m) - 1
    r = [c % p for c in a]
    quo = [0] * max(len(r) - e, 0)
    for i in range(len(quo) - 1, -1, -1):
        quo[i] = lead = r[i + e]
        if lead:
            for j in range(e + 1):
                r[i + j] = (r[i + j] - lead * m[j]) % p
    return quo, _ptrim(r[:e])


def _packing(m: Sequence[int], p: int) -> tuple[int, ...]:
    """The constants of ``_mulmod`` for monic m of degree e over GF(p).

    (p, w, e*w, s, c, low, emask, mu, m0, pp): p, the slot width, the
    shift to the high half, the reduction's shift and multiplier, v
    one-bits in each of 2e slots, the mask of the low e slots,
    mu = x^(2e) div m and m - x^e packed, and p in each of e slots.
    """
    e = len(m) - 1
    v = max(e * (p - 1) ** 2, 2 * p).bit_length()
    s = v + (p - 1).bit_length()
    w = v + s
    mu, _ = _pdivmod([0] * (2 * e) + [1], m, p)
    return (p, w, e * w, s, -(-(1 << s) // p), _pack([(1 << v) - 1] * (2 * e), w), (1 << e * w) - 1,
            _pack(mu, w), _pack(m[:e], w), _pack([p] * e, w))


def _pack(coeffs: Sequence[int], w: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out << w | c
    return out


def _mulmod(x: int, y: int, packing: tuple[int, ...]) -> int:
    """x*y mod m on packed polynomials with reduced slots; the result's slots are reduced too."""
    p, w, ew, s, c, low, emask, mu, m0, pp = packing
    a = x * y
    a -= p * ((a * c >> s) & low)
    quo = (a >> ew) * mu >> ew
    quo -= p * ((quo * c >> s) & low)
    qm = quo * m0 & emask
    qm -= p * ((qm * c >> s) & low)
    r = (a & emask) + pp - qm
    return r - p * ((r * c >> s) & low)


def _preduce(x: int, packing: tuple[int, ...]) -> int:
    """x with every slot reduced mod p, for slots below 2^v (a sum of two reduced values, say)."""
    return x - packing[0] * ((x * packing[4] >> packing[3]) & packing[5])


def _unpack(x: int, e: int, w: int) -> list[int]:
    """The e slots of a packed polynomial."""
    mask = (1 << w) - 1
    out = []
    for _ in range(e):
        out.append(x & mask)
        x >>= w
    return out


def _ppowmod(x: int, n: int, packing: tuple[int, ...]) -> int:
    """x^n mod m on a packed polynomial with reduced slots, n >= 0; packing is ``_packing(m, p)``."""
    result = 1
    while n:
        if n & 1:
            result = _mulmod(result, x, packing)
        n >>= 1
        if n:
            x = _mulmod(x, x, packing)
    return result


def _pgcd(a: int, b: int, packing: tuple[int, ...]) -> int:
    """The monic gcd of packed polynomials with reduced slots, b != 0 and both of degree < 2e.

    Euclid's algorithm on the slots of ``_packing(m, p)``, m of degree
    e >= 2; a packed x has degree (x.bit_length() - 1) // w.  b is made
    monic, then each step adds (p - lead) times b, shifted under a's
    leading term, which clears that term; every slot stays below
    p*(p - 1) <= 2*(p - 1)^2 < 2^v, so ``_preduce`` reduces it.
    """
    p, w = packing[0], packing[1]
    while b:
        top = (b.bit_length() - 1) // w
        b = _preduce(b * pow(b >> top * w, -1, p), packing)
        while a and (lead := (a.bit_length() - 1) // w) >= top:
            a = _preduce(a + ((p - (a >> lead * w)) * b << (lead - top) * w), packing)
        a, b = b, a
    return a


def _has_root(c: Sequence[int], p: int) -> bool:
    """Whether c has a root in GF(p): x | c, then c at every nonzero point by Horner's rule."""
    if not c[0]:
        return True
    top = c[::-1]
    for point in range(1, p):
        acc = 0
        for a in top:
            acc = (acc * point + a) % p
        if not acc:
            return True
    return False


def poly_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility over GF(p) by Ben-Or's distinct-degree test (M. Ben-Or, FOCS 1981).

    f of degree e is irreducible iff gcd(x^(p^i) - x, f) = 1 for
    i = 1 .. e // 2, so a reducible f is refused at its smallest factor
    degree.  Step i = 1 is the linear-factor screen: for p below
    ``_SCREEN_LIMIT`` it evaluates f at every point of GF(p) on plain
    ints (``_has_root``), with no ``_packing`` built, and for e <= 3
    it alone decides; from that p on it is the packed gcd like the
    later steps, whose iterated p-th powers and gcds run on packed
    slots (``_ppowmod``, ``_pgcd``).
    """
    c = _ptrim([x % p for x in coeffs])
    e = len(c) - 1
    if e < 1:
        return False
    if c[-1] != 1:
        inv = pow(c[-1], -1, p)
        c = [x * inv % p for x in c]
    if e == 1:
        return True
    first = 1  # the first step i that runs as a packed gcd
    if p < _SCREEN_LIMIT:
        if _has_root(c, p):
            return False
        first = 2
    if e // 2 < first:
        return True  # e <= 3, decided by the screen
    packing = _packing(c, p)
    w = packing[1]
    f = _pack(c, w)
    h = 1 << w  # x packed; e >= 2, so it is reduced mod f
    for i in range(1, e // 2 + 1):
        h = _ppowmod(h, p, packing)
        # h - x is h with p - 1 added to slot 1, reduced
        if i >= first and _pgcd(_preduce(h + (p - 1 << w), packing), f, packing) != 1:
            return False
    return True


def default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree e over GF(p).

    Candidates are ordered by the integer encoded by the coefficient
    tuple read leading term first in base p, i.e. ascending
    (c_{e-1}, ..., c_1, c_0) lexicographically.
    """
    for tail in range(p**e):
        coeffs = []
        t = tail
        for _ in range(e):
            coeffs.append(t % p)
            t //= p
        cand = coeffs + [1]
        if poly_is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# Field and Element
# ---------------------------------------------------------------------------

class Field:
    """GF(p^e) with arithmetic on packed integer codes.

    Do not call directly in normal use; go through :func:`make_field`,
    which validates arguments and memoizes instances so table work is
    shared.
    """

    __slots__ = ("p", "e", "q", "modulus", "_exp", "_log", "_mul", "_add", "__dict__")

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self._exp = self._log = self._mul = self._add = None  # filled below when q is small enough
        if self.q <= _ROW_TABLE_LIMIT:
            self._build_log_tables()
            codes = np.array(range(self.q), dtype=object)  # one int object per code
            self._mul, self._add = (codes[t].tolist() for t in self.tables())
            del self._tables  # only message enumeration reads the arrays; tables() rebuilds them

    # -- construction helpers ------------------------------------------------

    @cached_property
    def _packing(self) -> tuple[int, ...]:
        """``_packing(modulus, p)``, built on first use."""
        return _packing(self.modulus, self.p)

    @cached_property
    def _chunks(self) -> tuple:
        """(p^k, k*w, packed, codes): the k base-p digits a conversion step moves.

        k is the most digits, at least 1 and at most e, with
        p^k <= _CHUNK_LIMIT; packed[r] is the packed polynomial of a
        k-digit code r and codes maps it back.  With k = 1 both maps are
        the identity on one slot.
        """
        p, w = self.p, self._packing[1]
        k = 1
        while k < self.e and p ** (k + 1) <= _CHUNK_LIMIT:
            k += 1
        if k == 1:
            slot = range(1 << w)
            return p, w, slot, slot
        packed = [0]
        for j in range(k):
            packed = [x | digit << j * w for digit in range(p) for x in packed]
        return p**k, k * w, packed, {x: r for r, x in enumerate(packed)}

    def _to_packed(self, code: int) -> int:
        """The packed polynomial of a code: base-p digit i goes to slot i."""
        pk, kw, packed, _ = self._chunks
        out = shift = 0
        while code:
            code, r = divmod(code, pk)
            out |= packed[r] << shift
            shift += kw
        return out

    def _from_packed(self, x: int) -> int:
        """The code of a packed polynomial with reduced slots."""
        pk, kw, _, codes = self._chunks
        mask = (1 << kw) - 1
        code = 0
        place = 1
        while x:
            code += codes[x & mask] * place
            x >>= kw
            place *= pk
        return code

    def _raw_mul(self, a: int, b: int) -> int:
        return self._from_packed(_mulmod(self._to_packed(a), self._to_packed(b), self._packing))

    def _raw_pow(self, a: int, n: int) -> int:
        """a^n on codes for n >= 0, packed once and unpacked once."""
        return self._from_packed(_ppowmod(self._to_packed(a), n, self._packing))

    def _build_log_tables(self) -> None:
        # The powers of the generator g, one block of columns at a time.
        # Multiplication by g is the GF(p)-linear map M on coefficient
        # vectors (the 1 x 1 matrix (g) in a prime field).  The block B of
        # g^0 .. g^(d-1) grows by doubling, B <- [B | M^d B] and
        # M^d <- M^d M^d, up to _WALK_WIDTH columns; each further block is
        # M^width times the one before.  Entries stay below p and a product
        # sums e terms below p^2, far inside int64 for q <= 2^16.
        q, p, e = self.q, self.p, self.e
        packing = self._packing
        w = packing[1]
        g = self._to_packed(self._generator_code)
        # column j of M holds the digits of g * x^j
        step = np.array([_unpack(_mulmod(g, 1 << j * w, packing), e, w) for j in range(e)], dtype=np.int64).T
        width = 1 << (min(q - 1, _WALK_WIDTH).bit_length() - 1)
        block = np.zeros((e, width), dtype=np.int64)
        block[0, 0] = 1
        done = 1
        while done < width:
            block[:, done:2 * done] = step @ block[:, :done] % p
            done *= 2
            if done < q - 1:  # M^width is needed only for a further block
                step = step @ step % p
        weights = p ** np.arange(e, dtype=np.int64)
        codes = np.empty(q - 1, dtype=np.int64)
        for start in range(0, q - 1, width):
            if start:
                block = step @ block % p
            codes[start:start + width] = (weights @ block)[:q - 1 - start]
        log = np.zeros(q, dtype=np.int64)
        log[codes] = np.arange(q - 1)
        self._log = log.tolist()  # before _exp, which readers test
        self._exp = codes.tolist()

    def _tabled(self) -> bool:
        """True once the exp/log tables exist, building them on this call for q <= _LOG_TABLE_LIMIT."""
        if self._exp is None and self.q <= _LOG_TABLE_LIMIT:
            self._build_log_tables()
        return self._exp is not None

    def _decode(self, code: int) -> list[int]:
        """All e base-p digits of a code, constant term first (untrimmed)."""
        p = self.p
        out = []
        for _ in range(self.e):
            out.append(code % p)
            code //= p
        return out

    def _encode(self, coeffs: Sequence[int]) -> int:
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.p + c
        return code

    # -- scalar arithmetic on codes ------------------------------------------

    def add_codes(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a][b]
        p = self.p
        out = 0
        m = 1
        while a or b:
            out += (a + b) % p * m
            a //= p
            b //= p
            m *= p
        return out

    def neg_code(self, a: int) -> int:
        p = self.p
        out = 0
        m = 1
        while a:
            out += -a % p * m
            a //= p
            m *= p
        return out

    def sub_codes(self, a: int, b: int) -> int:
        return self.add_codes(a, self.neg_code(b))

    def mul_codes(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None or self._tabled():
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._raw_mul(a, b)

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self._exp is not None or self._tabled():
            return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]
        return self.pow_code(a, self.q - 2)

    def pow_code(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow_code(self.inv_code(a), -n)
        if a == 0:
            return 0 if n else 1
        if self._exp is not None:  # a power reads the log tables but never builds them
            return self._exp[self._log[a] * n % (self.q - 1)]
        if a < self.p:  # the constants are the prime subfield, closed under powers
            return pow(a, n, self.p)
        return self._raw_pow(a, n)

    def frob_code(self, a: int, j: int) -> int:
        """a^(p^j) on codes."""
        if a == 0 or j % self.e == 0:
            return a
        return self.pow_code(a, pow(self.p, j, self.q - 1))

    def frob_row(self, xs: Sequence[int], j: int) -> list[int]:
        """The row of a^(p^j) for a in xs, on codes.

        A field with row lists (q <= 600) reads one table per j mod e,
        built on first use; a larger one calls ``frob_code`` per entry.
        """
        if self._mul is None:
            frob = self.frob_code
            return [frob(x, j) for x in xs]
        j %= self.e
        if not j:
            return list(xs)
        table = self._frob_tables.get(j)
        if table is None:
            table = self._frob_tables[j] = [self.frob_code(a, j) for a in range(self.q)]
        return [table[x] for x in xs]

    @cached_property
    def _frob_tables(self) -> dict[int, list[int]]:
        """j -> the codes of a^(p^j) for every code a, filled by ``frob_row``."""
        return {}

    # -- tables and row kernels -----------------------------------------------

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Full q*q (mul, add) tables of codes as int64 arrays, q <= TABLE_LIMIT."""
        return self._tables

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        q, p = self.q, self.p
        if q > TABLE_LIMIT:
            raise ValueError(f"GF({q}) exceeds the table limit {TABLE_LIMIT}")
        self._tabled()
        exp = np.array(self._exp, dtype=np.int64)
        log = np.array(self._log, dtype=np.int64)
        mul = exp[(log[:, None] + log[None, :]) % (q - 1)]
        mul[0, :] = 0
        mul[:, 0] = 0
        # (a0 + p*a') + (b0 + p*b') = (a0 + b0) % p + p*(a' + b'): each pass
        # puts one more low digit under the table of the higher digits.
        digit_sum = np.add.outer(np.arange(p), np.arange(p)) % p
        add = np.zeros((1, 1), dtype=np.int64)
        for _ in range(self.e):
            m = len(add) * p
            add = (add[:, None, :, None] * p + digit_sum[None, :, None, :]).reshape(m, m)
        mul.setflags(write=False)  # shared by every caller
        add.setflags(write=False)
        return mul, add

    def axpy(self, xs: Sequence[int], f: int, ys: Sequence[int]) -> list[int]:
        """The row xs + f*ys on codes."""
        if self._add is not None:
            add, fmul = self._add, self._mul[f]
            return [add[x][fmul[y]] for x, y in zip(xs, ys)]
        add, mul = self.add_codes, self.mul_codes
        return [add(x, mul(f, y)) if y else x for x, y in zip(xs, ys)]

    def axmy(self, xs: Sequence[int], f: int, ys: Sequence[int]) -> list[int]:
        """The row xs - f*ys on codes."""
        if self._add is not None:
            mul = self._mul
            add, fmul = self._add, mul[mul[f][self.p - 1]]  # the row of -f; p - 1 codes -1
            return [add[x][fmul[y]] for x, y in zip(xs, ys)]
        return self.axpy(xs, self.neg_code(f), ys)

    def scale(self, f: int, xs: Sequence[int]) -> list[int]:
        """The row f*xs on codes."""
        if self._mul is not None:
            fmul = self._mul[f]
            return [fmul[x] for x in xs]
        mul = self.mul_codes
        return [mul(f, x) if x else 0 for x in xs]

    def dots(self, xs: Sequence[int], rows: Iterable[Sequence[int]]) -> list[int]:
        """sum_t xs[t]*row[t] on codes for each row, skipping zeros on both sides."""
        nonzero = [(t, x) for t, x in enumerate(xs) if x]
        out = []
        if self._mul is not None:
            add, mul = self._add, self._mul
            nonzero = [(t, mul[x]) for t, x in nonzero]
            for row in rows:
                acc = 0
                for t, xmul in nonzero:
                    y = row[t]
                    if y:
                        acc = add[acc][xmul[y]]
                out.append(acc)
            return out
        add, mul = self.add_codes, self.mul_codes
        for row in rows:
            acc = 0
            for t, x in nonzero:
                y = row[t]
                if y:
                    acc = add(acc, mul(x, y))
            out.append(acc)
        return out

    # -- element constructors -------------------------------------------------

    @property
    def zero(self) -> "Element":
        return Element(self, 0)

    @property
    def one(self) -> "Element":
        return Element(self, 1)

    @property
    def gen(self) -> "Element":
        """The residue class of x (equals 0 in a prime field with modulus x)."""
        if self.e > 1:
            return Element(self, self._encode([0, 1]))
        return Element(self, -self.modulus[0] % self.p)

    def from_int(self, c: int) -> "Element":
        """Map an integer through the prime subfield (so -1 becomes p-1)."""
        return Element(self, as_int(c) % self.p)

    def from_coeffs(self, coeffs: Iterable[int]) -> "Element":
        cs = [as_int(c) % self.p for c in coeffs]
        if len(cs) > self.e:
            if any(cs[self.e:]):
                raise ValueError(f"coefficient vector longer than degree {self.e}")
            cs = cs[: self.e]
        return Element(self, self._encode(cs))

    def from_code(self, code: int) -> "Element":
        code = as_int(code)
        if not 0 <= code < self.q:
            raise ValueError(f"code {code} out of range for GF({self.q})")
        return Element(self, code)

    def elements(self):
        """Iterate all field elements in code order."""
        return (Element(self, c) for c in range(self.q))

    # -- structure -------------------------------------------------------------

    @cached_property
    def qm1_factors(self) -> dict[int, int]:
        return factorize(self.q - 1) if self.q > 2 else {}

    def _code_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        order = self.q - 1
        for ell in self.qm1_factors:
            while order % ell == 0 and self.pow_code(a, order // ell) == 1:
                order //= ell
        return order

    @property
    def primitive_element(self) -> "Element":
        """Multiplicative generator with the smallest integer code."""
        return Element(self, self._generator_code)

    @cached_property
    def _generator_code(self) -> int:
        # a generates iff a^((q-1)/l) != 1 for every prime l | q-1.
        cofactors = [(self.q - 1) // ell for ell in self.qm1_factors]
        return next(a for a in range(1, self.q) if all(self.pow_code(a, c) != 1 for c in cofactors))

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"

    def to_json(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    @staticmethod
    def from_json(obj: dict) -> "Field":
        return make_field(obj["p"], obj["e"], obj["modulus"])


@dataclass(frozen=True, slots=True)
class Element:
    """An element of a Field, stored as a packed integer code."""

    field: Field
    code: int

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self.field._decode(self.code))

    def _compat(self, other: "Element") -> None:
        if self.field != other.field:
            raise ValueError(f"mixed fields: {self.field} and {other.field}")

    def __add__(self, other: "Element") -> "Element":
        self._compat(other)
        return Element(self.field, self.field.add_codes(self.code, other.code))

    def __sub__(self, other: "Element") -> "Element":
        self._compat(other)
        return Element(self.field, self.field.sub_codes(self.code, other.code))

    def __neg__(self) -> "Element":
        return Element(self.field, self.field.neg_code(self.code))

    def __mul__(self, other: "Element") -> "Element":
        self._compat(other)
        return Element(self.field, self.field.mul_codes(self.code, other.code))

    def __truediv__(self, other: "Element") -> "Element":
        self._compat(other)
        return Element(self.field, self.field.mul_codes(self.code, self.field.inv_code(other.code)))

    def __pow__(self, n: int) -> "Element":
        return Element(self.field, self.field.pow_code(self.code, n))

    def inverse(self) -> "Element":
        return Element(self.field, self.field.inv_code(self.code))

    def __bool__(self) -> bool:
        return self.code != 0

    def __str__(self) -> str:
        if self.code < self.field.p:
            return str(self.code)
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self) -> str:
        return f"Element({list(self.coeffs)}, {self.field!r})"

    def to_json(self) -> list[int]:
        return list(self.coeffs)


def make_field(p: int, e: int, modulus: Sequence[int] | None = None) -> Field:
    """Construct (or fetch the memoized) GF(p^e).

    The modulus, when given, is a coefficient vector constant term
    first; it must be monic of degree e and irreducible over GF(p).
    Two functools.cache memos share the work: ``_make_field`` per
    spelling of the arguments, ``_field`` per canonical (p, e, modulus).
    p, e and the coefficients are read through ``as_int``.
    """
    mod = None if modulus is None else tuple(as_int(c) for c in modulus)
    return _make_field(as_int(p), as_int(e), mod)


@cache
def _make_field(p: int, e: int, modulus: tuple[int, ...] | None) -> Field:
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if e < 1:
        raise ValueError(f"extension degree must be >= 1, got {e}")
    if modulus is None:
        return _field(p, e, default_modulus(p, e))
    mod = tuple(c % p for c in modulus)
    if len(mod) != e + 1 or mod[-1] != 1:
        raise ValueError("modulus must be monic of degree e (constant term first)")
    if not poly_is_irreducible(mod, p):
        raise ValueError(f"modulus {list(mod)} is reducible over GF({p})")
    return _field(p, e, mod)


@cache
def _field(p: int, e: int, mod: tuple[int, ...]) -> Field:
    """The one Field per canonical (p, e, modulus)."""
    return Field(p, e, mod)


# ---------------------------------------------------------------------------
# Frobenius, orders, distinguished roots
# ---------------------------------------------------------------------------

def frobenius_pow(x: Element, j: int) -> Element:
    """x^(p^j), the j-th iterate of the Frobenius automorphism."""
    return Element(x.field, x.field.frob_code(x.code, check_frobenius_exponent(j)))


def mult_order(x: Element) -> int:
    """Order of x in the multiplicative group; requires x != 0."""
    return x.field._code_order(x.code)


def sqrt_minus_one(field: Field) -> Element:
    """The square root of -1 with the smallest integer code.

    Exists in characteristic 2 (where it is 1) and whenever q = 1 mod 4;
    in particular for every p = 1 mod 4.
    """
    if field.p == 2:
        return field.one
    if field.q % 4 != 1:
        raise ValueError(f"no square root of -1 in {field!r}")
    g = field.primitive_element
    eta = g ** ((field.q - 1) // 4)
    candidates = sorted([eta.code, field.neg_code(eta.code)])
    return Element(field, candidates[0])


# ---------------------------------------------------------------------------
# Subfield embeddings
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Embedding:
    """The canonical field homomorphism GF(p^e) -> GF(p^(e*m))."""

    src: Field
    dst: Field
    fwd: dict              # src code -> dst code
    inv: dict              # dst code -> src code (partial: subfield only)

    def __call__(self, x: Element) -> Element:
        if x.field != self.src:
            raise ValueError("element not in the source field")
        return Element(self.dst, self.fwd[x.code])


@cache
def embedding(src: Field, dst: Field) -> Embedding:
    """Memoized canonical embedding; requires src.p == dst.p and src.e | dst.e."""
    if src.p != dst.p:
        raise ValueError(f"incompatible characteristics {src.p} and {dst.p}")
    if dst.e % src.e != 0:
        raise ValueError(f"GF({src.p}^{src.e}) does not embed in GF({dst.p}^{dst.e})")
    if src == dst:
        ident = {c: c for c in range(src.q)}
        return Embedding(src, dst, ident, dict(ident))
    if src.e == 1:
        fwd = {c: c for c in range(src.p)}
        return Embedding(src, dst, fwd, {v: k for k, v in fwd.items()})
    # The subfield of size src.q is the kernel of x -> x^(src.q); its
    # nonzero part is generated by g^((dst.q - 1) / (src.q - 1)).  The
    # modulus is irreducible of degree e, so its roots there are the e
    # conjugates beta^(p^j) of the first root beta among the powers of w.
    # Every value stays packed; GF(p) coefficients embed as constants.
    packing = dst._packing
    w = _ppowmod(dst._to_packed(dst._generator_code), (dst.q - 1) // (src.q - 1), packing)
    beta = 1
    for _ in range(src.q - 1):
        acc = 0
        for c in reversed(src.modulus):
            acc = _preduce(_mulmod(acc, beta, packing) + c, packing)
        if not acc:
            break
        beta = _mulmod(beta, w, packing)
    beta = dst._from_packed(beta)
    roots = {dst.frob_code(beta, j) for j in range(src.e)}
    if acc or len(roots) != src.e:
        raise AssertionError("modulus did not split in the target subfield")
    # x -> rho is GF(p)-linear: the image of code + c*p^j is fwd[code] + c*rho^j.
    rho = dst._to_packed(min(roots))
    fwd = [0]
    rho_j = 1
    for _ in range(src.e):
        low = len(fwd)
        step = 0
        for _ in range(1, src.p):
            step = _preduce(step + rho_j, packing)
            fwd.extend(_preduce(f + step, packing) for f in fwd[:low])
        rho_j = _mulmod(rho_j, rho, packing)
    fwd = {code: dst._from_packed(x) for code, x in enumerate(fwd)}
    return Embedding(src, dst, fwd, {v: k for k, v in fwd.items()})


def embed(src: Field, dst: Field, x: Element) -> Element:
    return embedding(src, dst)(x)


# ---------------------------------------------------------------------------
# Roots of unity
# ---------------------------------------------------------------------------

def primitive_rn_root(ext: Field, rn: int, n: int, lam: Element) -> Element:
    """A primitive rn-th root of unity theta in ext with theta^n = lam.

    Deterministic: with g the smallest-code primitive element of ext,
    candidates g^(u*(q-1)/rn) are scanned for u = 1, 2, ... coprime to
    rn and the first one whose n-th power is lam is returned.  rn and n
    are read through ``as_int``; the scan runs on packed values.
    """
    rn, n = as_int(rn), as_int(n)
    if lam.field != ext:
        raise ValueError("lam must be given inside the extension field")
    if rn < 1 or (ext.q - 1) % rn != 0:
        raise ValueError(f"{rn} does not divide |{ext!r}*| = {ext.q - 1}")
    packing = ext._packing
    step = _ppowmod(ext._to_packed(ext._generator_code), (ext.q - 1) // rn, packing)
    target = ext._to_packed(lam.code)
    cand = 1
    for u in range(1, rn + 1):
        cand = _mulmod(cand, step, packing)
        # cand is a power of step, of order rn, so cand^n = cand^(n mod rn)
        if math.gcd(u, rn) == 1 and _ppowmod(cand, n % rn, packing) == target:
            # order rn: theta^rn = 1 and theta^(rn/l) != 1 for each prime l | rn
            if _ppowmod(cand, rn, packing) != 1 or any(
                    _ppowmod(cand, rn // ell, packing) == 1 for ell in factorize(rn)):
                raise AssertionError("candidate root has wrong order")  # unreachable
            return Element(ext, ext._from_packed(cand))
    raise ValueError(f"no primitive {rn}-th root with theta^{n} = {lam!r}")


def root_products(theta: Element, exponent_sets: Iterable[Iterable[int]]) -> list[list[int]]:
    """For each set S, the codes of prod_{i in S} (x - theta^i), constant term first; theta != 0.

    Exponents are read through ``as_int`` and taken mod q - 1, so a
    negative i gives a power of theta's inverse.  One walk over the
    sorted exponents of all the sets gives theta's powers, each step a
    product by theta^gap with one power per distinct gap, so the
    exponent set 1 + r*Z_rn of a family costs one product per exponent.
    Every coefficient stays packed through the products and is
    unpacked once at the end.
    """
    field = theta.field
    if not theta:
        raise ValueError("theta must be nonzero")
    packing, qm1 = field._packing, field.q - 1
    sets = [{as_int(i) % qm1 for i in s} for s in exponent_sets]
    t = field._to_packed(theta.code)
    powers, steps = {}, {}
    last, power = 0, 1
    for i in sorted(set().union(*sets)):
        gap = i - last
        if gap not in steps:
            steps[gap] = _ppowmod(t, gap, packing)
        powers[i] = power = _mulmod(power, steps[gap], packing)
        last = i
    out = []
    for s in sets:
        low = []  # the product's coefficients below its leading 1, packed
        for i in s:
            neg = _preduce(packing[-1] - powers[i], packing)  # -theta^i: p - slot in each slot
            prev = 0
            for j, c in enumerate(low):  # times x - theta^i
                low[j] = _preduce(prev + _mulmod(neg, c, packing), packing)
                prev = c
            low.append(_preduce(prev + neg, packing))
        out.append([field._from_packed(c) for c in low] + [1])
    return out
