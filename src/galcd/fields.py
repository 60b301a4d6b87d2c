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
``axmy`` and ``scale``.  The field size q alone picks the arithmetic,
so GF(p) runs as GF(p^1).  Built at construction: ``_exp``/``_log``
(q <= 2^16, from a blocked numpy walk over the powers of the
generator), and for q <= 600 ``_mul``/``_add``, the q*q tables as row
lists that share one int object per code.  Larger fields add digit by
digit and multiply with ``_raw_mul``: both coefficient vectors are
packed into w-bit slots of one Python int, multiplied once, and the
high half is folded back through the packed rows x^(e+j) mod modulus
(Kronecker substitution; ``pow_code`` squares and multiplies the same
way).  Filled lazily on first use: ``_qm1_factors`` (the factorization
of q - 1), ``_primitive`` when q > 2^16, ``_packed_rows`` (w and those
rows, for every extension field: set-up multiplies before any table
exists) and ``_tables`` (the q*q numpy tables of ``tables()``,
q <= 2200, which only message enumeration reads).  Sharing a field
between threads is still safe: each lazy value is deterministic, so
threads that race compute equal values, and each write is one attribute
assignment, so no thread can see a partial value.  A race only repeats
work.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

import numpy as np

_LOG_TABLE_LIMIT = 1 << 16  # build exp/log tables up to this field size
TABLE_LIMIT = 2200          # tables() serves full q*q tables up to this field size
_ROW_TABLE_LIMIT = 600      # every field keeps them as row lists up to this size
_WALK_WIDTH = 4096          # columns per block of the log-table walk


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
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"expected an integer, got {x!r}")


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
    """Prime factorization: trial division for small factors, rho beyond."""
    out: dict[int, int] = {}
    for d in (2, 3, 5, 7, 11, 13):
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
    d = 17
    while d * d <= m and d < 100_000:
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
    return out


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in Z_m^*.  Requires gcd(a, m) = 1; order mod 1 is 1."""
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
# modulus bookkeeping; products modulo a monic m run on packed ints.
#
# A packed polynomial holds coefficient i in bits [w*i, w*(i + 1)) of one
# Python int (Kronecker substitution; D. Harvey, J. Symbolic Comput.,
# 2009), so one bigint product multiplies two polynomials.  With reduced
# inputs a product slot is at most e*(p-1)^2, and folding the high half
# back through the rows x^(e+j) mod m adds at most (e-1)*(p-1)^2 more,
# so w bits with 2^w > 2e*(p-1)^2 keep every slot apart, for every p
# and e.
# ---------------------------------------------------------------------------

def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    # m must be monic
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i in range(dm):
                r[shift + i] = (r[shift + i] - lead * m[i]) % p
        r.pop()
    return _ptrim(r)


def _x_multiples(r: list[int], m: Sequence[int], p: int, count: int) -> list[list[int]]:
    """r, x*r, ..., x^(count-1)*r mod m, for r of e digits and monic m of degree e."""
    out = []
    for _ in range(count):
        out.append(r)
        top = r[-1]  # shift up and fold top * x^e back in
        r = [(lo - top * c) % p for lo, c in zip([0] + r[:-1], m)]
    return out


def _packing(m: Sequence[int], p: int) -> tuple[int, tuple[int, ...]]:
    """The slot width w and the packed rows x^(e+j) mod m, j = 0..e-2, for monic m."""
    e = len(m) - 1
    w = (2 * e * (p - 1) ** 2).bit_length() + 1
    return w, tuple(_pack(r, w) for r in _x_multiples([-c % p for c in m[:e]], m, p, e - 1))


def _pack(coeffs: Sequence[int], w: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out << w | c
    return out


def _mulmod(x: int, y: int, p: int, e: int, w: int, rows: tuple[int, ...]) -> int:
    """x*y mod m on packed polynomials with reduced slots; the result's slots are not reduced mod p."""
    prod = x * y
    low = prod & ((1 << e * w) - 1)
    prod >>= e * w
    mask = (1 << w) - 1
    for row in rows:
        low += (prod & mask) % p * row
        prod >>= w
    return low


def _unpack(x: int, p: int, e: int, w: int) -> list[int]:
    """The e slots of a packed polynomial, each reduced mod p."""
    mask = (1 << w) - 1
    out = []
    for _ in range(e):
        out.append((x & mask) % p)
        x >>= w
    return out


def _ppowmod(a: Sequence[int], n: int, m: Sequence[int], p: int,
             packing: tuple[int, tuple[int, ...]]) -> list[int]:
    """a^n mod m over GF(p) for monic m; packing is ``_packing(m, p)``."""
    e = len(m) - 1
    w, rows = packing
    base = _pack([c % p for c in _pmod(a, m, p)], w)
    result = 1
    while n:
        if n & 1:
            result = _pack(_unpack(_mulmod(result, base, p, e, w, rows), p, e, w), w)
        n >>= 1
        if n:
            base = _pack(_unpack(_mulmod(base, base, p, e, w, rows), p, e, w), w)
    return _ptrim(_unpack(result, p, e, w))


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        # make b monic before reducing
        inv = pow(b[-1], -1, p)
        bm = [c * inv % p for c in b]
        a, b = b, _pmod(a, bm, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def poly_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility over GF(p) via the distinct-prime-degree criterion."""
    c = _ptrim([x % p for x in coeffs])
    e = len(c) - 1
    if e < 1:
        return False
    if c[-1] != 1:
        inv = pow(c[-1], -1, p)
        c = [x * inv % p for x in c]
    if e == 1:
        return True
    # x^(p^e) == x mod f, and gcd(x^(p^(e/l)) - x, f) == 1 for prime l | e
    proper = {e // ell for ell in factorize(e)}
    packing = _packing(c, p)
    h = [0, 1]
    for i in range(1, e + 1):
        h = _ppowmod(h, p, c, p, packing)
        if i in proper:
            diff = list(h)
            while len(diff) < 2:
                diff.append(0)
            diff[1] = (diff[1] - 1) % p
            if len(_pgcd(diff, c, p)) != 1:
                return False
    x_again = list(h)
    while len(x_again) < 2:
        x_again.append(0)
    return x_again[1] == 1 and all(v == 0 for i, v in enumerate(x_again) if i != 1)


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
        if e > 1:
            if cand[0] == 0:
                continue  # divisible by x
            has_root = False
            for point in range(p):
                acc = 0
                for c in reversed(cand):
                    acc = (acc * point + c) % p
                if acc == 0:
                    has_root = True
                    break
            if has_root:
                continue
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

    __slots__ = (
        "p", "e", "q", "modulus",
        "_exp", "_log", "_mul", "_add", "_tables",
        "_qm1_factors", "_primitive", "_packed_rows",
    )

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self._qm1_factors: dict[int, int] | None = None
        self._primitive: int | None = None
        self._packed_rows: tuple[int, tuple[int, ...]] | None = None
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._mul = self._add = self._tables = None
        if self.q <= _LOG_TABLE_LIMIT:
            self._build_log_tables()
        if self.q <= _ROW_TABLE_LIMIT:
            codes = np.array(range(self.q), dtype=object)  # one int object per code
            self._mul, self._add = (codes[t].tolist() for t in self.tables())
            self._tables = None  # only message enumeration reads the arrays; tables() rebuilds them

    # -- construction helpers ------------------------------------------------

    @property
    def _packing(self) -> tuple[int, tuple[int, ...]]:
        """``_packing(modulus, p)``, built on first use."""
        if self._packed_rows is None:
            self._packed_rows = _packing(self.modulus, self.p)
        return self._packed_rows

    def _raw_mul(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        if e == 1:
            return a * b % p
        w, rows = self._packing
        prod = _mulmod(_pack(self._decode(a), w), _pack(self._decode(b), w), p, e, w, rows)
        return self._encode(_unpack(prod, p, e, w))

    def _build_log_tables(self) -> None:
        # The powers of the generator g, one block of columns at a time.
        # Multiplication by g is the GF(p)-linear map M on coefficient
        # vectors.  The block B of g^0 .. g^(d-1) grows by doubling,
        # B <- [B | M^d B] and M^d <- M^d M^d, up to _WALK_WIDTH columns;
        # each further block is M^width times the one before.  Entries
        # stay below p and a product sums e terms below p^2, far inside
        # int64 for q <= 2^16.
        q, p, e = self.q, self.p, self.e
        g = self.primitive_element.code
        if e == 1:
            exp = [1] * (q - 1)
            for i in range(1, q - 1):
                exp[i] = exp[i - 1] * g % p
            codes = np.array(exp, dtype=np.int64)
        else:
            # column j of M holds the digits of g * x^j
            step = np.array(_x_multiples(self._decode(g), self.modulus, p, e), dtype=np.int64).T
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
        self._exp, self._log = codes.tolist(), log.tolist()

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
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._raw_mul(a, b)

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self._exp is not None:
            return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]
        return self.pow_code(a, self.q - 2)

    def pow_code(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow_code(self.inv_code(a), -n)
        if a == 0:
            return 0 if n else 1
        if self._exp is not None:
            return self._exp[self._log[a] * n % (self.q - 1)]
        if a < self.p:  # the constants are the prime subfield, closed under powers
            return pow(a, n, self.p)
        return self._encode(_ppowmod(self._decode(a), n, self.modulus, self.p, self._packing))

    def frob_code(self, a: int, j: int) -> int:
        """a^(p^j) on codes."""
        if a == 0 or j % self.e == 0:
            return a
        return self.pow_code(a, pow(self.p, j, self.q - 1))

    # -- tables and row kernels -----------------------------------------------

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Full q*q (mul, add) tables of codes as int64 arrays, q <= TABLE_LIMIT."""
        if self._tables is None:
            q, p = self.q, self.p
            if q > TABLE_LIMIT:
                raise ValueError(f"GF({q}) exceeds the table limit {TABLE_LIMIT}")
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
            self._tables = (mul, add)
        return self._tables

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

    @property
    def qm1_factors(self) -> dict[int, int]:
        if self._qm1_factors is None:
            self._qm1_factors = factorize(self.q - 1) if self.q > 2 else {}
        return self._qm1_factors

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
        if self._primitive is None:
            # a generates iff a^((q-1)/l) != 1 for every prime l | q-1.
            cofactors = [(self.q - 1) // ell for ell in self.qm1_factors]
            self._primitive = next(a for a in range(1, self.q)
                                   if all(self.pow_code(a, c) != 1 for c in cofactors))
        return Element(self, self._primitive)

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


def element_from_json(field: Field, arr: Sequence[int]) -> Element:
    return field.from_coeffs(arr)


def make_field(p: int, e: int, modulus: Sequence[int] | None = None) -> Field:
    """Construct (or fetch the memoized) GF(p^e).

    The modulus, when given, is a coefficient vector constant term
    first; it must be monic of degree e and irreducible over GF(p).
    Two functools.cache memos share the work: ``_make_field`` per
    spelling of the arguments, ``_field`` per canonical (p, e, modulus).
    """
    return _make_field(p, e, None if modulus is None else tuple(as_int(c) for c in modulus))


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
    if j < 0:
        raise ValueError("Frobenius exponent must be >= 0")
    return Element(x.field, x.field.frob_code(x.code, j))


def mult_order(x: Element) -> int:
    """Order of x in the multiplicative group; requires x != 0."""
    if x.code == 0:
        raise ValueError("zero has no multiplicative order")
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


def _build_embedding(src: Field, dst: Field) -> Embedding:
    if src == dst:
        ident = {c: c for c in range(src.q)}
        return Embedding(src, dst, ident, dict(ident))
    if src.e == 1:
        fwd = {c: c for c in range(src.p)}
        return Embedding(src, dst, fwd, {v: k for k, v in fwd.items()})
    # The subfield of size src.q is the kernel of x -> x^(src.q); its
    # nonzero part is generated by g^((dst.q - 1) / (src.q - 1)).
    g = dst.primitive_element
    w = g ** ((dst.q - 1) // (src.q - 1))
    mod_consts = [Element(dst, c) for c in src.modulus]  # GF(p) coefficients embed as constants
    roots = []
    cand = dst.one
    for _ in range(src.q - 1):
        acc = dst.zero
        for c in reversed(mod_consts):
            acc = acc * cand + c
        if not acc:
            roots.append(cand.code)
        cand = cand * w
    if len(roots) != src.e:
        raise AssertionError("modulus did not split in the target subfield")
    rho = Element(dst, min(roots))
    fwd = {}
    for code in range(src.q):
        acc = dst.zero
        for d in reversed(src._decode(code)):
            acc = acc * rho + Element(dst, d)
        fwd[code] = acc.code
    return Embedding(src, dst, fwd, {v: k for k, v in fwd.items()})


@cache
def embedding(src: Field, dst: Field) -> Embedding:
    """Memoized canonical embedding; requires src.p == dst.p and src.e | dst.e."""
    if src.p != dst.p:
        raise ValueError(f"incompatible characteristics {src.p} and {dst.p}")
    if dst.e % src.e != 0:
        raise ValueError(f"GF({src.p}^{src.e}) does not embed in GF({dst.p}^{dst.e})")
    return _build_embedding(src, dst)


def embed(src: Field, dst: Field, x: Element) -> Element:
    return embedding(src, dst)(x)


# ---------------------------------------------------------------------------
# Roots of unity
# ---------------------------------------------------------------------------

def primitive_rn_root(ext: Field, rn: int, n: int, lam: Element) -> Element:
    """A primitive rn-th root of unity theta in ext with theta^n = lam.

    Deterministic: with g the smallest-code primitive element of ext,
    candidates g^(u*(q-1)/rn) are scanned for u = 1, 2, ... coprime to
    rn and the first one whose n-th power is lam is returned.
    """
    if lam.field != ext:
        raise ValueError("lam must be given inside the extension field")
    if rn < 1 or (ext.q - 1) % rn != 0:
        raise ValueError(f"{rn} does not divide |{ext!r}*| = {ext.q - 1}")
    g = ext.primitive_element
    step = g ** ((ext.q - 1) // rn)
    cand = ext.one
    for u in range(1, rn + 1):
        cand = cand * step
        if math.gcd(u, rn) == 1 and cand ** n == lam:
            theta = cand
            if mult_order(theta) != rn:
                raise AssertionError("candidate root has wrong order")  # unreachable
            return theta
    raise ValueError(f"no primitive {rn}-th root with theta^{n} = {lam!r}")
