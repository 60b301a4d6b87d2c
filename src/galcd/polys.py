"""Dense univariate polynomials over a Field.

Coefficients are stored constant term first with no trailing zeros;
the zero polynomial is the empty tuple and has degree -1.  All
arithmetic is exact, so polynomial equality is coefficient equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from galcd.fields import (
    Element,
    Field,
    as_int,
    check_frobenius_exponent,
    embedding,
    make_field,
    multiplicative_order,
    root_products,
)


@dataclass(frozen=True, slots=True)
class Poly:
    field: Field
    codes: tuple[int, ...]

    def __post_init__(self):
        if self.codes and self.codes[-1] == 0:
            raise ValueError("trailing zero coefficient; use Poly.make")

    @staticmethod
    def make(field: Field, codes: Iterable[int]) -> "Poly":
        cs = list(codes)
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(field, tuple(cs))

    @staticmethod
    def from_elements(field: Field, elems: Sequence[Element]) -> "Poly":
        for el in elems:
            if el.field != field:
                raise ValueError("coefficient from a different field")
        return Poly.make(field, [el.code for el in elems])

    @staticmethod
    def from_ints(field: Field, ints: Sequence[int]) -> "Poly":
        """Coefficients given as integers through the prime subfield."""
        return Poly.make(field, [field.from_int(c).code for c in ints])

    @property
    def degree(self) -> int:
        return len(self.codes) - 1

    @property
    def is_zero(self) -> bool:
        return not self.codes

    @property
    def is_monic(self) -> bool:
        return bool(self.codes) and self.codes[-1] == 1

    def coefficient(self, i: int) -> Element:
        return Element(self.field, self.codes[i] if 0 <= i < len(self.codes) else 0)

    @property
    def elements(self) -> tuple[Element, ...]:
        return tuple(Element(self.field, c) for c in self.codes)

    def __add__(self, other: "Poly") -> "Poly":
        f = self._samefield(other)
        a, b = self.codes, other.codes
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        add = f.add_codes
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly.make(f, out)

    def __neg__(self) -> "Poly":
        neg = self.field.neg_code
        return Poly(self.field, tuple(neg(c) for c in self.codes))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        f = self._samefield(other)
        a, b = self.codes, other.codes
        if not a or not b:
            return Poly(f, ())
        if len(a) > len(b):  # one axpy per coefficient of the shorter factor
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        nb = len(b)
        for i, ai in enumerate(a):
            if ai:
                out[i:i + nb] = f.axpy(out[i:i + nb], ai, b)
        return Poly.make(f, out)

    def scale(self, c: Element) -> "Poly":
        if c.field != self.field:
            raise ValueError("scalar from a different field")
        return Poly.make(self.field, self.field.scale(c.code, self.codes))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        f = self._samefield(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        b = other.codes
        inv_lead = f.inv_code(b[-1])
        r = list(self.codes)
        db = other.degree
        q = [0] * max(len(r) - db, 0)
        while len(r) - 1 >= db and r:
            lead = r[-1]
            if lead:
                coef = f.mul_codes(lead, inv_lead)
                shift = len(r) - 1 - db
                q[shift] = coef
                r[shift:] = f.axmy(r[shift:], coef, b)
            r.pop()
        return Poly.make(f, q), Poly.make(f, r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        return (other % self).is_zero

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        inv = self.field.inv_code(self.codes[-1])
        return Poly(self.field, tuple(self.field.scale(inv, self.codes)))

    def __call__(self, x: Element) -> Element:
        if x.field != self.field:
            raise ValueError("evaluation point from a different field")
        add, mul = self.field.add_codes, self.field.mul_codes
        acc = 0
        for c in reversed(self.codes):
            acc = add(mul(acc, x.code), c)
        return Element(self.field, acc)

    def _samefield(self, other: "Poly") -> Field:
        if self.field != other.field:
            raise ValueError(f"mixed fields: {self.field} and {other.field}")
        return self.field

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coefficient(i)
            if not c:
                continue
            cs = str(c)
            if i == 0:
                terms.append(cs)
            else:
                xi = "x" if i == 1 else f"x^{i}"
                terms.append(xi if cs == "1" else f"{cs}*{xi}")
        return " + ".join(terms)

    def to_json(self) -> list[list[int]]:
        return [list(Element(self.field, c).coeffs) for c in self.codes]


def poly_from_json(field: Field, arr: Sequence[Sequence[int]]) -> Poly:
    return Poly.make(field, [field.from_coeffs(a).code for a in arr])


def xn_minus_lambda(field: Field, n: int, lam: Element) -> Poly:
    if lam.field != field or not lam:
        raise ValueError("lambda must be a nonzero element of the field")
    codes = [0] * (n + 1)
    codes[0] = field.neg_code(lam.code)
    codes[n] = 1
    return Poly.make(field, codes)


def monic_product(field: Field, factors: Iterable[Poly]) -> Poly:
    """The product of monic factors over field, 1 when there are none.

    It runs on a list of codes and builds one Poly at the end: the
    product by x^s is a shift, and then each nonzero coefficient below
    the leading 1 of the shorter operand costs one ``field.axpy``.  A
    factor that is not monic, or over another field, raises ValueError.
    """
    acc: Sequence[int] = (1,)
    axpy = field.axpy
    for f in factors:
        if f.field is not field and f.field != field:
            raise ValueError(f"mixed fields: {field} and {f.field}")
        if not f.is_monic:
            raise ValueError("every factor must be monic")
        a, b = (acc, f.codes) if len(acc) >= len(f.codes) else (f.codes, acc)
        s, na = len(b) - 1, len(a)
        out = [0] * s
        out += a
        for i in range(s):
            if b[i]:
                out[i:i + na] = axpy(out[i:i + na], b[i], a)
        acc = out
    return Poly(field, tuple(acc))


def reciprocal(f: Poly) -> Poly:
    """Monic reciprocal a0^(-1) x^deg(f) f(1/x); roots become their inverses."""
    if f.is_zero:
        raise ValueError("zero polynomial has no reciprocal")
    if f.codes[0] == 0:
        raise ValueError("reciprocal requires a nonzero constant term")
    inv0 = f.field.inv_code(f.codes[0])
    return Poly(f.field, tuple(f.field.scale(inv0, f.codes[::-1])))


def frobenius_poly(f: Poly, j: int) -> Poly:
    """Apply the j-th Frobenius power to every coefficient."""
    return Poly(f.field, tuple(f.field.frob_row(f.codes, check_frobenius_exponent(j))))


def minimal_polys(cosets: Iterable[Iterable[int]], theta: Element, base: Field) -> list[Poly]:
    """prod_{i in Q} (x - theta^i) for each coset Q, descended to the base field.

    The residues are read through ``as_int``; one walk over theta's
    powers serves every coset.  Each coset must be closed under
    multiplication by |base|; otherwise its product has a coefficient
    outside the base field and a ValueError is raised.
    """
    inv = embedding(base, theta.field).inv
    try:
        return [Poly(base, tuple(inv[c] for c in codes)) for codes in root_products(theta, cosets)]
    except KeyError:
        raise ValueError(
            "coset is not closed under multiplication by the base field size"
        ) from None


def minimal_poly(coset: Iterable[int], theta: Element, base: Field) -> Poly:
    """prod_{i in coset} (x - theta^i), descended to the base field (see ``minimal_polys``)."""
    return minimal_polys([coset], theta, base)[0]


def splitting_field(base: Field, rn: int) -> Field:
    """GF(q^m) for the least m with rn | q^m - 1; rn >= 1 with gcd(rn, p) = 1, read through ``as_int``."""
    rn = as_int(rn)
    if rn < 1 or math.gcd(rn, base.p) != 1:
        raise ValueError(f"need rn >= 1 with gcd(rn, p) = 1, got rn={rn}, p={base.p}")
    m = multiplicative_order(base.q, rn)
    if m == 1:
        return base
    return make_field(base.p, base.e * m)
