"""Generator-matrix linear codes over GF(q) and their Galois duality.

The Galois inner product with parameter k pairs x with the p^k-th
power of y coordinatewise; k = 0 is Euclidean and k = e/2 (e even) is
Hermitian.  Duals, the nonsingular-Gram LCD test, the standard-form
extension constructions, and two exact minimum-distance engines
(message enumeration and support search) live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import comb
from typing import Sequence

import numpy as np

from galcd import linalg
from galcd.fields import (TABLE_LIMIT, Element, Field, as_int, check_frobenius_exponent,
                          check_galois_parameter, sqrt_minus_one)

DEFAULT_MESSAGE_BUDGET = 10**8
DEFAULT_SUPPORT_BUDGET = 10**7

_CHUNK = 1 << 16


class BudgetExceeded(RuntimeError):
    """An enumeration was refused because it exceeds its configured budget."""


def check_budgets(budget_messages, budget_supports) -> None:
    """Refuse, naming it, a budget that is not a non-negative integer."""
    for name, value in (("budget_messages", budget_messages), ("budget_supports", budget_supports)):
        try:
            ok = as_int(value) >= 0
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


class LinearCode:
    """A linear code given by a full-rank generator matrix.

    Rows may be Elements or plain integers below p (read through the
    prime subfield).  A dimension-0 code is allowed as the degenerate
    dual of the full space; pass rows=() with an explicit length.  The
    generator is kept as one flat block of dim * n field codes, row
    after row: bytes over fields of at most 256 elements, a tuple above
    that; ``rows`` and ``codes_matrix`` unpack it.
    """

    __slots__ = ("field", "n", "_flat")

    def __init__(self, field: Field, rows, n: int | None = None):
        if n is not None:
            n = as_int(n)
        packed = []
        for row in rows:
            prow = []
            for x in row:
                if isinstance(x, Element):
                    if x.field != field:
                        raise ValueError("matrix entry from a different field")
                    prow.append(x.code)
                else:
                    x = as_int(x)
                    if not 0 <= x < field.p:
                        raise ValueError(
                            f"integer entry {x} out of range [0, {field.p}); pass an Element"
                        )
                    prow.append(x)
            packed.append(prow)
        if packed:
            widths = {len(r) for r in packed}
            if len(widths) != 1:
                raise ValueError("ragged generator matrix")
            width = widths.pop()
            if n is not None and n != width:
                raise ValueError("explicit length disagrees with row width")
            n = width
        elif n is None:
            raise ValueError("length n is required for a dimension-0 code")
        if n < 1:
            raise ValueError("code length must be positive")
        if packed and linalg.rank(field, packed) != len(packed):
            raise ValueError("generator rows are linearly dependent")
        self._set(field, packed, n)

    @classmethod
    def _trusted(cls, field: Field, rows, n: int) -> "LinearCode":
        """A code from rows of field codes derived from a validated code; no checks."""
        out = cls.__new__(cls)
        out._set(field, rows, n)
        return out

    def _set(self, field: Field, rows, n: int) -> None:
        self.field, self.n = field, n
        # one object for the whole generator: codes below 256 take a byte each
        if field.q <= 256:
            self._flat = b"".join(map(bytes, rows))
        else:
            self._flat = tuple(chain.from_iterable(rows))

    def _row_tuples(self):
        # n references to one iterator: zip takes the next n codes per row
        return zip(*[iter(self._flat)] * self.n)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The generator rows as tuples of field codes."""
        return tuple(self._row_tuples())

    @property
    def dim(self) -> int:
        return len(self._flat) // self.n

    def codes_matrix(self) -> linalg.Matrix:
        return list(map(list, self._row_tuples()))

    def generator(self) -> list[list[Element]]:
        return linalg.to_elements(self.field, self._row_tuples())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return (self.field, self.n, self._flat) == (other.field, other.n, other._flat)

    def __hash__(self) -> int:
        return hash((self.field, self.n, self._flat))

    def __repr__(self) -> str:
        return f"LinearCode([{self.n}, {self.dim}] over {self.field!r})"

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "n": self.n,
            "generator": [[list(Element(self.field, c).coeffs) for c in row] for row in self.rows],
        }

    @staticmethod
    def from_json(obj: dict) -> "LinearCode":
        field = Field.from_json(obj["field"])
        rows = [[field.from_coeffs(c) for c in row] for row in obj["generator"]]
        return LinearCode(field, rows, n=obj["n"])


@dataclass(frozen=True, slots=True)
class CodeParams:
    """Length, dimension and minimum distance, exact or as an interval."""

    n: int
    dim: int
    d: int | tuple[int, int]
    exact: bool

    def __post_init__(self):
        top = self.n - self.dim + 1
        if self.exact:
            if type(self.d) is not int:  # bool is no distance
                raise ValueError("exact parameters need an integer distance")
            if not 1 <= self.d <= top:
                raise ValueError(f"distance {self.d} violates the Singleton bound")
        elif not (isinstance(self.d, tuple) and len(self.d) == 2
                  and all(type(x) is int for x in self.d) and 1 <= self.d[0] <= self.d[1]):
            raise ValueError(f"an inexact distance needs integers 1 <= lo <= hi, got {self.d!r}")

    @property
    def mds(self) -> bool:
        return self.exact and self.d == self.n - self.dim + 1

    def to_json(self) -> dict:
        d = self.d if isinstance(self.d, int) else list(self.d)
        return {"n": self.n, "dim": self.dim, "d": d, "exact": self.exact, "mds": self.mds}

    def __str__(self) -> str:
        d = self.d if isinstance(self.d, int) else f"{self.d[0]}..{self.d[1]}"
        return f"[{self.n},{self.dim},{d}]"


def galois_inner_product(x: Sequence[Element], y: Sequence[Element], k: int) -> Element:
    """sum_i x_i * y_i^(p^k)."""
    if len(x) != len(y):
        raise ValueError("vectors of different lengths")
    if not x:
        raise ValueError("empty vectors")
    field = x[0].field
    check_galois_parameter(k, field.e)
    add, mul, frob = field.add_codes, field.mul_codes, field.frob_code
    acc = 0
    for xi, yi in zip(x, y):
        if xi.field != field or yi.field != field:
            raise ValueError("mixed fields in inner product")
        acc = add(acc, mul(xi.code, frob(yi.code, k)))
    return Element(field, acc)


def p_power_code(C: LinearCode, j: int) -> LinearCode:
    """The code generated by the entrywise p^j-th power of the generator."""
    rows = linalg.frobenius_matrix(C.field, C.codes_matrix(), check_frobenius_exponent(j))
    return LinearCode._trusted(C.field, rows, C.n)


def galois_dual(C: LinearCode, k: int) -> LinearCode:
    """C^perp_k, the Euclidean dual of the p^(e-k)-powered code."""
    field = C.field
    check_galois_parameter(k, field.e)
    powered = linalg.frobenius_matrix(field, C.codes_matrix(), (field.e - k) % field.e)
    basis = linalg.nullspace(field, powered, width=C.n)
    return LinearCode._trusted(field, basis, C.n)


def euclidean_parity_check(C: LinearCode) -> linalg.Matrix:
    return linalg.nullspace(C.field, C.codes_matrix(), width=C.n)


@dataclass(frozen=True, slots=True)
class LcdCheck:
    """Verdict of the nonsingular-Gram LCD test with its witness determinant."""

    lcd: bool
    det: Element


def galois_gram(C: LinearCode, k: int) -> linalg.Matrix:
    """G times the transpose of the entrywise p^(e-k) power of G."""
    field = C.field
    check_galois_parameter(k, field.e)
    g = C.codes_matrix()
    powered = linalg.frobenius_matrix(field, g, (field.e - k) % field.e)
    return linalg.mul_transpose(field, g, powered)


def is_galois_lcd(C: LinearCode, k: int) -> LcdCheck:
    det_code = linalg.det(C.field, galois_gram(C, k))
    return LcdCheck(lcd=det_code != 0, det=Element(C.field, det_code))


def extend_lcd(C: LinearCode, k: int, mode: str) -> LinearCode:
    """Extend a standard-form code [I_l | A] to a Galois LCD code.

    mode "char2" appends A again (characteristic 2); mode "pmod4"
    appends eta*A with eta^2 = -1 (requires p = 1 mod 4).  Either way
    the new Gram matrix collapses to the identity, the length becomes
    2n - l, and the minimum distance does not drop.
    """
    field = C.field
    check_galois_parameter(k, field.e)
    l, n = C.dim, C.n
    if l == 0:
        raise ValueError("cannot extend a dimension-0 code")
    g = C.codes_matrix()
    for i in range(l):
        for j in range(l):
            if g[i][j] != (1 if i == j else 0):
                raise ValueError("generator is not in standard form [I | A]")
    a = [row[l:] for row in g]
    if mode == "char2":
        if field.p != 2:
            raise ValueError("char2 mode requires characteristic 2")
        extra = a
    elif mode == "pmod4":
        if field.p % 4 != 1:
            raise ValueError("pmod4 mode requires p = 1 mod 4")
        eta = sqrt_minus_one(field)
        extra = [field.scale(eta.code, row) for row in a]
    else:
        raise ValueError(f"unknown extension mode {mode!r}")
    rows = [g[i] + extra[i] for i in range(l)]
    return LinearCode._trusted(field, rows, 2 * n - l)


# ---------------------------------------------------------------------------
# Minimum distance
# ---------------------------------------------------------------------------

def _distance_messages(C: LinearCode, lower_bound: int, shift: bool) -> int:
    field, q, n, l = C.field, C.field.q, C.n, C.dim
    G = np.fromiter(C._flat, dtype=np.int64, count=l * n).reshape(l, n)
    # Block i fixes row i at digit 1 and frees the rows after it: these
    # are the messages whose lowest nonzero digit is 1, one per line of
    # the code, since scaling a word keeps its weight.  With shift only
    # block 0 runs (row 0 of a banded generator is alone nonzero in column
    # 0).  Block 0 frees the most rows; later blocks free a suffix of them.
    mul, add = field.tables()
    add_flat = add.reshape(-1)
    # row j's products digit * g_j, one (q, n) table per row after row 0
    row_mul = [mul[:, row] for row in G[1:]]
    best = n + 1
    powers = [q**j for j in range(l - 1)]
    # one set of buffers per call, sized for block 0; a chunk of s
    # messages works on their first s rows.  take runs in mode "clip"
    # (every index is in range) because mode "raise" copies into a fresh
    # array before writing out.
    size = min(_CHUNK, q ** (l - 1))
    base = np.arange(size, dtype=np.int64)
    idx = np.empty(size, dtype=np.int64)
    digit = np.empty(size, dtype=np.int64)
    cw_buf = np.empty((size, n), dtype=np.int64)
    term_buf = np.empty((size, n), dtype=np.int64)
    for i in range(1 if shift else l):
        free = row_mul[i:]
        total = q ** len(free)
        for start in range(0, total, _CHUNK):
            s = min(_CHUNK, total - start)
            ix, dg, cw, term = idx[:s], digit[:s], cw_buf[:s], term_buf[:s]
            np.add(base[:s], start, out=ix)
            cw[:] = G[i]
            for j, products in enumerate(free):
                np.floor_divide(ix, powers[j], out=dg)
                np.remainder(dg, q, out=dg)
                np.take(products, dg, axis=0, out=term, mode="clip")
                np.multiply(cw, q, out=cw)
                np.add(cw, term, out=cw)
                np.take(add_flat, cw, out=term, mode="clip")
                cw, term = term, cw
            w = int(np.count_nonzero(cw, axis=1).min())
            if w < best:
                best = w
                if best <= lower_bound:
                    return best
    return best


def _reverse_powers(C: LinearCode) -> tuple[list[list[int]] | None, bool]:
    """(powers, shift) of a generator whose rows are x^i g(x), deg g =
    m = n - dim, g(0) != 0: powers are x^t mod reverse(g), high to low,
    for t = max(m - 1, 0) .. n, so the walk takes the dim + 1 steps that
    dividing x^n by g would.  x^n mod reverse(g) is a constant mu exactly
    when g | x^n - 1/mu; then x*c(x) mod x^n - 1/mu maps C onto C, moves
    every support by +1 mod n, and shift is true (so for m = 0, g = 1).
    The rows are x^i g exactly when row 0 is g followed by zeros, row 1
    is 0 at column 0, and every later entry of the flat block equals the
    one n + 1 places before it; any other generator gives (None, False).
    """
    field, flat, n = C.field, C._flat, C.n
    m = n - C.dim
    if not (flat[0] and flat[m] and not any(flat[m + 1:n + 1])
            and flat[n + 1:] == flat[:-n - 1]):
        return None, False
    if m == 0:
        return [[]] * (n + 1), True
    # reverse(g) made monic, less its x^m, high to low: g_1 .. g_m over g_0
    low = field.scale(field.inv_code(flat[0]), flat[1:m + 1])
    r = [1] + [0] * (m - 1)  # x^(m-1)
    powers = [r]
    for _ in range(C.dim + 1):
        top, r = r[0], r[1:] + [0]
        if top:
            r = field.axmy(r, top, low)
        powers.append(r)
    return powers, not any(r[:-1])


def _parity_columns(m: int, powers: list[list[int]]) -> list[list[int]]:
    """The parity-check columns of rows x^i g(x), deg g = m, from their
    ``_reverse_powers``: C holds the c with g | c(x), i.e. with
    sum_j c_j x^(n-1-j) = 0 mod reverse(g), so column j is
    x^(n-1-j) mod reverse(g) (MacWilliams-Sloane, ch. 7), and the n
    columns equal those of ``euclidean_parity_check(C)``."""
    units = [[0] * (m - 1 - t) + [1] + [0] * t for t in range(m - 1)]
    return (units + powers[:-1])[::-1]


def _distance_supports(
    C: LinearCode, budget: int, lower_bound: int = 1, shift: bool = False,
    cols: list[list[int]] | None = None,
) -> tuple[int | None, int]:
    """Least w with w dependent parity-check columns; returns (d, tests_run).

    cols are the parity-check columns that ``_parity_columns`` reads off
    a generator whose rows are x^i g(x); without them C is eliminated.
    Every basis of the dual has the same column dependencies, so the
    result does not depend on which one is read.

    The scan starts at w = lower_bound, which must not exceed d.  With
    shift it tests only the supports that contain coordinate 0, which
    finds d when some minimum-weight support contains 0.  tests_run is
    the lexicographic index of the first dependent support, counting
    every support of the weights below it.  d is None when that index
    passes the budget; the second value is then the last fully scanned
    weight w - 1, and the caller knows d >= w.

    Each weight is a depth-first walk over the support prefixes in lex
    order (``_support_scan``).  A node carries the residuals of all later
    columns modulo its prefix's span; a child adding column c scales c's
    residual to 1 at its lead and clears that lead from every later
    residual with ``linalg.reduce``.  At depth w - 2 every (w - 1)-subset
    is independent (d >= w), so the residuals are nonzero and prefix +
    {a, b} is dependent exactly when the residuals of a and b are
    parallel: normalised to lead 1 and hashed, the lex-first colliding
    pair is the node's first dependent support (``_parallel_pair``).
    A last-level node with r residuals stands for r(r - 1)/2 supports,
    so the walk counts the nodes before the hit by arithmetic: tests_run
    is the same lex index that a support-by-support scan reports, and
    the budget stops the walk at the same support.  With shift every
    support starts with column 0, so the walk's first level takes column
    0 as its only head.  A zero residual, which only a bound above d
    or a false shift claim can produce, counts as dependent, so such a
    call returns the lex-first dependent support at w = lower_bound.
    """
    m = C.n - C.dim
    if m == 0:
        return 1, 0
    if cols is None:
        h = euclidean_parity_check(C)
        cols = [[row[j] for row in h] for j in range(C.n)]
    field, tests = C.field, 0
    for w in range(lower_bound, m + 2):
        found, count = _support_scan(field, cols, w, budget - tests, shift)
        tests += count
        if tests > budget:
            return None, w - 1
        if found:
            return w, tests
    raise AssertionError("no dependent support up to the Singleton weight")  # unreachable


def _support_scan(field: Field, vs, k: int, limit: int, shift: bool = False) -> tuple[bool, int]:
    """The lex-first linearly dependent k-subset of the residual columns
    vs, or of those that contain vs[0] with shift: (True, its lex index
    among them), or (False, their number).  Each head is pivoted and the
    later residuals recurse; a zero head is dependent, and the walk over
    every head ends in ``_parallel_pair`` at k = 2.  Stops with a count
    above limit once the count passes it."""
    r = len(vs)
    if k == 2 and not shift:
        return _parallel_pair(field, vs)
    done = 0
    for i in range(1 if shift else r - k + 1):
        head = vs[i]
        c = next(filter(None, head), 0)
        if not c:
            return True, done + 1
        if k == 1:
            done += 1
            continue
        basis = [(head.index(c), field.scale(field.inv_code(c), head))]
        rest = [linalg.reduce(field, basis, v) for v in vs[i + 1:]]
        found, count = _support_scan(field, rest, k - 1, limit - done)
        done += count
        if found or done > limit:
            return found, done
    return False, done


def _parallel_pair(field: Field, vs) -> tuple[bool, int]:
    """The lex-first pair of vs whose residuals are parallel (or one is
    zero): (True, its lex index), or (False, the number of pairs)."""
    r = len(vs)
    if r < 2:
        return False, 0
    inv, scale = field.inv_code, field.scale
    first: dict[tuple, int] = {}
    best = None
    for j, v in enumerate(vs):
        c = next(filter(None, v), 0)
        if not c:
            pair = (0, j) if j else (0, 1)
        else:
            i = first.setdefault(tuple(scale(inv(c), v) if c != 1 else v), j)
            if i == j:
                continue
            pair = (i, j)
        if best is None or pair < best:
            best = pair
    if best is None:
        return False, r * (r - 1) // 2
    i, j = best
    return True, i * (r - 1) - i * (i - 1) // 2 + j - i


def _support_cost(n: int, dim: int, lower_bound: int, shift: bool) -> int:
    weights = range(lower_bound, n - dim + 2)
    if shift:
        return sum(comb(n - 1, w - 1) for w in weights)
    return sum(comb(n, w) for w in weights)


def min_distance(
    C: LinearCode,
    strategy: str = "auto",
    *,
    budget_messages: int = DEFAULT_MESSAGE_BUDGET,
    budget_supports: int = DEFAULT_SUPPORT_BUDGET,
    lower_bound: int = 1,
) -> CodeParams:
    """Exact minimum distance by message enumeration or support search.

    "messages" walks one message per line of C, the (q^dim - 1)/(q - 1)
    messages whose lowest nonzero digit is 1, since scaling a word
    keeps its weight; "supports" finds the least w such that w columns
    of a parity-check matrix are dependent.  The message budget still
    bounds q^dim (q^(dim-1) with the shift), while "auto" prices messages by
    the count the walk visits.  "auto" picks the cheaper engine that
    fits its budget; when neither fits it returns [lower_bound, n - dim + 1]
    flagged inexact, or the exact n - dim + 1 when lower_bound reaches it; support
    search fits only if every support it could test does, so "auto"
    never returns a partially scanned interval.  Explicit "messages" that
    does not fit raises BudgetExceeded; explicit "supports" over its
    budget returns [w, n - dim + 1] once it has cleared every weight
    below w, and the exact n - dim + 1 when w reaches it.  A budget that is not a non-negative integer raises
    ValueError (``check_budgets``).

    lower_bound, the one hint, is a proven d >= lower_bound in
    [1, n - dim + 1] (ValueError outside it or if it is not an integer);
    the default assumes nothing, and budgets count what it leaves.  Support
    search starts at that weight; message enumeration stops at the first
    word of that weight.  A bound above the true d gives a wrong d.

    The shift is read off the generator, not claimed (``_reverse_powers``):
    rows x^i g(x) with g | x^n - lambda, as in every constacyclic code, make
    x*c(x) mod x^n - lambda an automorphism that moves every support by +1
    mod n, so some minimum-weight word is nonzero at coordinate 0.  Support
    search then tests only the supports that contain 0, and message
    enumeration fixes digit 0 to 1 (q^(dim-1) messages).  The same walk
    gives support search its parity check (``_parity_columns``), built
    only once that route is chosen; any other generator is eliminated and
    searched without the shift.
    """
    check_budgets(budget_messages, budget_supports)
    if C.dim == 0:
        raise ValueError("the zero code has no minimum distance")
    top = C.n - C.dim + 1
    lower_bound = as_int(lower_bound)
    if not 1 <= lower_bound <= top:
        raise ValueError(f"lower_bound {lower_bound} outside [1, n - dim + 1 = {top}]")
    if strategy not in ("auto", "messages", "supports"):
        raise ValueError(f"unknown strategy {strategy!r}")
    powers, shift = _reverse_powers(C)
    q = C.field.q
    msg_cost = q ** (C.dim - 1 if shift else C.dim)
    if strategy == "auto":
        msg_ok = msg_cost <= budget_messages and q <= TABLE_LIMIT
        sup_cost = _support_cost(C.n, C.dim, lower_bound, shift)
        # the budget bounds msg_cost; the walk visits one message per line
        walked = msg_cost if shift else (msg_cost - 1) // (q - 1)
        if sup_cost <= budget_supports and (not msg_ok or sup_cost <= walked):
            strategy = "supports"
        elif msg_ok:
            strategy = "messages"
        elif lower_bound == top:
            return CodeParams(C.n, C.dim, top, True)  # the bound and the Singleton bound meet
        else:
            return CodeParams(C.n, C.dim, (lower_bound, top), False)
    if strategy == "supports":
        cols = None if powers is None else _parity_columns(C.n - C.dim, powers)
        d, scanned = _distance_supports(C, budget_supports, lower_bound, shift, cols)
        if d is None:
            if scanned + 1 < top:
                return CodeParams(C.n, C.dim, (scanned + 1, top), False)
            d = top  # every weight below the Singleton bound is cleared
        return CodeParams(C.n, C.dim, d, True)
    if msg_cost > budget_messages:
        raise BudgetExceeded(f"message enumeration needs {msg_cost} > budget {budget_messages}")
    if q > TABLE_LIMIT:
        raise BudgetExceeded(f"field GF({q}) too large for table-driven enumeration")
    return CodeParams(C.n, C.dim, _distance_messages(C, lower_bound, shift), True)
