"""Dense exact linear algebra over a Field.

Matrices are lists of rows of packed element codes.  Row operations run
on the field's row kernels (``axpy``, ``axmy``, ``scale``, ``dots``), so
results are exact; these are small-matrix workhorses (n up to a few
dozen), not BLAS.

Gaussian elimination is written once, in ``echelon`` and ``reduce``:
``rank``, ``det``, ``rref`` (so ``nullspace``) and ``same_row_space``
run on them.  ``rank`` skips elimination for rows already in echelon
shape, read from the left or from the right; ``rref`` back-substitutes
on the free columns only.  The support search of ``galcd.linear``
carries residual parity-check columns down its support tree and, at
each child, clears the new column's pivot from every later residual
with one ``reduce`` against a one-pair basis.

The one matrix product is ``mul_transpose``, a times the transpose of
b, one ``Field.dots`` per row of a: the Gram matrix of the Galois LCD
test multiplies a generator by its entrywise power that way.
"""

from __future__ import annotations

from galcd.fields import Element, Field

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mul_transpose(field: Field, a, b) -> Matrix:
    """a times the transpose of b: entry (i, j) is row i of a dotted with row j of b."""
    dots = field.dots
    return [dots(row, b) for row in a]


def frobenius_matrix(field: Field, mat, j: int) -> Matrix:
    return [field.frob_row(row, j) for row in mat]


def reduce(field: Field, basis, vec):
    """vec minus its components along basis, a list of (lead, row) pairs
    whose rows are 1 at their lead and 0 at every earlier pair's lead."""
    axmy = field.axmy
    for lead, row in basis:
        c = vec[lead]
        if c:
            vec = axmy(vec, c, row)
    return vec


def echelon(field: Field, rows):
    """Insert rows one at a time, yielding (lead, pivot, row) per input row:
    the first nonzero place of the row reduced against the earlier ones,
    its entry there, and the row scaled to 1 at lead; (None, 0, None)
    for a row dependent on the earlier ones."""
    inv = field.inv_code
    basis = []
    for vec in rows:
        vec = reduce(field, basis, vec)
        pivot = next(filter(None, vec), 0)
        if not pivot:
            yield None, 0, None
            continue
        lead = vec.index(pivot)  # every entry before the first nonzero one is 0
        if pivot != 1:
            vec = field.scale(inv(pivot), vec)
        basis.append((lead, vec))
        yield lead, pivot, vec


def _free_parts(field: Field, mat) -> tuple[list[int], list[int], Matrix]:
    """The pivot columns of mat's reduced row echelon form, the other (free)
    columns, and each nonzero reduced row's entries at the free columns.

    An echelon row is 0 before its lead.  Bottom-up, the rows after row i
    are already reduced (1 at their lead, 0 at every other), so taking
    one of them off row i changes row i at that lead and at free columns
    only: its multiple is row i's echelon entry at the lead, and only the
    free columns take arithmetic.
    """
    rows = sorted((lead, row) for lead, _, row in echelon(field, mat) if lead is not None)
    leads = [lead for lead, _ in rows]
    pivot_set = set(leads)
    free = [c for c in range(len(mat[0])) if c not in pivot_set]
    axmy = field.axmy
    tails: Matrix = []  # bottom-up: the rows after the current one, last row first
    for _, row in reversed(rows):
        tail = [row[c] for c in free]
        for lead, later in zip(reversed(leads), tails):
            c = row[lead]
            if c:
                tail = axmy(tail, c, later)
        tails.append(tail)
    tails.reverse()
    return leads, free, tails


def rref(field: Field, mat) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column list."""
    if not mat:
        return [], []
    width = len(mat[0])
    leads, free, tails = _free_parts(field, mat)
    out = []
    for lead, tail in zip(leads, tails):
        row = [0] * width
        row[lead] = 1
        for c, x in zip(free, tail):
            row[c] = x
        out.append(row)
    return out + [[0] * width for _ in range(len(mat) - len(out))], leads


def rank(field: Field, mat) -> int:
    """Without elimination when no row is zero and the rows' first nonzero
    columns, or their last ones, are pairwise distinct: sorted by that
    column, such rows are already in echelon shape."""
    if all(any(row) for row in mat):
        for rows in (mat, [row[::-1] for row in mat]):
            if len({row.index(next(filter(None, row))) for row in rows}) == len(mat):
                return len(mat)
    return sum(1 for lead, _, _ in echelon(field, mat) if lead is not None)


def det(field: Field, mat) -> int:
    """Determinant code: the product of the echelon pivots, negated when the
    leads in insertion order form an odd permutation."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant requires a square matrix")
    mul = field.mul_codes
    det_code = 1
    leads: list[int] = []
    for lead, pivot, _ in echelon(field, mat):
        if lead is None:
            return 0
        det_code = mul(det_code, pivot)
        leads.append(lead)
    inversions = sum(1 for i, a in enumerate(leads) for b in leads[i + 1:] if a > b)
    return field.neg_code(det_code) if inversions % 2 else det_code


def nullspace(field: Field, mat, width: int | None = None) -> Matrix:
    """Basis rows of {x : mat . x^T = 0}; width needed when mat is empty.

    The row of free column f is 1 at f, 0 at every other free column and
    minus the reduced rows' entries at f on the pivot columns.
    """
    if not mat:
        if width is None:
            raise ValueError("width required for an empty matrix")
        return identity(width)
    cols = len(mat[0])
    leads, free, tails = _free_parts(field, mat)
    minus_one = field.neg_code(1)
    tails = [field.scale(minus_one, tail) for tail in tails]
    basis = []
    for f, fc in enumerate(free):
        vec = [0] * cols
        vec[fc] = 1
        for pc, tail in zip(leads, tails):
            vec[pc] = tail[f]
        basis.append(vec)
    return basis


def same_row_space(field: Field, a, b) -> bool:
    """Equal row spaces: a has b's rank and reduces to zero against b's basis.

    Rows are read right to left.  A ``nullspace`` basis then needs no
    elimination, and each of its rows is 0 at every other row's lead, so
    a row of a is cleared with one ``axmy`` per nonzero lead entry.
    """
    basis = [(lead, row) for lead, _, row in echelon(field, [row[::-1] for row in b]) if lead is not None]
    return rank(field, a) == len(basis) and not any(any(reduce(field, basis, row[::-1])) for row in a)


def to_elements(field: Field, mat) -> list[list[Element]]:
    return [[Element(field, x) for x in row] for row in mat]


def from_elements(mat: list[list[Element]]) -> Matrix:
    return [[x.code for x in row] for row in mat]
