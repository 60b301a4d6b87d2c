"""Dense exact linear algebra over a Field.

Matrices are lists of rows of packed element codes.  Row operations run
on the field's row kernels (``axpy``, ``axmy``, ``scale``), so results
are exact; these are small-matrix workhorses (n up to a few dozen), not
BLAS.

Gaussian elimination is written once, in ``echelon`` and ``reduce``:
``rank``, ``det``, ``rref`` (so ``nullspace``) and ``same_row_space``
run on them.  The support search of ``galcd.linear`` carries residual
parity-check columns down its support tree and, at each child, clears
the new column's pivot from every later residual with one ``reduce``
against a one-pair basis.
"""

from __future__ import annotations

from galcd.fields import Element, Field

Matrix = list[list[int]]


def transpose(mat) -> Matrix:
    return [list(col) for col in zip(*mat)] if mat else []


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(field: Field, a, b) -> Matrix:
    if not a:
        return []
    axpy = field.axpy
    out = []
    for row in a:
        acc = [0] * len(b[0]) if b else []
        for x, brow in zip(row, b):
            if x:
                acc = axpy(acc, x, brow)
        out.append(acc)
    return out


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
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is None:
            yield None, 0, None
            continue
        pivot = vec[lead]
        if pivot != 1:
            vec = field.scale(inv(pivot), vec)
        basis.append((lead, vec))
        yield lead, pivot, vec


def rref(field: Field, mat) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column list."""
    if not mat:
        return [], []
    rows = sorted((lead, row) for lead, _, row in echelon(field, mat) if lead is not None)
    # An echelon row is 0 before its lead.  Bottom-up, the rows after row i
    # are already reduced (1 at their lead, 0 at every other), so clearing
    # row i at their leads is one axmy per nonzero entry and fills in no lead.
    for i in reversed(range(len(rows))):
        lead, row = rows[i]
        rows[i] = lead, list(reduce(field, rows[i + 1:], row))
    zero_rows = [[0] * len(mat[0]) for _ in range(len(mat) - len(rows))]
    return [row for _, row in rows] + zero_rows, [lead for lead, _ in rows]


def rank(field: Field, mat) -> int:
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
    """Basis rows of {x : mat . x^T = 0}; width needed when mat is empty."""
    if not mat:
        if width is None:
            raise ValueError("width required for an empty matrix")
        return identity(width)
    cols = len(mat[0])
    r, pivots = rref(field, mat)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    neg = field.neg_code
    basis = []
    for fc in free:
        vec = [0] * cols
        vec[fc] = 1
        for row_idx, pc in enumerate(pivots):
            vec[pc] = neg(r[row_idx][fc])
        basis.append(vec)
    return basis


def same_row_space(field: Field, a, b) -> bool:
    """Equal row spaces: b has a's rank and reduces to zero against a's basis."""
    basis = [(lead, row) for lead, _, row in echelon(field, a) if lead is not None]
    return rank(field, b) == len(basis) and not any(any(reduce(field, basis, row)) for row in b)


def to_elements(field: Field, mat) -> list[list[Element]]:
    return [[Element(field, x) for x in row] for row in mat]


def from_elements(mat: list[list[Element]]) -> Matrix:
    return [[x.code for x in row] for row in mat]
