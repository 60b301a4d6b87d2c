"""Dense exact linear algebra over a Field.

Matrices are lists of rows of packed element codes.  Row operations run
on the field's row kernels (``axpy``, ``scale``), so results are exact;
these are small-matrix workhorses (n up to a few dozen), not BLAS.
"""

from __future__ import annotations

from galcd.fields import Element, Field

Matrix = list[list[int]]


def copy_matrix(mat) -> Matrix:
    return [list(row) for row in mat]


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
    frob = field.frob_code
    return [[frob(x, j) for x in row] for row in mat]


def rref(field: Field, mat) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column list."""
    m = copy_matrix(mat)
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    axpy, neg, inv = field.axpy, field.neg_code, field.inv_code
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        scale = inv(prow[c])
        if scale != 1:
            m[r] = prow = field.scale(scale, prow)
        for i in range(rows):
            if i != r and m[i][c]:
                m[i] = axpy(m[i], neg(m[i][c]), prow)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(field: Field, mat) -> int:
    return len(rref(field, mat)[1])


def det(field: Field, mat) -> int:
    """Determinant code by fraction-free-ish forward elimination."""
    m = copy_matrix(mat)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    mul, neg = field.mul_codes, field.neg_code
    det_code = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det_code = neg(det_code)
        pv = m[c][c]
        det_code = mul(det_code, pv)
        pv_inv = field.inv_code(pv)
        prow = m[c]
        for i in range(c + 1, n):
            if m[i][c]:
                m[i] = field.axpy(m[i], neg(mul(m[i][c], pv_inv)), prow)
    return det_code


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
    if not a and not b:
        return True
    ra = rref(field, a)[0] if a else []
    rb = rref(field, b)[0] if b else []
    ra = [row for row in ra if any(row)]
    rb = [row for row in rb if any(row)]
    return ra == rb


def to_elements(field: Field, mat) -> list[list[Element]]:
    return [[Element(field, x) for x in row] for row in mat]


def from_elements(mat: list[list[Element]]) -> Matrix:
    return [[x.code for x in row] for row in mat]
