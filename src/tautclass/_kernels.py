"""Fraction-free linear-algebra kernels, in plain Python.

These are the hot inner loops of the whole package: every symbol,
genericity test and class evaluation reduces to exact determinants and
ranks of small integral matrices.  Integral means ints over Q and
``QuadExt`` elements with integer parts over Q(sqrt(d)); the two may be
mixed in one matrix.  The Bareiss elimination keeps all intermediate
values integral, and its divisions are exact in any integral domain
(Bareiss 1968), so ``//`` here is exact division: in Z for ints and in
Z[sqrt(d)] for ``QuadExt``.
"""

from __future__ import annotations


def det_int(rows: list[list]):
    """Determinant of a square integral matrix, Bareiss fraction-free."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            aik = row_i[k]
            for j in range(k + 1, n):
                # exact by Bareiss: prev divides the numerator
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def rank_int(rows: list[list], ncols: int) -> int:
    """Rank of an integral matrix via fraction-free echelon reduction."""
    m = [list(r) for r in rows]
    nrows = len(m)
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, nrows):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, nrows):
            row_i = m[i]
            aic = row_i[col]
            for j in range(col + 1, ncols):
                row_i[j] = (pivot * row_i[j] - aic * m[rank][j]) // prev
            row_i[col] = 0
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank
