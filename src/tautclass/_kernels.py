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

from functools import lru_cache
from itertools import combinations

SWEEP_MAX_N = 8  # the largest subset size that minors_int sweeps


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


def minors_int(rows: list[list], n: int) -> list:
    """det of every n-subset of the integral rows, in ``combinations`` order.

    For 0 < n <= 8 one division-free sweep: the k x k leading minors of all
    row subsets come from the (k-1) x (k-1) ones by Laplace expansion along
    column k-1, about (n+1) 2^n products on n+1 rows.  On ints that beats
    det_int per subset at n = 8, not at n = 9, and its plan would take about
    5 MB at n = 12: above 8, each minor is one det_int and no plan is built.
    """
    m = len(rows)
    if not 0 < n <= min(m, SWEEP_MAX_N):
        return [det_int([rows[i] for i in s]) for s in combinations(range(m), n)]
    prev = [r[0] for r in rows]
    for col, level in enumerate(_sweep_plan(m, n), 1):
        c = [r[col] for r in rows]
        c += [-x for x in c]  # c[i + m] = -c[i]
        cur = []
        for terms in level:
            acc = 0
            for i, j in terms:
                acc += c[i] * prev[j]
            cur.append(acc)
        prev = cur
    return prev


@lru_cache(maxsize=32)
def _sweep_plan(m: int, n: int) -> tuple:
    """Per column k-1 (k = 2..n), per k-subset S in ``combinations`` order: (i, index
    of S without row i) for the rows i of S, i + m where the sign (-1)^(p+k-1) is -."""
    levels, index = [], {(i,): i for i in range(m)}
    for k in range(2, n + 1):
        subsets = list(combinations(range(m), k))
        levels.append(tuple(
            tuple((i + m * ((p + k - 1) % 2), index[s[:p] + s[p + 1 :]]) for p, i in enumerate(s))
            for s in subsets
        ))
        index = {s: t for t, s in enumerate(subsets)}
    return tuple(levels)
