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


def _echelon(rows: list[list], ncols: int) -> tuple:
    """(rank, signed last pivot) of the fraction-free echelon form of integral rows.

    Bareiss elimination that skips a column with no pivot; the last pivot
    carries the sign of the row swaps.  At full rank on a square matrix no
    column is skipped, and the signed last pivot is the determinant.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    rank, prev, swaps = 0, 1, 0
    for col in range(ncols):
        for i in range(rank, nrows):
            if m[i][col] != 0:
                break
        else:
            continue
        if i != rank:
            m[rank], m[i] = m[i], m[rank]
            swaps += 1
        row_k = m[rank]
        pivot = row_k[col]
        for i in range(rank + 1, nrows):
            row_i = m[i]
            aic = row_i[col]
            for j in range(col + 1, ncols):
                # exact by Bareiss: prev divides the numerator
                row_i[j] = (pivot * row_i[j] - aic * row_k[j]) // prev
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank, -prev if swaps % 2 else prev


def det_int(rows: list[list]):
    """Determinant of a square integral matrix; 1 for no rows."""
    rank, pivot = _echelon(rows, len(rows))
    return pivot if rank == len(rows) else 0


def rank_int(rows: list[list], ncols: int) -> int:
    """Rank of an integral matrix with ncols columns."""
    return _echelon(rows, ncols)[0]


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
