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
    column k-1, about (n+1) 2^n products on n+1 rows, as straight-line code
    generated once per (rows, n).  On ints in [-9, 9], 2-vCPU x86_64: (6, 4)
    takes 1.1 ms to generate and 4.2 us a call; (10, 8) 21 ms, with a 6.7 MB
    compile peak, and 138 us a call against 973 us for det_int per subset.
    At n = 9 a call still wins (149 us against 315 us on 10 rows), but the
    generation cost doubles with each n (43 ms and 14 MB on 11 rows): above
    8, each minor is one det_int.
    """
    m = len(rows)
    if not 0 < n <= min(m, SWEEP_MAX_N):
        return [det_int([rows[i] for i in s]) for s in combinations(range(m), n)]
    return _sweep(m, n)(*rows)


def maximal_minors_int(rows: list[list]) -> list:
    """D_j = det of the n+1 integral rows in K^n without row j, for j = 0..n.

    ``combinations`` drops row n first, so D is ``minors_int``'s list reversed.
    """
    return minors_int(rows, len(rows) - 1)[::-1]


@lru_cache(maxsize=32, typed=True)  # typed: (3.0, 2) misses the (3, 2) code and is refused
def _sweep(m: int, n: int):
    """``minors_int`` of m rows for n, as straight-line code in r0..r{m-1}.

    One assignment per k-subset S: sum_p (-1)^(p+k-1) r_{S[p]}[k-1] det(S
    without S[p]).  The source is built from the ints (m, n) alone.
    """
    if not (type(m) is int and type(n) is int and 1 <= n <= min(m, SWEEP_MAX_N)):
        raise ValueError(f"no sweep for m={m!r}, n={n!r}")
    lines = [f"def sweep({', '.join(f'r{i}' for i in range(m))}):"]
    for col in range(n):  # each entry read once, into e{row}_{col}
        targets = ", ".join(f"e{i}_{col}" for i in range(m))
        lines.append(f" {targets} = {', '.join(f'r{i}[{col}]' for i in range(m))}")
    name = {(i,): f"e{i}_0" for i in range(m)}
    for col in range(1, n):
        level = {s: f"d{col}_{t}" for t, s in enumerate(combinations(range(m), col + 1))}
        for s, var in level.items():
            terms = [f"e{i}_{col} * {name[s[:p] + s[p + 1 :]]}" for p, i in enumerate(s)]
            terms = sorted(f"{'+-'[(p + col) % 2]} {x}" for p, x in enumerate(terms))
            lines.append(f" {var} = {' '.join(terms)[2:]}")  # + leads: QuadExt has no unary +
        name = level
    lines.append(f" return [{', '.join(name.values())}]")
    exec("\n".join(lines), namespace := {})
    return namespace["sweep"]
