"""The integer kernels against a plain Fraction Gaussian-elimination oracle."""

import random
from fractions import Fraction

import pytest

from tautclass._kernels import det_int, rank_int


def _gauss_det(rows):
    """Plain fraction-based Gaussian elimination, the independent oracle."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


def _gauss_rank(rows, ncols):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            for j in range(col, ncols):
                m[i][j] -= f * m[rank][j]
        rank += 1
    return rank


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
def test_det_against_gauss_oracle(n):
    rng = random.Random(n)
    for _ in range(40):
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == _gauss_det(m)


def test_rank_against_gauss_oracle():
    rng = random.Random(1)
    for _ in range(200):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        assert rank_int(m, nc) == _gauss_rank(m, nc)


def test_singular_and_degenerate_ranks():
    m = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
    assert det_int(m) == 0
    assert rank_int(m, 3) == 2
    assert det_int([]) == 1
    assert rank_int([], 0) == 0

