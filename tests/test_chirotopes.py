"""The boundary relations of modes P and P+ on every configuration type, for n = 1..4.

In these modes ``symbol_sum`` reads only the signs of the maximal minors, so
the boundary sum of a generic (n+2)-tuple in K^n depends only on its
chirotope: the signs of its C(n+2, n) minors, in ``combinations`` order.
The uniform rank-n chirotopes on m = n+2 elements are the Gale duals of the
rank-2 ones, and all of them are realizable (Bjorner, Las Vergnas,
Sturmfels, White and Ziegler, *Oriented Matroids*, 1999).  They are the
images of one moment-curve tuple under permutations, sign flips and one
mirror, (m-1)! 2^(m-1) sign vectors in all.  Each is derived from the base
tuple's minors: permuting the vectors permutes the minors up to the sign of
the sorting permutation, and flipping vector i negates the minors that
contain it.
"""

import random
from functools import cache
from itertools import combinations, permutations, product
from math import factorial

import pytest

from tautclass.configs import boundary_sum_from_minors, subset_minors
from tautclass.exactmath import sign

NS = [1, 2, 3, 4]


def _parity(seq):
    """The sign of the permutation that sorts the distinct ``seq``."""
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :])
    return -1 if inversions % 2 else 1


def _chirotope(points, n):
    return tuple(sign(d) for d in subset_minors(points, n).values())


@cache
def _chirotopes(n):
    """The C(n+2, n) subsets in ``combinations`` order, and every chirotope on them."""
    m = n + 2
    subsets = list(combinations(range(m), n))
    index = {s: k for k, s in enumerate(subsets)}
    base = _chirotope([tuple(t**k for k in range(n)) for t in range(1, m + 1)], n)
    flips = [
        tuple(-1 if sum(eps[i] for i in s) % 2 else 1 for s in subsets)
        for eps in product((0, 1), repeat=m)
    ]
    out = set()
    for perm in permutations(range(m)):
        images = [[perm[i] for i in s] for s in subsets]
        moved = [_parity(img) * base[index[tuple(sorted(img))]] for img in images]
        out.update(tuple(x * f for x, f in zip(moved, flip)) for flip in flips)
    out |= {tuple(-x for x in c) for c in out}  # the mirror, new for even n
    return subsets, out


@pytest.mark.parametrize("n", NS)
def test_every_chirotope_is_reached(n):
    m = n + 2
    _, chirotopes = _chirotopes(n)
    assert len(chirotopes) == factorial(m - 1) * 2 ** (m - 1)  # 8, 48, 384, 3840


@pytest.mark.parametrize("n", NS)
def test_every_boundary_relation_vanishes(n):
    subsets, chirotopes = _chirotopes(n)
    for chirotope in chirotopes:
        minors = dict(zip(subsets, chirotope))
        assert boundary_sum_from_minors(minors, n, "P+").is_zero(), chirotope
        if n % 2 == 0:
            assert boundary_sum_from_minors(minors, n, "P") == 0, chirotope


@pytest.mark.parametrize("n", NS)
def test_sampled_tuples_have_no_other_chirotope(n):
    _, chirotopes = _chirotopes(n)
    rng = random.Random(n)
    generic = 0
    for _ in range(300):
        points = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n + 2)]
        chirotope = _chirotope(points, n)
        if 0 in chirotope:
            continue
        generic += 1
        assert chirotope in chirotopes, points
    assert generic >= 100
