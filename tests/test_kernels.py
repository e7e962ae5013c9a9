"""The integer kernels against a plain Gaussian-elimination oracle over Q and Q(sqrt d),
and the minors sweep against one ``det_int`` per subset."""

import ast
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from tautclass import _kernels, configs, flatbundles
from tautclass._kernels import (
    SWEEP_MAX_N,
    _sweep,
    det_int,
    maximal_minors_int,
    minors_int,
    rank_int,
)
from tautclass.cli import main
from tautclass.exactmath import QuadExt, clear_denominators


def _field(x):
    return x if isinstance(x, QuadExt) else Fraction(x)


def _gauss_det(rows):
    """Plain Gaussian elimination over Q or Q(sqrt d), the independent oracle."""
    n = len(rows)
    m = [[_field(x) for x in row] for row in rows]
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
    m = [[_field(x) for x in row] for row in rows]
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


def _entry(kind, rng, bound):
    """An int, or an element of Z[sqrt d] for kind "quadD"."""
    if kind == "int":
        return rng.randint(-bound, bound)
    return QuadExt(rng.randint(-bound, bound), rng.randint(-bound, bound), int(kind[4:]))


KINDS = ("int", "quad2", "quad5")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
def test_det_against_gauss_oracle(n):
    for kind in KINDS:
        rng = random.Random(n)
        for _ in range(40):
            m = [[_entry(kind, rng, 9) for _ in range(n)] for _ in range(n)]
            assert det_int(m) == _gauss_det(m), (kind, m)


def test_rank_against_gauss_oracle():
    for kind in KINDS:
        rng = random.Random(1)
        for _ in range(200):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = [[_entry(kind, rng, 3) for _ in range(nc)] for _ in range(nr)]
            assert rank_int(m, nc) == _gauss_rank(m, nc), (kind, m)


def test_singular_and_degenerate_ranks():
    m = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
    assert det_int(m) == 0
    assert rank_int(m, 3) == 2
    m = [[1, 2, 3], [2, 4, 7], [3, 6, 1]]  # column 1 has no pivot
    assert det_int(m) == 0
    assert rank_int(m, 3) == 2
    assert det_int([]) == 1
    assert rank_int([], 0) == 0


def _per_subset(rows, n):
    return [det_int([rows[i] for i in s]) for s in combinations(range(len(rows)), n)]


def _rows(kind, rng, m, n):
    """m integral rows of length n: ints, cleared Fractions, or Z[sqrt d] elements."""
    if kind == "int":
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    if kind == "frac":
        return [
            clear_denominators([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)])[0]
            for _ in range(m)
        ]
    d = int(kind[4:])
    return [[QuadExt(rng.randint(-3, 3), rng.randint(-3, 3), d) for _ in range(n)] for _ in range(m)]


def _check_sweep(rows, n, singular=True):
    assert minors_int(rows, n) == _per_subset(rows, n)
    if singular:  # a repeated row, a zero row, and rows in a hyperplane
        for bad in (rows[:-1] + [rows[0]], rows[:-1] + [[0] * n], [r[:-1] + [0] for r in rows]):
            assert minors_int(bad, n) == _per_subset(bad, n)


# n = 1..9 crosses the cut at SWEEP_MAX_N = 8.  Z[sqrt d] is slow per
# subset, so above n = 5 it runs for d = 2 on n+1 rows, below the cut only
SWEEP_CASES = [(kind, n) for kind in ("int", "frac") for n in range(1, 10)] + [
    (f"quad{d}", n) for d in (2, 3, 5, 7) for n in range(1, 6)
] + [("quad2", n) for n in range(6, 9)]


@pytest.mark.parametrize("kind, n", SWEEP_CASES)
def test_minors_sweep_matches_det_per_subset(kind, n):
    rng = random.Random(n)
    if n > 5 and kind.startswith("quad"):
        _check_sweep(_rows(kind, rng, n + 1, n), n, singular=False)
        return
    for m in (n, n + 1, n + 2, n + 3):
        _check_sweep(_rows(kind, rng, m, n), n)


def test_minors_sweep_edge_sizes():
    assert minors_int([[1, 2], [3, 4]], 0) == [1]
    assert minors_int([[1, 2]], 2) == []
    assert minors_int([[5]], 1) == [5]


@pytest.mark.parametrize("kind", ["int", "quad2"])
@pytest.mark.parametrize("n", range(1, 10))  # 9 > SWEEP_MAX_N: the det_int fallback
def test_maximal_minor_j_drops_row_j(kind, n):
    rng = random.Random(f"maximal-{kind}-{n}")
    for _ in range(3 if kind == "int" else 1):
        rows = _rows(kind, rng, n + 1, n)
        assert maximal_minors_int(rows) == [det_int(rows[:j] + rows[j + 1 :]) for j in range(n + 1)]


def test_the_minor_order_is_reversed_only_in_the_kernels():
    src = Path(__file__).resolve().parents[1] / "src"
    reversals = [
        (path.name, line)
        for path in sorted(src.rglob("*.py"))
        if path.name != "_kernels.py"
        for line in path.read_text().splitlines()
        if "[::-1]" in line
    ]
    assert reversals == []


def test_maximal_minors_order_and_relation_coefficients():
    """D_j drops lift j, and the relation is the per-minor det_int formula."""
    rng = random.Random(3)
    for n in range(1, 6):
        for _ in range(10):
            points = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n + 1)]
            cleared = [clear_denominators(p) for p in points]
            lifts = [lift for lift, _ in cleared]
            dropped = [det_int(lifts[:j] + lifts[j + 1 :]) for j in range(n + 1)]
            assert configs.maximal_minors(points) == dropped
            scales = [rng.randint(1, 5) for _ in points]
            expected = [(-1) ** i * scales[i] * cleared[i][1] * dropped[i] for i in range(n + 1)]
            corners = [(tuple(lift), k * mult) for (lift, mult), k in zip(cleared, scales)]
            assert flatbundles._relation_coefficients(corners) == expected


def test_no_sweep_code_above_the_cut(capsys, monkeypatch):
    """Above n = SWEEP_MAX_N the minors come per subset: the code would grow as 2^n."""
    rng = random.Random(0)
    n = 16
    points = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n + 2)]
    before = _sweep.cache_info()
    minors = configs.subset_minors(points, n)
    assert _sweep.cache_info() == before
    assert len(minors) == 153 and all(minors.values())
    assert SWEEP_MAX_N < 12
    sizes = []
    monkeypatch.setattr(_kernels, "_sweep", lambda m, n: sizes.append(n) or _sweep(m, n))
    assert main(["verify", "euler-boundary", "--n", "12", "--samples", "1"]) == 0
    capsys.readouterr()
    assert all(n <= SWEEP_MAX_N for n in sizes)


def test_sweep_code_is_generated_once_per_shape():
    rng = random.Random(5)
    _sweep.cache_clear()
    shapes = [(m, n) for n in (1, 2, 4) for m in (n, n + 2)]
    for _ in range(3):
        for m, n in shapes:
            minors_int(_rows("int", rng, m, n), n)
    info = _sweep.cache_info()
    assert (info.misses, info.currsize, info.hits) == (len(shapes), len(shapes), 2 * len(shapes))


@pytest.mark.parametrize("m, n", [(3, 0), (2, 3), (12, 9), (3.0, 2), (3, True), ("3", 2), (-1, -1)])
def test_sweep_generator_refuses_other_shapes(m, n):
    with pytest.raises(ValueError, match="no sweep"):
        _sweep(m, n)


def test_exec_and_eval_only_in_the_sweep_generator():
    """The one dynamic-code site is ``_kernels._sweep``, whose source comes from (m, n) alone."""
    sites = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if getattr(node, "id", getattr(node, "attr", None)) in ("exec", "eval"):
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parent[scope]
                sites.append((path.name, getattr(scope, "name", None)))
    assert sites == [("_kernels.py", "_sweep")]
