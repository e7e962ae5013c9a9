import math
import random
from functools import lru_cache

import pytest

from conftest import FIXTURES
from fixture_builders import (
    conjugated,
    genus1_diagonal,
    genus2_fuchsian,
    genus2_solved,
    genus2_swap,
)
from tautclass.complexes import surface_complex
from tautclass.exactmath import Matrix
from tautclass.flatbundles import (
    Selector,
    bundle_from_surface_rep,
    evaluate_class,
    random_generic_section,
)
from tautclass.oracle import OracleError, _CircleLift, _normalize, rotation_euler
from tautclass.reps import load_rep
from test_flatbundles import RANK2_FIXTURES


def _mm(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)
    ]


def _inv(m):
    d = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return [[m[1][1] / d, -m[0][1] / d], [-m[1][0] / d, m[0][0] / d]]


def _exact_eu0(rep, seed=0):
    sc, z = surface_complex(rep.genus)
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
    return evaluate_class(bundle, random_generic_section(bundle, seed=seed), Selector.parse("eu0"), z)


@lru_cache(maxsize=None)
def _fixture(name):
    rep = load_rep(str(FIXTURES / name))
    return rep, _exact_eu0(rep)


@pytest.mark.parametrize("name", RANK2_FIXTURES)
def test_each_generator_lift_is_an_increasing_degree_one_lift_with_exact_inverse(name):
    rep, _ = _fixture(name)
    rng = random.Random(name)
    grid = [k * math.tau / 256 - math.tau for k in range(3 * 256)]
    for mat in rep.float_matrices():
        lift = _CircleLift(_normalize(mat))
        for _ in range(50):
            t = rng.uniform(-2 * math.tau, 2 * math.tau)
            assert abs(lift.inverse(lift(t)) - t) < 1e-9
            assert abs(lift(t + math.tau) - lift(t) - math.tau) < 1e-9
        values = [lift(t) for t in grid]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_commuting_diagonal_pair_gives_zero():
    assert rotation_euler(genus1_diagonal().float_matrices()) == 0


def test_swap_family_gives_zero():
    assert rotation_euler(genus2_swap().float_matrices()) == 0


def test_fuchsian_doubling_gives_maximal_value():
    # a flat plane bundle over the genus-2 surface has |Euler| <= 1;
    # the doubled one-holed-torus holonomy attains it
    assert abs(rotation_euler(genus2_fuchsian().float_matrices())) == 1


def test_numeric_irrational_doubling():
    # same doubling construction with irrational entries, built in floats
    r2 = math.sqrt(2)
    a = [[1 + r2, 0], [0, 1 / (1 + r2)]]
    b = [[1.5, 1], [2, 2]]
    c = _mm(_mm(a, b), _mm(_inv(a), _inv(b)))
    tr = c[0][0] + c[1][1]
    assert tr < -2
    s = math.sqrt(tr * tr - 4)
    p = (c[0][0] - c[1][1] + s) / (2 * c[1][0])
    q = (c[0][0] - c[1][1] - s) / (2 * c[1][0])
    centre, radius = (p + q) / 2, abs(q - p) / 2
    t = 0.7
    x = centre + radius * (1 - t * t) / (1 + t * t)
    y = radius * 2 * t / (1 + t * t)
    j = [[x / y, -(x * x + y * y) / y], [1 / y, -x / y]]
    a2, b2 = _mm(_mm(j, a), _inv(j)), _mm(_mm(j, b), _inv(j))
    assert abs(rotation_euler([a, b, a2, b2])) == 1


@pytest.mark.parametrize("name", RANK2_FIXTURES)
def test_conjugation_invariance(name):
    rep, exact = _fixture(name)
    mats = rep.float_matrices()
    assert rotation_euler(mats) == exact
    rng = random.Random(1)
    found = 0
    while found < 10:
        g = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        if det <= 0:
            continue
        found += 1
        conj = [_mm(_mm(g, m), _inv(g)) for m in mats]
        assert rotation_euler(conj) == exact


@pytest.mark.parametrize("g", [((4, 29), (3, 22)), ((7, 22), (6, 19))])
def test_large_entry_conjugates_agree_with_the_exact_value(g):
    """Entries up to 1232/3, relator residuals 2.2e-9 and 1.1e-8: the tolerance
    grows with the generators, so the oracle still answers."""
    rep = conjugated(genus1_diagonal(), Matrix(g))
    assert rotation_euler(rep.float_matrices()) == _exact_eu0(rep) == 0


def test_inverse_word_negates():
    mats = genus2_fuchsian().float_matrices()
    base = rotation_euler(mats)
    # [A,B]^-1 = [B,A]: reversing and swapping realizes the inverse relator
    inverse_word = [mats[3], mats[2], mats[1], mats[0]]
    assert rotation_euler(inverse_word) == -base


def test_relator_gate():
    a = [[1.0, 1.0], [0.0, 1.0]]
    b = [[1.0, 0.0], [1.0, 1.0]]
    with pytest.raises(OracleError):
        rotation_euler([a, b])  # free pair: relator far from identity


def test_determinant_gate():
    bad = [[1.0, 0.0], [0.0, -1.0]]
    with pytest.raises(OracleError):
        rotation_euler([bad, bad])


def test_exact_agreement_on_fixtures():
    reps = [genus2_swap(), genus2_fuchsian()] + [genus2_solved(i) for i in (1, 2)]
    for rep in reps:
        assert rotation_euler(rep.float_matrices()) == _exact_eu0(rep, seed=1)
