import math
import random

import pytest

from fixture_builders import (
    conjugated,
    genus1_diagonal,
    genus2_fuchsian,
    genus2_solved,
    genus2_swap,
)
from tautclass.exactmath import Matrix
from tautclass.oracle import OracleError, rotation_euler


def _mm(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)
    ]


def _inv(m):
    d = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return [[m[1][1] / d, -m[0][1] / d], [-m[1][0] / d, m[0][0] / d]]


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
    assert abs(rotation_euler([a, b, a2, b2], relator_tol=1e-7)) == 1


def test_conjugation_invariance():
    mats = genus2_fuchsian().float_matrices()
    base = rotation_euler(mats)
    rng = random.Random(1)
    found = 0
    while found < 10:
        g = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        if det <= 0:
            continue
        found += 1
        conj = [_mm(_mm(g, m), _inv(g)) for m in mats]
        assert rotation_euler(conj, relator_tol=1e-5) == base


@pytest.mark.parametrize("g", [((4, 29), (3, 22)), ((7, 22), (6, 19))])
def test_large_entry_conjugates_agree_with_the_exact_value(g):
    """Entries up to 1232/3, relator residuals 2.2e-9 and 1.1e-8: the tolerance
    grows with the generators, so the oracle still answers."""
    from tautclass.complexes import surface_complex
    from tautclass.flatbundles import (
        Selector,
        bundle_from_surface_rep,
        evaluate_class,
        random_generic_section,
    )

    rep = conjugated(genus1_diagonal(), Matrix(g))
    sc, z = surface_complex(1)
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
    exact = evaluate_class(bundle, random_generic_section(bundle, seed=0), Selector.parse("eu0"), z)
    assert rotation_euler(rep.float_matrices()) == exact == 0


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
    from tautclass.complexes import surface_complex
    from tautclass.flatbundles import (
        Selector,
        bundle_from_surface_rep,
        evaluate_class,
        random_generic_section,
    )

    sc, z = surface_complex(2)
    reps = [genus2_swap(), genus2_fuchsian()] + [genus2_solved(i) for i in (1, 2)]
    for rep in reps:
        bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
        s = random_generic_section(bundle, seed=1)
        exact = evaluate_class(bundle, s, Selector.parse("eu0"), z)
        assert rotation_euler(rep.float_matrices()) == exact
