"""Genericity and relations read from integer minors, against the true-value oracles.

``_check_simplex_partial`` and ``scalar_set`` read the maximal minors of
the lifts M v and weigh minor i by mu_i = lam_i times the factor that
made lift i integral, where M v / lam is the true transported value.
The oracles ``unique_relation`` and ``is_linearly_generic`` run on the
true ``corner_values`` instead; both must decide the same and give the
same scalars, on bundles whose transports have lam != 1, over Q(sqrt 2),
in rank 4, and on Fraction-valued sections.  The package checks top
simplices only; the oracle walks every lower face of a passing one and
finds its corners independent.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import rep_path
from fixture_builders import holonomy, sphere_complex, standard_simplex_complex
from test_sampling_scope import sphere_bundle, strip_bundle, _sl2
from tautclass.cli import _load_bundle
from tautclass.complexes import product_complex
from tautclass.configs import GenericityError
from tautclass.exactmath import (
    LinearGenericityError,
    Matrix,
    QuadraticField,
    is_linearly_generic,
    unique_relation,
)
from tautclass.flatbundles import (
    FlatBundle,
    Section,
    _check_simplex_partial,
    is_generic_section,
    product_bundle,
    random_generic_section,
    scalar_set,
)

QUAD = QuadraticField(2)


def _fixture(name):
    return _load_bundle(rep_path(f"{name}.json"))[3]


def _quad_sphere_bundle(seed=0):
    """The sphere with holonomy g_b g_a^-1 for random upper-triangular g_v in SL(2, Q(sqrt 2))."""
    rng = random.Random(seed)
    r = QUAD.from_pair(0, 1)
    cx, _ = sphere_complex()
    g = []
    for _ in range(cx.num_vertices):
        x = (1 + r) * Fraction(rng.randint(1, 3), rng.randint(1, 3))
        y = Fraction(rng.randint(-3, 3), rng.randint(1, 2)) + rng.randint(-1, 1) * r
        g.append(Matrix([[x, y], [0, 1 / x]]))
    hol = {}
    for e, (a, b) in enumerate(cx.vertices[1]):
        hol[e] = g[b] @ g[a].inverse()
    return FlatBundle(cx, 2, "SL", hol, field=QUAD)


def _product_bundle():
    a, b = _fixture("g2_fuchs"), _fixture("g2_solved_3")
    return product_bundle(product_complex(a.base, b.base), a, b)


# name -> (bundle, support of the n-simplices checked; None for all)
BUNDLES = {
    "g2_fuchs": (_fixture("g2_fuchs"), None),
    "g2_solved_3": (_fixture("g2_solved_3"), None),
    "g1_diag": (_fixture("g1_diag"), None),
    "strip": (strip_bundle(12, _sl2, seed=4), None),
    "sphere": (sphere_bundle(seed=2), None),
    "quad_sphere": (_quad_sphere_bundle(), None),
    "product": (_product_bundle(), range(0, 216, 9)),
}


def _max_scale(bundle):
    """The largest lam of an edge transport lam * h^-1 (h a block sum over a product)."""
    return max(holonomy(bundle, e).scaled_inverse()[1] for e in range(len(bundle.base.faces[1])))


def _random_values(bundle, rng, bound):
    """A nonzero vector per vertex with entries in [-bound, bound] (pairs over Q(sqrt 2))."""
    values = {}
    for v in range(bundle.base.num_vertices):
        vec = (0,) * bundle.n
        while not any(vec):
            if bundle.field == QUAD:
                vec = tuple(
                    QUAD.from_pair(rng.randint(-bound, bound), rng.randint(-bound, bound))
                    for _ in range(bundle.n)
                )
            else:
                vec = tuple(rng.randint(-bound, bound) for _ in range(bundle.n))
        values[v] = vec
    return values


def _planted_values(bundle, rng):
    """Values s_v = h(0, v) u_v for small u_v, on a sphere bundle.

    The sphere's holonomy is a gauge, g_b g_a^-1, so every simplex sees
    one common linear image of the u_v: parallel and zero-sum corner
    tuples are frequent.
    """
    edges = {v: e for e, v in enumerate(bundle.base.vertices[1])}
    small = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]
    values = {0: rng.choice(small)}
    for v in range(1, bundle.base.num_vertices):
        values[v] = holonomy(bundle, edges[0, v]).apply(rng.choice(small))
    return values


def _oracle_partial(bundle, s, assigned, d, sid, mode):
    """The decision on the true corner values of the assigned vertices."""
    n = bundle.n
    verts = bundle.base.vertices[d][sid]
    tup = [x for x, v in zip(bundle.corner_values(s, d, sid), verts) if v in assigned]
    if len(tup) <= n:
        return not tup or is_linearly_generic(tup, n)
    try:
        _, zero_sum = unique_relation(tup)
    except LinearGenericityError:
        return False
    return not (mode == "strong" and zero_sum)


def _oracle_scalar_set(bundle, s, support):
    n = bundle.n
    out = set()
    for sid in support:
        coeffs, zero_sum = unique_relation(bundle.corner_values(s, n, sid))
        assert not zero_sum
        for size in range(1, n + 1):
            out |= {sum(coeffs[i] for i in subset) for subset in combinations(range(n + 1), size)}
    return out


def _tops(bundle, support):
    n = bundle.n
    return sorted(support) if support is not None else range(len(bundle.base.faces[n]))


def _compare_partial(bundle, s, support, rng):
    """Both modes on every top simplex in scope, with all and with a random part assigned.

    Returns the decisions (basic, strong) seen, to show that the cases mattered.
    """
    seen = set()
    for sid in _tops(bundle, support):
        verts = set(bundle.base.vertices[bundle.n][sid])
        for assigned in (verts, {v for v in verts if rng.random() < 0.6}):
            values = {v: s.values[v] for v in assigned}
            decisions = []
            for mode in ("basic", "strong"):
                got = _check_simplex_partial(bundle, values, sid, mode)
                assert got == _oracle_partial(bundle, s, assigned, bundle.n, sid, mode), (
                    sid, mode, values,
                )
                decisions.append(got)
            seen.add(tuple(decisions))
    return seen


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_partial_checks_match_the_true_value_oracle(name):
    bundle, support = BUNDLES[name]
    assert _max_scale(bundle) > 1  # the scales lam must weigh in
    rng = random.Random(name)
    seen = set()
    for _ in range(10):
        # small entries give degenerate and zero-sum tuples
        s = Section(_random_values(bundle, rng, bound=1))
        seen |= _compare_partial(bundle, s, support, rng)
        if "sphere" in name:
            seen |= _compare_partial(bundle, Section(_planted_values(bundle, rng)), None, rng)
    assert {(True, True), (False, False)} <= seen


def _lower_faces(cx, d, sid):
    """The faces of dimension >= 1 below simplex (d, sid), walked level by level."""
    level, faces = {sid}, set()
    for k in range(d, 1, -1):
        level = {f for x in level for f in cx.faces[k][x]}
        faces |= {(k - 1, f) for f in level}
    return faces


def _face_implications(bundle, s, support, rng):
    """(top passes, every lower face passes) per top simplex, on a random part of s.

    A face's corners are some of the top simplex's corners under one
    invertible transport, so a passing top simplex must have no failing
    face; the faces are read by the oracle on the true corner values.
    """
    out = Counter()
    for sid in _tops(bundle, support):
        verts = set(bundle.base.vertices[bundle.n][sid])
        assigned = {v for v in verts if rng.random() < 0.7}
        values = {v: s.values[v] for v in assigned}
        top = _check_simplex_partial(bundle, values, sid, "basic")
        faces = all(
            _oracle_partial(bundle, s, assigned, d, f, "basic")
            for d, f in _lower_faces(bundle.base, bundle.n, sid)
        )
        out[top, faces] += 1
    return out


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_a_generic_top_simplex_has_independent_lower_faces(name):
    bundle, support = BUNDLES[name]
    rng = random.Random(name)
    seen = Counter()
    for _ in range(10):
        s = Section(_random_values(bundle, rng, bound=1))
        seen += _face_implications(bundle, s, support, rng)
        if "sphere" in name:
            seen += _face_implications(bundle, Section(_planted_values(bundle, rng)), None, rng)
    assert seen[True, False] == 0
    # the face oracle does fail, where the top simplex fails too
    assert seen[True, True] and seen[False, False]


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_scalar_sets_match_the_true_value_oracle(name):
    bundle, support = BUNDLES[name]
    for seed in range(3):
        s = random_generic_section(bundle, seed, "strong", support=support)
        assert scalar_set(bundle, s, support) == _oracle_scalar_set(bundle, s, _tops(bundle, support))


def _engineered_bundle():
    """The standard 2-simplex; its transports have scales 2, 6 and 3 (edges 01, 02, 12)."""
    cx = standard_simplex_complex(2)
    edges = {v: e for e, v in enumerate(cx.vertices[1])}
    h01 = Matrix([[Fraction(1, 2), 0], [0, 2]])
    h12 = Matrix([[Fraction(1, 3), 0], [0, 3]])
    hol = {edges[0, 1]: h01, edges[1, 2]: h12, edges[0, 2]: h12 @ h01}
    return FlatBundle(cx, 2, "SL", hol), hol[edges[0, 1]], hol[edges[0, 2]]


def test_engineered_zero_sum_is_rejected_only_in_strong_mode():
    bundle, h01, h02 = _engineered_bundle()
    # true corner values t0, t1, t2 with t0 - 2 t1 + t2 = 0: all three minors are
    # nonzero and the coefficients sum to zero; a section value is h t
    t = [(1, 0), (0, 1), (-1, 2)]
    s = Section({0: t[0], 1: h01.apply(t[1]), 2: h02.apply(t[2])})
    assert bundle.corner_values(s, 2, 0) == t
    assert [bundle.transport(e)[1] for e in range(3)] == [2, 6, 3]
    # the lifts alone sum to nonzero: only the scales see the zero sum
    assert not unique_relation([lift for lift, _ in bundle._corners(s.values, 2, 0)])[1]
    assert unique_relation(bundle.corner_values(s, 2, 0))[1]
    assert _check_simplex_partial(bundle, s.values, 0, "basic")
    assert not _check_simplex_partial(bundle, s.values, 0, "strong")
    assert is_generic_section(bundle, s, "basic")
    assert not is_generic_section(bundle, s, "strong")
    with pytest.raises(GenericityError):
        scalar_set(bundle, s)


def test_fraction_valued_section_matches_the_oracle():
    bundle, _, _ = _engineered_bundle()
    out = Section({0: (4, 4), 1: (Fraction(25, 66), Fraction(-1, 66)), 2: (Fraction(43, 6), 6)})
    assert (True, True) in _compare_partial(bundle, out, None, random.Random(0))
    assert is_generic_section(bundle, out, "strong")
    assert scalar_set(bundle, out) == _oracle_scalar_set(bundle, out, [0])
