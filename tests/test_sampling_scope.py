"""Sampling on complexes with many vertices.

The surface models have one vertex, so there the star of vertex 0 is
the whole scope.  A strip of triangles and the sphere have many
vertices with small stars: a draw at a vertex must check only the
top simplices at that vertex and still produce exactly the section that
re-checking the whole scope, every lower face included in mode
"strong", produces.
"""

import random
from fractions import Fraction

import pytest

from fixture_builders import sphere_complex, transport_to_base
from tautclass import flatbundles
from tautclass.complexes import DeltaComplex
from tautclass.exactmath import Matrix, is_linearly_generic, unique_relation
from tautclass.flatbundles import (
    FlatBundle,
    Section,
    is_generic_section,
    random_generic_section,
)


def _sl2(rng):
    """A random non-scalar element of SL(2, Q) with small entries."""
    while True:
        a = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        b, c = (Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2))
        m = Matrix([[a, b], [c, (1 + b * c) / a]])
        if b or c or a != 1:
            return m


def strip_bundle(triangles, gen, seed=0):
    """Triangles (i, i+1, i+2), each glued to the next along (i+1, i+2)."""
    rng = random.Random(seed)
    t = triangles
    # edge (i, i+1) has id i, edge (i, i+2) has id t+1+i
    edges = [(i, i + 1) for i in range(t + 1)] + [(i, i + 2) for i in range(t)]
    cx = DeltaComplex(
        [[(i,) for i in range(t + 2)], edges, [(i, i + 1, i + 2) for i in range(t)]],
        [[()] * (t + 2), [(b, a) for a, b in edges], [(i + 1, t + 1 + i, i) for i in range(t)]],
    )
    hol = {i: gen(rng) for i in range(t + 1)}
    for i in range(t):
        hol[t + 1 + i] = hol[i + 1] @ hol[i]  # h02 = h12 h01
    return FlatBundle(cx, 2, "SL", hol)


def sphere_bundle(seed=0):
    """The sphere with holonomy g_b g_a^-1 on the edge (a, b), for random g_v."""
    rng = random.Random(seed)
    cx, _ = sphere_complex()
    g = [_sl2(rng) for _ in range(cx.num_vertices)]
    hol = {}
    for e, (a, b) in enumerate(cx.vertices[1]):
        hol[e] = g[b] @ g[a].inverse()
    return FlatBundle(cx, 2, "SL", hol)


BUNDLES = {
    "strip": strip_bundle(30, _sl2),
    "sphere": sphere_bundle(),
}


def _scope(bundle, mode):
    """Every top simplex, and in mode "strong" every simplex of dimension >= 1."""
    n, cx = bundle.n, bundle.base
    dims = range(1, n + 1) if mode == "strong" else [n]
    return [(d, sid) for d in dims for sid in range(len(cx.faces[d]))]


def _partial_generic(bundle, values, d, sid, mode, transports):
    n = bundle.n
    tup = [
        transports[d, sid, c].apply(values[v])
        for c, v in enumerate(bundle.base.vertices[d][sid])
        if v in values
    ]
    if len(tup) <= n:
        return not tup or is_linearly_generic(tup, n)
    try:
        _, zero_sum = unique_relation(tup)
    except ValueError:
        return False
    return not (mode == "strong" and zero_sum)


def _full_scope_oracle(bundle, seed, mode, bound=9):
    """Rejection sampling that re-checks the whole scope after every draw."""
    n = bundle.n
    rng = random.Random(seed)
    scope = _scope(bundle, mode)
    transports = {
        (d, sid, c): transport_to_base(bundle, d, sid, c)
        for d, sid in scope
        for c in range(d + 1)
    }
    values = {}
    for v in range(bundle.base.num_vertices):
        m, rejections = bound, 0
        while True:
            assert rejections <= 1000 * n
            vec = (0,) * n
            while not any(vec):
                vec = tuple(rng.randint(-m, m) for _ in range(n))
            values[v] = vec
            if all(
                _partial_generic(bundle, values, d, sid, mode, transports)
                for d, sid in scope
            ):
                break
            rejections += 1
            if rejections % (50 * n) == 0 and m < bound << 12:
                m *= 2
    return Section(values)


@pytest.mark.parametrize("mode", ["basic", "strong"])
@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_star_sampling_matches_full_scope_oracle(name, mode):
    bundle = BUNDLES[name]
    for seed in range(20):
        s = random_generic_section(bundle, seed, mode)
        assert s == _full_scope_oracle(bundle, seed, mode), seed
        assert is_generic_section(bundle, s, mode)


@pytest.mark.parametrize("mode", ["basic", "strong"])
@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_each_draw_checks_only_the_star_of_its_vertex(monkeypatch, name, mode):
    bundle = BUNDLES[name]
    real = flatbundles._check_simplex_partial
    checked = {}

    def spy(bundle, values, sid, mode):
        v = next(reversed(values))  # the vertex being drawn was assigned last
        checked.setdefault(v, set()).add(sid)
        return real(bundle, values, sid, mode)

    monkeypatch.setattr(flatbundles, "_check_simplex_partial", spy)
    for seed in range(3):
        random_generic_section(bundle, seed, mode)
    n, cx = bundle.n, bundle.base
    assert sorted(checked) == list(range(cx.num_vertices))
    for v, sids in checked.items():
        # the n-simplices at v, in mode "strong" too: no lower face is checked
        star = {sid for sid, verts in enumerate(cx.vertices[n]) if v in verts}
        assert sids == star, v
    assert max(len(s) for s in checked.values()) < len(cx.faces[n])


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_a_partial_read_is_the_full_read_at_the_assigned_corners(name):
    bundle = BUNDLES[name]
    s = random_generic_section(bundle, seed=4)
    rng = random.Random(1)
    for d, level in enumerate(bundle.base.vertices):
        for sid, verts in enumerate(level):
            full = bundle._corners(s.values, d, sid)
            assert len(full) == d + 1
            assigned = {v: x for v, x in s.values.items() if rng.random() < 0.5}
            expected = [c for c, v in zip(full, verts) if v in assigned]
            assert bundle._corners(assigned, d, sid) == expected
