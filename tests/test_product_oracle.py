"""The direct-sum product bundle against its explicit block-sum oracle,
the table path (``product_eu0``) against the explicit product, and the
explicit product's face-walk cup against the product of the factor values.

``product_bundle`` keeps no holonomy: a lift along a product edge is the
direct sum of the factors' own lifts.  ``explicit_product`` builds the
same bundle as one block-sum matrix per edge and runs it through the
plain triangle check.  Both must give the same true values (lift / scale)
along every product edge and at the corners of every top simplex, and the
same class values.
"""

import random

import pytest

from conftest import rep_path
from fixture_builders import (
    explicit_product,
    mixed_dimension_product,
    sphere_complex,
    sqrt2_conjugated,
)
from test_sampling_scope import sphere_bundle
from tautclass.complexes import cup_evaluate, product_chain, product_complex, surface_complex
from tautclass.configs import GenericityError
from tautclass.exactmath import exact_div
from tautclass.flatbundles import (
    Section,
    Selector,
    bundle_from_surface_rep,
    evaluate_class,
    product_bundle,
    product_eu0,
    random_generic_section,
    random_vector,
    scalar_set,
)
from tautclass.reps import load_rep


def _surface(name, conjugate=False):
    rep = load_rep(rep_path(f"{name}.json"))
    if conjugate:
        rep = sqrt2_conjugated(rep)
    sc, z = surface_complex(rep.genus)
    return bundle_from_surface_rep(sc, rep.matrices, rep.tag, rep.field), z


def _three_factors():
    """g1_diag x g1_diag x g1_diag, the left factor itself a product bundle."""
    e, _ = _surface("g1_diag")
    e2 = product_bundle(product_complex(e.base, e.base), e, e)
    return product_complex(e2.base, e.base), e2, e


def _pair(a, b, conjugate=False):
    (e1, _), (e2, _) = _surface(a, conjugate), _surface(b, conjugate)
    return product_complex(e1.base, e2.base), e1, e2


def _sigma_times_sphere():
    bundle = mixed_dimension_product(load_rep(rep_path("g2_fuchs.json")))[0]
    return (bundle.base, *bundle.factors)


CASES = {
    "g2_fuchs x g2_solved_3": lambda: _pair("g2_fuchs", "g2_solved_3"),
    "g2_swap2 x g2_fuchs": lambda: _pair("g2_swap2", "g2_fuchs"),
    "(g1_diag x g1_diag) x g1_diag": _three_factors,
    "g2_fuchs x S^2": _sigma_times_sphere,
    "sqrt2: g1_diag x g2_swap": lambda: _pair("g1_diag", "g2_swap", conjugate=True),
}


def _true(corner):
    lift, scale = corner
    return tuple(exact_div(x, scale) for x in lift)


@pytest.mark.parametrize("name", sorted(CASES))
def test_direct_sum_lifts_are_the_block_sum_transports(name):
    px, e1, e2 = CASES[name]()
    bundle, oracle = product_bundle(px, e1, e2), explicit_product(px, e1, e2)
    assert (bundle.n, bundle.tag, bundle.field) == (oracle.n, oracle.tag, oracle.field)
    rng = random.Random(name)
    values = {v: random_vector(bundle.field, rng, bundle.n, 9) for v in range(px.num_vertices)}
    values = {v: vec for v, vec in values.items() if any(vec)}
    for eid in (None, *range(len(px.faces[1]))):
        vec = values[rng.choice(sorted(values))]
        assert _true(bundle._lifted(eid, vec)) == _true(oracle._lifted(eid, vec)), eid
    s = Section(values)
    top = px.dimension
    for sid in range(len(px.faces[top])):
        assert bundle.corner_values(s, top, sid) == oracle.corner_values(s, top, sid), sid


# factor pairs by name; "sphere" is a rank-2 bundle over the four-vertex sphere
PAIRS = [
    ("g2_fuchs", "g2_fuchs"),
    ("g2_fuchs", "g2_solved_3"),
    ("g2_swap2", "g2_fuchs"),
    ("g2_solved_5", "g2_swap"),
    ("g1_diag", "g1_diag2"),
    ("sphere", "g2_fuchs"),
]
SELECTORS = [Selector.parse(text) for text in ("eu0", "eu", "euplus")]
EU0 = SELECTORS[0]


def _factor(name):
    if name == "sphere":
        return sphere_bundle(seed=3), sphere_complex()[1]
    return _surface(name)


def _product_section(rng, e1, e2):
    """Strong factor sections with disjoint scalar sets, summed at every product vertex."""
    s1 = random_generic_section(e1, seed=rng.randint(0, 10**6), mode="strong")
    for _ in range(10):
        s2 = random_generic_section(e2, seed=rng.randint(0, 10**6), mode="strong")
        if not scalar_set(e1, s1) & scalar_set(e2, s2):
            break
    nv = e2.base.num_vertices  # product vertex a * nv + b lies over (a, b)
    values = {a * nv + b: u + w for a, u in s1.values.items() for b, w in s2.values.items()}
    return Section(values)


def _value(bundle, s, selector, z):
    try:
        return evaluate_class(bundle, s, selector, z, detail=True)
    except GenericityError as exc:
        return str(exc)


@pytest.mark.parametrize("a, b", PAIRS, ids=[f"{a} x {b}" for a, b in PAIRS])
def test_direct_sum_evaluates_as_the_block_sum(a, b):
    (e1, z1), (e2, z2) = _factor(a), _factor(b)
    px = product_complex(e1.base, e2.base)
    bundle, oracle = product_bundle(px, e1, e2), explicit_product(px, e1, e2)
    zz = product_chain(px, z1, z2)
    generic = 0
    for seed in range(10):
        s = _product_section(random.Random(seed), e1, e2)
        for selector in SELECTORS:
            got = _value(bundle, s, selector, zz)
            assert got == _value(oracle, s, selector, zz), (seed, selector)
            generic += not isinstance(got, str)
    assert generic >= 8 * len(SELECTORS)


def _explicit_eu0(px, zz, e1, s1, e2, s2):
    """(eu0, top simplices) of the product bundle on the product chain.

    The section is s1(a) + s2(b) at product vertex (a, b).
    """
    nv = e2.base.num_vertices
    s = Section({a * nv + b: u + w for a, u in s1.values.items() for b, w in s2.values.items()})
    return evaluate_class(product_bundle(px, e1, e2), s, EU0, zz), zz.support_size()


def _explicit_cup(px, zz, e1, s1, z1, e2, s2, z2):
    """<T0 cup T0, z1 x z2> by the face walk on the explicit product.

    Each product simplex is walked to its front and back faces (``cup_evaluate``),
    and T0 is read there from the factors' own per-simplex symbols.
    """
    n1, n2 = e1.n, e2.n
    symbols1 = evaluate_class(e1, s1, EU0, z1, detail=True)[1]
    symbols2 = evaluate_class(e2, s2, EU0, z2, detail=True)[1]

    def alpha(pid):
        p, sid, q, _, _ = px.cell_info(n1, pid)
        return symbols1[sid].coefficients[0] if (p, q) == (n1, 0) else 0

    def beta(pid):
        p, _, q, sid2, _ = px.cell_info(n2, pid)
        return symbols2[sid2].coefficients[0] if (p, q) == (0, n2) else 0

    return cup_evaluate(px, n1, alpha, n2, beta, zz)


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except GenericityError as exc:
        return str(exc)


# a four-vertex sphere factor on either side and on both
TABLE_PAIRS = [
    ("g2_fuchs", "g2_fuchs"),
    ("g2_fuchs", "sphere"),
    ("sphere", "g1_diag"),
    ("sphere", "sphere"),
    ("g2_fuchs", "g2_solved_3"),
    ("g2_swap2", "g2_fuchs"),
    ("g1_diag", "g1_diag2"),
]


@pytest.mark.parametrize("a, b", TABLE_PAIRS, ids=[f"{a} x {b}" for a, b in TABLE_PAIRS])
def test_table_path_is_the_explicit_product(a, b):
    """The table's values are the explicit product's, and so is the reported cup value.

    ``product`` reports the cup value as euA euB (Eilenberg-Zilber); the face walk
    on the explicit product must give the same.
    """
    (e1, z1), (e2, z2) = _factor(a), _factor(b)
    px = product_complex(e1.base, e2.base)
    zz = product_chain(px, z1, z2)
    generic = 0
    for seed in range(10):
        rng = random.Random(seed)
        s1, s2 = (
            random_generic_section(e, seed=rng.randint(0, 10**6), mode="strong") for e in (e1, e2)
        )
        table = _outcome(product_eu0, e1, s1, z1, e2, s2, z2)
        euA, euB = (evaluate_class(e, s, EU0, z) for e, s, z in ((e1, s1, z1), (e2, s2, z2)))
        generic += not isinstance(table, str)
        if not isinstance(table, str):
            assert table[:2] == (euA, euB), seed
            table = table[2:]
        assert table == _outcome(_explicit_eu0, px, zz, e1, s1, e2, s2), seed
        assert _explicit_cup(px, zz, e1, s1, z1, e2, s2, z2) == euA * euB, seed
    assert generic >= 8
