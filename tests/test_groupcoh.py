import random
from fractions import Fraction

import pytest

from conftest import FIXTURES
from fixture_builders import (
    commuting_pair_cycle,
    genus1_diagonal,
    genus2_fuchsian,
    genus2_swap,
    psl_equal,
    transport_to_base,
)
from tautclass.complexes import surface_complex
from tautclass.exactmath import Matrix, sign
from tautclass.flatbundles import bundle_from_surface_rep
from tautclass.groupcoh import (
    BarChain2,
    cocycle_identity_residual,
    evaluate_bar,
    surface_cycle_from_rep,
    witt_cocycle,
)
from tautclass.reps import load_rep
from tautclass.witt import WittElement


def psl_canonical(m: Matrix) -> Matrix:
    """Sign-normalized lift: first nonzero entry positive."""
    for row in m.rows:
        for x in row:
            s = sign(x)
            if s < 0:
                return m.scaled(-1)
            if s > 0:
                return m
    return m


def boundary_classes(chain: BarChain2) -> dict:
    """Coefficients of the bar boundary on coinvariant pair classes.

    The pair (a, b) is G-equivalent to (1, a^-1 b); the returned map
    sends the sign-normalized value of a^-1 b to its total coefficient.
    An empty map means the chain is a 2-cycle.
    """
    out: dict = {}
    for c, (g0, g1, g2) in chain:
        for s, (a, b) in ((1, (g1, g2)), (-1, (g0, g2)), (1, (g0, g1))):
            key = psl_canonical(a.inverse() @ b)
            out[key] = out.get(key, 0) + s * c
    return {k: v for k, v in out.items() if v != 0}


def is_cycle(chain: BarChain2) -> bool:
    return not boundary_classes(chain)


def _rand_sl2(rng, bound=9):
    while True:
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        if a and (1 + b * c) % a == 0:
            return Matrix([[a, b], [c, (1 + b * c) // a]])


def test_witt_cocycle_examples():
    one = Matrix.identity(2)
    assert witt_cocycle(one, one, _rand_sl2(random.Random(0)), (1, 0)).is_zero()
    g1 = Matrix([[0, -1], [1, 0]])
    g2 = Matrix([[1, -1], [1, 0]])
    assert witt_cocycle(one, g1, g2, (1, 0)) == WittElement.symbol(1)
    with pytest.raises(ValueError):
        witt_cocycle(one, g1, g2, (0, 0))


def test_witt_cocycle_lift_invariance():
    rng = random.Random(1)
    for _ in range(30):
        g0, g1, g2 = (_rand_sl2(rng) for _ in range(3))
        u = (rng.randint(-5, 5) or 1, rng.randint(-5, 5))
        base = witt_cocycle(g0, g1, g2, u)
        assert witt_cocycle(g0.scaled(-1), g1, g2, u) == base
        assert witt_cocycle(g0, g1.scaled(-1), g2, u) == base
        assert witt_cocycle(g0, g1, g2.scaled(-1), u) == base


def test_cocycle_identity_random_and_degenerate():
    rng = random.Random(2)
    u = (Fraction(1), Fraction(0))
    for _ in range(40):
        quad = [_rand_sl2(rng) for _ in range(4)]
        assert cocycle_identity_residual(quad, u).is_zero()
    # engineered single coincidence [g0 u] = [g1 u]
    for _ in range(10):
        g0 = _rand_sl2(rng)
        lam = Fraction(rng.randint(1, 4))
        stab = Matrix([[lam, rng.randint(-4, 4)], [0, 1 / lam]])
        quad = [g0, g0 @ stab, _rand_sl2(rng), _rand_sl2(rng)]
        assert cocycle_identity_residual(quad, u).is_zero()
    # fully degenerate
    one = Matrix.identity(2)
    assert cocycle_identity_residual([one] * 4, u).is_zero()


def test_commuting_pair_cycle():
    g = Matrix([[2, 0], [0, Fraction(1, 2)]])
    h = Matrix([[3, 0], [0, Fraction(1, 3)]])
    chain = commuting_pair_cycle(g, h)
    assert is_cycle(chain)
    assert evaluate_bar(witt_cocycle, chain, (1, 1)).is_zero()
    with pytest.raises(ValueError):
        commuting_pair_cycle(g, Matrix([[1, 1], [0, 1]]))


def test_commuting_pair_polynomials_in_nondiagonalizable():
    # g, h polynomials in one matrix commute; the evaluation is computed
    # and reported, with no particular value asserted
    m = Matrix([[1, 1], [0, 1]])
    g = m @ m  # m^2
    h = m @ m @ m  # m^3
    chain = commuting_pair_cycle(g, h)
    assert is_cycle(chain)
    value = evaluate_bar(witt_cocycle, chain, (0, 1))
    assert isinstance(value, WittElement)


def test_bar_chain_algebra_and_zero_cases():
    g = Matrix([[2, 0], [0, Fraction(1, 2)]])
    h = Matrix([[3, 0], [0, Fraction(1, 3)]])
    chain = commuting_pair_cycle(g, h)
    zero = chain + [(-c, t) for c, t in chain]
    assert evaluate_bar(witt_cocycle, zero, (1, 0)).is_zero()
    assert evaluate_bar(witt_cocycle, [], (1, 0)).is_zero()


def test_surface_cycles_are_cycles():
    rep1 = genus1_diagonal()
    assert is_cycle(surface_cycle_from_rep(1, rep1.matrices))
    rep2 = genus2_swap()
    chain = surface_cycle_from_rep(2, rep2.matrices)
    assert len(chain) == 6
    assert is_cycle(chain)


SL_FIXTURES = sorted(p.stem for p in FIXTURES.glob("*.json") if load_rep(str(p)).tag == "SL")


@pytest.mark.parametrize("name", SL_FIXTURES)
def test_bar_triples_are_the_bundle_corner_transports(name):
    rep = load_rep(str(FIXTURES / f"{name}.json"))
    sc, z = surface_complex(rep.genus)
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag, rep.field)
    expected = [
        (c, tuple(transport_to_base(bundle, 2, sid, i) for i in range(3)))
        for sid, c in sorted(z.coeffs.items())
    ]
    assert surface_cycle_from_rep(rep.genus, rep.matrices) == expected


def test_bar_cycle_refuses_a_generator_off_sl():
    a = Matrix([[2, 0], [0, 1]])  # commutes with b: the relator is I
    b = Matrix([[3, 0], [0, Fraction(1, 3)]])
    with pytest.raises(ValueError, match="determinant 2"):
        surface_cycle_from_rep(1, [a, b])
    with pytest.raises(ValueError, match="determinant 2"):
        surface_cycle_from_rep(1, [b, a])


def test_bar_cycle_refuses_a_relator_that_is_not_the_identity():
    a, b = Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [1, 1]])
    with pytest.raises(ValueError, match="relator is not the identity"):
        surface_cycle_from_rep(1, [a, b])
    one = Matrix.identity(2)
    with pytest.raises(ValueError, match="relator is not the identity"):
        surface_cycle_from_rep(2, [one, one, a, b])
    with pytest.raises(ValueError, match="needs 2g"):
        surface_cycle_from_rep(2, [a, b])


def test_basepoint_independence_on_cycles():
    rng = random.Random(3)
    for rep in (genus2_swap(), genus2_fuchsian()):
        chain = surface_cycle_from_rep(2, rep.matrices)
        values = []
        for _ in range(5):
            u = (rng.randint(-5, 5) or 1, rng.randint(-5, 5))
            values.append(evaluate_bar(witt_cocycle, chain, u))
        for v in values[1:]:
            assert v == values[0]


def test_euler_witt_comparison():
    from tautclass.flatbundles import Selector, evaluate_class, random_generic_section

    sc, z = surface_complex(2)
    for rep in (genus2_swap(), genus2_fuchsian()):
        bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
        s = random_generic_section(bundle, seed=9)
        eu0 = evaluate_class(bundle, s, Selector.parse("eu0"), z)
        chain = surface_cycle_from_rep(2, rep.matrices)
        w = evaluate_bar(witt_cocycle, chain, (1, 0))
        assert w.signature() == 4 * eu0
        assert w == evaluate_class(bundle, s, Selector("witt"), z)


def test_psl_helpers():
    m = Matrix([[1, 2], [3, 4]])
    assert psl_equal(m, m.scaled(-1))
    assert psl_canonical(m.scaled(-1)) == m
    assert psl_canonical(Matrix([[0, -1], [2, 0]])) == Matrix([[0, 1], [-2, 0]])
