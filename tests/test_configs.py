import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from tautclass import configs
from tautclass.configs import (
    GenericityError,
    UPlusSymbol,
    boundary_symbol_sum,
    homological_core_check,
    maximal_minors,
    symbol_sum,
    u_symbol,
    uplus_symbol,
    witt_symbol_from_minors,
    witt_triple_symbol,
)
from tautclass.exactmath import (
    Matrix,
    QuadraticField,
    determinant,
    is_linearly_generic,
    sign,
    solve_square,
)
from tautclass.witt import WittElement, square_class


def _e(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def _random_generic(rng, n, count, bound=9):
    while True:
        vecs = [
            tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(count)
        ]
        try:
            if is_linearly_generic(vecs, n):
                return vecs
        except ValueError:
            continue


def test_u_symbol_standard_tuples():
    for n in (2, 4):
        plus = [_e(i, n) for i in range(n)] + [tuple([1] * n)]
        assert u_symbol(plus) == 1
        minus = (
            [_e(i, n) for i in range(n - 1)]
            + [tuple(-x for x in _e(n - 1, n))]
            + [tuple([1] * (n - 1) + [-1])]
        )
        assert u_symbol(minus) == -1
    assert u_symbol([(1, 0), (0, 1), (1, -1)]) == -1


def test_u_symbol_errors():
    with pytest.raises(ValueError):
        u_symbol([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])  # odd n
    with pytest.raises(GenericityError):
        u_symbol([(1, 0), (2, 0), (1, 1)])


def _canonical_oracle(n, lead, tail):
    """Coefficients on the basis {a+} of the raw symbol [lead; tail], rules applied fold first.

    a+ = -(n+1-a)+ folds a from above the midpoint (for odd n the midpoint
    class is 2-torsion and dies), then a- = -(a+) flips a negative lead.
    """
    coeffs = [0] * (n // 2 + 1)
    a = tail.count(1)
    if n % 2 and 2 * a == n + 1:
        return tuple(coeffs)
    coeff = 1
    if a > n // 2:
        coeff, a = -coeff, n + 1 - a
    if lead < 0:
        coeff = -coeff
    coeffs[a] = coeff
    return tuple(coeffs)


def _u_oracle(lead, tail):
    """The P symbol of the raw symbol [lead; tail]: sgn(det(v_0..v_{n-1}) * a_0 * ... * a_{n-1})."""
    return lead * prod(tail)


def _signs_of_raw(lead, tail):
    """The signs of D_0..D_n of raw symbol [lead; tail], by Cramer: a_i = (-1)^(n-i+1) D_i / D_n."""
    n = len(tail)
    return tuple((-1) ** (n - i + 1) * t * lead for i, t in enumerate(tail)) + (lead,)


def _canonical_coefficients(n, lead, tail):
    """``configs._plus_class``'s (a, e) for [lead; tail], as coefficients on {a+}."""
    a, e = configs._plus_class(_signs_of_raw(lead, tail))
    return tuple(e * (i == a) for i in range(n // 2 + 1))


def test_uplus_raw_examples():
    examples = [([(1, 0), (0, 1), (1, 1)], (1, (1, 1))), ([(1, 0), (0, -1), (1, -1)], (-1, (1, 1)))]
    for points, raw in examples:
        assert _cramer_raw(points) == raw
        assert _minor_signs(points) == _signs_of_raw(*raw)
        assert uplus_symbol(points).coefficients == _canonical_oracle(2, *raw)


def test_uplus_raw_positive_rescaling_invariance():
    rng = random.Random(0)
    for _ in range(40):
        tup = _random_generic(rng, 3, 4)
        signs = _minor_signs(tup)
        scaled = []
        for v in tup:
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled.append(tuple(lam * x for x in v))
        assert _minor_signs(scaled) == signs
        assert uplus_symbol(scaled) == uplus_symbol(tup)


@pytest.mark.parametrize("canonical", [_canonical_coefficients, _canonical_oracle])
def test_uplus_canonicalize_rules(canonical):
    # n = 2: 2+ folds to -(1+)
    assert canonical(2, 1, (1, 1)) == (0, -1)
    # n = 2: 0- flips to -(0+)
    assert canonical(2, -1, (-1, -1)) == (-1, 0)
    # n = 3 midpoint class dies
    assert canonical(3, 1, (1, 1, -1)) == (0, 0)
    assert canonical(3, -1, (1, 1, -1)) == (0, 0)
    # n = 1: the midpoint 1+ dies, 0- flips
    assert canonical(1, 1, (1,)) == (0,)
    assert canonical(1, -1, (-1,)) == (-1,)
    # already canonical
    assert canonical(2, 1, (1, -1)) == (0, 1)


def test_uplus_canonicalize_rules_commute():
    # the package flips before it folds; the oracle folds first: both agree
    # on every sign pattern
    from itertools import product

    for n in range(1, 7):
        for lead in (1, -1):
            for tail in product((1, -1), repeat=n):
                assert _canonical_coefficients(n, lead, tail) == _canonical_oracle(n, lead, tail)


def test_alternation_100_random_tuples():
    rng = random.Random(1)
    for n in (2, 4):
        for _ in range(100):
            tup = _random_generic(rng, n, n + 1, bound=5)
            k = rng.randint(0, n - 1)
            swapped = list(tup)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            assert u_symbol(swapped) == -u_symbol(tup)
            negated = tuple(-c for c in uplus_symbol(tup).coefficients)
            assert uplus_symbol(swapped).coefficients == negated


def test_gl_equivariance():
    rng = random.Random(2)
    flip = Matrix([[1, 0], [0, -1]])
    for _ in range(50):
        tup = _random_generic(rng, 2, 3, bound=5)
        image = [flip.apply(v) for v in tup]
        assert u_symbol(image) == -u_symbol(tup)
        (lead, tail), (lead2, tail2) = _cramer_raw(tup), _cramer_raw(image)
        assert lead2 == -lead and tail2 == tail
        assert _minor_signs(image) == tuple(-s for s in _minor_signs(tup))


def test_witt_triple_symbol_examples():
    assert witt_triple_symbol((1, 0), (0, 1), (1, 5)) == WittElement.symbol(5)
    assert witt_triple_symbol((1, 0), (0, 1), (1, -1)) == WittElement.symbol(-1)
    with pytest.raises(GenericityError):
        witt_triple_symbol((1, 0), (2, 0), (0, 1))


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
def test_witt_triple_symbol_of_a_proportional_pair_is_a_genericity_error(pair):
    points = [(1, 2), (3, -1), (-2, 5)]
    points[pair[1]] = tuple(-3 * x for x in points[pair[0]])
    with pytest.raises(GenericityError, match="^a maximal minor is zero$"):
        witt_triple_symbol(*points)


def _normalization_oracle(u, v, w):
    """Transform by an explicit SL(2,Q) element to the standard triple, read off the class."""
    delta = determinant([u, v])
    m = Matrix([[Fraction(v[1], delta), Fraction(-v[0], delta)], [-u[1], u[0]]])
    assert m.det() == 1
    gu, gv, gw = (m.apply(x) for x in (u, v, w))
    assert gu[1] == 0 and gv[0] == 0
    lam = Fraction(gw[1]) / Fraction(gw[0])
    return square_class(lam)


def test_witt_triple_normalization_oracle():
    rng = random.Random(3)
    for _ in range(40):
        tup = _random_generic(rng, 2, 3)
        expected = _normalization_oracle(*tup)
        assert witt_triple_symbol(*tup) == WittElement.symbol(expected)


def test_witt_triple_sl2_invariance():
    rng = random.Random(4)
    for _ in range(100):
        tup = _random_generic(rng, 2, 3)
        while True:
            a, b, c = (rng.randint(-5, 5) for _ in range(3))
            if a and (1 + b * c) % a == 0:
                g = Matrix([[a, b], [c, (1 + b * c) // a]])
                break
        image = [g.apply(v) for v in tup]
        assert witt_triple_symbol(*image) == witt_triple_symbol(*tup)


def test_boundary_sum_witt_paper_instance():
    pts = [(1, 0), (0, 1), (1, 2), (1, 5)]
    assert boundary_symbol_sum(pts, "witt").is_zero()


def test_boundary_sums_vanish():
    rng = random.Random(5)
    for n in (2, 4):
        for _ in range(25):
            tup = _random_generic(rng, n, n + 2, bound=5)
            assert boundary_symbol_sum(tup, "P") == 0
            assert boundary_symbol_sum(tup, "P+").is_zero()
    for _ in range(100):
        tup = _random_generic(rng, 2, 4, bound=9)
        assert boundary_symbol_sum(tup, "witt").is_zero()


def test_homological_core():
    assert homological_core_check(UPlusSymbol(2, (1, -3)))
    assert not homological_core_check(UPlusSymbol(2, (1, 0)))
    assert homological_core_check(UPlusSymbol(4, (0, 0, 0)))


# ---------------------------------------------------------------------------
# the minors pass against Cramer's rule on the relation, as an oracle
# ---------------------------------------------------------------------------


def _relation_coefficients(points):
    """det(v_1..v_n) and the coefficients of v_{n+1} = sum a_i v_i, by Cramer."""
    n = len(points) - 1
    basis = [tuple(p) for p in points[:n]]
    det = determinant(basis)
    if not det:  # D_n = 0
        raise GenericityError("a maximal minor is zero")
    return det, solve_square(list(basis), tuple(points[n]))


def _cramer_raw(points):
    det, coeffs = _relation_coefficients(points)
    if any(not c for c in coeffs):  # a_i = 0 exactly when D_i = 0
        raise GenericityError("a maximal minor is zero")
    return sign(det), tuple(sign(c) for c in coeffs)


_Q2 = QuadraticField(2)

_SCALARS = {
    "int": lambda rng: rng.randint(-4, 4),
    "fraction": lambda rng: Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
    "quad": lambda rng: _Q2.from_pair(rng.randint(-3, 3), rng.randint(-3, 3)),
}


def _random_tuple(rng, kind, n):
    return [tuple(_SCALARS[kind](rng) for _ in range(n)) for _ in range(n + 1)]


def _minor_signs(points):
    minors = maximal_minors(points)
    symbol_sum("P+", len(points) - 1, [(minors, 1)])  # the reader refuses a zero minor
    return tuple(map(sign, minors))


def _cramer_signs(points):
    return _signs_of_raw(*_cramer_raw(points))


def _outcome(fn, points):
    try:
        return fn(points)
    except GenericityError as exc:
        return ("GenericityError", str(exc))


@pytest.mark.parametrize("kind", sorted(_SCALARS))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_minors_symbols_match_cramer_oracle(kind, n):
    rng = random.Random(f"{kind}-{n}")
    generic = 0
    for _ in range(40 if kind != "quad" or n < 5 else 12):
        tup = _random_tuple(rng, kind, n)
        if rng.random() < 0.2:
            # force a dependency: two projectively equal points
            i, j = rng.sample(range(n + 1), 2)
            tup[i] = tuple(2 * x for x in tup[j])
        assert _outcome(_minor_signs, tup) == _outcome(_cramer_signs, tup), tup
        expected = _outcome(_cramer_raw, tup)
        if expected[0] == "GenericityError":
            if n % 2 == 0:
                assert _outcome(u_symbol, tup) == expected
            continue
        generic += 1
        assert all(maximal_minors(tup))
        if n % 2 == 0:
            lead, tail = expected
            assert u_symbol(tup) == _u_oracle(lead, tail)
    assert generic >= 5


@pytest.mark.parametrize("kind", sorted(_SCALARS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_single_tuple_symbols_match_the_cramer_oracle(kind, n):
    # uplus_symbol and u_symbol against Cramer's rule plus the fold-first rules
    rng = random.Random(f"single-{kind}-{n}")
    generic = 0
    for _ in range(40 if kind != "quad" or n < 5 else 12):
        tup = _random_tuple(rng, kind, n)
        raw = _outcome(_cramer_raw, tup)
        if raw[0] == "GenericityError":
            assert _outcome(uplus_symbol, tup) == raw
            if n % 2 == 0:
                assert _outcome(u_symbol, tup) == raw
            continue
        generic += 1
        lead, tail = raw
        assert uplus_symbol(tup).coefficients == _canonical_oracle(n, lead, tail), tup
        if n % 2 == 0:
            assert u_symbol(tup) == _u_oracle(lead, tail), tup
    assert generic >= 5


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_witt_symbol_from_minors_matches_triple_symbol(kind):
    rng = random.Random(kind)
    checked = 0
    for _ in range(60):
        tup = _random_tuple(rng, kind, 2)
        try:
            expected = witt_triple_symbol(*tup)
        except GenericityError:
            assert not all(maximal_minors(tup))
            continue
        assert witt_symbol_from_minors(maximal_minors(tup)) == expected
        checked += 1
    assert checked >= 20


def test_boundary_sums_vanish_over_fractions_and_quad():
    rng = random.Random(6)
    for kind in ("fraction", "quad"):
        for n in (2, 4):
            done = 0
            while done < 5:
                tup = _random_tuple(rng, kind, n) + [
                    tuple(_SCALARS[kind](rng) for _ in range(n))
                ]
                if not is_linearly_generic(tup, n):
                    with pytest.raises(GenericityError):
                        boundary_symbol_sum(tup, "P")
                    continue
                assert boundary_symbol_sum(tup, "P") == 0
                assert boundary_symbol_sum(tup, "P+").is_zero()
                if kind == "fraction" and n == 2:
                    assert boundary_symbol_sum(tup, "witt").is_zero()
                done += 1


def _witt_terms(rng, count):
    """(minors, c) pairs of generic triples in Q^2, each also with its negation,
    so that the sum cancels in part."""
    terms = []
    while len(terms) < count:
        minors = maximal_minors(_random_generic(rng, 2, 3, bound=5))
        c = rng.choice([-2, -1, 1, 3])
        terms.append((minors, c))
        if rng.random() < 0.4:
            terms.append((minors, -c))
    return terms


def test_witt_symbol_sum_is_the_term_by_term_fold():
    rng = random.Random(8)
    for count in (0, 1, 2, 40, 300):
        terms = _witt_terms(rng, count)
        fold = WittElement.zero()
        for minors, c in terms:
            symbol = witt_symbol_from_minors(minors)
            fold = fold + WittElement([(r, c * m) for r, m in symbol.terms])
        assert symbol_sum("witt", 2, terms).terms == fold.terms
        # a one-term fold is the term's own symbol
        singles = [symbol_sum("witt", 2, [(minors, 1)]) for minors, _ in terms]
        assert [w.terms for w in singles] == [
            witt_symbol_from_minors(minors).terms for minors, _ in terms
        ]
    cancelled = terms + [(minors, -c) for minors, c in terms]
    assert symbol_sum("witt", 2, cancelled).terms == ()


def test_witt_symbol_sum_makes_no_element_addition(monkeypatch):
    terms = _witt_terms(random.Random(9), 1500)
    calls = []
    add = WittElement.__add__
    monkeypatch.setattr(WittElement, "__add__", lambda a, b: calls.append(1) or add(a, b))
    total = symbol_sum("witt", 2, terms)
    assert calls == [] and total.dimension() > 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sign_mode_symbol_sums_are_the_term_by_term_fold(n):
    # the oracle: each term's raw symbol by Cramer's rule on its points,
    # written on the basis by the fold-first rules, scaled and added as
    # integer tuples
    rng = random.Random(n)
    modes = ["P", "P+"] if n % 2 == 0 else ["P+"]
    for count in (0, 1, 7, 60):
        tuples = [_random_generic(rng, n, n + 1, bound=5) for _ in range(count)]
        terms = [(maximal_minors(tup), rng.choice([-2, -1, 1, 3])) for tup in tuples]
        raws = [_cramer_raw(tup) for tup in tuples]
        for mode in modes:
            if mode == "P":
                columns = [(_u_oracle(lead, tail),) for lead, tail in raws]
                symbol = lambda col: col[0]
            else:
                columns = [_canonical_oracle(n, lead, tail) for lead, tail in raws]
                symbol = lambda col: UPlusSymbol(n, col)
            width = 1 if mode == "P" else n // 2 + 1
            fold = symbol(
                tuple(sum(c * col[a] for col, (_, c) in zip(columns, terms)) for a in range(width))
            )
            assert symbol_sum(mode, n, terms) == fold
            singles = [symbol_sum(mode, n, [(minors, 1)]) for minors, _ in terms]
            assert singles == [symbol(col) for col in columns]


def test_sign_mode_symbol_sum_builds_one_symbol(monkeypatch):
    rng = random.Random(3)
    terms = [(maximal_minors(_random_generic(rng, 4, 5, bound=5)), 1) for _ in range(50)]
    # P folds into a plain int, P+ into one UPlusSymbol
    built = []
    init = UPlusSymbol.__init__
    monkeypatch.setattr(UPlusSymbol, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    for mode, objects in (("P", []), ("P+", [1])):
        built.clear()
        total = symbol_sum(mode, 4, terms)
        assert built == objects
        assert type(total) is (int if mode == "P" else UPlusSymbol)


def test_sign_modes_refuse_odd_n_and_unknown_modes():
    terms = [(maximal_minors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]), 1)]
    with pytest.raises(ValueError, match="zero for odd n"):
        symbol_sum("P", 3, terms)
    with pytest.raises(ValueError, match="unknown mode"):
        symbol_sum("Q", 2, [])


def _one_term(mode, n, minors):
    """The one-term ``symbol_sum`` of the minors, as coefficients on the mode's basis."""
    total = symbol_sum(mode, n, [(minors, 1)])
    return (total,) if mode == "P" else total.coefficients


def _oracle(mode, n, raw):
    """The symbol of the raw symbol ``raw``: the P oracle, or the fold-first rules on {a+}."""
    return (_u_oracle(*raw),) if mode == "P" else _canonical_oracle(n, *raw)


@pytest.mark.parametrize("n", range(1, 11))
def test_one_term_sums_match_the_oracle_on_every_sign_vector(n):
    # [s e_0, e_1, .., e_{n-1}, sum d_i e_i] realizes each sign vector once,
    # with raw symbol [s; s d_0, d_1, .., d_{n-1}] by Cramer.  Mode P is the
    # fold of the P+ class, so this certifies the fold on every key the
    # sign reader can be asked
    seen = set()
    for s, *d in itertools.product((-1, 1), repeat=n + 1):
        points = [tuple(s * x for x in _e(0, n))] + [_e(i, n) for i in range(1, n)] + [tuple(d)]
        minors = maximal_minors(points)
        signs = tuple(map(sign, minors))
        seen.add(signs)
        raw = (s, (s * d[0], *d[1:]))
        assert _signs_of_raw(*raw) == signs
        for mode in ["P", "P+"] if n % 2 == 0 else ["P+"]:
            assert _one_term(mode, n, minors) == _oracle(mode, n, raw), (mode, points)
    assert seen == set(itertools.product((-1, 1), repeat=n + 1))


@pytest.mark.parametrize("kind", ["fraction", "quad"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_one_term_sums_match_the_oracle_on_random_tuples(kind, n):
    rng = random.Random(f"table-{kind}-{n}")
    generic = 0
    for _ in range(30 if kind == "fraction" else 8):
        tup = _random_tuple(rng, kind, n)
        minors = maximal_minors(tup)
        if not all(minors):
            continue
        generic += 1
        for mode in ["P", "P+"] if n % 2 == 0 else ["P+"]:
            assert _one_term(mode, n, minors) == _oracle(mode, n, _cramer_raw(tup))
    assert generic >= 3


@pytest.mark.parametrize("n", range(1, 9))
def test_adjacent_swaps_negate_the_symbol_on_every_sign_vector(n):
    # swapping points k, k+1 swaps D_k and D_{k+1} and negates every other
    # minor (its columns swap): the 2^(n+1) n alternation cases
    for signs in itertools.product((-1, 1), repeat=n + 1):
        for k in range(n):
            swapped = [-x for x in signs]
            swapped[k], swapped[k + 1] = signs[k + 1], signs[k]
            for mode in ["P", "P+"] if n % 2 == 0 else ["P+"]:
                before, after = _one_term(mode, n, signs), _one_term(mode, n, swapped)
                assert after == tuple(-c for c in before), (mode, signs, k)


def test_a_zero_minor_in_a_symbol_sum_is_a_genericity_error():
    for mode, n, minors in (
        ("P", 2, [1, 0, -1]),
        ("P+", 2, [1, 1, 0]),
        ("P+", 3, [0, 2, 3, 5]),
        ("witt", 2, [1, 0, 2]),
    ):
        with pytest.raises(GenericityError, match="a maximal minor is zero"):
            symbol_sum(mode, n, [([1] * (n + 1), 1), (minors, 1)])
