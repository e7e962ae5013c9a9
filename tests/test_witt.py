import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tautclass import witt
from tautclass.exactmath import sign
from tautclass.witt import (
    FactorizationError,
    SenselessSymbolError,
    WittElement,
    hilbert_symbol,
    square_class,
)


def _diagonal_entries(w: WittElement) -> list[int]:
    """Diagonal form entries; negative multiplicity contributes <-rep>."""
    out = []
    for rep, mult in w.terms:
        entry = rep if mult > 0 else -rep
        out.extend([entry] * abs(mult))
    return out


def _prime_places(entries) -> list:
    """2 and every prime dividing an entry, by trial division."""
    places = {2}
    for e in entries:
        n, p = abs(e), 2
        while p * p <= n:
            while n % p == 0:
                places.add(p)
                n //= p
            p += 1
        if n > 1:
            places.add(n)
    return sorted(places)


def _hasse_is_zero(w: WittElement) -> bool:
    """The classical decision, kept as the oracle of the residue decision.

    Expands the element into its diagonal form and compares dimension
    parity, signature, discriminant and the Hasse invariants
    eps = prod_{i<j} (a_i, a_j)_p at every relevant place with those of a
    hyperbolic form.  O(dim^2) symbols per place: small dimensions only.
    """
    entries = _diagonal_entries(w)
    n = len(entries)
    if n == 0:
        return True
    if n % 2 or sum(sign(e) for e in entries) != 0:
        return False
    m = n // 2
    prod = 1
    for e in entries:
        prod *= e
    if square_class(prod) != square_class((-1) ** m):
        return False
    symbol = lru_cache(maxsize=None)(hilbert_symbol)
    hyp_exp = (m * (m - 1) // 2) % 2
    for p in _prime_places(entries):
        eps = 1
        for i in range(n):
            for j in range(i + 1, n):
                eps *= symbol(entries[i], entries[j], p)
        if eps != symbol(-1, -1, p) ** hyp_exp:
            return False
    return True


# the sign, 2, primes = 3 mod 4 and primes = 1 mod 4
FACTORS = (-1, 2, 3, 7, 5, 13)


def _random_rep(rng) -> int:
    rep = 1
    for f in FACTORS:
        if rng.random() < 0.4:
            rep *= f
    return rep


def _four_term(a, b) -> WittElement:
    return (
        WittElement.symbol(a)
        + WittElement.symbol(b)
        - WittElement.symbol(a + b)
        - WittElement.symbol(a * b * (a + b))
    )


def _random_element(rng) -> WittElement:
    """Balanced pairs of random reps with multiplicities up to +-50, so
    the signature vanishes and the residues decide, plus at times a
    scaled four-term relation."""
    terms = []
    for _ in range(rng.randint(1, 2)):
        r, s, m = _random_rep(rng), _random_rep(rng), rng.randint(-50, 50)
        terms += [(r, m), (s, -m if sign(r) == sign(s) else m)]
    w = WittElement(terms)
    if rng.random() < 0.5:
        a, b = _random_rep(rng), _random_rep(rng)
        if a + b:
            w = w + WittElement.combination([(_four_term(a, b), rng.randint(-5, 5))])
    return w


# 2<1> - 2<3>: dimension, signature and discriminant are those of zero;
# only the Hasse invariant at 3 (the residue in W(F_3) = Z/4) is not
HASSE_ONLY = WittElement([(1, 2), (3, -2)])


nonzero_rationals = st.fractions(
    min_value=-60, max_value=60, max_denominator=30
).filter(lambda q: q != 0)


def test_square_class_examples():
    assert square_class(Fraction(70, 3)) == 210
    assert square_class(8) == 2
    assert square_class(Fraction(-4, 9)) == -1
    assert square_class(1) == 1
    with pytest.raises(SenselessSymbolError):
        square_class(0)


@given(nonzero_rationals)
def test_square_class_is_squarefree_and_equivalent(q):
    c = square_class(q)
    assert square_class(Fraction(c)) == c
    # q / c is a square
    ratio = q / c
    assert ratio > 0
    num, den = ratio.numerator, ratio.denominator
    import math

    assert math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den


def test_square_class_bound():
    # two primes above the factor bound: the cofactor exceeds its square, 10^12
    p = 1_000_003
    with pytest.raises(FactorizationError):
        square_class(p * 1_000_033)
    # a square needs no prime certificate, however large its root
    assert square_class(p * p) == 1


def test_hilbert_symbol_values():
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(2, 3, "inf") == 1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(2, 5, 5) == -1
    with pytest.raises(ValueError):
        hilbert_symbol(4, 5, 6)
    with pytest.raises(ValueError):
        hilbert_symbol(0, 1, 2)


def test_hilbert_symbol_accepts_exactly_the_prime_places():
    # a place is "inf" or a prime, decided by trial division up to its square root
    for place in (0, 1, 4, True, 1000003 * 1000033):
        with pytest.raises(ValueError, match="place must be a prime or 'inf'"):
            hilbert_symbol(2, 3, place)
    for place in (1000003, "inf"):  # 2 and 3 are units at 1000003
        assert hilbert_symbol(2, 3, place) == 1


def test_hilbert_minus_one_minus_one_at_2_by_search():
    # -x^2 - y^2 = z^2 has no primitive 2-adic solution: exhaust residues mod 8
    solvable = False
    for x in range(8):
        for y in range(8):
            for z in range(8):
                if x % 2 == y % 2 == z % 2 == 0:
                    continue
                if (-(x * x) - y * y - z * z) % 8 == 0:
                    solvable = True
    assert not solvable
    assert hilbert_symbol(-1, -1, 2) == -1


def test_hilbert_2_5_at_5_by_search():
    # 2 x^2 + 5 y^2 = z^2 mod 25 with (x, z) not both divisible by 5
    solvable = False
    for x in range(25):
        for y in range(25):
            for z in range(25):
                if x % 5 == 0 and y % 5 == 0 and z % 5 == 0:
                    continue
                if (2 * x * x + 5 * y * y - z * z) % 25 == 0:
                    solvable = True
    assert not solvable
    assert hilbert_symbol(2, 5, 5) == -1


def test_hilbert_bilinearity():
    rng = random.Random(0)
    places = [2, 3, 5, 7, "inf"]
    for place in places:
        for _ in range(100):
            a = Fraction(rng.choice([i for i in range(-20, 21) if i]))
            b1 = Fraction(rng.choice([i for i in range(-20, 21) if i]))
            b2 = Fraction(rng.choice([i for i in range(-20, 21) if i]))
            assert hilbert_symbol(a, b1 * b2, place) == hilbert_symbol(
                a, b1, place
            ) * hilbert_symbol(a, b2, place)


def test_witt_group_operations():
    five = WittElement.symbol(5)
    assert (five + five).terms == ((5, 2),)
    assert (five - five).terms == ()
    w = WittElement.symbol(2) + WittElement.symbol(3)
    assert WittElement.combination([(w, -2)]).terms == ((2, -2), (3, -2))


def test_witt_is_zero_examples():
    a = 7
    assert (WittElement.symbol(a) + WittElement.symbol(-a)).is_zero()
    w = (
        WittElement.symbol(1)
        + WittElement.symbol(2)
        - WittElement.symbol(3)
        - WittElement.symbol(6)
    )
    assert w.is_zero()
    w2 = (
        WittElement.symbol(1)
        + WittElement.symbol(1)
        - WittElement.symbol(2)
        - WittElement.symbol(2)
    )
    assert w2.is_zero()
    assert not WittElement.symbol(1).is_zero()
    assert not (WittElement.symbol(1) + WittElement.symbol(1)).is_zero()
    # dimension even, signature zero, but discriminant wrong
    assert not (WittElement.symbol(2) - WittElement.symbol(3)).is_zero()


def test_witt_four_term_relation_bulk():
    rng = random.Random(42)
    count = 0
    while count < 200:
        a = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
        b = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
        if a == 0 or b == 0 or a + b == 0:
            continue
        count += 1
        w = (
            WittElement.symbol(a)
            + WittElement.symbol(b)
            - WittElement.symbol(a + b)
            - WittElement.symbol(a * b * (a + b))
        )
        assert w.is_zero(), (a, b)


def test_alternation_bulk():
    rng = random.Random(43)
    for _ in range(100):
        lam = Fraction(rng.randint(-99, 99) or 3, rng.randint(1, 99))
        assert (WittElement.symbol(lam) + WittElement.symbol(-lam)).is_zero()


def test_signature():
    assert WittElement.symbol(5).signature() == 1
    assert WittElement.symbol(-3).signature() == -1
    w = WittElement.symbol(1) + WittElement.symbol(2) - WittElement.symbol(-3)
    assert w.signature() == 3


@given(st.lists(st.integers(-15, 15).filter(bool), min_size=0, max_size=5))
def test_signature_homomorphism(reps):
    w1 = WittElement([(r, 1) for r in reps])
    w2 = WittElement([(r, -2) for r in reps])
    assert (w1 + w2).signature() == w1.signature() + w2.signature()


def test_zero_implies_signature_zero():
    rng = random.Random(44)
    for _ in range(50):
        a = Fraction(rng.randint(1, 50))
        w = WittElement.symbol(a) + WittElement.symbol(-a)
        assert w.is_zero() and w.signature() == 0


def test_renderings():
    w = WittElement.symbol(3) + WittElement.symbol(3) - WittElement.symbol(-2)
    assert w.to_text() == "-1*<-2> + 2*<3>"
    assert w.to_json() == [[-2, -1], [3, 2]]
    assert WittElement.zero().to_text() == "0"


def test_residue_decision_agrees_with_hasse_oracle():
    rng = random.Random(7)
    decided = {True: 0, False: 0}
    for _ in range(300):
        w = _random_element(rng)
        assert w.is_zero() == _hasse_is_zero(w), w
        decided[w.is_zero()] += 1
    for _ in range(100):
        a, b = _random_rep(rng), _random_rep(rng)
        if a + b:
            w = _four_term(a, b)
            assert w.is_zero() and _hasse_is_zero(w)
    # both answers are exercised, not just the easy one
    assert min(decided.values()) >= 50, decided


@pytest.mark.parametrize(
    "element, zero",
    [
        (HASSE_ONLY, False),
        (WittElement.combination([(HASSE_ONLY, 2)]), True),  # Z/4 at p = 3: twice it vanishes
        (WittElement([(2, 1), (1, -1)]), False),  # residue at 2 only
        (WittElement([(2, 2), (1, -2)]), True),  # W(F_2) = Z/2
        (WittElement([(5, 1), (1, -1)]), False),  # residue <1> at 5, rank odd
        (WittElement([(10, 2), (1, -2)]), True),  # 10 = 1 + 9 is a sum of two squares
        (WittElement([(10, 1), (5, -1), (2, -1), (1, 1)]), False),  # <2> - <1> at 5 only
        (WittElement([(5, 2), (1, -2)]), True),  # 2<1> at 5: hyperbolic over F_5
        (WittElement([(-3, 1), (3, 1)]), True),  # <-1> = -<1> at 3
        # (<3> - <1>)(<7> - <1>): (3, 7)_7 = -1, seen by the residue at 7 only
        (WittElement([(21, 1), (3, -1), (7, -1), (1, 1)]), False),
    ],
)
def test_residue_decision_examples(element, zero):
    assert element.is_zero() is zero
    assert _hasse_is_zero(element) is zero


def _relation_sum(scale: int) -> WittElement:
    """Four scaled four-term relations on sixteen distinct square classes."""
    w = WittElement.zero()
    for a, b in ((1, 22), (3, 7), (5, -13), (-11, 17)):
        w = w + WittElement.combination([(_four_term(a, b), scale)])
    assert len(w.terms) == 16
    return w


def test_dimension_640_decided():
    zero = _relation_sum(40)
    assert zero.dimension() == 640
    assert zero.is_zero()
    assert not (zero + HASSE_ONLY).is_zero()
    small = _relation_sum(1)
    assert small.dimension() == 16
    for w in (small, small + HASSE_ONLY, small - WittElement.symbol(2) + WittElement.symbol(3)):
        assert w.is_zero() == _hasse_is_zero(w)


def test_invariants_from_terms_match_the_diagonal_form():
    # up to 12 terms, so the folded prefix class of hasse_invariant meets
    # many earlier entries; the pairwise product stays the reference
    symbol = lru_cache(maxsize=None)(hilbert_symbol)
    rng = random.Random(11)
    for _ in range(150):
        terms = [(_random_rep(rng), rng.randint(-6, 6)) for _ in range(rng.randint(0, 12))]
        w = WittElement(terms)
        entries = _diagonal_entries(w)
        prod = 1
        for e in entries:
            prod *= e
        assert w.discriminant() == square_class(prod)
        assert w.relevant_places() == _prime_places(entries)
        report = w.invariants()
        assert report["is_zero"] == w.is_zero()
        assert list(report["hasse"]) == [str(p) for p in w.relevant_places()]
        for p in w.relevant_places() + [11, "inf"]:
            eps = 1
            for i in range(len(entries)):
                for j in range(i + 1, len(entries)):
                    eps *= symbol(entries[i], entries[j], p)
            assert w.hasse_invariant(p) == eps, (w, p)
            assert report["hasse"].get(str(p), eps) == eps, (w, p)


def _counting(monkeypatch, name) -> list:
    """Replace witt.<name> by a wrapper that records each call's arguments."""
    calls, fn = [], getattr(witt, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(witt, name, wrapper)
    return calls


def test_invariants_factor_each_term_once(monkeypatch):
    # signature 0, so the zero test needs the residues as well as the places
    w = _relation_sum(1) + HASSE_ONLY
    assert (len(w.terms), w.signature(), len(w.relevant_places())) == (16, 0, 8)
    calls = _counting(monkeypatch, "trial_division")
    report = w.invariants()
    assert sorted(n for n, _ in calls) == sorted(abs(r) for r, _ in w.terms)
    assert report["is_zero"] is False and len(report["hasse"]) == 8


def test_hasse_invariant_makes_at_most_two_symbols_per_term(monkeypatch):
    # odd multiplicities: the pairwise product needs a symbol for every pair
    reps = (-1, 2, 3, -5, 6, 7, -10, 11, 13, -14, 15, 17)
    w = WittElement([(r, 1 if i % 2 else -3) for i, r in enumerate(reps)])
    assert len(w.terms) == 12
    calls = _counting(monkeypatch, "_hilbert")
    for p in w.relevant_places() + ["inf"]:
        calls.clear()
        w.hasse_invariant(p)
        assert len(calls) <= 2 * len(w.terms), (p, len(calls))


def test_arithmetic_terms_are_canonical():
    rng = random.Random(12)
    reps = [1, -1, 4, 12, -18, 50, Fraction(3, 4), Fraction(-5, 27), 7, 98]
    for _ in range(200):
        t1 = [(rng.choice(reps), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
        t2 = [(rng.choice(reps), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
        w1, w2 = WittElement(t1), WittElement(t2)
        k = rng.randint(-3, 3)
        assert (w1 + w2).terms == WittElement(t1 + t2).terms
        assert (w1 - w2).terms == WittElement(t1 + [(r, -m) for r, m in t2]).terms
        assert (-w1).terms == WittElement([(r, -m) for r, m in t1]).terms
        assert WittElement.combination([(w1, k)]).terms == WittElement([(r, k * m) for r, m in t1]).terms
    for q in reps:
        assert WittElement.symbol(q).terms == WittElement([(q, 1)]).terms
