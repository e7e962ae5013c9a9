"""Classes under mapping-class moves and conjugation of a representation.

Within-handle moves (A_i -> A_i B_i, B_i -> B_i A_i) are Dehn twists of
the surface, so they change no class.  Conjugating every generator by a
g with det g < 0 reverses the orientation of the fiber, which negates
eu0 and the Witt class; det g > 0 changes nothing.
"""

import random

import pytest
from conftest import rep_path
from fixture_builders import conjugated, handle_moves, random_move_word

from tautclass.complexes import surface_complex
from tautclass.exactmath import Matrix
from tautclass.flatbundles import (
    Selector,
    bundle_from_surface_rep,
    evaluate_class,
    random_generic_section,
)
from tautclass.reps import load_rep
from tautclass.witt import FactorizationError, WittElement

SL_FIXTURES = ["g1_diag", "g1_diag2", "g1_parab", "g2_fuchs", "g2_swap", "g2_swap2"]
GL_PLUS_FIXTURES = [f"g2_solved_{i}" for i in range(1, 9)]
SEEDS = range(5)
MAX_MOVES = 8


def _classes(rep, selectors):
    """selector -> value on the representation's fundamental cycle; a witt
    value past the factorization bound (exit 5 in the CLI) is the error."""
    sc, z = surface_complex(rep.genus)
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag, rep.field)
    s = random_generic_section(bundle, seed=0)
    out = {}
    for text in selectors:
        try:
            out[text] = evaluate_class(bundle, s, Selector.parse(text), z)
        except FactorizationError as exc:
            out[text] = exc
    return out


def _same_class(text, got, expected) -> bool:
    if text != "witt":
        return got == expected
    return (got - expected).is_zero()  # a Witt element's terms are not canonical


@pytest.mark.parametrize("name", SL_FIXTURES)
def test_within_handle_moves_change_no_class(name):
    selectors = ["eu0", "eu", "euplus", "witt"]
    rep = load_rep(rep_path(f"{name}.json"))
    expected = _classes(rep, selectors)
    undecided = 0
    for seed in SEEDS:
        word = random_move_word(random.Random(seed), rep.genus, MAX_MOVES).split()
        for length in range(1, MAX_MOVES + 1):
            got = _classes(handle_moves(rep, " ".join(word[:length])), selectors)
            for text in selectors:
                if isinstance(got[text], FactorizationError):
                    assert text == "witt"
                    undecided += 1
                    continue
                assert _same_class(text, got[text], expected[text]), (seed, length, text)
    # entries grow with every move, and past a few moves some Witt symbols
    # leave the factorization bound; on every fixture some stay decided
    assert undecided < len(SEEDS) * MAX_MOVES


@pytest.mark.parametrize("name", GL_PLUS_FIXTURES)
def test_within_handle_moves_keep_eu0_on_gl_plus_fixtures(name):
    rep = load_rep(rep_path(f"{name}.json"))
    (expected,) = _classes(rep, ["eu0"]).values()
    for seed in SEEDS:
        word = random_move_word(random.Random(seed), rep.genus, MAX_MOVES).split()
        for length in range(1, MAX_MOVES + 1):
            moved = handle_moves(rep, " ".join(word[:length]))
            assert _classes(moved, ["eu0"]) == {"eu0": expected}, (seed, length)


def _conjugator(rng, negative: bool) -> Matrix:
    while True:
        g = Matrix([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
        if g.det() and (g.det() < 0) == negative:
            return g


@pytest.mark.parametrize("name", SL_FIXTURES + GL_PLUS_FIXTURES)
def test_conjugation_by_negative_determinant_negates_eu0_and_witt(name):
    rep = load_rep(rep_path(f"{name}.json"))
    selectors = ["eu0", "witt"] if name in SL_FIXTURES else ["eu0"]
    expected = _classes(rep, selectors)
    rng = random.Random(name)
    for _ in range(3):
        for negative, sign in ((True, -1), (False, 1)):
            got = _classes(conjugated(rep, _conjugator(rng, negative)), selectors)
            assert got["eu0"] == sign * expected["eu0"]
            if "witt" in got:
                flipped = WittElement.combination([(expected["witt"], sign)])
                assert _same_class("witt", got["witt"], flipped)
