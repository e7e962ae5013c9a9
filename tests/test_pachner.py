"""Classes under 1-3 Pachner moves of the genus-2 surface model.

Bistellar moves connect any two triangulations of a closed PL surface
(Pachner 1991), so invariance under them is triangulation independence.
Each move cones a triangle of the cycle off a new vertex with a random
SL(2, Z) gauge there (``fixture_builders.pachner_cones``): the base gains
multi-vertex stars and gauge-changed holonomy, and no class may change.
"""

import random

import pytest
from conftest import rep_path
from fixture_builders import pachner_cones

from tautclass.complexes import boundary, surface_complex
from tautclass.flatbundles import (
    Selector,
    bundle_from_surface_rep,
    evaluate_class,
    random_generic_section,
)
from tautclass.reps import load_rep
from tautclass.witt import FactorizationError, WittElement

SELECTORS = ("eu0", "eu", "euplus", "witt")
SEEDS = range(5)
SECTION_SEEDS = (0, 1)


def _classes(bundle, z, section_seed) -> dict:
    """selector -> value on z; a witt value past the factorization bound is the error."""
    s = random_generic_section(bundle, seed=section_seed)
    out = {}
    for text in SELECTORS:
        try:
            out[text] = evaluate_class(bundle, s, Selector.parse(text), z)
        except FactorizationError as exc:
            out[text] = exc
    return out


@pytest.fixture(scope="module")
def base():
    rep = load_rep(rep_path("g2_fuchs.json"))
    sc, z = surface_complex(rep.genus)
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag, rep.field)
    classes = _classes(bundle, z, 0)
    assert (classes["eu0"], classes["eu"], classes["euplus"].coefficients) == (-1, -4, (-1, 3))
    return bundle, z, classes


# Per case (one seed, both sections, 2-vCPU x86_64): 10 cones take about
# 2 ms to build and 2 ms per section to sample and evaluate; 100 cones
# (101 vertices, 306 triangles, 206 on the cycle) about 17 ms and 10-19 ms.
@pytest.mark.parametrize("cones", [10, 100])
def test_cones_change_no_class(base, cones):
    bundle, z, expected = base
    undecided = 0
    for seed in SEEDS:
        coned, cz = pachner_cones(bundle, z, cones, random.Random(seed))
        assert boundary(coned.base, cz).is_zero()
        assert (len(coned.base.faces[0]), len(cz.coeffs)) == (1 + cones, 6 + 2 * cones)
        for section_seed in SECTION_SEEDS:
            got = _classes(coned, cz, section_seed)
            for text in ("eu0", "eu", "euplus"):
                assert got[text] == expected[text], (seed, section_seed, text)
            if isinstance(got["witt"], FactorizationError):
                undecided += 1
                continue
            assert (got["witt"] - expected["witt"]).is_zero(), (seed, section_seed)
    # new vertices bring new square classes; at these sizes every value
    # was decided, and at most a few may leave the factorization bound
    assert undecided <= 2


def test_invariants_of_a_coned_witt_value(base):
    bundle, z, expected = base
    coned, cz = pachner_cones(bundle, z, 100, random.Random(0))
    value = _classes(coned, cz, 0)["witt"]
    assert isinstance(value, WittElement) and len(value.terms) == 187
    report = value.invariants()  # about 17 ms for its 187 terms
    assert report["signature"] == 4 * expected["eu0"]
    assert report["is_zero"] is False
    # Hilbert reciprocity: the Hasse invariants over all places multiply to 1
    product = value.hasse_invariant("inf")
    for eps in report["hasse"].values():
        product *= eps
    assert product == 1
