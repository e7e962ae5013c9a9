"""Acceptance suite: every criterion at its stated tolerance.

All identities are exact (integer or Witt equality); the only float
tolerance is the oracle's 0.1 integrality gate, enforced inside
rotation_euler itself.  Each test prints one pass/fail line
(visible with ``pytest -s``).
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from conftest import rep_path
from fixture_builders import is_positive_section, mixed_dimension_product, positive_generic_section
from tautclass.complexes import product_chain, product_complex, surface_complex
from tautclass.configs import boundary_symbol_sum, homological_core_check
from tautclass.exactmath import Matrix, is_linearly_generic
from tautclass.flatbundles import (
    Section,
    Selector,
    bundle_from_surface_rep,
    evaluate_class,
    is_generic_section,
    joint_scalar_sets,
    product_bundle,
    random_generic_section,
)
from tautclass.groupcoh import (
    cocycle_identity_residual,
    evaluate_bar,
    surface_cycle_from_rep,
    witt_cocycle,
)
from tautclass.oracle import rotation_euler
from tautclass.reps import load_rep
from tautclass.witt import WittElement

GENUS1_FIXTURES = ["g1_diag.json", "g1_diag2.json", "g1_parab.json"]
GENUS2_FIXTURES = [
    "g2_swap.json",
    "g2_swap2.json",
    "g2_fuchs.json",
] + [f"g2_solved_{i}.json" for i in range(1, 9)]
ORACLE_FIXTURES = ["g2_swap.json", "g2_swap2.json"] + [
    f"g2_solved_{i}.json" for i in range(1, 9)
]


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _bundle(name: str):
    rep = load_rep(rep_path(name))
    sc, z = surface_complex(rep.genus)
    return rep, sc, z, bundle_from_surface_rep(sc, rep.matrices, rep.tag, rep.field)


def _product_setup(name_a: str, name_b: str, seed: int = 0):
    rng = random.Random(seed)
    repA, scA, zA, EA = _bundle(name_a)
    repB, scB, zB, EB = _bundle(name_b)
    sA = random_generic_section(EA, seed=rng.randint(0, 10**6), mode="strong")
    for _ in range(10):
        sB = random_generic_section(EB, seed=rng.randint(0, 10**6), mode="strong")
        _, _, disjoint = joint_scalar_sets(EA, sA, EB, sB)
        if disjoint:
            break
    assert disjoint
    px = product_complex(scA, scB)
    EP = product_bundle(px, EA, EB)
    zz = product_chain(px, zA, zB)
    S = Section({0: tuple(sA.values[0]) + tuple(sB.values[0])})
    return (EA, sA, zA), (EB, sB, zB), (px, EP, zz, S)


def test_criterion_01_witt_four_term_relation():
    t0 = time.perf_counter()
    rng = random.Random(101)
    checked = 0
    while checked < 200:
        a = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
        b = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
        if a == 0 or b == 0 or a + b == 0:
            continue
        checked += 1
        w = (
            WittElement.symbol(a)
            + WittElement.symbol(b)
            - WittElement.symbol(a + b)
            - WittElement.symbol(a * b * (a + b))
        )
        assert w.is_zero(), (a, b)
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 5.0, f"200 four-term relations Witt-zero in {elapsed:.2f}s (< 5s)")


def _random_sl2(rng, bound=9):
    while True:
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        if a and (1 + b * c) % a == 0:
            d = (1 + b * c) // a
            if abs(d) <= bound:
                return Matrix([[a, b], [c, d]])


def test_criterion_02_witt_cocycle_identity():
    t0 = time.perf_counter()
    rng = random.Random(102)
    u = (Fraction(1), Fraction(0))
    for _ in range(100):
        quad = [_random_sl2(rng) for _ in range(4)]
        assert cocycle_identity_residual(quad, u).is_zero()
    for _ in range(20):
        g0 = _random_sl2(rng)
        lam = Fraction(rng.randint(1, 5))
        stab = Matrix([[lam, rng.randint(-5, 5)], [0, 1 / lam]])
        quad = [g0, g0 @ stab, _random_sl2(rng), _random_sl2(rng)]
        assert cocycle_identity_residual(quad, u).is_zero()
    elapsed = time.perf_counter() - t0
    _report(
        2,
        elapsed < 30.0,
        f"100 random + 20 single-coincidence cocycle residuals Witt-zero "
        f"in {elapsed:.2f}s (< 30s)",
    )


def test_criterion_03_boundary_relation_triviality():
    t0 = time.perf_counter()
    rng = random.Random(103)
    for n in (2, 4):
        for _ in range(100):
            while True:
                tup = [
                    tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n + 2)
                ]
                if is_linearly_generic(tup, n):
                    break
            assert boundary_symbol_sum(tup, "P") == 0
            assert boundary_symbol_sum(tup, "P+").is_zero()
    elapsed = time.perf_counter() - t0
    _report(
        3,
        elapsed < 60.0,
        f"boundary sums vanish in U and U+ for n=2,4 x100 in {elapsed:.2f}s (< 60s)",
    )


def test_criterion_04_section_independence():
    rep, sc, z, bundle = _bundle("g2_fuchs.json")
    selectors = [
        Selector.parse("eu0"),
        Selector("euk", 1),
        Selector("eu"),
        Selector("euplus"),
        Selector("witt"),
    ]
    reference = None
    for seed in range(20):
        s = random_generic_section(bundle, seed=seed)
        values = [evaluate_class(bundle, s, sel, z) for sel in selectors]
        if reference is None:
            reference = values
        for v, ref in zip(values, reference):
            assert v == ref
    _report(4, True, "20 seeds give identical eu0, eu1, eu, euplus, witt on g2_fuchs")


def test_criterion_05_smillie_factors():
    for name in GENUS2_FIXTURES + GENUS1_FIXTURES:
        rep, sc, z, bundle = _bundle(name)
        s = random_generic_section(bundle, seed=205)
        eu0 = evaluate_class(bundle, s, Selector.parse("eu0"), z)
        eu1 = evaluate_class(bundle, s, Selector("euk", 1), z)
        assert eu1 == -3 * eu0, name
    _, _, (px, EP, zz, S) = _product_setup("g2_fuchs.json", "g2_fuchs.json", seed=205)
    sP = random_generic_section(EP, seed=205)
    values = {k: evaluate_class(EP, sP, Selector("euk", k), zz) for k in range(3)}
    for k in (1, 2):
        assert values[k] == (-1) ** k * comb(5, k) * values[0], values
    _report(
        5,
        True,
        f"eu1 = -3 eu0 on all n=2 fixtures; n=4 product eu_k = (-1)^k C(5,k) eu0 "
        f"with eu0 = {values[0]}",
    )


def test_criterion_06_linear_relation_and_core():
    checked = []
    for name in GENUS2_FIXTURES + GENUS1_FIXTURES:
        rep, sc, z, bundle = _bundle(name)
        s = random_generic_section(bundle, seed=206)
        euplus = evaluate_class(bundle, s, Selector("euplus"), z)
        n = bundle.n
        assert (
            sum((n - 2 * k + 1) * c for k, c in enumerate(euplus.coefficients)) == 0
        ), name
        assert homological_core_check(euplus), name
        checked.append(name)
    _, _, (px, EP, zz, S) = _product_setup("g2_fuchs.json", "g2_swap.json", seed=206)
    sP = random_generic_section(EP, seed=206)
    euplusP = evaluate_class(EP, sP, Selector("euplus"), zz)
    assert sum((5 - 2 * k) * c for k, c in enumerate(euplusP.coefficients)) == 0
    assert homological_core_check(euplusP)
    _report(
        6,
        True,
        f"sum (n-2k+1) eu_k = 0 and homological core holds on {len(checked)} "
        "fixtures and the n=4 product",
    )


def test_criterion_07_comparison_factors():
    for name in GENUS2_FIXTURES + GENUS1_FIXTURES:
        rep, sc, z, bundle = _bundle(name)
        s = random_generic_section(bundle, seed=207)
        eu0 = evaluate_class(bundle, s, Selector.parse("eu0"), z)
        eu = evaluate_class(bundle, s, Selector("eu"), z)
        assert eu == 4 * eu0, name
        if bundle.tag == "SL":
            chain = surface_cycle_from_rep(rep.genus, rep.matrices)
            w = evaluate_bar(witt_cocycle, chain, (1, 0))
            assert w.signature() == 4 * eu0, name
    # 2^n on the fundamental class of the n=4 product
    _, _, (px, EP, zz, S) = _product_setup("g2_fuchs.json", "g2_fuchs.json", seed=207)
    sP = random_generic_section(EP, seed=207)
    eu0P = evaluate_class(EP, sP, Selector.parse("eu0"), zz)
    euP = evaluate_class(EP, sP, Selector("eu"), zz)
    assert euP == 2**4 * eu0P
    _report(
        7,
        True,
        f"eu = 4 eu0 (n=2), eu = 16 eu0 on the product (got {euP} = 16*{eu0P}), "
        "and bar-cycle Witt signature = 4 eu0 on SL fixtures",
    )


def test_criterion_08_oracle_agreement():
    t0 = time.perf_counter()
    results = []
    for name in ORACLE_FIXTURES:
        rep, sc, z, bundle = _bundle(name)
        s = random_generic_section(bundle, seed=208)
        exact = evaluate_class(bundle, s, Selector.parse("eu0"), z)
        numeric = rotation_euler(rep.float_matrices())
        assert exact == numeric, name
        results.append((name, exact))
    # the nonzero fixture as well
    rep, sc, z, bundle = _bundle("g2_fuchs.json")
    s = random_generic_section(bundle, seed=208)
    exact = evaluate_class(bundle, s, Selector.parse("eu0"), z)
    assert exact == rotation_euler(rep.float_matrices()) and abs(exact) == 1
    elapsed = time.perf_counter() - t0
    _report(
        8,
        elapsed < 60.0 and len(results) == 10,
        f"10 swap/solved fixtures + the maximal one agree with the rotation "
        f"oracle exactly in {elapsed:.2f}s (< 60s)",
    )


def test_criterion_09_cross_and_cup_products():
    t0 = time.perf_counter()
    (EA, sA, zA), (EB, sB, zB), (px, EP, zz, S) = _product_setup(
        "g2_fuchs.json", "g2_fuchs.json", seed=209
    )
    assert is_generic_section(EP, S, support=list(zz.coeffs))
    euA = evaluate_class(EA, sA, Selector.parse("eu0"), zA)
    euB = evaluate_class(EB, sB, Selector.parse("eu0"), zB)
    lhs = evaluate_class(EP, S, Selector.parse("eu0"), zz)
    assert lhs == euA * euB and lhs != 0
    assert zz.support_size() == 216

    from tautclass.complexes import cup_evaluate
    from tautclass.configs import uplus_symbol

    def alpha(pid):
        p, sid, q, sid2, _ = px.cell_info(2, pid)
        return (
            uplus_symbol(EA.corner_values(sA, 2, sid)).coefficients[0]
            if (p, q) == (2, 0)
            else 0
        )

    def beta(pid):
        p, sid, q, sid2, _ = px.cell_info(2, pid)
        return (
            uplus_symbol(EB.corner_values(sB, 2, sid2)).coefficients[0]
            if (p, q) == (0, 2)
            else 0
        )

    cup = cup_evaluate(px, 2, alpha, 2, beta, zz)
    assert cup == euA * euB

    # mixed dimensions vanish on a positive generic section of Sigma x S^2
    EP2, zz2, S0, witnesses = mixed_dimension_product(load_rep(rep_path("g2_fuchs.json")))
    SP = positive_generic_section(EP2, S0, witnesses, list(zz2.coeffs))
    assert is_positive_section(EP2, SP, witnesses)
    mixed = evaluate_class(EP2, SP, Selector.parse("eu0"), zz2)
    assert mixed == 0
    elapsed = time.perf_counter() - t0
    _report(
        9,
        True,
        f"cross product {lhs} = {euA}*{euB}, cup product {cup} agrees, "
        f"mixed-dimension positive-section evaluation 0, in {elapsed:.1f}s",
    )


def test_criterion_10_triangulation_bound():
    records = []
    for name in GENUS2_FIXTURES + GENUS1_FIXTURES:
        rep, sc, z, bundle = _bundle(name)
        s = random_generic_section(bundle, seed=210)
        eu0 = evaluate_class(bundle, s, Selector.parse("eu0"), z)
        support = z.support_size()
        assert support >= 2**bundle.n * abs(eu0), name
        records.append((name, support, eu0))
    _, _, (px, EP, zz, S) = _product_setup("g2_fuchs.json", "g2_fuchs.json", seed=210)
    eu0 = evaluate_class(EP, S, Selector.parse("eu0"), zz)
    assert zz.support_size() >= 2**4 * abs(eu0)
    tight = [r for r in records if r[2] != 0]
    _report(
        10,
        True,
        f"#top simplices >= 2^n |eu0| on all fixtures "
        f"(binding case: {tight[0][0]} with 6 >= 4*|{tight[0][2]}|) and the product",
    )
