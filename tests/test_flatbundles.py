import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import FIXTURES, rep_path
from fixture_builders import (
    block_diag,
    explicit_product,
    genus1_diagonal,
    genus2_fuchsian,
    genus2_rank1,
    genus2_solved,
    genus2_swap,
    holonomies,
    holonomy,
    is_positive_section,
    mixed_dimension_product,
    positive_generic_section,
    scalar_multiple_of_identity,
    sqrt2_conjugated,
    standard_simplex_complex,
    transport_to_base,
)

from tautclass.complexes import (
    Chain,
    boundary,
    cup_evaluate,
    product_chain,
    product_complex,
    surface_complex,
)
from tautclass.configs import GenericityError, UPlusSymbol, maximal_minors, u_symbol, uplus_symbol
from tautclass.exactmath import (
    QQ,
    Matrix,
    QuadExt,
    QuadraticField,
    rank,
    sign,
)
from tautclass.flatbundles import (
    TAGS,
    Bundle,
    FlatBundle,
    ProductBundle,
    RelatorError,
    Section,
    Selector,
    TagError,
    bundle_from_surface_rep,
    evaluate_class,
    is_generic_section,
    joint_scalar_sets,
    product_bundle,
    random_generic_section,
    relator_product,
    scalar_set,
)
from tautclass import cli, configs, exactmath, flatbundles
from tautclass.reps import load_rep


def _diag(a, b):
    return Matrix([[Fraction(a), 0], [0, Fraction(b)]])


def _trivial_bundle_over_simplex(n=2):
    cx = standard_simplex_complex(2)
    hol = {e: Matrix.identity(n) for e in range(len(cx.faces[1]))}
    return FlatBundle(cx, n, "SL", hol)


def test_bundle_from_surface_rep_examples():
    sc, _ = surface_complex(1)
    bundle = bundle_from_surface_rep(
        sc, [_diag(2, Fraction(1, 2)), _diag(3, Fraction(1, 3))], "SL"
    )
    bundle.validate()
    sc2, _ = surface_complex(2)
    a = Matrix([[1, 1], [0, 1]])
    b = Matrix([[1, 0], [1, 1]])
    bundle_from_surface_rep(sc2, [a, b, b, a], "SL").validate()


def test_bundle_relator_failure_reports_residual():
    sc, _ = surface_complex(1)
    a = Matrix([[1, 1], [0, 1]])
    b = Matrix([[1, 0], [1, 1]])
    with pytest.raises(RelatorError) as err:
        bundle_from_surface_rep(sc, [a, b], "SL")
    assert err.value.residual == relator_product([a, b])


def test_bundle_tag_violations():
    sc, _ = surface_complex(1)
    neg = Matrix([[0, 1], [1, 0]])  # det -1
    with pytest.raises(TagError):
        bundle_from_surface_rep(sc, [neg, neg], "SL")
    gl = _diag(2, 3)  # det 6, fine for GL+, wrong for SL
    with pytest.raises(TagError):
        bundle_from_surface_rep(sc, [gl, gl], "SL")
    bundle_from_surface_rep(sc, [gl, gl], "GL+").validate()


def test_quotient_tags_accept_scalar_triangle_residuals():
    # scaling one edge holonomy breaks the triangle condition only up to
    # a scalar, which the projective tags tolerate and the linear ones reject
    sc, _ = surface_complex(1)
    rep = genus1_diagonal()
    bundle = bundle_from_surface_rep(sc, rep.matrices, "SL")
    hol = holonomies(bundle)
    hol[0] = Matrix([[4, 0], [0, 4]]) @ hol[0]
    FlatBundle(sc, 2, "P+GL+", hol).validate()
    FlatBundle(sc, 2, "PGL+", hol).validate()
    with pytest.raises(ValueError):
        FlatBundle(sc, 2, "SL", hol)
    with pytest.raises(ValueError):
        FlatBundle(sc, 2, "GL+", hol)
    # a negative scalar residual needs the full projective tag
    hol2 = holonomies(bundle)
    hol2[0] = Matrix([[-1, 0], [0, -1]]) @ hol2[0]
    FlatBundle(sc, 2, "PGL+", hol2).validate()
    with pytest.raises(ValueError):
        FlatBundle(sc, 2, "P+GL+", hol2)
    with pytest.raises(TagError):
        # det -1 representative violates every tag here
        bad = holonomies(bundle)
        bad[0] = _diag(1, -1) @ bad[0]
        FlatBundle(sc, 2, "PGL+", bad)


def _triangle_residual_oracle(bundle_base, hol, tag):
    """The first failing 2-simplex and its residual h02^-1 h12 h01, or None."""
    for sid, faces in enumerate(bundle_base.faces[2]):
        h01, h12, h02 = (hol[faces[k]] for k in (2, 0, 1))
        residual = h02.inverse() @ (h12 @ h01)
        c = scalar_multiple_of_identity(residual)
        ok = c is not None and (
            c == 1 if tag in ("GL+", "SL") else (c != 0 if tag == "PGL+" else c > 0)
        )
        if not ok:
            return f"triangle condition fails on 2-simplex {sid} (residual {residual!r})"
    return None


@pytest.mark.parametrize(
    "tag, c, accepted",
    [
        ("PGL+", -2, True),
        ("P+GL+", -2, False),
        ("P+GL+", 3, True),
        ("PGL+", 3, True),
        ("GL+", 2, False),
        ("SL", 1, True),
    ],
)
def test_triangle_condition_up_to_tag_scalar(tag, c, accepted):
    sc, _ = surface_complex(1)
    bundle = bundle_from_surface_rep(sc, genus1_diagonal().matrices, "SL")
    hol = holonomies(bundle)
    hol[1] = Matrix([[c, 0], [0, c]]) @ hol[1]
    expected = _triangle_residual_oracle(sc, hol, tag)
    assert (expected is None) == accepted
    if accepted:
        FlatBundle(sc, 2, tag, hol)
    else:
        with pytest.raises(ValueError) as err:
            FlatBundle(sc, 2, tag, hol)
        assert str(err.value) == expected


def test_triangle_failure_message_for_non_scalar_residual():
    sc, _ = surface_complex(2)
    rep = genus2_fuchsian()
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
    hol = holonomies(bundle)
    hol[5] = Matrix([[1, Fraction(1, 2)], [0, 1]]) @ hol[5]
    expected = _triangle_residual_oracle(sc, hol, "SL")
    assert expected is not None and "residual Matrix[" in expected
    with pytest.raises(ValueError) as err:
        FlatBundle(sc, 2, "SL", hol)
    assert str(err.value) == expected


def test_transport_identity_and_path_independence():
    sc, _ = surface_complex(2)
    rep = genus2_fuchsian()
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
    for sid in range(6):
        assert transport_to_base(bundle, 2, sid, 0) == Matrix.identity(2)
        faces = sc.faces[2][sid]
        via_edges = (holonomy(bundle, faces[0]) @ holonomy(bundle, faces[2])).inverse()
        assert transport_to_base(bundle, 2, sid, 2) == via_edges


def test_is_generic_section_fixed_line():
    sc, _ = surface_complex(1)
    upper = [Matrix([[1, 1], [0, 1]]), Matrix([[1, 3], [0, 1]])]
    bundle = bundle_from_surface_rep(sc, upper, "SL")
    # e1 is fixed up to scale by upper-triangular holonomies
    assert not is_generic_section(bundle, Section({0: (1, 0)}))
    assert is_generic_section(bundle, Section({0: (0, 1)}))


def test_is_generic_section_on_diagonal_bundle():
    rep = genus1_diagonal()
    sc, _ = surface_complex(1)
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
    # single vertex, three corner transports per triangle
    assert is_generic_section(bundle, Section({0: (1, 1)}))
    assert not is_generic_section(bundle, Section({0: (1, 0)}))  # shared eigenline


def test_is_generic_section_matches_rank_oracle():
    sc, _ = surface_complex(2)
    rep = genus2_swap()
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
    rng = random.Random(17)
    agree = 0
    for _ in range(30):
        vec = (rng.randint(-3, 3), rng.randint(-3, 3))
        if vec == (0, 0):
            continue
        s = Section({0: vec})
        brute = all(
            rank(
                [
                    bundle.corner_values(s, 2, sid)[i]
                    for i in subset
                ],
                2,
            )
            == 2
            for sid in range(6)
            for subset in ((0, 1), (0, 2), (1, 2))
        )
        assert is_generic_section(bundle, s) == brute
        agree += 1
    assert agree > 20


def test_random_generic_section_determinism_and_variety():
    sc, _ = surface_complex(2)
    rep = genus2_swap()
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
    s1 = random_generic_section(bundle, seed=5)
    s2 = random_generic_section(bundle, seed=5)
    assert s1.values == s2.values
    for seed in range(20):
        s = random_generic_section(bundle, seed=seed)
        assert is_generic_section(bundle, s)


def test_random_generic_section_small_bound(monkeypatch):
    bundle = _trivial_bundle_over_simplex()
    monkeypatch.setattr(flatbundles, "SECTION_BOUND", 1)
    s = random_generic_section(bundle, seed=0)
    assert is_generic_section(bundle, s)
    assert all(abs(x) <= 2 for vec in s.values.values() for x in vec)


def test_quadratic_field_sections():
    field = QuadraticField(2)
    r = field.from_pair(0, 1)
    sc, z = surface_complex(1)
    mats = [
        Matrix([[1 + r, 0], [0, (1 + r) * 0 + 1 / (1 + r)]]),
        Matrix([[3, 0], [0, Fraction(1, 3)]]),
    ]
    bundle = bundle_from_surface_rep(sc, mats, "SL", field=field)
    s = random_generic_section(bundle, seed=1)
    assert is_generic_section(bundle, s)
    assert evaluate_class(bundle, s, Selector.parse("eu0"), z) == 0


def test_scalar_set_example():
    bundle = _trivial_bundle_over_simplex()
    s = Section({0: (1, 0), 1: (0, 1), 2: (1, 1)})
    # relation coefficients (1, 1, -1): subset sums {1, -1, 2, 0}
    assert scalar_set(bundle, s) == {1, -1, 2, 0}


def test_joint_scalar_sets_disjoint_flag():
    bundle = _trivial_bundle_over_simplex()
    s = Section({0: (1, 0), 1: (0, 1), 2: (1, 1)})
    a1, a2, disjoint = joint_scalar_sets(bundle, s, bundle, s)
    assert a1 == a2 and not disjoint
    s2 = Section({0: (1, 0), 1: (0, 1), 2: (Fraction(1, 7), Fraction(2, 7))})
    set1, set2, disjoint2 = joint_scalar_sets(bundle, s, bundle, s2)
    assert disjoint2, (set1, set2)


def test_strong_mode_rejects_zero_sum():
    bundle = _trivial_bundle_over_simplex()
    s = Section({0: (1, 1), 1: (2, 1), 2: (3, 1)})  # relation sums to zero
    assert is_generic_section(bundle, s, "basic")
    assert not is_generic_section(bundle, s, "strong")
    with pytest.raises(GenericityError):
        scalar_set(bundle, s)


def test_evaluate_class_validations():
    sc, z = surface_complex(1)
    rep = genus1_diagonal()
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
    s = random_generic_section(bundle, seed=0)
    not_cycle = Chain(2, {0: 1})
    with pytest.raises(ValueError):
        evaluate_class(bundle, s, Selector.parse("eu0"), not_cycle)
    with pytest.raises(ValueError):
        evaluate_class(bundle, s, Selector("euk", 5), z)
    with pytest.raises(GenericityError):
        bad = Section({0: (1, 0)})
        upper = bundle_from_surface_rep(
            sc, [Matrix([[1, 1], [0, 1]]), Matrix([[1, 3], [0, 1]])], "SL"
        )
        evaluate_class(upper, bad, Selector.parse("eu0"), z)


def test_witt_selector_needs_sl_over_q():
    sc, z = surface_complex(2)
    rep = genus2_solved(1)  # GL+ tag
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
    s = random_generic_section(bundle, seed=0)
    with pytest.raises(ValueError):
        evaluate_class(bundle, s, Selector("witt"), z)


def test_section_independence_twenty_seeds():
    sc, z = surface_complex(2)
    rep = genus2_fuchsian()
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
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
        else:
            for sel, v, ref in zip(selectors, values, reference):
                if sel.kind == "witt":
                    assert v == ref  # Witt equality
                else:
                    assert v == ref


def test_smillie_factor_on_fixtures():
    sc, z = surface_complex(2)
    for rep in (genus2_swap(), genus2_fuchsian(), genus2_solved(2)):
        bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
        s = random_generic_section(bundle, seed=3)
        eu0 = evaluate_class(bundle, s, Selector.parse("eu0"), z)
        eu1 = evaluate_class(bundle, s, Selector("euk", 1), z)
        assert eu1 == -3 * eu0


def test_product_bundle_and_cross_product():
    repA, repB = genus2_fuchsian(), genus2_swap()
    scA, zA = surface_complex(2)
    scB, zB = surface_complex(2)
    EA = bundle_from_surface_rep(scA, repA.matrices, repA.tag)
    EB = bundle_from_surface_rep(scB, repB.matrices, repB.tag)
    px = product_complex(scA, scB)
    EP = product_bundle(px, EA, EB)
    assert EP.tag == "SL" and EP.n == 4
    sA = random_generic_section(EA, seed=1, mode="strong")
    for seed in range(40, 60):
        sB = random_generic_section(EB, seed=seed, mode="strong")
        _, _, disjoint = joint_scalar_sets(EA, sA, EB, sB)
        if disjoint:
            break
    assert disjoint
    S = Section({0: tuple(sA.values[0]) + tuple(sB.values[0])})
    zz = product_chain(px, zA, zB)
    assert is_generic_section(EP, S, support=list(zz.coeffs))
    lhs = evaluate_class(EP, S, Selector.parse("eu0"), zz)
    assert lhs == evaluate_class(
        EA, sA, Selector.parse("eu0"), zA
    ) * evaluate_class(EB, sB, Selector.parse("eu0"), zB)


def test_product_lifts_are_integral_with_the_true_minor_signs():
    scA, zA = surface_complex(2)
    scB, zB = surface_complex(2)
    EA = bundle_from_surface_rep(scA, genus2_fuchsian().matrices, "SL")
    EB = bundle_from_surface_rep(scB, genus2_swap().matrices, "SL")
    px = product_complex(scA, scB)
    EP = product_bundle(px, EA, EB)
    assert EP.factors == (EA, EB)
    S = Section({0: (3, -1, 2, 5)})
    for sid in product_chain(px, zA, zB).coeffs:
        lifts = [lift for lift, _ in EP._corners(S.values, 4, sid)]
        assert all(type(x) is int for v in lifts for x in v)
        true_minors = maximal_minors(EP.corner_values(S, 4, sid))
        assert [sign(d) for d in maximal_minors(lifts)] == [sign(d) for d in true_minors]


def _block_sums(px, e_a, e_b):
    """Per product edge, the factor blocks [L, R] of its block-sum holonomy."""
    i_a, i_b = Matrix.identity(e_a.n), Matrix.identity(e_b.n)
    blocks = {}
    for e in range(len(px.faces[1])):
        p, sid, q, sid2, _ = px.cell_info(1, e)
        blocks[e] = [holonomy(e_a, sid) if p else i_a, holonomy(e_b, sid2) if q else i_b]
    return blocks


def _product_blocks():
    """Factor blocks [L, R] per edge of a genus-1 x genus-1 product bundle."""
    scA, _ = surface_complex(1)
    scB, _ = surface_complex(1)
    EA = bundle_from_surface_rep(scA, genus1_diagonal().matrices, "SL")
    upper = [Matrix([[1, 1], [0, 1]]), Matrix([[1, 3], [0, 1]])]
    EB = bundle_from_surface_rep(scB, upper, "SL")
    px = product_complex(scA, scB)
    return px, _block_sums(px, EA, EB)


# error texts recorded from the full 4x4 holonomy check
CORRUPTED_BLOCK_ERRORS = {
    0: "triangle condition fails on 2-simplex 2 "
    "(residual Matrix[1 2 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1])",
    1: "triangle condition fails on 2-simplex 0 "
    "(residual Matrix[1 0 0 0; 0 1 0 0; 0 0 1 1; 0 0 0 1])",
}


@pytest.mark.parametrize("side", [0, 1], ids=["L", "R"])
def test_corrupted_product_block_is_rejected(side):
    px, blocks = _product_blocks()
    # the first edge whose block on this side is a factor holonomy
    eid = next(e for e in sorted(blocks) if px.cell_info(1, e)[2 * side] == 1)
    rows = [list(r) for r in blocks[eid][side].rows]
    rows[0][1] += 1  # one entry off; the determinant stays 1
    blocks[eid][side] = Matrix(rows)
    with pytest.raises(ValueError) as err:
        FlatBundle(px, 4, "SL", {e: block_diag(*b) for e, b in blocks.items()})
    assert str(err.value) == CORRUPTED_BLOCK_ERRORS[side]


def test_product_blocks_must_share_one_scalar():
    px, blocks = _product_blocks()
    FlatBundle(px, 4, "P+GL+", {e: block_diag(*b) for e, b in blocks.items()})
    # scaling a whole holonomy by 2 is allowed up to positive scalars
    both = dict(blocks)
    both[0] = [blocks[0][0].scaled(2), blocks[0][1].scaled(2)]
    FlatBundle(px, 4, "P+GL+", {e: block_diag(*b) for e, b in both.items()})
    with pytest.raises(ValueError, match="triangle condition fails"):
        FlatBundle(px, 4, "GL+", {e: block_diag(*b) for e, b in both.items()})
    # L passes with c = 2, R with c = 1: no single scalar
    split = dict(blocks)
    split[0] = [blocks[0][0].scaled(2), blocks[0][1]]
    with pytest.raises(ValueError, match="triangle condition fails on 2-simplex"):
        FlatBundle(px, 4, "P+GL+", {e: block_diag(*b) for e, b in split.items()})


def _fuchs_times(name):
    """g2_fuchs x a genus-2 fixture: the product complex and the two factor bundles."""
    factors = []
    for rep in (load_rep(rep_path("g2_fuchs.json")), load_rep(rep_path(f"{name}.json"))):
        sc, _ = surface_complex(2)
        factors.append(bundle_from_surface_rep(sc, rep.matrices, rep.tag))
    return product_complex(factors[0].base, factors[1].base), *factors


def _first_triangle_failure(px, holonomy):
    """The error text of the first 2-simplex whose full residual is not the identity."""
    for sid, faces in enumerate(px.faces[2]):
        h12, h02, h01 = (holonomy[f] for f in faces)
        residual = h02.inverse() @ (h12 @ h01)
        if residual != Matrix.identity(residual.nrows):
            return f"triangle condition fails on 2-simplex {sid} (residual {residual!r})"
    return None


def _over_two_factor_edges(px):
    """The last product edge over a pair of factor edges."""
    return max(e for e in range(len(px.faces[1])) if px.cell_info(1, e)[:3:2] == (1, 1))


def test_product_validation_checks_every_triangle(monkeypatch):
    """The explicit block sums check all 426 triangles; the direct sum of valid factors none."""
    calls = Counter()
    _count_records(monkeypatch, calls)
    px, e_a, e_b = _fuchs_times("g2_fuchs")
    # per factor: the 4 generators (tag check) and the 9 edge holonomies
    assert calls == {"cleared": 2 * (4 + 9)}
    calls.clear()
    _count_calls(monkeypatch, Matrix, "ratio_to", calls)
    product_bundle(px, e_a, e_b)
    assert calls == {}
    explicit_product(px, e_a, e_b)
    assert calls["ratio_to"] == len(px.faces[2]) == 426


def test_a_product_bundle_has_no_holonomy_methods():
    """It keeps no holonomy, so it has no transport or validate that would read one."""
    px, e_a, e_b = _fuchs_times("g2_solved_3")
    bundle = product_bundle(px, e_a, e_b)
    assert isinstance(bundle, Bundle) and not isinstance(bundle, FlatBundle)
    assert not hasattr(bundle, "holonomy")
    assert not hasattr(bundle, "transport") and not hasattr(bundle, "validate")
    assert {"transport", "validate"} <= vars(FlatBundle).keys()  # the tracer wraps validate there
    s = Section({0: (3, -1, 2, 5)})
    assert len(bundle.corner_values(s, 4, 0)) == 5


# error texts recorded from the block-by-block check before distinct
# blocks and block triangles were shared across edges and 2-simplices
CORRUPTED_SHARED_BLOCK_ERRORS = {
    0: "triangle condition fails on 2-simplex 166 "
    "(residual Matrix[1 -1 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1])",
    1: "triangle condition fails on 2-simplex 166 "
    "(residual Matrix[1 0 0 0; 0 1 0 0; 0 0 1 -1; 0 0 0 1])",
}


@pytest.mark.parametrize("side", [0, 1], ids=["L", "R"])
def test_corrupted_copy_of_a_shared_block_is_rejected(side):
    px, e_a, e_b = _fuchs_times("g2_solved_3")
    blocks = _block_sums(px, e_a, e_b)
    eid = _over_two_factor_edges(px)
    # one edge gets a changed copy, det kept; the other edges keep the factor's matrix
    blocks[eid][side] = blocks[eid][side] @ Matrix([[1, 1], [0, 1]])
    full = {e: block_diag(*bs) for e, bs in blocks.items()}
    expected = _first_triangle_failure(px, full)
    assert expected == CORRUPTED_SHARED_BLOCK_ERRORS[side]
    with pytest.raises(ValueError) as err:
        FlatBundle(px, 4, product_bundle(px, e_a, e_b).tag, full)
    assert str(err.value) == expected


def test_det_off_on_one_product_edge_violates_sl():
    px, e_a, e_b = _fuchs_times("g2_swap2")
    assert product_bundle(px, e_a, e_b).tag == "SL"
    blocks = _block_sums(px, e_a, e_b)
    eid = _over_two_factor_edges(px)
    blocks[eid][0] = blocks[eid][0].scaled(2)  # det 4 on this edge only
    with pytest.raises(TagError, match="tag SL needs det 1, got det 4"):
        FlatBundle(px, 4, "SL", {e: block_diag(*bs) for e, bs in blocks.items()})


def _count_calls(monkeypatch, cls, name, calls):
    original = getattr(cls, name)

    def counted(self, *args):
        calls[name] += 1
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)


def _count_records(monkeypatch, calls):
    """Count the integral records a Matrix fills, not the reads of a filled one."""
    record = Matrix.cleared

    def counted(self):
        calls["cleared"] += self._integral is None
        return record(self)

    monkeypatch.setattr(Matrix, "cleared", counted)


def test_factor_transports_invert_only_the_diagonal_edges(monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, Matrix, "_scaled_inverse", calls)
    px, e_a, e_b = _fuchs_times("g2_solved_3")
    calls.clear()  # building a factor inverts its 4 generators
    # the 4 generator edges hold inverses, which carry their own scaled
    # inverse: of 9 edges per factor, only the 5 diagonals compute one
    for factor in (e_a, e_b):
        for eid in range(len(factor.base.faces[1])):
            m, lam = factor.transport(eid)
            assert holonomy(factor, eid) @ m == Matrix.identity(2).scaled(lam)
    assert calls == {"_scaled_inverse": 2 * 5}
    # the product's lifts are sums of the factors' lifts: no inverse of its own
    bundle = product_bundle(px, e_a, e_b)
    s = Section({0: (3, -1, 2, 5)})
    for sid in range(len(px.faces[4])):
        bundle._corners(s.values, 4, sid)
    assert calls == {"_scaled_inverse": 2 * 5}


FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.json"))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_edge_transports_equal_a_fresh_scaled_inverse(name):
    """The generator edges hold inverses, whose scaled inverse is carried, not computed."""
    rep = load_rep(rep_path(f"{name}.json"))
    sc, _ = surface_complex(rep.genus)
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag, rep.field)
    for eid, h in holonomies(bundle).items():
        m, lam = h._scaled_inverse()
        assert bundle.transport(eid) == (m, lam)


@pytest.mark.parametrize("field", [QQ, QuadraticField(2)])
def test_an_inverse_carries_the_scaled_inverse_it_would_compute(field):
    rng = random.Random(5)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        entries = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)
        ]
        if field != QQ:
            entries = [[field.from_pair(x, Fraction(rng.randint(-3, 3), 2)) for x in r] for r in entries]
        m = Matrix(entries)
        if not m.det():
            continue
        inv = m.inverse()
        assert inv.scaled_inverse() == inv._scaled_inverse()
        assert inv.inverse() == m
        checked += 1
    assert checked >= 40


def _product_with_generic_section(name):
    """g2_fuchs x a genus-2 fixture, its product cycle and a generic product section."""
    rep_a, rep_b = load_rep(rep_path("g2_fuchs.json")), load_rep(rep_path(f"{name}.json"))
    (sc_a, z_a), (sc_b, z_b) = surface_complex(2), surface_complex(2)
    e_a = bundle_from_surface_rep(sc_a, rep_a.matrices, rep_a.tag)
    e_b = bundle_from_surface_rep(sc_b, rep_b.matrices, rep_b.tag)
    px = product_complex(sc_a, sc_b)
    s_a = random_generic_section(e_a, seed=1, mode="strong")
    for seed in range(40, 60):
        s_b = random_generic_section(e_b, seed=seed, mode="strong")
        if joint_scalar_sets(e_a, s_a, e_b, s_b)[2]:
            break
    section = Section({0: tuple(s_a.values[0]) + tuple(s_b.values[0])})
    return product_bundle(px, e_a, e_b), section, product_chain(px, z_a, z_b)


def _fresh(bundle):
    """A new bundle with the same base and holonomy (over fresh factors), whose lift caches are empty."""
    if isinstance(bundle, ProductBundle):
        return product_bundle(bundle.base, *map(_fresh, bundle.factors))
    return FlatBundle(bundle.base, bundle.n, bundle.tag, bundle.holonomy, bundle.field)


def _record_lifts(monkeypatch, lifted, sums):
    """Count lift computations per edge id (None at corner 0).

    ``lifted`` counts the matrix lifts of plain bundles, ``sums`` the
    direct-sum lifts of product bundles.
    """
    for cls, counter in ((FlatBundle, lifted), (ProductBundle, sums)):

        def recorded(self, eid, vec, lift=cls._lift, counter=counter):
            counter[eid] += 1
            return lift(self, eid, vec)

        monkeypatch.setattr(cls, "_lift", recorded)


def test_evaluation_applies_each_corner_transport_once(monkeypatch):
    bundle, s, zz = _product_with_generic_section("g2_solved_3")
    cx = bundle.base
    lifted = {
        (eid, v)
        for sid in zz.coeffs
        for eid, v in zip(cx.corner_edges[4][sid], cx.vertices[4][sid][1:])
    }
    assert (len(zz.coeffs), len(lifted)) == (216, 63)  # 216 * 4 = 864 corner lifts
    # the factor edges under them, None where the product edge keeps a factor's vertex
    under = [{None}, {None}]
    for eid, _ in lifted:
        p, sid, q, sid2, _ = cx.cell_info(1, eid)
        under[0].add(sid if p else None)
        under[1].add(sid2 if q else None)
    assert list(map(len, under)) == [8, 8]  # corner 0 and the 7 corner edges of each factor
    # the oracle: symbols of the true corner values of the block-sum bundle
    oracle = explicit_product(cx, *bundle.factors)
    values = {sid: oracle.corner_values(s, 4, sid) for sid in zz.coeffs}
    plus = {sid: uplus_symbol(v) for sid, v in values.items()}
    plain = {sid: u_symbol(v) for sid, v in values.items()}
    total = UPlusSymbol(
        4, tuple(sum(c * plus[sid].coefficients[a] for sid, c in zz.coeffs.items()) for a in range(3))
    )
    expected = {
        "eu0": (total.coefficients[0], plus),
        "euplus": (total, plus),
        "eu": (sum(plain[sid] * c for sid, c in zz.coeffs.items()), plain),
    }
    bundle = _fresh(bundle)
    calls, lifted_now, sums = Counter(), Counter(), Counter()
    _count_calls(monkeypatch, Matrix, "apply", calls)
    _record_lifts(monkeypatch, lifted_now, sums)
    for i, (text, (value, symbols)) in enumerate(expected.items()):
        calls.clear()
        lifted_now.clear()
        sums.clear()
        got, detail = evaluate_class(bundle, s, Selector.parse(text), zz, detail=True)
        if i == 0:
            # one direct-sum lift per distinct (edge, vertex value) and one of the
            # corner-0 value (edge None); under them, one matrix lift per factor
            # edge, each applying its 2 x 2 transport once, and the factors' corner 0
            assert sums == Counter({None: 1, **{eid: 1 for eid, _ in lifted}})
            assert sum(lifted_now.values()) == 16 and lifted_now[None] == 2
            assert calls == {"apply": 14}
        else:
            # the bundles keep their lifts: a later evaluation computes none
            assert lifted_now == sums == calls == {}
        assert got == value
        assert detail == {sid: symbols[sid] for sid in zz.coeffs}


def test_sampling_and_evaluation_compute_each_lift_once(monkeypatch, capsys):
    lifted, sums = Counter(), Counter()
    _record_lifts(monkeypatch, lifted, sums)
    rep = load_rep(rep_path("g2_fuchs.json"))
    sc, z = surface_complex(2)
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
    s = random_generic_section(bundle, seed=0)
    evaluate_class(bundle, s, Selector.parse("eu0"), z)
    # the one vertex's first candidate is accepted: its value at corner 0 and
    # along the 7 corner edges; the evaluation reads those lifts and computes none
    assert sum(lifted.values()) == 8 == len(bundle._lifts) and sums == {}
    lifted.clear()
    argv = ["product", "--repA", rep_path("g2_fuchs.json"), "--repB", rep_path("g2_solved_3.json")]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    # each factor's 8 sampling lifts; the product's corners are direct sums
    # of those, read from the factors' caches, so no product bundle lifts
    assert (sum(lifted.values()), sum(sums.values())) == (16, 0)


def test_product_checks_only_the_factors_top_simplices(monkeypatch, capsys):
    """Strong sampling of each factor checks its 6 triangles and no edge.

    A face's corners are some of a triangle's corners under one transport,
    so a generic triangle leaves no edge to check and no rank to take.
    """
    calls = Counter()
    _count_calls(monkeypatch, flatbundles, "rank_int", calls)
    _count_calls(monkeypatch, flatbundles, "_check_simplex_partial", calls)
    argv = ["product", "--repA", rep_path("g2_fuchs.json"), "--repB", rep_path("g2_solved_3.json")]
    assert cli.main(argv + ["--seed", "0"]) == cli.EXIT_OK
    capsys.readouterr()
    assert calls == {"_check_simplex_partial": 12}


@pytest.mark.parametrize("name", ["g2_fuchs", "g2_swap"])
def test_a_used_bundle_reads_as_a_fresh_one(name):
    """The lift cache is keyed by the vector, so a second section misses it, never reads the first."""
    rep = load_rep(rep_path(f"{name}.json"))
    sc, z = surface_complex(2)
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
    selectors = [Selector.parse(text) for text in ("eu0", "eu", "euplus", "witt")]
    used = [random_generic_section(bundle, seed=seed, mode="strong") for seed in (0, 1)]
    assert used[0] != used[1]
    for seed, s in zip((0, 1), used):
        assert random_generic_section(_fresh(bundle), seed=seed, mode="strong") == s
        for selector in selectors:
            expected = evaluate_class(_fresh(bundle), s, selector, z, detail=True)
            assert evaluate_class(bundle, s, selector, z, detail=True) == expected
        assert scalar_set(bundle, s) == scalar_set(_fresh(bundle), s)


def test_product_evaluation_builds_no_block_sum_and_clears_each_lift_once(monkeypatch):
    """The factors' sampling cleared every lift the product reads: it builds, inverts,
    applies and clears nothing."""
    bundle, s, zz = _product_with_generic_section("g2_solved_3")
    calls = Counter()
    for name in ("__init__", "_scaled_inverse", "apply"):
        _count_calls(monkeypatch, Matrix, name, calls)
    for module in (exactmath, configs, flatbundles):
        def counted_clear(row, clear=module.clear_denominators):
            calls["clear_denominators"] += 1
            return clear(row)

        monkeypatch.setattr(module, "clear_denominators", counted_clear)
    for text in ("eu0", "eu", "euplus"):
        calls.clear()
        evaluate_class(bundle, s, Selector.parse(text), zz)
        assert calls == {}


def _rescaled(s, factor):
    """The section with every value multiplied by the positive rational factor, as Fractions."""
    return Section({v: tuple(Fraction(factor) * x for x in vec) for v, vec in s.values.items()})


def test_rescaled_product_section_gives_the_same_values_and_symbols():
    """A positive rescaling of the corner values changes no symbol (``configs.subset_minors``),
    so Fraction vertex values, cleared once per lift, read as the integral ones."""
    bundle, s, zz = _product_with_generic_section("g2_solved_3")
    rescaled = _rescaled(s, Fraction(5, 12))
    assert all(type(x) is Fraction for vec in rescaled.values.values() for x in vec)
    for text in ("eu0", "eu", "euplus"):
        selector = Selector.parse(text)
        expected = evaluate_class(bundle, s, selector, zz, detail=True)
        assert evaluate_class(bundle, rescaled, selector, zz, detail=True) == expected


@pytest.mark.parametrize("name", ["g2_fuchs", "g2_swap", "g2_swap2"])
def test_rescaled_section_gives_the_same_witt_values_and_symbols(name):
    rep = load_rep(rep_path(f"{name}.json"))
    sc, z = surface_complex(2)
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
    witt = Selector.parse("witt")
    for seed, factor in ((0, Fraction(7, 3)), (1, Fraction(1, 10)), (2, 6)):
        s = random_generic_section(bundle, seed=seed, mode="strong")
        rescaled = _rescaled(s, factor)
        expected = evaluate_class(bundle, s, witt, z, detail=True)
        assert evaluate_class(bundle, rescaled, witt, z, detail=True) == expected
        # the relations read the scales too: a lift's own multiplier is part of its scale
        assert scalar_set(bundle, rescaled) == scalar_set(bundle, s)


# euplus of each Q fixture; its Q(sqrt(2)) conjugate must give the same
SQRT2_EUPLUS = {"g2_fuchs": (-1, 3), "g1_diag": (0, 0), "g2_swap": (0, 0)}


@pytest.mark.parametrize("name", sorted(SQRT2_EUPLUS))
def test_sqrt2_conjugate_bundle_keeps_euplus(name):
    rep = load_rep(rep_path(f"{name}.json"))
    conj = sqrt2_conjugated(rep)
    assert all(any(isinstance(x, QuadExt) and x.b for r in m.rows for x in r) for m in conj.matrices)
    sc, z = surface_complex(rep.genus)
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
    conj_bundle = bundle_from_surface_rep(sc, conj.matrices, conj.tag, conj.field)
    euplus = Selector.parse("euplus")
    for seed in range(5):
        expected = evaluate_class(bundle, random_generic_section(bundle, seed), euplus, z)
        got = evaluate_class(conj_bundle, random_generic_section(conj_bundle, seed), euplus, z)
        assert got == expected and got.coefficients == SQRT2_EUPLUS[name]


def test_sqrt2_product_cross_equals_cup_and_the_factor_product():
    conj = sqrt2_conjugated(load_rep(rep_path("g2_fuchs.json")))
    (sc_a, z_a), (sc_b, z_b) = surface_complex(2), surface_complex(2)
    e_a, e_b = (bundle_from_surface_rep(sc, conj.matrices, conj.tag, conj.field) for sc in (sc_a, sc_b))
    px = product_complex(sc_a, sc_b)
    bundle, zz = product_bundle(px, e_a, e_b), product_chain(px, z_a, z_b)
    s_a = random_generic_section(e_a, seed=1, mode="strong")
    for seed in range(2, 30):
        s_b = random_generic_section(e_b, seed, "strong")
        if joint_scalar_sets(e_a, s_a, e_b, s_b)[2]:
            break
    eu0 = Selector.parse("eu0")
    eu_a, eu_b = evaluate_class(e_a, s_a, eu0, z_a), evaluate_class(e_b, s_b, eu0, z_b)
    cross = evaluate_class(bundle, Section({0: s_a.values[0] + s_b.values[0]}), eu0, zz)

    def factor_eu0(e, s, d, sid):
        return uplus_symbol(e.corner_values(s, d, sid)).coefficients[0] if d == 2 else 0

    def alpha(pid):
        p, sid, q, _, _ = px.cell_info(2, pid)
        return factor_eu0(e_a, s_a, p, sid) if q == 0 else 0

    def beta(pid):
        p, _, q, sid2, _ = px.cell_info(2, pid)
        return factor_eu0(e_b, s_b, q, sid2) if p == 0 else 0

    cup = cup_evaluate(px, 2, alpha, 2, beta, zz)
    assert cross == cup == eu_a * eu_b == 1


@pytest.mark.parametrize("mode", ["basic", "strong"])
def test_sampling_reads_corner_edges_from_the_table(monkeypatch, mode):
    rep = load_rep(rep_path("g2_fuchs.json"))
    bundle = bundle_from_surface_rep(surface_complex(2)[0], rep.matrices, rep.tag)
    transported = set()
    transport = FlatBundle.transport

    def recorded(self, eid):
        transported.add(eid)
        return transport(self, eid)

    monkeypatch.setattr(FlatBundle, "transport", recorded)
    s = random_generic_section(bundle, seed=3, mode=mode)
    assert is_generic_section(bundle, s, mode)
    # the package has no face walk: the transported edges are the table's
    # entries on the top simplices, in mode "strong" too
    assert transported == {e for edges in bundle.base.corner_edges[2] for e in edges}
    assert len(transported) == 7 < len(bundle.base.faces[1])


# left multiplication by the unit quaternions i and j: [L_i, L_j] = L_{-1} = -I
QUATERNION_I = Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
QUATERNION_J = Matrix([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])


def _random_sl(rng, n):
    """A product of elementary matrices: an element of SL(n, Z)."""
    m = Matrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        t = rng.randint(-2, 2)
        m = m @ Matrix([[int(r == c) + t * ((r, c) == (i, j)) for c in range(n)] for r in range(n)])
    return m


def _random_rep(rng, g, n):
    """2g generators in SL(n, Z): each pair commutes, is random, or (n = 4)
    is a conjugate of the quaternion pair, whose commutator is -I."""
    kinds = ["commuting", "random"] + (["quaternion"] if n == 4 else [])
    matrices = []
    for _ in range(g):
        kind = rng.choice(kinds)
        if kind == "quaternion":
            p = _random_sl(rng, n)
            matrices += [p @ q @ p.inverse() for q in (QUATERNION_I, QUATERNION_J)]
        else:
            a = _random_sl(rng, n)
            matrices += [a, a @ a if kind == "commuting" else _random_sl(rng, n)]
    return matrices


def _relator_holds(matrices, tag):
    """The relator decision taken apart from validation: R == c*I, c in the tag's scalars."""
    c = scalar_multiple_of_identity(relator_product(matrices))
    if c is None:
        return False
    return c == 1 if tag in ("GL+", "SL") else (c != 0 if tag == "PGL+" else c > 0)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_validation_decides_the_relator(g):
    assert relator_product([QUATERNION_I, QUATERNION_J]) == Matrix.identity(4).scaled(-1)
    rng = random.Random(g)
    sc, _ = surface_complex(g)
    outcomes = Counter()
    for _ in range(30):
        generators = _random_rep(rng, g, rng.choice([2, 4]))
        for tag in TAGS:
            matrices = generators
            if tag != "SL":  # positive scalars leave every commutator alone
                matrices = [m.scaled(Fraction(rng.randint(1, 4), rng.randint(1, 4))) for m in matrices]
            holds = _relator_holds(matrices, tag)
            outcomes[tag, holds] += 1
            if holds:
                bundle_from_surface_rep(sc, matrices, tag).validate()
                continue
            with pytest.raises(RelatorError) as err:
                bundle_from_surface_rep(sc, matrices, tag)
            residual = relator_product(matrices)
            assert err.value.residual == residual
            assert str(err.value) == f"relator is not the identity; residual {residual!r}"
    assert all(outcomes[tag, holds] for tag in TAGS for holds in (True, False)), outcomes
    # a relator -I is accepted by PGL+ only
    assert outcomes["PGL+", True] > outcomes["P+GL+", True]


def test_valid_fixtures_build_without_a_relator_product(monkeypatch, fixtures_dir):
    calls = Counter()
    original = flatbundles.relator_product

    def counted(matrices):
        calls["relator_product"] += 1
        return original(matrices)

    monkeypatch.setattr(flatbundles, "relator_product", counted)
    paths = sorted(fixtures_dir.glob("*.json"))
    for path in paths:
        rep = load_rep(str(path))
        sc, _ = surface_complex(rep.genus)
        bundle_from_surface_rep(sc, rep.matrices, rep.tag, rep.field)
    assert len(paths) == 15 and calls["relator_product"] == 0
    sc, _ = surface_complex(1)
    with pytest.raises(RelatorError):
        bundle_from_surface_rep(sc, [Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [1, 1]])], "SL")
    assert calls["relator_product"] == 1


def _integral(x) -> bool:
    if isinstance(x, QuadExt):
        return x.a.denominator == x.b.denominator == 1
    return type(x) is int


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("field", [QQ, QuadraticField(2)], ids=["Q", "Q(sqrt2)"])
def test_integer_transports_keep_the_maximal_minor_signs(field, n):
    rng = random.Random(n)

    def scalar():
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if field == QQ:
            return a
        return field.from_pair(a, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    rounds = 0
    while rounds < 6:
        hs = [Matrix([[scalar() for _ in range(n)] for _ in range(n)]) for _ in range(n)]
        vecs = [tuple(scalar() for _ in range(n)) for _ in range(n + 1)]
        if not all(h.det() for h in hs):
            continue
        true, lifts = [vecs[0]], [vecs[0]]
        for h, v in zip(hs, vecs[1:]):
            inv = h.inverse()
            m, lam = h.scaled_inverse()
            assert type(lam) is int and lam > 0
            assert all(_integral(x) for row in m.rows for x in row)
            assert m == inv.scaled(lam)
            true.append(inv.apply(v))
            lifts.append(m.apply(v))
        signs = [sign(d) for d in maximal_minors(true)]
        if 0 in signs:
            continue
        assert [sign(d) for d in maximal_minors(lifts)] == signs
        rounds += 1


def test_trivial_product_bundle_and_tags():
    scA, _ = surface_complex(1)
    scB, _ = surface_complex(1)
    trivA = bundle_from_surface_rep(
        scA, [Matrix.identity(2), Matrix.identity(2)], "SL"
    )
    trivB = bundle_from_surface_rep(
        scB, [Matrix.identity(1), Matrix.identity(1)], "GL+"
    )
    px = product_complex(scA, scB)
    EP = product_bundle(px, trivA, trivB)
    assert EP.n == 3 and EP.tag == "GL+"
    assert all(m == Matrix.identity(3) for m in holonomies(EP).values())


def test_a_product_factor_may_be_a_product():
    # g1_diag x g1_diag x g1_diag: the left factor is itself a product bundle
    sc, _ = surface_complex(1)
    e = bundle_from_surface_rep(sc, genus1_diagonal().matrices, "SL")
    e2 = product_bundle(product_complex(sc, sc), e, e)
    px = product_complex(e2.base, sc)
    bundle = product_bundle(px, e2, e)
    assert (bundle.n, bundle.tag, bundle.factors) == (6, "SL", (e2, e))
    # its block sums are those of three factors, and they pass the triangle check
    explicit = explicit_product(px, e2, e)
    for eid in range(len(px.faces[1])):
        p, sid, q, sid2, _ = px.cell_info(1, eid)
        left = holonomy(e2, sid) if p == 1 else Matrix.identity(4)
        right = holonomy(e, sid2) if q == 1 else Matrix.identity(2)
        assert explicit.holonomy[eid] == block_diag(left, right)


def test_product_bundle_rejects_mismatches():
    scA, _ = surface_complex(2)
    scB, _ = surface_complex(2)
    repA = genus2_swap()
    EA = bundle_from_surface_rep(scA, repA.matrices, repA.tag)
    field = QuadraticField(2)
    matsB = [m for m in repA.matrices]
    EB_quad = bundle_from_surface_rep(scB, matsB, "SL", field=field)
    px = product_complex(scA, scB)
    with pytest.raises(ValueError):
        product_bundle(px, EA, EB_quad)


RANK2_FIXTURES = [
    p.name for p in sorted(FIXTURES.glob("*.json")) if load_rep(str(p)).matrices[0].nrows == 2
]


def test_the_rank2_fixtures_are_the_fourteen_surfaces():
    assert len(RANK2_FIXTURES) == 14


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", RANK2_FIXTURES)
def test_mixed_dimension_positive_vanishing(name, seed):
    EP, zz, S0, witnesses = mixed_dimension_product(load_rep(rep_path(name)), seed)
    assert boundary(EP.base, zz).is_zero()
    support = list(zz.coeffs)
    SP = positive_generic_section(EP, S0, witnesses, support, seed=seed)
    assert is_positive_section(EP, SP, witnesses)
    assert is_generic_section(EP, SP, support=support)
    assert evaluate_class(EP, SP, Selector.parse("eu0"), zz) == 0
    # positivity forces the vanishing termwise, not by cancellation
    for sid in zz.coeffs:
        assert uplus_symbol(EP.corner_values(SP, 3, sid)).coefficients[0] == 0
    s_rand = random_generic_section(EP, seed=seed, support=support)
    assert evaluate_class(EP, s_rand, Selector.parse("eu0"), zz) == 0


def test_rank1_bundle():
    sc, z = surface_complex(2)
    rep = genus2_rank1()
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag)
    assert bundle.n == 1
    s = random_generic_section(bundle, seed=0)
    assert is_generic_section(bundle, s)
