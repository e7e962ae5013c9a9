"""Flat bundles as edge holonomies, generic sections, class evaluation.

A flat bundle assigns an invertible matrix to every edge of the base
complex; the triangle condition h(e02) = h(e12) h(e01) on every
2-simplex (up to the scalar subgroup of the structure tag) makes
parallel transport inside a simplex path-independent.  Evaluating a
class on a cycle folds the canonical symbol of the transported corner
tuple over the cycle's top simplices.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

from . import configs
from ._kernels import maximal_minors_int, rank_int
from ._value import Value
from .complexes import Chain, DeltaComplex, ProductComplex, boundary, signed_paths
from .configs import GenericityError
from .exactmath import (
    Field,
    clear_denominators,
    exact_div,
    Matrix,
    QQ,
    QuadraticField,
    render_scalar,
    Scalar,
    sign,
    vec_is_zero,
)

TAGS = ("GL+", "SL", "PGL+", "P+GL+")
LINEAR_TAGS = ("GL+", "SL")


class RelatorError(ValueError):
    """The defining relator of a representation is not the identity."""

    def __init__(self, residual: Matrix):
        self.residual = residual
        super().__init__(f"relator is not the identity; residual {residual!r}")


class TagError(ValueError):
    """A holonomy matrix violates the structure tag."""


class TriangleError(ValueError):
    """The triangle condition fails on a 2-simplex."""


class UsageError(ValueError):
    """The caller's input is at fault: a selector, cycle or bundle that doesn't fit."""


def _tag_allows(x: Scalar, y: Scalar, tag: str) -> bool:
    """Whether the scalar matrix (x/y)*I, y != 0, lies in the tag's scalar subgroup."""
    if tag in LINEAR_TAGS:
        return not (x - y)
    if tag == "PGL+":
        return bool(x)
    return sign(x) * sign(y) > 0  # P+GL+


def _check_tag_det(h: Matrix, tag: str) -> None:
    """Raise TagError unless det h fits the tag, read from h's integral record."""
    _, m, d = h.cleared()
    den = m**h.nrows
    if not d:
        raise TagError("holonomy matrix is singular")
    if tag == "SL":
        if d - den:
            raise TagError(f"tag SL needs det 1, got det {exact_div(d, den)}")
    elif sign(d) <= 0:
        raise TagError(f"tag {tag} needs a positive-determinant representative")


class Bundle:
    """A bundle over a Delta-complex that transports section values to corner 0.

    Its corner lifts are kept for its life; a subclass says how one is
    computed (``_lift``).
    """

    def __init__(self, base: DeltaComplex, n: int, tag: str, field: Field):
        self.base, self.n, self.tag, self.field = base, n, tag, field
        self._lifts: dict[tuple, tuple[tuple, int]] = {}

    def corner_values(self, s: "Section", dim: int, sid: int) -> list[tuple[Scalar, ...]]:
        """Section values at the corners, transported to the corner-0 frame."""
        return [
            lift if scale == 1 else tuple(exact_div(x, scale) for x in lift)
            for lift, scale in self._corners(s.values, dim, sid)
        ]

    def _corners(self, values: Mapping, dim: int, sid: int) -> list[tuple[tuple, int]]:
        """(lift, scale) for each corner whose vertex has a value.

        The corner's value in the corner-0 frame is lift / scale: the lift is
        integral (``clear_denominators``) and the scale a positive integer.
        ``values`` maps vertices to vectors: a section's values or a partial
        assignment.
        """
        edges, vertices = self.base.corner_edges[dim][sid], self.base.vertices[dim][sid]
        return [
            self._lifted(eid, values[v]) for eid, v in zip((None, *edges), vertices) if v in values
        ]

    def _lifted(self, eid: int | None, vec: Sequence[Scalar]) -> tuple[tuple, int]:
        """``_lift(eid, vec)``, kept for the bundle's life: every reader shares it."""
        key = eid, tuple(vec)
        corner = self._lifts.get(key)
        if corner is None:
            corner = self._lifts[key] = self._lift(*key)
        return corner

    def _lift(self, eid: int | None, vec: Sequence[Scalar]) -> tuple[tuple, int]:
        """(lift, scale) of vec transported along edge eid, not transported for None."""
        raise NotImplementedError


class FlatBundle(Bundle):
    """Edge-holonomy presentation of a flat bundle over a Delta-complex."""

    def __init__(
        self,
        base: DeltaComplex,
        n: int,
        tag: str,
        holonomy: Mapping[int, Matrix],
        field: Field = QQ,
    ):
        if tag not in TAGS:
            raise ValueError(f"unknown structure tag {tag!r}")
        super().__init__(base, n, tag, field)
        self.holonomy = dict(holonomy)
        self.validate()

    def validate(self) -> None:
        """Shape and tag of every edge, the triangle condition on every 2-simplex."""
        n_edges = len(self.base.faces[1]) if self.base.dimension >= 1 else 0
        cleared = []  # per edge, (a, m) with a = m * h integral
        for eid in range(n_edges):
            if eid not in self.holonomy:
                raise ValueError(f"edge {eid} has no holonomy")
            h = self.holonomy[eid]
            if (h.nrows, h.ncols) != (self.n, self.n):
                raise ValueError(f"holonomy of edge {eid} has wrong shape")
            _check_tag_det(h, self.tag)
            cleared.append(h.cleared()[:2])
        if self.base.dimension >= 2:
            for sid, faces in enumerate(self.base.faces[2]):
                # h02^-1 h12 h01 == c*I  iff  h12 h01 == c*h02, as h02 is invertible
                (a12, m12), (a02, m02), (a01, m01) = (cleared[f] for f in faces)
                r = (a12 @ a01).ratio_to(a02)
                # a12 a01 == (x/y) a02 gives h12 h01 == (x m02 / (y m12 m01)) h02
                if r is None or not _tag_allows(r[0] * m02, r[1] * m12 * m01, self.tag):
                    h12, h02, h01 = (self.holonomy[f] for f in faces)
                    residual = h02.inverse() @ (h12 @ h01)
                    raise TriangleError(
                        f"triangle condition fails on 2-simplex {sid} "
                        f"(residual {residual!r})"
                    )

    def transport(self, eid: int) -> tuple[Matrix, int]:
        """(M, lam) for edge eid: M = lam * h^-1 integral, lam > 0."""
        return self.holonomy[eid].scaled_inverse()

    def _lift(self, eid: int | None, vec: Sequence[Scalar]) -> tuple[tuple, int]:
        if eid is None:
            image, lam = vec, 1
        else:
            m, lam = self.transport(eid)
            image = m.apply(vec)
        lift, mult = clear_denominators(image)
        return tuple(lift), lam * mult


class ProductBundle(Bundle):
    """The direct sum of two valid bundles over their product complex, so valid itself.

    It keeps no holonomy, so it has neither ``transport`` nor ``validate``:
    a lift along product edge (p, sid, q, sid2) is the direct sum of the
    factors' lifts along edge sid (p = 1, else none) and sid2.
    """

    def __init__(self, px: ProductComplex, e1: Bundle, e2: Bundle, tag: str):
        super().__init__(px, e1.n + e2.n, tag, e1.field)
        self.factors = e1, e2

    def _lift(self, eid: int | None, vec: Sequence[Scalar]) -> tuple[tuple, int]:
        """l1/s1 + l2/s2 = (s2 l1 + s1 l2) / (s1 s2), summands read from the factors' lifts."""
        p, sid, q, sid2, _ = (0,) * 5 if eid is None else self.base.cell_info(1, eid)
        e1, e2 = self.factors
        l1, s1 = e1._lifted(sid if p else None, vec[: e1.n])
        l2, s2 = e2._lifted(sid2 if q else None, vec[e1.n :])
        return tuple(s2 * x for x in l1) + tuple(s1 * x for x in l2), s1 * s2


class Section(Value):
    """A vertex-indexed choice of nonzero fiber vectors."""

    __slots__ = ("values",)

    def __init__(self, values: dict[int, tuple[Scalar, ...]]):
        for v, vec in values.items():
            if vec_is_zero(vec):
                raise ValueError(f"section vanishes at vertex {v}")
        self._set(values=values)

    def to_json(self) -> dict:
        return {str(v): [render_scalar(x) for x in vec] for v, vec in self.values.items()}


class Selector(Value):
    """Which characteristic class to evaluate: eu, eu_k, eu_plus or witt."""

    __slots__ = ("kind", "k")

    def __init__(self, kind: str, k: int | None = None):
        # kind is "eu" | "euk" | "euplus" | "witt"
        if kind not in ("eu", "euk", "euplus", "witt"):
            raise UsageError(f"unknown selector kind {kind!r}")
        if (kind == "euk") != (k is not None):
            raise UsageError("selector euk needs k, others must not have it")
        self._set(kind=kind, k=k)

    @classmethod
    def parse(cls, text: str) -> "Selector":
        if text == "eu0":
            return cls("euk", 0)
        if text.startswith("euk:") and text[4:].isdecimal():
            return cls("euk", int(text[4:]))
        if text in ("eu", "euplus", "witt"):
            return cls(text)
        raise UsageError(f"unknown selector {text!r}")

    def __str__(self):
        if self.kind == "euk":
            return "eu0" if self.k == 0 else f"euk:{self.k}"
        return self.kind


# ---------------------------------------------------------------------------
# construction from surface representations
# ---------------------------------------------------------------------------


def relator_product(matrices: Sequence[Matrix]) -> Matrix:
    """[A1,B1] [A2,B2] ... as a matrix product, left to right."""
    out = Matrix.identity(matrices[0].nrows)
    for a, b in zip(matrices[::2], matrices[1::2]):
        out = out @ (a @ b @ a.inverse() @ b.inverse())
    return out


def bundle_from_surface_rep(
    sc, matrices: Sequence[Matrix], tag: str = "SL", field: Field = QQ
) -> FlatBundle:
    """Flat bundle on a genus-g surface complex from generator matrices.

    matrices = (A1, B1, ..., Ag, Bg); the product of commutators must be
    the identity in the tag's quotient group.  Boundary edges carry the
    generator holonomies, diagonals the products forced by the triangle
    condition.  That makes every fan triangle but the last (2-simplex
    4g - 3) hold, and the last holds iff the relator is a scalar of the
    tag, so validation decides the relator once.
    """
    g = sc.genus
    if len(matrices) != 2 * g:
        raise ValueError(f"genus {g} needs 2g = {2 * g} matrices")
    n = matrices[0].nrows
    for m in matrices:
        if m.nrows != n or m.ncols != n:
            raise ValueError("matrices must be square of equal size")
        _check_tag_det(m, tag)
    inv = [m.inverse() for m in matrices]
    holonomy: dict[int, Matrix] = dict(enumerate(inv))  # the a_j and b_j edges
    # traversal holonomy of side k in polygon direction
    letters = [x for j in range(0, 2 * g, 2) for x in (*inv[j : j + 2], *matrices[j : j + 2])]
    prefix = letters[0]
    for i in range(2, 4 * g - 1):
        prefix = letters[i - 1] @ prefix
        holonomy[2 * g + (i - 2)] = prefix
    try:
        return FlatBundle(sc, n, tag, holonomy, field=field)
    except TriangleError:
        raise RelatorError(relator_product(matrices)) from None


def check_product(e1: Bundle, e2: Bundle) -> None:
    """Raise UsageError unless the direct sum of e1 and e2 exists: one field, linear tags."""
    if e1.field != e2.field:
        raise UsageError("product of bundles over different fields")
    if e1.tag not in LINEAR_TAGS or e2.tag not in LINEAR_TAGS:
        raise UsageError("product bundles need linear tags (GL+ or SL)")


def product_bundle(px: ProductComplex, e1: Bundle, e2: Bundle) -> ProductBundle:
    """The direct sum of the factors over their product complex."""
    check_product(e1, e2)
    if px.left is not e1.base or px.right is not e2.base:
        raise ValueError("product complex does not match the bundle bases")
    tag = "SL" if (e1.tag, e2.tag) == ("SL", "SL") else "GL+"
    return ProductBundle(px, e1, e2, tag)


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


def _scope(bundle: Bundle, support: Iterable[int] | None) -> dict[int, list[int]]:
    """Per vertex in scope, the ids of its n-simplices.

    The scope is the n-simplices of the support (all of them if None): a
    face's corners are some of an n-simplex's corners under one invertible
    map, so they are independent whenever those pass.
    """
    n = bundle.n
    cx = bundle.base
    if support is None:
        support = range(len(cx.faces[n])) if cx.dimension >= n else ()
    star: dict[int, list[int]] = {}
    for sid in set(support):
        for v in set(cx.vertices[n][sid]):
            star.setdefault(v, []).append(sid)
    return star


def is_generic_section(
    bundle: Bundle,
    s: Section,
    mode: str = "basic",
    support: Iterable[int] | None = None,
) -> bool:
    """Whether transported corner tuples are generic on every n-simplex.

    mode "basic" checks linear genericity on the n-simplices; mode
    "strong" additionally requires every relation to have nonzero
    coefficient sum (so that scalar subset sums are well-defined).
    Lower-dimensional corner tuples are then independent (see ``_scope``).
    """
    sids = set().union(*_scope(bundle, support).values())
    return all(_check_simplex_partial(bundle, s.values, sid, mode) for sid in sids)


def random_vector(field: Field, rng: random.Random, n: int, bound: int) -> tuple:
    """n entries drawn from [-bound, bound]: integers, or pairs of them over Q(sqrt(d))."""
    if isinstance(field, QuadraticField):
        return tuple(
            field.from_pair(rng.randint(-bound, bound), rng.randint(-bound, bound))
            for _ in range(n)
        )
    return tuple(rng.randint(-bound, bound) for _ in range(n))


def _random_nonzero_vector(field: Field, rng: random.Random, n: int, bound: int) -> tuple:
    while True:
        vec = random_vector(field, rng, n, bound)
        if not vec_is_zero(vec):
            return vec


SECTION_BOUND = 9  # sections and cli's random tuples draw entries from [-9, 9]


def random_generic_section(
    bundle: Bundle,
    seed: int,
    mode: str = "basic",
    support: Iterable[int] | None = None,
) -> Section:
    """Seeded vertex-by-vertex rejection sampling of a generic section.

    Entries are integers in [-SECTION_BOUND, SECTION_BOUND] (pairs of
    integers over a quadratic field).  The bound doubles after every 50n
    rejections at a vertex, a constant, up to 2^12 times; after 1000n
    rejections the vertex raises GenericityError.  A candidate is checked
    only on the in-scope simplices at its vertex: the others keep the
    corners they already passed with, so the checks of the whole scope
    would decide the same.
    """
    n = bundle.n
    rng = random.Random(seed)
    star = _scope(bundle, support)
    escalate_after = 50 * n
    values: dict[int, tuple] = {}
    for v in sorted(star) or range(bundle.base.num_vertices):
        m = SECTION_BOUND
        rejections = 0
        while True:
            if rejections > 20 * escalate_after:
                # practically only reachable when no generic section exists
                raise GenericityError(
                    f"no generic value found at vertex {v} after {rejections} "
                    f"rejections (last bound {m}); "
                    "the bundle admits no generic section on this support"
                )
            values[v] = _random_nonzero_vector(bundle.field, rng, n, m)
            if all(
                _check_simplex_partial(bundle, values, sid, mode)
                for sid in star.get(v, ())
            ):
                break
            rejections += 1
            if rejections % escalate_after == 0 and m < SECTION_BOUND << 12:
                m *= 2
    return Section(values)


def _check_simplex_partial(bundle, values: Mapping[int, tuple], sid, mode) -> bool:
    """Genericity of the already-assigned corners of one n-simplex.

    Partially assigned tuples must stay extendable: up to n corners must
    be linearly independent, and n+1 corners must have a unique relation
    with all coefficients nonzero (all maximal minors nonzero) and, in
    mode "strong", a nonzero coefficient sum.  Everything is read from
    the integral lifts; only that sum needs their scales.
    """
    n = bundle.n
    corners = bundle._corners(values, n, sid)
    if len(corners) <= n:
        return rank_int([lift for lift, _ in corners], n) == len(corners)
    coeffs = _relation_coefficients(corners)
    return all(coeffs) and (mode != "strong" or bool(sum(coeffs)))


def _relation_coefficients(corners: Sequence[tuple[tuple, int]]) -> list[Scalar]:
    """c_0..c_n with sum c_i (lift_i / scale_i) = 0, up to one positive factor, for n+1 corners.

    c_i = (-1)^i scale_i D_i, with D_i the maximal minors of the integral
    lifts: the true minors are scale_i D_i / prod(scales), and prod(scales)
    > 0 changes no zero, no zero sum and no sum-normalized value.
    """
    lifts, scales = zip(*corners)
    minors = maximal_minors_int(lifts)
    return [(-1) ** i * k * d for i, (k, d) in enumerate(zip(scales, minors))]


def scalar_set(
    bundle: Bundle, s: Section, support: Iterable[int] | None = None
) -> set:
    """All proper nonempty subset sums of sum-normalized relation coefficients."""
    n = bundle.n
    cx = bundle.base
    sids = set(range(len(cx.faces[n])) if support is None else support)
    out = set()
    for sid in sids:
        coeffs = _relation_coefficients(bundle._corners(s.values, n, sid))
        total = sum(coeffs)
        if not (total and all(coeffs)):
            raise GenericityError(
                f"section is not strongly generic on {n}-simplex {sid} (a zero minor or sum)"
            )
        for size in range(1, n + 1):
            out.update(
                exact_div(sum(map(coeffs.__getitem__, sub)), total)
                for sub in combinations(range(n + 1), size)
            )
    return out


def joint_scalar_sets(
    e1: Bundle,
    s1: Section,
    e2: Bundle,
    s2: Section,
) -> tuple[set, set, bool]:
    """The two scalar collections and whether they are disjoint."""
    a1 = scalar_set(e1, s1)
    a2 = scalar_set(e2, s2)
    return a1, a2, not (a1 & a2)


# ---------------------------------------------------------------------------
# class evaluation
# ---------------------------------------------------------------------------


def check_usage(bundle: Bundle, selector: Selector, z: Chain) -> None:
    """Raise UsageError unless z is a cycle of the fiber dimension and the class exists.

    It reads no section, so a caller can ask before sampling one.
    """
    n = bundle.n
    if z.dim != n:
        raise UsageError(f"cycle dimension {z.dim} != fiber dimension {n}")
    if not boundary(bundle.base, z).is_zero():
        raise UsageError("z is not a cycle")
    if selector.kind == "eu" and n % 2:
        raise UsageError("the eu class vanishes identically for odd n")
    if selector.kind == "euk" and not 0 <= selector.k <= n // 2:
        raise UsageError(f"euk index must lie in 0..{n // 2}")
    if selector.kind in ("euk", "euplus") and bundle.tag == "PGL+":
        raise UsageError("positive-space classes need a positive-scalar tag")
    if selector.kind == "witt":
        if n != 2 or bundle.field != QQ or bundle.tag != "SL":
            raise UsageError("the witt selector needs an SL(2, Q) bundle")


def evaluate_class(
    bundle: Bundle,
    s: Section,
    selector: Selector,
    z: Chain,
    detail: bool = False,
):
    """<class, z> as an integer, coefficient vector, or Witt element.

    ``check_usage`` must pass, and the section must be generic on the
    support of z.  With ``detail``, also each top simplex's symbol: the
    one-term ``symbol_sum`` of its minors, by id.
    """
    check_usage(bundle, selector, z)
    n = bundle.n
    # one pass per top simplex: the maximal minors of the lifts give the
    # symbol, and symbol_sum refuses a zero one (see ``configs.subset_minors``)
    terms = [
        (maximal_minors_int([lift for lift, _ in bundle._corners(s.values, n, sid)]), c)
        for sid, c in z.coeffs.items()
    ]
    mode = {"eu": "P", "witt": "witt"}.get(selector.kind, "P+")
    total = configs.symbol_sum(mode, n, terms)
    acc = total.coefficients[selector.k] if selector.kind == "euk" else total
    if detail:
        symbols = [configs.symbol_sum(mode, n, [(minors, 1)]) for minors, _ in terms]
        return acc, dict(zip(z.coeffs, symbols))
    return acc


def product_eu0(bundleA, sA, zA, bundleB, sB, zB) -> tuple[int, int, int, int]:
    """eu0 on zA, on zB and, of the direct sum, on zA x zB; and its top simplices.

    No product complex: simplex (sid, sid2, path) of zA x zB has coefficient c c' times
    the path's ``signed_paths`` sign and corner (i, j) lifted to kB lA + kA lB from the
    factors' cached corners (lA, kA) of sid and (lB, kB) of sid2.  Needs check_product and
    check_usage (eu0); GenericityError if not generic.
    """
    eu0, nA, nB = Selector("euk", 0), bundleA.n, bundleB.n
    euA = evaluate_class(bundleA, sA, eu0, zA)
    euB = evaluate_class(bundleB, sB, eu0, zB)
    paths = signed_paths(nA, nB)
    terms = []
    for (sid, c), (sid2, c2) in product(zA.coeffs.items(), zB.coeffs.items()):
        lifts = {
            (i, j): tuple(kB * x for x in lA) + tuple(kA * x for x in lB)
            for i, (lA, kA) in enumerate(bundleA._corners(sA.values, nA, sid))
            for j, (lB, kB) in enumerate(bundleB._corners(sB.values, nB, sid2))
        }
        terms += [(maximal_minors_int([lifts[ij] for ij in p]), c * c2 * e) for p, e in paths]
    return euA, euB, configs.symbol_sum("P+", nA + nB, terms).coefficients[0], len(terms)
