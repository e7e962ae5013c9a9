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
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from . import configs
from ._value import Value
from .complexes import Chain, DeltaComplex, ProductComplex, boundary
from .configs import GenericityError
from .exactmath import (
    Field,
    exact_div,
    Matrix,
    QQ,
    QuadraticField,
    Scalar,
    is_linearly_generic,
    nullspace,
    sign,
    unique_relation,
    vec_add,
    vec_is_zero,
    vec_scale,
)
from .witt import WittElement

TAGS = ("GL+", "SL", "PGL+", "P+GL+")
LINEAR_TAGS = ("GL+", "SL")


class RelatorError(ValueError):
    """The defining relator of a representation is not the identity."""

    def __init__(self, residual: Matrix):
        self.residual = residual
        super().__init__(f"relator is not the identity; residual {residual!r}")


class TagError(ValueError):
    """A holonomy matrix violates the structure tag."""


def _tag_scalar_ok(residual: Matrix, tag: str) -> bool:
    c = residual.scalar_multiple_of_identity()
    return c is not None and _tag_allows(c, tag)


def _tag_allows(c: Scalar, tag: str) -> bool:
    """Whether the scalar matrix c*I lies in the tag's scalar subgroup."""
    if tag in LINEAR_TAGS:
        return not (c - 1)
    if tag == "PGL+":
        return bool(c)
    return sign(c) > 0  # P+GL+


def _check_tag_matrix(m: Matrix, tag: str) -> None:
    d = m.det()
    if not d:
        raise TagError("holonomy matrix is singular")
    if tag == "SL":
        if d - 1:
            raise TagError(f"tag SL needs det 1, got det {d}")
    elif sign(d) <= 0:
        raise TagError(f"tag {tag} needs a positive-determinant representative")


class FlatBundle:
    """Edge-holonomy presentation of a flat bundle over a Delta-complex."""

    def __init__(
        self,
        base: DeltaComplex,
        n: int,
        tag: str,
        holonomy: Mapping[int, Matrix],
        field: Field = QQ,
        validate: bool = True,
    ):
        if tag not in TAGS:
            raise ValueError(f"unknown structure tag {tag!r}")
        self.base = base
        self.n = n
        self.tag = tag
        self.field = field
        self.holonomy = dict(holonomy)
        self._inverses: dict[int, Matrix] = {}
        if validate:
            self.validate()

    def validate(self) -> None:
        n_edges = len(self.base.simplices[1]) if self.base.dimension >= 1 else 0
        for eid in range(n_edges):
            if eid not in self.holonomy:
                raise ValueError(f"edge {eid} has no holonomy")
            m = self.holonomy[eid]
            if m.nrows != self.n or m.ncols != self.n:
                raise ValueError(f"holonomy of edge {eid} has wrong shape")
            _check_tag_matrix(m, self.tag)
        if self.base.dimension >= 2:
            for sid, s in enumerate(self.base.simplices[2]):
                h01 = self.holonomy[s.faces[2]]
                h12 = self.holonomy[s.faces[0]]
                h02 = self.holonomy[s.faces[1]]
                # h02^-1 h12 h01 == c*I  iff  h12 h01 == c*h02, as h02 is invertible
                path = h12 @ h01
                c = path.scalar_multiple_of(h02)
                if c is None or not _tag_allows(c, self.tag):
                    residual = h02.inverse() @ path
                    raise ValueError(
                        f"triangle condition fails on 2-simplex {sid} "
                        f"(residual {residual!r})"
                    )

    def _inverse(self, eid: int) -> Matrix:
        inv = self._inverses.get(eid)
        if inv is None:
            inv = self.holonomy[eid].inverse()
            self._inverses[eid] = inv
        return inv

    def transport_to_base(self, dim: int, sid: int, corner: int) -> Matrix:
        """Parallel transport from a corner to corner 0 along the edge (0, corner)."""
        if corner == 0:
            return Matrix.identity(self.n)
        eid = self.base.edge_between_corners(dim, sid, 0, corner)
        return self._inverse(eid)

    def corner_values(
        self, s: "Section", dim: int, sid: int
    ) -> list[tuple[Scalar, ...]]:
        """Section values at the corners, transported to the corner-0 frame."""
        simplex = self.base.simplex(dim, sid)
        out = []
        for corner, v in enumerate(simplex.vertices):
            value = s.values[v]
            if corner:
                value = self.transport_to_base(dim, sid, corner).apply(value)
            out.append(tuple(value))
        return out


class Section(Value):
    """A vertex-indexed choice of nonzero fiber vectors."""

    __slots__ = ("values",)

    def __init__(self, values: dict[int, tuple[Scalar, ...]]):
        for v, vec in values.items():
            if vec_is_zero(vec):
                raise ValueError(f"section vanishes at vertex {v}")
        self._set(values=values)

    def to_json(self) -> dict:
        from .exactmath import render_scalar

        return {str(v): [render_scalar(x) for x in vec] for v, vec in self.values.items()}


class Selector(Value):
    """Which characteristic class to evaluate: eu, eu_k, eu_plus or witt."""

    __slots__ = ("kind", "k")

    def __init__(self, kind: str, k: int | None = None):
        # kind is "eu" | "euk" | "euplus" | "witt"
        if kind not in ("eu", "euk", "euplus", "witt"):
            raise ValueError(f"unknown selector kind {kind!r}")
        if (kind == "euk") != (k is not None):
            raise ValueError("selector euk needs k, others must not have it")
        self._set(kind=kind, k=k)

    @classmethod
    def parse(cls, text: str) -> "Selector":
        if text == "eu0":
            return cls("euk", 0)
        if text.startswith("euk:"):
            return cls("euk", int(text.split(":", 1)[1]))
        if text in ("eu", "euplus", "witt"):
            return cls(text)
        raise ValueError(f"unknown selector {text!r}")

    def __str__(self):
        if self.kind == "euk":
            return "eu0" if self.k == 0 else f"euk:{self.k}"
        return self.kind


# ---------------------------------------------------------------------------
# construction from surface representations
# ---------------------------------------------------------------------------


def relator_product(matrices: Sequence[Matrix]) -> Matrix:
    """[A1,B1] [A2,B2] ... as a matrix product, left to right."""
    g = len(matrices) // 2
    n = matrices[0].nrows
    out = Matrix.identity(n)
    for j in range(g):
        a, b = matrices[2 * j], matrices[2 * j + 1]
        out = out @ (a @ b @ a.inverse() @ b.inverse())
    return out


def bundle_from_surface_rep(
    sc, matrices: Sequence[Matrix], tag: str = "SL", field: Field = QQ
) -> FlatBundle:
    """Flat bundle on a genus-g surface complex from generator matrices.

    matrices = (A1, B1, ..., Ag, Bg); the product of commutators must be
    the identity in the tag's quotient group.  Boundary edges carry the
    generator holonomies, diagonals the products forced by the triangle
    condition.
    """
    g = sc.genus
    if len(matrices) != 2 * g:
        raise ValueError(f"genus {g} needs 2g = {2 * g} matrices")
    n = matrices[0].nrows
    for m in matrices:
        if m.nrows != n or m.ncols != n:
            raise ValueError("matrices must be square of equal size")
        _check_tag_matrix(m, tag)
    residual = relator_product(matrices)
    if not _tag_scalar_ok(residual, tag):
        raise RelatorError(residual)
    inv = [m.inverse() for m in matrices]
    # traversal holonomy of side k in polygon direction
    letters = []
    for j in range(g):
        letters += [inv[2 * j], inv[2 * j + 1], matrices[2 * j], matrices[2 * j + 1]]
    holonomy: dict[int, Matrix] = {}
    for j in range(g):
        holonomy[2 * j] = inv[2 * j]  # a_j edge
        holonomy[2 * j + 1] = inv[2 * j + 1]  # b_j edge
    prefix = letters[0]
    for i in range(2, 4 * g - 1):
        prefix = letters[i - 1] @ prefix
        holonomy[2 * g + (i - 2)] = prefix
    return FlatBundle(sc, n, tag, holonomy, field=field)


def product_bundle(px: ProductComplex, e1: FlatBundle, e2: FlatBundle) -> FlatBundle:
    """Block-diagonal bundle over a product complex."""
    if e1.field != e2.field:
        raise ValueError("product of bundles over different fields")
    if e1.tag not in LINEAR_TAGS or e2.tag not in LINEAR_TAGS:
        raise ValueError("product bundles need linear tags (GL+ or SL)")
    if px.left is not e1.base or px.right is not e2.base:
        raise ValueError("product complex does not match the bundle bases")
    tag = "SL" if (e1.tag, e2.tag) == ("SL", "SL") else "GL+"
    i1 = Matrix.identity(e1.n)
    i2 = Matrix.identity(e2.n)
    holonomy = {}
    for eid in range(len(px.simplices[1])):
        p, sid, q, sid2, _ = px.cell_info(1, eid)
        left = e1.holonomy[sid] if p == 1 else i1
        right = e2.holonomy[sid2] if q == 1 else i2
        holonomy[eid] = Matrix.block_diag(left, right)
    return FlatBundle(px, e1.n + e2.n, tag, holonomy, field=e1.field)


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


def _support_closure(
    cx: DeltaComplex, dim: int, ids: Iterable[int]
) -> dict[int, set[int]]:
    """All iterated faces of the given simplices, per dimension."""
    out: dict[int, set[int]] = {d: set() for d in range(dim + 1)}
    out[dim] = set(ids)
    for d in range(dim, 0, -1):
        for sid in out[d]:
            out[d - 1].update(cx.simplices[d][sid].faces)
    return out


def _simplices_to_check(
    bundle: FlatBundle, mode: str, support: Iterable[int] | None
) -> dict[int, set[int]]:
    n = bundle.n
    cx = bundle.base
    if support is None:
        top = set(range(len(cx.simplices[n]))) if cx.dimension >= n else set()
        scope = _support_closure(cx, n, top) if top else {n: set()}
    else:
        scope = _support_closure(cx, n, support)
    if mode == "basic":
        return {n: scope.get(n, set())}
    return {d: s for d, s in scope.items() if 1 <= d <= n}


def is_generic_section(
    bundle: FlatBundle,
    s: Section,
    mode: str = "basic",
    support: Iterable[int] | None = None,
) -> bool:
    """Whether transported corner tuples are generic on every n-simplex.

    mode "basic" checks linear genericity on the n-simplices; mode
    "strong" additionally requires lower-dimensional corner tuples to be
    linearly independent and every relation to have nonzero coefficient
    sum (so that scalar subset sums are well-defined).
    """
    n = bundle.n
    return all(
        _corners_generic(bundle.corner_values(s, d, sid), n, mode)
        for d, sids in _simplices_to_check(bundle, mode, support).items()
        for sid in sids
    )


def _random_vector(field: Field, rng: random.Random, n: int, bound: int):
    while True:
        if isinstance(field, QuadraticField):
            vec = tuple(
                field.from_pair(rng.randint(-bound, bound), rng.randint(-bound, bound))
                for _ in range(n)
            )
        else:
            vec = tuple(rng.randint(-bound, bound) for _ in range(n))
        if not vec_is_zero(vec):
            return vec


def random_generic_section(
    bundle: FlatBundle,
    seed: int,
    mode: str = "basic",
    bound: int = 9,
    support: Iterable[int] | None = None,
    escalate_after: int | None = None,
) -> Section:
    """Seeded vertex-by-vertex rejection sampling of a generic section.

    Entries are integers in [-bound, bound] (pairs of integers over a
    quadratic field); the bound doubles after 50n rejections at a
    vertex, so termination has probability 1.
    """
    n = bundle.n
    rng = random.Random(seed)
    scope = _simplices_to_check(bundle, mode, support)
    vertex_order = sorted(
        {
            v
            for d, sids in scope.items()
            for sid in sids
            for v in bundle.base.simplices[d][sid].vertices
        }
    ) or list(range(bundle.base.num_vertices))
    escalate_after = 50 * n if escalate_after is None else escalate_after
    values: dict[int, tuple] = {}
    for v in vertex_order:
        m = bound
        rejections = 0
        while True:
            if rejections > 20 * escalate_after:
                # practically only reachable when no generic section exists
                raise GenericityError(
                    f"no generic value found at vertex {v}; "
                    "the bundle admits no generic section on this support"
                )
            values[v] = _random_vector(bundle.field, rng, n, m)
            ok = True
            for d, sids in scope.items():
                for sid in sids:
                    if not _check_simplex_partial(bundle, values, d, sid, n, mode):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                break
            rejections += 1
            if rejections % escalate_after == 0 and m < bound << 12:
                m *= 2
    return Section(values)


def _check_simplex_partial(
    bundle, values: Mapping[int, tuple], d, sid, n, mode
) -> bool:
    """Genericity of the already-assigned corners of one simplex.

    Partially assigned tuples must stay extendable, so every assigned
    sub-tuple of length <= n has to be linearly independent.
    """
    simplex = bundle.base.simplices[d][sid]
    tup = []
    for corner, v in enumerate(simplex.vertices):
        if v not in values:
            continue
        val = values[v]
        if corner:
            val = bundle.transport_to_base(d, sid, corner).apply(val)
        tup.append(tuple(val))
    if not tup:
        return True
    return _corners_generic(tup, n, mode)


def _corners_generic(tup: Sequence[tuple], n: int, mode: str) -> bool:
    """Genericity of the (possibly partial) corner tuple of one simplex.

    Up to n corners must be linearly independent; n+1 corners must have
    a unique relation with all coefficients nonzero, and in mode
    "strong" a nonzero coefficient sum.
    """
    if len(tup) <= n:
        return is_linearly_generic(tup, n)
    try:
        _, zero_sum = unique_relation(tup)
    except ValueError:
        return False
    return not (mode == "strong" and zero_sum)


def scalar_set(
    bundle: FlatBundle, s: Section, support: Iterable[int] | None = None
) -> set:
    """All proper nonempty subset sums of sum-normalized relation coefficients."""
    n = bundle.n
    cx = bundle.base
    sids = (
        set(support) if support is not None else set(range(len(cx.simplices[n])))
    )
    out = set()
    for sid in sids:
        values = bundle.corner_values(s, n, sid)
        coeffs, zero_sum = unique_relation(values)
        if zero_sum:
            raise GenericityError(
                "relation with zero coefficient sum: section is not strongly generic"
            )
        for size in range(1, n + 1):
            for subset in combinations(range(n + 1), size):
                total = coeffs[subset[0]]
                for i in subset[1:]:
                    total = total + coeffs[i]
                out.add(total)
    return out


def joint_scalar_sets(
    e1: FlatBundle,
    s1: Section,
    e2: FlatBundle,
    s2: Section,
    support1: Iterable[int] | None = None,
    support2: Iterable[int] | None = None,
) -> tuple[set, set, bool]:
    """The two scalar collections and whether they are disjoint."""
    a1 = scalar_set(e1, s1, support1)
    a2 = scalar_set(e2, s2, support2)
    return a1, a2, not (a1 & a2)


# ---------------------------------------------------------------------------
# positive sections
# ---------------------------------------------------------------------------


class WitnessError(ValueError):
    """A positivity witness fails on the given section."""


def _dot(f, v):
    acc = f[0] * v[0]
    for a, b in zip(f[1:], v[1:]):
        acc = acc + a * b
    return acc


def is_positive_section(
    bundle: FlatBundle,
    s: Section,
    witnesses: Mapping[tuple[int, int], Sequence[Scalar]],
) -> bool:
    """phi_sigma positive on all transported corner values, per witness."""
    for (d, sid), phi in witnesses.items():
        for value in bundle.corner_values(s, d, sid):
            if sign(_dot(phi, value)) <= 0:
                return False
    return True


def make_positive_generic(
    bundle: FlatBundle,
    s: Section,
    witnesses: Mapping[tuple[int, int], Sequence[Scalar]],
    support: Iterable[int] | None = None,
    seed: int = 0,
) -> Section:
    """Perturb a positive section into a generic positive one.

    Vertex by vertex the new value is v(alpha) = s(x) + alpha*w with
    alpha = min(B, M)/4, where B is the smallest positive step that hits
    a genericity-violating subspace and M the smallest that breaks a
    positivity constraint.  When a vertex appears at several corners of
    one simplex the violating sets are no longer affine in the value;
    then alpha is halved from M/4 until genericity holds.
    """
    if not is_positive_section(bundle, s, witnesses):
        raise WitnessError("input section is not positive for the witnesses")
    n = bundle.n
    rng = random.Random(seed)
    scope = _simplices_to_check(bundle, "basic", support)
    closure = (
        _support_closure(bundle.base, n, scope[n]) if scope.get(n) else {0: set()}
    )
    vertex_order = sorted(
        {
            v
            for d, sids in closure.items()
            for sid in sids
            for v in bundle.base.simplices[d][sid].vertices
        }
    ) or sorted(s.values)
    new_values = dict(s.values)

    def touching(v, assigned):
        """Simplices of the closure all of whose vertices are decided."""
        for d in range(1, n + 1):
            for sid in closure.get(d, ()):
                verts = bundle.base.simplices[d][sid].vertices
                if v in verts and all(u == v or u in assigned for u in verts):
                    yield d, sid, verts

    processed: set[int] = set()
    for v in vertex_order:
        simplices = list(touching(v, processed))
        repeated = any(verts.count(v) > 1 for _, _, verts in simplices)
        base_val = new_values[v]
        for _ in range(32):
            w = _random_vector(bundle.field, rng, n, 9)
            alpha = _perturbation_step(
                bundle, new_values, witnesses, v, base_val, w, simplices, repeated
            )
            if alpha is None:
                continue
            candidate = vec_add(base_val, vec_scale(alpha, w))
            trial = dict(new_values)
            trial[v] = candidate
            if not vec_is_zero(candidate) and all(
                _check_simplex_partial(bundle, trial, d, sid, n, "basic")
                for d, sid, _ in simplices
            ):
                new_values[v] = candidate
                break
        else:
            raise GenericityError(f"could not perturb section at vertex {v}")
        processed.add(v)
    out = Section(new_values)
    if not is_positive_section(bundle, out, witnesses):
        raise WitnessError("perturbation broke positivity (internal error)")
    return out


def _perturbation_step(
    bundle, values, witnesses, v, base_val, w, simplices, repeated
):
    """The step size alpha, or None if this direction w is unusable."""
    n = bundle.n
    pos_bounds = []
    for (d, sid), phi in witnesses.items():
        verts = bundle.base.simplices[d][sid].vertices
        for corner, u in enumerate(verts):
            if u != v:
                continue
            t = bundle.transport_to_base(d, sid, corner)
            a = _dot(phi, t.apply(base_val))
            b = _dot(phi, t.apply(w))
            if sign(b) < 0:
                pos_bounds.append(exact_div(a, -b))
    m_bound = None
    for x in pos_bounds:
        if m_bound is None or sign(x - m_bound) < 0:
            m_bound = x
    if repeated:
        # non-affine constraints: descend from M/4 until generic
        alpha = exact_div(m_bound, 4) if m_bound is not None else Fraction(1)
        for _ in range(64):
            trial = dict(values)
            trial[v] = vec_add(base_val, vec_scale(alpha, w))
            if not vec_is_zero(trial[v]) and all(
                _check_simplex_partial(bundle, trial, d, sid, n, "basic")
                for d, sid, _ in simplices
            ):
                return alpha
            alpha = exact_div(alpha, 2)
        return None
    bad_steps = []
    for d, sid, verts in simplices:
        corner = verts.index(v)
        t_inv = bundle.transport_to_base(d, sid, corner).inverse()
        others = []
        for c2, u in enumerate(verts):
            if c2 == corner:
                continue
            val = bundle.corner_values(Section(values), d, sid)[c2]
            others.append(tuple(t_inv.apply(val)))
        spans = []
        if d < n:
            spans.append(others)
        else:
            for skip in range(len(others)):
                spans.append([o for i, o in enumerate(others) if i != skip])
        for span in spans:
            step = _step_into_span(span, base_val, w, n)
            if step is False:
                return None  # w parallel to a bad subspace
            if step is not None:
                bad_steps.append(step)
    b_bound = None
    for x in bad_steps:
        if sign(x) > 0 and (b_bound is None or sign(x - b_bound) < 0):
            b_bound = x
    cap = None
    for x in (b_bound, m_bound):
        if x is not None and (cap is None or sign(x - cap) < 0):
            cap = x
    return Fraction(1) if cap is None else exact_div(cap, 4)


def _step_into_span(span, base_val, w, n):
    """The unique beta with base_val + beta*w inside span(span), if any.

    Returns None when the line misses the subspace, False when it lies
    inside it (bad direction), else the step beta.
    """
    functionals = nullspace(list(span), n)
    candidate = None
    for f in functionals:
        a = _dot(f, base_val)
        b = _dot(f, w)
        if not b:
            if a:
                return None
            continue
        beta = exact_div(-a, b)
        if candidate is None:
            candidate = beta
        elif candidate - beta:
            return None
    if candidate is None:
        return False if functionals else None
    return candidate


# ---------------------------------------------------------------------------
# class evaluation
# ---------------------------------------------------------------------------


def evaluate_class(
    bundle: FlatBundle,
    s: Section,
    selector: Selector,
    z: Chain,
    detail: bool = False,
):
    """<class, z> as an integer, coefficient vector, or Witt element.

    The cycle dimension must equal the fiber dimension; the section must
    be generic on the support of z.
    """
    n = bundle.n
    if z.dim != n:
        raise ValueError(f"cycle dimension {z.dim} != fiber dimension {n}")
    if not boundary(bundle.base, z).is_zero():
        raise ValueError("z is not a cycle")
    if selector.kind == "eu" and n % 2:
        raise ValueError("the eu class vanishes identically for odd n")
    if selector.kind == "euk" and not 0 <= selector.k <= n // 2:
        raise ValueError(f"euk index must lie in 0..{n // 2}")
    if selector.kind in ("euk", "euplus") and bundle.tag == "PGL+":
        raise ValueError("positive-space classes need a positive-scalar tag")
    if selector.kind == "witt":
        if n != 2 or bundle.field != QQ or bundle.tag != "SL":
            raise ValueError("the witt selector needs an SL(2, Q) bundle")
    # one pass per top simplex: its maximal minors decide genericity and
    # give the symbol (they are positive multiples of the true minors)
    minors = {}
    for sid in z.coeffs:
        minors[sid] = configs.maximal_minors(bundle.corner_values(s, n, sid))
        if not all(minors[sid]):
            raise GenericityError("section is not generic on the support of z")
    per_simplex = {}
    if selector.kind == "witt":
        acc = WittElement.zero()
        for sid, c in z.coeffs.items():
            term = configs.witt_symbol_from_minors(minors[sid])
            per_simplex[sid] = term.to_text()
            acc = acc + term.scale(c)
    elif selector.kind == "eu":
        acc = 0
        for sid, c in z.coeffs.items():
            term = configs.u_symbol_from_minors(minors[sid])
            per_simplex[sid] = str(term)
            acc += c * term.coefficient
    else:
        total = configs.UPlusSymbol.zero(n)
        for sid, c in z.coeffs.items():
            raw = configs.raw_symbol_from_minors(minors[sid])
            term = configs.uplus_canonicalize(raw)
            per_simplex[sid] = str(term)
            total = total + term.scale(c)
        acc = total if selector.kind == "euplus" else total.coefficients[selector.k]
    if detail:
        return acc, per_simplex
    return acc
