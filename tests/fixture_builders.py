"""Builders of the committed representation fixtures, and their exact helpers.

Every file under ``fixtures/`` is the output of one builder in
``BUILTIN_FIXTURES``; ``tests/test_reps.py`` rebuilds them all and
compares the bytes.  Regenerate them from the repository root with

    PYTHONPATH=src python tests/fixture_builders.py fixtures

``rep_to_json`` writes a representation in the file format that
``tautclass.reps`` reads.  ``nullspace`` (Gauss-Jordan over the field)
solves the kernel equation of ``genus2_solved`` and is the tests' oracle
for ``rank``.  ``standard_simplex_complex`` and ``sphere_complex`` are
multi-vertex complexes, ``cell_counts`` and ``euler_characteristic``
read a complex's simplex counts, ``psl_equal`` and
``commuting_pair_cycle`` bar chains of commuting pairs,
``holonomy``/``holonomies`` a bundle's edge holonomies (block sums
``block_diag`` over a product), ``explicit_product`` the product bundle
as one validated block-sum matrix per edge (the oracle of
``product_bundle``), and ``transport_to_base`` a corner's transport to
corner 0 as one matrix.
``mixed_dimension_product`` and ``positive_generic_section`` give the
mixed-dimension product Sigma x S^2 a generic section that is positive
for its witnesses.  ``pachner_cones`` applies random 1-3 moves to a
bundle and its 2-cycle, each gauged by an ``elementary_gauge``.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from tautclass.complexes import (
    Chain,
    DeltaComplex,
    product_chain,
    product_complex,
    surface_complex,
)
from tautclass.exactmath import (
    QQ,
    Matrix,
    QuadraticField,
    Scalar,
    dot,
    exact_div,
    rank,
    render_scalar,
    sign,
    solve_square,
)
from tautclass.flatbundles import (
    FlatBundle,
    ProductBundle,
    Section,
    bundle_from_surface_rep,
    is_generic_section,
    product_bundle,
    random_generic_section,
    relator_product,
)
from tautclass.groupcoh import BarChain2
from tautclass.reps import SurfaceRep


def nullspace(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[tuple[Scalar, ...]]:
    """Basis of {f in K^ncols : row . f = 0 for every row}, exact."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    rk = 0
    for col in range(ncols):
        piv = None
        for i in range(rk, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        pivot = m[rk][col]
        for i in range(len(m)):
            if i != rk and m[i][col]:
                factor = exact_div(m[i][col], pivot)
                for j in range(col, ncols):
                    m[i][j] = m[i][j] - factor * m[rk][j]
        pivots.append(col)
        rk += 1
        if rk == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec: list[Scalar] = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = exact_div(-m[r][fc], m[r][pc])
        basis.append(tuple(vec))
    return basis


def scalar_multiple_of_identity(m: Matrix) -> Scalar | None:
    """The scalar c with m == c*I, or None."""
    r = m.ratio_to(Matrix.identity(m.nrows))
    return None if r is None else r[0]


def rep_to_json(rep: SurfaceRep) -> dict:
    """The JSON object of a representation file: every entry rendered exactly."""
    return {
        "field": "Q" if rep.field == QQ else {"quad": rep.field.d},
        "genus": rep.genus,
        "tag": rep.tag,
        "matrices": [[[render_scalar(x) for x in row] for row in m.rows] for m in rep.matrices],
    }


def save_rep(rep: SurfaceRep, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(rep_to_json(rep), fh, indent=1)
        fh.write("\n")


def standard_simplex_complex(n: int) -> DeltaComplex:
    """The full n-simplex with all of its faces, vertices 0..n."""
    ids: dict[tuple[int, ...], int] = {}
    vertices: list[list[tuple[int, ...]]] = []
    faces: list[list[tuple[int, ...]]] = []
    for d in range(n + 1):
        level = list(combinations(range(n + 1), d + 1))
        ids.update((verts, sid) for sid, verts in enumerate(level))
        vertices.append(level)
        faces.append([tuple(ids[v[:j] + v[j + 1 :]] for j in range(d + 1) if d) for v in level])
    return DeltaComplex(vertices, faces)


def sphere_complex() -> tuple[DeltaComplex, Chain]:
    """The boundary of a 3-simplex and its fundamental 2-cycle.

    Four distinct vertices: the multi-vertex companion to the one-vertex
    surface models, needed when a product evaluation requires generic
    values along cells that repeat a factor vertex.
    """
    d3 = standard_simplex_complex(3)
    cx = DeltaComplex(d3.vertices[:3], d3.faces[:3])
    coeffs = {}
    for sid, verts in enumerate(combinations(range(4), 3)):
        omitted = next(v for v in range(4) if v not in verts)
        coeffs[sid] = 1 if omitted % 2 == 0 else -1
    return cx, Chain(2, coeffs)


def cell_counts(cx: DeltaComplex) -> tuple[int, ...]:
    return tuple(len(level) for level in cx.faces)


def euler_characteristic(cx: DeltaComplex) -> int:
    return sum((-1) ** d * len(level) for d, level in enumerate(cx.faces))


def psl_equal(a: Matrix, b: Matrix) -> bool:
    """Equality in PSL(2, Q): equal up to sign."""
    return a == b or a == b.scaled(-1)


def commuting_pair_cycle(g: Matrix, h: Matrix) -> BarChain2:
    """The bar 2-cycle (1, g, gh) - (1, h, hg) of a commuting pair."""
    gh = g @ h
    if not psl_equal(gh, h @ g):
        raise ValueError("matrices do not commute in PSL(2, Q)")
    one = Matrix.identity(g.nrows)
    return [(1, (one, g, gh)), (-1, (one, h, h @ g))]


def block_diag(*blocks: Matrix) -> Matrix:
    """The block sum of square matrices, in order down the diagonal."""
    n, rows = sum(b.nrows for b in blocks), []
    for b in blocks:
        at = len(rows)
        rows += [[0] * at + list(r) + [0] * (n - at - b.nrows) for r in b.rows]
    return Matrix(rows)


def holonomy(bundle: FlatBundle, eid: int) -> Matrix:
    """The holonomy matrix of an edge.

    Over a product, product edge (p, sid, q, sid2) carries the block sum
    of the first factor's holonomy on edge sid (the identity for p = 0)
    and the second factor's on sid2 (the identity for q = 0).
    """
    if not isinstance(bundle, ProductBundle):
        return bundle.holonomy[eid]
    p, sid, q, sid2, _ = bundle.base.cell_info(1, eid)
    e1, e2 = bundle.factors
    return block_diag(
        holonomy(e1, sid) if p else Matrix.identity(e1.n),
        holonomy(e2, sid2) if q else Matrix.identity(e2.n),
    )


def holonomies(bundle: FlatBundle) -> dict[int, Matrix]:
    """Edge -> holonomy matrix, for every edge of the bundle."""
    return {eid: holonomy(bundle, eid) for eid in range(len(bundle.base.faces[1]))}


def explicit_product(px, e1: FlatBundle, e2: FlatBundle) -> FlatBundle:
    """``product_bundle(px, e1, e2)`` as a plain bundle: one block-sum matrix per edge, validated."""
    bundle = product_bundle(px, e1, e2)
    return FlatBundle(px, bundle.n, bundle.tag, holonomies(bundle), bundle.field)


def transport_to_base(bundle: FlatBundle, dim: int, sid: int, corner: int) -> Matrix:
    """Parallel transport from a corner of simplex (dim, sid) to its corner 0.

    The inverse holonomy of the edge (0, corner) as one Fraction matrix,
    from the same scaled inverse a plain bundle's integral lifts read.
    """
    if corner == 0:
        return Matrix.identity(bundle.n)
    m, lam = holonomy(bundle, bundle.base.corner_edges[dim][sid][corner - 1]).scaled_inverse()
    return m.scaled(Fraction(1, lam))


def _m(rows) -> Matrix:
    return Matrix([[Fraction(x) for x in row] for row in rows])


def genus1_diagonal() -> SurfaceRep:
    a = _m([[2, 0], [0, Fraction(1, 2)]])
    b = _m([[3, 0], [0, Fraction(1, 3)]])
    return SurfaceRep(QQ, 1, "SL", [a, b])


def genus1_diagonal2() -> SurfaceRep:
    a = _m([[5, 0], [0, Fraction(1, 5)]])
    b = _m([[7, 0], [0, Fraction(1, 7)]])
    return SurfaceRep(QQ, 1, "SL", [a, b])


def genus1_parabolic() -> SurfaceRep:
    a = _m([[1, 1], [0, 1]])
    b = _m([[1, 3], [0, 1]])
    return SurfaceRep(QQ, 1, "SL", [a, b])


def genus2_swap(a_rows=None, b_rows=None) -> SurfaceRep:
    """(A, B, B, A): the relator cancels identically."""
    a = _m(a_rows or [[1, 1], [0, 1]])
    b = _m(b_rows or [[1, 0], [1, 1]])
    return SurfaceRep(QQ, 2, "SL", [a, b, b, a])


def genus2_solved(seed: int, bound: int = 5, attempts: int = 400) -> SurfaceRep:
    """Random A1, B1, A2 with B2 solved from [A2, B2] = [A1, B1]^-1.

    The matrix equation A2 X = C X A2 with C = [A1,B1]^-1 is linear in
    X; a kernel element with positive determinant gives a GL+ fixture.
    """
    rng = random.Random(seed)

    def rand_sl2():
        while True:
            a, b, c = (rng.randint(-3, 3) for _ in range(3))
            # complete to determinant 1 when possible: a*d - b*c = 1
            if a and (1 + b * c) % a == 0:
                return _m([[a, b], [c, (1 + b * c) // a]])

    for _ in range(attempts):
        a1, b1, a2 = rand_sl2(), rand_sl2(), rand_sl2()
        c = (a1 @ b1 @ a1.inverse() @ b1.inverse()).inverse()
        # rows of the linear system for X = (x00, x01, x10, x11)
        rows = []
        for i in range(2):
            for j in range(2):
                row = [Fraction(0)] * 4
                for k in range(2):
                    row[2 * k + j] += a2.rows[i][k]  # (A2 X)_ij
                for k in range(2):
                    for l in range(2):
                        row[2 * k + l] -= c.rows[i][k] * a2.rows[l][j]  # (C X A2)_ij
                rows.append(row)
        basis = nullspace(rows, 4)
        candidates = list(basis)
        if len(basis) >= 2:
            for m1 in range(-2, 3):
                for m2 in range(-2, 3):
                    candidates.append(
                        tuple(m1 * x + m2 * y for x, y in zip(basis[0], basis[1]))
                    )
        for vec in candidates:
            b2 = Matrix([[vec[0], vec[1]], [vec[2], vec[3]]])
            if b2.det() <= 0:
                continue
            rep = SurfaceRep(QQ, 2, "GL+", [a1, b1, a2, b2])
            if scalar_multiple_of_identity(relator_product(rep.matrices)) != 1:
                continue
            if _admits_generic_section(rep):
                return rep
    raise RuntimeError(f"no solvable fixture found for seed {seed}")


def _admits_generic_section(rep: SurfaceRep) -> bool:
    """Whether corner transports force no projective coincidence.

    With a single base vertex the corner tuple of a triangle is
    (s, t1 s, t2 s); a pair of corners is forced to coincide exactly
    when the transport relating them is a scalar matrix.
    """
    sc, _ = surface_complex(rep.genus)
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag, rep.field)
    for sid in range(len(sc.faces[2])):
        t1 = transport_to_base(bundle, 2, sid, 1)
        t2 = transport_to_base(bundle, 2, sid, 2)
        for m in (t1, t2, t1.inverse() @ t2):
            if scalar_multiple_of_identity(m) is not None:
                return False
    return True


def genus2_fuchsian() -> SurfaceRep:
    """A rational genus-2 representation with Euler number of maximal size.

    Start from a pair (A, B) whose commutator C has trace -5/2 (the
    one-holed-torus holonomies with hyperbolic boundary live where the
    commutator trace is below -2).  Since trace^2 - 4 is a rational
    square, the axis of C has rational endpoints, and a rational point
    of the axis yields a rational half-turn j with j C j^-1 = C^-1.
    Doubling by (A, B, jAj^-1, jBj^-1) closes the relator exactly.
    """
    a = _m([[2, 0], [0, Fraction(1, 2)]])
    b = _m([["3/2", 1], [2, 2]])
    c = a @ b @ a.inverse() @ b.inverse()
    tr = c.rows[0][0] + c.rows[1][1]
    disc = tr * tr - 4
    s = _sqrt_fraction(disc)  # fixed points of C on the boundary line
    c21 = c.rows[1][0]
    if c21 == 0:
        raise RuntimeError("commutator is triangular; pick other generators")
    p = (c.rows[0][0] - c.rows[1][1] + s) / (2 * c21)
    q = (c.rows[0][0] - c.rows[1][1] - s) / (2 * c21)
    # rational point (x, y) on the semicircle over [p, q]
    centre = (p + q) / 2
    radius = abs(q - p) / 2
    t = Fraction(1, 2)
    x = centre + radius * (1 - t * t) / (1 + t * t)
    y = radius * 2 * t / (1 + t * t)
    j = Matrix(
        [[x / y, -(x * x + y * y) / y], [Fraction(1) / y, -x / y]]
    )  # half-turn about x + iy, det 1
    a2 = j @ a @ j.inverse()
    b2 = j @ b @ j.inverse()
    return SurfaceRep(QQ, 2, "SL", [a, b, a2, b2])


def _sqrt_fraction(x: Fraction) -> Fraction:
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError(f"{x} is not a rational square")
    return Fraction(rn, rd)


def genus2_rank1(values=(2, 3, 5, 7)) -> SurfaceRep:
    """A rank-1 positive flat bundle over the genus-2 surface."""
    mats = [_m([[v]]) for v in values]
    return SurfaceRep(QQ, 2, "GL+", mats)


def handle_moves(rep: SurfaceRep, word: str) -> SurfaceRep:
    """The representation after a word of within-handle moves, left to right.

    Letter ``a<i>`` is A_i -> A_i B_i and ``b<i>`` is B_i -> B_i A_i, on
    handle i = 1..g.  Both keep the commutator [A_i, B_i], so the relator
    still closes; they are Dehn twists of the surface, which change no
    characteristic class.
    """
    mats = list(rep.matrices)
    for letter in word.split():
        i = 2 * (int(letter[1:]) - 1)
        a, b = mats[i], mats[i + 1]
        if letter[0] == "a":
            mats[i] = a @ b
        else:
            mats[i + 1] = b @ a
    return SurfaceRep(rep.field, rep.genus, rep.tag, mats)


def random_move_word(rng: random.Random, genus: int, length: int) -> str:
    return " ".join(f"{rng.choice('ab')}{rng.randint(1, genus)}" for _ in range(length))


def conjugated(rep: SurfaceRep, g: Matrix) -> SurfaceRep:
    """Every generator M replaced by g M g^-1; det g < 0 reverses the fiber's orientation."""
    g_inv = g.inverse()
    return SurfaceRep(rep.field, rep.genus, rep.tag, [g @ m @ g_inv for m in rep.matrices])


def sqrt2_conjugated(rep: SurfaceRep) -> SurfaceRep:
    """rep over Q(sqrt(2)), conjugated by g = [[1+sqrt2, 1], [1, -2+2sqrt2]] in SL(2, Z[sqrt(2)]).

    det g = 1, so no class changes; the entries become irrational.
    """
    field = QuadraticField(2)
    g = Matrix([[field.from_pair(1, 1), 1], [1, field.from_pair(-2, 2)]])
    return SurfaceRep(field, rep.genus, rep.tag, conjugated(rep, g).matrices)


# 16 within-handle moves that take g2_fuchs to entries of up to 26 digits:
# exactly valid, but past the float relator tolerance of the oracle
FUCHS_MOVES = "b2 b2 b1 b1 b2 a1 a2 b2 a2 a1 b1 a1 b2 b1 b2 b2"


def genus2_fuchsian_moved() -> SurfaceRep:
    return handle_moves(genus2_fuchsian(), FUCHS_MOVES)


def elementary_gauge(rng: random.Random) -> Matrix:
    """[[1, k], [0, 1]] [[1, 0], [l, 1]] for random k, l in [-3, 3]: an element of SL(2, Z)."""
    k, l = rng.randint(-3, 3), rng.randint(-3, 3)
    return Matrix([[1, k], [0, 1]]) @ Matrix([[1, 0], [l, 1]])


def pachner_cones(bundle: FlatBundle, z: Chain, count: int, rng: random.Random):
    """(bundle, cycle) after ``count`` 1-3 moves on random triangles of z.

    A move cones triangle t = (v0, v1, v2), faces (e12, e02, e01), off a new
    vertex w.  The new edges (v_i, w) carry h_0w = G, h_1w = G h01^-1 and
    h_2w = G h02^-1 for a gauge G at w (``elementary_gauge``), so the
    triangles (v0, v1, w), (v0, v2, w) and (v1, v2, w) hold the triangle
    condition; they replace t's coefficient c on the cycle by (c, -c, c).
    t stays in the complex, off the cycle.  The tables are extended in
    place and the complex and bundle built once, after the last move.
    """
    vertices = [list(level) for level in bundle.base.vertices]
    faces = [list(level) for level in bundle.base.faces]
    holonomy = dict(bundle.holonomy)
    coeffs = dict(z.coeffs)
    for _ in range(count):
        t = rng.choice(list(coeffs))
        c = coeffs.pop(t)
        (v0, v1, v2), (e12, e02, e01) = vertices[2][t], faces[2][t]
        w, g = len(vertices[0]), elementary_gauge(rng)
        vertices[0].append((w,))
        faces[0].append(())
        e0w, e1w, e2w = range(len(faces[1]), len(faces[1]) + 3)
        for v, h in ((v0, g), (v1, g @ holonomy[e01].inverse()), (v2, g @ holonomy[e02].inverse())):
            holonomy[len(faces[1])] = h
            vertices[1].append((v, w))
            faces[1].append((w, v))
        for verts, fids, sign_c in (
            ((v0, v1, w), (e1w, e0w, e01), c),
            ((v0, v2, w), (e2w, e0w, e02), -c),
            ((v1, v2, w), (e2w, e1w, e12), c),
        ):
            coeffs[len(faces[2])] = sign_c
            vertices[2].append(verts)
            faces[2].append(fids)
    base = DeltaComplex(vertices, faces)
    return FlatBundle(base, bundle.n, bundle.tag, holonomy, bundle.field), Chain(2, coeffs)


def is_positive_section(bundle: FlatBundle, s: Section, witnesses) -> bool:
    """Whether phi . x > 0 at every corner of every witnessed simplex (d, sid) -> phi."""
    return all(
        sign(dot(phi, lift)) > 0
        for (d, sid), phi in witnesses.items()
        for lift, _ in bundle._corners(s.values, d, sid)
    )


def mixed_dimension_product(rep: SurfaceRep, seed: int = 0):
    """Sigma x S^2 with the trivial line bundle on the sphere, and a positive section.

    The cycle is the loop edge 0 of the surface times the sphere.  Returns
    (bundle, cycle, s0, witnesses): s0 = (s(x0), 0) at every vertex for a
    generic section s whose two corner values v0, v1 on edge 0 span the
    fiber, and every top simplex of the cycle is witnessed by (f, 0) with
    f . v0 = f . v1 = 1.
    """
    sc, _ = surface_complex(rep.genus)
    ea = bundle_from_surface_rep(sc, rep.matrices, rep.tag, field=rep.field)
    sph, z2 = sphere_complex()
    eb = FlatBundle(sph, 1, "GL+", {e: Matrix([[1]]) for e in range(len(sph.faces[1]))})
    px = product_complex(sc, sph)
    ep = product_bundle(px, ea, eb)
    zz = product_chain(px, Chain(1, {0: 1}), z2)
    for k in range(50):
        s = random_generic_section(ea, seed=seed + k)
        if rank(ea.corner_values(s, 1, 0), 2) == 2:
            break
    v0, v1 = ea.corner_values(s, 1, 0)
    f = solve_square(list(zip(v0, v1)), (1, 1))
    s0 = Section({v: (*s.values[0], 0) for v in range(px.num_vertices)})
    return ep, zz, s0, {(3, sid): (*f, 0) for sid in zz.coeffs}


def positive_generic_section(bundle, s0, witnesses, support, seed=0) -> Section:
    """s0 + eps*w for eps = 1, 1/2, 1/4, ..., with a fresh random integer w each time.

    Returns the first such section that is positive for every witness and
    generic on the support.  Positivity is open, so it holds for small eps
    when s0 is positive; genericity fails for finitely many eps on a line.
    """
    assert is_positive_section(bundle, s0, witnesses)
    rng = random.Random(seed)
    eps = Fraction(1)
    for _ in range(64):
        values = {
            v: tuple(x + eps * rng.randint(-9, 9) for x in vec) for v, vec in s0.values.items()
        }
        if all(any(vec) for vec in values.values()):
            s = Section(values)
            if is_positive_section(bundle, s, witnesses) and is_generic_section(
                bundle, s, support=support
            ):
                return s
        eps /= 2
    raise AssertionError("no positive generic section after 64 tries")


BUILTIN_FIXTURES = {
    "g1_diag.json": genus1_diagonal,
    "g1_diag2.json": genus1_diagonal2,
    "g1_parab.json": genus1_parabolic,
    "g2_swap.json": genus2_swap,
    "g2_swap2.json": lambda: genus2_swap([[2, 1], [1, 1]], [[1, 1], [1, 2]]),
    "g2_fuchs.json": genus2_fuchsian,
    "g2_rank1.json": genus2_rank1,
    "g2_solved_1.json": lambda: genus2_solved(1),
    "g2_solved_2.json": lambda: genus2_solved(2),
    "g2_solved_3.json": lambda: genus2_solved(3),
    "g2_solved_4.json": lambda: genus2_solved(4),
    "g2_solved_5.json": lambda: genus2_solved(5),
    "g2_solved_6.json": lambda: genus2_solved(6),
    "g2_solved_7.json": lambda: genus2_solved(7),
    "g2_solved_8.json": lambda: genus2_solved(8),
}


def write_fixtures(directory: str) -> list[str]:
    """Materialize the built-in fixture files; returns the paths written."""
    out = []
    os.makedirs(directory, exist_ok=True)
    for name, builder in BUILTIN_FIXTURES.items():
        path = os.path.join(directory, name)
        save_rep(builder(), path)
        out.append(path)
    return out


if __name__ == "__main__":
    for path in write_fixtures(sys.argv[1] if len(sys.argv) > 1 else "fixtures"):
        print(path)
