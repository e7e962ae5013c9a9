import random
import re

import pytest

from fixture_builders import (
    cell_counts,
    euler_characteristic,
    sphere_complex,
    standard_simplex_complex,
)
from tautclass.complexes import (
    Chain,
    DeltaComplex,
    _chain_templates,
    _covering_chains,
    boundary,
    cup_evaluate,
    product_chain,
    product_complex,
    signed_paths,
    surface_complex,
)


def test_boundary_of_single_triangle():
    cx = standard_simplex_complex(2)
    t = Chain(2, {0: 1})
    faces = cx.faces[2][0]
    assert boundary(cx, t).coeffs == {faces[0]: 1, faces[1]: -1, faces[2]: 1}


def test_boundary_squared_zero():
    rng = random.Random(0)
    cx = standard_simplex_complex(4)
    for _ in range(20):
        chain = Chain(3, {i: rng.randint(-3, 3) for i in range(len(cx.faces[3]))})
        assert boundary(cx, boundary(cx, chain)).is_zero()


@pytest.mark.parametrize("g", [1, 2, 3])
def test_surface_complex_counts(g):
    sc, z = surface_complex(g)
    assert cell_counts(sc) == (1, 6 * g - 3, 4 * g - 2)
    assert euler_characteristic(sc) == 2 - 2 * g
    assert boundary(sc, z).is_zero()
    assert sorted(abs(c) for c in z.coeffs.values()) == [1] * (4 * g - 2)


def test_surface_complex_validates():
    sc, _ = surface_complex(2)
    sc.validate()
    with pytest.raises(ValueError):
        surface_complex(0)


def boundary_word(sc) -> list[tuple[int, int]]:
    """The polygon edge word as (edge id, +-1 exponent), read off the fan triangles.

    Triangle t spans the polygon corners (c0, c_t+1, c_t+2) in this order
    when its fundamental coefficient is +1, else (c0, c_t+2, c_t+1); side
    k runs from c_k to c_k+1.  So the middle side of triangle t is its
    face 0 with the triangle's coefficient as exponent, while side 0
    (c0 -> c1) and side 4g-1 (c_4g-1 -> c0) are edges at c0 of the first
    and last triangles, read forward and backward.
    """
    tris, coeffs = sc.faces[2], sc.fundamental.coeffs
    last = len(tris) - 1
    word = [(tris[0][2 if coeffs[0] > 0 else 1], 1)]
    word += [(t[0], coeffs[i]) for i, t in enumerate(tris)]
    word.append((tris[last][1 if coeffs[last] > 0 else 2], -1))
    return word


def test_surface_edge_word_is_commutator_product():
    for g in (1, 2, 3):
        sc, _ = surface_complex(g)
        word = boundary_word(sc)
        expected = []
        for j in range(g):
            a, b = 2 * j, 2 * j + 1
            expected += [(a, 1), (b, 1), (a, -1), (b, -1)]
        assert word == expected


def test_sphere_complex():
    cx, z = sphere_complex()
    assert cell_counts(cx) == (4, 6, 4)
    assert euler_characteristic(cx) == 2
    assert boundary(cx, z).is_zero()


def _path_sign(path):
    """(-1)^area under a unit-step path, one step at a time."""
    area = 0
    for a, b in zip(path, path[1:]):
        if b[0] == a[0] + 1 and b[1] == a[1]:
            area += a[1]
    return -1 if area % 2 else 1


def test_signed_paths_are_the_longest_chains_with_their_area_signs():
    from math import comb

    for n in range(5):
        for k in range(5):
            paths = [chain for chain, _ in _chain_templates(n, k) if len(chain) == n + k + 1]
            assert signed_paths(n, k) == [(path, _path_sign(path)) for path in paths]
            assert len(paths) == comb(n + k, n)
    assert sorted(sign for _, sign in signed_paths(1, 1)) == [-1, 1]
    lower = tuple([(i, 0) for i in range(3)] + [(2, j) for j in range(1, 3)])
    assert dict(signed_paths(2, 2))[lower] == 1


def test_product_complex_top_cells():
    d2 = standard_simplex_complex(2)
    px = product_complex(d2, d2)
    assert len(px.faces[4]) == 6
    px.validate()


def test_product_chain_of_torus_cycles_is_cycle():
    s1, z1 = surface_complex(1)
    s2, z2 = surface_complex(1)
    px = product_complex(s1, s2)
    zz = product_chain(px, z1, z2)
    assert zz.dim == 4
    assert zz.support_size() == 2 * 2 * 6
    assert boundary(px, zz).is_zero()


def test_product_leibniz_rule():
    """d(z x z') = dz x z' + (-1)^|z| z x dz', pinned by this test."""
    rng = random.Random(1)
    left = standard_simplex_complex(3)
    right = standard_simplex_complex(2)
    px = product_complex(left, right)
    for ldim in (1, 2):
        for rdim in (1, 2):
            z = Chain(
                ldim,
                {i: rng.randint(-2, 2) for i in range(len(left.faces[ldim]))},
            )
            zp = Chain(
                rdim,
                {i: rng.randint(-2, 2) for i in range(len(right.faces[rdim]))},
            )
            lhs = boundary(px, product_chain(px, z, zp))
            rhs = dict(product_chain(px, boundary(left, z), zp).coeffs)
            for s, c in product_chain(px, z, boundary(right, zp)).coeffs.items():
                rhs[s] = rhs.get(s, 0) + (-1) ** ldim * c
            assert lhs.coeffs == {s: c for s, c in rhs.items() if c}


def test_cup_with_constant_front_factor():
    cx = standard_simplex_complex(3)
    z = Chain(3, {0: 1})
    beta_values = {i: 7 for i in range(len(cx.faces[3]))}

    def alpha(sid):
        return 1

    def beta(sid):
        return 5

    # p = 0: plain evaluation of beta over the back 3-face (z itself)
    assert cup_evaluate(cx, 0, alpha, 3, beta, z) == 5
    # single ordered simplex: front value times back value
    assert cup_evaluate(cx, 1, lambda s: 3, 2, lambda s: 4, z) == 12


def test_cup_kunneth_on_product_of_surfaces():
    rng = random.Random(2)
    s1, z1 = surface_complex(2)
    s2, z2 = surface_complex(2)
    px = product_complex(s1, s2)
    zz = product_chain(px, z1, z2)
    a_values = {i: rng.randint(-3, 3) for i in range(len(s1.faces[2]))}
    b_values = {i: rng.randint(-3, 3) for i in range(len(s2.faces[2]))}

    def alpha(pid):
        p, sid, q, sid2, _ = px.cell_info(2, pid)
        return a_values[sid] if (p, q) == (2, 0) else 0

    def beta(pid):
        p, sid, q, sid2, _ = px.cell_info(2, pid)
        return b_values[sid2] if (p, q) == (0, 2) else 0

    lhs = cup_evaluate(px, 2, alpha, 2, beta, zz)
    eval_a = sum(c * a_values[s] for s, c in z1.coeffs.items())
    eval_b = sum(c * b_values[s] for s, c in z2.coeffs.items())
    assert lhs == eval_a * eval_b


def subsimplex(cx, dim: int, sid: int, keep) -> tuple[int, int]:
    """The iterated face on the given corner positions, walked face by face; (dim, id).

    The oracle of the corner-edge table and of the faces cup_evaluate reads.
    """
    cur, d = sid, dim
    for k in range(dim, -1, -1):  # drop corners from the last, so k stays a position
        if k not in keep:
            cur = cx.faces[d][cur][k]
            d -= 1
    return d, cur


TABLE_COMPLEXES = pytest.mark.parametrize(
    "make",
    [
        lambda: surface_complex(1)[0],
        lambda: surface_complex(2)[0],
        lambda: surface_complex(3)[0],
        lambda: sphere_complex()[0],
        lambda: standard_simplex_complex(4),
        lambda: product_complex(surface_complex(2)[0], surface_complex(2)[0]),
        lambda: product_complex(sphere_complex()[0], surface_complex(1)[0]),
    ],
    ids=["S1g", "S2g", "S3g", "sphere", "D4", "S2gxS2g", "sphere x T2"],
)


@TABLE_COMPLEXES
def test_cup_evaluate_reads_the_front_and_back_faces_of_subsimplex(make):
    cx = make()
    for d, level in enumerate(cx.faces):
        for sid in range(len(level)):
            for p in range(d + 1):
                met = []

                def record(value):
                    return lambda f: met.append(f) or value

                assert cup_evaluate(cx, p, record(2), d - p, record(5), Chain(d, {sid: 3})) == 30
                front = subsimplex(cx, d, sid, range(p + 1))[1]
                back = subsimplex(cx, d, sid, range(p, d + 1))[1]
                assert met == [front, back], (d, sid, p)


def test_cup_missing_value_errors():
    cx = standard_simplex_complex(2)
    z = Chain(2, {0: 1})

    def alpha(sid):
        raise KeyError(sid)

    with pytest.raises(KeyError):
        cup_evaluate(cx, 1, alpha, 1, lambda s: 1, z)


def test_validation_catches_bad_faces():
    bad_triangle = [(0, 0)]  # wrong face count
    with pytest.raises(ValueError):
        DeltaComplex([[(0,)], [(0, 0)], [(0, 0, 0)]], [[()], [(0, 0)], bad_triangle])


def test_validation_rejects_unequal_tables():
    with pytest.raises(ValueError, match=r"^2 vertex levels, 1 face levels$"):
        DeltaComplex([[(0,)], [(0, 0)]], [[()]])
    with pytest.raises(ValueError, match=r"^level 1: 2 vertex rows, 1 face rows$"):
        DeltaComplex([[(0,)], [(0, 0), (0, 0)]], [[()], [(0, 0)]])


@pytest.mark.parametrize(
    "vertices, faces, v",
    [
        # one vertex named 5: its product with itself had the vertex row (10,)
        ([[(5,)], [(5, 5)]], [[()], [(0, 0)]], 0),
        ([[(1,), (0,)]], [[(), ()]], 0),
        ([[(0,), (2,), (1,)], [(0, 2)]], [[(), (), ()], [(1, 0)]], 1),
    ],
    ids=["renamed", "swapped", "second"],
)
def test_validation_requires_each_vertex_row_to_be_its_id(vertices, faces, v):
    expected = _first_fault(vertices, faces)
    assert expected == f"vertex {v} has row {vertices[0][v]}, not ({v},)"
    with pytest.raises(ValueError) as err:
        DeltaComplex(vertices, faces)
    assert str(err.value) == expected


@pytest.mark.parametrize("seed", range(6))
def test_validation_locates_a_renumbered_vertex_of_a_product(seed):
    rng = random.Random(seed)
    vertices, faces = _tables(product_complex(sphere_complex()[0], standard_simplex_complex(2)))
    v = rng.randrange(len(vertices[0]))
    vertices[0][v] = (v + rng.choice([-1, 1, len(vertices[0])]),)
    expected = _first_fault(vertices, faces)
    assert expected == f"vertex {v} has row {vertices[0][v]}, not ({v},)"
    with pytest.raises(ValueError) as err:
        DeltaComplex(vertices, faces)
    assert str(err.value) == expected


@pytest.mark.parametrize("bad_id", [-1, 1], ids=["negative", "too-large"])
def test_validation_rejects_face_ids_outside_the_level_below(bad_id):
    with pytest.raises(ValueError, match=rf"^face 1 of simplex \(1,0\) has id {bad_id} out"):
        DeltaComplex([[(0,)], [(0, 0)]], [[()], [(0, bad_id)]])


def _first_fault(vertices, faces) -> str | None:
    """Row by row, the message of the first fault of DeltaComplex.validate."""
    if len(vertices) != len(faces):
        return f"{len(vertices)} vertex levels, {len(faces)} face levels"
    for d, (rows, face_rows) in enumerate(zip(vertices, faces)):
        if len(rows) != len(face_rows):
            return f"level {d}: {len(rows)} vertex rows, {len(face_rows)} face rows"
        below, below_faces = (vertices[d - 1], faces[d - 1]) if d else ((), ())
        for sid, v in enumerate(rows):
            if len(v) != d + 1:
                return f"simplex ({d},{sid}) has wrong vertex count"
        for sid, f in enumerate(face_rows):
            if len(f) != (d + 1 if d else 0):
                return f"simplex ({d},{sid}) has wrong face count"
        for v, row in enumerate(() if d else rows):
            if row != (v,):
                return f"vertex {v} has row {row}, not ({v},)"
        for sid, f in enumerate(face_rows):
            for j, fid in enumerate(f):
                if not 0 <= fid < len(below):
                    return f"face {j} of simplex ({d},{sid}) has id {fid} out of range"
        for sid, (v, f) in enumerate(zip(rows, face_rows)):
            for j, fid in enumerate(f):
                if below[fid] != v[:j] + v[j + 1 :]:
                    return f"face {j} of simplex ({d},{sid}) is not order-compatible"
        for sid, f in enumerate(face_rows):
            for j in range(d + 1 if d >= 2 else 0):
                for i in range(j):
                    if below_faces[f[j]][i] != below_faces[f[i]][j - 1]:
                        return f"double-face identity fails at ({d},{sid},i={i},j={j})"
    return None


def _tables(cx):
    """Copies of the row tables of cx, to tamper with."""
    return [list(level) for level in cx.vertices], [list(level) for level in cx.faces]


@pytest.mark.parametrize("seed", range(24))
def test_validation_reports_the_first_fault_of_the_oracle(seed):
    # one-vertex products pass every vertex check, so swapped or shifted
    # face ids surface as double-face faults; vertex swaps as vertex faults
    rng = random.Random(seed)
    make = rng.choice([
        lambda: product_complex(surface_complex(1)[0], surface_complex(1)[0]),
        lambda: product_complex(sphere_complex()[0], standard_simplex_complex(1)),
        lambda: standard_simplex_complex(4),
    ])
    vertices, faces = _tables(make())
    for _ in range(rng.randint(1, 3)):
        d = rng.randrange(1, len(vertices))
        sid = rng.randrange(len(vertices[d]))
        v, f = list(vertices[d][sid]), list(faces[d][sid])
        kind = rng.choice(["swap faces"] * 3 + ["swap vertices", "shift face", "drop face"])
        i, j = rng.sample(range(d + 1), 2)
        if kind == "swap faces":
            f[i], f[j] = f[j], f[i]
        elif kind == "swap vertices":
            v[i], v[j] = v[j], v[i]
        elif kind == "shift face":
            f[i] += rng.choice([-len(vertices[d - 1]), -1, 1, len(vertices[d - 1])])
        else:
            f.pop(i)
        vertices[d][sid], faces[d][sid] = tuple(v), tuple(f)
    expected = _first_fault(vertices, faces)
    if expected is None:
        DeltaComplex(vertices, faces)
        return
    with pytest.raises(ValueError) as err:
        DeltaComplex(vertices, faces)
    assert str(err.value) == expected


def _tamper(vertices, faces, fault, rng):
    """Change one row of the tables so that it shows the fault; its (d, sid)."""
    d = rng.randrange(2 if fault == "double face" else 1, len(vertices))
    sid = rng.randrange(len(vertices[d]))
    v, f = list(vertices[d][sid]), list(faces[d][sid])
    i, j = rng.sample(range(d + 1), 2)
    if fault == "vertex count":
        v.append(v[0])
    elif fault == "face count":
        f.pop(i)
    elif fault == "id range":
        f[i] = rng.choice([-1, len(faces[d - 1])])
    elif fault == "order":
        v[i] += 1  # the faces that keep corner i no longer match
    else:
        f[i], f[j] = f[j], f[i]
    vertices[d][sid], faces[d][sid] = tuple(v), tuple(f)
    return d, sid


FAULT_MESSAGES = {
    "vertex count": r"simplex \((\d+),(\d+)\) has wrong vertex count",
    "face count": r"simplex \((\d+),(\d+)\) has wrong face count",
    "id range": r"face \d of simplex \((\d+),(\d+)\) has id -?\d+ out of range",
    "order": r"face \d of simplex \((\d+),(\d+)\) is not order-compatible",
    "double face": r"double-face identity fails at \((\d+),(\d+),i=\d,j=\d\)",
}


@pytest.mark.parametrize("fault", sorted(FAULT_MESSAGES))
@pytest.mark.parametrize(
    "make",
    [
        lambda: product_complex(surface_complex(2)[0], surface_complex(2)[0]),
        lambda: product_complex(sphere_complex()[0], surface_complex(1)[0]),
        lambda: product_complex(
            product_complex(surface_complex(1)[0], standard_simplex_complex(1)),
            standard_simplex_complex(1),
        ),
    ],
    ids=["S2gxS2g", "sphere x T2", "(T2xD1)xD1"],
)
def test_validation_locates_one_tampered_row_of_a_product(make, fault):
    """Each fault class, on one row of a product's tables: validate names that row first."""
    rng = random.Random(fault)
    px = make()
    for _ in range(50):
        # a swap of equal face ids changes nothing, a swap of faces with
        # other vertices is an order fault, and one of edges on a single
        # vertex shows only in a simplex above it: draw again
        vertices, faces = _tables(px)
        d, sid = _tamper(vertices, faces, fault, rng)
        expected = _first_fault(vertices, faces) or ""
        match = re.fullmatch(FAULT_MESSAGES[fault], expected)
        if match and tuple(map(int, match.groups())) == (d, sid):
            break
    else:
        pytest.fail(f"no {fault} fault drawn; last {expected!r}")
    with pytest.raises(ValueError) as err:
        DeltaComplex(vertices, faces)
    assert str(err.value) == expected


def _oracle_product(left, right):
    """Staircase product built face by face from canonical keys.

    The m-th face of (p, sid, q, sid2, chain) drops chain point m; a row
    (column) it leaves uncovered moves the left (right) cell to its face
    and renumbers the chain.  Returns the vertex and face row tables,
    the key -> id map and the keys per dimension.
    """
    ids, keys_by_dim = {}, [[] for _ in range(left.dimension + right.dimension + 1)]
    for p, level in enumerate(left.faces):
        for q, level2 in enumerate(right.faces):
            for sid in range(len(level)):
                for sid2 in range(len(level2)):
                    for chain in _covering_chains(p, q):
                        key, d = (p, sid, q, sid2, chain), len(chain) - 1
                        ids[key] = len(keys_by_dim[d])
                        keys_by_dim[d].append(key)

    def face_key(key, m):
        p, sid, q, sid2, chain = key
        i_m, j_m = chain[m]
        rest = chain[:m] + chain[m + 1 :]
        if not any(i == i_m for i, _ in rest):
            sid = left.faces[p][sid][i_m]
            p -= 1
            rest = tuple((i - 1 if i > i_m else i, j) for i, j in rest)
        if not any(j == j_m for _, j in rest):
            sid2 = right.faces[q][sid2][j_m]
            q -= 1
            rest = tuple((i, j - 1 if j > j_m else j) for i, j in rest)
        return (p, sid, q, sid2, rest)

    nright = right.num_vertices
    vertices, faces = [], []
    for d, keys in enumerate(keys_by_dim):
        vertices.append([])
        faces.append([])
        for key in keys:
            p, sid, q, sid2, chain = key
            vl, vr = left.vertices[p][sid], right.vertices[q][sid2]
            vertices[d].append(tuple(vl[i] * nright + vr[j] for i, j in chain))
            faces[d].append(tuple(ids[face_key(key, m)] for m in range(d + 1)) if d else ())
    return vertices, faces, ids, keys_by_dim


@pytest.mark.parametrize(
    "make_left, make_right, counts",
    [
        (lambda: surface_complex(1)[0], lambda: surface_complex(2)[0], None),
        (lambda: surface_complex(2)[0], lambda: surface_complex(2)[0], (1, 99, 426, 540, 216)),
        (lambda: sphere_complex()[0], lambda: surface_complex(2)[0], None),
        (lambda: surface_complex(2)[0], lambda: sphere_complex()[0], None),
        (lambda: standard_simplex_complex(2), lambda: standard_simplex_complex(2), None),
        (
            lambda: product_complex(sphere_complex()[0], standard_simplex_complex(1)),
            lambda: surface_complex(1)[0],
            None,
        ),
        (
            lambda: standard_simplex_complex(1),
            lambda: product_complex(surface_complex(1)[0], standard_simplex_complex(2)),
            None,
        ),
    ],
    ids=["T2xS2g", "S2gxS2g", "sphere x S2g", "S2g x sphere", "D2xD2", "(sphere x D1)xT2", "D1x(T2xD2)"],
)
def test_product_complex_matches_face_key_oracle(make_left, make_right, counts):
    left, right = make_left(), make_right()
    px = product_complex(left, right)
    vertices, faces, ids, keys_by_dim = _oracle_product(left, right)
    assert (px.vertices, px.faces) == (vertices, faces)
    for d, keys in enumerate(keys_by_dim):
        assert [px.cell_info(d, sid) for sid in range(len(keys))] == keys
    assert all(px.id_of(*key) == i for key, i in ids.items())
    chi = euler_characteristic(left) * euler_characteristic(right)
    assert euler_characteristic(px) == chi
    assert counts is None or cell_counts(px) == counts


def test_subsimplex_extraction():
    cx = standard_simplex_complex(3)
    top = 0  # vertices (0,1,2,3)
    d, sid = subsimplex(cx, 3, top, (1, 3))
    assert d == 1
    assert cx.vertices[1][sid] == (1, 3)
    assert cx.corner_edges[3][top][1] == subsimplex(cx, 3, top, (0, 2))[1]


@TABLE_COMPLEXES
def test_corner_edge_table_matches_subsimplex(make):
    cx = make()
    for d, level in enumerate(cx.faces):
        assert len(cx.corner_edges[d]) == len(level)
        for sid in range(len(level)):
            assert len(cx.corner_edges[d][sid]) == d
            for c in range(1, d + 1):
                assert cx.corner_edges[d][sid][c - 1] == subsimplex(cx, d, sid, (0, c))[1]


def test_value_types_compare_by_fields_and_are_immutable():
    assert Chain(2, {0: 1, 3: 0}) == Chain(2, {0: 1}) != Chain(1, {0: 1})
    assert Chain(2).coeffs == {} and Chain(2) != (2, {})
    with pytest.raises(AttributeError):
        Chain(2).coeffs = {0: 1}
