"""Combinatorial Delta-complexes, chains, surface models and products.

Each dimension is a pair of row tables: a simplex is an ordered vertex
tuple (repetition allowed) and a tuple of face ids.  All attachments are
order-compatible, so the boundary operator is the plain alternating sum
over face references and products can be triangulated by monotone
staircase chains.

The closed orientable surface of genus g is modelled on the one-vertex
4g-gon (edge word a1 b1 a1^-1 b1^-1 ...) coned from corner 0.  Matching
each triangle's vertex order to the canonical directions of the glued
edges forces alternating coefficients on the fundamental cycle; the
returned chain has boundary zero, which tests verify.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from typing import Sequence

from ._value import Value


class DeltaComplex:
    """A finite Delta-complex as one pair of row tables per dimension.

    ``vertices[d][sid]`` is the ordered vertex tuple of d-simplex sid and
    ``faces[d][sid]`` the ids of its faces, face j opposite corner j (``()``
    on a vertex).  Trailing empty levels are dropped.
    """

    def __init__(
        self,
        vertices: Sequence[Sequence[tuple[int, ...]]],
        faces: Sequence[Sequence[tuple[int, ...]]],
    ):
        self.vertices: list[list[tuple[int, ...]]] = [list(level) for level in vertices]
        self.faces: list[list[tuple[int, ...]]] = [list(level) for level in faces]
        for table in (self.vertices, self.faces):
            while table and not table[-1]:
                table.pop()
        self.validate()
        # corner_edges[d][sid]: the edges on corners (0, c), c = 1..d.  Face d
        # keeps corners 0..d-1; face 1 keeps 0, 2..d, so its last edge is (0, d).
        self.corner_edges: list[list[tuple[int, ...]]] = [
            [(sid,) * d for sid in range(len(level))]  # () on a vertex, (eid,) on an edge
            for d, level in enumerate(self.faces[:2])
        ]
        for d, level in enumerate(self.faces[2:], 2):
            below = self.corner_edges[d - 1]
            self.corner_edges.append([below[f[d]] + below[f[1]][-1:] for f in level])

    @property
    def num_vertices(self) -> int:
        return len(self.vertices[0]) if self.vertices else 0

    @property
    def dimension(self) -> int:
        return len(self.vertices) - 1

    def validate(self) -> None:
        """Check row counts, face ids, vertex consistency of faces and the double-face identities.

        Each check compares whole columns of a level (face j of every
        simplex, vertex k of every simplex or face) as tuples, in this order:
        counts, vertex ids (level 0), face ids, vertices of faces, then
        d_i d_j = d_{j-1} d_i for i < j.  A failing check is located at its
        first simplex.
        """
        if len(self.vertices) != len(self.faces):
            raise ValueError(f"{len(self.vertices)} vertex levels, {len(self.faces)} face levels")
        for d in range(len(self.faces)):
            self._validate_level(d)  # its column tables go before the next level's are built

    def _validate_level(self, d: int) -> None:
        vertices, faces = self.vertices[d], self.faces[d]
        if len(vertices) != len(faces):
            raise ValueError(f"level {d}: {len(vertices)} vertex rows, {len(faces)} face rows")
        n_faces = d + 1 if d else 0
        if set(map(len, vertices)) - {d + 1}:
            sid = next(sid for sid, v in enumerate(vertices) if len(v) != d + 1)
            raise ValueError(f"simplex ({d},{sid}) has wrong vertex count")
        if set(map(len, faces)) - {n_faces}:
            sid = next(sid for sid, f in enumerate(faces) if len(f) != n_faces)
            raise ValueError(f"simplex ({d},{sid}) has wrong face count")
        # vertex v is the row (v,): a product numbers its vertices v * N' + w
        bad = [] if d else [v for v, row in enumerate(vertices) if row != (v,)]
        if bad:
            raise ValueError(f"vertex {bad[0]} has row {vertices[bad[0]]}, not ({bad[0]},)")
        if not (d and faces):
            return
        n_below = len(self.faces[d - 1])
        columns = list(zip(*faces))  # columns[j][sid]: face j of simplex sid
        if min(map(min, columns)) < 0 or max(map(max, columns)) >= n_below:
            sid, j, fid = next(
                (sid, j, fid)
                for sid, f in enumerate(faces)
                for j, fid in enumerate(f)
                if not 0 <= fid < n_below
            )
            raise ValueError(f"face {j} of simplex ({d},{sid}) has id {fid} out of range")
        corners = list(zip(*vertices))
        below_vertices = self.vertices[d - 1]
        # face j keeps every corner but j: its vertex columns are the others
        if any(
            list(zip(*map(below_vertices.__getitem__, col))) != corners[:j] + corners[j + 1 :]
            for j, col in enumerate(columns)
        ):
            sid, j = next(
                (sid, j)
                for sid, (v, f) in enumerate(zip(vertices, faces))
                for j in range(d + 1)
                if below_vertices[f[j]] != v[:j] + v[j + 1 :]
            )
            raise ValueError(f"face {j} of simplex ({d},{sid}) is not order-compatible")
        if d < 2:
            return
        below_faces = self.faces[d - 1]
        ff = [list(zip(*map(below_faces.__getitem__, col))) for col in columns]
        pairs = [(i, j) for j in range(d + 1) for i in range(j)]
        if any(ff[j][i] != ff[i][j - 1] for i, j in pairs):
            sid, i, j = next(
                (sid, i, j)
                for sid in range(len(faces))
                for i, j in pairs
                if ff[j][i][sid] != ff[i][j - 1][sid]
            )
            raise ValueError(f"double-face identity fails at ({d},{sid},i={i},j={j})")


class Chain(Value):
    """A finitely supported integer chain in a fixed dimension."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: dict[int, int] | None = None):
        self._set(dim=dim, coeffs={s: c for s, c in (coeffs or {}).items() if c != 0})

    def is_zero(self) -> bool:
        return not self.coeffs

    def support_size(self) -> int:
        return len(self.coeffs)


def boundary(cx: DeltaComplex, chain: Chain) -> Chain:
    """Alternating sum over face references."""
    if chain.dim < 1:
        raise ValueError("boundary needs dimension >= 1")
    out: dict[int, int] = {}
    for sid, c in chain.coeffs.items():
        for j, fid in enumerate(cx.faces[chain.dim][sid]):
            out[fid] = out.get(fid, 0) + (c if j % 2 == 0 else -c)
    return Chain(chain.dim - 1, out)


class SurfaceComplex(DeltaComplex):
    """One-vertex Delta-complex model of the closed genus-g surface."""

    def __init__(self, genus: int):
        if genus < 1:
            raise ValueError("genus must be >= 1")
        g = self.genus = genus
        n_sides = 4 * g

        def side_edge(k: int) -> int:
            # generator edge ids: a_j = 2(j-1), b_j = 2(j-1)+1
            return 2 * (k // 4) + (0 if k % 4 in (0, 2) else 1)

        def forward(k: int) -> bool:
            return k % 4 in (0, 1)

        def dd(i: int) -> int:
            # edge on corners {c_0, c_i}
            if i == 1:
                return side_edge(0)
            if i == n_sides - 1:
                return side_edge(n_sides - 1)
            return 2 * g + (i - 2)

        n_edges = 6 * g - 3
        triangles = []
        coeffs = {}
        for i in range(1, n_sides - 1):
            if forward(i):
                faces = (side_edge(i), dd(i + 1), dd(i))
                coeffs[len(triangles)] = 1
            else:
                faces = (side_edge(i), dd(i), dd(i + 1))
                coeffs[len(triangles)] = -1
            triangles.append(faces)
        self.fundamental = Chain(2, coeffs)
        super().__init__(
            [[(0,)], [(0, 0)] * n_edges, [(0, 0, 0)] * len(triangles)],
            [[()], [(0, 0)] * n_edges, triangles],
        )


def surface_complex(genus: int) -> tuple[SurfaceComplex, Chain]:
    """The genus-g surface model and its fundamental cycle.

    The cycle carries the orientation of the polygon's edge word: +1 on
    triangles at a forward side, -1 at a backward one.
    """
    sc = SurfaceComplex(genus)
    return sc, sc.fundamental


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

GridChain = tuple[tuple[int, int], ...]


def _covering_chains(p: int, q: int) -> list[GridChain]:
    """Monotone chains (0,0) -> (p,q) with steps (1,0), (0,1), (1,1)."""
    out: list[GridChain] = []

    def walk(i: int, j: int, acc: list[tuple[int, int]]):
        if (i, j) == (p, q):
            out.append(tuple(acc))
            return
        if i < p:
            walk(i + 1, j, acc + [(i + 1, j)])
        if j < q:
            walk(i, j + 1, acc + [(i, j + 1)])
        if i < p and j < q:
            walk(i + 1, j + 1, acc + [(i + 1, j + 1)])

    walk(0, 0, [(0, 0)])
    return out


def signed_paths(p: int, q: int) -> list[tuple[GridChain, int]]:
    """The unit-step chains (0,0) -> (p,q), in id order, each with (-1)^(area under it)."""
    paths = [chain for chain, _ in _chain_templates(p, q) if len(chain) == p + q + 1]
    areas = [sum(a[1] for a, b in zip(path, path[1:]) if a[1] == b[1]) for path in paths]
    return [(path, (-1) ** area) for path, area in zip(paths, areas)]


ProductKey = tuple[int, int, int, int, GridChain]  # (p, sid, q, sid2, chain)


@lru_cache(maxsize=None)
def _chain_templates(p: int, q: int) -> tuple:
    """The covering chains of the (p, q) grid, shortest first, with face templates.

    Face m drops chain point (i_m, j_m); entry m is (r, c, i_m, j_m, rest).
    r = 1 when no other point is in row i_m: the face lies over face i_m of
    the left cell and later rows shift down (c and j_m likewise for columns).
    """
    out = []
    for chain in sorted(_covering_chains(p, q), key=len):  # stable: ids keep their order
        template = []
        for m, (i_m, j_m) in enumerate(chain if len(chain) > 1 else ()):
            rest = chain[:m] + chain[m + 1 :]
            r = int(all(i != i_m for i, _ in rest))
            c = int(all(j != j_m for _, j in rest))
            rest = tuple((i - r * (i > i_m), j - c * (j > j_m)) for i, j in rest)
            template.append((r, c, i_m, j_m, rest))
        out.append((chain, tuple(template)))
    return tuple(out)


class ProductComplex(DeltaComplex):
    """Staircase triangulation of the product of two Delta-complexes.

    Simplices are triples (cell of X, cell of X', covering chain in the
    grid of the two cell dimensions); top simplices over a cell pair are
    indexed by admissible paths.  The d-simplices are numbered block by
    block, (p, q) ascending, and inside a block by (sid, sid2, chain):
    id = start + (sid * N' + sid2) * k, where start is the block's offset
    plus the chain's rank among the k chains of its length and N' the
    number of q-cells of X'.  Face m of a chain's simplices is then
    X_m[sid] + Y_m[sid2], read off the chain's template once per block,
    and so are the vertex tuples: each (p, q, chain) writes its rows by
    one slice assignment per table.
    """

    def __init__(self, left: DeltaComplex, right: DeltaComplex):
        self.left, self.right = left, right
        dims = range(left.dimension + right.dimension + 1)
        # (p, q, chain) -> (d, start, k)
        self._place: dict[tuple[int, int, GridChain], tuple[int, int, int]] = {}
        vertices: list[list] = [[] for _ in dims]
        faces: list[list] = [[] for _ in dims]
        self._keys_by_dim: list[list] = [[] for _ in dims]
        nright = right.num_vertices
        # a face lies in an earlier block or on a shorter chain of this one,
        # so each block is placed before any simplex that refers to it
        for p, (lverts, lfaces) in enumerate(zip(left.vertices, left.faces)):
            for q, (rverts, rfaces) in enumerate(zip(right.vertices, right.faces)):
                n1, n2 = len(lfaces), len(rfaces)
                n_cells = n1 * n2
                keys = [(p, sid, q, sid2) for sid in range(n1) for sid2 in range(n2)]
                # point[i, j]: the product vertex of corners (i, j) on every cell, in id order
                lcols = [[x * nright for x in col] for col in zip(*lverts)]
                point = {
                    (i, j): [x + y for x in xs for y in ys]
                    for i, xs in enumerate(lcols)
                    for j, ys in enumerate(zip(*rverts))
                }
                for d, group in groupby(_chain_templates(p, q), key=lambda t: len(t[0]) - 1):
                    group = list(group)
                    k, start = len(group), len(vertices[d])
                    for table in (vertices[d], faces[d], self._keys_by_dim[d]):
                        table += [None] * (n_cells * k)
                    for rank, (chain, template) in enumerate(group):
                        self._place[p, q, chain] = d, start + rank, k
                        # one column per face: its entry on every cell, in id order
                        columns = []
                        for r, c, i, j, rest in template:
                            _, at, kf = self._place[p - r, q - c, rest]
                            if not (r or c):  # on the same cells: ids step by kf, as cells do by 1
                                columns.append(range(at, at + n_cells * kf, kf))
                                continue
                            stride = len(right.faces[q - c]) * kf
                            if r:
                                xs = [at + f[i] * stride for f in lfaces]
                            else:
                                xs = range(at, at + n1 * stride, stride)
                            ys = [f[j] * kf for f in rfaces] if c else range(0, n2 * kf, kf)
                            columns.append([x + y for x in xs for y in ys])
                        block = slice(start + rank, start + n_cells * k, k)
                        faces[d][block] = list(zip(*columns)) if d else [()] * n_cells
                        vertices[d][block] = list(zip(*map(point.__getitem__, chain)))
                        self._keys_by_dim[d][block] = [key + (chain,) for key in keys]
        super().__init__(vertices, faces)

    def id_of(self, p: int, sid: int, q: int, sid2: int, chain: GridChain) -> int:
        _, start, k = self._place[p, q, chain]
        return start + (sid * len(self.right.faces[q]) + sid2) * k

    def cell_info(self, dim: int, sid: int) -> ProductKey:
        """(p, sid, q, sid2, chain) of a product simplex."""
        return self._keys_by_dim[dim][sid]


def product_complex(left: DeltaComplex, right: DeltaComplex) -> ProductComplex:
    return ProductComplex(left, right)


def product_chain(px: ProductComplex, z: Chain, zp: Chain) -> Chain:
    """The cross product of chains: sum over admissible paths with signs."""
    n, k = z.dim, zp.dim
    signed = signed_paths(n, k)
    out: dict[int, int] = {}
    for sid, c in z.coeffs.items():
        for sid2, c2 in zp.coeffs.items():
            for path, sign in signed:
                pid = px.id_of(n, sid, k, sid2, path)
                out[pid] = out.get(pid, 0) + c * c2 * sign
    return Chain(n + k, out)


def cup_evaluate(cx: DeltaComplex, p: int, alpha, q: int, beta, z: Chain) -> int:
    """<alpha cup beta, z> by front p-face / back q-face evaluation.

    alpha and beta are value maps (callables id -> int) on p- and
    q-simplices; they must be defined on all front/back faces met, else
    the underlying KeyError propagates.
    """
    if z.dim != p + q:
        raise ValueError("chain dimension must be p+q")
    total = 0
    for sid, c in z.coeffs.items():
        front = back = sid
        for d in range(p + q, p, -1):
            front = cx.faces[d][front][d]
        for d in range(p + q, q, -1):
            back = cx.faces[d][back][0]
        total += c * alpha(front) * beta(back)
    return total
