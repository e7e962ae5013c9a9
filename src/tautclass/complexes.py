"""Combinatorial Delta-complexes, chains, surface models and products.

Simplices carry ordered vertex tuples (repetition allowed) and explicit
face references by id.  All attachments are order-compatible, so the
boundary operator is the plain alternating sum over face references and
products can be triangulated by monotone staircase chains.

The closed orientable surface of genus g is modelled on the one-vertex
4g-gon (edge word a1 b1 a1^-1 b1^-1 ...) coned from corner 0.  Matching
each triangle's vertex order to the canonical directions of the glued
edges forces alternating coefficients on the fundamental cycle; the
returned chain has boundary zero, which tests verify.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Sequence

from ._value import Value


class Simplex(Value):
    """Ordered vertex ids and the ids of the faces opposite each vertex."""

    __slots__ = ("vertices", "faces")

    def __init__(self, vertices: tuple[int, ...], faces: tuple[int, ...]):
        self._set(vertices=vertices, faces=faces)

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


class DeltaComplex:
    """A finite Delta-complex: per-dimension simplex lists with face ids."""

    def __init__(self, simplices: Sequence[Sequence[Simplex]]):
        self.simplices: list[list[Simplex]] = [list(level) for level in simplices]
        while self.simplices and not self.simplices[-1]:
            self.simplices.pop()
        self.validate()
        # corner_edges[d][sid]: the edges on corners (0, c), c = 1..d.  Face d
        # keeps corners 0..d-1; face 1 keeps 0, 2..d, so its last edge is (0, d).
        self.corner_edges: list[list[tuple[int, ...]]] = [
            [(sid,) * d for sid in range(len(level))]  # () on a vertex, (eid,) on an edge
            for d, level in enumerate(self.simplices[:2])
        ]
        for d, level in enumerate(self.simplices[2:], 2):
            below = self.corner_edges[d - 1]
            self.corner_edges.append([below[s.faces[d]] + below[s.faces[1]][-1:] for s in level])

    @property
    def num_vertices(self) -> int:
        return len(self.simplices[0]) if self.simplices else 0

    @property
    def dimension(self) -> int:
        return len(self.simplices) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.simplices)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(level) for d, level in enumerate(self.simplices))

    def validate(self) -> None:
        """Check face ids, vertex consistency of faces and the double-face identities."""
        for d, level in enumerate(self.simplices):
            below = self.simplices[d - 1] if d else ()
            n_below = len(below)
            # d_i d_j = d_{j-1} d_i for i < j, on the faces of faces
            pairs = [(i, j) for j in range(d + 1) for i in range(j)] if d >= 2 else ()
            for sid, s in enumerate(level):
                vertices, faces = s.vertices, s.faces
                if len(vertices) != d + 1:
                    raise ValueError(f"simplex ({d},{sid}) has wrong vertex count")
                if len(faces) != (d + 1 if d else 0):
                    raise ValueError(f"simplex ({d},{sid}) has wrong face count")
                for j, fid in enumerate(faces):
                    if not 0 <= fid < n_below:
                        raise ValueError(
                            f"face {j} of simplex ({d},{sid}) has id {fid} out of range"
                        )
                    if below[fid].vertices != vertices[:j] + vertices[j + 1 :]:
                        raise ValueError(
                            f"face {j} of simplex ({d},{sid}) is not order-compatible"
                        )
                ff = [below[fid].faces for fid in faces]
                for i, j in pairs:
                    if ff[j][i] != ff[i][j - 1]:
                        raise ValueError(
                            f"double-face identity fails at ({d},{sid},i={i},j={j})"
                        )

    def subsimplex(self, dim: int, sid: int, keep: Sequence[int]) -> tuple[int, int]:
        """The iterated face on the given corner positions; returns (dim, id)."""
        cur, d = sid, dim
        for k in range(dim, -1, -1):  # drop corners from the last, so k stays a position
            if k not in keep:
                cur = self.simplices[d][cur].faces[k]
                d -= 1
        return d, cur

    def to_json(self) -> dict:
        return {
            "vertices": self.num_vertices,
            "simplices": [
                [
                    {"dim": d, "vertices": list(s.vertices), "faces": list(s.faces)}
                    for s in level
                ]
                for d, level in enumerate(self.simplices)
            ],
        }

    @classmethod
    def from_json(cls, data) -> "DeltaComplex":
        if isinstance(data, str):
            data = json.loads(data)
        levels = [
            [Simplex(tuple(s["vertices"]), tuple(s["faces"])) for s in level]
            for level in data["simplices"]
        ]
        return cls(levels)


class Chain(Value):
    """A finitely supported integer chain in a fixed dimension."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: dict[int, int] | None = None):
        self._set(dim=dim, coeffs={s: c for s, c in (coeffs or {}).items() if c != 0})

    def __add__(self, other: "Chain") -> "Chain":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, 0) + c
        return Chain(self.dim, out)

    def __neg__(self) -> "Chain":
        return Chain(self.dim, {s: -c for s, c in self.coeffs.items()})

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def scale(self, m: int) -> "Chain":
        return Chain(self.dim, {s: m * c for s, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def support_size(self) -> int:
        return len(self.coeffs)

    def to_json(self) -> dict:
        return {"dim": self.dim, "entries": sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, data) -> "Chain":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(data["dim"], {int(s): int(c) for s, c in data["entries"]})


def boundary(cx: DeltaComplex, chain: Chain) -> Chain:
    """Alternating sum over face references."""
    if chain.dim < 1:
        raise ValueError("boundary needs dimension >= 1")
    out: dict[int, int] = {}
    for sid, c in chain.coeffs.items():
        faces = cx.simplices[chain.dim][sid].faces
        for j, fid in enumerate(faces):
            out[fid] = out.get(fid, 0) + (c if j % 2 == 0 else -c)
    return Chain(chain.dim - 1, out)


def standard_simplex_complex(n: int) -> DeltaComplex:
    """The full n-simplex with all of its faces, vertices 0..n."""
    from itertools import combinations

    ids: dict[tuple[int, ...], int] = {}
    levels: list[list[Simplex]] = []
    for d in range(n + 1):
        level = []
        for verts in combinations(range(n + 1), d + 1):
            ids[verts] = len(level)
            faces = tuple(
                ids[verts[:j] + verts[j + 1 :]] for j in range(d + 1) if d > 0
            )
            level.append(Simplex(verts, faces))
        levels.append(level)
    return DeltaComplex(levels)


def sphere_complex() -> tuple[DeltaComplex, Chain]:
    """The boundary of a 3-simplex and its fundamental 2-cycle.

    Four distinct vertices: the multi-vertex companion to the one-vertex
    surface models, needed when a product evaluation requires generic
    values along cells that repeat a factor vertex.
    """
    cx = standard_simplex_complex(3)
    cx = DeltaComplex(cx.simplices[:3])
    coeffs = {}
    from itertools import combinations

    triples = list(combinations(range(4), 3))
    for sid, verts in enumerate(triples):
        omitted = next(v for v in range(4) if v not in verts)
        coeffs[sid] = 1 if omitted % 2 == 0 else -1
    return cx, Chain(2, coeffs)


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

        vertices = [Simplex((0,), ())]
        n_edges = 6 * g - 3
        edges = [Simplex((0, 0), (0, 0)) for _ in range(n_edges)]
        triangles = []
        coeffs = {}
        for i in range(1, n_sides - 1):
            if forward(i):
                faces = (side_edge(i), dd(i + 1), dd(i))
                coeffs[len(triangles)] = 1
            else:
                faces = (side_edge(i), dd(i), dd(i + 1))
                coeffs[len(triangles)] = -1
            triangles.append(Simplex((0, 0, 0), faces))
        self.fundamental = Chain(2, coeffs)
        super().__init__([vertices, edges, triangles])


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


def admissible_paths(p: int, q: int) -> list[GridChain]:
    """Monotone lattice paths (0,0) -> (p,q) with unit steps only."""
    return [
        c
        for c in _covering_chains(p, q)
        if all(b[0] - a[0] + b[1] - a[1] == 1 for a, b in zip(c, c[1:]))
    ]


def path_sign(path: GridChain) -> int:
    """(-1)^area under the path; the lower-edge path is positive."""
    area = 0
    for a, b in zip(path, path[1:]):
        if b[0] == a[0] + 1 and b[1] == a[1]:
            area += a[1]
    return -1 if area % 2 else 1


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
    indexed by admissible paths.  A face lies over an earlier cell pair or
    a shorter chain of the same one, so one pass in that order reads every
    face id off the chain's template.
    """

    def __init__(self, left: DeltaComplex, right: DeltaComplex):
        self.left, self.right = left, right
        dims = range(left.dimension + right.dimension + 1)
        self._ids: dict[ProductKey, int] = {}
        self._keys_by_dim: list[list[ProductKey]] = [[] for _ in dims]
        levels: list[list[Simplex]] = [[] for _ in dims]
        ids, nright = self._ids, right.num_vertices
        for p, level in enumerate(left.simplices):
            for q, level2 in enumerate(right.simplices):
                templates = _chain_templates(p, q)
                for sid, s in enumerate(level):
                    for sid2, s2 in enumerate(level2):
                        for chain, template in templates:
                            faces = tuple(
                                ids[p - r, s.faces[i] if r else sid,
                                    q - c, s2.faces[j] if c else sid2, rest]
                                for r, c, i, j, rest in template
                            )
                            key, d = (p, sid, q, sid2, chain), len(chain) - 1
                            ids[key] = len(levels[d])
                            self._keys_by_dim[d].append(key)
                            verts = (s.vertices[i] * nright + s2.vertices[j] for i, j in chain)
                            levels[d].append(Simplex(tuple(verts), faces))
        super().__init__(levels)

    def id_of(self, p: int, sid: int, q: int, sid2: int, chain: GridChain) -> int:
        return self._ids[(p, sid, q, sid2, chain)]

    def cell_info(self, dim: int, sid: int) -> ProductKey:
        """(p, sid, q, sid2, chain) of a product simplex."""
        return self._keys_by_dim[dim][sid]


def product_complex(left: DeltaComplex, right: DeltaComplex) -> ProductComplex:
    return ProductComplex(left, right)


def product_chain(px: ProductComplex, z: Chain, zp: Chain) -> Chain:
    """The cross product of chains: sum over admissible paths with signs."""
    n, k = z.dim, zp.dim
    paths = admissible_paths(n, k)
    out: dict[int, int] = {}
    for sid, c in z.coeffs.items():
        for sid2, c2 in zp.coeffs.items():
            for path in paths:
                pid = px.id_of(n, sid, k, sid2, path)
                out[pid] = out.get(pid, 0) + c * c2 * path_sign(path)
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
        _, front = cx.subsimplex(p + q, sid, range(p + 1))
        _, back = cx.subsimplex(p + q, sid, range(p, p + q + 1))
        total += c * alpha(front) * beta(back)
    return total
