"""Bar-complex group cohomology for the projective line over Q.

The explicit 2-cocycle sends a homogeneous triple (g0, g1, g2) and a
basepoint vector u to the square-class symbol of
det(g0 u, g1 u) det(g1 u, g2 u) det(g2 u, g0 u); coincident projective
points yield the zero element.  Matrices represent classes up to sign,
and every evaluation is invariant under changing lifts, which tests
assert.  Surface representations produce bar 2-cycles, read from the
relator word alone, that match the fundamental cycles of the one-vertex
surface complexes: the bridge from group cohomology to the bundles.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .configs import GenericityError, witt_triple_symbol
from .exactmath import Matrix, Scalar, vec_is_zero
from .witt import WittElement

Vector = Sequence[Scalar]
Cocycle = Callable[[Matrix, Matrix, Matrix, Vector], WittElement]
# a bar 2-chain: an integer combination of homogeneous triples of PSL(2,Q) matrices
BarChain2 = list[tuple[int, tuple[Matrix, Matrix, Matrix]]]


def witt_cocycle(g0: Matrix, g1: Matrix, g2: Matrix, u: Vector) -> WittElement:
    """The Witt-valued group 2-cocycle at a homogeneous triple.

    Zero when any two of the three points [g_i u] coincide; otherwise
    the triple symbol of the three image vectors.
    """
    if vec_is_zero(u):
        raise ValueError("basepoint vector must be nonzero")
    pts = [g.apply(tuple(u)) for g in (g0, g1, g2)]
    try:
        return witt_triple_symbol(*pts)
    except GenericityError:  # a pair of the (nonzero) points is proportional
        return WittElement.zero()


def cocycle_identity_residual(gs: Sequence[Matrix], u: Vector) -> WittElement:
    """Alternating sum of ``witt_cocycle`` over the faces of a 4-tuple.

    Always Witt-zero; computing it lets tests assert exactly that, in
    particular through configurations with one coincident point pair.
    """
    if len(gs) != 4:
        raise ValueError("need a quadruple")
    faces = ([g for j, g in enumerate(gs) if j != i] for i in range(4))
    return WittElement.combination((witt_cocycle(*face, u), (-1) ** i) for i, face in enumerate(faces))


def evaluate_bar(cocycle: Cocycle, chain: BarChain2, u: Vector) -> WittElement:
    """Linear extension of a cocycle over a bar 2-chain."""
    return WittElement.combination((cocycle(*triple, u), c) for c, triple in chain)


def surface_cycle_from_rep(genus: int, matrices: Sequence[Matrix]) -> BarChain2:
    """Bar 2-cycle of an SL surface representation, on the fundamental cycle's triangles.

    Triangle i = 1..4g-2 is (I, W_i, W_{i+1}), W_k the prefixes of the word
    A1 B1 A1^-1 B1^-1 ..., swapped with coefficient -1 at a backward side.
    """
    if genus < 1 or len(matrices) != 2 * genus:
        raise ValueError(f"genus {genus} needs 2g >= 2 matrices, got {len(matrices)}")
    for m in matrices:
        if m.det() != 1:
            raise ValueError(f"a generator has determinant {m.det()}, not 1")
    w = [Matrix.identity(matrices[0].nrows)]
    for a, b in zip(matrices[::2], matrices[1::2]):
        for x in (a, b, a.inverse(), b.inverse()):
            w.append(w[-1] @ x)
    if w[-1] != w[0]:
        raise ValueError(f"relator is not the identity: {w[-1]!r}")
    return [
        (1, (w[0], w[i], w[i + 1])) if i % 4 in (0, 1) else (-1, (w[0], w[i + 1], w[i]))
        for i in range(1, 4 * genus - 1)
    ]
