"""Bar-complex group cohomology for the projective line over Q.

The explicit 2-cocycle sends a homogeneous triple (g0, g1, g2) and a
basepoint vector u to the square-class symbol of
det(g0 u, g1 u) det(g1 u, g2 u) det(g2 u, g0 u); coincident projective
points yield the zero element.  Matrices represent classes up to sign,
and every evaluation is invariant under changing lifts, which tests
assert.  Surface representations produce bar 2-cycles matching the
fundamental cycles of the one-vertex surface complexes, which bridges
the group-cohomology picture and the bundle pipeline.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ._value import Value
from .complexes import surface_complex
from .configs import GenericityError, witt_triple_symbol
from .exactmath import Matrix, Scalar, vec_is_zero
from .flatbundles import bundle_from_surface_rep
from .witt import WittElement

Vector = Sequence[Scalar]
Cocycle = Callable[[Matrix, Matrix, Matrix, Vector], WittElement]


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


class BarChain2(Value):
    """An integer combination of homogeneous triples of PSL(2,Q) matrices."""

    __slots__ = ("terms",)

    def __init__(self, terms: list[tuple[int, tuple[Matrix, Matrix, Matrix]]]):
        self._set(terms=terms)


def evaluate_bar(cocycle: Cocycle, chain: BarChain2, u: Vector) -> WittElement:
    """Linear extension of a cocycle over a bar 2-chain."""
    return WittElement.combination((cocycle(*triple, u), c) for c, triple in chain.terms)


def surface_cycle_from_rep(genus: int, matrices: Sequence[Matrix]) -> BarChain2:
    """Bar 2-cycle of a surface representation.

    One homogeneous triple of corner-to-base transports per triangle of
    the one-vertex surface model, weighted by the fundamental cycle's
    coefficients.
    """
    sc, fundamental = surface_complex(genus)
    bundle = bundle_from_surface_rep(sc, list(matrices), tag="SL")
    terms = []
    for sid, c in sorted(fundamental.coeffs.items()):
        triple = tuple(bundle.transport_to_base(2, sid, i) for i in range(3))
        terms.append((c, triple))
    return BarChain2(terms)
