"""Symbol calculus on generic projective configurations.

A generic (n+1)-tuple of points of the positive projective space
P_+^{n-1} carries a canonical symbol: a leading sign plus n coefficient
signs, rewritten into the free basis {a+ : 0 <= a <= floor(n/2)}
(ascending a).  For even n its image under P_+ -> P, a sign, is the
symbol of the tuple in the plain projective space P^{n-1}.  Alternating
face sums of these symbols are the quantities whose vanishing the
test-suite checks wholesale.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Iterable, Literal, Sequence

from ._kernels import maximal_minors_int, minors_int
from ._value import Value
from .exactmath import Scalar, clear_denominators, sign
from .witt import WittElement

Point = Sequence[Scalar]


class GenericityError(ValueError):
    """A point tuple failed the genericity required by a symbol."""


class UPlusSymbol(Value):
    """Canonical coefficients on the basis {a+ : a = 0..floor(n/2)}."""

    __slots__ = ("n", "coefficients")

    def __init__(self, n: int, coefficients: tuple[int, ...]):
        if len(coefficients) != n // 2 + 1:
            raise ValueError("coefficient vector has wrong length")
        self._set(n=n, coefficients=coefficients)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coefficients)

    def to_json(self) -> list[int]:
        return list(self.coefficients)

    def __str__(self):
        parts = []
        for a, c in enumerate(self.coefficients):
            if c:
                parts.append(f"{c}*{a}+" if c != 1 else f"{a}+")
        return " + ".join(parts) if parts else "0"


def subset_minors(points: Sequence[Point], n: int) -> dict[tuple[int, ...], Scalar]:
    """det of every n-subset of the lifts (ascending indices), in one sweep.

    Each lift is first made integral by its own positive denominator lcm
    (``clear_denominators``; integer parts over Q(sqrt(d))) and the minors
    come from the ``minors_int`` kernel.  That multiplies each minor by a
    positive number, which changes no sign, no vanishing, and no square
    class of a product in which every lift occurs an even number of
    times.
    """
    lifts = [clear_denominators(p)[0] for p in points]
    return dict(zip(combinations(range(len(points)), n), minors_int(lifts, n)))


def maximal_minors(points: Sequence[Point]) -> list[Scalar]:
    """D_j = det of the n+1 lifts in K^n without lift j, for j = 0..n.

    Every symbol of the tuple is read from these (see ``subset_minors`` for
    the positive rescaling of the lifts).
    """
    return maximal_minors_int([clear_denominators(p)[0] for p in points])


def face_minors(minors: dict, face: Sequence[int]) -> list[Scalar]:
    """The maximal minors of the sub-tuple ``face`` (ascending indices), from ``subset_minors``."""
    return [minors[face[:j] + face[j + 1 :]] for j in range(len(face))]


@cache
def _plus_class(signs: tuple[int, ...]) -> tuple[int, int]:
    """(a, e): a generic tuple in P_+^{n-1} has symbol e * (a+), by the signs of D_0..D_n.

    Each of the 2^(n+1) sign vectors is read once.  With v_n = sum a_i v_i,
    Cramer gives a_i = (-1)^(n-i+1) D_i / D_n: the raw symbol has leading
    sign s = sgn D_n and a plus signs among the a_i.  Rule order (the two
    relations commute, which tests assert): first flip a negative leading
    sign via a- = -(a+), then fold a from above the midpoint via
    a+ = -(n+1-a)+.  For odd n the midpoint class is read as 0 (e = 0); it
    is measured to be zero in the coinvariants at n = 1 and 3.
    """
    if 0 in signs:
        raise GenericityError("a maximal minor is zero")
    n = len(signs) - 1
    lead = signs[n]
    a = sum((-1) ** (n - i + 1) * signs[i] == lead for i in range(n))
    if n % 2 and 2 * a == n + 1:
        return 0, 0
    if a > n // 2:
        return n + 1 - a, -lead
    return a, lead


def witt_symbol_from_minors(minors: Sequence[Scalar]) -> WittElement:
    """<det(u,v) det(v,w) det(w,u)> = <-D_0 D_1 D_2> for a triple in Q^2."""
    d = -minors[0] * minors[1] * minors[2]
    if not d:
        raise GenericityError("a maximal minor is zero")
    return WittElement.symbol(d)


def u_symbol(points: Sequence[Point]) -> int:
    """Orbit symbol of a generic (n+1)-tuple in P^{n-1}, n even, as its coefficient on [+].

    Equals sgn(det(v_1,...,v_n) * a_1 * ... * a_n), where v_{n+1} = sum
    a_i v_i: the one-term ``symbol_sum``.
    """
    n = len(points) - 1
    if any(len(p) != n for p in points):
        raise ValueError(f"need n+1 points of P^{n - 1}")
    return symbol_sum("P", n, [(maximal_minors(points), 1)])


def uplus_symbol(points: Sequence[Point]) -> UPlusSymbol:
    """Canonical symbol of a generic (n+1)-tuple in P_+^{n-1}: the one-term ``symbol_sum``.

    Independent of the choice of positive-scalar lifts.
    """
    n = len(points) - 1
    if any(len(p) != n for p in points):
        raise ValueError(f"need n+1 points of P_+^{n - 1}")
    return symbol_sum("P+", n, [(maximal_minors(points), 1)])


def witt_triple_symbol(u: Point, v: Point, w: Point) -> WittElement:
    """<det(u,v) det(v,w) det(w,u)> for pairwise independent u,v,w in Q^2, else GenericityError."""
    return witt_symbol_from_minors(maximal_minors([u, v, w]))


Mode = Literal["P", "P+", "witt"]


def symbol_sum(
    mode: Mode,
    n: int,
    terms: Iterable[tuple[Sequence[Scalar], int]],
):
    """sum c * symbol(minors) over the (minors, c) pairs, in the group of ``mode``.

    The minors are the maximal minors of lifts in K^n.  The symbol is
    defined on generic tuples only: in every mode a zero minor raises
    GenericityError("a maximal minor is zero"), and no caller checks
    first.  A UPlusSymbol (mode "P+"): each term's canonical (a, e), one
    lookup by the signs of its minors, is folded into integer
    coefficients c_a.  An int (mode "P", n even), the coefficient on the
    generator [+] of P's group Z [+]: the same fold pushed forward by
    P_+ -> P (``pushforward``).  A WittElement ("witt", n = 2), summed in
    one pass.
    """
    if mode == "witt":
        return WittElement.combination((witt_symbol_from_minors(minors), c) for minors, c in terms)
    if mode not in ("P", "P+"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "P" and n % 2:
        raise ValueError("the coefficient group is zero for odd n")
    coeffs = [0] * (n // 2 + 1)
    for minors, c in terms:
        a, e = _plus_class(tuple(map(sign, minors)))
        coeffs[a] += e * c
    if mode == "P":
        return pushforward(coeffs)
    return UPlusSymbol(n, tuple(coeffs))


def pushforward(coefficients: Sequence[int]) -> int:
    """The P_+ -> P image of sum_a c_a (a+): a+ goes to (-1)^a [+], so sum_a (-1)^a c_a."""
    return sum((-1) ** a * c for a, c in enumerate(coefficients))


def boundary_symbol_sum(points: Sequence[Point], mode: Mode):
    """Alternating sum of face symbols of a generic (n+2)-tuple.

    Returns an integer coefficient (mode "P"), a UPlusSymbol (mode
    "P+"), or a WittElement (mode "witt", n = 2).  The boundary
    relations are trivial, so the result is always zero; computing it
    lets tests assert exactly that.  One ``subset_minors`` sweep, then
    ``boundary_sum_from_minors``, whose fold refuses a non-generic tuple:
    each n-subset minor is a maximal minor of two faces.
    """
    n = len(points) - 2
    if any(len(p) != n for p in points):
        raise ValueError("ambient dimension mismatch")
    return boundary_sum_from_minors(subset_minors(points, n), n, mode)


def boundary_sum_from_minors(minors: dict, n: int, mode: Mode):
    """``boundary_symbol_sum`` of an (n+2)-tuple read from its ``subset_minors``."""
    if mode == "witt" and n != 2:
        raise ValueError("witt mode needs 2-dimensional lifts")
    everything = tuple(range(n + 2))
    faces = (
        (face_minors(minors, everything[:j] + everything[j + 1 :]), (-1) ** j)
        for j in everything
    )
    return symbol_sum(mode, n, faces)


def homological_core_check(c: UPlusSymbol) -> bool:
    """True iff sum_a c_a * (n - 2a + 1) = 0.

    This is membership in the kernel of the induced boundary map, the
    subgroup where all values on cycles must land.
    """
    n = c.n
    return sum(ca * (n - 2 * a + 1) for a, ca in enumerate(c.coefficients)) == 0
