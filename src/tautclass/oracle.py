"""Independent floating-point Euler-number oracle via rotation numbers.

Each generator matrix acts on the circle of directions (R^2 minus 0
modulo positive scalars).  Choosing a lift of each circle map to the
real line, the lifted product of commutators covers the identity, so it
is translation by an integer multiple of a full turn; that integer is
the Euler number of the flat plane bundle (Milnor 1958; Wood 1971).
Every lift is in closed form, from the Iwasawa split m = R(theta) U with
U upper triangular of positive diagonal: U keeps each half-plane, so its
lift fixing 0 moves no point by pi or more, and the lift of m is that
lift followed by translation by theta.  The inverse lift is the same
formula for U^-1; no lift is stepped or corrected.
"""

from __future__ import annotations

import math
from typing import Sequence

TWO_PI = 2.0 * math.pi
# how far a translation number may lie from the nearest integer
INTEGRALITY_TOL = 0.1
# the relator residual allowed per unit of prod |M_i|_F^2 / 2 (see rotation_euler)
RELATOR_TOL = 1e-9


class OracleError(ArithmeticError):
    """Relator or integrality residual out of tolerance."""


def _normalize(mat: Sequence[Sequence[float]]) -> tuple[float, float, float, float]:
    (a, b), (c, d) = mat
    det = a * d - b * c
    if det <= 0:
        raise OracleError(f"matrix determinant must be positive, got {det}")
    r = math.sqrt(det)
    return (a / r, b / r, c / r, d / r)


def _mat_mul(m1, m2):
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
    )


def _mat_inv(m):
    a, b, c, d = m  # det 1
    return (d, -b, -c, a)


def _triangular_lift(u, t: float) -> float:
    """The lift fixing 0 of u = [[r, s], [0, 1/r]], r > 0, given as (r, s, 1/r).

    u fixes the directions 0 and pi and keeps each open half-plane, so the
    image of t lies within pi of t and the wrapped difference is continuous.
    """
    r, s, r_inv = u
    x, y = math.cos(t), math.sin(t)
    return t + math.remainder(math.atan2(r_inv * y, r * x + s * y) - t, TWO_PI)


class _CircleLift:
    """The lift t -> F_U(t) + theta of the circle action of m = R(theta) U,
    where F_U is the lift of U fixing 0."""

    def __init__(self, m):
        a, b, c, d = m  # det 1
        self.theta = math.atan2(c, a)
        r = math.hypot(a, c)
        s = (a * b + c * d) / r
        # U = R(-theta) m and its inverse, both det 1
        self.u, self.u_inv = (r, s, 1.0 / r), (1.0 / r, -s, r)

    def __call__(self, t: float) -> float:
        return _triangular_lift(self.u, t) + self.theta

    def inverse(self, s: float) -> float:
        return _triangular_lift(self.u_inv, s - self.theta)


def rotation_euler(matrices: Sequence[Sequence[Sequence[float]]]) -> int:
    """Euler number of a flat plane bundle over a genus-g surface.

    matrices = (A1, B1, ..., Ag, Bg) with positive determinants; the
    product of commutators must be the identity after determinant
    normalization.  Fails loudly when the relator residual or the
    distance of the translation number from an integer exceeds the
    tolerances.  The rounding error of the relator product grows with
    prod |M_i| |M_i^-1| = prod |M_i|^2 over the normalized generators, so
    ``RELATOR_TOL`` bounds the residual divided by prod |M_i|_F^2 / 2, a
    scale that is at least 1 for a determinant-1 matrix; a residual past
    ``INTEGRALITY_TOL`` fails whatever the scale, as no float relator that
    far from the identity says anything about its translation number.
    """
    if len(matrices) % 2 or not matrices:
        raise ValueError("need matrices A1, B1, ..., Ag, Bg")
    norm = [_normalize(m) for m in matrices]
    relator = (1.0, 0.0, 0.0, 1.0)
    g = len(norm) // 2
    for j in range(g):
        a, b = norm[2 * j], norm[2 * j + 1]
        relator = _mat_mul(relator, _mat_mul(_mat_mul(a, b), _mat_mul(_mat_inv(a), _mat_inv(b))))
    residual = max(
        abs(relator[0] - 1), abs(relator[1]), abs(relator[2]), abs(relator[3] - 1)
    )
    tol = min(RELATOR_TOL * math.prod(sum(x * x for x in m) / 2 for m in norm), INTEGRALITY_TOL)
    if residual > tol:
        raise OracleError(f"relator residual {residual:.3e} exceeds {tol:.1e}")
    lifts = [_CircleLift(m) for m in norm]
    # word of the relator, leftmost letter applied last
    word: list[tuple[int, bool]] = []
    for j in range(g):
        word += [(2 * j, False), (2 * j + 1, False), (2 * j, True), (2 * j + 1, True)]
    values = []
    for t0 in (0.0, 1.0, 2.5):
        t = t0
        for idx, inv in reversed(word):
            t = lifts[idx].inverse(t) if inv else lifts[idx](t)
        values.append((t - t0) / TWO_PI)
    m = round(values[0])
    for val in values:
        if abs(val - m) > INTEGRALITY_TOL:
            raise OracleError(
                f"translation number {val} is not within {INTEGRALITY_TOL} of {m}"
            )
    return m
