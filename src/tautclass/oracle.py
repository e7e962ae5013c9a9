"""Independent floating-point Euler-number oracle via rotation numbers.

Each generator matrix acts on the circle of directions (R^2 minus 0
modulo positive scalars).  Choosing a lift of each circle map to the
real line, the lifted product of commutators covers the identity, so it
is translation by an integer multiple of a full turn; that integer is
the Euler number of the flat plane bundle.  Lift bookkeeping uses
adaptive angle tracking: an arc is subdivided until every image step
subtends less than pi/2, which is sound because the circle maps are
degree-one diffeomorphisms.
"""

from __future__ import annotations

import math
from typing import Sequence

TWO_PI = 2.0 * math.pi
# how far a translation number may lie from the nearest integer
INTEGRALITY_TOL = 0.1


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


def _angle_image(m, t: float) -> float:
    a, b, c, d = m
    x, y = math.cos(t), math.sin(t)
    return math.atan2(c * x + d * y, a * x + b * y)


_BASE_STEP = TWO_PI / 1024.0
_MIN_STEP = 1e-13


def _principal(x: float) -> float:
    while x > math.pi:
        x -= TWO_PI
    while x <= -math.pi:
        x += TWO_PI
    return x


class _CircleLift:
    """A chosen lift of the direction-circle action of one matrix.

    Continuous angle tracking: an arc is halved whenever the principal
    image increment exceeds pi/2 or runs backwards (the maps are
    increasing, so a visibly negative increment signals aliasing).
    """

    def __init__(self, m):
        self.m = m
        self.base = _angle_image(m, 0.0)  # value at 0, in (-pi, pi]

    def __call__(self, t: float) -> float:
        turns = math.floor(t / TWO_PI)
        frac = t - TWO_PI * turns
        value = self.base
        pos = 0.0
        current = self.base
        while frac - pos > 1e-15:
            step = min(_BASE_STEP, frac - pos)
            while True:
                target = min(pos + step, frac)
                nxt = _angle_image(self.m, target)
                delta = _principal(nxt - current)
                if abs(delta) <= math.pi / 2 and delta > -1e-6:
                    break
                step /= 2.0
                if step < _MIN_STEP:
                    raise OracleError("angle tracking failed to converge")
            value += delta
            current = nxt
            pos = target
        return value + TWO_PI * turns


class _InverseLift:
    """The functional inverse of a chosen lift, realized by a corrected lift."""

    def __init__(self, lift: _CircleLift):
        self.raw = _CircleLift(_mat_inv(lift.m))
        # correction so that self(lift(t)) = t
        self.offset = -round(self.raw(lift(0.0)) / TWO_PI) * TWO_PI

    def __call__(self, t: float) -> float:
        return self.raw(t) + self.offset


def rotation_euler(
    matrices: Sequence[Sequence[Sequence[float]]],
    relator_tol: float = 1e-9,
) -> int:
    """Euler number of a flat plane bundle over a genus-g surface.

    matrices = (A1, B1, ..., Ag, Bg) with positive determinants; the
    product of commutators must be the identity after determinant
    normalization.  Fails loudly when the relator residual or the
    distance of the translation number from an integer exceeds the
    tolerances.  The rounding error of the relator product grows with
    prod |M_i| |M_i^-1| = prod |M_i|^2 over the normalized generators, so
    ``relator_tol`` bounds the residual divided by prod |M_i|_F^2 / 2, a
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
    tol = min(relator_tol * math.prod(sum(x * x for x in m) / 2 for m in norm), INTEGRALITY_TOL)
    if residual > tol:
        raise OracleError(f"relator residual {residual:.3e} exceeds {tol:.1e}")
    lifts = {}
    for j in range(g):
        for idx in (2 * j, 2 * j + 1):
            fwd = _CircleLift(norm[idx])
            lifts[idx] = (fwd, _InverseLift(fwd))
    # word of the relator, leftmost letter applied last
    word: list[tuple[int, int]] = []
    for j in range(g):
        word += [(2 * j, 0), (2 * j + 1, 0), (2 * j, 1), (2 * j + 1, 1)]
    values = []
    for t0 in (0.0, 1.0, 2.5):
        t = t0
        for idx, inv in reversed(word):
            t = lifts[idx][inv](t)
        values.append((t - t0) / TWO_PI)
    m = round(values[0])
    for val in values:
        if abs(val - m) > INTEGRALITY_TOL:
            raise OracleError(
                f"translation number {val} is not within {INTEGRALITY_TOL} of {m}"
            )
    return m
