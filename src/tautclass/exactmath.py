"""Exact ordered-field arithmetic and fraction-free linear algebra.

Scalars are Python ``int``/``Fraction`` (the rationals) or ``QuadExt``
(a real quadratic extension Q(sqrt(d)), embedded with sqrt(d) > 0).
Every sign is decided exactly; there is no floating point anywhere in
this module.  Every determinant and rank, over either field, goes
through the fraction-free Bareiss kernels of ``_kernels`` after
``clear_denominators`` has made the entries integral: ints over Q,
``QuadExt`` with integer parts over Q(sqrt(d)), where ``//`` is exact
division in Z[sqrt(d)].
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence, Union

from ._kernels import det_int, maximal_minors_int, rank_int
from .witt import trial_division

Rational = Union[int, Fraction]
Scalar = Union[int, Fraction, "QuadExt"]


class QuadExt:
    """An element a + b*sqrt(d) of Q(sqrt(d)), d a squarefree integer > 1.

    Ordered by the real embedding with sqrt(d) > 0.  Immutable.  d is not checked
    here: ``QuadraticField`` decides it once.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Rational, b: Rational, d: int):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("QuadExt is immutable")

    def _coerce(self, other) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError("mixed quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(o.a - self.a, o.b - self.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a, self.d
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.a * o.a - o.b * o.b * o.d
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return self * QuadExt(o.a / norm, -o.b / norm, self.d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __floordiv__(self, other):
        """Exact division in Z[sqrt(d)]: the quotient must have integer parts.

        The Bareiss kernels divide only where this holds.
        """
        if other == 1:
            return self
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        q = self / o
        if q.a.denominator != 1 or q.b.denominator != 1:
            raise ValueError(f"{self} is not divisible by {other} in Z[sqrt({self.d})]")
        return q

    def __rfloordiv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o // self

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.d)

    def __float__(self):
        return float(self.a) + float(self.b) * self.d**0.5

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, d={self.d})"

    def __str__(self):
        return render_scalar(self)


def _is_squarefree(n: int) -> bool:
    """For 1 < n < 10**18: trial divisors up to 10**6 leave a cofactor of at most two
    primes, so n is squarefree iff no divisor divides twice and that cofactor is 1 or
    not a perfect square."""
    factors, rest = trial_division(n, 10**6)
    return max(factors.values(), default=1) == 1 and (rest == 1 or isqrt(rest) ** 2 != rest)


def sign(x: Scalar) -> int:
    """Exact sign in {-1, 0, +1} under the real embedding.

    For a + b*sqrt(d) the sign is decided from the signs of a and b and
    the exact comparison of a**2 with b**2 * d.
    """
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    a, b = x.a, x.b
    sa, sb = sign(a), sign(b)
    if sa * sb >= 0:  # a part is zero, or both have one sign
        return sa or sb
    # opposite component signs: compare |a| with |b|*sqrt(d) exactly
    return sa if sign(a * a - b * b * x.d) > 0 else sb


def exact_div(a: Scalar, b: Scalar) -> Scalar:
    """a / b staying in Q or Q(sqrt(d)); int/int promotes to Fraction."""
    if isinstance(a, int):
        return Fraction(a, b) if isinstance(b, int) else Fraction(a) / b
    return a / b


class RationalField:
    """The field Q.  Elements are ints and Fractions."""

    name = "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class QuadraticField:
    """The real quadratic field Q(sqrt(d)), d squarefree > 1."""

    def __init__(self, d: int):
        if not 1 < d < 10**18 or not _is_squarefree(d):
            raise ValueError(f"d must be a squarefree integer with 1 < d < 10**18, got {d}")
        self.d = d
        self.name = f"Q(sqrt({d}))"

    def from_pair(self, a: Rational, b: Rational) -> QuadExt:
        return QuadExt(a, b, self.d)

    def __eq__(self, other):
        return isinstance(other, QuadraticField) and other.d == self.d

    def __hash__(self):
        return hash(("quad", self.d))

    def __repr__(self):
        return f"QuadraticField({self.d})"


QQ = RationalField()

Field = Union[RationalField, QuadraticField]


def field_from_json(obj) -> Field:
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"quad"} and type(obj["quad"]) is int:
        return QuadraticField(obj["quad"])
    raise ValueError(f"bad field spec {obj!r}")


_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_SQRT_RE = re.compile(
    r"^(?P<a>[+-]?\d+(?:/\d+)?)?"
    r"(?P<op>[+-])?"
    r"(?:(?P<b>\d+(?:/\d+)?)\*)?sqrt\((?P<d>\d+)\)$"
)


def parse_scalar(s: str, field: Field = QQ) -> Scalar:
    """Parse an element of ``field``: "p/q", or "a+b*sqrt(d)" in Q(sqrt(d)).

    Plain rationals embed into a quadratic field when one is supplied; a
    sqrt literal is refused outside its own field.
    """
    s = s.strip().replace(" ", "")
    if _RAT_RE.match(s):
        q = Fraction(s)
        return field.from_pair(q, 0) if isinstance(field, QuadraticField) else q
    m = _SQRT_RE.match(s)
    if not m:
        raise ValueError(f"cannot parse scalar literal {s!r}")
    d = int(m.group("d"))
    a = Fraction(m.group("a")) if m.group("a") else Fraction(0)
    b = Fraction(m.group("b")) if m.group("b") else Fraction(1)
    if m.group("op") == "-":
        b = -b
    elif m.group("op") is None and m.group("a") is not None:
        raise ValueError(f"missing sign between terms in {s!r}")
    if not isinstance(field, QuadraticField) or d != field.d:
        raise ValueError(f"sqrt({d}) literal in field {field.name}")
    return QuadExt(a, b, d)


def render_scalar(x: Scalar) -> str:
    """Inverse of parse_scalar, canonical form."""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    if x.b == 0:
        return str(x.a)
    b = f"{abs(x.b)}*sqrt({x.d})"
    op = "-" if x.b < 0 else "+"
    if x.a == 0:
        return b if op == "+" else f"-{b}"
    return f"{x.a}{op}{b}"


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def clear_denominators(row: Sequence[Scalar]) -> tuple[list[Scalar], int]:
    """(m * row, m) for the least positive integer m making every entry integral.

    Integral means an int over Q and a QuadExt with integer parts over
    Q(sqrt(d)): the entries the Bareiss kernels take.
    """
    if all(type(x) is int for x in row):
        return list(row), 1
    dens = [
        lcm(x.a.denominator, x.b.denominator) if isinstance(x, QuadExt) else x.denominator
        for x in row
    ]
    mult = lcm(*dens)
    return [
        _rescale(x, mult) if isinstance(x, QuadExt) else x.numerator * (mult // k)
        for x, k in zip(row, dens)
    ], mult


def determinant(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Exact determinant of a square matrix given as rows."""
    return Matrix(rows).det()


def rank(rows: Sequence[Sequence[Scalar]], ncols: int | None = None) -> int:
    """Exact rank of a matrix given as rows."""
    if not rows:
        return 0
    ncols = len(rows[0]) if ncols is None else ncols
    return rank_int([clear_denominators(row)[0] for row in rows], ncols)


def solve_square(
    columns: Sequence[Sequence[Scalar]], target: Sequence[Scalar]
) -> list[Scalar]:
    """Solve M x = target for the invertible M with these columns; a test oracle."""
    det = determinant(columns)  # Cramer's rule on the transpose, whose rows they are
    if not det:
        raise ValueError("singular system")
    return [
        exact_div(determinant([*columns[:j], target, *columns[j + 1 :]]), det)
        for j in range(len(columns))
    ]


class LinearGenericityError(ValueError):
    """A tuple of vectors failed the required genericity."""


def unique_relation(vectors: Sequence[Sequence[Scalar]]) -> tuple[list[Scalar], bool]:
    """The projectively unique linear relation among n+1 vectors in K^n.

    Returns (coefficients, zero_sum).  The coefficients satisfy
    sum(c_i * v_i) = 0 with all c_i nonzero; they are normalized to
    sum 1 when the coefficient sum is nonzero, otherwise the first
    coefficient is normalized to 1 and zero_sum is True.

    Raises LinearGenericityError unless every n of the vectors are
    linearly independent.  A test oracle: the package reads relations
    from integer minors (``flatbundles._relation_coefficients``).
    """
    n = len(vectors) - 1
    if n < 1 or any(len(v) != n for v in vectors):
        raise ValueError("need n+1 vectors in K^n")
    coeffs = [
        (-1) ** i * determinant([*vectors[:i], *vectors[i + 1 :]]) for i in range(n + 1)
    ]
    if not all(coeffs):
        raise LinearGenericityError("vectors are not linearly generic")
    total = sum(coeffs)
    return [exact_div(c, total or coeffs[0]) for c in coeffs], not total


def is_linearly_generic(vectors: Sequence[Sequence[Scalar]], n: int) -> bool:
    """True iff every subsequence of length <= n is linearly independent; a test oracle."""
    k = len(vectors)
    if any(len(v) != n for v in vectors):
        raise ValueError("ambient dimension mismatch")
    if k > n:  # enough to check all subsequences of length exactly n
        return all(determinant([vectors[i] for i in s]) for s in combinations(range(k), n))
    return rank(list(vectors), n) == k


class Matrix:
    """Immutable exact matrix over Q or Q(sqrt(d)).

    An object fills its integral record (cleared rows, multiplier, their
    determinant) and its scaled inverse once, on first use; ``==``,
    hashing and repr read only the rows.
    """

    __slots__ = ("rows", "_integral", "_inverse")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "_integral", None)
        object.__setattr__(self, "_inverse", None)
        if self.rows and any(len(r) != len(self.rows[0]) for r in self.rows):
            raise ValueError("ragged matrix")

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def det(self) -> Scalar:
        _, m, d = self.cleared()
        return d if m == 1 else exact_div(d, m**self.nrows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.rows))
        return Matrix([[dot(row, col) for col in ot] for row in self.rows])

    def apply(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(dot(row, vec) for row in self.rows)

    def cleared(self) -> tuple["Matrix", int, Scalar]:
        """(a, m, det(a)) for a square matrix: a = m * self integral, m the least positive integer."""
        if self._integral is None:
            if self.nrows != self.ncols:
                raise ValueError("non-square matrix")
            entries, m = clear_denominators([x for row in self.rows for x in row])
            it = iter(entries)
            a = [[next(it) for _ in row] for row in self.rows]
            object.__setattr__(self, "_integral", (Matrix(a), m, det_int(a)))
        return self._integral

    def scaled_inverse(self) -> tuple["Matrix", int]:
        """(M, lam): M = lam * self^-1 integral, lam a positive integer.

        With self = a / m and a integral, self^-1 = m c adj(a) / N, where
        det(a) c = N is a rational integer (c = 1 over Q, the conjugate of
        det(a) over Q(sqrt(d))); lam = |N| less the factor M shares with it.
        """
        if self._inverse is None:
            object.__setattr__(self, "_inverse", self._scaled_inverse())
        return self._inverse

    def _scaled_inverse(self) -> tuple["Matrix", int]:
        n = self.nrows
        a, m, d = self.cleared()
        if not d:
            raise ValueError("singular matrix")
        c, norm = 1, d
        if isinstance(d, QuadExt):
            c, norm = d.conjugate(), d.a**2 - d.b**2 * d.d
        f = m * c * sign(norm)
        adj = []
        for i in range(n):
            # adj(a)[i][j] = (-1)^(i+j) * det(a without row j and column i)
            minors = maximal_minors_int([r[:i] + r[i + 1 :] for r in a.rows])
            adj.append([f * ((-1) ** (i + j) * x) for j, x in enumerate(minors)])
        lam = abs(norm).numerator
        g = gcd(lam, *(p.numerator for row in adj for x in row for p in _parts(x)))
        return Matrix([[_rescale(x, 1, g) for x in row] for row in adj]), lam // g

    def inverse(self) -> "Matrix":
        """self^-1, carrying its scaled inverse (the least integral multiple of self)."""
        m, lam = self.scaled_inverse()
        inv = m.scaled(Fraction(1, lam))
        object.__setattr__(inv, "_inverse", self.cleared()[:2])
        return inv

    def scaled(self, c: Scalar) -> "Matrix":
        return Matrix([[c * x for x in row] for row in self.rows])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def ratio_to(self, other: "Matrix") -> tuple[Scalar, Scalar] | None:
        """(x, y) with y * self == x * other, or None.

        x and y are the entries at the first nonzero entry y of other (for
        an invertible other it lies in row 0).  Nothing is divided, so
        integral input gives an integral pair.
        """
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return None
        pairs = [
            (x, y) for r1, r2 in zip(self.rows, other.rows) for x, y in zip(r1, r2)
        ]
        x0, y0 = next(((x, y) for x, y in pairs if y), (None, None))
        if y0 is None or any(x * y0 != x0 * y for x, y in pairs):
            return None
        return x0, y0

    def __repr__(self):
        body = "; ".join(
            " ".join(render_scalar(x) for x in row) for row in self.rows
        )
        return f"Matrix[{body}]"

def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def _parts(x: Scalar) -> tuple[Rational, ...]:
    return (x.a, x.b) if isinstance(x, QuadExt) else (x,)


def _rescale(x: Scalar, num: int, den: int = 1) -> Scalar:
    """x * num / den for a result with integral parts; an int for rational x."""
    if isinstance(x, QuadExt):
        if num == den:
            return x
        return QuadExt(x.a * num / den, x.b * num / den, x.d)
    return x.numerator * num // (x.denominator * den)


def vec_is_zero(v: Sequence[Scalar]) -> bool:
    return all(not x for x in v)
