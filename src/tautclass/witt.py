"""The Witt group of Q with a complete, exact equality decision.

Elements are integer combinations of square classes of Q (squarefree
integers), kept as sorted (rep, multiplicity) terms; arithmetic merges
terms and never expands a multiplicity.

Zero-testing uses the splitting W(Q) = Z + sum_p W(F_p) by the signature
and the second residue maps d_p (Milnor-Husemoller, *Symmetric Bilinear
Forms*, Ch. IV): an element is zero iff its signature is 0 and d_p of it
is 0 at every prime p dividing a term.  For a squarefree rep r divisible
by p, d_p<r> = <r/p mod p>, and each residue group has a simple test:
W(F_2) = Z/2, W(F_p) = Z/4 for p = 3 mod 4 and Z/2 x Z/2 for p = 1 mod 4.
The cost is linear in the number of terms.

The classical invariants of the associated diagonal form (dimension,
signature, discriminant, Hasse invariants at the relevant places with the
convention eps(q) = prod_{i<j} (a_i, a_j)_p) are also reported, from one
factorization per term and one pass over the terms per place.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Union

from .errors import FactorizationError

Rational = Union[int, Fraction]

DEFAULT_FACTOR_BOUND = 10**6


class SenselessSymbolError(ValueError):
    """The symbol <0> has no meaning in the group of square classes."""


def trial_division(n: int, bound: int) -> tuple[dict[int, int], int]:
    """({p: exponent}, cofactor) of n > 0 divided by 2, then odd p <= bound, while p*p <= n.

    The cofactor is 1 or a prime if the divisors passed its square root;
    otherwise it has no prime factor <= bound and is left uncertified.
    """
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n and p <= bound:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    return factors, n


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n > 0 by trial division up to DEFAULT_FACTOR_BOUND."""
    bound = DEFAULT_FACTOR_BOUND
    out, n = trial_division(n, bound)
    if n > 1:
        root = isqrt(n)
        if root * root == n:
            # even exponents never influence a square class, so the root
            # need not be certified prime here
            out[root] = out.get(root, 0) + 2
        elif n <= bound * bound:
            # all factors <= bound were removed, so a composite here would
            # have a factor <= sqrt(n) <= bound: n is prime
            out[n] = out.get(n, 0) + 1
        else:
            raise FactorizationError(f"cofactor of {n.bit_length()} bits exceeds bound {bound}")
    return out


def square_class(q: Rational) -> int:
    """The unique squarefree integer in q * (Q*)^2.  Errors on q = 0."""
    if q == 0:
        raise SenselessSymbolError("the symbol <0> is senseless")
    n = abs(q.numerator * q.denominator)
    out = 1
    for p, e in _factorize(n).items():
        if e % 2:
            out *= p
    return out if q > 0 else -out


def _val_unit(n: int, p: int) -> tuple[int, int]:
    """p-adic valuation and unit part of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _legendre(u: int, p: int) -> int:
    """Legendre symbol of an integer prime to the odd prime p."""
    return -1 if pow(u % p, (p - 1) // 2, p) == p - 1 else 1


def _check_place(place) -> None:
    if place == "inf":
        return
    if not isinstance(place, int) or place < 2 or trial_division(place, isqrt(place))[0]:
        raise ValueError(f"place must be a prime or 'inf', got {place!r}")


def _hilbert(a: int, b: int, place) -> int:
    """Hilbert symbol of nonzero integers at a place already checked."""
    if place == "inf":
        return -1 if (a < 0 and b < 0) else 1
    p = place
    alpha, u = _val_unit(a, p)
    beta, v = _val_unit(b, p)
    if p != 2:
        out = 1
        if (alpha * beta) % 2 and p % 4 == 3:
            out = -out
        if beta % 2 and _legendre(u, p) < 0:
            out = -out
        if alpha % 2 and _legendre(v, p) < 0:
            out = -out
        return out
    eps_u = (u % 4 - 1) // 2  # 0 for u=1 mod 4, 1 for u=3 mod 4
    eps_v = (v % 4 - 1) // 2
    omega_u = 0 if u % 8 in (1, 7) else 1
    omega_v = 0 if v % 8 in (1, 7) else 1
    exponent = eps_u * eps_v + alpha * omega_v + beta * omega_u
    return -1 if exponent % 2 else 1


def hilbert_symbol(a: Rational, b: Rational, place) -> int:
    """The Hilbert symbol (a, b) at a finite prime or at infinity.

    place is a prime number or the string "inf".
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    _check_place(place)
    # n/d and n*d differ by the square d^2, and the symbol only sees square classes
    return _hilbert(a.numerator * a.denominator, b.numerator * b.denominator, place)


class WittElement:
    """An element of W(Q): a finite Z-combination of square classes."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[int, int]] = ()):
        acc: dict[int, int] = {}
        for rep, mult in terms:
            rep = square_class(rep)  # <0> is senseless: square_class raises
            acc[rep] = acc.get(rep, 0) + mult
        object.__setattr__(
            self,
            "_terms",
            tuple(sorted((r, m) for r, m in acc.items() if m != 0)),
        )

    @classmethod
    def _canonical(cls, terms: tuple[tuple[int, int], ...]) -> "WittElement":
        """An element from terms already canonical: squarefree reps, sorted,
        distinct, with nonzero multiplicities."""
        w = object.__new__(cls)
        object.__setattr__(w, "_terms", terms)
        return w

    def __setattr__(self, *args):
        raise AttributeError("WittElement is immutable")

    @classmethod
    def symbol(cls, q: Rational) -> "WittElement":
        """The generator <q>, canonicalized to its square class."""
        return cls._canonical(((square_class(q), 1),))

    @classmethod
    def zero(cls) -> "WittElement":
        return cls._canonical(())

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        return self._terms

    @classmethod
    def combination(cls, pairs: Iterable[tuple["WittElement", int]]) -> "WittElement":
        """sum c * w over the (w, c) pairs: one sort, where ``+`` re-sorts per term."""
        acc: dict[int, int] = {}
        for w, c in pairs:
            for rep, mult in w._terms:
                acc[rep] = acc.get(rep, 0) + c * mult
        return cls._canonical(tuple(sorted((r, m) for r, m in acc.items() if m)))

    def __add__(self, other: "WittElement") -> "WittElement":
        acc = dict(self._terms)
        for rep, mult in other._terms:
            acc[rep] = acc.get(rep, 0) + mult
        return WittElement._canonical(tuple(sorted((r, m) for r, m in acc.items() if m)))

    def __neg__(self) -> "WittElement":
        return WittElement._canonical(tuple((r, -m) for r, m in self._terms))

    def __sub__(self, other: "WittElement") -> "WittElement":
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, WittElement):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("WittElement equality is up to Witt equivalence; unhashable")

    def dimension(self) -> int:
        return sum(abs(m) for _, m in self._terms)

    def signature(self) -> int:
        return sum(m if r > 0 else -m for r, m in self._terms)

    def discriminant(self) -> int:
        """Square class of the product of the diagonal entries."""
        out = 1
        for rep, mult in self._terms:
            if mult % 2:
                # out * entry / gcd^2 is the squarefree class of their product
                entry = rep if mult > 0 else -rep
                g = gcd(out, entry)
                out = (out // g) * (entry // g)
        return out

    def _residues(self) -> tuple[Iterable[int], bool]:
        """The primes dividing a term, and whether every second residue at
        them vanishes, from one factorization of each term."""
        # prime -> [sum of m, sum of m over terms whose residue is a non-square]
        residues: dict[int, list[int]] = {}
        for rep, mult in self._terms:
            for p in _factorize(abs(rep)):
                acc = residues.setdefault(p, [0, 0])
                acc[0] += mult
                if p != 2 and _legendre(rep // p, p) < 0:
                    acc[1] += mult
        # W(F_p) = Z/4 for p = 3 mod 4, and <u> = chi_p(u) <1> there; W(F_2) = Z/2
        # and W(F_p) = Z/2 x Z/2 (rank, discriminant) for p = 1 mod 4
        vanish = all(
            (total - 2 * nonsquare) % 4 == 0 if p % 4 == 3 else total % 2 == nonsquare % 2 == 0
            for p, (total, nonsquare) in residues.items()
        )
        return residues.keys(), vanish

    def relevant_places(self) -> list:
        return sorted({2, *self._residues()[0]})

    def hasse_invariant(self, p) -> int:
        """prod_{i<j} (a_i, a_j)_p over the diagonal entries, in one pass.

        p is a prime or "inf" that the caller certified: it is not checked.
        By bimultiplicativity an entry e repeated k times, after entries of
        square class d, contributes (d, e)_p^k * (e, e)_p^C(k, 2)."""
        out, d = 1, 1
        for rep, mult in self._terms:
            e, k = (rep, mult) if mult > 0 else (-rep, -mult)
            if k % 2:
                if _hilbert(d, e, p) < 0:
                    out = -out
                g = gcd(d, e)
                d = (d // g) * (e // g)
            if (k * (k - 1) // 2) % 2 and _hilbert(e, e, p) < 0:
                out = -out
        return out

    def is_zero(self) -> bool:
        """Exact Witt-triviality over Q: the signature and every second
        residue vanish."""
        return self.signature() == 0 and self._residues()[1]

    def invariants(self) -> dict:
        """Signature, discriminant and Hasse data, for reports."""
        primes, vanish = self._residues()
        return {
            "dimension": self.dimension(),
            "signature": self.signature(),
            "discriminant": self.discriminant(),
            "hasse": {str(p): self.hasse_invariant(p) for p in sorted({2, *primes})},
            "is_zero": self.signature() == 0 and vanish,
        }

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{m}*<{r}>" for r, m in self._terms)

    __str__ = to_text

    def to_json(self) -> list[list[int]]:
        return [[r, m] for r, m in self._terms]

    def __repr__(self):
        return f"WittElement({self.to_text()})"
