"""Sparse polynomials with rational coefficients, and fraction-free elimination.

A coefficient is an ``int`` or a ``Fraction``; the arithmetic mixes them
freely.  Two consumers: the symbolic generic-stratum mode works with
multivariate polynomials in the dual coordinates, and the limit machinery
works with univariate polynomials in the family parameter.  Their rows are
eliminated by ``linalg.echelon_profile``, which never divides by polynomials;
its row normaliser ``strip_row`` returns primitive integer rows (``int``
coefficients with gcd 1, no monomial factor common to the whole row), so the
elimination runs in ``int`` arithmetic.  Divisions (``udivmod``, ``ugcd``)
go through ``Fraction``, so no coefficient is ever a float.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from .records import Record, setfield

Mono = tuple[int, ...]
Coeff = int | Fraction


class Poly(Record):
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: tuple[tuple[Mono, Coeff], ...]):
        setfield(self, "nvars", nvars)
        setfield(self, "terms", terms)  # sorted by monomial, nonzero coefficients

    @classmethod
    def make(cls, nvars: int, data: dict[Mono, Coeff]) -> "Poly":
        items = tuple(sorted((m, c) for m, c in data.items() if c != 0))
        return cls(nvars, items)

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, ())

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return cls.zero(nvars)
        return cls(nvars, (((0,) * nvars, c),))

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, ((mono, Fraction(1)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m, _ in self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        data = dict(self.terms)
        for m, c in other.terms:
            data[m] = data.get(m, 0) + c
        return Poly.make(self.nvars, data)

    def __sub__(self, other: "Poly") -> "Poly":
        data = dict(self.terms)
        for m, c in other.terms:
            data[m] = data.get(m, 0) - c
        return Poly.make(self.nvars, data)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other: "Poly") -> "Poly":
        data: dict[Mono, Coeff] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(map(add, m1, m2))
                data[m] = data.get(m, 0) + c1 * c2
        return Poly.make(self.nvars, data)

    def __rmul__(self, c) -> "Poly":
        """A rational times the polynomial (the left operand is not a Poly)."""
        return self.scale(c)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, tuple((m, c * a) for m, a in self.terms))

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms:
            v = c
            for e, x in zip(m, point):
                if e:
                    v *= Fraction(x) ** e
            total += v
        return total


def strip_row(row: list[Poly]) -> list[Poly]:
    """A row divided by its rational content and by the monomial common to all its terms.

    The result is a primitive integer row: every coefficient an ``int``, the
    gcd of all of them 1, and no variable dividing every entry.  Shifting all
    monomials by one exponent vector keeps their order, so no entry is resorted.
    """
    terms = [t for p in row for t in p.terms]
    if not terms:
        return row
    num = 0
    den = 1
    for _, c in terms:
        num = gcd(num, c.numerator)
        den = lcm(den, c.denominator)
    shift = tuple(map(min, zip(*[m for m, _ in terms])))
    moved = any(shift)
    return [
        Poly(
            p.nvars,
            tuple(
                (tuple(map(sub, m, shift)) if moved else m, c.numerator * (den // c.denominator) // num)
                for m, c in p.terms
            ),
        )
        for p in row
    ]


# ---------------------------------------------------------------------------
# univariate helpers (nvars == 1)


def upoly(coeffs: Sequence) -> Poly:
    """Univariate polynomial from an ascending coefficient list."""
    return Poly.make(1, {(k,): Fraction(c) for k, c in enumerate(coeffs)})

def ucoeffs(p: Poly) -> list[Coeff]:
    if p.nvars != 1:
        raise ValueError("not univariate")
    deg = p.degree()
    out = [Fraction(0)] * (deg + 1 if deg >= 0 else 0)
    for (e,), c in p.terms:
        out[e] = c
    return out


def udivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division of univariate polynomials over Q."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    ra = ucoeffs(a)
    rb = ucoeffs(b)
    q = [Fraction(0)] * max(len(ra) - len(rb) + 1, 0)
    while len(ra) >= len(rb) and ra:
        if ra[-1] == 0:
            ra.pop()
            continue
        shift = len(ra) - len(rb)
        f = Fraction(ra[-1]) / rb[-1]
        q[shift] += f
        for k, c in enumerate(rb):
            ra[shift + k] -= f * c
        ra.pop()
    return upoly(q), upoly(ra)


def udiv_exact(a: Poly, b: Poly) -> Poly:
    q, r = udivmod(a, b)
    if not r.is_zero:
        raise ArithmeticError("division is not exact")
    return q


def ugcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q[t]."""
    while not b.is_zero:
        _, r = udivmod(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    lead = ucoeffs(a)[-1]
    return a.scale(Fraction(1) / lead)


def udet(matrix: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a univariate polynomial matrix (Bareiss, exact divisions)."""
    n = len(matrix)
    if n == 0:
        return Poly.const(1, 1)
    a = [list(row) for row in matrix]
    sign = 1
    prev = Poly.const(1, 1)
    for k in range(n - 1):
        if a[k][k].is_zero:
            swap = next((r for r in range(k + 1, n) if not a[r][k].is_zero), None)
            if swap is None:
                return Poly.zero(1)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = udiv_exact(num, prev)
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign == 1 else -d
