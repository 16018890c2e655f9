"""Exact rational linear algebra on small dense matrices.

All vectors are tuples of ``fractions.Fraction`` and all decisions (rank,
membership, kernels) are exact.  Matrices are lists of row vectors.

There are two elimination routines.  ``RrefAccumulator`` builds the
canonical reduced row echelon form, from which come every ``Subspace``
basis, membership test (``residue``), kernel and inverse.  ``rank_profile``
is a fraction-free pass that only finds the pivot row of each column; it
gives ranks and jump labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(e) for e in entries)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def sub_vec(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    s = ZERO
    for a, b in zip(u, v):
        if a and b:
            s += a * b
    return s


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


def residue(rows: Sequence[Sequence[Fraction]], pivots: Sequence[int], v: Sequence[Fraction]) -> list[Fraction]:
    """v minus its combination of RREF rows with the given pivot columns; zero iff v is in their span."""
    w = list(v)
    for row, p in zip(rows, pivots):
        c = w[p]
        if c:
            for k in range(p, len(w)):
                if row[k]:
                    w[k] -= c * row[k]
    return w


class RrefAccumulator:
    """Mutable reduced-row-echelon accumulator for incremental span building."""

    def __init__(self, ncols: int, rows: Iterable[Sequence[Fraction]] = ()):
        self.ncols = ncols
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []
        for r in rows:
            self.add(r)

    def reduce(self, v: Sequence[Fraction]) -> list[Fraction]:
        """Residue of v modulo the current row space."""
        return residue(self.rows, self.pivots, v)

    def contains(self, v: Sequence[Fraction]) -> bool:
        return is_zero_vec(self.reduce(v))

    def add(self, v: Sequence[Fraction]) -> bool:
        """Insert v; returns True if it enlarged the span."""
        w = self.reduce(v)
        p = next((k for k, a in enumerate(w) if a), None)
        if p is None:
            return False
        inv = ONE / w[p]
        w = [a * inv for a in w]
        # clear the new pivot column in the existing rows
        for row in self.rows:
            c = row[p]
            if c:
                for k in range(p, self.ncols):
                    if w[k]:
                        row[k] -= c * w[k]
        at = next((idx for idx, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(at, w)
        self.pivots.insert(at, p)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def snapshot(self) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
        return tuple(tuple(r) for r in self.rows), tuple(self.pivots)


def kernel_basis(rows: Iterable[Sequence[Fraction]], ncols: int) -> "Subspace":
    """The right kernel {v : A v = 0} as a Subspace."""
    acc = RrefAccumulator(ncols, rows)
    out = []
    for f in sorted(set(range(ncols)) - set(acc.pivots)):
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p in zip(acc.rows, acc.pivots):
            v[p] = -row[f]
        out.append(v)
    return Subspace.from_vectors(ncols, out)


def rank_profile(rows: Iterable[Sequence[Fraction]], ncols: int) -> tuple[int | None, ...]:
    """Pivot row of each column in one elimination pass, None where there is none.

    Rows are taken in order; each is reduced by the pivot rows already
    accepted until its leftmost nonzero column c is not yet a pivot column,
    and then becomes column c's pivot row.  A reduced row differs from the
    original by earlier rows only, so for every leading block
    rank A[:k, :j] = #{c < j : pivot row of c < k}: the result is the rank
    profile matrix of A (Dumas, Pernet & Sultan, JSC 2017).  Each row is
    scaled to integers and eliminated fraction-free, with accepted pivot
    rows divided by their content.
    """
    pivot_row: list[int | None] = [None] * ncols
    accepted: dict[int, tuple[int, list[tuple[int, int]]]] = {}  # column -> (lead, tail)
    for r, raw in enumerate(rows):
        den = lcm(*[a.denominator for a in raw])
        row = [a.numerator * (den // a.denominator) for a in raw]
        c = next((k for k in range(ncols) if row[k]), None)
        while c is not None and pivot_row[c] is not None:
            lead, tail = accepted[c]
            b = row[c]
            if lead != 1:
                row = [lead * a for a in row]
            row[c] = 0
            for k, v in tail:
                row[k] -= b * v
            c = next((k for k in range(c + 1, ncols) if row[k]), None)
        if c is None:
            continue
        content = gcd(*row)
        if content != 1:
            row = [a // content for a in row]
        pivot_row[c] = r
        accepted[c] = (row[c], [(k, row[k]) for k in range(c + 1, ncols) if row[k]])
    return tuple(pivot_row)


def rank(rows: Iterable[Sequence[Fraction]], ncols: int) -> int:
    return sum(1 for r in rank_profile(rows, ncols) if r is not None)


def mat_vec(rows: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vec:
    return tuple(dot(r, v) for r in rows)


def invert(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a square rational matrix; raises ValueError if singular."""
    n = len(rows)
    aug = [list(r) + [ONE if i == j else ZERO for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = RrefAccumulator(2 * n, aug).snapshot()
    if list(pivots[:n]) != list(range(n)) or len(red) != n:
        raise ValueError("matrix is singular")
    return [list(r[n:]) for r in red]


def transpose(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    return [list(col) for col in zip(*rows)] if rows else []


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n stored as canonical RREF rows."""

    ambient_dim: int
    basis: tuple[Vec, ...]
    pivots: tuple[int, ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence[Fraction]]) -> "Subspace":
        return cls(ambient_dim, *RrefAccumulator(ambient_dim, vectors).snapshot())

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(ambient_dim, [unit_vec(ambient_dim, i) for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[Fraction]) -> bool:
        return is_zero_vec(residue(self.basis, self.pivots, v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors(self.ambient_dim, list(self.basis) + list(other.basis))

    def perp(self) -> "Subspace":
        """Annihilator in the dual coordinates: {w : <w, v> = 0 for all v here}."""
        return kernel_basis(self.basis, self.ambient_dim)

    def __contains__(self, v: Sequence[Fraction]) -> bool:
        return self.contains(v)
