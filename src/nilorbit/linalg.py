"""Exact rational linear algebra on small dense matrices.

All vectors are tuples of ``fractions.Fraction`` and all decisions (rank,
membership, kernels) are exact.  Matrices are lists of row vectors.

``RrefAccumulator`` builds the canonical reduced row echelon form, from
which come every ``Subspace`` basis, membership test (``residue``), kernel
and inverse.  ``echelon_profile`` is the one fraction-free rank-profile
loop, over integer rows (``rank_profile``: ranks and jump labels at points)
and over ``Poly`` rows (symbolic labels and direction families).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .records import Record, setfield

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
        w = [a * inv if a else ZERO for a in w]
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

    def snapshot(self) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
        return tuple(tuple(r) for r in self.rows), tuple(self.pivots)


def kernel_basis(rows: Iterable[Sequence[Fraction]], ncols: int) -> "Subspace":
    """The right kernel {v : A v = 0} as a Subspace, from one RREF.

    With A's columns reduced in reverse order, each row's pivot q is its last
    nonzero entry, so the kernel vector e_f - sum row[f] e_q of a free column f
    is zero before f and at every other free column: canonical RREF already.
    """
    acc = RrefAccumulator(ncols, (r[::-1] for r in rows))
    reduced = {ncols - 1 - p: row[::-1] for row, p in zip(acc.rows, acc.pivots)}
    free = tuple(f for f in range(ncols) if f not in reduced)
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for q, row in reduced.items():
            v[q] = -row[f]
        basis.append(tuple(v))
    return Subspace(ncols, tuple(basis), free)


def echelon_profile(
    rows: Iterable[Sequence], ncols: int, normalise: Callable[[list], list]
) -> tuple[tuple[int | None, ...], list[list]]:
    """Pivot row of each column, None where there is none, and the pivot rows as reduced.

    Rows are taken in order; each is reduced by the pivot rows already
    accepted until its leftmost nonzero column c is not yet a pivot column,
    and then becomes column c's pivot row.  A reduced row differs from the
    original by earlier rows only, so for every leading block
    rank A[:k, :j] = #{c < j : pivot row of c < k}: the result is the rank
    profile matrix of A (Dumas, Pernet & Sultan, JSC 2017), and the accepted
    rows, in row order, are a basis of the row space.  Entries come from an
    integral domain and are only multiplied, subtracted and tested for zero:
    a reduction step cross-multiplies by the pivot row and hands the result
    to ``normalise``, which divides out a common factor of the row.
    """
    pivot_row: list[int | None] = [None] * ncols
    accepted: dict[int, tuple[list, list[int]]] = {}  # column -> (row leading there, its support)
    for r, raw in enumerate(rows):
        row = list(raw)
        c = next((k for k in range(ncols) if row[k]), None)
        while c is not None and pivot_row[c] is not None:
            prow, support = accepted[c]
            lead, b = prow[c], row[c]
            row = [lead * a if a else a for a in row]
            for k in support:
                row[k] -= b * prow[k]
            row = normalise(row)
            c = next((k for k in range(c + 1, ncols) if row[k]), None)
        if c is None:
            continue
        pivot_row[c] = r
        accepted[c] = (row, [k for k in range(c, ncols) if row[k]])
    return tuple(pivot_row), [row for row, _ in accepted.values()]


def _primitive(row: list[int]) -> list[int]:
    """An integer row divided by the gcd of its entries."""
    content = gcd(*row)
    return [a // content for a in row] if content > 1 else row


def _integer_row(v: Sequence[Fraction]) -> list[int]:
    den = lcm(*[a.denominator for a in v])
    return [a.numerator * (den // a.denominator) for a in v]


def rank_profile(rows: Iterable[Sequence[Fraction]], ncols: int) -> tuple[int | None, ...]:
    """Pivot row of each column of a rational matrix, its rows scaled to integers."""
    return echelon_profile(map(_integer_row, rows), ncols, _primitive)[0]


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


class Subspace(Record):
    """A linear subspace of Q^n stored as canonical RREF rows."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: tuple[Vec, ...], pivots: tuple[int, ...]):
        setfield(self, "ambient_dim", ambient_dim)
        setfield(self, "basis", basis)
        setfield(self, "pivots", pivots)

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

    def perp(self) -> "Subspace":
        """Annihilator in the dual coordinates: {w : <w, v> = 0 for all v here}."""
        return kernel_basis(self.basis, self.ambient_dim)

    def __contains__(self, v: Sequence[Fraction]) -> bool:
        return self.contains(v)
