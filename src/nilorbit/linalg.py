"""Exact rational linear algebra on small dense matrices.

Vectors are tuples of ``fractions.Fraction`` and matrices lists of row
vectors.  Every decision (rank, membership, kernels) is exact, on rows scaled
to integers: a ``Subspace`` keeps integer rows, and ``Fraction`` rows only
make up its ``basis``, read where a basis is printed or is an answer.

``Echelon`` is the one elimination loop.  It is fraction-free and runs over
integer rows (``rank_profile``: ranks and jump labels at points; ``rref``:
every canonical ``Subspace``, kernel and inverse; ``Subspace.contains``,
by its step) and over ``Poly`` rows (symbolic labels and direction families),
through ``echelon_profile``.  A row is normalised as it enters and after each
step, so a ``Poly`` row is eliminated with integer coefficients throughout.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

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


class Echelon:
    """Rows in echelon form over an integral domain, one per pivot column, grown a row at a time.

    A row is reduced by the accepted rows until its leftmost nonzero column c
    is not a pivot column, and then becomes column c's row.  Entries are only
    multiplied, subtracted and tested for zero.  A row goes through
    ``normalise``, which divides out a common factor (by default the gcd of
    an integer row; ``polys.strip_row`` for ``Poly`` rows), as it enters and
    after each step (``_eliminate``), so no accepted row keeps a factor that
    later products would carry.
    """

    __slots__ = ("normalise", "rows")

    def __init__(self, normalise: Callable[[list], list] | None = None):
        self.normalise = normalise or _primitive
        self.rows: dict[int, tuple[list, list[int]]] = {}  # pivot column -> (row, its support), as accepted

    def _reduce(self, raw: Iterable) -> tuple[int | None, list]:
        row = self.normalise(list(raw))
        c = next((k for k, a in enumerate(row) if a), None)
        while c in self.rows:
            row = _eliminate(row, *self.rows[c], c, self.normalise)
            c = next((k for k in range(c + 1, len(row)) if row[k]), None)
        return c, row

    def add(self, raw: Iterable) -> int | None:
        """Insert a row; the pivot column it takes, or None if it lies in the span."""
        c, row = self._reduce(raw)
        if c is not None:
            self.rows[c] = (row, [k for k in range(c, len(row)) if row[k]])
        return c

    def contains(self, raw: Iterable) -> bool:
        return self._reduce(raw)[0] is None


RrefAccumulator = Echelon  # the name under which bench/tracer.py spans this class's methods


def _eliminate(row: list, prow: Sequence, support: Iterable[int], c: int, normalise: Callable[[list], list]) -> list:
    """lead * row - row[c] * prow, zero at c, where lead = prow[c] and prow is zero off `support`."""
    lead, b = prow[c], row[c]
    if lead != 1:  # a Poly is never equal to 1, so Poly rows are always multiplied
        row = [lead * a if a else a for a in row]
    for k in support:
        row[k] -= b * prow[k]
    return normalise(row)


def echelon_profile(
    rows: Iterable[Sequence], ncols: int, normalise: Callable[[list], list]
) -> tuple[tuple[int | None, ...], list[list]]:
    """Pivot row of each column, None where there is none, and the pivot rows as reduced.

    The rows go into one ``Echelon`` in order.  A reduced row differs from
    the original by earlier rows only, so for every leading block
    rank A[:k, :j] = #{c < j : pivot row of c < k}: the result is the rank
    profile matrix of A (Dumas, Pernet & Sultan, JSC 2017), and the accepted
    rows, in row order, are a basis of the row space.
    """
    ech = Echelon(normalise)
    pivot_row: list[int | None] = [None] * ncols
    for r, row in enumerate(rows):
        c = ech.add(row)
        if c is not None:
            pivot_row[c] = r
    return tuple(pivot_row), [row for row, _ in ech.rows.values()]


def _primitive(row: list[int]) -> list[int]:
    """An integer row divided by the gcd of its entries."""
    content = gcd(*row)
    return [a // content for a in row] if content > 1 else row


def integer_row(v: Sequence[Fraction]) -> list[int]:
    """A rational vector times the lcm of its denominators."""
    nonzero = [(k, a) for k, a in enumerate(v) if a is not ZERO and a]  # the shared ZERO skips Fraction.__bool__
    den = lcm(*[a.denominator for _, a in nonzero])
    row = [0] * len(v)
    for k, a in nonzero:
        row[k] = a.numerator * (den // a.denominator)
    return row


def rank_profile(rows: Iterable[Sequence[Fraction]], ncols: int) -> tuple[int | None, ...]:
    """Pivot row of each column of a rational matrix, its rows scaled to integers."""
    return echelon_profile(map(integer_row, rows), ncols, _primitive)[0]


def rank(rows: Iterable[Sequence[Fraction]], ncols: int) -> int:
    return sum(1 for r in rank_profile(rows, ncols) if r is not None)


def rref(rows: Iterable[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Canonical echelon rows of the span of integer rows, and their pivot columns.

    The rows of one ``Echelon``, in pivot order, clear each pivot column above
    them, last first; each, primitive and made positive at its pivot, is then
    its reduced row echelon row times the lcm of that row's denominators.
    """
    ech = Echelon()
    for row in rows:
        ech.add(row)
    pivots = sorted(ech.rows)
    out = [ech.rows[p][0] for p in pivots]
    for i in range(len(out) - 1, 0, -1):
        p, prow = pivots[i], out[i]
        support = [k for k in range(p, len(prow)) if prow[k]]
        for j in range(i):
            if out[j][p]:
                out[j] = _eliminate(out[j], prow, support, p, _primitive)
    return tuple(tuple(row) if row[p] > 0 else tuple(-a for a in row) for p, row in zip(pivots, out)), tuple(pivots)


def kernel_basis(rows: Iterable[Sequence[Fraction]], ncols: int) -> "Subspace":
    """The right kernel {v : A v = 0} of a rational matrix as a Subspace, from one echelon form."""
    return _kernel([integer_row(r[::-1]) for r in rows], ncols)


def _kernel(reversed_rows: Iterable[Sequence[int]], ncols: int) -> "Subspace":
    """The right kernel of integer rows given last column first, as a Subspace.

    Reduced in that order, each row's pivot q is its last nonzero entry, so the
    kernel vector d e_f - sum (d / row[q]) row[f] e_q of a free column f, d the lcm
    of the row[q] with row[f] != 0, is zero before f and at the other free columns.
    """
    rows, pivots = rref(reversed_rows)
    reduced = {ncols - 1 - p: row[::-1] for row, p in zip(rows, pivots)}
    free = tuple(f for f in range(ncols) if f not in reduced)
    kernel = []
    for f in free:
        d = lcm(*[row[q] for q, row in reduced.items() if row[f]])
        v = [0] * ncols
        v[f] = d
        for q, row in reduced.items():
            v[q] = -(d // row[q]) * row[f]
        kernel.append(tuple(_primitive(v)))
    return Subspace(ncols, tuple(kernel), free)


def invert(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a square rational matrix; raises ValueError if singular."""
    n = len(rows)
    aug = [list(r) + [ONE if i == j else ZERO for j in range(n)] for i, r in enumerate(rows)]
    red = Subspace.from_vectors(2 * n, aug)  # of rank n, with pivots 0..n-1 iff invertible
    if red.pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return [list(r[n:]) for r in red.basis]


def transpose(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    return [list(col) for col in zip(*rows)] if rows else []


class Subspace(Record):
    """A subspace of Q^n, stored as its RREF rows (``basis``) each scaled to primitive integers."""

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int, rows: tuple[tuple[int, ...], ...], pivots: tuple[int, ...]):
        setfield(self, "ambient_dim", ambient_dim)
        setfield(self, "rows", rows)
        setfield(self, "pivots", pivots)

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence[Fraction]]) -> "Subspace":
        return cls(ambient_dim, *rref(map(integer_row, vectors)))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.zero(ambient_dim).perp()  # the kernel of no rows: the unit rows

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[Vec, ...]:
        """The RREF rows over ``Fraction``, each row divided by its pivot entry; built on each call."""
        return tuple(tuple(Fraction(a, row[p]) if a else ZERO for a in row) for row, p in zip(self.rows, self.pivots))

    def contains(self, v: Sequence[Fraction]) -> bool:
        row = integer_row(v)  # reduced by each row with the Echelon step
        for prow, p in zip(self.rows, self.pivots):
            if row[p]:
                row = _eliminate(row, prow, range(p, self.ambient_dim), p, _primitive)
        return not any(row)

    def perp(self) -> "Subspace":
        """Annihilator in the dual coordinates: {w : <w, v> = 0 for all v here}."""
        return _kernel([r[::-1] for r in self.rows], self.ambient_dim)
