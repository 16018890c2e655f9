"""Nilpotent Lie algebras given by rational structure constants.

An algebra of dimension m stores only the brackets [X_i, X_j] for i < j as
sparse coefficient lists; [X_j, X_i] is minus the stored value.  A
coefficient is an ``int`` when it is integral and a ``Fraction`` otherwise
(`lie_algebra` stores it so), the same ``int | Fraction`` idiom as
``polys.Coeff``: equal values compare and hash equal and print alike, and
the integer rows of a ``Subspace`` meet an integral table in ``int``
arithmetic.  All series, flags, quotients and products are computed exactly
over the rationals.  The table is read for brackets only through the
per-index lists of `ad_lists`, by `ad_images`: every [X_c, v] at once,
touching only the stored entries at nonzero coordinates of v.
`row_brackets` pairs rows through their images.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

from .errors import MathError
from .linalg import (
    Echelon,
    Subspace,
    Vec,
    ZERO,
    integer_row,
    invert,
    kernel_basis,
    transpose,
)
from .records import Record, setfield

Coeff = int | Fraction  # an int when integral
# ((i, j, ((k, c), ...)), ...) with 0-based i < j and nonzero c only
BracketTable = tuple[tuple[int, int, tuple[tuple[int, Coeff], ...]], ...]
# ad[k] = [(c, sign, coeffs), ...]: the stored [X_k, X_c] is sign * coeffs
AdLists = list[list[tuple[int, int, tuple[tuple[int, Coeff], ...]]]]


class NonNilpotentError(MathError):
    """Lower central series stabilized at a nonzero term."""

    def __init__(self, stabilized: Subspace):
        self.stabilized = stabilized
        super().__init__(
            f"lower central series stabilizes at a nonzero subspace of dimension {stabilized.dim}"
        )


class NotAnIdealError(MathError):
    """A quotient was requested by a subspace that is not an ideal."""

    def __init__(self, basis_name: str, member: Vec, escaped: Vec):
        self.basis_name = basis_name
        self.member = member
        self.escaped = escaped
        super().__init__(
            f"not an ideal: [{basis_name}, v] leaves the subspace for v = {member}"
        )


class Diagnostic(Record):
    __slots__ = ("kind", "message", "data")

    def __init__(self, kind: str, message: str, data: tuple = ()):
        setfield(self, "kind", kind)  # "malformed" | "jacobi" | "non_nilpotent"
        setfield(self, "message", message)
        setfield(self, "data", data)


class LieAlgebra(Record):
    __slots__ = ("dim", "basis_names", "brackets")

    def __init__(self, dim: int, basis_names: tuple[str, ...], brackets: BracketTable):
        setfield(self, "dim", dim)
        setfield(self, "basis_names", basis_names)
        setfield(self, "brackets", brackets)


def ad_lists(g: LieAlgebra) -> AdLists:
    """The bracket table listed by each basis index, in one pass over the table."""
    ad: AdLists = [[] for _ in range(g.dim)]
    for i, j, coeffs in g.brackets:
        ad[i].append((j, 1, coeffs))
        ad[j].append((i, -1, coeffs))
    return ad


def ad_images(ad: AdLists, v: Sequence[Coeff]) -> dict[int, tuple[tuple[int, Coeff], ...]]:
    """Every nonzero [X_c, v], keyed by c in increasing order, as its nonzero entries ((t, a), ...) in increasing t.

    An integer row of an integral table has integer images.
    """
    images: dict[int, dict[int, Coeff]] = {}  # sparse, so a zero image costs only its touched entries
    for k, x in enumerate(v):
        if x:
            for c, sign, coeffs in ad[k]:
                out = images.setdefault(c, {})
                f = x if sign < 0 else -x
                for t, a in coeffs:
                    y = out.get(t)
                    out[t] = f * a if y is None else y + f * a
    sparse = ((c, tuple(sorted((t, a) for t, a in w.items() if a))) for c, w in sorted(images.items()))
    return {c: w for c, w in sparse if w}


def row_brackets(ad: AdLists, rows: Sequence[Sequence[Coeff]]) -> BracketTable:
    """Every nonzero [rows[a], rows[b]], a < b, as a bracket-table entry (a, b, ((t, x), ...)).

    [rows[a], rows[b]] = sum of rows[a][c] [X_c, rows[b]]: each row's
    `ad_images` are taken once, and each pair reads them only at the nonzero
    entries of rows[a].  Sums that cancel to zero are left out.
    """
    images = [ad_images(ad, v) for v in rows[1:]]  # images[b - 1] is the image of rows[b]
    out = []
    for a, row in enumerate(rows):
        support = [(c, x) for c, x in enumerate(row) if x]
        for b, image in enumerate(images[a:], a + 1):
            terms = [(x, image[c]) for c, x in support if c in image]
            if len(terms) == 1:  # one image, already sparse and sorted
                x, w = terms[0]
                out.append((a, b, w if x == 1 else tuple((t, x * y) for t, y in w)))
            elif terms:
                acc: dict[int, Coeff] = {}
                for x, w in terms:
                    for t, y in w:
                        z = acc.get(t)
                        acc[t] = x * y if z is None else z + x * y
                w = tuple(sorted((t, y) for t, y in acc.items() if y))
                if w:
                    out.append((a, b, w))
    return tuple(out)


def _dense(m: int, coeffs) -> list[Coeff]:
    """A stored coefficient list ((k, c), ...) as a coordinate vector."""
    out: list[Coeff] = [0] * m
    for k, c in coeffs:
        out[k] = c
    return out


def _coeff(c) -> Coeff:
    """A rational as it is stored in a bracket table: an int when integral."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def lie_algebra(dim: int, basis_names: Sequence[str], brackets: Mapping[tuple[int, int], Mapping[int, Coeff]]) -> LieAlgebra:
    """Build a LieAlgebra from a {(i, j): {k: c}} mapping, 0-based, i < j; integral c are stored as int."""
    entries = []
    for (i, j) in sorted(brackets):
        coeffs = tuple(sorted((k, _coeff(c)) for k, c in brackets[(i, j)].items() if c != 0))
        if coeffs:
            entries.append((i, j, coeffs))
    return LieAlgebra(dim, tuple(basis_names), tuple(entries))


def validate_algebra(g: LieAlgebra, *, with_series: bool = False):
    """Well-formedness, Jacobi and nilpotency diagnostics; empty iff valid.

    With `with_series`, the result is `(diagnostics, series)`: `series` is the
    `(chain, step)` of `lower_central_series` that the nilpotency check
    computed, or None where that check did not finish (a malformed table or a
    non-nilpotent algebra).  A command holding a valid algebra uses it instead
    of computing the series again.
    """
    diags, series = _diagnose(g)
    return (diags, series) if with_series else diags


def _diagnose(g: LieAlgebra) -> tuple[list[Diagnostic], tuple[list[Subspace], int] | None]:
    out: list[Diagnostic] = []
    m = g.dim
    if m < 0:
        return [Diagnostic("malformed", f"negative dimension {m}")], None
    if len(g.basis_names) != m:
        out.append(Diagnostic("malformed", f"{len(g.basis_names)} basis names for dimension {m}"))
    seen = set()
    for i, j, coeffs in g.brackets:
        if not (0 <= i < j < m):
            out.append(Diagnostic("malformed", f"bracket index pair ({i + 1}, {j + 1}) out of range", (i + 1, j + 1)))
            continue
        if (i, j) in seen:
            out.append(Diagnostic("malformed", f"duplicate bracket pair ({i + 1}, {j + 1})", (i + 1, j + 1)))
        seen.add((i, j))
        for k, c in coeffs:
            if not 0 <= k < m:
                out.append(Diagnostic("malformed", f"bracket target {k + 1} out of range in ({i + 1}, {j + 1})", (i + 1, j + 1, k + 1)))
    if out:
        return out, None

    # Jacobi: for a stored (a, b) and a third index c, [[X_a, X_b], X_c] is
    # one cyclic term of the sorted triple, negated when a < c < b; it is
    # the sum of [X_k, X_c] over the terms X_k of [X_a, X_b].
    ad = ad_lists(g)
    sums: dict[tuple[int, int, int], dict[int, Coeff]] = {}
    for a, b, w in g.brackets:
        for k, x in w:
            for c, sign, coeffs in ad[k]:
                if c == a or c == b:
                    continue
                s = sums.setdefault(tuple(sorted((a, b, c))), {})
                factor = -sign * x if a < c < b else sign * x
                for t, y in coeffs:
                    s[t] = s.get(t, 0) + factor * y  # int throughout on an integral table
    for i, j, k in sorted(t for t, s in sums.items() if any(s.values())):
        names = ", ".join(g.basis_names[t] for t in (i, j, k))
        out.append(Diagnostic("jacobi", f"Jacobi identity fails on ({names})", (i + 1, j + 1, k + 1)))
    try:
        series = lower_central_series(g)
    except NonNilpotentError as e:
        out.append(Diagnostic("non_nilpotent", str(e), tuple(e.stabilized.basis)))
        return out, None
    return out, series


def lower_central_series(g: LieAlgebra) -> tuple[list[Subspace], int]:
    """Chain g >= [g,g] >= [g,[g,g]] >= ... >= 0 and the number of nonzero terms."""
    m = g.dim
    ad = ad_lists(g)
    chain = [Subspace.full(m)]
    nxt = derived_subalgebra(g)
    while chain[-1].dim > 0:
        if nxt.dim == chain[-1].dim:
            raise NonNilpotentError(chain[-1])
        chain.append(nxt)
        images = dict.fromkeys(w for v in nxt.rows for w in ad_images(ad, v).values())  # each once
        nxt = Subspace.from_vectors(m, (_dense(m, w) for w in images))
    return chain, len(chain) - 1


def center(g: LieAlgebra) -> Subspace:
    """Joint kernel of all ad(X_k), whose nonzero rows are read off the `ad` lists."""
    m = g.dim
    rows: dict[tuple[int, int], list[Coeff]] = {}
    for k, entries in enumerate(ad_lists(g)):
        for c, sign, coeffs in entries:
            for t, a in coeffs:
                rows.setdefault((k, t), [0] * m)[c] += sign * a
    return kernel_basis(rows.values(), m)


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    """[g, g]: the span of the stored brackets [X_i, X_j]."""
    return Subspace.from_vectors(g.dim, (_dense(g.dim, coeffs) for _, _, coeffs in g.brackets))


class Flag(Record):
    """A Jordan-Hoelder flag: row j of `rows` spans g_j over g_{j-1}.

    Every prefix span must be an ideal; `pair_support` caches, for each pair
    a < b with a nonzero bracket, the stored-basis expansion of
    [rows[a], rows[b]] as a bracket-table entry (a, b, ((i, c), ...)), so that
    skew forms in flag coordinates are cheap to assemble.  `row_brackets`
    computes it from the rows; equality, hashing and the repr leave it out.
    """

    __slots__ = ("algebra", "rows", "pair_support")

    def __init__(self, algebra: LieAlgebra, rows: tuple[Vec, ...]):
        setfield(self, "algebra", algebra)
        setfield(self, "rows", rows)
        setfield(self, "pair_support", row_brackets(ad_lists(algebra), rows))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.algebra, self.rows) == (other.algebra, other.rows)

    def __hash__(self):
        return hash((self.algebra, self.rows))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(algebra={self.algebra!r}, rows={self.rows!r})"

    @property
    def dim(self) -> int:
        return self.algebra.dim


def jordan_holder_flag(g: LieAlgebra, chain: Sequence[Subspace] | None = None) -> Flag:
    """Deterministic Jordan-Hoelder flag refining the lower central series.

    Walking the series from its deepest nonzero member outward, each layer is
    filled with the echelon basis vectors of that member in pivot order, up to
    its dimension.  Each accepted row is checked at once: [g, rows[a]] must
    lie in the span of rows[0..a], so every prefix is an ideal.  `chain` is
    g's lower central series when the caller has it already.
    """
    if chain is None:
        chain, _ = lower_central_series(g)
    m = g.dim
    ad = ad_lists(g)
    acc = Echelon()
    ordered: list[Vec] = []
    for member in reversed(chain):
        for row, p in zip(member.rows, member.pivots):
            if len(ordered) == member.dim:
                break  # the accepted rows span the member
            if acc.add(row) is not None:
                ordered.append(tuple(Fraction(a, row[p]) if a else ZERO for a in row))  # its RREF row
                for c, w in ad_images(ad, row).items():
                    if not acc.contains(integer_row(_dense(m, w))):
                        raise RuntimeError(
                            f"flag prefix of dimension {len(ordered)} is not an ideal "
                            f"(bracket with {g.basis_names[c]} escapes)"
                        )
    if len(ordered) != g.dim:
        raise RuntimeError("flag construction failed to reach full dimension")
    return Flag(g, tuple(ordered))


def is_ideal(g: LieAlgebra, sub: Subspace) -> tuple[bool, tuple[str, Vec, Vec] | None]:
    """Exact ideal test; on failure returns a witness (basis name, member, bracket),
    the lowest basis index first and then the first member whose bracket escapes."""
    ad = ad_lists(g)
    images = [{c: _dense(g.dim, w) for c, w in ad_images(ad, v).items()} for v in sub.rows]
    for c in range(g.dim):
        for a, image in enumerate(images):
            if c in image and not sub.contains(image[c]):
                v = sub.basis[a]  # the witness in the reduced row echelon basis
                return False, (g.basis_names[c], v, tuple(_dense(g.dim, ad_images(ad, v)[c])))
    return True, None


def quotient(g: LieAlgebra, ideal: Subspace) -> LieAlgebra:
    """g / ideal in the deterministic complement basis.

    The complement is the set of standard basis vectors at the non-pivot
    columns of the ideal's RREF, kept in index order.
    """
    ok, witness = is_ideal(g, ideal)
    if not ok:
        assert witness is not None
        raise NotAnIdealError(*witness)
    comp = tuple(c for c in range(g.dim) if c not in ideal.pivots)
    names = tuple(g.basis_names[c] for c in comp)
    position = {c: a for a, c in enumerate(comp)}
    brackets: dict[tuple[int, int], dict[int, Coeff]] = {}
    for i, j, coeffs in g.brackets:
        if i in position and j in position:
            w = _dense(g.dim, coeffs)  # to its residue: w less w[p] times the RREF row of each pivot p
            # w[p] and row[p] may both be ints: their ratio is a Fraction, never a float
            for x, row in [(Fraction(w[p], row[p]), row) for row, p in zip(ideal.rows, ideal.pivots) if w[p]]:
                w = [a - x * b if b else a for a, b in zip(w, row)]
            brackets[(position[i], position[j])] = {a: w[c] for a, c in enumerate(comp)}
    return lie_algebra(len(comp), names, brackets)


def direct_product(g1: LieAlgebra, g2: LieAlgebra) -> LieAlgebra:
    """Block-diagonal product; names are suffixed only on collision."""
    names1, names2 = list(g1.basis_names), list(g2.basis_names)
    if set(names1) & set(names2):
        names1 = [f"{s}.1" for s in names1]
        names2 = [f"{s}.2" for s in names2]
    d1 = g1.dim
    brackets: dict[tuple[int, int], dict[int, Coeff]] = {}
    for i, j, coeffs in g1.brackets:
        brackets[(i, j)] = {k: c for k, c in coeffs}
    for i, j, coeffs in g2.brackets:
        brackets[(i + d1, j + d1)] = {k + d1: c for k, c in coeffs}
    return lie_algebra(d1 + g2.dim, names1 + names2, brackets)


def change_basis(g: LieAlgebra, new_rows: Sequence[Sequence[Fraction]]) -> LieAlgebra:
    """Structure constants in the basis whose vectors are the given rows."""
    inv_t = invert(transpose(new_rows))  # sends old coordinates to new ones
    brackets = {
        (a, b): {k: sum((r[t] * x for t, x in w), ZERO) for k, r in enumerate(inv_t)}  # lie_algebra drops the zeros
        for a, b, w in row_brackets(ad_lists(g), new_rows)
    }
    return lie_algebra(g.dim, g.basis_names, brackets)
