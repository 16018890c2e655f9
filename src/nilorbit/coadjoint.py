"""Coadjoint machinery: skew forms, isotropy, jump sets, action, flat orbits.

Conventions: a functional is a coordinate vector in the dual of the stored
basis; jump indices are 1-based subsets of {1..m} relative to a flag.  Every
skew form B_xi(x, y) = <xi, [x, y]>, at a point, with the dual coordinates as
indeterminates or along a one-parameter family, is assembled by ``skew_form``.

Jump labels come from the rank profile of the skew form A = flag_form(flag, xi).
By definition j belongs to J^k iff e_j lies outside ker A[:k, :k] +
<e_1..e_{j-1}>, that is iff column j of A[:k, :k] is independent of the
columns before it: rank A[:k, :j] > rank A[:k, :j-1].  One elimination pass
over the rows of A, scaled to integers (``linalg.rank_profile``), gives the
pivot row of every column, and rank A[:k, :j] is the number of pivots inside
that leading block, so

    J^k = {j <= k : pivot_row(j) <= k},    J = J^m = the pivot columns.

For a skew A the pivot map is a fixed-point-free involution, so J^k is the
union of the pivot pairs inside {1..k}.  This is the rank profile matrix of
Dumas, Pernet & Sultan (JSC 2017) and Jeannerod, Pernet & Storjohann
(JSC 2013); it replaces one kernel and membership scan per leading block,
O(m^4) per point, with one O(m^3) pass.  The symbolic generic label runs the
same loop (``linalg.echelon_profile``) over the ``Poly`` form.

The package labels points this one way.  The definitional routes it is
checked against live in ``tests/_oracles.py``: the per-leading-block scan
is ``oracle_membership_fine_tuple``, and the bracket-by-bracket character
test (J = {} iff xi vanishes on [g, g]) is ``oracle_is_character``.

The coadjoint action Ad*(exp x) xi = xi o exp(-ad x) (``coadjoint_move``) is
its exponential series summed in integers over one common denominator, with
ad x read off the bracket table once as sparse columns; the only
``Fraction``s are the final coordinates.  The tests sum the same series over
the dense matrix of ad x in ``Fraction``s.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm
from random import Random

from .algebra import BracketTable, Flag, LieAlgebra, ad_images, ad_lists, is_ideal
from .errors import UsageError
from .linalg import (
    Subspace,
    Vec,
    ZERO,
    dot,
    kernel_basis,
    rank_profile,
    sub_vec,
    unit_vec,
    vec,
    zero_vec,
)
from .records import Record, setfield


class Functional(Record):
    """A point of the dual space, <xi, X_j> = coords[j]."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: LieAlgebra, coords: Vec):
        if len(coords) != algebra.dim:
            raise ValueError(f"functional has {len(coords)} coordinates for dimension {algebra.dim}")
        setfield(self, "algebra", algebra)
        setfield(self, "coords", coords)

    def scale(self, t: Fraction) -> "Functional":
        return Functional(self.algebra, tuple(t * c for c in self.coords))


def functional(g: LieAlgebra, entries) -> Functional:
    return Functional(g, vec(entries))


def zero_functional(g: LieAlgebra) -> Functional:
    return Functional(g, zero_vec(g.dim))


def dual_basis_functional(g: LieAlgebra, index: int) -> Functional:
    """The dual vector X_index^* (0-based index)."""
    return Functional(g, unit_vec(g.dim, index))


def dual_functional_by_name(g: LieAlgebra, name: str) -> Functional:
    return dual_basis_functional(g, g.basis_names.index(name))


def random_functional(g: LieAlgebra, rng: Random, bound: int = 7) -> Functional:
    return Functional(g, random_vector(g, rng, bound))


def random_vector(g: LieAlgebra, rng: Random, bound: int = 7) -> Vec:
    if bound < 0:
        raise UsageError("bound must be >= 0")
    return tuple(Fraction(rng.randint(-bound, bound)) for _ in range(g.dim))


def skew_form(table: BracketTable, coords: Sequence, zero=ZERO) -> list:
    """Skew matrix M_ab = sum_k c_k coords[k] over a bracket-shaped table (a, b, ((k, c_k), ...)).

    Coordinates are rationals (a point) or ``Poly`` entries, with ``zero`` their zero.
    """
    m = len(coords)
    mat = [[zero] * m for _ in range(m)]
    for a, b, coeffs in table:
        val = zero
        for k, c in coeffs:
            if coords[k]:
                val = val + coords[k] * c  # Fraction * int dispatches faster than int * Fraction
        if val:
            mat[a][b] = val
            mat[b][a] = -val
    return mat


def bform_matrix(g: LieAlgebra, xi: Functional) -> list[list[Fraction]]:
    """Skew matrix M_ij = <xi, [X_i, X_j]> in the stored basis."""
    if xi.algebra.dim != g.dim:
        raise ValueError("functional dimension does not match the algebra")
    return skew_form(g.brackets, xi.coords)


def flag_form(flag: Flag, xi: Functional) -> list[list[Fraction]]:
    """The same skew form written in flag coordinates."""
    return skew_form(flag.pair_support, xi.coords)


def isotropy(g: LieAlgebra, xi: Functional) -> tuple[Subspace, int]:
    """g(xi) = radical of the skew form, and the orbit dimension m - dim g(xi)."""
    sub = kernel_basis(bform_matrix(g, xi), g.dim)
    return sub, g.dim - sub.dim


def jump_set(flag: Flag, xi: Functional) -> tuple[int, ...]:
    """J_xi = {j : g_j not in g(xi) + g_{j-1}}, in flag coordinates, 1-based."""
    pivot_row = rank_profile(flag_form(flag, xi), flag.dim)
    return tuple(j + 1 for j, r in enumerate(pivot_row) if r is not None)


def fine_jump_tuple(flag: Flag, xi: Functional) -> tuple[tuple[int, ...], ...]:
    """(J_xi^1, ..., J_xi^m): jump indices of every leading block of the form."""
    return fine_tuple_from_pivots(rank_profile(flag_form(flag, xi), flag.dim))


def fine_tuple_from_pivots(pivot_row: Sequence[int | None]) -> tuple[tuple[int, ...], ...]:
    """(J^1, ..., J^m) from the pivot row of each column of a skew form."""
    fine = []
    jumps: tuple[int, ...] = ()
    for k, r in enumerate(pivot_row):
        # the pivot map is an involution: the pair {r, k} joins at block k + 1
        if r is not None and r < k:
            jumps = tuple(sorted(jumps + (r + 1, k + 1)))
        fine.append(jumps)
    return tuple(fine)


def coadjoint_move(g: LieAlgebra, xi: Functional, x: Sequence[Fraction]) -> Functional:
    """Ad*(exp x) xi = xi o exp(-ad x), a finite sum since ad x is nilpotent.

    With d and e the lcms of the denominators of xi and x, the series is
    summed in integers: T_0 = d xi and T_p = T_{p-1} o ad(-e x), so that
    xi o exp(-ad x) = sum of T_p / (d e^p p!) over p <= P, the last nonzero
    term.  The columns of ad(-e x) are read off the bracket table once, as
    the ``ad_images`` [X_b, e x]; on an integral table each is an int.  The
    partial sums share the denominator d e^p p!, and each coordinate becomes
    one ``Fraction`` at the end.
    """
    m = g.dim
    if m == 0:
        return xi
    d = lcm(*[c.denominator for c in xi.coords])
    e = lcm(*[c.denominator for c in x])
    columns = list(ad_images(ad_lists(g), [c.numerator * (e // c.denominator) for c in x]).items())
    term = [c.numerator * (d // c.denominator) for c in xi.coords]
    total = term  # the numerators over den
    den = d
    for p in range(1, m + 1):
        nxt = [0] * m
        for b, column in columns:
            nxt[b] = sum([term[t] * a for t, a in column])
        if not any(nxt):
            break
        k = e * p
        total = [u * k + v for u, v in zip(total, nxt)]
        den *= k
        term = nxt
    else:
        raise RuntimeError("ad x is not nilpotent; the exponential series did not terminate")
    return Functional(g, tuple(Fraction(n, den) if n else ZERO for n in total))


class AffineOrbit(Record):
    __slots__ = ("base", "direction")


class FlatnessCertificate(Record):
    __slots__ = ("isotropy_is_ideal", "samples_checked", "samples_inside", "escape_witness")


class FlatnessResult(Record):
    __slots__ = ("flat", "certificate", "orbit")


def is_flat_orbit(
    g: LieAlgebra,
    xi: Functional,
    samples: int = 8,
    seed: int = 0,
    bound: int = 7,
) -> FlatnessResult:
    """Decide whether the orbit of xi is the affine set xi + g(xi)^perp.

    The verdict is the exact ideal criterion on g(xi).  The sampled coadjoint
    moves cross-check the implementation: when g(xi) is an ideal, every moved
    point must lie in xi + g(xi)^perp, and a violation is a hard internal
    error rather than a negative answer.
    """
    if samples < 1:
        raise UsageError("samples must be >= 1")
    iso, _ = isotropy(g, xi)
    ideal, _witness = is_ideal(g, iso)
    rng = Random(seed)
    inside = 0
    escape = None
    for _ in range(samples):
        x = random_vector(g, rng, bound)
        moved = coadjoint_move(g, xi, x)
        diff = sub_vec(moved.coords, xi.coords)
        if all(dot(diff, v) == 0 for v in iso.rows):
            inside += 1
        elif escape is None:
            escape = x
    if ideal and inside != samples:
        raise RuntimeError(
            "isotropy is an ideal but a sampled coadjoint move "
            "left xi + g(xi)^perp"
        )
    cert = FlatnessCertificate(ideal, samples, inside, escape)
    orbit = AffineOrbit(xi, iso.perp()) if ideal else None
    return FlatnessResult(ideal, cert, orbit)
