"""Exact Grassmannian limits of one-parameter families of flat orbits.

A family is a functional whose coordinates are polynomials in one parameter
t.  The orbit directions V(t) = g(xi(t))^perp form a family of r-planes for
generic t; their limit at t0 is computed through Pluecker coordinates:
take all maximal minors of a polynomial basis of V(t), divide the minor
vector by its polynomial content (this removes the common power of (t - t0)
that makes naive evaluation collapse), and evaluate at t0.  The resulting
nonzero decomposable vector is the limit plane.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from random import Random
from typing import Sequence

from .algebra import LieAlgebra, center, is_ideal
from .coadjoint import Functional, bform_matrix, is_flat_orbit, isotropy, skew_form
from .errors import MathError, UsageError
from .formats import MAX_EXPONENT, FormatError, frac_parse
from .linalg import Subspace, ZERO, dot, echelon_profile, rank as mat_rank, sub_vec
from .polys import Poly, strip_row, udet, udiv_exact, ugcd
from .records import Record, setfield


class LimitError(MathError):
    pass


class OneParamFunctional(Record):
    """xi(t): each dual coordinate is a univariate polynomial in t."""

    __slots__ = ("algebra", "coord_polys", "t0")

    def __init__(self, algebra: LieAlgebra, coord_polys: tuple[Poly, ...], t0: Fraction = Fraction(0)):
        if len(coord_polys) != algebra.dim:
            raise ValueError("coordinate count does not match the algebra dimension")
        setfield(self, "algebra", algebra)
        setfield(self, "coord_polys", coord_polys)
        setfield(self, "t0", t0)

    def at(self, t) -> Functional:
        t = Fraction(t)
        return Functional(self.algebra, tuple(p.evaluate((t,)) for p in self.coord_polys))


# a denominator is a positive integer, so "1/0" and "t/0" do not match
_TERM_RE = re.compile(
    r"^(?P<coef>[+-]?\d+(?:/\d*[1-9]\d*)?)?\*?(?P<var>t(?:\^(?P<exp>\d+))?)?"
    r"(?:/(?P<den>\d*[1-9]\d*))?$"
)


def parse_poly(text: str) -> Poly:
    """Parse '2t^2 - t/2 + 1' style polynomial strings in the variable t."""
    s = text.replace(" ", "")
    if not s:
        raise FormatError("empty polynomial string")
    # split into signed terms
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise FormatError(f"cannot parse polynomial {text!r}")
    coeffs: dict[int, Fraction] = {}
    for chunk in chunks:
        msign = 1
        body = chunk
        if body[0] in "+-":
            msign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise FormatError(f"cannot parse term {chunk!r} in {text!r}")
        coef = frac_parse(m.group("coef") or "1")
        if m.group("den"):
            coef /= frac_parse(m.group("den"))
        exp = 0
        if m.group("var"):
            exp = int(frac_parse(m.group("exp") or "1"))
            if exp > MAX_EXPONENT:
                raise FormatError(f"exponent above {MAX_EXPONENT} in term {chunk!r}")
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + msign * coef
    return Poly.make(1, {(e,): c for e, c in coeffs.items()})


def one_param_functional(g: LieAlgebra, coord_strings: Sequence[str], t0=0) -> OneParamFunctional:
    if len(coord_strings) != g.dim:
        raise FormatError(f"expected {g.dim} coordinate polynomials, got {len(coord_strings)}")
    return OneParamFunctional(g, tuple(parse_poly(s) for s in coord_strings), Fraction(t0))


class DirectionFamily(Record):
    """Polynomial basis of V(t) = g(xi(t))^perp and its generic rank."""

    __slots__ = ("rows", "rank", "ambient_dim")


def direction_family(g: LieAlgebra, xi_t: OneParamFunctional) -> DirectionFamily:
    """Row space of the t-dependent skew form, over rational functions of t.

    g(xi)^perp coincides with the row space of the form matrix, so a
    fraction-free elimination of the polynomial rows is a polynomial basis
    of V(t) away from finitely many parameters.
    """
    m = g.dim
    _, rows = echelon_profile(skew_form(g.brackets, xi_t.coord_polys, Poly.zero(1)), m, strip_row)
    if not rows:
        raise LimitError("the family is identically a character family (zero form)")
    return DirectionFamily(tuple(tuple(r) for r in rows), len(rows), m)


def _plucker_vector(fam: DirectionFamily) -> dict[tuple[int, ...], Poly]:
    r = fam.rank
    out = {}
    for cols in itertools.combinations(range(fam.ambient_dim), r):
        minor = [[row[c] for c in cols] for row in fam.rows]
        out[cols] = udet(minor)
    return out


def _perm_sign(seq: Sequence[int]) -> int:
    inversions = sum(
        1
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )
    return -1 if inversions % 2 else 1


def subspace_limit(fam: DirectionFamily, t0) -> Subspace:
    """Grassmannian limit of V(t) at t0 via content-normalized Pluecker coordinates."""
    t0 = Fraction(t0)
    plucker = _plucker_vector(fam)
    content = Poly.zero(1)
    for p in plucker.values():
        content = ugcd(content, p)
    if content.is_zero:
        raise LimitError(
            "Pluecker vector is identically zero; the basis degenerates, "
            "re-parameterize the family"
        )
    values = {cols: udiv_exact(p, content).evaluate((t0,)) for cols, p in plucker.items()}
    base = next((cols for cols in sorted(values) if values[cols] != 0), None)
    if base is None:
        raise LimitError("normalized Pluecker vector vanished at t0; content division failed")

    # rebuild the plane from the decomposable vector: replace slot a of the
    # base column set by every column j and read off Cramer-style entries
    r = fam.rank
    rows = []
    for a in range(r):
        row = [ZERO] * fam.ambient_dim
        for j in range(fam.ambient_dim):
            tup = base[:a] + (j,) + base[a + 1 :]
            if len(set(tup)) < r:
                continue  # repeated column: zero entry
            row[j] = _perm_sign(tup) * values[tuple(sorted(tup))]
        rows.append(tuple(row))
    sub = Subspace.from_vectors(fam.ambient_dim, rows)
    if sub.dim != r:
        raise LimitError("limit reconstruction failed: Pluecker vector was not decomposable")
    return sub


class OrbitClass(Record):
    __slots__ = ("representative", "orbit_dim", "size")


class LimitReport(Record):
    __slots__ = (
        "limit_direction",
        "limit_base",
        "generic_rank",
        "degenerated",
        "annihilated",
        "decomposition",
        "slice_count",
        "min_orbits_per_slice",
        "isolated_point_flag",
        "m_dim",
        "samples",
        "seed",
    )


def orbit_limit_set(
    g: LieAlgebra,
    xi_t: OneParamFunctional,
    t0=None,
    sample_budget: int = 50,
    seed: int = 0,
    bound: int = 7,
) -> LimitReport:
    """Sample-level structure of the limit set of the orbit family.

    Points of xibar + V0 are grouped into coadjoint orbits (decidable exactly
    because the sampled orbits are flat) and into slices by their restriction
    to the center; the no-isolated-point verdict holds when every sampled
    slice meets at least two distinct orbits.  The verdict is certified only
    at sample resolution.
    """
    if sample_budget < 1:
        raise UsageError("sample budget must be >= 1")
    t0 = xi_t.t0 if t0 is None else Fraction(t0)
    fam = direction_family(g, xi_t)

    t_gen = _generic_parameter(g, xi_t, fam, t0)
    gen_flat = is_flat_orbit(g, xi_t.at(t_gen), samples=4, seed=seed, bound=bound)
    if not gen_flat.flat:
        raise LimitError(
            f"the family is not generically flat (checked at t = {t_gen}); "
            "the limit-set decomposition needs flat orbits"
        )

    v0 = subspace_limit(fam, t0)
    xibar = xi_t.at(t0)
    names = g.basis_names
    annihilated = tuple(
        names[i]
        for i in range(g.dim)
        if xibar.coords[i] == 0 and all(row[i] == 0 for row in v0.basis)
    )
    _, base_orbit_dim = isotropy(g, xibar)
    degenerated = base_orbit_dim < fam.rank

    z = center(g)
    rng = Random(seed)
    pts = [xibar]
    for _ in range(sample_budget - 1):
        coords = list(xibar.coords)
        for row in v0.basis:
            c = Fraction(rng.randint(-bound, bound))
            if c:
                coords = [a + c * b for a, b in zip(coords, row)]
        pts.append(Functional(g, tuple(coords)))

    classes: list[dict] = []
    slices: dict[tuple, set[int]] = {}
    for pt in pts:
        iso, odim = isotropy(g, pt)
        placed = None
        for idx, cl in enumerate(classes):
            rep = cl["rep"]
            diff = sub_vec(pt.coords, rep.coords)
            if cl["orbit_dim"] == odim and all(dot(diff, v) == 0 for v in cl["iso"].basis):
                placed = idx
                break
        if placed is None:
            ideal, _ = is_ideal(g, iso)
            if not ideal:
                raise LimitError(
                    "a sampled limit point has a non-flat orbit; the sampled "
                    "decomposition is only defined for flat orbits"
                )
            classes.append({"rep": pt, "iso": iso, "orbit_dim": odim, "size": 1})
            placed = len(classes) - 1
        else:
            classes[placed]["size"] += 1
        key = tuple(dot(pt.coords, zrow) for zrow in z.basis)
        slices.setdefault(key, set()).add(placed)

    min_per_slice = min(len(v) for v in slices.values())
    m_dim = Subspace.from_vectors(
        max(z.dim, 1), [tuple(dot(row, zrow) for zrow in z.basis) for row in v0.basis]
    ).dim if z.dim else 0

    decomposition = tuple(
        OrbitClass(cl["rep"], cl["orbit_dim"], cl["size"]) for cl in classes
    )
    return LimitReport(
        limit_direction=v0,
        limit_base=xibar,
        generic_rank=fam.rank,
        degenerated=degenerated,
        annihilated=annihilated,
        decomposition=decomposition,
        slice_count=len(slices),
        min_orbits_per_slice=min_per_slice,
        isolated_point_flag=min_per_slice < 2,
        m_dim=m_dim,
        samples=len(pts),
        seed=seed,
    )


def _generic_parameter(g: LieAlgebra, xi_t: OneParamFunctional, fam: DirectionFamily, t0: Fraction) -> Fraction:
    """A parameter value where the direction family has its generic rank.

    A nonzero r x r minor of the form has degree at most r * D, where D is the
    largest coordinate degree, so it vanishes at no more than r * D of the
    r * D + 1 values tried besides t0.
    """
    tries = fam.rank * max(p.degree() for p in xi_t.coord_polys) + 1
    for t in [Fraction(c) for c in range(1, tries + 2) if c != t0][:tries]:
        mat = bform_matrix(g, xi_t.at(t))
        if mat_rank(mat, g.dim) == fam.rank:
            return t
    raise LimitError(f"no generic parameter among {tries} values; the degree bound failed")
