from fractions import Fraction
from random import Random
from time import perf_counter

import pytest

from conftest import flag_of

from nilorbit.algebra import quotient
from nilorbit.coadjoint import Functional
from nilorbit.families import heisenberg, hmn, threadlike
from nilorbit.formats import FormatError
from nilorbit.limits import (
    LimitError,
    MAX_EXPONENT,
    direction_family,
    one_param_functional,
    orbit_limit_set,
    parse_poly,
    subspace_limit,
)
from nilorbit.linalg import Subspace, unit_vec
from nilorbit.polys import ucoeffs
from nilorbit.strata import classify_point

F = Fraction


def span(dim, *indices):
    return Subspace.from_vectors(dim, [unit_vec(dim, i) for i in indices])


def format_poly(p):
    """A univariate Poly as a family string that parse_poly reads back."""
    parts = []
    for e, c in enumerate(ucoeffs(p)):
        if c == 0:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            mono = "t" if e == 1 else f"t^{e}"
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            elif c.denominator == 1:
                parts.append(f"{c}{mono}")
            else:
                parts.append(f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


# --- polynomial strings -------------------------------------------------------


def test_parse_poly_forms():
    assert parse_poly("t").evaluate((F(3),)) == 3
    assert parse_poly("t/1").evaluate((F(3),)) == 3
    assert parse_poly("0").is_zero
    assert parse_poly("2t^2-t/2+1").evaluate((F(2),)) == 8
    assert parse_poly("-3/4").evaluate((F(9),)) == F(-3, 4)
    assert parse_poly("1-t").evaluate((F(5),)) == -4


def test_parse_poly_rejects_garbage():
    # a malformed family string is a usage error (exit 2), like any other malformed input
    for bad in ("", "t+", "x^2", "1//2", "1/0", "t/0", "1e5", "0.5t", "t^1e3", "7" * 5000):
        with pytest.raises(FormatError):
            parse_poly(bad)


def test_parse_poly_bounds_the_exponent():
    assert MAX_EXPONENT == 1000
    p = parse_poly("2t^1000 - t + 3")
    assert p.degree() == 1000 and len(p.terms) == 3
    assert p.evaluate((F(1),)) == 4
    # a dense coefficient list of this length would not fit in memory; the cap
    # rejects it while reading the term
    start = perf_counter()
    for bad in ("t^1001", "1 + t^100000000", "t^" + "9" * 4000):
        with pytest.raises(FormatError, match="exponent above 1000"):
            parse_poly(bad)
    assert perf_counter() - start < 1.0


def test_format_parse_roundtrip():
    rng = Random(3)
    for _ in range(20):
        coeffs = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
        p = parse_poly(
            format_poly(
                parse_poly(
                    "+".join(f"{c}t^{e}" if c >= 0 else f"{c}t^{e}" for e, c in enumerate(coeffs))
                    .replace("t^0", "")
                    .replace("+-", "-")
                )
            )
        )
        assert [p.evaluate((F(t),)) for t in range(4)] == [
            sum(c * F(t) ** e for e, c in enumerate(coeffs)) for t in range(4)
        ]


# --- direction families ----------------------------------------------------------


def test_direction_h3_shrinking_family():
    g = heisenberg(1)
    fam = direction_family(g, one_param_functional(g, ["t", "0", "0"]))
    assert fam.rank == 2
    v = subspace_limit(fam, 0)
    assert v == span(3, 1, 2)  # X*, Y* survive although the orbits shrink to a point


def test_direction_constant_family():
    g = hmn(2, 2)
    fam = direction_family(g, one_param_functional(g, ["0", "0", "0", "0", "1"]))
    assert fam.rank == 4
    assert subspace_limit(fam, 0) == span(5, 0, 1, 2, 3)


def test_direction_family_rank_h22():
    g = hmn(2, 2)
    fam = direction_family(g, one_param_functional(g, ["0", "0", "0", "1", "t"]))
    assert fam.rank == 4


def test_direction_identically_character_errors():
    g = heisenberg(1)
    with pytest.raises(LimitError):
        direction_family(g, one_param_functional(g, ["0", "t", "1"]))


# --- subspace limits ---------------------------------------------------------------


def test_subspace_limit_h22_degeneration():
    # frozen by hand: for <xi(t), Y2> = t the direction is the annihilator of
    # the center span{Y2}, so the limit keeps X1*, X2*, Y0*, Y1*
    g = hmn(2, 2)
    fam = direction_family(g, one_param_functional(g, ["0", "0", "0", "1", "t"]))
    v0 = subspace_limit(fam, 0)
    assert v0 == span(5, 0, 1, 2, 3)
    assert all(row[4] == 0 for row in v0.basis)


def test_subspace_limit_threadlike_moving_plane():
    # [X1,X2] = X3, [X1,X3] = X4; with xi(t) = X3* + t X4* the plane turns
    # from span{X1*, X2* + t X3*} to span{X1*, X2*} at t = 0
    g = threadlike(4)
    fam = direction_family(g, one_param_functional(g, ["0", "0", "1", "t"]))
    assert fam.rank == 2
    assert subspace_limit(fam, 0) == span(4, 0, 1)
    # at t0 = -1 the same family limits onto a tilted plane
    tilted = subspace_limit(fam, -1)
    assert tilted.dim == 2
    assert tilted.contains(unit_vec(4, 0))
    assert tilted.contains((F(0), F(1), F(-1), F(0)))


def test_subspace_limit_survives_rank_dropping_evaluation():
    # every maximal minor of [[t,0,1],[0,t,1]] carries a factor t, so naive
    # evaluation at 0 collapses to rank 1; content normalization keeps the
    # genuine limit plane span{(1,-1,0), (0,0,1)}
    from nilorbit.limits import DirectionFamily
    from nilorbit.polys import upoly

    t = upoly([0, 1])
    one = upoly([1])
    zero = upoly([])
    fam = DirectionFamily(((t, zero, one), (zero, t, one)), 2, 3)
    v0 = subspace_limit(fam, 0)
    assert v0.dim == 2
    assert v0.contains((F(1), F(-1), F(0)))
    assert v0.contains((F(0), F(0), F(1)))
    naive = Subspace.from_vectors(3, [(F(0), F(0), F(1)), (F(0), F(0), F(1))])
    assert naive.dim == 1  # what row-wise evaluation would have produced


def test_subspace_limit_dim_equals_generic_rank():
    g = hmn(3, 2)
    fam = direction_family(g, one_param_functional(g, ["0", "0", "1", "0", "1", "t"]))
    v0 = subspace_limit(fam, 0)
    assert v0.dim == fam.rank


def test_evaluated_directions_converge_entrywise():
    # exact evaluation at t0 + 10^-k approaches the limit basis entry by entry
    cases = [
        (hmn(2, 2), ["0", "0", "0", "1", "t"]),
        (hmn(2, 2), ["0", "0", "0", "0", "1"]),
        (threadlike(4), ["0", "0", "1", "t"]),
    ]
    for g, coords in cases:
        xi_t = one_param_functional(g, coords)
        fam = direction_family(g, xi_t)
        v0 = subspace_limit(fam, 0)
        prev = None
        for k in (3, 6, 9):
            t = F(1, 10**k)
            rows = [[p.evaluate((t,)) for p in row] for row in fam.rows]
            sub = Subspace.from_vectors(g.dim, rows)
            assert sub.dim == fam.rank
            assert sub.pivots == v0.pivots
            diff = max(
                abs(a - b)
                for ra, rb in zip(sub.basis, v0.basis)
                for a, b in zip(ra, rb)
            )
            if prev is not None:
                assert diff <= prev
            prev = diff
        assert prev is not None and prev <= F(1, 10**6)


# --- orbit limit sets ------------------------------------------------------------------


def test_orbit_limit_h22_annihilates_y2():
    g = hmn(2, 2)
    xi_t = one_param_functional(g, ["0", "0", "0", "1", "t"])
    rep = orbit_limit_set(g, xi_t, sample_budget=40, seed=4)
    assert rep.degenerated
    assert "Y2" in rep.annihilated
    assert all(c.orbit_dim < 4 for c in rep.decomposition)
    assert not rep.isolated_point_flag


def test_orbit_limit_constant_family_single_orbit():
    g = hmn(2, 2)
    xi_t = one_param_functional(g, ["1", "0", "0", "0", "1"])
    rep = orbit_limit_set(g, xi_t, sample_budget=30, seed=4)
    assert not rep.degenerated
    assert len(rep.decomposition) == 1
    assert rep.isolated_point_flag  # nothing degenerated: the limit is one orbit
    assert rep.decomposition[0].orbit_dim == rep.generic_rank


def test_orbit_limit_h32_slices_have_two_orbits():
    g = hmn(3, 2)
    xi_t = one_param_functional(g, ["0", "0", "1", "0", "1", "t"])
    rep = orbit_limit_set(g, xi_t, sample_budget=50, seed=6)
    assert rep.min_orbits_per_slice >= 2
    assert not rep.isolated_point_flag
    assert rep.slice_count >= 1
    assert "Y2" in rep.annihilated


def test_orbit_limit_quotient_classification_agrees():
    # limit points kill Y_n, so they classify consistently in the quotient
    for m, n in ((2, 2), (3, 2)):
        g = hmn(m, n)
        coords = ["0"] * g.dim
        coords[g.basis_names.index(f"Y{n - 1}")] = "1"
        if m > n:
            coords[g.basis_names.index(f"X{m}")] = "1"
        coords[g.basis_names.index(f"Y{n}")] = "t"
        rep = orbit_limit_set(g, one_param_functional(g, coords), sample_budget=25, seed=8)
        y_n = g.basis_names.index(f"Y{n}")
        line = Subspace.from_vectors(g.dim, [unit_vec(g.dim, y_n)])
        q = quotient(g, line)
        target = hmn(m, n - 1)
        assert q.brackets == target.brackets
        q_flag = flag_of(q)
        t_flag = flag_of(target)
        for cls in rep.decomposition:
            coords_full = cls.representative.coords
            assert coords_full[y_n] == 0
            reduced = tuple(c for i, c in enumerate(coords_full) if i != y_n)
            via_quotient = classify_point(q_flag, Functional(q, reduced))
            direct = classify_point(t_flag, Functional(target, reduced))
            assert via_quotient == direct


def test_orbit_limit_rejects_nonflat_generic_family():
    g = threadlike(4)
    xi_t = one_param_functional(g, ["0", "0", "1", "t"])
    with pytest.raises(LimitError):
        orbit_limit_set(g, xi_t)


def test_orbit_limit_finds_a_generic_parameter_past_fixed_candidates():
    # the scale factor vanishes at 1, 2, 3, 1/2, 5, 7, 1/3 and 11, so eight tries never find rank 2
    g = heisenberg(1)
    roots = ("1", "2", "3", "1/2", "5", "7", "1/3", "11")
    p = parse_poly("1")
    for c in roots:
        p = p * parse_poly(f"t-{c}")
    xi_t = one_param_functional(g, [format_poly(p), "0", "0"])
    rep = orbit_limit_set(g, xi_t, sample_budget=5)
    assert rep.generic_rank == 2 and not rep.degenerated
    assert rep.limit_direction == span(3, 1, 2)
