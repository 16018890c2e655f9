from fractions import Fraction
from random import Random

import pytest

from _oracles import oracle_det, oracle_rank

from nilorbit.linalg import echelon_profile
from nilorbit.polys import (
    Poly,
    strip_row,
    ucoeffs,
    udet,
    udiv_exact,
    udivmod,
    ugcd,
    upoly,
)

F = Fraction


def test_poly_arithmetic():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.evaluate((F(3), F(2))) == 5
    assert (p - p).is_zero
    assert p.degree() == 2


def test_poly_scale_and_neg():
    t = Poly.variable(1, 0)
    p = t.scale(F(2)) + Poly.const(1, 3)
    assert ucoeffs(p) == [F(3), F(2)]
    assert ucoeffs(-p) == [F(-3), F(-2)]


def test_udivmod_and_gcd():
    a = upoly([-1, 0, 1])  # t^2 - 1
    b = upoly([1, 1])  # t + 1
    q, r = udivmod(a, b)
    assert r.is_zero and ucoeffs(q) == [F(-1), F(1)]
    g = ugcd(upoly([-1, 0, 1]), upoly([1, 2, 1]))  # gcd(t^2-1, (t+1)^2) = t+1
    assert ucoeffs(g) == [F(1), F(1)]
    assert udiv_exact(a, b) == q
    with pytest.raises(ArithmeticError):
        udiv_exact(upoly([1, 1, 1]), upoly([1, 1]))


def test_udet_matches_expansion_oracle():
    rng = Random(0)
    for _ in range(10):
        n = rng.randint(1, 4)
        rows = [[upoly([rng.randint(-3, 3), rng.randint(-2, 2)]) for _ in range(n)] for _ in range(n)]
        det = udet(rows)
        # evaluate both sides at a few points
        for t in (F(0), F(1), F(5, 3)):
            numeric = [[p.evaluate((t,)) for p in row] for row in rows]
            assert det.evaluate((t,)) == oracle_det(numeric)


def _random_poly_matrix(rng, nrows, ncols, nvars):
    """Entries are random linear forms in the variables plus a constant."""
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            data = {(0,) * nvars: F(rng.randint(-1, 1))}
            for v in range(nvars):
                data[tuple(1 if i == v else 0 for i in range(nvars))] = F(rng.randint(-2, 2))
            row.append(Poly.make(nvars, data))
        rows.append(row)
    return rows


def test_poly_rank_profile_counts_every_leading_block_rank():
    rng = Random(1)
    for _ in range(25):
        nrows, ncols, nvars = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
        rows = _random_poly_matrix(rng, nrows, ncols, nvars)
        if rng.random() < 0.5:  # a dependent row: a combination of two earlier ones
            a, b = rng.randrange(nrows), rng.randrange(nrows)
            rows.append([p.scale(2) - q for p, q in zip(rows[a], rows[b])])
        pivot_row, basis = echelon_profile(rows, ncols, strip_row)
        assert len(basis) == sum(r is not None for r in pivot_row)
        # a wide random rational point is generic with overwhelming probability
        point = tuple(F(rng.randint(50, 10**6), rng.randint(1, 97)) for _ in range(nvars))
        numeric = [[p.evaluate(point) for p in row] for row in rows]
        for k in range(len(rows) + 1):
            for j in range(ncols + 1):
                pivots = sum(1 for c in range(j) if pivot_row[c] is not None and pivot_row[c] < k)
                assert pivots == oracle_rank([row[:j] for row in numeric[:k]])


def test_poly_rank_profile_rows_span_the_row_space():
    rng = Random(2)
    for _ in range(15):
        nrows, ncols, nvars = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 2)
        rows = _random_poly_matrix(rng, nrows, ncols, nvars)
        _, basis = echelon_profile(rows, ncols, strip_row)
        point = tuple(F(rng.randint(50, 10**6), rng.randint(1, 97)) for _ in range(nvars))
        numeric = [[p.evaluate(point) for p in row] for row in rows]
        reduced = [[p.evaluate(point) for p in row] for row in basis]
        assert oracle_rank(reduced) == len(basis) == oracle_rank(numeric)
        assert oracle_rank(numeric + reduced) == len(basis)
    t = Poly.variable(1, 0)
    one = Poly.const(1, 1)
    zero = Poly.zero(1)
    rows = [[zero, one, t], [-one, zero, zero], [t.scale(-1), zero, zero]]
    pivot_row, basis = echelon_profile(rows, 3, strip_row)
    assert len(basis) == 2
    assert pivot_row == (1, 0, None)  # third row is t * second row
