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
    for c in (2, F(2), F(-1, 3), 0):  # a scalar on either side
        assert p * c == c * p == p.scale(c)


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


def _coefficients(*polys):
    return [c for p in polys for _, c in p.terms]


def test_int_coefficients_divide_and_evaluate_like_fractions():
    """Division, gcd and determinants of int-coefficient polynomials go through Fraction, never float."""
    a_int = Poly.make(1, {(0,): 1, (1,): 3})  # 3t + 1
    b_int = Poly.make(1, {(0,): -4, (2,): 2})  # 2t^2 - 4
    a, b = upoly([1, 3]), upoly([-4, 0, 2])
    assert {type(c) for c in _coefficients(a_int, b_int)} == {int}
    assert (a_int, b_int) == (a, b)
    cases = [
        (udivmod(b_int, a_int), udivmod(b, a)),  # the lead ratio is 2/3
        (udivmod(a_int, b_int), udivmod(a, b)),
        (udiv_exact(a_int * b_int, b_int), udiv_exact(a * b, b)),
        (udiv_exact(a_int * b_int, a_int), udiv_exact(a * b, a)),
        (ugcd(a_int * b_int, b_int), ugcd(a * b, b)),
        (ugcd(a_int * a_int, a_int * b_int), ugcd(a * a, a * b)),
        # a limit's content starts as ugcd(0, p): the monic scale 1 / 3 is no binary fraction
        (ugcd(Poly.zero(1), a_int), ugcd(Poly.zero(1), a)),
        (ugcd(a_int, Poly.zero(1)), ugcd(a, Poly.zero(1))),
        (udet([[b_int]]), udet([[b]])),
        (udet([[a_int, b_int], [b_int, a_int]]), udet([[a, b], [b, a]])),
    ]
    for got, want in cases:
        assert got == want
        got = got if isinstance(got, tuple) else (got,)
        assert not any(isinstance(c, float) for c in _coefficients(*got))
    assert ucoeffs(ugcd(a_int * b_int, b_int)) == [F(-2), F(0), F(1)]
    for t in (F(2), 2, F(-1, 3), 0):
        for p_int, p in ((a_int, a), (b_int, b), (a_int * b_int, a * b)):
            value = p_int.evaluate((t,))
            assert type(value) is Fraction and value == p.evaluate((t,))
    assert type(Poly.make(1, {(0,): 5}).evaluate((F(1, 2),))) is Fraction


def _random_row(rng, nvars):
    """Entries with non-integer rational coefficients, some zero, sometimes all zero."""
    if rng.random() < 0.15:
        return [Poly.zero(nvars) for _ in range(rng.randint(1, 4))]
    row = []
    for _ in range(rng.randint(1, 4)):
        data = {}
        if rng.random() < 0.75:
            for _ in range(rng.randint(1, 4)):
                mono = tuple(rng.randint(0, 3) for _ in range(nvars))
                data[mono] = F(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 24))
        row.append(Poly.make(nvars, data))
    if rng.random() < 0.5:  # a monomial factor common to the whole row
        mono = tuple(rng.randint(0, 2) for _ in range(nvars))
        row = [Poly(nvars, ((mono, F(rng.randint(1, 9), rng.randint(1, 9))),)) * p for p in row]
    return row


def test_strip_row_returns_a_primitive_integer_row():
    from math import gcd

    rng = Random(15)
    nonzero = 0
    for _ in range(300):
        nvars = rng.randint(1, 3)
        row = _random_row(rng, nvars)
        out = strip_row(row)
        assert len(out) == len(row)
        terms = [t for p in out for t in p.terms]
        if not terms:
            assert all(p.is_zero for p in row) and out == row
            continue
        nonzero += 1
        assert all(type(c) is int for _, c in terms)
        assert gcd(*(c for _, c in terms)) == 1
        assert all(min(m[v] for m, _ in terms) == 0 for v in range(nvars))
        assert all(list(p.terms) == sorted(p.terms) for p in out)
        # row = q * x^a * out for one rational q and one exponent vector a
        (m_in, c_in), (m_out, c_out) = next((p.terms[0], q.terms[0]) for p, q in zip(row, out) if p)
        factor = Poly(nvars, ((tuple(x - y for x, y in zip(m_in, m_out)), F(c_in) / c_out),))
        assert all(factor * q == p for p, q in zip(row, out))
    assert nonzero > 200
