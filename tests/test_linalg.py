from fractions import Fraction
from math import gcd
from random import Random

import pytest
from _corpus import corpus
from _oracles import RrefAccumulator, mat_vec, oracle_ad_matrix, oracle_bracket, oracle_kernel, oracle_rank, oracle_subspace_sum

from nilorbit.algebra import center, derived_subalgebra, jordan_holder_flag, lower_central_series
from nilorbit.coadjoint import bform_matrix, isotropy, random_functional
from nilorbit.families import random_unimodular
from nilorbit.linalg import (
    Echelon,
    Subspace,
    integer_row,
    invert,
    kernel_basis,
    rank,
    rank_profile,
    unit_vec,
    vec,
)

F = Fraction


def test_rref_canonical():
    rows = [vec([2, 4, 6]), vec([1, 2, 4])]
    sub = Subspace.from_vectors(3, rows)
    assert sub.pivots == (0, 2)
    assert sub.basis == (vec([1, 2, 0]), vec([0, 0, 1]))


def test_rref_is_basis_independent():
    a = [vec([1, 1, 0]), vec([0, 1, 1])]
    b = [vec([1, 2, 1]), vec([2, 3, 1])]  # same row space
    assert Subspace.from_vectors(3, a) == Subspace.from_vectors(3, b)


def test_kernel_basis_annihilates():
    rows = [vec([1, 2, 3, 4]), vec([0, 1, 1, 1])]
    ker = kernel_basis(rows, 4)
    assert len(ker.basis) == 2
    for v in ker.basis:
        assert all(c == 0 for c in mat_vec(rows, v))


def test_kernel_basis_is_whole_kernel_with_dependent_rows():
    # rows are random rational rows, their repeats, combinations and zero rows
    rng = Random(12)
    for _ in range(60):
        ncols = rng.randint(0, 6)
        rows = [
            [F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else F(0) for _ in range(ncols)]
            for _ in range(rng.randint(0, 4))
        ]
        for _ in range(rng.randint(0, 8)):
            kind = rng.randrange(3)
            if kind == 0 and rows:
                rows.append(list(rng.choice(rows)))
            elif kind == 1 and rows:
                a, b = rng.choice(rows), rng.choice(rows)
                s, t = F(rng.randint(-2, 2), rng.randint(1, 2)), F(rng.randint(-2, 2))
                rows.append([s * x + t * y for x, y in zip(a, b)])
            else:
                rows.append([F(0)] * ncols)
            rng.shuffle(rows)
        ker = kernel_basis(rows, ncols)
        assert ker == oracle_kernel(rows, ncols)
        assert ker.dim == ncols - oracle_rank(rows)
        assert all(c == 0 for v in ker.basis for c in mat_vec(rows, v))


def test_kernel_of_full_rank_is_zero():
    rows = [unit_vec(3, i) for i in range(3)]
    assert kernel_basis(rows, 3).basis == ()


def test_rank_counts_independent_rows():
    rows = [vec([1, 0]), vec([2, 0]), vec([0, 5])]
    assert rank(rows, 2) == 2


def test_accumulator_membership():
    acc = Echelon()
    assert acc.add(integer_row(vec([1, 1, 0]))) == 0
    assert acc.add(integer_row(vec([2, 2, 0]))) is None
    assert acc.contains(integer_row(vec([-3, -3, 0])))
    assert not acc.contains(integer_row(vec([0, 1, 0])))
    assert acc.add(integer_row(vec([F(1, 2), F(1, 3), 0]))) == 1


def _random_rows(rng, ncols, full_rank=False):
    """An invertible rational matrix, or rational rows among which are zero, repeated and dependent ones."""
    if full_rank:  # each row of a unimodular matrix times a nonzero rational
        return [[F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)) * a for a in r] for r in random_unimodular(ncols, rng)]
    rows = [
        [F(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < 0.6 else F(0) for _ in range(ncols)]
        for _ in range(rng.randint(0, ncols + 2))
    ]
    for _ in range(rng.randint(0, 4)):
        kind = rng.randrange(3)
        if kind == 0 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind == 1 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append([F(rng.randint(-3, 3), rng.randint(1, 3)) * x + y for x, y in zip(a, b)])
        else:
            rows.append([F(0)] * ncols)
        rng.shuffle(rows)
    return rows


def _dense(m, coeffs):
    out = [F(0)] * m
    for k, c in coeffs:
        out[k] = c
    return out


def _check_against_reference(rows, ncols):
    """Span, kernel and, for a square matrix, inverse or singularity, each against the reference RREF."""
    assert Subspace.from_vectors(ncols, rows) == RrefAccumulator(ncols, rows).subspace()
    assert kernel_basis(rows, ncols) == oracle_kernel(rows, ncols)
    if len(rows) == ncols and oracle_rank(rows) == ncols:
        n = ncols
        aug = [list(r) + [F(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
        assert invert(rows) == [list(r[n:]) for r in RrefAccumulator(2 * n, aug).rows]
    elif len(rows) == ncols:
        with pytest.raises(ValueError):
            invert(rows)


def test_spans_kernels_and_inverses_equal_the_reference_rref():
    rng = Random(13)
    assert Subspace.from_vectors(0, []) == Subspace.zero(0) and kernel_basis([], 0) == Subspace.zero(0)
    assert kernel_basis([], 3) == Subspace.full(3) and invert([]) == []
    assert Subspace.from_vectors(3, []) == Subspace.zero(3)
    assert Subspace.from_vectors(3, [[F(0)] * 3] * 2) == Subspace.zero(3)
    for trial in range(150):
        ncols = rng.randint(0, 7)
        rows = _random_rows(rng, ncols, full_rank=trial % 3 == 0)
        _check_against_reference(rows, ncols)
        if ncols:  # a square matrix: full rank or deficient
            square = rows[:ncols] + [[F(0)] * ncols] * (ncols - len(rows[:ncols]))
            _check_against_reference(square, ncols)


def test_spans_kernels_and_inverses_equal_the_reference_rref_on_the_corpus():
    rng = Random(17)
    for g in corpus(3, 40):
        m = g.dim
        flag = jordan_holder_flag(g)
        _check_against_reference([list(r) for r in flag.rows], m)
        _check_against_reference(bform_matrix(g, random_functional(g, rng)), m)
        _check_against_reference([_dense(m, coeffs) for _, _, coeffs in g.brackets], m)


def _assert_canonical(sub, reference_rows):
    """Primitive integer rows, positive at their pivots, whose `basis` is the reference RREF of `reference_rows`."""
    m = sub.ambient_dim
    for row, p in zip(sub.rows, sub.pivots):
        assert len(row) == m and all(type(a) is int for a in row)
        assert row[p] > 0 and not any(row[:p]) and gcd(*row) == 1
    reference = RrefAccumulator(m, reference_rows)
    assert sub.basis == tuple(tuple(r) for r in reference.rows) and sub.pivots == tuple(reference.pivots)


def test_every_subspace_on_the_corpus_keeps_canonical_integer_rows():
    """Series terms, center, [g, g], isotropy at seeded points, and the perp of each.

    Each reference RREF is taken over ``Fraction`` from a spanning set read
    off the oracles: the brackets of the term before with every unit vector,
    the stacked ad(X_i) matrices' kernel, the brackets of unit vectors, the
    kernel of the skew form, and for a perp the kernel of the basis.
    """
    rng = Random(29)
    for g in corpus(8, 40):
        m = g.dim
        units = [unit_vec(m, i) for i in range(m)]
        chain, _ = lower_central_series(g)
        cases = [(chain[0], units)]
        cases += [(term, [oracle_bracket(g, u, v) for u in units for v in before.basis]) for before, term in zip(chain, chain[1:])]
        stacked = [row for u in units for row in oracle_ad_matrix(g, u)]
        cases.append((center(g), oracle_kernel(stacked, m).basis))
        cases.append((derived_subalgebra(g), [oracle_bracket(g, u, v) for u in units for v in units]))
        for _ in range(3):
            xi = random_functional(g, rng)
            cases.append((isotropy(g, xi)[0], oracle_kernel(bform_matrix(g, xi), m).basis))
        for sub, reference_rows in cases:
            _assert_canonical(sub, reference_rows)
            _assert_canonical(sub.perp(), oracle_kernel(sub.basis, m).basis)



def test_invert_roundtrip():
    a = [vec([1, 2]), vec([1, 3])]
    inv = invert(a)
    prod = [mat_vec(a, col) for col in zip(*inv)]
    # a . inv == identity, read off column by column
    assert prod[0] == (F(1), F(0)) and prod[1] == (F(0), F(1))


def test_invert_singular_raises():
    import pytest

    with pytest.raises(ValueError):
        invert([vec([1, 2]), vec([2, 4])])


def test_subspace_sum_and_perp():
    s = Subspace.from_vectors(4, [vec([1, 0, 0, 0])])
    t = Subspace.from_vectors(4, [vec([0, 1, 0, 0])])
    st = oracle_subspace_sum(s, t)
    assert st.dim == 2
    p = st.perp()
    assert p.dim == 2
    for w in p.basis:
        assert all(sum(a * b for a, b in zip(w, v)) == 0 for v in st.basis)
    assert p.perp() == st


def test_subspace_zero_and_full():
    z = Subspace.zero(3)
    f = Subspace.full(3)
    assert z.dim == 0 and f.dim == 3
    assert all(f.contains(v) for v in z.basis)
    assert z.perp() == f
    assert f == RrefAccumulator(3, [unit_vec(3, i) for i in range(3)]).subspace()


def test_rank_profile_counts_every_leading_block_rank():
    rng = Random(11)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [
            [F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else F(0) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        pivot_row = rank_profile(rows, ncols)
        assert len(pivot_row) == ncols
        assert rank(rows, ncols) == oracle_rank(rows)
        for k in range(nrows + 1):
            for j in range(ncols + 1):
                pivots = sum(1 for c in range(j) if pivot_row[c] is not None and pivot_row[c] < k)
                assert pivots == oracle_rank([r[:j] for r in rows[:k]])


def test_rank_profile_zero_and_empty():
    assert rank_profile([[F(0)] * 4 for _ in range(4)], 4) == (None,) * 4
    assert rank_profile([], 0) == ()
