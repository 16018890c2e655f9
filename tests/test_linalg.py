from fractions import Fraction
from random import Random

from _oracles import oracle_kernel, oracle_rank, oracle_subspace_sum

from nilorbit.linalg import (
    RrefAccumulator,
    Subspace,
    invert,
    kernel_basis,
    mat_vec,
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
    acc = RrefAccumulator(3)
    assert acc.add(vec([1, 1, 0]))
    assert not acc.add(vec([2, 2, 0]))
    assert acc.contains(vec([-3, -3, 0]))
    assert not acc.contains(vec([0, 1, 0]))


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
