import time
from fractions import Fraction
from random import Random

import pytest

from _corpus import corpus
from _oracles import (
    RrefAccumulator,
    mat_vec,
    oracle_ad_matrix,
    oracle_bracket,
    oracle_is_ideal,
    oracle_jacobi_failures,
    oracle_kernel,
    oracle_rank,
)

from nilorbit.algebra import (
    NonNilpotentError,
    NotAnIdealError,
    ad_images,
    ad_lists,
    center,
    change_basis,
    derived_subalgebra,
    direct_product,
    is_ideal,
    jordan_holder_flag,
    lie_algebra,
    lower_central_series,
    quotient,
    row_brackets,
    validate_algebra,
)
from nilorbit.families import abelian, heisenberg, hmn, random_unimodular, threadlike
from nilorbit.linalg import Subspace, invert, residue, unit_vec, vec

F = Fraction


def span_of(g, *names):
    return Subspace.from_vectors(g.dim, [unit_vec(g.dim, g.basis_names.index(s)) for s in names])


# --- validate_algebra ------------------------------------------------------


def test_validate_h12_and_abelian():
    assert validate_algebra(hmn(1, 2)) == []
    assert validate_algebra(abelian(4)) == []


def test_validate_detects_broken_nilpotency():
    # h3 with [X, Y] redirected to X: the series stabilizes at span{X}
    bad = lie_algebra(3, ["Z", "X", "Y"], {(1, 2): {1: F(1)}})
    diags = validate_algebra(bad)
    assert [d.kind for d in diags] == ["non_nilpotent"]
    assert diags[0].data == (vec([0, 1, 0]),)


def test_validate_detects_jacobi_failure():
    bad = lie_algebra(5, list("abcde"), {(0, 1): {3: F(1)}, (2, 3): {4: F(1)}})
    diags = validate_algebra(bad)
    assert any(d.kind == "jacobi" and d.data == (1, 2, 3) for d in diags)


def test_validate_reports_malformed_indices():
    from nilorbit.algebra import LieAlgebra

    bad = LieAlgebra(2, ("a", "b"), ((0, 5, ((0, F(1)),)),))
    diags = validate_algebra(bad)
    assert diags and diags[0].kind == "malformed"


def test_validate_with_series_hands_back_the_lower_central_series():
    g = hmn(2, 2)
    diags, series = validate_algebra(g, with_series=True)
    assert diags == [] and series == lower_central_series(g)
    from nilorbit.algebra import LieAlgebra

    for bad in (
        lie_algebra(3, ["Z", "X", "Y"], {(1, 2): {1: F(1)}}),  # non-nilpotent
        LieAlgebra(2, ("a", "b"), ((0, 5, ((0, F(1)),)),)),  # malformed
    ):
        diags, series = validate_algebra(bad, with_series=True)
        assert diags == validate_algebra(bad) != [] and series is None


def test_validate_all_generated_families():
    algebras = [heisenberg(d) for d in (1, 2, 3)]
    algebras += [abelian(k) for k in (0, 1, 5)]
    algebras += [threadlike(n) for n in (3, 4, 5)]
    algebras += [hmn(m, n) for m in range(1, 7) for n in range(1, 7)]
    for g in algebras:
        assert validate_algebra(g) == []


def _random_table(rng):
    """Seeded structure constants on dims 0-6, pointing only to later indices or anywhere."""
    m = rng.randint(0, 6)
    upward = rng.random() < 0.6
    brackets = {}
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.35:
                targets = range(j + 1, m) if upward else range(m)
                brackets[(i, j)] = {k: F(rng.randint(-2, 2), rng.randint(1, 2)) for k in targets if rng.random() < 0.4}
    return lie_algebra(m, [f"X{i}" for i in range(1, m + 1)], brackets)


def _oracle_bracket_span(g, vectors):
    return Subspace.from_vectors(g.dim, [oracle_bracket(g, unit_vec(g.dim, i), v) for i in range(g.dim) for v in vectors])


def test_stored_table_checks_match_the_dense_oracles_on_random_tables():
    rng = Random(20)
    seen = {"valid": 0, "jacobi": 0, "non_nilpotent": 0}
    for _ in range(240):
        g = _random_table(rng)
        m = g.dim
        diags = validate_algebra(g)
        assert [d.data for d in diags if d.kind == "jacobi"] == oracle_jacobi_failures(g)
        units = [unit_vec(m, i) for i in range(m)]
        assert derived_subalgebra(g) == _oracle_bracket_span(g, units)
        try:
            chain, step = lower_central_series(g)
        except NonNilpotentError as e:
            assert e.stabilized.dim > 0 and _oracle_bracket_span(g, e.stabilized.basis) == e.stabilized
        else:
            assert chain[0] == Subspace.full(m) and chain[-1].dim == 0 and step == len(chain) - 1
            for before, term in zip(chain, chain[1:]):
                assert term == _oracle_bracket_span(g, before.basis)
        z = center(g)
        q = quotient(g, z)
        comp = [c for c in range(m) if c not in z.pivots]
        for a in range(q.dim):
            for b in range(a + 1, q.dim):
                w = residue(z.basis, z.pivots, oracle_bracket(g, units[comp[a]], units[comp[b]]))
                assert oracle_bracket(q, unit_vec(q.dim, a), unit_vec(q.dim, b)) == tuple(w[c] for c in comp)
        for kind in {d.kind for d in diags} or {"valid"}:
            seen[kind] += 1
    assert min(seen.values()) >= 10, seen


def test_validate_dim_81_heisenberg_is_fast():
    start = time.perf_counter()
    assert validate_algebra(heisenberg(40)) == []
    assert time.perf_counter() - start < 5


def test_lower_central_series_of_hmn_95_96_is_fast():
    """Each distinct ad image is spanned once: hmn(95, 96) repeats most of its images."""
    g = hmn(95, 96)
    start = time.perf_counter()
    chain, step = lower_central_series(g)
    assert time.perf_counter() - start < 3
    assert [s.dim for s in chain] == [g.dim] + list(range(96, -1, -1)) and step == 97
    start = time.perf_counter()
    jordan_holder_flag(g, chain)
    assert time.perf_counter() - start < 1


# --- series, center, derived ----------------------------------------------


def test_series_heisenberg_and_abelian():
    _, step = lower_central_series(heisenberg(1))
    assert step == 2
    _, step = lower_central_series(abelian(4))
    assert step == 1


def test_series_hmn_has_n_plus_one_nonzero_terms():
    # the conventional "n-step" label undercounts by one: [X_1, Y_{n-1}] = Y_n
    # keeps the (n+1)-st term alive; see the h(2,2) chain below
    for m in range(1, 6):
        for n in range(1, m + 1):
            chain, step = lower_central_series(hmn(m, n))
            assert step == n + 1
            assert chain[0].dim == m + n + 1 and chain[-1].dim == 0
            dims = [s.dim for s in chain]
            assert dims == sorted(dims, reverse=True)


def test_series_h22_chain_explicit():
    g = hmn(2, 2)
    chain, step = lower_central_series(g)
    assert step == 3
    assert chain[1] == span_of(g, "Y1", "Y2")
    assert chain[2] == span_of(g, "Y2")
    assert chain[3].dim == 0


def test_center_hmn_cases():
    g = hmn(2, 2)
    assert center(g) == span_of(g, "Y2")
    g = hmn(3, 2)
    assert center(g) == span_of(g, "Y2", "X3")
    g = abelian(4)
    assert center(g) == Subspace.full(4)


def _sparse_and_dense(seed):
    rng = Random(seed)
    for g in (hmn(2, 2), hmn(3, 2), threadlike(5), direct_product(heisenberg(2), abelian(2))):
        yield g
        yield change_basis(g, random_unimodular(g.dim, rng))


def test_center_equals_kernel_of_stacked_oracle_ad_matrices():
    for g in list(_sparse_and_dense(3)) + [abelian(3), abelian(0)]:
        stacked = [row for i in range(g.dim) for row in oracle_ad_matrix(g, unit_vec(g.dim, i))]
        z = center(g)
        assert z.dim == g.dim - oracle_rank(stacked)
        assert all(c == 0 for v in z.basis for c in mat_vec(stacked, v))


def _oracle_ad_images(g, v):
    images = {c: oracle_bracket(g, unit_vec(g.dim, c), v) for c in range(g.dim)}
    return {c: tuple((t, a) for t, a in enumerate(w) if a) for c, w in images.items() if any(w)}


def _oracle_row_brackets(g, rows):
    """Every nonzero [rows[a], rows[b]], a < b, by the dense bilinear sum, as bracket-table entries."""
    table = []
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            w = oracle_bracket(g, rows[a], rows[b])
            if any(w):
                table.append((a, b, tuple((t, x) for t, x in enumerate(w) if x)))
    return tuple(table)


def test_bracket_and_ad_images_equal_dense_bilinear_sum():
    rng = Random(4)

    def draw(m):
        return tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else F(0) for _ in range(m))

    for g in _sparse_and_dense(5):
        m = g.dim
        ad = ad_lists(g)
        units = [unit_vec(m, i) for i in range(m)]
        for u in units:
            rows = units + [draw(m) for _ in range(3)]
            for v in rows:
                assert list(ad_images(ad, v).items()) == list(_oracle_ad_images(g, v).items())
            rows = [u] + rows + [u]  # [u, v] and [v, u] for every v, u among them
            assert row_brackets(ad, rows) == _oracle_row_brackets(g, rows)
        for _ in range(20):
            u, v = draw(m), draw(m)
            # [u, u] is left out after its terms cancel, and every bracket with the zero row is empty
            rows = [u, v, u, [F(0)] * m, [x + y for x, y in zip(u, v)]]
            table = row_brackets(ad, rows)
            assert table == _oracle_row_brackets(g, rows)
            pairs = [(a, b) for a, b, _ in table]
            assert pairs == sorted(pairs) and not {(0, 2), (0, 3), (1, 3), (2, 3), (3, 4)} & set(pairs)
            assert list(ad_images(ad, v).items()) == list(_oracle_ad_images(g, v).items())


def test_derived_subalgebra():
    for d in (1, 2, 3):
        g = heisenberg(d)
        assert derived_subalgebra(g) == span_of(g, "Z")
    assert derived_subalgebra(abelian(3)).dim == 0
    g = hmn(3, 2)
    assert derived_subalgebra(g) == span_of(g, "Y1", "Y2")


# --- flags ------------------------------------------------------------------


def test_flag_h3_is_identity():
    g = heisenberg(1)  # stored order (Z, X, Y)
    flag = jordan_holder_flag(g)
    assert flag.rows == tuple(unit_vec(3, i) for i in range(3))


def test_flag_abelian_is_identity():
    flag = jordan_holder_flag(abelian(3))
    assert flag.rows == tuple(unit_vec(3, i) for i in range(3))


def test_flag_h22_starts_with_deepest_term():
    g = hmn(2, 2)
    flag = jordan_holder_flag(g)
    assert flag.rows[0] == unit_vec(5, g.basis_names.index("Y2"))


def test_flag_prefixes_are_ideals():
    for g in (heisenberg(2), hmn(3, 2), threadlike(5)):
        flag = jordan_holder_flag(g)
        for j in range(1, g.dim + 1):
            prefix = Subspace.from_vectors(g.dim, flag.rows[:j])
            for i in range(g.dim):
                for row in flag.rows[:j]:
                    assert prefix.contains(oracle_bracket(g, unit_vec(g.dim, i), row))


# --- quotients and products --------------------------------------------------


def test_quotient_hmn_by_center_line():
    for m in range(2, 5):
        for n in range(2, m + 1):
            g = hmn(m, n)
            q = quotient(g, span_of(g, f"Y{n}"))
            t = hmn(m, n - 1)
            assert q.basis_names == t.basis_names
            assert q.brackets == t.brackets


def test_quotient_by_zero_is_identity():
    g = hmn(2, 2)
    q = quotient(g, Subspace.zero(g.dim))
    assert q.brackets == g.brackets and q.basis_names == g.basis_names


def test_quotient_h3_by_center_is_abelian():
    g = heisenberg(1)
    q = quotient(g, span_of(g, "Z"))
    assert q.dim == 2 and q.brackets == ()


def test_quotient_rejects_non_ideal():
    g = heisenberg(1)
    with pytest.raises(NotAnIdealError):
        quotient(g, span_of(g, "X1"))


def test_not_an_ideal_error_names_the_lowest_escaping_basis_vector():
    cases = [
        (heisenberg(1), [[0, 1, 0]], "Y1", "(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1))", [-1, 0, 0]),
        (hmn(2, 2), [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]], "X1", "(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), Fraction(0, 1))", [0, 0, 0, 0, 1]),
        (hmn(2, 2), [[1, 1, 0, 0, 1]], "Y0", "(Fraction(1, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))", [0, 0, 0, -1, -1]),
    ]
    for g, rows, name, member, escaped in cases:
        with pytest.raises(NotAnIdealError) as info:
            quotient(g, Subspace.from_vectors(g.dim, [vec(r) for r in rows]))
        assert str(info.value) == f"not an ideal: [{name}, v] leaves the subspace for v = {member}"
        assert info.value.basis_name == name and info.value.escaped == vec(escaped)


def test_quotient_by_non_coordinate_ideal():
    g = abelian(3)
    q = quotient(g, Subspace.from_vectors(3, [vec([1, 1, 0])]))
    assert q.dim == 2 and q.basis_names == ("A2", "A3")
    g = heisenberg(1)
    skew = Subspace.from_vectors(3, [vec([1, 0, 0]), vec([0, 1, 1])])
    q = quotient(g, skew)
    assert q.dim == 1 and q.brackets == ()
    # [X1, Y1] = Z, and Z = -A1 modulo the ideal spanned by Z + A1
    g = direct_product(heisenberg(1), abelian(1))
    q = quotient(g, Subspace.from_vectors(4, [vec([1, 0, 0, 1])]))
    assert q.basis_names == ("X1", "Y1", "A1") and q.brackets == ((0, 1, ((2, F(-1)),)),)


def test_direct_product():
    g = direct_product(heisenberg(1), abelian(2))
    assert g.dim == 5
    assert center(g).dim == 3
    assert direct_product(abelian(1), abelian(1)).brackets == ()
    g2 = direct_product(heisenberg(2), abelian(0))
    assert g2.brackets == heisenberg(2).brackets


def test_center_dim_additive_over_abelian_factor():
    for g in (heisenberg(2), hmn(2, 2), threadlike(4)):
        for k in (1, 3):
            prod = direct_product(g, abelian(k))
            assert center(prod).dim == center(g).dim + k


def test_product_renames_on_collision():
    g = direct_product(heisenberg(1), heisenberg(1))
    assert len(set(g.basis_names)) == 6


# --- basis change -----------------------------------------------------------


def test_change_basis_permutation_explicit():
    # h3 rewritten in the order (X, Y, Z): the only bracket becomes [1, 2] -> 3
    g = heisenberg(1)
    perm = [unit_vec(3, 1), unit_vec(3, 2), unit_vec(3, 0)]
    h = change_basis(g, perm)
    assert h.brackets == ((0, 1, ((2, F(1)),)),)


def test_change_basis_preserves_invariants():
    rng = Random(11)
    for g in (heisenberg(2), hmn(2, 2)):
        for _ in range(3):
            p = random_unimodular(g.dim, rng)
            h = change_basis(g, p)
            assert validate_algebra(h) == []
            assert center(h).dim == center(g).dim
            assert derived_subalgebra(h).dim == derived_subalgebra(g).dim
            _, step_g = lower_central_series(g)
            _, step_h = lower_central_series(h)
            assert step_g == step_h


def test_is_ideal_matches_the_unit_vector_oracle_on_random_tables():
    rng = Random(21)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        g = _random_table(rng)
        m = g.dim
        vectors = [
            tuple(F(rng.randint(-2, 2)) if rng.random() < 0.4 else F(0) for _ in range(m))
            for _ in range(rng.randint(0, 3))
        ]
        subs = [Subspace.from_vectors(m, vectors), center(g), derived_subalgebra(g)]
        subs += [Subspace.from_vectors(m, [unit_vec(m, i)]) for i in range(m) if rng.random() < 0.3]
        for sub in subs:
            ok, witness = is_ideal(g, sub)
            assert (ok, witness) == oracle_is_ideal(g, sub)
            verdicts[ok] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_is_ideal_witness():
    g = heisenberg(1)
    ok, witness = is_ideal(g, span_of(g, "X1"))
    assert not ok and witness is not None
    name, member, escaped = witness
    assert not span_of(g, "X1").contains(escaped)


# --- random nilpotent corpus ---------------------------------------------------


def test_random_nilpotent_corpus_against_the_dense_oracles():
    rng = Random(30)
    for g in corpus(12, 40):
        m = g.dim
        ad = ad_lists(g)
        assert validate_algebra(g) == []
        chain, step = lower_central_series(g)
        assert chain[0] == Subspace.full(m) and chain[-1].dim == 0 and step == len(chain) - 1
        for before, term in zip(chain, chain[1:]):
            assert term == _oracle_bracket_span(g, before.basis)
        flag = jordan_holder_flag(g, chain)
        for j in range(1, m + 1):  # [g, rows[j-1]] in the prefix of dimension j makes every prefix an ideal
            prefix = Subspace.from_vectors(m, flag.rows[:j])
            assert prefix.dim == j and all(prefix.contains(oracle_bracket(g, unit_vec(m, i), flag.rows[j - 1])) for i in range(m))
        assert flag.pair_support == _oracle_row_brackets(g, flag.rows)
        stacked = [row for i in range(m) for row in oracle_ad_matrix(g, unit_vec(m, i))]
        assert center(g) == oracle_kernel(stacked, m)
        for v in list(flag.rows) + [tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m))]:
            assert list(ad_images(ad, v).items()) == list(_oracle_ad_images(g, v).items())
        p = random_unimodular(m, rng)
        assert row_brackets(ad, p) == _oracle_row_brackets(g, p)
        h = change_basis(g, p)
        for a in range(m):
            for b in range(a + 1, m):
                w = oracle_bracket(h, unit_vec(m, a), unit_vec(m, b))
                assert oracle_bracket(g, p[a], p[b]) == tuple(sum((w[k] * p[k][t] for k in range(m)), F(0)) for t in range(m))
        assert change_basis(h, invert(p)) == g


def test_flag_rows_are_the_reference_greedy_walk_on_the_corpus():
    """Every basis row of every series member, deepest member first, that enlarges the span so far."""
    for g in corpus(5, 40):
        chain, _ = lower_central_series(g)
        acc = RrefAccumulator(g.dim)
        walk = tuple(row for member in reversed(chain) for row in member.basis if acc.add(row))
        assert jordan_holder_flag(g, chain).rows == walk == jordan_holder_flag(g).rows
