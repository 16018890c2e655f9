from fractions import Fraction
from random import Random

import pytest

from conftest import flag_of
from _corpus import corpus
from _oracles import mat_vec, oracle_ad_matrix, oracle_fine_tuple, oracle_is_character, oracle_rank

from nilorbit.algebra import change_basis, direct_product, jordan_holder_flag, lie_algebra
from nilorbit.coadjoint import (
    Functional,
    bform_matrix,
    coadjoint_move,
    dual_functional_by_name,
    fine_jump_tuple,
    flag_form,
    functional,
    is_flat_orbit,
    isotropy,
    jump_set,
    random_functional,
    random_vector,
    zero_functional,
)
from nilorbit.families import abelian, heisenberg, hmn, random_unimodular, threadlike
from nilorbit.linalg import ZERO, Subspace, invert, rank_profile, unit_vec

F = Fraction


def span_of(g, *names):
    return Subspace.from_vectors(g.dim, [unit_vec(g.dim, g.basis_names.index(s)) for s in names])


def dense(g, seed):
    """g after a random unimodular change of basis."""
    return change_basis(g, random_unimodular(g.dim, Random(seed)))


def sample_points(flag, rng, count):
    """Random functionals; every second one has a random subset of its flag
    coordinates <xi, F_j> zeroed, so that lower strata occur in dense bases too."""
    g = flag.algebra
    to_stored = invert(flag.rows)
    for i in range(count):
        xi = random_functional(g, rng)
        if i % 2:
            zeroed = [c if rng.random() < 0.5 else F(0) for c in xi.coords]
            xi = Functional(g, mat_vec(to_stored, zeroed))
        yield xi


# --- skew form ---------------------------------------------------------------


def test_bform_h3_zstar():
    g = heisenberg(1)
    mat = bform_matrix(g, dual_functional_by_name(g, "Z"))
    expect = [[0, 0, 0], [0, 0, 1], [0, -1, 0]]
    assert mat == [[F(c) for c in row] for row in expect]


def test_bform_zero_functional():
    for g in (heisenberg(2), hmn(2, 2)):
        mat = bform_matrix(g, zero_functional(g))
        assert all(all(c == 0 for c in row) for row in mat)


def test_bform_h22_y2star_pairs():
    g = hmn(2, 2)
    mat = bform_matrix(g, dual_functional_by_name(g, "Y2"))
    names = g.basis_names
    for i in (1, 2):
        for j in (0, 1, 2):
            a, b = names.index(f"X{i}"), names.index(f"Y{j}")
            assert mat[a][b] == (1 if i + j == 2 else 0)


def test_bform_antisymmetric_random():
    rng = Random(1)
    for g in (hmn(3, 2), threadlike(4)):
        for _ in range(5):
            mat = bform_matrix(g, random_functional(g, rng))
            m = g.dim
            assert all(mat[i][j] == -mat[j][i] for i in range(m) for j in range(m))


# --- isotropy ----------------------------------------------------------------


def test_isotropy_h32_generic_is_center():
    g = hmn(3, 2)
    xi = dual_functional_by_name(g, "Y2")
    iso, odim = isotropy(g, xi)
    assert iso == span_of(g, "Y2", "X3")
    assert odim == 4


def test_isotropy_of_zero_is_everything():
    g = hmn(2, 2)
    iso, odim = isotropy(g, zero_functional(g))
    assert iso.dim == g.dim and odim == 0


def test_isotropy_h32_y1star():
    g = hmn(3, 2)
    iso, _ = isotropy(g, dual_functional_by_name(g, "Y1"))
    assert iso == span_of(g, "Y1", "Y2", "X2", "X3")


# --- jump sets ---------------------------------------------------------------


def test_jump_set_h3():
    g = heisenberg(1)
    assert jump_set(flag_of(g), dual_functional_by_name(g, "Z")) == (2, 3)


def test_jump_set_empty_iff_character():
    rng = Random(2)
    for g in (heisenberg(2), hmn(3, 2), threadlike(4)):
        flag = flag_of(g)
        for _ in range(20):
            xi = random_functional(g, rng)
            assert (jump_set(flag, xi) == ()) == oracle_is_character(xi)


def test_jump_set_size_is_form_rank():
    g = hmn(2, 2)
    flag = flag_of(g)
    rng = Random(3)
    for _ in range(20):
        xi = random_functional(g, rng)
        assert len(jump_set(flag, xi)) == oracle_rank(bform_matrix(g, xi))


def test_fine_tuple_h3():
    g = heisenberg(1)
    xi = dual_functional_by_name(g, "Z")
    assert fine_jump_tuple(flag_of(g), xi) == ((), (), (2, 3))


def test_fine_tuple_of_zero():
    g = hmn(2, 2)
    assert fine_jump_tuple(flag_of(g), zero_functional(g)) == ((),) * 5


def test_fine_tuple_character_y0star():
    g = hmn(2, 2)
    xi = dual_functional_by_name(g, "Y0")
    assert oracle_is_character(xi)
    assert fine_jump_tuple(flag_of(g), xi) == ((),) * 5


def test_fine_tuple_last_component_is_coarse():
    rng = Random(4)
    for g in (hmn(3, 3), threadlike(5), direct_product(heisenberg(2), abelian(1))):
        flag = flag_of(g)
        for _ in range(15):
            xi = random_functional(g, rng)
            fine = fine_jump_tuple(flag, xi)
            assert fine[-1] == jump_set(flag, xi)
            for k, comp in enumerate(fine, start=1):
                assert all(1 <= j <= k for j in comp)


def test_fine_tuple_matches_rank_oracle():
    rng = Random(5)
    for g in (hmn(2, 2), hmn(3, 2), threadlike(4), dense(direct_product(heisenberg(4), abelian(2)), 3)):
        flag = flag_of(g)
        for xi in sample_points(flag, rng, 16):
            assert fine_jump_tuple(flag, xi) == oracle_fine_tuple(g, flag.rows, xi.coords)


def test_fine_tuple_matches_rank_oracle_on_the_corpus():
    rng = Random(21)
    for g in corpus(21, 40):
        flag = jordan_holder_flag(g)
        for xi in sample_points(flag, rng, 10):
            assert fine_jump_tuple(flag, xi) == oracle_fine_tuple(g, flag.rows, xi.coords)


def test_rank_profile_of_form_is_fixed_point_free_involution():
    rng = Random(12)
    for g in (hmn(3, 3), threadlike(6), dense(hmn(3, 3), 1), dense(threadlike(6), 2)):
        flag = flag_of(g)
        for xi in sample_points(flag, rng, 20):
            pivot_row = rank_profile(flag_form(flag, xi), g.dim)
            for c, r in enumerate(pivot_row):
                if r is not None:
                    assert r != c and pivot_row[r] == c


def test_skew_form_agrees_across_entry_types(monkeypatch):
    """The Poly forms of the symbolic label and of a direction family, evaluated, are the point forms."""
    from nilorbit import limits, strata
    from nilorbit.polys import upoly

    captured = []

    def capture(real):
        def spy(rows, ncols, normalise):
            captured.append(rows)
            return real(rows, ncols, normalise)

        return spy

    monkeypatch.setattr(strata, "echelon_profile", capture(strata.echelon_profile))
    monkeypatch.setattr(limits, "echelon_profile", capture(limits.echelon_profile))
    rng = Random(14)
    for g in (hmn(3, 2), threadlike(5), dense(direct_product(heisenberg(2), abelian(1)), 4), dense(hmn(2, 2), 5)):
        flag = flag_of(g)
        strata._symbolic_fine_label(flag)
        form = captured.pop()
        for xi in sample_points(flag, rng, 6):
            evaluated = [[p.evaluate(xi.coords) for p in row] for row in form]
            assert evaluated == flag_form(flag, xi)
        xi_t = limits.OneParamFunctional(
            g, tuple(upoly([rng.randint(-3, 3) for _ in range(3)]) for _ in range(g.dim))
        )
        limits.direction_family(g, xi_t)
        form = captured.pop()
        for t in (F(0), F(2), F(-1, 3)):
            evaluated = [[p.evaluate((t,)) for p in row] for row in form]
            assert evaluated == bform_matrix(g, xi_t.at(t))


# --- jump data ---------------------------------------------------------------


def test_jump_data_invariants():
    # the orbit dimension is |J| = |J^m| and even
    rng = Random(6)
    for g in (hmn(3, 2), heisenberg(2)):
        flag = flag_of(g)
        for _ in range(10):
            xi = random_functional(g, rng)
            odim = isotropy(g, xi)[1]
            assert odim == len(fine_jump_tuple(flag, xi)[-1])
            assert odim % 2 == 0


# --- coadjoint action ---------------------------------------------------------


def test_move_by_zero_is_identity():
    g = hmn(2, 2)
    xi = functional(g, [1, 2, 3, 4, 5])
    assert coadjoint_move(g, xi, (F(0),) * 5).coords == xi.coords
    ints = coadjoint_move(g, Functional(g, (1, 2, 3, 4, 5)), (0,) * 5).coords
    assert ints == xi.coords and all(type(c) is Fraction for c in ints)


def test_move_h3_explicit():
    # exp(-ad X) sends Z* to Z* - Y*: two-term series, ad^2 = 0 here
    g = heisenberg(1)
    xi = dual_functional_by_name(g, "Z")
    moved = coadjoint_move(g, xi, unit_vec(3, 1))
    assert moved.coords == (F(1), F(0), F(-1))


def move_via_ad_matrix(g, xi, x):
    """The exponential series with the dense matrix of ad x, as a reference."""
    ad = oracle_ad_matrix(g, x)
    term = list(xi.coords)
    total = list(term)
    for p in range(1, g.dim + 1):
        nxt = [sum((term[i] * ad[i][j] for i in range(g.dim)), ZERO) for j in range(g.dim)]
        term = [-c / p for c in nxt]
        total = [a + b for a, b in zip(total, term)]
    return tuple(total)


def _rational_vector(g, rng):
    """Coordinates p/q with q up to 6, about a third of them zero."""
    return tuple(F(0) if rng.random() < 0.3 else F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(g.dim))


def _move_draws(rng):
    """(g, xi, x): integral and rational xi and x, some coordinates zero, over
    families, dense bases, a basis with the constant 1/2 and the corpus."""
    halved = change_basis(heisenberg(2), [[F(1, 2) if i == j else F(0) for j in range(5)] for i in range(5)])
    algebras = [
        hmn(3, 2),
        threadlike(5),
        dense(hmn(3, 2), 4),
        dense(direct_product(heisenberg(4), abelian(2)), 3),
        halved,
        *corpus(30, 20),
    ]
    for g in algebras:
        for xi in sample_points(flag_of(g), rng, 4):
            yield g, xi, random_vector(g, rng)
        for _ in range(4):
            yield g, Functional(g, _rational_vector(g, rng)), _rational_vector(g, rng)


def test_move_matches_dense_ad_series():
    for g, xi, x in _move_draws(Random(14)):
        moved = coadjoint_move(g, xi, x).coords
        assert moved == move_via_ad_matrix(g, xi, x)
        assert all(type(c) is Fraction for c in moved)


def test_move_by_x_then_minus_x_is_identity():
    """exp(-x) exp(x) = 1, so moving xi by x and then by -x gives xi back."""
    for g, xi, x in _move_draws(Random(15)):
        back = coadjoint_move(g, coadjoint_move(g, xi, x), tuple(-c for c in x)).coords
        assert back == xi.coords
        assert all(type(c) is Fraction for c in back)


def test_move_rejects_non_nilpotent_ad():
    g = lie_algebra(2, ["A", "B"], {(0, 1): {1: 1}})  # [A, B] = B
    xi = dual_functional_by_name(g, "B")
    with pytest.raises(RuntimeError, match="not nilpotent"):
        coadjoint_move(g, xi, unit_vec(2, 0))


def test_jump_set_invariant_under_action():
    rng = Random(7)
    for g in (hmn(2, 2), threadlike(4)):
        flag = flag_of(g)
        for _ in range(20):
            xi = random_functional(g, rng)
            x = random_vector(g, rng)
            moved = coadjoint_move(g, xi, x)
            assert jump_set(flag, moved) == jump_set(flag, xi)
            assert fine_jump_tuple(flag, moved) == fine_jump_tuple(flag, xi)


def test_jump_set_invariant_under_scaling():
    rng = Random(8)
    g = hmn(3, 2)
    flag = flag_of(g)
    for _ in range(10):
        xi = random_functional(g, rng)
        for t in (F(2), F(-1), F(1, 7), F(-3, 5)):
            assert jump_set(flag, xi.scale(t)) == jump_set(flag, xi)
            assert fine_jump_tuple(flag, xi.scale(t)) == fine_jump_tuple(flag, xi)


# --- flat orbits ---------------------------------------------------------------


def test_flat_on_hmn_random():
    rng = Random(9)
    g = hmn(3, 2)
    for s in range(10):
        xi = random_functional(g, rng)
        res = is_flat_orbit(g, xi, samples=4, seed=s)
        assert res.flat
        assert res.orbit is not None
        assert res.orbit.direction.dim == isotropy(g, xi)[1]


def test_flat_on_abelian_point_orbit():
    g = abelian(3)
    res = is_flat_orbit(g, functional(g, [1, 2, 3]))
    assert res.flat
    assert res.orbit is not None and res.orbit.direction.dim == 0


def test_threadlike_generic_not_flat():
    g = threadlike(4)
    xi = functional(g, [0, 0, 1, 1])  # nonzero on X3 and X4: generic stratum
    res = is_flat_orbit(g, xi)
    assert not res.flat
    assert res.certificate.escape_witness is not None
    assert res.orbit is None


def test_flat_certificate_counts():
    g = hmn(2, 2)
    res = is_flat_orbit(g, dual_functional_by_name(g, "Y2"), samples=5, seed=1)
    cert = res.certificate
    assert cert.isotropy_is_ideal
    assert cert.samples_checked == 5 and cert.samples_inside == 5


def test_flat_verdict_on_hmn_63_64_is_fast():
    """Two coadjoint moves at dimension 128, each one integer series over the
    columns of ad(x) read once: about 0.1 s (2 s with a Fraction product per
    table entry and series step)."""
    import time

    g = hmn(63, 64)
    ones = Functional(g, (F(1),) * g.dim)
    start = time.perf_counter()
    res = is_flat_orbit(g, ones, samples=2)
    elapsed = time.perf_counter() - start
    assert not res.flat and res.orbit is None
    assert res.certificate.samples_inside == 0 and res.certificate.escape_witness is not None
    assert elapsed < 1, f"is_flat_orbit on hmn(63, 64) took {elapsed:.2f} s"


def test_flat_requires_positive_samples():
    g = abelian(2)
    with pytest.raises(ValueError):
        is_flat_orbit(g, zero_functional(g), samples=0)
