from fractions import Fraction
from random import Random

import pytest

from _oracles import oracle_det

from nilorbit.algebra import (
    center,
    change_basis,
    derived_subalgebra,
    direct_product,
    jordan_holder_flag,
    lie_algebra,
    validate_algebra,
)
from nilorbit import coadjoint, families
from nilorbit.errors import UsageError
from nilorbit.families import (
    FamilySpec,
    abelian,
    generate,
    heisenberg,
    hmn,
    random_unimodular,
    recognize_heisenberg_times_abelian,
    threadlike,
    verify_hmn,
)
from nilorbit.strata import generic_stratum

F = Fraction


# --- generators ----------------------------------------------------------------


def test_generate_h22_brackets():
    g = hmn(2, 2)
    names = g.basis_names
    assert names == ("X1", "X2", "Y0", "Y1", "Y2")
    got = {
        (names[i], names[j]): {names[k]: c for k, c in coeffs}
        for i, j, coeffs in g.brackets
    }
    assert got == {
        ("X1", "Y0"): {"Y1": F(1)},
        ("X1", "Y1"): {"Y2": F(1)},
        ("X2", "Y0"): {"Y2": F(1)},
    }


def test_generate_abelian_and_heisenberg():
    assert abelian(3).brackets == ()
    g = heisenberg(2)
    assert g.dim == 5 and center(g).dim == 1


def test_generate_threadlike():
    g = threadlike(4)
    names = g.basis_names
    got = {(i, j): dict(coeffs) for i, j, coeffs in g.brackets}
    assert got == {(0, 1): {2: F(1)}, (0, 2): {3: F(1)}}


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("hmn", (0, 2))
    with pytest.raises(ValueError):
        FamilySpec("threadlike", (2,))
    with pytest.raises(ValueError):
        FamilySpec("heisenberg", (0,))
    with pytest.raises(ValueError):
        FamilySpec("oscillator", (3,))
    assert generate(FamilySpec("abelian", (0,))).dim == 0


@pytest.mark.parametrize("m, n", [(0, 0), (1, -3), (2, 0)])
def test_verify_hmn_rejects_bad_parameters_before_any_work(m, n, monkeypatch):
    def no_work(*args):
        raise AssertionError("verification ran on invalid parameters")

    monkeypatch.setattr(families, "lower_central_series", no_work)
    monkeypatch.setattr(coadjoint, "dual_functional_by_name", no_work)
    with pytest.raises(UsageError, match=r"hmn\(m, n\) needs m >= 1 and n >= 1"):
        verify_hmn(m, n)


def test_generated_hmn_all_valid():
    for m in range(1, 7):
        for n in range(1, 7):
            assert validate_algebra(hmn(m, n)) == []


# --- verify_hmn -----------------------------------------------------------------


def test_verify_hmn_22_passes():
    rep = verify_hmn(2, 2)
    assert rep.all_passed
    assert [it.item for it in rep.items] == ["i", "ii", "iii", "iv", "v"]


def test_verify_hmn_range_passes():
    for m in range(2, 5):
        for n in range(2, m + 1):
            assert verify_hmn(m, n, flat_samples=5).all_passed


def test_verify_hmn_n1_edge_case_is_recorded():
    rep = verify_hmn(1, 1)
    assert rep.all_passed  # center and computed step check out
    assert any("n=1" in note for note in rep.notes)
    item_i = rep.items[0]
    assert "n-step label matches: False" in item_i.detail
    assert not rep.items[1].applicable  # quotient needs n >= 2


def test_verify_hmn_43_orbit_dimension():
    rep = verify_hmn(4, 3, flat_samples=5)
    assert rep.all_passed
    assert "orbit dimension 6" in rep.items[2].detail


# --- recognition -----------------------------------------------------------------


def test_recognize_heisenberg():
    rec = recognize_heisenberg_times_abelian(heisenberg(3))
    assert rec is not None and (rec.d, rec.k) == (3, 0)
    assert rec.note is not None  # index 1 confirmed


def test_recognize_note_and_index_without_symbolic_elimination():
    # recognition reads ind = k + 1 off one skew form; the symbolic generic
    # stratum cross-checks it, and the note must mark exactly k = 0
    for d in (1, 2):
        for k in (0, 1, 2):
            g = direct_product(heisenberg(d), abelian(k))
            rng = Random(31 * d + k)
            for _ in range(2):
                h = change_basis(g, random_unimodular(g.dim, rng))
                rec = recognize_heisenberg_times_abelian(h)
                assert rec is not None and (rec.d, rec.k) == (d, k)
                assert (rec.note is not None) == (k == 0)
                assert generic_stratum(jordan_holder_flag(h), mode="symbolic").ind == k + 1


def test_recognize_rejects_non_nilpotent_with_line_derived_algebra():
    # aff(1): [X, Y] = Y, so [g, g] = R*Y is a line, but not a central one
    g = lie_algebra(2, ["X", "Y"], {(0, 1): {1: 1}})
    assert derived_subalgebra(g).dim == 1
    assert recognize_heisenberg_times_abelian(g) is None


def test_recognize_abelian_fails():
    assert recognize_heisenberg_times_abelian(abelian(4)) is None


def test_recognize_product_after_basis_change():
    rng = Random(21)
    g = direct_product(heisenberg(2), abelian(3))
    for _ in range(3):
        h = change_basis(g, random_unimodular(g.dim, rng))
        rec = recognize_heisenberg_times_abelian(h)
        assert rec is not None and (rec.d, rec.k) == (2, 3)


def test_recognize_rejects_hmn_with_n_at_least_2():
    for m, n in ((1, 2), (2, 2), (3, 2), (2, 3)):
        assert recognize_heisenberg_times_abelian(hmn(m, n)) is None


def test_recognize_hmn_n1_is_heisenberg_times_abelian():
    rec = recognize_heisenberg_times_abelian(hmn(3, 1))
    assert rec is not None and (rec.d, rec.k) == (1, 2)


def test_recognize_rejects_threadlike():
    for n in (4, 5):
        assert recognize_heisenberg_times_abelian(threadlike(n)) is None
    rec = recognize_heisenberg_times_abelian(threadlike(3))
    assert rec is not None and (rec.d, rec.k) == (1, 0)


# --- unimodular sampling -----------------------------------------------------------


def test_random_unimodular_properties():
    rng = Random(5)
    for dim in (2, 4, 6):
        for _ in range(5):
            mat = random_unimodular(dim, rng)
            assert abs(oracle_det(mat)) == 1
            assert all(abs(c) <= 3 and c.denominator == 1 for row in mat for c in row)
