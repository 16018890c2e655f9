import itertools
from fractions import Fraction
from random import Random

import pytest

from conftest import flag_of
from _corpus import corpus
from _oracles import oracle_compare_fine_labels, oracle_compare_index_sets, oracle_symbolic_fine_label

from nilorbit.algebra import center, direct_product, jordan_holder_flag
from nilorbit.coadjoint import (
    dual_functional_by_name,
    fine_jump_tuple,
    zero_functional,
)
from nilorbit.families import abelian, heisenberg, hmn, threadlike
from nilorbit.strata import (
    _symbolic_fine_label,
    character_label,
    classify_point,
    compare_fine_labels,
    compare_index_sets,
    composition_layers,
    enumerate_strata,
    generic_stratum,
)

F = Fraction


# --- index-set order -----------------------------------------------------------


def test_compare_examples():
    assert compare_index_sets((2, 3), ()) == -1  # empty set is the maximum
    assert compare_index_sets((1, 3), (1, 4)) == -1
    assert compare_index_sets((2, 3), (2, 3)) == 0
    assert compare_index_sets((1,), (1, 2)) == 1  # {1,2} precedes {1}
    assert compare_index_sets((2, 3), (2,)) == -1


def test_compare_total_order_exhaustive_m5():
    subsets = []
    for r in range(6):
        subsets.extend(itertools.combinations(range(1, 6), r))
    for a in subsets:
        assert compare_index_sets(a, a) == 0
        for b in subsets:
            if a != b:
                assert compare_index_sets(a, b) == -compare_index_sets(b, a)
                assert compare_index_sets(a, b) != 0
    # transitivity
    for a in subsets:
        for b in subsets:
            if compare_index_sets(a, b) != -1:
                continue
            for c in subsets:
                if compare_index_sets(b, c) == -1:
                    assert compare_index_sets(a, c) == -1
    assert all(compare_index_sets(e, ()) == -1 for e in subsets if e)


def _subsets(n):
    return [e for r in range(n + 1) for e in itertools.combinations(range(1, n + 1), r)]


def test_index_set_order_matches_the_set_difference_oracle():
    subsets = _subsets(6)
    assert len(subsets) == 64
    for a in subsets:
        for b in subsets:
            assert compare_index_sets(a, b) == oracle_compare_index_sets(a, b), (a, b)


def test_fine_label_order_matches_a_lexicographic_scan():
    rng = Random(2024)
    subsets = _subsets(6)
    for _ in range(3000):
        m = rng.randint(1, 6)
        # draws from a small pool, so that labels often share components
        pool = [rng.choice(subsets) for _ in range(3)]
        a = tuple(rng.choice(pool) for _ in range(m))
        b = tuple(rng.choice(pool) for _ in range(m))
        for variant in ("lex_ascending", "lex_descending"):
            assert compare_fine_labels(a, b, variant) == oracle_compare_fine_labels(a, b, variant), (a, b)


def test_compare_fine_labels_variants():
    a = ((), (), (2, 3))
    b = ((), (), ())
    assert compare_fine_labels(a, b, "lex_ascending") == -1
    assert compare_fine_labels(a, b, "lex_descending") == -1
    assert compare_fine_labels(a, a) == 0


def test_fine_label_variants_can_disagree():
    # first components say e1 < e2, last components say the opposite
    e1 = ((1,), (), (2, 3))
    e2 = ((), (), (1, 2))
    assert compare_fine_labels(e1, e2, "lex_ascending") == -1
    assert compare_fine_labels(e1, e2, "lex_descending") == 1


def test_compare_fine_labels_rejects_bad_variant():
    with pytest.raises(ValueError):
        compare_fine_labels(((),), ((),), "random_order")


# --- classification ---------------------------------------------------------------


def test_classify_h3_zstar():
    g = heisenberg(1)
    coarse, fine = classify_point(flag_of(g), dual_functional_by_name(g, "Z"))
    assert coarse == (2, 3)
    assert fine == ((), (), (2, 3))


def test_classify_zero_functional():
    g = hmn(2, 2)
    coarse, fine = classify_point(flag_of(g), zero_functional(g))
    assert coarse == () and fine == character_label(5)


def test_classify_character_y0():
    g = hmn(2, 2)
    coarse, fine = classify_point(flag_of(g), dual_functional_by_name(g, "Y0"))
    assert coarse == () and fine == character_label(5)


# --- generic stratum and index ------------------------------------------------------


def test_index_heisenberg_times_abelian():
    for d in (1, 2, 3):
        for k in (0, 1, 2, 3):
            g = direct_product(heisenberg(d), abelian(k))
            res = generic_stratum(flag_of(g), mode="symbolic")
            assert res.ind == k + 1
            assert len(res.generic_label) == 2 * d


def test_index_abelian():
    for m in (1, 2, 4, 6):
        res = generic_stratum(flag_of(abelian(m)), mode="symbolic")
        assert res.ind == m and res.generic_label == ()


def test_index_hmn():
    for m in range(2, 5):
        for n in range(2, m + 1):
            res = generic_stratum(flag_of(hmn(m, n)), mode="symbolic")
            assert res.ind == 1 + (m - n)


def test_symbolic_and_sampled_agree():
    fixtures = [hmn(m, n) for m in range(1, 5) for n in range(1, 5)]
    fixtures += [heisenberg(d) for d in (1, 2, 3)]
    fixtures += [abelian(k) for k in (1, 4, 6)]
    fixtures += [threadlike(n) for n in (3, 4, 5)]
    for g in fixtures:
        flag = flag_of(g)
        sym = generic_stratum(flag, mode="symbolic")
        smp = generic_stratum(flag, mode="sampled", samples=40, seed=2)
        assert sym.generic_label == smp.generic_label, g.basis_names
        assert sym.generic_fine == smp.generic_fine
        assert sym.ind == smp.ind


def test_symbolic_and_sampled_agree_after_dense_basis_change():
    # a random unimodular change of basis destroys sparsity, so this is the
    # stress case for the fraction-free symbolic elimination
    from random import Random

    from nilorbit.algebra import change_basis, jordan_holder_flag
    from nilorbit.families import random_unimodular

    rng = Random(7)
    for base in (hmn(2, 2), heisenberg(2)):
        straight = generic_stratum(flag_of(base), mode="symbolic")
        for _ in range(2):
            g = change_basis(base, random_unimodular(base.dim, rng))
            flag = jordan_holder_flag(g)
            sym = generic_stratum(flag, mode="symbolic")
            smp = generic_stratum(flag, mode="sampled", samples=50, seed=1)
            assert sym.generic_fine == smp.generic_fine
            assert sym.ind == straight.ind  # the index is basis-independent


def test_symbolic_label_of_dense_basis_changes_is_fast():
    """The draws on which the symbolic elimination swells most: four dense
    heisenberg(2) x abelian(2) draws and criterion 8's draw 0 of heisenberg(3).
    With primitive integer Poly rows they take about 1 s together (4 s with
    Fraction coefficients)."""
    import time

    from nilorbit.algebra import change_basis
    from nilorbit.families import random_unimodular

    base = direct_product(heisenberg(2), abelian(2))
    rng = Random(7)
    cases = [(jordan_holder_flag(change_basis(base, random_unimodular(7, rng))), 3) for _ in range(4)]
    cases.append((jordan_holder_flag(change_basis(heisenberg(3), random_unimodular(7, Random(300)))), 1))
    start = time.perf_counter()
    labels = [_symbolic_fine_label(flag) for flag, _ in cases]
    elapsed = time.perf_counter() - start
    assert [len(fine[-1]) for fine in labels] == [flag.dim - ind for flag, ind in cases]
    assert elapsed < 2.5, f"symbolic labels of the dense draws took {elapsed:.2f} s"


def test_symbolic_label_matches_leading_block_oracle():
    from random import Random

    from nilorbit.algebra import change_basis, jordan_holder_flag
    from nilorbit.families import random_unimodular

    flags = [flag_of(hmn(m, n)) for m in range(1, 5) for n in range(1, 5)]
    flags += [flag_of(g) for g in (heisenberg(3), abelian(3), threadlike(6))]
    flags += [flag_of(direct_product(heisenberg(2), abelian(2)))]
    rng = Random(11)
    for base in (heisenberg(2), direct_product(heisenberg(2), abelian(1))):
        for _ in range(3):
            flags.append(jordan_holder_flag(change_basis(base, random_unimodular(base.dim, rng))))
    for flag in flags:
        assert _symbolic_fine_label(flag) == oracle_symbolic_fine_label(flag)


def test_symbolic_label_matches_leading_block_oracle_on_the_corpus():
    """The corpus draws with no basis change (the even ones) up to dimension 7; after a dense
    basis change the oracle's elimination swells to seconds per draw."""
    checked = 0
    for n, g in enumerate(corpus(21, 40)):
        if n % 2 == 0 and g.dim <= 7:
            flag = jordan_holder_flag(g)
            assert _symbolic_fine_label(flag) == oracle_symbolic_fine_label(flag)
            checked += 1
    assert checked == 20


def test_index_at_least_center_dim():
    for g in (
        hmn(3, 2),
        heisenberg(2),
        threadlike(5),
        direct_product(heisenberg(1), abelian(2)),
    ):
        res = generic_stratum(flag_of(g), mode="symbolic")
        assert res.ind >= center(g).dim


def test_sampled_mode_requires_samples():
    with pytest.raises(ValueError):
        generic_stratum(flag_of(abelian(2)), mode="sampled", samples=0)


def test_sampled_certification_evidence():
    res = generic_stratum(flag_of(heisenberg(1)), mode="sampled", samples=30, seed=0)
    cert = res.certification
    assert cert["mode"] == "sampled" and cert["samples"] == 30
    assert 1 <= cert["agreeing_samples"] <= 30


# --- enumeration -----------------------------------------------------------------


def test_enumerate_h3_two_strata():
    g = heisenberg(1)
    probes = [dual_functional_by_name(g, "Z"), dual_functional_by_name(g, "X1")]
    found = enumerate_strata(flag_of(g), 50, seed=1, extra_points=probes)
    assert len(found) == 2
    assert {s.label for s in found} == {((), (), (2, 3)), ((), (), ())}


def test_enumerate_abelian_single_stratum():
    found = enumerate_strata(flag_of(abelian(3)), 10, seed=0)
    assert len(found) == 1 and found[0].orbit_dim == 0


def test_enumerate_h32_probes_give_three_labels():
    g = hmn(3, 2)
    probes = [
        dual_functional_by_name(g, "Y2"),
        dual_functional_by_name(g, "Y1"),
        dual_functional_by_name(g, "Y0"),
    ]
    found = enumerate_strata(flag_of(g), 30, seed=3, extra_points=probes)
    assert len(found) >= 3
    dims = {s.orbit_dim for s in found}
    assert {0, 2, 4} <= dims


# --- layering ----------------------------------------------------------------------


def _layers(g, samples=50, seed=5):
    flag = flag_of(g)
    probes = [zero_functional(g)] + [
        dual_functional_by_name(g, s) for s in g.basis_names
    ]
    found = enumerate_strata(flag, samples, seed=seed, extra_points=probes)
    return composition_layers(flag, found)


def test_layers_h3():
    report = _layers(heisenberg(1))
    assert len(report.layers) == 2
    first, last = report.layers
    assert first.orbit_dim == 2 and not first.is_character_layer
    assert last.is_character_layer and last.character_dim == 2


def test_layers_abelian():
    report = _layers(abelian(3))
    assert len(report.layers) == 1
    assert report.layers[0].is_character_layer
    assert report.layers[0].character_dim == 3


def test_layers_h22():
    report = _layers(hmn(2, 2))
    assert len(report.layers) >= 3
    assert report.layers[0].orbit_dim == 4
    assert report.layers[-1].is_character_layer
    assert report.layers[-1].character_dim == 3


def test_layers_sorted_and_character_last():
    g = hmn(3, 2)
    report = _layers(g)
    labels = [l.label for l in report.layers]
    for a, b in zip(labels, labels[1:]):
        assert compare_fine_labels(a, b) == -1
    assert report.layers[-1].label == character_label(g.dim)
    assert sum(1 for l in report.layers if l.orbit_dim == 0) == 1


def test_layers_first_label_matches_index_result():
    for g in (heisenberg(2), hmn(2, 2), threadlike(4)):
        report = _layers(g)
        res = generic_stratum(flag_of(g), mode="symbolic")
        assert report.layers[0].label == res.generic_fine
        assert g.dim - len(report.layers[0].label[-1]) == res.ind


def test_layers_missing_character_raises():
    g = heisenberg(1)
    flag = flag_of(g)
    found = enumerate_strata(flag, 5, seed=0, extra_points=[dual_functional_by_name(g, "Z")])
    only_generic = [s for s in found if s.label != character_label(3)]
    with pytest.raises(ValueError):
        composition_layers(flag, only_generic)


def test_representatives_have_distinct_jump_data():
    g = hmn(3, 2)
    flag = flag_of(g)
    found = enumerate_strata(
        flag,
        40,
        seed=7,
        extra_points=[dual_functional_by_name(g, s) for s in g.basis_names],
    )
    for s in found:
        assert fine_jump_tuple(flag, s.representative) == s.label
    assert len({s.label for s in found}) == len(found)
