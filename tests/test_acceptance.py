"""Acceptance suite: one test per criterion, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines.  Every check
is exact rational arithmetic; the only knobs are sample counts and seeds,
which are pinned here, and each criterion asserts its stated time budget.
"""

import subprocess
import sys
import time
from fractions import Fraction
from random import Random

from conftest import flag_of
from _oracles import oracle_fine_tuple, oracle_membership_fine_tuple, oracle_rank

from nilorbit.algebra import center, change_basis, direct_product, quotient
from nilorbit.coadjoint import (
    Functional,
    bform_matrix,
    coadjoint_move,
    dual_functional_by_name,
    fine_jump_tuple,
    is_flat_orbit,
    isotropy,
    jump_set,
    random_functional,
    random_vector,
    zero_functional,
)
from nilorbit.families import (
    abelian,
    heisenberg,
    hmn,
    random_unimodular,
    recognize_heisenberg_times_abelian,
    threadlike,
    verify_hmn,
)
from nilorbit.formats import algebra_to_json
from nilorbit.limits import one_param_functional, orbit_limit_set
from nilorbit.linalg import Subspace, unit_vec
from nilorbit.strata import (
    classify_point,
    composition_layers,
    enumerate_strata,
    generic_stratum,
)

F = Fraction


def _verdict(num, desc, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {desc} ({elapsed:.2f}s, budget {budget}s)")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def _default_probes(g):
    return [zero_functional(g)] + [dual_functional_by_name(g, s) for s in g.basis_names]


def test_criterion_1_heisenberg_layering():
    start = time.time()
    g = heisenberg(1)
    flag = flag_of(g)
    found = enumerate_strata(flag, 50, seed=0, extra_points=_default_probes(g))
    report = composition_layers(flag, found)
    ok = len(report.layers) == 2
    generic, chars = report.layers
    ok = ok and generic.orbit_dim == 2 and not generic.is_character_layer
    ok = ok and chars.is_character_layer and chars.character_dim == 2
    # the generic representative set is closed under scaling
    for t in (F(2), F(-1), F(1, 3), F(-7)):
        scaled = generic.representative.scale(t)
        coarse, fine = classify_point(flag, scaled)
        ok = ok and fine == generic.label
    _verdict(1, "h3 layering: generic plane over a character plane", ok, time.time() - start, 1.0)


def test_criterion_2_verify_hmn():
    start = time.time()
    ok = True
    for m, n in ((2, 2), (3, 2), (3, 3), (4, 3)):
        rep = verify_hmn(m, n, seed=0, flat_samples=20)
        ok = ok and rep.all_passed
        g = hmn(m, n)
        iso, odim = isotropy(g, dual_functional_by_name(g, f"Y{n}"))
        ok = ok and iso == center(g) and odim == 2 * n
    _verdict(2, "h(m,n) verification items (i)-(v) on four pairs", ok, time.time() - start, 10.0)


def test_criterion_3_index_formulas():
    start = time.time()
    ok = True

    def both_modes(g):
        flag = flag_of(g)
        sym = generic_stratum(flag, mode="symbolic")
        smp = generic_stratum(flag, mode="sampled", samples=48, seed=1)
        return sym, sym.ind == smp.ind and sym.generic_label == smp.generic_label

    for d in (1, 2, 3):
        for k in (0, 1, 2, 3):
            sym, agree = both_modes(direct_product(heisenberg(d), abelian(k)))
            ok = ok and agree and sym.ind == k + 1
    for m in range(1, 7):
        sym, agree = both_modes(abelian(m))
        ok = ok and agree and sym.ind == m
    for m in range(2, 5):
        for n in range(2, m + 1):
            sym, agree = both_modes(hmn(m, n))
            ok = ok and agree and sym.ind == 1 + (m - n)
    _verdict(3, "index formulas, symbolic and sampled agreeing", ok, time.time() - start, 30.0)


def _invariance_fixtures():
    fixtures = [abelian(k) for k in (1, 3, 6)]
    fixtures += [
        direct_product(heisenberg(d), abelian(k)) for d in (1, 2, 3) for k in (0, 1, 2)
    ]
    fixtures += [hmn(m, n) for m in range(1, 5) for n in range(1, 5)]
    fixtures += [threadlike(n) for n in (3, 4, 5)]
    return fixtures


def test_criterion_4_jump_invariance_suite():
    start = time.time()
    failures = 0
    for g in _invariance_fixtures():
        flag = flag_of(g)
        rng = Random(4)
        for _ in range(100):
            xi = random_functional(g, rng)
            coarse = jump_set(flag, xi)
            fine = fine_jump_tuple(flag, xi)
            r = oracle_rank(bform_matrix(g, xi))
            _, odim = isotropy(g, xi)
            if not (len(coarse) == r == odim and r % 2 == 0 and fine[-1] == coarse):
                failures += 1
            for _ in range(5):
                t = F(rng.choice([1, 2, 3, 5, 7, -1, -2, -5]), rng.randint(1, 7))
                if jump_set(flag, xi.scale(t)) != coarse:
                    failures += 1
            for _ in range(5):
                x = random_vector(g, rng)
                if jump_set(flag, coadjoint_move(g, xi, x)) != coarse:
                    failures += 1
    _verdict(
        4,
        "jump invariance over 100 seeded points per fixture, zero failures",
        failures == 0,
        time.time() - start,
        60.0,
    )


def test_criterion_5_fine_tuple_oracle_equivalence():
    start = time.time()
    ok = True
    for g in _invariance_fixtures():
        if g.dim > 8:
            continue
        flag = flag_of(g)
        rng = Random(5)
        for _ in range(50):
            xi = random_functional(g, rng)
            fine = fine_jump_tuple(flag, xi)
            if fine != oracle_fine_tuple(g, flag.rows, xi.coords):
                ok = False
            if fine != oracle_membership_fine_tuple(g, flag.rows, xi.coords):
                ok = False
    _verdict(
        5,
        "rank-profile fine tuples equal restricted-form rank oracle and membership-scan oracle",
        ok,
        time.time() - start,
        60.0,
    )


def test_criterion_6_flatness_dichotomy():
    start = time.time()
    ok = True
    for m, n in ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4)):
        g = hmn(m, n)
        rng = Random(6)
        for s in range(10):
            xi = random_functional(g, rng)
            if not is_flat_orbit(g, xi, samples=4, seed=s).flat:
                ok = False
    for n in (4, 5):
        g = threadlike(n)
        flag = flag_of(g)
        generic_size = len(generic_stratum(flag, mode="symbolic").generic_label)
        rng = Random(7)
        checked = 0
        while checked < 10:
            xi = random_functional(g, rng)
            if len(jump_set(flag, xi)) != generic_size:
                continue
            checked += 1
            if is_flat_orbit(g, xi, samples=4, seed=checked).flat:
                ok = False
    _verdict(
        6,
        "flat on all sampled h(m,n) orbits, non-flat on generic threadlike",
        ok,
        time.time() - start,
        30.0,
    )


def test_criterion_7_limit_suite():
    start = time.time()
    ok = True
    cases = {
        (2, 2): ["1", "0", "0", "1", "t"],  # X1* + Y1* + t Y2*
        (3, 2): ["0", "0", "1", "0", "1", "t"],  # X3* + Y1* + t Y2*
    }
    for (m, n), coords in cases.items():
        g = hmn(m, n)
        xi_t = one_param_functional(g, coords)
        rep = orbit_limit_set(g, xi_t, sample_budget=50, seed=7)
        ok = ok and rep.limit_direction.dim == rep.generic_rank
        ok = ok and rep.min_orbits_per_slice >= 2 and not rep.isolated_point_flag
        ok = ok and f"Y{n}" in rep.annihilated

        # classification of limit points agrees with the quotient picture
        y_n = g.basis_names.index(f"Y{n}")
        line = Subspace.from_vectors(g.dim, [unit_vec(g.dim, y_n)])
        q = quotient(g, line)
        target = hmn(m, n - 1)
        ok = ok and q.brackets == target.brackets
        q_flag, t_flag = flag_of(q), flag_of(target)
        rng = Random(17)
        points = [c.representative for c in rep.decomposition]
        for _ in range(20):
            coords_pt = list(rep.limit_base.coords)
            for row in rep.limit_direction.basis:
                c = F(rng.randint(-7, 7))
                coords_pt = [a + c * b for a, b in zip(coords_pt, row)]
            points.append(Functional(g, tuple(coords_pt)))
        for pt in points:
            if pt.coords[y_n] != 0:
                ok = False
                continue
            reduced = tuple(c for i, c in enumerate(pt.coords) if i != y_n)
            if classify_point(q_flag, Functional(q, reduced)) != classify_point(
                t_flag, Functional(target, reduced)
            ):
                ok = False
    _verdict(
        7,
        "limit direction, quotient classification, no isolated points",
        ok,
        time.time() - start,
        30.0,
    )


def test_criterion_8_recognition():
    start = time.time()
    ok = True
    for d in (1, 2, 3):
        for k in (0, 1, 2, 3):
            g = direct_product(heisenberg(d), abelian(k))
            rng = Random(100 * d + k)
            for _ in range(10):
                h = change_basis(g, random_unimodular(g.dim, rng))
                rec = recognize_heisenberg_times_abelian(h)
                if rec is None or (rec.d, rec.k) != (d, k):
                    ok = False
    for m, n in ((1, 2), (2, 2), (3, 2), (2, 3), (3, 3)):
        if recognize_heisenberg_times_abelian(hmn(m, n)) is not None:
            ok = False
    for n in (4, 5):
        if recognize_heisenberg_times_abelian(threadlike(n)) is not None:
            ok = False
    _verdict(
        8,
        "recognition recovers (d, k) under basis change, rejects others",
        ok,
        time.time() - start,
        30.0,
    )


def test_criterion_9_determinism(tmp_path):
    start = time.time()
    h3 = tmp_path / "h3.json"
    h3.write_text(algebra_to_json(heisenberg(1)), encoding="utf-8")
    h22 = tmp_path / "h22.json"
    h22.write_text(algebra_to_json(hmn(2, 2)), encoding="utf-8")
    commands = [
        ["family", "hmn", "3", "2"],
        ["validate", "-i", str(h3)],
        ["series", "-i", str(h3)],
        ["flag", "-i", str(h22)],
        ["classify", '["1","0","0"]', "-i", str(h3), "--seed", "5"],
        ["strata", "-i", str(h22), "--seed", "5"],
        ["layers", "-i", str(h22), "--seed", "5"],
        ["index", "-i", str(h22), "--mode", "sampled", "--seed", "5"],
        ["flat", '["0","0","0","0","1"]', "-i", str(h22), "--seed", "5"],
        ["recognize", "-i", str(h3)],
        ["verify-hmn", "2", "2", "--seed", "5"],
        ["limit", '["0","0","0","1","t"]', "-i", str(h22), "--seed", "5"],
    ]
    ok = True
    for cmd in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "nilorbit.cli", *cmd],
                capture_output=True,
                text=True,
            )
            for _ in range(2)
        ]
        if runs[0].stdout != runs[1].stdout or not runs[0].stdout:
            ok = False
        if runs[0].returncode != runs[1].returncode:
            ok = False
    _verdict(
        9,
        "byte-identical reports for identical inputs and seeds",
        ok,
        time.time() - start,
        60.0,
    )
