"""Integral structure constants are stored as int, and answer exactly as Fraction ones do.

`lie_algebra` keeps a coefficient whose denominator is 1 as an ``int``, so
the integer rows of a ``Subspace`` meet an integral table in ``int``
arithmetic.  These tests check that no float appears anywhere an ``int``
now meets an ``int`` (a ``/`` of two ints), and that every answer equals
the one computed from the same table with every coefficient a ``Fraction``.
"""

from fractions import Fraction
from random import Random

from _corpus import corpus

from nilorbit.algebra import (
    LieAlgebra,
    NonNilpotentError,
    center,
    change_basis,
    derived_subalgebra,
    direct_product,
    is_ideal,
    jordan_holder_flag,
    lie_algebra,
    lower_central_series,
    quotient,
    validate_algebra,
)
from nilorbit.coadjoint import Functional, coadjoint_move, isotropy, random_functional, random_vector
from nilorbit.families import abelian, heisenberg, hmn, random_unimodular, recognize_heisenberg_times_abelian, threadlike
from nilorbit.linalg import Subspace, unit_vec
from nilorbit.strata import _symbolic_fine_label, classify_point

F = Fraction


def _halved(g):
    """g in the basis X_1 / 2, X_2, ...: the brackets [X_1 / 2, X_j] carry the constant 1/2."""
    rows = [list(unit_vec(g.dim, i)) for i in range(g.dim)]
    rows[0][0] = F(1, 2)
    return change_basis(g, rows)


def _as_fractions(g):
    """The same table with every coefficient a Fraction, built without lie_algebra."""
    table = tuple((i, j, tuple((k, F(c)) for k, c in coeffs)) for i, j, coeffs in g.brackets)
    return LieAlgebra(g.dim, g.basis_names, table)


def _valid_algebras():
    """Corpus draws, the families, seeded dense basis changes and two tables with a constant 1/2."""
    out = list(corpus(17, 30))
    out += [heisenberg(2), hmn(2, 3), hmn(3, 2), threadlike(6), abelian(3), direct_product(heisenberg(1), abelian(2))]
    rng = Random(5)
    for base in (hmn(2, 2), direct_product(heisenberg(2), abelian(1)), threadlike(5)):
        out += [change_basis(base, random_unimodular(base.dim, rng)) for _ in range(2)]
    out += [_halved(hmn(2, 2)), _halved(change_basis(heisenberg(2), random_unimodular(5, rng)))]
    return out


def _random_tables(rng, count):
    """Tables with int and 1/2 constants, some failing Jacobi or nilpotency."""
    out = []
    for _ in range(count):
        m = rng.randint(2, 6)
        brackets = {}
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < 0.35:
                    brackets[(i, j)] = {k: F(rng.randint(-2, 2), rng.randint(1, 2)) for k in range(m) if rng.random() < 0.4}
        out.append(lie_algebra(m, [f"X{i}" for i in range(1, m + 1)], brackets))
    return out


def _subspaces(g, rng):
    """Center, [g, g], every unit line and a seeded span: ideals and non-ideals."""
    m = g.dim
    subs = [center(g), derived_subalgebra(g)]
    subs += [Subspace.from_vectors(m, [unit_vec(m, i)]) for i in range(m)]
    subs.append(Subspace.from_vectors(m, [random_vector(g, rng, 2) for _ in range(2)]))
    return subs


def _entries(g):
    return [c for _, _, coeffs in g.brackets for _, c in coeffs]


def _no_float(values):
    return not any(isinstance(c, float) for c in values)


def _int_when_integral(g):
    return all(type(c) is (int if c.denominator == 1 else Fraction) for c in _entries(g))


def test_integral_constants_are_ints_and_no_float_appears():
    """Tables, witnesses, coadjoint moves and bases over int tables hold only int and Fraction entries."""
    rng = Random(41)
    rational = witnesses = 0
    for g in _valid_algebras():
        m = g.dim
        assert _int_when_integral(g)
        rational += any(type(c) is Fraction for c in _entries(g))
        chain, _ = lower_central_series(g)
        tables = [quotient(g, ideal) for ideal in [center(g)] + chain]
        tables += [change_basis(g, random_unimodular(m, rng)), _halved(g), direct_product(g, heisenberg(1))]
        assert all(map(_int_when_integral, tables))
        for sub in _subspaces(g, rng) + chain:
            ok, witness = is_ideal(g, sub)
            assert ok or _no_float(witness[1] + witness[2])
            assert all(_no_float(row) for row in sub.basis)
            witnesses += not ok
        xi = random_functional(g, rng)
        assert all(_no_float(row) for row in isotropy(g, xi)[0].basis)
        x = random_vector(g, rng)
        ints = Functional(g, tuple(int(c) for c in xi.coords))  # int coordinates meet int constants
        for point in (xi, ints):
            for step in (x, tuple(int(c) for c in x)):
                moved = coadjoint_move(g, point, step)
                assert _no_float(moved.coords) and moved == coadjoint_move(_as_fractions(g), point, step)
    assert rational >= 2 and witnesses >= 100, (rational, witnesses)


def test_int_table_answers_equal_the_fraction_table_answers():
    """Flags, series, centre, [g, g], diagnostics, ideals, quotients, basis changes, labels and recognition."""
    rng = Random(43)
    algebras = _valid_algebras()
    for g in algebras:
        gf = _as_fractions(g)
        assert g == gf and {type(c) for c in _entries(gf)} <= {Fraction}
        assert validate_algebra(g) == validate_algebra(gf) == []
        chain, step = lower_central_series(g)
        assert (chain, step) == lower_central_series(gf)
        flag, flag_f = jordan_holder_flag(g, chain), jordan_holder_flag(gf)
        assert flag.rows == flag_f.rows and flag.pair_support == flag_f.pair_support
        assert center(g) == center(gf) and derived_subalgebra(g) == derived_subalgebra(gf)
        for sub in _subspaces(g, rng) + chain:
            assert is_ideal(g, sub) == is_ideal(gf, sub)
        for ideal in [center(g)] + chain:
            assert quotient(g, ideal).brackets == quotient(gf, ideal).brackets
        p = random_unimodular(g.dim, rng)
        assert change_basis(g, p).brackets == change_basis(gf, p).brackets
        assert _halved(g).brackets == _halved(gf).brackets
        for _ in range(3):
            xi = random_functional(g, rng)
            assert classify_point(flag, xi) == classify_point(flag_f, Functional(gf, xi.coords))
        if g.dim <= 7:
            assert _symbolic_fine_label(flag) == _symbolic_fine_label(flag_f)
        assert recognize_heisenberg_times_abelian(g) == recognize_heisenberg_times_abelian(gf)
    halved = _halved(hmn(2, 2))
    assert (0, 2, ((3, F(1, 2)),)) in halved.brackets  # [X1 / 2, Y0] = Y1 / 2 survives as a Fraction
    assert quotient(halved, center(halved)).brackets == ((0, 2, ((3, F(1, 2)),)),)
    assert direct_product(abelian(1), halved).brackets[0] == (1, 3, ((4, F(1, 2)),))


def test_int_table_diagnostics_equal_the_fraction_table_diagnostics_on_broken_tables():
    """Jacobi failures, non-nilpotent series, centres and ideal witnesses of mixed int and 1/2 tables."""
    rng = Random(44)
    seen = {"valid": 0, "jacobi": 0, "non_nilpotent": 0}
    for g in _random_tables(rng, 200):
        gf = _as_fractions(g)
        diags = validate_algebra(g)
        assert diags == validate_algebra(gf)
        assert center(g) == center(gf) and derived_subalgebra(g) == derived_subalgebra(gf)
        for sub in _subspaces(g, rng):
            assert is_ideal(g, sub) == is_ideal(gf, sub)
        z = center(g)
        assert quotient(g, z).brackets == quotient(gf, z).brackets
        try:
            chain, _ = lower_central_series(g)
        except NonNilpotentError as e:
            try:
                lower_central_series(gf)
            except NonNilpotentError as ef:
                assert e.stabilized == ef.stabilized
            else:
                raise AssertionError("the Fraction table is nilpotent")
        else:
            assert (chain, len(chain) - 1) == lower_central_series(gf)
        for kind in {d.kind for d in diags} or {"valid"}:
            seen[kind] += 1
    assert min(seen.values()) >= 10, seen
