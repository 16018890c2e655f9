from fractions import Fraction

import pytest

from _oracles import oracle_bracket

from nilorbit.coadjoint import functional
from nilorbit.families import abelian, heisenberg, hmn, threadlike
from nilorbit.formats import (
    FormatError,
    algebra_from_json,
    algebra_hash,
    algebra_to_json,
    frac_parse,
    frac_str,
    functional_from_list,
    functional_to_list,
)
from nilorbit.linalg import unit_vec

F = Fraction


def test_frac_strings():
    assert frac_str(F(1)) == "1"
    assert frac_str(F(-3, 4)) == "-3/4"
    assert frac_parse("5/10") == F(1, 2)
    with pytest.raises(FormatError):
        frac_parse("1/0")
    with pytest.raises(FormatError):
        frac_parse("a/b")


def test_frac_parse_reads_only_the_written_grammar():
    assert frac_parse("-12/8") == F(-3, 2) and frac_parse("+7") == 7 and frac_parse(3) == 3
    for x in (F(0), F(-5), F(22, 7), F(-1, 10**30)):
        assert frac_parse(frac_str(x)) == x
    # exponents make Fraction compute 10**e, so "1e4000000" alone took seconds
    for bad in ("1e5000", "1E2", "0.5", ".5", "1/2/3", " 1", "1_000", "\u0661", "inf", "nan", "", "7" * 5000):
        with pytest.raises(FormatError):
            frac_parse(bad)


def test_algebra_roundtrip_bit_exact():
    for g in (heisenberg(2), hmn(3, 2), abelian(0), threadlike(5)):
        text = algebra_to_json(g)
        again = algebra_to_json(algebra_from_json(text))
        assert again == text
        h = algebra_from_json(text)
        assert h.dim == g.dim and h.basis_names == g.basis_names and h.brackets == g.brackets


def test_algebra_json_shape():
    text = algebra_to_json(heisenberg(1))
    assert '"basis"' in text and '"brackets"' in text and '"coeffs"' in text
    g = algebra_from_json(
        '{"dim": 3, "basis": ["Z", "X", "Y"],'
        ' "brackets": [{"i": 2, "j": 3, "coeffs": {"1": "1"}}]}'
    )
    assert oracle_bracket(g, unit_vec(3, 1), unit_vec(3, 2)) == (F(1), F(0), F(0))


def test_algebra_from_json_rejects_malformed():
    with pytest.raises(FormatError):
        algebra_from_json("not json")
    with pytest.raises(FormatError):
        algebra_from_json('{"dim": 2, "basis": ["a"], "brackets": []}')
    with pytest.raises(FormatError):
        algebra_from_json(
            '{"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 1, "j": 5, "coeffs": {}}]}'
        )
    with pytest.raises(FormatError):
        algebra_from_json(
            '{"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 2, "j": 1, "coeffs": {}}]}'
        )
    with pytest.raises(FormatError):
        algebra_from_json(
            '{"dim": 2, "basis": ["a", "b"],'
            ' "brackets": [{"i": 1, "j": 2, "coeffs": {"1": "1/0"}}]}'
        )
    with pytest.raises(FormatError):
        algebra_from_json(
            '{"dim": 2, "basis": ["a", "b"], "brackets": ['
            '{"i": 1, "j": 2, "coeffs": {}}, {"i": 1, "j": 2, "coeffs": {}}]}'
        )


def test_algebra_hash_distinguishes():
    assert algebra_hash(heisenberg(1)) == algebra_hash(heisenberg(1))
    assert algebra_hash(heisenberg(1)) != algebra_hash(heisenberg(2))


def test_functional_roundtrip():
    g = heisenberg(1)
    xi = functional(g, [F(1, 2), F(-3), F(0)])
    lst = functional_to_list(xi)
    assert lst == ["1/2", "-3", "0"]
    assert functional_from_list(g, lst).coords == xi.coords
    with pytest.raises(FormatError):
        functional_from_list(g, ["1", "2"])
