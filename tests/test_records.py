"""The package's records keep the value semantics of frozen PEP 557 classes.

Each record is a slotted plain class (`nilorbit.records`).  For every one,
equal fields give equal objects with the hash of the field tuple, another
class never compares equal, fields can be neither assigned nor deleted, copy
and pickle restore every field, and the repr is the one the frozen classes
printed, given here as literals.
"""

import copy
import importlib
import pickle
from fractions import Fraction as F

import pytest

from nilorbit.algebra import Diagnostic, Flag, LieAlgebra
from nilorbit.coadjoint import AffineOrbit, FlatnessCertificate, FlatnessResult, Functional
from nilorbit.errors import UsageError
from nilorbit.families import FamilySpec, HmnReport, Recognition, VerifyItem
from nilorbit.limits import DirectionFamily, LimitReport, OneParamFunctional, OrbitClass
from nilorbit.linalg import Subspace
from nilorbit.polys import Poly
from nilorbit.strata import IndexResult, Layer, LayerReport, StratumSample

G = LieAlgebra(2, ("X", "Y"), ())
XI = Functional(G, (F(1), F(-1, 2)))
V = Subspace(2, ((F(1), F(0)),), (0,))
P = Poly(1, (((0,), F(1)), ((2,), F(-3))))
CERT = FlatnessCertificate(False, 2, 1, (F(0), F(1)))
ITEM = VerifyItem("(ii)", False, True, "")
ORBIT = OrbitClass(XI, 0, 5)

G_REPR = "LieAlgebra(dim=2, basis_names=('X', 'Y'), brackets=())"
XI_REPR = f"Functional(algebra={G_REPR}, coords=(Fraction(1, 1), Fraction(-1, 2)))"
V_REPR = "Subspace(ambient_dim=2, basis=((Fraction(1, 1), Fraction(0, 1)),), pivots=(0,))"
P_REPR = "Poly(nvars=1, terms=(((0,), Fraction(1, 1)), ((2,), Fraction(-3, 1))))"

# (class, its fields in order, the repr of the frozen class at the same fields)
CASES = [
    (
        Diagnostic,
        dict(kind="jacobi", message="Jacobi identity fails", data=(1, 2, 3)),
        "Diagnostic(kind='jacobi', message='Jacobi identity fails', data=(1, 2, 3))",
    ),
    (
        LieAlgebra,
        dict(dim=2, basis_names=("X", "Y"), brackets=((0, 1, ((1, F(2)),)),)),
        "LieAlgebra(dim=2, basis_names=('X', 'Y'), brackets=((0, 1, ((1, Fraction(2, 1)),)),))",
    ),
    (
        Flag,
        dict(algebra=G, rows=((F(1), F(0)), (F(0), F(1)))),
        f"Flag(algebra={G_REPR}, rows=((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1))))",
    ),
    (Functional, dict(algebra=G, coords=(F(1), F(-1, 2))), XI_REPR),
    (AffineOrbit, dict(base=XI, direction=V), f"AffineOrbit(base={XI_REPR}, direction={V_REPR})"),
    (
        FlatnessCertificate,
        dict(isotropy_is_ideal=True, samples_checked=3, samples_inside=3, escape_witness=None),
        "FlatnessCertificate(isotropy_is_ideal=True, samples_checked=3, samples_inside=3, escape_witness=None)",
    ),
    (
        FlatnessResult,
        dict(flat=False, certificate=CERT, orbit=None),
        "FlatnessResult(flat=False, certificate=FlatnessCertificate(isotropy_is_ideal=False, samples_checked=2, "
        "samples_inside=1, escape_witness=(Fraction(0, 1), Fraction(1, 1))), orbit=None)",
    ),
    (FamilySpec, dict(kind="hmn", params=(2, 2)), "FamilySpec(kind='hmn', params=(2, 2))"),
    (
        VerifyItem,
        dict(item="(i)", applicable=True, passed=False, detail="step 3"),
        "VerifyItem(item='(i)', applicable=True, passed=False, detail='step 3')",
    ),
    (
        HmnReport,
        dict(m=2, n=2, items=(ITEM,), notes=("off by one",)),
        "HmnReport(m=2, n=2, items=(VerifyItem(item='(ii)', applicable=False, passed=True, detail=''),), "
        "notes=('off by one',))",
    ),
    (Recognition, dict(d=1, k=0, note=None), "Recognition(d=1, k=0, note=None)"),
    (
        OneParamFunctional,
        dict(algebra=G, coord_polys=(P, Poly(1, ())), t0=F(1, 3)),
        f"OneParamFunctional(algebra={G_REPR}, coord_polys=({P_REPR}, Poly(nvars=1, terms=())), t0=Fraction(1, 3))",
    ),
    (
        DirectionFamily,
        dict(rows=((P, Poly(1, ())),), rank=1, ambient_dim=2),
        f"DirectionFamily(rows=(({P_REPR}, Poly(nvars=1, terms=())),), rank=1, ambient_dim=2)",
    ),
    (OrbitClass, dict(representative=XI, orbit_dim=0, size=5), f"OrbitClass(representative={XI_REPR}, orbit_dim=0, size=5)"),
    (
        LimitReport,
        dict(
            limit_direction=V,
            limit_base=XI,
            generic_rank=2,
            degenerated=True,
            annihilated=("Y",),
            decomposition=(ORBIT,),
            slice_count=3,
            min_orbits_per_slice=1,
            isolated_point_flag=True,
            m_dim=1,
            samples=5,
            seed=7,
        ),
        f"LimitReport(limit_direction={V_REPR}, limit_base={XI_REPR}, generic_rank=2, degenerated=True, "
        f"annihilated=('Y',), decomposition=(OrbitClass(representative={XI_REPR}, orbit_dim=0, size=5),), "
        "slice_count=3, min_orbits_per_slice=1, isolated_point_flag=True, m_dim=1, samples=5, seed=7)",
    ),
    (Subspace, dict(ambient_dim=2, basis=((F(1), F(0)),), pivots=(0,)), V_REPR),
    (Poly, dict(nvars=1, terms=(((0,), F(1)), ((2,), F(-3)))), P_REPR),
    (
        IndexResult,
        dict(ind=2, generic_label=(1, 2), generic_fine=((), (1, 2)), certification={"mode": "symbolic"}),
        "IndexResult(ind=2, generic_label=(1, 2), generic_fine=((), (1, 2)), certification={'mode': 'symbolic'})",
    ),
    (
        StratumSample,
        dict(label=((), (1, 2)), representative=XI, orbit_dim=2),
        f"StratumSample(label=((), (1, 2)), representative={XI_REPR}, orbit_dim=2)",
    ),
    (
        Layer,
        dict(label=((), ()), representative=XI, orbit_dim=0, is_character_layer=True, character_dim=2),
        f"Layer(label=((), ()), representative={XI_REPR}, orbit_dim=0, is_character_layer=True, character_dim=2)",
    ),
    (LayerReport, dict(order_variant="lex_ascending", layers=()), "LayerReport(order_variant='lex_ascending', layers=())"),
]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_value_semantics(cls, fields, text):
    values = tuple(fields.values())
    a, b = cls(**fields), cls(*values)
    assert a == b and not a != b
    assert repr(a) == repr(b) == text
    assert tuple(getattr(a, name) for name in fields) == values
    try:
        expected_hash = hash(values)
    except TypeError:  # IndexResult holds a dict, and so is unhashable, as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected_hash

    # same field values, another class: unequal both ways
    twin = type("Twin", (cls,), {"__slots__": ()})(*values)
    assert a.__eq__(twin) is NotImplemented
    assert a != twin and twin != a

    assert not hasattr(a, "__dict__")
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.undeclared = 1

    for restored in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(restored) is cls and restored == a and repr(restored) == text
        assert all(getattr(restored, name) == getattr(a, name) for name in cls.__slots__)


def test_every_record_class_is_covered():
    from nilorbit.records import Record

    records = {
        obj
        for module in {cls.__module__ for cls, _, _ in CASES}
        for obj in vars(importlib.import_module(module)).values()
        if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
    }
    assert records == {cls for cls, _, _ in CASES} and len(records) == 21


def test_records_of_different_classes_with_equal_fields_differ():
    assert AffineOrbit(XI, V) != LayerReport(XI, V)
    assert Recognition(1, 2, None) != DirectionFamily(1, 2, None)
    assert Poly(1, ()) != AffineOrbit(1, ())


def test_generic_constructor_rejects_missing_extra_and_repeated_fields():
    assert Recognition(1, k=0, note=None) == Recognition(1, 0, None)
    for build in (
        lambda: Recognition(1, 0),
        lambda: Recognition(1, 0, None, 4),
        lambda: Recognition(1, 0, note=None, size=4),
        lambda: Recognition(1, 0, None, d=1),
    ):
        with pytest.raises(TypeError):
            build()


class Named(Recognition):
    __slots__ = ("name",)


def test_a_subclass_adds_its_fields_after_its_bases():
    named = Named(1, 0, None, "h3")
    assert repr(named) == "Named(d=1, k=0, note=None, name='h3')"
    assert named == Named(d=1, k=0, note=None, name="h3") != Named(1, 0, None, "h5")


def test_flag_pair_support_is_derived_and_left_out():
    g = LieAlgebra(2, ("X", "Y"), ((0, 1, ((1, F(1)),)),))
    flag = Flag(g, ((F(1), F(0)), (F(0), F(1))))
    assert flag.pair_support == ((0, 1, ((1, F(1)),)),)
    assert hash(flag) == hash((g, flag.rows))
    assert "pair_support" not in repr(flag)


def test_defaults():
    assert Diagnostic("malformed", "m").data == ()
    assert repr(Diagnostic("malformed", "m")) == "Diagnostic(kind='malformed', message='m', data=())"
    xi_t = OneParamFunctional(algebra=G, coord_polys=(P, P))
    assert xi_t.t0 == F(0) and type(xi_t.t0) is F
    assert xi_t == OneParamFunctional(G, (P, P), F(0))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Functional(G, (F(1),)), ValueError, "functional has 1 coordinates for dimension 2"),
        (lambda: OneParamFunctional(G, (P,)), ValueError, "coordinate count does not match the algebra dimension"),
        (
            lambda: FamilySpec("lie", (3,)),
            UsageError,
            "unknown family kind 'lie'; known kinds: heisenberg, abelian, hmn, threadlike",
        ),
        (lambda: FamilySpec("hmn", (2,)), UsageError, "hmn(m, n) needs m >= 1 and n >= 1"),
        (lambda: FamilySpec("heisenberg", (0,)), UsageError, "heisenberg(d) needs d >= 1"),
        (
            lambda: FamilySpec("heisenberg", (200,)),
            UsageError,
            "heisenberg(200) has dimension 401, above the cap of 256",
        ),
    ],
)
def test_construction_errors_keep_class_and_message(build, error, message):
    with pytest.raises(Exception) as exc:
        build()
    assert exc.type is error
    assert str(exc.value) == message
