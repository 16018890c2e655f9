"""Exact coadjoint-orbit stratification toolkit for nilpotent Lie algebras.

Everything is computed over the rationals: structure constants, skew forms,
isotropy algebras, jump sets, stratum orderings, the group index, flat-orbit
certificates and Grassmannian limits of one-parameter orbit families.

The names below are re-exported lazily (PEP 562): `import nilorbit` imports
no submodule, and `nilorbit.<name>` imports the one module that defines it
on first use.  So `python -m nilorbit.cli` loads only what its command runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "Subspace": "linalg",
    **dict.fromkeys(
        (
            "LieAlgebra",
            "Flag",
            "NonNilpotentError",
            "NotAnIdealError",
            "validate_algebra",
            "lower_central_series",
            "center",
            "derived_subalgebra",
            "jordan_holder_flag",
            "quotient",
            "direct_product",
            "change_basis",
        ),
        "algebra",
    ),
    **dict.fromkeys(
        (
            "Functional",
            "AffineOrbit",
            "bform_matrix",
            "isotropy",
            "jump_set",
            "fine_jump_tuple",
            "coadjoint_move",
            "is_flat_orbit",
        ),
        "coadjoint",
    ),
    **dict.fromkeys(
        (
            "compare_index_sets",
            "compare_fine_labels",
            "classify_point",
            "generic_stratum",
            "enumerate_strata",
            "composition_layers",
        ),
        "strata",
    ),
    **dict.fromkeys(
        (
            "FamilySpec",
            "generate",
            "heisenberg",
            "abelian",
            "hmn",
            "threadlike",
            "verify_hmn",
            "recognize_heisenberg_times_abelian",
        ),
        "families",
    ),
    **dict.fromkeys(
        ("OneParamFunctional", "direction_family", "subspace_limit", "orbit_limit_set"),
        "limits",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
