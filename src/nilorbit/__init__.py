"""Exact coadjoint-orbit stratification toolkit for nilpotent Lie algebras.

Everything is computed over the rationals: structure constants, skew forms,
isotropy algebras, jump sets, stratum orderings, the group index, flat-orbit
certificates and Grassmannian limits of one-parameter orbit families.
"""

__version__ = "0.1.0"

from .linalg import Subspace
from .algebra import (
    LieAlgebra,
    Flag,
    NonNilpotentError,
    NotAnIdealError,
    validate_algebra,
    lower_central_series,
    center,
    derived_subalgebra,
    jordan_holder_flag,
    quotient,
    direct_product,
    change_basis,
)
from .coadjoint import (
    Functional,
    AffineOrbit,
    bform_matrix,
    isotropy,
    jump_set,
    fine_jump_tuple,
    coadjoint_move,
    is_flat_orbit,
)
from .strata import (
    compare_index_sets,
    compare_fine_labels,
    classify_point,
    generic_stratum,
    enumerate_strata,
    composition_layers,
)
from .families import (
    FamilySpec,
    generate,
    heisenberg,
    abelian,
    hmn,
    threadlike,
    verify_hmn,
    recognize_heisenberg_times_abelian,
)
from .limits import (
    OneParamFunctional,
    direction_family,
    subspace_limit,
    orbit_limit_set,
)

__all__ = [
    "Subspace",
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
    "Functional",
    "AffineOrbit",
    "bform_matrix",
    "isotropy",
    "jump_set",
    "fine_jump_tuple",
    "coadjoint_move",
    "is_flat_orbit",
    "compare_index_sets",
    "compare_fine_labels",
    "classify_point",
    "generic_stratum",
    "enumerate_strata",
    "composition_layers",
    "FamilySpec",
    "generate",
    "heisenberg",
    "abelian",
    "hmn",
    "threadlike",
    "verify_hmn",
    "recognize_heisenberg_times_abelian",
    "OneParamFunctional",
    "direction_family",
    "subspace_limit",
    "orbit_limit_set",
]
