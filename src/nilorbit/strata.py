"""Stratum orderings, classification, generic stratum, index, and layering.

Index sets carry the total order  e1 < e2  iff  min(e1 \\ e2) < min(e2 \\ e1)
with min(empty) = infinity, so the empty set is the maximum.  Fine labels are
m-tuples of index sets compared lexicographically; both scan directions
occur in practice, so the variant is a parameter everywhere and every
report records which one was used.  The order is a sort key: an index set
maps to its sorted elements followed by infinity, and a fine label to the
tuple of its components' keys (reversed for lex_descending), so plain tuple
comparison decides it.  The set-difference rule itself is
``oracle_compare_index_sets`` in ``tests/_oracles.py``.

Point labels and symbolic labels come from the same rank-profile rule
(``coadjoint.fine_tuple_from_pivots``).  The symbolic generic label treats the
dual coordinates as indeterminates and reads every J^k from one rank-profile
pass over the ``Poly`` entries of the form: ``linalg.echelon_profile``, the
loop that labels points, with ``polys.strip_row`` as its row normaliser.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import inf
from random import Random

from .algebra import Flag, derived_subalgebra
from .coadjoint import (
    Functional,
    fine_jump_tuple,
    fine_tuple_from_pivots,
    random_functional,
    skew_form,
)
from .errors import UsageError
from .formats import ORDER_VARIANTS
from .linalg import echelon_profile
from .records import Record

IndexSetLabel = tuple[int, ...]
FineLabel = tuple[IndexSetLabel, ...]


def _index_set_key(e: Iterable[int]) -> tuple:
    """Sort key of an index set: its distinct elements in increasing order, then infinity.

    Two keys agree up to the first element the sets do not share; there the
    smaller entry is the smaller of min(e1 \\ e2) and min(e2 \\ e1), on its
    own set's side, with the sentinel standing for the minimum of an empty
    difference.  So keys compare as the sets do, and the empty set, key
    (inf,), is the maximum.
    """
    return (*sorted(set(e)), inf)


def _fine_label_key(eps: FineLabel, order_variant: str = "lex_ascending") -> tuple:
    """Sort key of a fine label: its components' keys, last first for lex_descending."""
    if order_variant not in ORDER_VARIANTS:
        raise ValueError(f"unknown order variant {order_variant!r}")
    keys = tuple(_index_set_key(e) for e in eps)
    return keys[::-1] if order_variant == "lex_descending" else keys


def _sign(a, b) -> int:
    return (a > b) - (a < b)


def compare_index_sets(e1: Iterable[int], e2: Iterable[int]) -> int:
    """-1, 0 or 1; the empty set is the maximum of the order."""
    return _sign(_index_set_key(e1), _index_set_key(e2))


def compare_fine_labels(
    eps1: FineLabel, eps2: FineLabel, order_variant: str = "lex_ascending"
) -> int:
    if len(eps1) != len(eps2):
        raise ValueError("fine labels of different lengths")
    return _sign(_fine_label_key(eps1, order_variant), _fine_label_key(eps2, order_variant))


def classify_point(flag: Flag, xi: Functional) -> tuple[IndexSetLabel, FineLabel]:
    """Coarse and fine stratum labels of a dual point."""
    fine = fine_jump_tuple(flag, xi)
    coarse = fine[-1] if fine else ()
    return coarse, fine


def character_label(m: int) -> FineLabel:
    return tuple(() for _ in range(m))


class IndexResult(Record):
    __slots__ = ("ind", "generic_label", "generic_fine", "certification")


def _symbolic_fine_label(flag: Flag) -> FineLabel:
    """Generic fine label with the dual coordinates treated as indeterminates."""
    from .polys import Poly, strip_row  # here, so that point labels and sampled strata leave polys unloaded

    m = flag.dim
    coords = [Poly.variable(m, i) for i in range(m)]
    pivot_row, _ = echelon_profile(skew_form(flag.pair_support, coords, Poly.zero(m)), m, strip_row)
    return fine_tuple_from_pivots(pivot_row)


def generic_stratum(
    flag: Flag,
    mode: str = "symbolic",
    samples: int = 64,
    seed: int = 0,
    bound: int = 7,
) -> IndexResult:
    """The generic (minimal) stratum and the index ind = m - |e1|.

    Symbolic mode decides every rank test over the field of rational
    functions in the dual coordinates; sampled mode classifies random points
    and keeps the order-minimal realized label, reporting how many samples
    agreed with it.
    """
    m = flag.dim
    if mode == "symbolic":
        fine = _symbolic_fine_label(flag)
        coarse = fine[-1] if fine else ()
        cert = {"mode": "symbolic"}
    elif mode == "sampled":
        if samples < 1:
            raise UsageError("sampled mode needs at least one sample")
        rng = Random(seed)
        counts: dict[FineLabel, int] = {}
        for _ in range(samples):
            xi = random_functional(flag.algebra, rng, bound)
            fine_label = fine_jump_tuple(flag, xi)
            counts[fine_label] = counts.get(fine_label, 0) + 1
        fine = min(counts, key=_fine_label_key)
        coarse = fine[-1] if fine else ()
        cert = {
            "mode": "sampled",
            "samples": samples,
            "seed": seed,
            "agreeing_samples": counts[fine],
        }
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return IndexResult(m - len(coarse), coarse, fine, cert)


class StratumSample(Record):
    __slots__ = ("label", "representative", "orbit_dim")


def enumerate_strata(
    flag: Flag,
    samples: int,
    seed: int = 0,
    extra_points: Sequence[Functional] = (),
    bound: int = 7,
) -> list[StratumSample]:
    """Distinct fine labels found by sampling plus caller probes.

    The result is only a lower bound for the true stratum set; reports must
    carry that caveat.  Output is sorted by label in ascending order of the
    default variant, with one representative per label (probes win ties).
    """
    if samples < 1:
        raise UsageError("need at least one sample")
    rng = Random(seed)
    points = list(extra_points) + [
        random_functional(flag.algebra, rng, bound) for _ in range(samples)
    ]
    found: dict[FineLabel, Functional] = {}
    for xi in points:
        label = fine_jump_tuple(flag, xi)
        if label not in found:
            found[label] = xi
    out = [
        StratumSample(label, xi, len(label[-1]) if label else 0)
        for label, xi in found.items()
    ]
    out.sort(key=lambda s: _fine_label_key(s.label))
    return out


class Layer(Record):
    __slots__ = ("label", "representative", "orbit_dim", "is_character_layer", "character_dim")


class LayerReport(Record):
    __slots__ = ("order_variant", "layers")


def composition_layers(
    flag: Flag,
    strata: Sequence[StratumSample],
    order_variant: str = "lex_ascending",
) -> LayerReport:
    """Order realized strata into the composition-series layering.

    Layers are sorted so the generic label comes first and the character
    label (all components empty) comes last; the character layer carries the
    dimension of the annihilator of [g, g], the parameter space of the
    characters.
    """
    m = flag.dim
    char = character_label(m)
    labels = [s.label for s in strata]
    if char not in labels:
        raise ValueError(
            "character stratum missing from the supplied strata; "
            "every nilpotent algebra has characters"
        )
    ordered = sorted(strata, key=lambda s: _fine_label_key(s.label, order_variant))
    char_dim = m - derived_subalgebra(flag.algebra).dim
    layers = []
    for s in ordered:
        is_char = s.label == char
        layers.append(
            Layer(s.label, s.representative, s.orbit_dim, is_char, char_dim if is_char else None)
        )
    if not layers[-1].is_character_layer:
        raise RuntimeError("character layer did not sort last; ordering is broken")
    return LayerReport(order_variant, tuple(layers))
