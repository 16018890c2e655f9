"""JSON encodings of algebras, functionals, subspaces and reports.

The algebra file format is:

    {"dim": 3, "basis": ["Z", "X", "Y"],
     "brackets": [{"i": 2, "j": 3, "coeffs": {"1": "1"}}]}

with 1-based indices, i < j, and rationals written exactly as [+-]p[/q]
with decimal digits ("/1" omitted on emission; no exponents or decimals).
Emission is canonical (sorted keys, fixed indentation), so emitting a parsed
document reproduces it byte for byte.
"""

from __future__ import annotations

import json
import re
import reprlib
from collections.abc import Sequence
from fractions import Fraction

from .algebra import LieAlgebra, lie_algebra
from .errors import UsageError
from .linalg import Subspace

# Input caps, checked before any work that grows with them: the dimension of
# an algebra document or a generated family (algebras take O(dim^2) memory),
# and the exponent of t in a limit family string (a dense coefficient list).
MAX_DIM = 256
MAX_EXPONENT = 1000

# tuple orders of fine labels; the --order-variant choices of every command
ORDER_VARIANTS = ("lex_ascending", "lex_descending")


class FormatError(UsageError):
    pass


def frac_str(x: Fraction) -> str:
    return str(x)  # Fraction renders "p/q" and omits "/1"


_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def frac_parse(text: str) -> Fraction:
    """The rational [+-]p[/q] that frac_str writes, and nothing else."""
    if not _RATIONAL_RE.fullmatch(str(text)):
        raise FormatError(f"bad rational {reprlib.repr(text)}: not of the form [+-]p[/q]")
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as e:  # a zero q, or more digits than int() takes
        raise FormatError(f"bad rational {reprlib.repr(text)}: {e}") from e


def algebra_to_dict(g: LieAlgebra) -> dict:
    brackets = []
    for i, j, coeffs in g.brackets:
        brackets.append(
            {
                "i": i + 1,
                "j": j + 1,
                "coeffs": {str(k + 1): frac_str(c) for k, c in coeffs},
            }
        )
    return {"dim": g.dim, "basis": list(g.basis_names), "brackets": brackets}


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be a JSON integer, got {value!r}")
    return value


def algebra_from_dict(doc) -> LieAlgebra:
    if not isinstance(doc, dict):
        raise FormatError("algebra document must be a JSON object")
    if not {"dim", "basis"} <= doc.keys():
        raise FormatError("malformed algebra document: needs dim and basis")
    dim = _integer(doc["dim"], "dim")
    basis = doc["basis"]
    raw = doc.get("brackets", [])
    if not isinstance(basis, list) or not all(isinstance(s, str) for s in basis):
        raise FormatError("basis must be a JSON array of name strings")
    if not isinstance(raw, list):
        raise FormatError("brackets must be a JSON array")
    if dim < 0:
        raise FormatError(f"negative dimension {dim}")
    if dim > MAX_DIM:
        raise FormatError(f"dimension {dim} is above the cap of {MAX_DIM}")
    if len(basis) != dim:
        raise FormatError(f"{len(basis)} basis names for dimension {dim}")
    if len(set(basis)) != dim:
        raise FormatError(f"duplicate basis names in {basis}")
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for entry in raw:
        if not isinstance(entry, dict) or not {"i", "j", "coeffs"} <= entry.keys():
            raise FormatError(f"malformed bracket entry {entry!r}: needs i, j and coeffs")
        i = _integer(entry["i"], "bracket index i")
        j = _integer(entry["j"], "bracket index j")
        coeffs = entry["coeffs"]
        if not isinstance(coeffs, dict):
            raise FormatError(f"coeffs of bracket ({i}, {j}) must be a JSON object")
        if not (1 <= i < j <= dim):
            raise FormatError(f"bracket indices ({i}, {j}) out of range for dim {dim}")
        if (i - 1, j - 1) in brackets:
            raise FormatError(f"duplicate bracket pair ({i}, {j})")
        parsed = {}
        for k, c in coeffs.items():
            if not (k.isascii() and k.isdigit()):
                raise FormatError(f"bracket target key {k!r} in ({i}, {j}) must be a decimal index")
            ki = int(frac_parse(k))
            if not 1 <= ki <= dim:
                raise FormatError(f"bracket target {ki} out of range in ({i}, {j})")
            val = frac_parse(c)
            if val:
                parsed[ki - 1] = val
        brackets[(i - 1, j - 1)] = parsed
    return lie_algebra(dim, basis, brackets)


def dumps_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def algebra_to_json(g: LieAlgebra) -> str:
    return dumps_canonical(algebra_to_dict(g))


def parse_json(text: str, what: str = "invalid JSON", kind: type = object):
    """json.loads, with every failure (an over-long integer too) a FormatError led by `what`."""
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise FormatError(f"{what}: {e}") from e
    if not isinstance(doc, kind):
        raise FormatError(what)
    return doc


def algebra_from_json(text: str) -> LieAlgebra:
    return algebra_from_dict(parse_json(text))


def algebra_hash(g: LieAlgebra) -> str:
    import hashlib

    return hashlib.sha256(algebra_to_json(g).encode()).hexdigest()


def functional_to_list(xi: Functional) -> list[str]:
    return [frac_str(c) for c in xi.coords]


def functional_from_list(g: LieAlgebra, entries: Sequence) -> Functional:
    if len(entries) != g.dim:
        raise FormatError(f"functional needs {g.dim} coordinates, got {len(entries)}")
    from .coadjoint import Functional

    return Functional(g, tuple(frac_parse(e) for e in entries))


def subspace_to_rows(sub: Subspace) -> list[list[str]]:
    return [[frac_str(c) for c in row] for row in sub.basis]


def fine_label_to_list(fine: Sequence[Sequence[int]]) -> list[list[int]]:
    return [list(e) for e in fine]
