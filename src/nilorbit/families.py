"""Example-family generators and machine verification of their properties.

The h(m, n) family has basis {X_1..X_m, Y_0..Y_n} with [X_i, Y_j] = Y_{i+j}
whenever i + j <= n; Heisenberg algebras are stored center-first so their
identity basis order is already a Jordan-Hoelder flag.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from random import Random

from .algebra import (
    LieAlgebra,
    ad_images,
    ad_lists,
    center,
    derived_subalgebra,
    lie_algebra,
    lower_central_series,
    quotient,
)
from .errors import UsageError
from .formats import MAX_DIM
from .linalg import Subspace, rank, unit_vec
from .records import Record, setfield


class FamilySpec(Record):
    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: tuple[int, ...]):
        if kind not in FAMILIES:
            raise UsageError(f"unknown family kind {kind!r}; known kinds: {', '.join(FAMILIES)}")
        _, minima, dim = FAMILIES[kind]
        if len(params) != len(minima) or any(p < lo for p, lo in zip(params, minima.values())):
            needs = " and ".join(f"{name} >= {lo}" for name, lo in minima.items())
            raise UsageError(f"{kind}({', '.join(minima)}) needs {needs}")
        size = dim(*params)
        if size > MAX_DIM:
            args = ", ".join(map(str, params))
            raise UsageError(f"{kind}({args}) has dimension {size}, above the cap of {MAX_DIM}")
        setfield(self, "kind", kind)  # a key of FAMILIES
        setfield(self, "params", params)


def heisenberg(d: int) -> LieAlgebra:
    """Dimension 2d+1, basis (Z, X_1..X_d, Y_1..Y_d), [X_i, Y_i] = Z."""
    names = ["Z"] + [f"X{i}" for i in range(1, d + 1)] + [f"Y{i}" for i in range(1, d + 1)]
    brackets = {(i, d + i): {0: Fraction(1)} for i in range(1, d + 1)}
    return lie_algebra(2 * d + 1, names, brackets)


def abelian(k: int) -> LieAlgebra:
    return lie_algebra(k, [f"A{i}" for i in range(1, k + 1)], {})


def hmn(m: int, n: int) -> LieAlgebra:
    """Basis (X_1..X_m, Y_0..Y_n); [X_i, Y_j] = Y_{i+j} for i + j <= n."""
    names = [f"X{i}" for i in range(1, m + 1)] + [f"Y{j}" for j in range(n + 1)]
    brackets = {}
    for i in range(1, m + 1):
        for j in range(n + 1):
            if i + j <= n:
                brackets[(i - 1, m + j)] = {m + i + j: Fraction(1)}
    return lie_algebra(m + n + 1, names, brackets)


def threadlike(n: int) -> LieAlgebra:
    """Filiform: basis (X_1..X_n), [X_1, X_j] = X_{j+1} for 2 <= j < n."""
    names = [f"X{i}" for i in range(1, n + 1)]
    brackets = {(0, j): {j + 1: Fraction(1)} for j in range(1, n - 1)}
    return lie_algebra(n, names, brackets)


# kind -> (builder, the least value of each named parameter, the dimension it builds)
FAMILIES = {
    "heisenberg": (heisenberg, {"d": 1}, lambda d: 2 * d + 1),
    "abelian": (abelian, {"k": 0}, lambda k: k),
    "hmn": (hmn, {"m": 1, "n": 1}, lambda m, n: m + n + 1),
    "threadlike": (threadlike, {"n": 3}, lambda n: n),
}


def generate(spec: FamilySpec) -> LieAlgebra:
    return FAMILIES[spec.kind][0](*spec.params)


def _span_of_names(g: LieAlgebra, names: Sequence[str]) -> Subspace:
    return Subspace.from_vectors(g.dim, [unit_vec(g.dim, g.basis_names.index(s)) for s in names])


class VerifyItem(Record):
    __slots__ = ("item", "applicable", "passed", "detail")


class HmnReport(Record):
    __slots__ = ("m", "n", "items", "notes")

    @property
    def all_passed(self) -> bool:
        return all(it.passed for it in self.items if it.applicable)


def verify_hmn(m: int, n: int, seed: int = 0, flat_samples: int = 20, bound: int = 7) -> HmnReport:
    """Machine-check the stated structure of h(m, n), item by item.

    (i) center and nilpotency step; (ii) quotient by the line of Y_n
    reproduces h(m, n-1); (iii) isotropy at probes with <xi, Y_n> != 0 is
    the center, orbit dimension 2n; (iv) isotropy spans at the Y_k probes;
    (v) flatness of sampled orbits.  Items (iii)-(v) need m >= n.

    The family is conventionally labeled n-step nilpotent, but its lower
    central series has n + 1 nonzero terms for every m, n >= 1 (already
    visible at n = 1, where [X_1, Y_0] = Y_1 is a nonzero bracket).  The
    verifier counts honestly: item (i) passes on the center content plus
    the computed step n + 1, and the off-by-one of the conventional label
    is recorded in the item detail and the notes instead of being silently
    redefined away.
    """
    g = generate(FamilySpec("hmn", (m, n)))  # rejects bad parameters before any work
    from .coadjoint import is_flat_orbit, isotropy, random_functional

    if bound < 0:
        raise UsageError("bound must be >= 0")
    if flat_samples < 1:
        raise UsageError("samples must be >= 1")
    rng = Random(seed)
    items = []
    notes = []

    # (i) nilpotency step and center
    _, step = lower_central_series(g)
    expected_step = n + 1
    step_ok = step == expected_step
    if n == 1:
        notes.append("edge case n=1: [X1, Y0] = Y1 is nonzero, so the step is 2, not 1")
    if step != n:
        notes.append(
            f"conventional n-step label undercounts: the series has {step} "
            f"nonzero terms, not n = {n}"
        )
    z = center(g)
    if m <= n:
        expected_center_names = [f"Y{n}"]
    else:
        expected_center_names = [f"Y{n}"] + [f"X{i}" for i in range(n + 1, m + 1)]
    center_ok = z == _span_of_names(g, expected_center_names)
    items.append(
        VerifyItem(
            "i",
            True,
            center_ok and step_ok,
            f"center spanned by {expected_center_names}: {center_ok}; "
            f"series has {step} nonzero terms (= n + 1: {step_ok}); "
            f"n-step label matches: {step == n}",
        )
    )

    # (ii) quotient by the center line reproduces h(m, n-1)
    if n >= 2:
        line = _span_of_names(g, [f"Y{n}"])
        q = quotient(g, line)
        target = hmn(m, n - 1)
        quo_ok = q.basis_names == target.basis_names and q.brackets == target.brackets
        items.append(
            VerifyItem("ii", True, quo_ok, f"quotient by R*Y{n} matches h({m},{n - 1}): {quo_ok}")
        )
    else:
        items.append(VerifyItem("ii", False, True, "needs n >= 2"))

    # (iii) isotropy = center at probes with <xi, Y_n> != 0 (m >= n)
    if m >= n:
        ok = True
        details = []
        for xi in _probes(g, n, n, rng, bound):
            iso, odim = isotropy(g, xi)
            good = iso == z and odim == 2 * n
            ok = ok and good
            details.append(good)
        items.append(
            VerifyItem(
                "iii",
                True,
                ok,
                f"isotropy equals center with orbit dimension {2 * n} at {len(details)} probes: {ok}",
            )
        )
    else:
        items.append(VerifyItem("iii", False, True, "needs m >= n"))

    # (iv) isotropy spans at Y_k probes, 1 <= k < n <= m
    if m >= n >= 2:
        ok = True
        for k in range(1, n):
            expected = _span_of_names(
                g,
                [f"Y{j}" for j in range(k, n + 1)] + [f"X{i}" for i in range(k + 1, m + 1)],
            )
            for xi in _probes(g, n, k, rng, bound):
                iso, _ = isotropy(g, xi)
                ok = ok and iso == expected
        items.append(
            VerifyItem("iv", True, ok, f"isotropy spans at Y_k probes for k = 1..{n - 1}: {ok}")
        )
    else:
        items.append(VerifyItem("iv", False, True, "needs m >= n >= 2"))

    # (v) flatness of sampled orbits, m >= n: for m < n sampled isotropy algebras are mostly not ideals
    if m >= n:
        flat_ok = True
        for s in range(flat_samples):
            xi = random_functional(g, rng, bound)
            res = is_flat_orbit(g, xi, samples=4, seed=seed + s, bound=bound)
            flat_ok = flat_ok and res.flat
        items.append(
            VerifyItem("v", True, flat_ok, f"{flat_samples} sampled orbits all flat: {flat_ok}")
        )
    else:
        items.append(VerifyItem("v", False, True, "needs m >= n"))

    return HmnReport(m, n, tuple(items), tuple(notes))


def _probes(g: LieAlgebra, n: int, k: int, rng: Random, bound: int):
    """Y_k^* and a perturbation vanishing on Y_{k+1}..Y_n, <xi, Y_k> = 1 (k = n for item iii)."""
    from .coadjoint import Functional, dual_functional_by_name

    base = dual_functional_by_name(g, f"Y{k}")
    yield base
    coords = list(base.coords)
    forbidden = {f"Y{j}" for j in range(k, n + 1)}
    for i, name in enumerate(g.basis_names):
        if name not in forbidden:
            coords[i] = Fraction(rng.randint(-bound, bound))
    yield Functional(g, tuple(coords))


class Recognition(Record):
    __slots__ = ("d", "k", "note")


def recognize_heisenberg_times_abelian(g: LieAlgebra) -> Recognition | None:
    """Detect g isomorphic to heisenberg(d) x abelian(k); None otherwise.

    The test is basis-independent: [g, g] must be a central line R*z, and
    then the skew form of any functional with <xi, z> != 0 has rank 2d > 0
    (some bracket is a nonzero multiple of z) and a kernel of dimension
    k + 1 containing z.  The index is then k + 1, so when k = 0 the note
    records that the one-layer-over-characters picture applies.  The
    centrality test is what rejects a non-nilpotent g whose [g, g] is a line.
    """
    from .coadjoint import Functional, bform_matrix

    der = derived_subalgebra(g)
    if der.dim != 1:
        return None
    m = g.dim
    if ad_images(ad_lists(g), der.rows[0]):
        return None
    pivot = der.pivots[0]
    xi = Functional(g, unit_vec(m, pivot))  # <xi, z> is the pivot entry of z, so nonzero
    r = rank(bform_matrix(g, xi), m)
    d = r // 2
    k = m - 2 * d - 1
    # [g, g] = R*z makes every skew form a multiple of this one: rank <= 2d, so ind = k + 1
    note = "index 1 confirmed: single generic layer over the characters" if k == 0 else None
    return Recognition(d, k, note)


def random_unimodular(dim: int, rng: Random, entry_bound: int = 3, ops: int | None = None) -> list[list[Fraction]]:
    """Random unimodular integer matrix with entries within the bound.

    Built from elementary row operations (shears, swaps, sign flips); a shear
    is skipped when it would push an entry outside [-entry_bound, entry_bound].
    """
    if dim == 0:
        return []
    mat = [[Fraction(1) if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]
    if ops is None:
        ops = 6 * dim * dim
    for _ in range(ops):
        kind = rng.randrange(3)
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            candidate = [mat[i][t] + c * mat[j][t] for t in range(dim)]
            if all(abs(v) <= entry_bound for v in candidate):
                mat[i] = candidate
        elif kind == 1 and i != j:
            mat[i], mat[j] = mat[j], mat[i]
        elif kind == 2:
            mat[i] = [-v for v in mat[i]]
    return mat
