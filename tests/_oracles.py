"""Independent oracle implementations used to cross-check the library.

Rank comes from fraction-free cross-multiplication elimination, and jump
tuples from row-rank jumps of the restricted form matrices (the kernel-free
characterization); these avoid the library's RREF and membership machinery,
so agreement with the package is a two-route check.
``RrefAccumulator`` is the reference RREF: it divides by each pivot over
``Fraction`` as rows arrive, where the package's ``linalg.rref`` runs its
fraction-free integer loop and divides only at the end.
``oracle_membership_fine_tuple`` follows the definition of the jump sets
literally, one isotropy kernel and one membership scan per leading block,
both with ``RrefAccumulator``: its kernels come from ``oracle_kernel``,
which takes the RREF of the matrix and then the RREF of the kernel vectors
read off it, and its form comes from ``oracle_bracket``.  Likewise
``oracle_symbolic_fine_label`` eliminates over the library's ``Poly`` type,
but one leading block at a time with lowest-degree pivots instead of the
package's single rank-profile pass, and its form comes from
``oracle_bracket``, not from the flag's ``pair_support``.
``oracle_bracket`` is the dense bilinear sum over every table entry, with no
zero skipping.

Definitional routes the package no longer carries live here too:
``oracle_is_character`` pairs xi with every basis bracket, against which
``jump_set`` (J = {} iff the orbit is a point) is checked;
``oracle_compare_index_sets`` / ``oracle_compare_fine_labels`` compare
labels by set differences and a component scan, against which the
package's sort keys are checked; and ``oracle_jacobi_failures`` tries the
Jacobi identity on every triple of basis vectors with ``oracle_bracket``,
against which ``validate_algebra``'s reading of the stored table is
checked; and ``oracle_is_ideal`` brackets every basis vector with every
member of the subspace, against which ``is_ideal``'s verdict and witness
are checked.
"""

from __future__ import annotations

from fractions import Fraction

from nilorbit.linalg import ONE, ZERO, Subspace, unit_vec
from nilorbit.polys import Poly, strip_row


class RrefAccumulator:
    """Reference reduced row echelon form over ``Fraction``, grown a row at a time."""

    def __init__(self, ncols, rows=()):
        self.ncols = ncols
        self.rows = []  # canonical RREF rows, in pivot order
        self.pivots = []
        for r in rows:
            self.add(r)

    def reduce(self, v):
        """Residue of v modulo the current row space."""
        w = list(v)
        for row, p in zip(self.rows, self.pivots):
            c = w[p]
            if c:
                w = [a - c * b for a, b in zip(w, row)]
        return w

    def contains(self, v):
        return not any(self.reduce(v))

    def add(self, v):
        """Insert v; returns True if it enlarged the span."""
        w = self.reduce(v)
        p = next((k for k, a in enumerate(w) if a), None)
        if p is None:
            return False
        inv = ONE / w[p]
        w = [a * inv for a in w]
        # clear the new pivot column in the existing rows
        self.rows = [[a - row[p] * b for a, b in zip(row, w)] if row[p] else row for row in self.rows]
        at = sum(1 for q in self.pivots if q < p)
        self.rows.insert(at, w)
        self.pivots.insert(at, p)
        return True

    def subspace(self):
        return Subspace(self.ncols, tuple(tuple(r) for r in self.rows), tuple(self.pivots))


def oracle_rank(rows) -> int:
    """Rank by fraction-free elimination, no normalization, no pivot search."""
    reduced = []  # list of (row, pivot_col)
    r = 0
    for raw in rows:
        row = list(raw)
        for prow, pc in reduced:
            c = row[pc]
            if c:
                p = prow[pc]
                row = [p * a - c * b for a, b in zip(row, prow)]
        pc = next((k for k, a in enumerate(row) if a), None)
        if pc is not None:
            reduced.append((row, pc))
            r += 1
    return r


def oracle_kernel(rows, ncols):
    """Right kernel by two RREFs: one of the rows, one of the kernel vectors read off it."""
    acc = RrefAccumulator(ncols, rows)
    out = []
    for f in sorted(set(range(ncols)) - set(acc.pivots)):
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p in zip(acc.rows, acc.pivots):
            v[p] = -row[f]
        out.append(v)
    return RrefAccumulator(ncols, out).subspace()


def oracle_subspace_sum(s, t):
    """s + t, the span of both bases."""
    return RrefAccumulator(s.ambient_dim, list(s.basis) + list(t.basis)).subspace()


def oracle_bracket(g, u, v):
    """[u, v] = sum over the table of (u_i v_j - u_j v_i) c^k_ij, every product taken."""
    out = [Fraction(0)] * g.dim
    for i, j, coeffs in g.brackets:
        c = u[i] * v[j] - u[j] * v[i]
        for k, a in coeffs:
            out[k] += c * a
    return tuple(out)


def oracle_jacobi_failures(g):
    """1-based sorted triples (i, j, k) where [[X_i, X_j], X_k] + cyclic != 0, every triple tried."""
    m = g.dim
    e = [unit_vec(m, i) for i in range(m)]
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                terms = (
                    oracle_bracket(g, oracle_bracket(g, e[i], e[j]), e[k]),
                    oracle_bracket(g, oracle_bracket(g, e[j], e[k]), e[i]),
                    oracle_bracket(g, oracle_bracket(g, e[k], e[i]), e[j]),
                )
                if any(map(sum, zip(*terms))):
                    out.append((i + 1, j + 1, k + 1))
    return out


def oracle_is_ideal(g, sub):
    """is_ideal by m dense unit-vector brackets per member: basis index first, then member."""
    for i in range(g.dim):
        ei = unit_vec(g.dim, i)
        for v in sub.basis:
            w = oracle_bracket(g, ei, v)
            if not sub.contains(w):
                return False, (g.basis_names[i], v, w)
    return True, None


def oracle_ad_matrix(g, x):
    """Matrix of ad(x): column j is [x, X_j], by the dense bilinear sum."""
    cols = [oracle_bracket(g, x, unit_vec(g.dim, j)) for j in range(g.dim)]
    return [list(row) for row in zip(*cols)]


def mat_vec(rows, v):
    """The matrix-vector product, one dot product per row."""
    return tuple(sum((a * b for a, b in zip(r, v)), Fraction(0)) for r in rows)


def oracle_det(rows) -> Fraction:
    """Determinant by expansion along the first column (exponential, tiny inputs)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for i in range(n):
        c = rows[i][0]
        if not c:
            continue
        minor = [r[1:] for k, r in enumerate(rows) if k != i]
        total += (-1) ** i * c * oracle_det(minor)
    return total


def oracle_form_matrix(g, flag_rows, xi_coords):
    """<xi, [F_a, F_b]> assembled directly from the bracket."""
    m = len(flag_rows)
    out = [[Fraction(0)] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            w = oracle_bracket(g, flag_rows[a], flag_rows[b])
            val = sum((c * x for c, x in zip(w, xi_coords) if c and x), Fraction(0))
            out[a][b] = val
            out[b][a] = -val
    return out


def oracle_fine_tuple(g, flag_rows, xi_coords):
    """Fine jump tuple via rank jumps of the leading rows of each restricted form.

    j belongs to J^k iff row j of the k x k leading block is linearly
    independent of rows 1..j-1; no isotropy kernels or subspace sums appear.
    """
    m = len(flag_rows)
    form = oracle_form_matrix(g, flag_rows, xi_coords)
    out = []
    for k in range(1, m + 1):
        reduced = []
        jumps = []
        for j in range(k):
            row = [form[j][b] for b in range(k)]
            for prow, pc in reduced:
                c = row[pc]
                if c:
                    p = prow[pc]
                    row = [p * a - c * b for a, b in zip(row, prow)]
            pc = next((i for i, a in enumerate(row) if a), None)
            if pc is not None:
                jumps.append(j + 1)
                reduced.append((row, pc))
        out.append(tuple(jumps))
    return tuple(out)


def oracle_membership_fine_tuple(g, flag_rows, xi_coords):
    """Fine jump tuple from the definition, one membership scan per leading block.

    For j <= k the index j belongs to J^k iff e_j lies outside
    ker(form|_k) + <e_1..e_{j-1}>.
    """
    m = len(flag_rows)
    form = oracle_form_matrix(g, flag_rows, xi_coords)
    out = []
    for k in range(1, m + 1):
        block = [row[:k] for row in form[:k]]
        acc = RrefAccumulator(k, oracle_kernel(block, k).basis)
        jumps = []
        for j in range(k):
            e = unit_vec(k, j)
            if not acc.contains(e):
                jumps.append(j + 1)
            acc.add(e)
        out.append(tuple(jumps))
    return tuple(out)


def oracle_jump_set(g, flag_rows, xi_coords):
    return oracle_fine_tuple(g, flag_rows, xi_coords)[-1]


def oracle_symbolic_fine_label(flag):
    """Generic fine label, one fraction-free elimination per leading block.

    The dual coordinates are indeterminates, and the form's entries come
    from ``oracle_bracket`` of the flag rows, not from the flag's
    ``pair_support``.  In the k x k leading block of the form, each row is
    reduced by cross-multiplication against every accepted row, whose pivot
    is its lowest-degree nonzero entry, and the rows that stay nonzero make
    up J^k.
    """
    m = flag.dim
    zero = Poly.zero(m)
    form = [[zero] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            w = oracle_bracket(flag.algebra, flag.rows[a], flag.rows[b])
            entry = Poly.make(m, {tuple(1 if v == i else 0 for v in range(m)): c for i, c in enumerate(w) if c})
            form[a][b] = entry
            form[b][a] = -entry
    label = []
    for k in range(1, m + 1):
        accepted = []  # (row, pivot column)
        jumps = []
        for j in range(k):
            cur = form[j][:k]
            for prow, pc in accepted:
                c = cur[pc]
                if not c.is_zero:
                    cur = strip_row([prow[pc] * a - c * b for a, b in zip(cur, prow)])
            live = [(col, p) for col, p in enumerate(cur) if not p.is_zero]
            if live:
                jumps.append(j + 1)
                accepted.append((cur, min(live, key=lambda cp: (cp[1].degree(), cp[0]))[0]))
        label.append(tuple(jumps))
    return tuple(label)


def oracle_is_character(xi) -> bool:
    """True iff xi vanishes on every basis bracket [X_i, X_j], i.e. the orbit is a point."""
    g = xi.algebra
    return all(
        sum(c * x for c, x in zip(oracle_bracket(g, unit_vec(g.dim, i), unit_vec(g.dim, j)), xi.coords)) == 0
        for i, j, _ in g.brackets
    )


def oracle_compare_index_sets(e1, e2) -> int:
    """-1, 0 or 1 by the definition: e1 < e2 iff min(e1 \\ e2) < min(e2 \\ e1), min of {} infinite."""
    s1, s2 = set(e1), set(e2)
    if s1 == s2:
        return 0
    only1 = s1 - s2
    only2 = s2 - s1
    m1 = min(only1) if only1 else None
    m2 = min(only2) if only2 else None
    if m2 is None or (m1 is not None and m1 < m2):
        return -1
    return 1


def oracle_compare_fine_labels(eps1, eps2, order_variant="lex_ascending") -> int:
    """Lexicographic scan of the components, last first for lex_descending."""
    ks = range(len(eps1))
    if order_variant == "lex_descending":
        ks = reversed(ks)
    for k in ks:
        c = oracle_compare_index_sets(eps1[k], eps2[k])
        if c:
            return c
    return 0
