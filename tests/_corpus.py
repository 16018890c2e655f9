"""Seeded random nilpotent Lie algebras for the cross-checks.

A draw is the Lie subalgebra of strictly upper-triangular k x k rational
matrices (k from 3 to 5) generated by two or three sparse integer matrices.
It is closed under commutators, so its dimension is at most k(k-1)/2 <= 10;
nilpotency holds by Engel's theorem and Jacobi by construction, so every
draw is a valid algebra.  Its structure constants are read off one RREF of
the flattened basis augmented by an identity block.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from nilorbit.algebra import change_basis, lie_algebra
from nilorbit.families import random_unimodular
from nilorbit.linalg import ZERO

from _oracles import RrefAccumulator


def _commutator(x, y, k):
    """xy - yx of two k x k matrices flattened row by row."""
    out = []
    for i in range(k):
        for j in range(k):
            out.append(sum((x[i * k + t] * y[t * k + j] - y[i * k + t] * x[t * k + j] for t in range(k)), ZERO))
    return tuple(out)


def _generator(rng, k):
    while True:
        mat = [Fraction(0)] * (k * k)
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < 0.4:
                    mat[i * k + j] = Fraction(rng.choice([-2, -1, 1, 2]))
        if any(mat):
            return tuple(mat)


def random_nilpotent(rng: Random):
    """One draw: the generated subalgebra, basis in the order its vectors were found."""
    k = rng.randint(3, 5)
    acc = RrefAccumulator(k * k)
    basis = []
    for _ in range(rng.randint(2, 3)):
        x = _generator(rng, k)
        if acc.add(x):
            basis.append(x)
    new = 0
    while new < len(basis):  # bracket each basis vector with every earlier one
        for y in basis[:new]:
            w = _commutator(basis[new], y, k)
            if acc.add(w):
                basis.append(w)
        new += 1
    d = len(basis)
    # rows (B_a | e_a): a vector (w | 0) in the span of the B_a reduces to (0 | -coefficients)
    solver = RrefAccumulator(k * k + d, [b + tuple(Fraction(int(a == c)) for c in range(d)) for a, b in enumerate(basis)])
    brackets = {}
    for a in range(d):
        for b in range(a + 1, d):
            w = solver.reduce(_commutator(basis[a], basis[b], k) + (ZERO,) * d)
            assert not any(w[: k * k])
            brackets[(a, b)] = {c: -w[k * k + c] for c in range(d)}
    return lie_algebra(d, [f"E{a}" for a in range(1, d + 1)], brackets)


def corpus(seed: int, count: int):
    """`count` draws, every other one composed with a random unimodular basis change."""
    rng = Random(seed)
    for n in range(count):
        g = random_nilpotent(rng)
        yield change_basis(g, random_unimodular(g.dim, rng)) if n % 2 else g
