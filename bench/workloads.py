"""The benchmark's four workloads: seeded inputs, the timed ops, and their reference checks.

A workload draws its inputs from the seed at set-up and builds its op list
once; the runner repeats that list pass after pass, so that every op is
timed several times on the same input and its best time can be kept.  An op
is a closure the runner times; its check runs after the timed region and
compares the result with a reference that does not come from the code under
test: the oracles in ``tests/_oracles.py``, closed-form indices, or answers
recorded in ``bench/expected/`` at the commit that introduced the benchmark.
The library keeps no cache between calls, so a repeated op does the same
work every time.

The library is always reached through its module objects (``strata.x``,
never a bare imported name), so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

from nilorbit import algebra, cli, coadjoint, families, formats, limits, strata

from _oracles import oracle_fine_tuple, oracle_form_matrix, oracle_rank

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"
WORK_DIR = BENCH_DIR / "out"

BOUND = 7  # coordinate bound passed explicitly to every sampling call
ORDER_VARIANT = "lex_ascending"


@dataclass
class Op:
    kind: str  # op type, used for per-type latency in reports
    draw: str  # the input in words, listed with any failure
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the result is right, else the reason


def _rng(workload, seed):
    return Random(f"{workload}:{seed}")


def _product(d, k):
    return algebra.direct_product(families.heisenberg(d), families.abelian(k))


def _dense(g, rng):
    return algebra.change_basis(g, families.random_unimodular(g.dim, rng))


# ---------------------------------------------------------------------------


class LabelSweep:
    """Label single points, as in acceptance criterion 4, plus sampled strata once per algebra."""

    name = "label-sweep"
    op_limit_s = None
    children_cpu = False
    MIN_PASSES = 3
    POINTS_PER_ALGEBRA = 24
    # Sampled-strata ops per algebra, with the fixed sample seeds 0, 1, ...:
    # the cost of one differs by up to 15% between sample seeds, and these
    # ops make the tail percentile.
    STRATA_PER_ALGEBRA = 2
    SAMPLES = 16

    def __init__(self, seed):
        rng = _rng(self.name, seed)
        # One fixed basis change: its cost differs by up to 40% from draw to
        # draw, which would move every metric with the seed.  The points are
        # seeded.
        dense = _dense(_product(4, 2), Random(f"{self.name}:dense"))
        # (name, algebra, index from the closed form)
        cases = [
            ("hmn(4,4)", families.hmn(4, 4), 1),
            ("threadlike(12)", families.threadlike(12), 10),
            ("hmn(6,6)", families.hmn(6, 6), 1),
            ("dense heisenberg(4)xabelian(2)", dense, 3),
        ]
        self.ops = []
        for name, g, ind in cases:
            flag = algebra.jordan_holder_flag(g)
            for i in range(self.POINTS_PER_ALGEBRA):
                self.ops.append(self._label_op(g, flag, rng, f"{name} point {i}"))
            # the origin plus every dual basis vector: the CLI's layer probe set
            probes = [coadjoint.zero_functional(g)] + [coadjoint.dual_basis_functional(g, i) for i in range(g.dim)]
            for sample_seed in range(self.STRATA_PER_ALGEBRA):
                self.ops.append(self._strata_op(name, g, flag, ind, probes, sample_seed))

    def _label_op(self, g, flag, rng, where):
        coords = [Fraction(rng.randint(-BOUND, BOUND)) for _ in range(g.dim)]
        if rng.random() < 0.5:  # zero a random subset of coordinates so that lower strata occur
            coords = [c if rng.random() < 0.5 else Fraction(0) for c in coords]
        xi = coadjoint.Functional(g, tuple(coords))
        scales = [Fraction(rng.choice([1, 2, 3, 5, 7, -1, -2, -5]), rng.randint(1, 7)) for _ in range(2)]
        moves = [coadjoint.random_vector(g, rng, BOUND) for _ in range(2)]

        def run():
            coarse, fine = strata.classify_point(flag, xi)
            _, orbit_dim = coadjoint.isotropy(g, xi)
            coarse_again = coadjoint.jump_set(flag, xi)
            scaled = [coadjoint.jump_set(flag, xi.scale(t)) for t in scales]
            moved = [coadjoint.jump_set(flag, coadjoint.coadjoint_move(g, xi, x)) for x in moves]
            return coarse, fine, orbit_dim, coarse_again, scaled, moved

        def check(res):
            coarse, fine, orbit_dim, coarse_again, scaled, moved = res
            ref = oracle_fine_tuple(g, flag.rows, xi.coords)
            if fine != ref or coarse != ref[-1] or coarse_again != coarse:
                return f"labels differ from the oracle: got {fine}, oracle {ref}"
            rank = oracle_rank(oracle_form_matrix(g, flag.rows, xi.coords))
            if orbit_dim != rank or len(coarse) != rank:
                return f"orbit dimension {orbit_dim}, |J| {len(coarse)}, oracle rank {rank}"
            if any(c != coarse for c in scaled + moved):
                return "coarse label changed under scaling or a coadjoint move"
            return None

        return Op("label", f"{where}: xi = {[str(c) for c in coords]}", run, check)

    def _strata_op(self, name, g, flag, ind, probes, sample_seed):
        def run():
            gen = strata.generic_stratum(flag, mode="sampled", samples=self.SAMPLES, seed=sample_seed, bound=BOUND)
            found = strata.enumerate_strata(flag, self.SAMPLES, seed=sample_seed, extra_points=probes, bound=BOUND)
            report = strata.composition_layers(flag, found, order_variant=ORDER_VARIANT)
            return gen, found, report

        def check(res):
            gen, found, report = res
            if gen.ind != ind:
                return f"sampled index {gen.ind}, closed form {ind}"
            for s in found:
                if s.label != oracle_fine_tuple(g, flag.rows, s.representative.coords):
                    return f"stratum label {s.label} differs from the oracle at its representative"
            layers = report.layers
            if not layers[-1].is_character_layer or layers[0].label != gen.generic_fine:
                return "layering does not run from the generic label to the character layer"
            return None

        return Op("strata", f"{name} strata, sample seed {sample_seed}", run, check)


# ---------------------------------------------------------------------------


class GenericIndex:
    """Symbolic generic strata and recognition of heisenberg(d) x abelian(k)."""

    name = "generic-index"
    op_limit_s = 5.0
    children_cpu = False
    MIN_PASSES = 3
    # Criterion 8 draws its heisenberg(3) basis changes from Random(300).  The
    # symbolic call inside recognition costs 0.1 s to over 9 s depending on
    # the draw, so the (3, 0) ops use that sequence's first five draws in
    # every run instead of seeded ones; see README.md, "Seed spread".
    PINNED_D3_DRAWS = 5
    # Dense heisenberg(2) symbolic strata cost 1.5 to 60 ms depending on the
    # basis change, so they too use fixed draws, from their own sequence.
    DENSE_H2_DRAWS = 16
    # Seeded basis changes per recognized (d, k).  The cost of a seeded op
    # varies by 2x or more from draw to draw.  These counts put the median
    # op among four fixed dense heisenberg(2) ops of 5.1 to 5.6 ms: about 37
    # ops cost less and 38 more, and the two (2, 2) draws, at 3.5 to 11 ms,
    # fall on either side.  With 79 ops the tail percentile (p95) is the
    # fourth-costliest op, one of the pinned criterion-8 ops.  See README.md,
    # "Seed spread".
    DRAWS = {(1, 0): 6, (1, 1): 5, (1, 2): 6, (2, 0): 8, (2, 1): 6, (2, 2): 2, (3, 1): 8, (3, 2): 8}

    def __init__(self, seed):
        rng = _rng(self.name, seed)
        sparse = [
            ("threadlike(12)", families.threadlike(12), 10),
            ("hmn(4,4)", families.hmn(4, 4), 1),
            ("hmn(6,6)", families.hmn(6, 6), 1),
            ("hmn(7,6)", families.hmn(7, 6), 2),
            ("heisenberg(3)xabelian(3)", _product(3, 3), 4),
            ("abelian(6)", families.abelian(6), 6),
        ]
        ops = [self._symbolic_op(name, algebra.jordan_holder_flag(g), ind) for name, g, ind in sparse]
        dense_rng = Random(f"{self.name}:dense")
        for i in range(self.DENSE_H2_DRAWS):
            flag = algebra.jordan_holder_flag(_dense(families.heisenberg(2), dense_rng))
            ops.append(self._symbolic_op(f"dense heisenberg(2) fixed draw {i}", flag, 1))
        for (d, k), draws in self.DRAWS.items():
            for i in range(draws):
                g = _dense(_product(d, k), rng)
                ops.append(self._recognize_op(f"heisenberg({d})xabelian({k}) draw {i}", g, (d, k)))
        crit8 = Random(300)
        h3 = _product(3, 0)
        for i in range(self.PINNED_D3_DRAWS):
            ops.append(self._recognize_op(f"heisenberg(3) criterion-8 draw {i}", _dense(h3, crit8), (3, 0)))
        for name, g in (("hmn(2,2)", families.hmn(2, 2)), ("hmn(3,3)", families.hmn(3, 3)), ("threadlike(5)", families.threadlike(5))):
            ops.append(self._recognize_op(name, g, None))
        rng.shuffle(ops)
        self.ops = ops

    def _symbolic_op(self, name, flag, ind):
        def run():
            return strata.generic_stratum(flag, mode="symbolic", samples=64, seed=0, bound=BOUND)

        def check(res):
            if res.ind != ind or len(res.generic_label) != flag.dim - ind:
                return f"symbolic index {res.ind}, closed form {ind}"
            return None

        return Op("symbolic", f"symbolic {name}", run, check)

    def _recognize_op(self, name, g, expected):
        def run():
            return families.recognize_heisenberg_times_abelian(g)

        def check(res):
            got = None if res is None else (res.d, res.k)
            return None if got == expected else f"recognized {got}, expected {expected}"

        brackets = [(i, j, [(k, str(c)) for k, c in cs]) for i, j, cs in g.brackets]
        return Op("recognize", f"recognize {name}: brackets {brackets}", run, check)


# ---------------------------------------------------------------------------


def limit_cases():
    """(name, algebra, coordinate polynomials, t0) of every one-parameter family."""

    def padded(m, n, pad):
        return algebra.direct_product(families.hmn(m, n), families.abelian(pad)) if pad else families.hmn(m, n)

    def x1_yn(m, n, pad, y_prev="1", y_last="t"):
        # X1* + y_prev Y_{n-1}* + y_last Y_n* ; basis X1..Xm, Y0..Yn, then the abelian padding
        g = padded(m, n, pad)
        coords = ["0"] * g.dim
        coords[0], coords[m + n - 1], coords[m + n] = "1", y_prev, y_last
        return g, coords

    cases = [
        ("hmn(2,2): X1* + Y1* + t Y2*", families.hmn(2, 2), ["1", "0", "0", "1", "t"], 0),
        ("hmn(3,2): X3* + Y1* + t Y2*", families.hmn(3, 2), ["0", "0", "1", "0", "1", "t"], 0),
    ]
    for m, n, pad in ((3, 3, 0), (4, 4, 0), (3, 3, 4), (4, 4, 2)):
        g, coords = x1_yn(m, n, pad)
        label = f"hmn({m},{n})" + (f"xabelian({pad})" if pad else "")
        cases.append((f"{label}: X1* + Y{n - 1}* + t Y{n}*", g, coords, 0))
    g, coords = x1_yn(3, 3, 0, "1", "t-2")
    cases.append(("hmn(3,3): X1* + Y2* + (t-2) Y3*, t0 = 2", g, coords, 2))
    g, coords = x1_yn(3, 3, 0, "t", "t^2")
    cases.append(("hmn(3,3): X1* + t Y2* + t^2 Y3*", g, coords, 0))
    g, coords = x1_yn(4, 4, 0, "t+1", "t^2")
    cases.append(("hmn(4,4): X1* + (t+1) Y3* + t^2 Y4*", g, coords, 0))
    return cases


def limit_answer(rep):
    """The part of a limit report that no sampling seed changes."""
    return {
        "generic_rank": rep.generic_rank,
        "degenerated": rep.degenerated,
        "annihilated": list(rep.annihilated),
        "limit_base": formats.functional_to_list(rep.limit_base),
        "limit_direction": formats.subspace_to_rows(rep.limit_direction),
    }


class LimitFamily:
    """One orbit_limit_set call per op, on one-parameter families of flat orbits."""

    name = "limit-family"
    op_limit_s = None
    children_cpu = False
    MIN_PASSES = 3
    SAMPLE_BUDGET = 50
    # Ops per family, each with its own sample seed, which moves the op's
    # cost by up to 25%.  Two per family, and four for the two cheap
    # criterion-7 families and for the degree-2 family on hmn(4,4): the
    # median op then falls inside the six ops on the three hmn(3,3) families
    # (70-80 ms) and the tail (p75) inside the four degree-2 hmn(4,4) ops,
    # not at the edge between two families of different cost.
    OPS_PER_FAMILY = 2
    MORE_OPS = {
        "hmn(2,2): X1* + Y1* + t Y2*": 4,
        "hmn(3,2): X3* + Y1* + t Y2*": 4,
        "hmn(4,4): X1* + (t+1) Y3* + t^2 Y4*": 4,
    }

    def __init__(self, seed):
        rng = _rng(self.name, seed)
        self.expected = json.loads((EXPECTED_DIR / "limit_family.json").read_text(encoding="utf-8"))
        self.ops = [
            self._limit_op(name, g, limits.one_param_functional(g, coords, t0=t0), t0, rng.randrange(10**6))
            for name, g, coords, t0 in limit_cases()
            for _ in range(self.MORE_OPS.get(name, self.OPS_PER_FAMILY))
        ]
        rng.shuffle(self.ops)

    def _limit_op(self, name, g, xi_t, t0, sample_seed):
        def run():
            return limits.orbit_limit_set(g, xi_t, t0=t0, sample_budget=self.SAMPLE_BUDGET, seed=sample_seed, bound=BOUND)

        def check(rep):
            if rep.limit_direction.dim != rep.generic_rank:
                return f"limit dimension {rep.limit_direction.dim} != generic rank {rep.generic_rank}"
            if rep.isolated_point_flag:
                return "an isolated point was reported"
            if limit_answer(rep) != self.expected[name]:
                return "limit plane differs from the recorded answer"
            return None

        return Op("limit", f"{name}, sample seed {sample_seed}", run, check)


# ---------------------------------------------------------------------------


CLI_FILES = {
    "heisenberg1.json": lambda: families.heisenberg(1),
    "hmn22.json": lambda: families.hmn(2, 2),
    "hmn44.json": lambda: families.hmn(4, 4),
    "threadlike8.json": lambda: families.threadlike(8),
}
CLI_LIMIT_FAMILIES = {
    "heisenberg1.json": ["t", "1", "0"],
    "hmn22.json": ["0", "0", "0", "1", "t"],
    "hmn44.json": ["1", "0", "0", "0", "0", "0", "0", "1", "t"],
}
CLI_FAMILY_ARGS = (["heisenberg", "1"], ["hmn", "2", "2"], ["hmn", "4", "4"], ["threadlike", "8"])
CLI_VARIANTS = 4  # the seed of a run picks one of these per command; each is recorded
# Sampling commands that always run variant 0: they are the costliest ops and
# make the tail, and their cost moves by up to 45% with the CLI's --seed.
CLI_FIXED_VARIANT = {"strata", "layers", "index", "limit"}


def _cli_functional(fname, dim, v):
    rng = Random(f"cli-session:functional:{fname}:{v}")
    return json.dumps([str(rng.randint(-3, 3)) for _ in range(dim)])


def cli_commands(v):
    """Every command of one pass with variant v, as (command name, argv with bare file names)."""
    common = ["--seed", str(v), "--bound", str(BOUND), "--order-variant", ORDER_VARIANT]
    cmds = [
        ("family", ["family", *CLI_FAMILY_ARGS[v], *common]),
        ("verify-hmn", ["verify-hmn", "2", "2", "--samples", "20", *common]),
    ]
    for fname, make in CLI_FILES.items():
        xi = _cli_functional(fname, make().dim, v)
        src = ["-i", fname]
        cmds += [
            ("validate", ["validate", *src, *common]),
            ("series", ["series", *src, *common]),
            ("flag", ["flag", *src, *common]),
            ("recognize", ["recognize", *src, *common]),
            ("classify", ["classify", xi, *src, *common]),
            ("flat", ["flat", xi, *src, "--samples", "8", *common]),
            ("strata", ["strata", *src, "--samples", "50", *common]),
            ("layers", ["layers", *src, "--samples", "50", *common]),
            ("index", ["index", *src, "--mode", "sampled", "--samples", "64", *common]),
        ]
        if fname in CLI_LIMIT_FAMILIES:
            fam = json.dumps(CLI_LIMIT_FAMILIES[fname])
            cmds.append(("limit", ["limit", fam, *src, "--t0", "0", "--budget", "50", *common]))
    return cmds


def cli_env():
    """The environment of a CLI subprocess: the checkout's src/ first on the path."""
    src = str(BENCH_DIR.parent / "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def cli_key(argv):
    return " ".join(argv)


def cli_answer(code, out: bytes):
    return {"exit": code, "stdout_sha256": hashlib.sha256(out).hexdigest(), "stdout_bytes": len(out)}


class CliSession:
    """One `python -m nilorbit.cli` subprocess per op: the twelve commands of criterion 9."""

    name = "cli-session"
    op_limit_s = None
    children_cpu = True
    MIN_PASSES = 3

    def __init__(self, seed, in_process=False):
        """in_process: call cli.main in this process instead, as the traced run does."""
        rng = _rng(self.name, seed)
        self.in_process = in_process
        self.expected = json.loads((EXPECTED_DIR / "cli_session.json").read_text(encoding="utf-8"))
        self.dir = WORK_DIR / f"cli-inputs-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        for fname, make in CLI_FILES.items():
            (self.dir / fname).write_text(formats.algebra_to_json(make()), encoding="utf-8")
        self.env = cli_env()
        # the same commands in every run; the seed picks the recorded variant of each
        variants = [cli_commands(v) for v in range(CLI_VARIANTS)]
        picks = [rng.randrange(CLI_VARIANTS) for _ in variants[0]]
        self.ops = [
            self._cli_op(*variants[0 if cmd in CLI_FIXED_VARIANT else v][i])
            for i, ((cmd, _), v) in enumerate(zip(variants[0], picks))
        ]
        rng.shuffle(self.ops)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _cli_op(self, cmd, argv):
        key = cli_key(argv)
        real = [str(self.dir / a) if a in CLI_FILES else a for a in argv]
        if self.in_process:
            def run():
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(real)
                return code, out.getvalue().encode("utf-8")
        else:
            def run():
                proc = subprocess.run(
                    [sys.executable, "-m", "nilorbit.cli", *real],
                    capture_output=True,
                    env=self.env,
                    timeout=120,
                )
                return proc.returncode, proc.stdout

        def check(res):
            want = self.expected.get(key)
            got = cli_answer(*res)
            return None if got == want else f"exit/stdout {got} differ from the recorded {want}"

        return Op(cmd, key, run, check)


WORKLOADS = {w.name: w for w in (LabelSweep, GenericIndex, LimitFamily, CliSession)}
