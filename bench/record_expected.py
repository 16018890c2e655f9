"""Record the expected answers that limit-family and cli-session are checked against.

    python3 bench/record_expected.py

Writes bench/expected/limit_family.json (the seed-independent part of every
limit report) and bench/expected/cli_session.json (exit code and stdout hash
of every CLI command variant).  Run it only at a commit whose answers are
trusted: the benchmark then flags any later change of these answers.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from nilorbit import formats, limits  # noqa: E402

import workloads as w  # noqa: E402


def record_limits():
    out = {}
    for name, g, coords, t0 in w.limit_cases():
        xi_t = limits.one_param_functional(g, coords, t0=t0)
        rep = limits.orbit_limit_set(g, xi_t, t0=t0, sample_budget=w.LimitFamily.SAMPLE_BUDGET, seed=0, bound=w.BOUND)
        out[name] = w.limit_answer(rep)
    return out


def record_cli():
    work = w.WORK_DIR / "record-cli"
    work.mkdir(parents=True, exist_ok=True)
    for fname, make in w.CLI_FILES.items():
        (work / fname).write_text(formats.algebra_to_json(make()), encoding="utf-8")
    out = {}
    for v in range(w.CLI_VARIANTS):
        for _, argv in w.cli_commands(v):
            real = [str(work / a) if a in w.CLI_FILES else a for a in argv]
            proc = subprocess.run(
                [sys.executable, "-m", "nilorbit.cli", *real], capture_output=True, env=w.cli_env(), timeout=120
            )
            out[w.cli_key(argv)] = w.cli_answer(proc.returncode, proc.stdout)
    for fname in w.CLI_FILES:
        (work / fname).unlink()
    work.rmdir()
    return out


def main():
    w.EXPECTED_DIR.mkdir(exist_ok=True)
    for fname, doc in (("limit_family.json", record_limits()), ("cli_session.json", record_cli())):
        (w.EXPECTED_DIR / fname).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(doc)} answers to {(w.EXPECTED_DIR / fname).relative_to(ROOT)}")


if __name__ == "__main__":
    main()
