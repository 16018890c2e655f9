"""nilorbit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload label-sweep --seed 1 --seconds 20 --trace 0

Untraced (--trace 0), it reports the end-to-end metrics of BENCHMARK.json:
set-up is measured in several fresh processes and the median kept; the
timed passes run in the last of them.  Times are reported at the reference
speed of speed.py, which corrects for the load other tenants put on the
machine; the raw times are printed beside them.  Traced (--trace 1), it reports the
per-layer metrics from spans around the calls into each module, with the
tracing overhead.  Every op's answer is checked against a reference outside
the timed region.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A wrong answer or an op that
raised makes the exit code 1; a missing package source tree makes it 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_S, SpeedLog

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 5  # fresh processes whose set-up time is measured; the median is reported
SETUP_LOOPS = 20  # calibration-loop runs before each measured set-up
TIMEOUT_S = 170  # the whole run, so that it ends within the 180 s a run may take
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def _spawn(args):
    return subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )


def _finish(proc, deadline):
    """Wait for the worker within the run's deadline; returns its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("error: the workload process ran past the run's time limit")
    if proc.returncode != 0:
        raise SystemExit(f"error: the workload process exited with code {proc.returncode}")
    return out


def _until_ready(args, deadline, speed):
    """Start a worker; returns (process, raw set-up s, set-up s at the reference speed).

    The worker runs the calibration loop inside its set-up and reports the
    loop's mean time and the time it took there on its ready line; a set-up
    too short to sample falls back on the loop runs made here just before.
    """
    speed.sample(SETUP_LOOPS)
    t0 = time.perf_counter()
    proc = _spawn(args)
    word, _, rest = proc.stdout.readline().partition(" ")
    t1 = time.perf_counter()
    if word.strip() != "ready":
        _finish(proc, deadline)
        raise SystemExit("error: the workload process did not finish set-up")
    inside = json.loads(rest)
    setup_s = t1 - t0 - inside["inside_s"]
    loop_s = inside["loop_s"] or speed.loop_s(t0, t0)
    return proc, t1 - t0, setup_s * REF_S / loop_s


def tail_percentile(latencies):
    """The highest listed percentile with at least 10 ops above it: (p, value, ops above)."""
    xs = sorted(latencies)
    n = len(xs)
    best = (100, xs[-1], 0)  # fewer than 20 ops: no percentile has 10 above it, report the maximum
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)  # nearest-rank percentile
        if n - rank >= 10:
            best = (p, xs[rank - 1], n - rank)
    return best


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _per_op(rows, n_ops, fn):
    """fn over each op's values across the passes (the last pass may be cut short)."""
    return [fn([row[i] for row in rows if i < len(row)]) for i in range(n_ops)]


def end_to_end(raw, setups, raw_setups):
    """End-to-end metrics from the timed passes, at the reference speed.

    Every pass repeats the same ops on the same inputs.  Each op's latency
    and CPU are its median over the passes; throughput, CPU and the median
    latency are taken over the op list.  The tail percentile is taken over
    the op runs of the minimum number of passes that each run makes, each
    run at its op's median, so that neither the percentile nor the op it
    falls on moves with the number of passes a faster or slower machine fits
    into the run, or with the noise of a single run.
    """
    n_ops = len(raw["kinds"])
    ms = _per_op(raw["ref_ms"], n_ops, statistics.median)
    cpu = _per_op(raw["ref_cpu_s"], n_ops, statistics.median)
    raw_ms = _per_op(raw["raw_ms"], n_ops, statistics.median)
    n_pass = len(raw["ref_ms"])
    p, tail, beyond = tail_percentile(ms * raw["min_passes"])
    loop = raw["loop_ms"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "cpu_s": (sum(cpu), "s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    kinds = {}
    for kind, op_ms in zip(raw["kinds"], ms):
        kinds.setdefault(kind, []).append(op_ms)
    walls = raw["pass_walls_s"]
    lines = [
        f"calibration loop: {len(loop)} runs, median {statistics.median(loop):.4f} ms, "
        f"min {min(loop):.4f} ms (reference {REF_S * 1e3:g} ms)",
        f"set-up runs (s, reference speed): {', '.join(f'{s:.3f}' for s in setups)}",
        f"set-up runs (s, raw): {', '.join(f'{s:.3f}' for s in raw_setups)}",
        f"{n_pass} passes of {len(ms)} ops (the last may stop early), "
        f"pass walls (s): {', '.join(f'{w:.2f}' for w in walls)}",
        f"raw: ops_per_s {len(raw_ms) / (sum(raw_ms) / 1e3):.4f} 1/s, op_p50_ms {statistics.median(raw_ms):.4f} ms, "
        f"plain throughput {sum(map(len, raw['raw_ms'])) / sum(walls):.4f} ops/s",
        f"op_tail_ms is p{p:g}, with {beyond} of {raw['min_passes'] * n_ops} ops "
        f"({raw['min_passes']} passes) above it",
        "per op type (ops, p50 of per-op median ms): "
        + ", ".join(f"{k} {len(v)} {statistics.median(v):.2f}" for k, v in sorted(kinds.items())),
    ]
    return metrics, lines


def main(argv=None):
    for need in (ROOT / "src" / "nilorbit" / "__init__.py", ROOT / "tests" / "_oracles.py", ROOT / "BENCHMARK.json"):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} is missing; run from a full checkout", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S
    common = [args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    if args.trace:
        raw = json.loads(_finish(_spawn([*common, "--trace"]), deadline).splitlines()[-1])
        metrics = {k: (v["value"], v["unit"]) for k, v in raw["metrics"].items()}
        lines = raw["report"] + [f"{raw['spans']} spans kept, written to {raw['spans_file']}"]
        wanted = spec["per_layer"]
    else:
        speed = SpeedLog()
        raw_setups, setups = [], []
        for i in range(SETUP_RUNS):
            last = i == SETUP_RUNS - 1  # the timed passes run in the last process
            proc, raw_s, ref_s = _until_ready(common if last else [*common, "--setup-only"], deadline, speed)
            if not last:
                _finish(proc, deadline)
            raw_setups.append(raw_s)
            setups.append(ref_s)
        raw = json.loads(_finish(proc, deadline).splitlines()[-1])
        metrics, lines = end_to_end(raw, setups, raw_setups)
        wanted = spec["end_to_end"]

    failures = raw["failures"]
    attempted = raw["attempted"]
    wrong = [f for f in failures if f["kind"] != "aborted"]
    metrics["failed_ratio"] = (len(failures) / attempted, "1")

    print(f"workload {args.workload}, seed {args.seed}, run length {args.seconds} s, trace {args.trace}")
    print(
        f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {_cpu_model()}, package src/nilorbit"
    )
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<45} {value:>14.6g} {unit}")
    for f in failures:
        print(f"FAILED ({f['kind']}): {f['draw']}: {f['reason']}")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
