"""One workload process: set-up, the timed passes, the reference checks.

run.py starts this process and measures set-up from the spawn to the
"ready" line.  The last line of standard output is one JSON object with the
raw measurements, which run.py turns into metrics.

Usage: worker.py WORKLOAD --seed N --seconds S [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from speed import SpeedLog

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

# The calibration loop runs inside set-up, from the package import to the
# "ready" line, and the ready line reports it (see speed.py).
SETUP_SPEED = SpeedLog()
SETUP_SPEED.start()

import nilorbit  # noqa: E402,F401  (set-up includes the package import)

import workloads  # noqa: E402
from tracer import Tracer, per_layer_report  # noqa: E402


class OpTimeout(BaseException):
    """Raised inside an op that ran past the workload's per-op wall limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _cpu(children):
    if not children:
        return time.process_time()
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


class Record(NamedTuple):
    op: workloads.Op
    start: float  # perf_counter seconds
    ns: int  # wall
    cpu: float  # seconds: the process's own, or its children's for a workload that runs subprocesses
    status: str
    result: object


def run_pass(wl, ops, tracer=None, pass_no=0, speed=None, stop_at=None):
    """Run ops closed-loop, one at a time; returns (wall s, records).

    Before each op, outside its timing, a garbage collection empties the
    collector's generations, so that the collections inside an op depend on
    that op alone and not on the ops before it (see `freeze_setup`).  With
    a speed log, the calibration loop runs inside each op, its time taken
    out of the op's, and after each op.  With `stop_at`, the pass ends early
    once perf_counter passes it.
    """
    limit = wl.op_limit_s
    records = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if stop_at is not None and time.perf_counter() >= stop_at:
            break
        if tracer is not None:
            tracer.op_id = f"{pass_no}.{i}"
        gc.collect()
        if limit:
            signal.setitimer(signal.ITIMER_REAL, limit)
        cpu = _cpu(wl.children_cpu)
        start_s = time.perf_counter()
        start = time.perf_counter_ns()
        inside = 0.0
        if speed is not None:
            speed.start()
        try:
            result, status = op.run(), "ok"
        except OpTimeout:
            result, status = None, "aborted"
        except Exception as e:  # an op that raises is a failed op, not a crashed run
            result, status = None, f"raised {type(e).__name__}: {e}"
        finally:
            if speed is not None:
                inside = speed.stop()
            if limit:
                signal.setitimer(signal.ITIMER_REAL, 0)
        ns = time.perf_counter_ns() - start - round(inside * 1e9)
        cpu = _cpu(wl.children_cpu) - cpu - (0.0 if wl.children_cpu else inside)
        records.append(Record(op, start_s, ns, cpu, status, result))
        if speed is not None:
            speed.after_op(ns / 1e9)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.op_id = None
    return wall, records


def freeze_setup():
    """Move every object made so far to the collector's permanent generation.

    The collection before each op then costs microseconds instead of the
    5 ms of a walk over the set-up's objects.
    """
    gc.collect()
    gc.freeze()


def check_records(workload, records):
    """Reference checks, run outside every timed region; returns the failures.

    Every pass repeats an op on the same input, so a result equal to the
    op's first checked result shares that result's verdict.
    """
    failures = []
    verdicts = {}  # id(op) -> (first result, its verdict)
    for op, _, _, _, status, result in records:
        if status == "ok":
            first = verdicts.get(id(op))
            if first is not None and first[0] == result:
                reason = first[1]
            else:
                reason = op.check(result)
                verdicts.setdefault(id(op), (result, reason))
            if reason is not None:
                failures.append({"kind": "mismatch", "draw": op.draw, "reason": reason})
        elif status == "aborted":
            failures.append({"kind": "aborted", "draw": op.draw, "reason": f"ran past the {workload.op_limit_s} s per-op limit"})
        else:
            failures.append({"kind": "raised", "draw": op.draw, "reason": status})
    return failures


def measure(wl, seconds, speed):
    """Passes over the op list: `wl.MIN_PASSES` whole ones, then more until `seconds` have passed.

    The pass running when time is up stops there, so a run overshoots by one
    op at most once its minimum passes are done.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    speed.sample()
    while len(passes) < wl.MIN_PASSES or time.perf_counter() < deadline:
        stop_at = deadline if len(passes) >= wl.MIN_PASSES else None
        passes.append(run_pass(wl, wl.ops, speed=speed, stop_at=stop_at))
    return passes


def at_reference_speed(passes, speed):
    """Per pass, per op: (wall ms, cpu s) at the reference speed of `speed.py`."""
    out = []
    for _, recs in passes:
        row = []
        for r in recs:
            k = speed.scale(r.start, r.start + r.ns / 1e9)
            row.append((r.ns / 1e6 * k, r.cpu * k))
        out.append(row)
    return out


def measure_traced(cls, seed, seconds):
    """Set-up and each pass run twice on identical inputs, untraced and then traced."""
    kwargs = {"in_process": True} if cls is workloads.CliSession else {}
    t0 = time.perf_counter()
    plain = cls(seed, **kwargs)
    untraced_wall = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    tracer.op_id = "setup"
    t0 = time.perf_counter()
    wl = cls(seed, **kwargs)
    traced_wall = time.perf_counter() - t0
    tracer.uninstall()
    tracer.op_id = None
    freeze_setup()

    records, plain_records = [], []
    begin = time.perf_counter()
    p = 0
    try:
        while not p or time.perf_counter() - begin < seconds:
            u_wall, u_recs = run_pass(plain, plain.ops)
            tracer.install()
            t_wall, t_recs = run_pass(wl, wl.ops, tracer, p)
            tracer.uninstall()
            untraced_wall += u_wall
            traced_wall += t_wall
            plain_records += u_recs
            records += t_recs
            p += 1
    finally:
        tracer.uninstall()
        for w in (plain, wl):
            if hasattr(w, "close"):
                w.close()
    return tracer, traced_wall, untraced_wall, p, records, plain_records


def _median_run_s(argv, env, n=5):
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, capture_output=True, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cli_startup(env):
    """Median wall of a bare interpreter, of `import nilorbit.cli`, and of `family hmn 2 2`."""
    py = sys.executable
    return {
        "bare_s": _median_run_s([py, "-c", "pass"], env),
        "import_s": _median_run_s([py, "-c", "import nilorbit.cli"], env),
        "family_hmn_2_2_s": _median_run_s([py, "-m", "nilorbit.cli", "family", "hmn", "2", "2"], env),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if Path(nilorbit.__file__).resolve().parent != ROOT / "src" / "nilorbit":
        sys.exit(f"error: imported nilorbit from {nilorbit.__file__}, not from this checkout")
    cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        SETUP_SPEED.stop()
    signal.signal(signal.SIGALRM, _on_alarm)
    out = {"workload": args.workload}

    if args.trace:
        tracer, traced_wall, untraced_wall, n_pass, records, plain_records = measure_traced(cls, args.seed, args.seconds)
        failures = check_records(cls, records + plain_records)
        extra = {}
        if args.workload == "cli-session":
            extra["startup"] = cli_startup(workloads.cli_env())
            extra["cmd_p50_ms"] = {
                kind: statistics.median(r.ns for r in plain_records if r.op.kind == kind) / 1e6
                for kind in {op.kind for op, *_ in plain_records}
            }
        out.update(
            per_layer_report(tracer, args.workload, traced_wall, untraced_wall, extra),
            passes=n_pass,
            attempted=len(records) + len(plain_records),
            failures=failures,
        )
        path = workloads.WORK_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "traced_wall_s": traced_wall})
        out["spans_file"] = str(path.relative_to(ROOT))
        out["spans"] = len(tracer.spans)
    else:
        wl = cls(args.seed)
        freeze_setup()
        inside = SETUP_SPEED.stop()
        loops = SETUP_SPEED.durations
        setup = {"loop_s": sum(loops) / len(loops) if loops else None, "inside_s": inside}
        try:
            print("ready", json.dumps(setup), flush=True)
            if args.setup_only:
                return 0
            speed = SpeedLog()
            passes = measure(wl, args.seconds, speed)
            usage = resource.getrusage(resource.RUSAGE_CHILDREN if cls.children_cpu else resource.RUSAGE_SELF)
            failures = check_records(cls, [r for _, recs in passes for r in recs])
        finally:
            if hasattr(wl, "close"):
                wl.close()
        ref = at_reference_speed(passes, speed)
        out.update(
            pass_walls_s=[wall for wall, _ in passes],
            kinds=[op.kind for op in wl.ops],
            min_passes=wl.MIN_PASSES,
            raw_ms=[[r.ns / 1e6 for r in recs] for _, recs in passes],
            ref_ms=[[ms for ms, _ in row] for row in ref],
            ref_cpu_s=[[cpu for _, cpu in row] for row in ref],
            loop_ms=[d * 1e3 for d in speed.durations],
            attempted=sum(len(recs) for _, recs in passes),
            failures=failures,
            peak_rss_mb=usage.ru_maxrss / 1024,
        )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
