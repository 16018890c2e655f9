"""Spans around the calls into each nilorbit layer, recorded from outside the package.

Every module of the package is a layer.  A function is wrapped where another
module imported it (for example ``nilorbit.limits.udet``), so each call that
crosses a layer boundary becomes a span.  Inside a layer, the public
functions of the higher layers are wrapped in their own module as well, so
that calls such as ``orbit_limit_set -> subspace_limit`` show up; the leaf
layers ``linalg`` and ``polys`` are spanned only at their boundary and at
the public methods of the linalg classes, because their internal helper
calls run millions of times per second and would swamp the measurement.

A span is (name, site, start_ns, end_ns, parent index, op id).  Self time is
a span's duration minus the time covered by its child spans; it is summed
per name on the fly, while the raw spans are kept in memory up to a cap and
written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
from time import perf_counter_ns

LAYERS = ("linalg", "polys", "algebra", "coadjoint", "strata", "families", "limits", "formats", "cli")

# Leaf arithmetic layers: spanned only where another layer calls them.
_BOUNDARY_ONLY = {"linalg", "polys"}
# Private functions that the per-layer metrics name explicitly.
_PRIVATE_SPANNED = {"coadjoint": {"_jump_scan"}, "limits": {"_generic_parameter"}}
# Classes whose public methods are spanned (exact rational elimination and brackets).
_CLASSES_SPANNED = {"linalg": ("RrefAccumulator", "Subspace"), "algebra": ("LieAlgebra",)}

RECOGNIZE = "families.recognize_heisenberg_times_abelian"
SPAN_CAP = 300_000  # raw spans kept for the trace file; the sums cover every span


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, self_ns, inclusive_ns]
        self.counters: dict[str, int] = {}
        self.spans: list = []
        self.dropped = 0
        self.op_id = None
        self._stack: list[list] = []  # [span index, child ns, name]
        self._patches: list[tuple[object, str, object, object]] = []
        self._hooks = {
            "strata.generic_stratum": self._after_generic_stratum,
            "strata.enumerate_strata": self._after_enumerate_strata,
            "polys.udet": self._after_udet,
        }

    # -- installation -----------------------------------------------------

    def install(self):
        """Swap every spanned attribute for its wrapper; `uninstall` restores them."""
        if self._patches:
            return
        for layer in LAYERS:
            mod = importlib.import_module(f"nilorbit.{layer}")
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("nilorbit."):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home == layer:
                    if layer in _BOUNDARY_ONLY:
                        continue
                    if attr.startswith("_") and attr not in _PRIVATE_SPANNED.get(layer, ()):
                        continue
                self._patch(mod, attr, self._wrap(obj, f"{home}.{obj.__name__}", layer))
            for cls_name in _CLASSES_SPANNED.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    name = f"{layer}.{cls_name}.{attr}"
                    if inspect.isfunction(obj):
                        self._patch(cls, attr, self._wrap(obj, name, layer))
                    elif isinstance(obj, classmethod):
                        self._patch(cls, attr, classmethod(self._wrap(obj.__func__, name, layer)))

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr], wrapper))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name, site):
        hook = self._hooks.get(name)
        if name == "linalg.rank" and site == "limits":
            hook = self._after_limits_rank
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(fn, name, site, hook, args, kwargs)

        return wrapper

    # -- recording --------------------------------------------------------

    def _call(self, fn, name, site, hook, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        idx = len(self.spans)
        if idx < SPAN_CAP:
            self.spans.append(None)
        else:
            idx = -1
            self.dropped += 1
        frame = [idx, 0, name]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(frame, parent, name, site, start, perf_counter_ns())
            raise
        end = perf_counter_ns()
        if hook is not None:
            name = hook(name, args, kwargs, result, end - start)
        self._close(frame, parent, name, site, start, end)
        return result

    def _close(self, frame, parent, name, site, start, end):
        self._stack.pop()
        dur = end - start
        if parent is not None:
            parent[1] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0]
        st[0] += 1
        st[1] += dur - frame[1]
        st[2] += dur
        if frame[0] >= 0:
            self.spans[frame[0]] = (name, site, start, end, parent[0] if parent else None, self.op_id)

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    # -- hooks that measure useful work against attempts ------------------

    def _after_generic_stratum(self, name, args, kwargs, result, dur):
        mode = kwargs.get("mode", args[1] if len(args) > 1 else "symbolic")
        if mode == "sampled":
            self.count("strata.sampled.agreeing", result.certification["agreeing_samples"])
            self.count("strata.sampled.samples", result.certification["samples"])
        elif any(frame[2] == RECOGNIZE for frame in self._stack):
            self.count("families.recognize.symbolic_calls")
            self.count("families.recognize.symbolic_ns", dur)
        return f"{name}.{mode}"

    def _after_enumerate_strata(self, name, args, kwargs, result, dur):
        samples = kwargs.get("samples", args[1] if len(args) > 1 else 0)
        probes = kwargs.get("extra_points", args[3] if len(args) > 3 else ())
        self.count("strata.enumerate_strata.labels", len(result))
        self.count("strata.enumerate_strata.points", samples + len(probes))
        return name

    def _after_udet(self, name, args, kwargs, result, dur):
        self.count("polys.udet.zero", int(result.is_zero))
        return name

    def _after_limits_rank(self, name, args, kwargs, result, dur):
        self.count("limits.rank_tests")
        return name

    # -- output -------------------------------------------------------------

    def self_s(self, name):
        return self.stats.get(name, (0, 0, 0))[1] / 1e9

    def inclusive_s(self, name):
        return self.stats.get(name, (0, 0, 0))[2] / 1e9

    def calls(self, name):
        return self.stats.get(name, (0, 0, 0))[0]

    def layer_totals(self):
        """{layer: (calls, self seconds)} summed over every span name of the layer."""
        out = {layer: [0, 0] for layer in LAYERS}
        for name, (calls, self_ns, _) in self.stats.items():
            layer = name.partition(".")[0]
            out[layer][0] += calls
            out[layer][1] += self_ns
        return {layer: (c, ns / 1e9) for layer, (c, ns) in out.items()}

    def write(self, path, meta):
        """Write the kept spans as gzip JSON lines: one header, then one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            header = dict(meta, fields=["name", "site", "start_ns", "end_ns", "parent", "op"])
            header["dropped_spans"] = self.dropped
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

# metric prefix -> span name, where the two differ
_ALIASES = {"families.recognize": RECOGNIZE, "limits.generic_parameter": "limits._generic_parameter"}
FUNCTION_METRICS = {
    "coadjoint.fine_jump_tuple": ("self_s",),
    "coadjoint.jump_set": ("self_s",),
    "coadjoint._jump_scan": ("self_s",),
    "linalg.kernel_basis": ("calls", "self_s"),
    "coadjoint.coadjoint_move": ("self_s",),
    "coadjoint.flag_form": ("self_s",),
    "strata.generic_stratum.sampled": ("self_s",),
    "strata.enumerate_strata": ("self_s",),
    "algebra.jordan_holder_flag": ("self_s",),
    "algebra.change_basis": ("self_s",),
    "strata.generic_stratum.symbolic": ("self_s",),
    "polys.generic_rank_rows": ("self_s",),
    "families.recognize": ("self_s",),
    "limits.subspace_limit": ("self_s",),
    "polys.udet": ("calls", "self_s"),
    "polys.ugcd": ("self_s",),
    "limits.direction_family": ("self_s",),
    "polys.poly_row_space": ("self_s",),
    "coadjoint.isotropy": ("self_s",),
    "algebra.is_ideal": ("calls", "self_s"),
    "algebra.validate_algebra": ("self_s",),
    "formats.algebra_from_json": ("self_s",),
    "formats.dumps_canonical": ("self_s",),
    "formats.algebra_hash": ("self_s",),
}
CLI_COMMANDS = (
    "family", "validate", "series", "flag", "classify", "strata",
    "layers", "index", "flat", "recognize", "verify-hmn", "limit",
)
# The layer each workload is predicted to spend most of its time in.
PREDICTED = {
    "label-sweep": ({"coadjoint", "linalg"}, "coadjoint/linalg"),
    "generic-index": ({"polys"}, "polys, reached through families"),
    "limit-family": ({"polys"}, "polys (udet)"),
    "cli-session": ({"algebra"}, "start-up plus algebra.validate_algebra; start-up is judged below"),
}


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer_report(tracer, workload, traced_wall, untraced_wall, cli_extra=None):
    """Per-layer metrics of a traced run and the report lines that explain them."""
    m = {}
    totals = tracer.layer_totals()
    for layer, (calls, self_s) in totals.items():
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.share"] = (_ratio(self_s, traced_wall), "1")
    for prefix, kinds in FUNCTION_METRICS.items():
        span = _ALIASES.get(prefix, prefix)
        for kind in kinds:
            if kind == "calls":
                m[f"{prefix}.calls"] = (tracer.calls(span), "count")
            else:
                m[f"{prefix}.self_s"] = (tracer.self_s(span), "s")
    c = tracer.counters.get
    m["strata.sampled.agreeing_ratio"] = (_ratio(c("strata.sampled.agreeing", 0), c("strata.sampled.samples", 0)), "1")
    m["strata.enumerate_strata.distinct_ratio"] = (
        _ratio(c("strata.enumerate_strata.labels", 0), c("strata.enumerate_strata.points", 0)),
        "1",
    )
    m["families.recognize.symbolic_calls"] = (c("families.recognize.symbolic_calls", 0), "count")
    m["families.recognize.symbolic_s"] = (c("families.recognize.symbolic_ns", 0) / 1e9, "s")
    m["polys.udet.zero_ratio"] = (_ratio(c("polys.udet.zero", 0), tracer.calls("polys.udet")), "1")
    m["limits.generic_parameter.rank_tests"] = (
        _ratio(c("limits.rank_tests", 0), tracer.calls("limits.orbit_limit_set")),
        "count/op",
    )
    cli_extra = cli_extra or {}
    startup = cli_extra.get("startup", {})
    m["cli.startup_ms"] = (startup.get("import_s", 0.0) * 1e3, "ms")
    p50 = cli_extra.get("cmd_p50_ms", {})
    for cmd in CLI_COMMANDS:
        m[f"cli.cmd.{cmd}.p50_ms"] = (p50.get(cmd, 0.0), "ms")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")

    lines = [
        f"traced wall {traced_wall:.3f} s, untraced wall of the same work {untraced_wall:.3f} s, "
        f"tracing overhead {traced_wall - untraced_wall:.3f} s "
        f"({_ratio(traced_wall - untraced_wall, untraced_wall):.1%})",
        f"{'layer':<10} {'calls':>10} {'self_s':>10} {'share':>7}",
    ]
    for layer, (calls, self_s) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{layer:<10} {calls:>10} {self_s:>10.3f} {_ratio(self_s, traced_wall):>7.1%}")
    attributed = sum(s for _, s in totals.values())
    lines.append(
        f"{'(outside)':<10} {'':>10} {traced_wall - attributed:>10.3f} "
        f"{_ratio(traced_wall - attributed, traced_wall):>7.1%}   benchmark code and unspanned methods"
    )
    top = sorted(tracer.stats.items(), key=lambda kv: -kv[1][1])[:5]
    lines.append("top spans by self time: " + ", ".join(
        f"{name} {st[1] / 1e9:.3f} s" for name, st in top))
    dominant = max(totals, key=lambda layer: totals[layer][1])
    layers, words = PREDICTED[workload]
    lines.append(
        f"dominant layer: {dominant} ({_ratio(totals[dominant][1], traced_wall):.1%} of traced wall); "
        f"predicted {words}: {'matches' if dominant in layers else 'does NOT match'}"
    )
    lines += _reanchor_lines(tracer, workload, traced_wall, startup, p50)
    return {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, "report": lines}


def _reanchor_lines(tracer, workload, traced_wall, startup, p50):
    """Compare with the shares measured when the roadmap was last re-anchored."""
    if workload == "label-sweep":
        share = _ratio(tracer.inclusive_s("coadjoint._jump_scan"), traced_wall)
        return [f"re-anchor: _jump_scan (inclusive) is {share:.1%} of traced wall; roadmap: about 70% of criterion 4"]
    if workload == "generic-index":
        sym = tracer.counters.get("families.recognize.symbolic_ns", 0) / 1e9
        rec = tracer.inclusive_s(RECOGNIZE)
        return [
            f"re-anchor: the symbolic call inside recognition is {_ratio(sym, rec):.1%} of recognition time "
            f"and {_ratio(sym, traced_wall):.1%} of traced wall; roadmap: about 87% of criterion 8"
        ]
    if workload == "limit-family":
        share = _ratio(tracer.inclusive_s("limits.subspace_limit"), traced_wall)
        udet = _ratio(tracer.inclusive_s("polys.udet"), traced_wall)
        return [f"subspace_limit (inclusive) is {share:.1%} of traced wall, udet (inclusive) {udet:.1%}"]
    lines = [
        f"re-anchor: `family hmn 2 2` takes {startup.get('family_hmn_2_2_s', 0):.3f} s against "
        f"{startup.get('bare_s', 0):.3f} s for a bare interpreter and {startup.get('import_s', 0):.3f} s "
        "for `import nilorbit.cli`; roadmap: 0.17 s against 0.09 s"
    ]
    if p50:
        work = statistics.median(p50.values()) / 1e3
        start = startup.get("import_s", 0.0)
        validate = _ratio(tracer.self_s("algebra.validate_algebra"), traced_wall)
        lines.append(
            f"start-up (interpreter + import) {start * 1e3:.1f} ms per command against a median in-process "
            f"command of {work * 1e3:.1f} ms: start-up {'dominates' if start > work else 'does NOT dominate'}; "
            f"validate_algebra is {validate:.1%} of in-process traced wall"
            f"{'' if validate >= 0.1 else ', so the prediction that it matters does NOT hold'}"
        )
    return lines
