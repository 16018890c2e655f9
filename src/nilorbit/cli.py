"""Command-line front end.

Subcommands read the algebra file format on stdin (or --input) and print a
JSON report whose envelope records the algebra hash, seed, order variant and
tool version, so identical inputs and seeds give byte-identical output.
Exit codes: 0 success; 2 for a `nilorbit.errors.UsageError` (malformed input,
an out-of-range parameter) or an unreadable input; 1 for an `errors.MathError`
(invalid algebra, no limit) or a failed verification.  A malformed document
exits 2 except under `validate`, which reports it as "malformed" and exits 1.
Any other exception is a bug: stderr gets one line, "internal error in
<command>: <message>", with the algebra hash when an algebra was read and
the seed, so that the run can be reproduced; it exits 1.
"""

# Each cmd_* function imports the mathematics it runs in its body, so a
# command loads only its own modules: interpreter start-up and imports are
# most of a short command's time.  (A comment, because the docstring above
# is the --help text.)

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import islice

from . import __version__
from .errors import MathError, UsageError
from .formats import (
    ORDER_VARIANTS,
    FormatError,
    algebra_from_json,
    algebra_hash,
    algebra_to_json,
    fine_label_to_list,
    frac_parse,
    frac_str,
    functional_from_list,
    functional_to_list,
    parse_json,
    subspace_to_rows,
)


def _read_algebra(args):
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as e:
        raise UsageError(f"input is not UTF-8 text: {e}") from e
    args.algebra = algebra_from_json(text)  # named in an internal-error report
    return args.algebra


def _read_valid_algebra(args):
    """The input algebra and validation's (chain, step) of its lower central series; MathError if invalid."""
    from .algebra import validate_algebra

    g = _read_algebra(args)
    diags, series = validate_algebra(g, with_series=True)
    if diags:
        lines = "; ".join(d.message for d in diags)
        raise MathError(f"invalid algebra: {lines}")
    return g, series


def _read_valid_flag(args):
    """The valid input algebra and its Jordan-Hoelder flag, built on validation's series."""
    from .algebra import jordan_holder_flag

    g, (chain, _) = _read_valid_algebra(args)
    return g, jordan_holder_flag(g, chain)


def _envelope(args, g, command, report):
    return {
        "algebra_sha256": algebra_hash(g),
        "command": command,
        "order_variant": args.order_variant,
        "report": report,
        "seed": args.seed,
        "tool": "nilorbit",
        "version": __version__,
    }


def _emit(args, doc) -> int:
    if args.format == "json":
        # formats.dumps_canonical's bytes, written a slice of chunks at a time: no copy of the whole report
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)
        while text := "".join(islice(chunks, 4096)):
            sys.stdout.write(text)
        sys.stdout.write("\n")
    else:
        for line in _flatten(doc):
            print(line)
    return 0


def _flatten(doc, prefix=""):
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from _flatten(doc[k], f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield f"{prefix[:-1]} = {doc}"


def _json_safe(x):
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, (tuple, list)):
        return [_json_safe(v) for v in x]
    return x


def _parse_functional(g, text):
    return functional_from_list(g, parse_json(text, "functional must be a JSON array of rationals", list))


def _layer_probes(g):
    """Deterministic probe set: the origin plus every dual basis vector."""
    from .coadjoint import dual_basis_functional, zero_functional

    return [zero_functional(g)] + [dual_basis_functional(g, i) for i in range(g.dim)]


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_family(args) -> int:
    from .families import FamilySpec, generate

    spec = FamilySpec(args.kind, tuple(args.params))
    sys.stdout.write(algebra_to_json(generate(spec)))
    return 0


def cmd_validate(args) -> int:
    from .algebra import validate_algebra

    try:
        g = _read_algebra(args)
    except FormatError as e:
        doc = {
            "command": "validate",
            "diagnostics": [{"kind": "malformed", "message": str(e)}],
            "tool": "nilorbit",
            "version": __version__,
        }
        _emit(args, doc)
        return 1
    diags = validate_algebra(g)
    report = {
        "diagnostics": [
            {"kind": d.kind, "message": d.message, "data": _json_safe(list(d.data))}
            for d in diags
        ],
        "valid": not diags,
    }
    _emit(args, _envelope(args, g, "validate", report))
    return 0 if not diags else 1


def cmd_series(args) -> int:
    g, (chain, step) = _read_valid_algebra(args)
    report = {
        "step": step,
        "terms": [
            {"dim": s.dim, "basis": subspace_to_rows(s)} for s in chain
        ],
    }
    return _emit(args, _envelope(args, g, "series", report))


def cmd_flag(args) -> int:
    g, flag = _read_valid_flag(args)
    report = {
        "rows": [[frac_str(c) for c in row] for row in flag.rows],
        "ideal_property_verified": True,
    }
    return _emit(args, _envelope(args, g, "flag", report))


def cmd_classify(args) -> int:
    from .strata import classify_point

    g, flag = _read_valid_flag(args)
    xi = _parse_functional(g, args.functional)
    coarse, fine = classify_point(flag, xi)
    report = {
        "coarse": list(coarse),
        "fine": fine_label_to_list(fine),
        "orbit_dim": len(coarse),
        "is_character": not coarse,
        "functional": functional_to_list(xi),
    }
    return _emit(args, _envelope(args, g, "classify", report))


def cmd_strata(args) -> int:
    from .strata import enumerate_strata

    g, flag = _read_valid_flag(args)
    probes = _layer_probes(g)
    for text in args.probe or []:
        probes.append(_parse_functional(g, text))
    found = enumerate_strata(flag, args.samples, seed=args.seed, extra_points=probes, bound=args.bound)
    report = {
        "completeness": "sampled-lower-bound",
        "samples": args.samples,
        "strata": [
            {
                "fine": fine_label_to_list(s.label),
                "coarse": list(s.label[-1]) if s.label else [],
                "orbit_dim": s.orbit_dim,
                "representative": functional_to_list(s.representative),
            }
            for s in found
        ],
    }
    return _emit(args, _envelope(args, g, "strata", report))


def cmd_layers(args) -> int:
    from .strata import composition_layers, enumerate_strata

    g, flag = _read_valid_flag(args)
    found = enumerate_strata(
        flag, args.samples, seed=args.seed, extra_points=_layer_probes(g), bound=args.bound
    )
    layering = composition_layers(flag, found, order_variant=args.order_variant)
    report = {
        "completeness": "sampled-lower-bound",
        "flag": [[frac_str(c) for c in row] for row in flag.rows],
        "layers": [
            {
                "index": i + 1,
                "fine": fine_label_to_list(layer.label),
                "orbit_dim": layer.orbit_dim,
                "is_character_layer": layer.is_character_layer,
                "character_dim": layer.character_dim,
                "representative": functional_to_list(layer.representative),
            }
            for i, layer in enumerate(layering.layers)
        ],
    }
    return _emit(args, _envelope(args, g, "layers", report))


def cmd_index(args) -> int:
    from .strata import generic_stratum

    g, flag = _read_valid_flag(args)
    result = generic_stratum(
        flag, mode=args.mode, samples=args.samples, seed=args.seed, bound=args.bound
    )
    report = {
        "ind": result.ind,
        "generic_coarse": list(result.generic_label),
        "generic_fine": fine_label_to_list(result.generic_fine),
        "certification": result.certification,
    }
    return _emit(args, _envelope(args, g, "index", report))


def cmd_flat(args) -> int:
    from .coadjoint import is_flat_orbit

    g, _ = _read_valid_algebra(args)
    xi = _parse_functional(g, args.functional)
    res = is_flat_orbit(g, xi, samples=args.samples, seed=args.seed, bound=args.bound)
    report = {
        "flat": res.flat,
        "certificate": {
            "isotropy_is_ideal": res.certificate.isotropy_is_ideal,
            "samples_checked": res.certificate.samples_checked,
            "samples_inside": res.certificate.samples_inside,
        },
        "direction_dim": res.orbit.direction.dim if res.orbit else None,
        "functional": functional_to_list(xi),
    }
    return _emit(args, _envelope(args, g, "flat", report))


def cmd_recognize(args) -> int:
    from .families import recognize_heisenberg_times_abelian

    g, _ = _read_valid_algebra(args)
    rec = recognize_heisenberg_times_abelian(g)
    report = {
        "recognized": rec is not None,
        "d": rec.d if rec else None,
        "k": rec.k if rec else None,
        "note": rec.note if rec else None,
    }
    return _emit(args, _envelope(args, g, "recognize", report))


def cmd_verify_hmn(args) -> int:
    from .families import FamilySpec, generate, verify_hmn

    rep = verify_hmn(args.m, args.n, seed=args.seed, flat_samples=args.samples, bound=args.bound)
    g = generate(FamilySpec("hmn", (args.m, args.n)))
    report = {
        "m": rep.m,
        "n": rep.n,
        "all_passed": rep.all_passed,
        "items": [
            {
                "item": it.item,
                "applicable": it.applicable,
                "passed": it.passed,
                "detail": it.detail,
            }
            for it in rep.items
        ],
        "notes": list(rep.notes),
    }
    _emit(args, _envelope(args, g, "verify-hmn", report))
    return 0 if rep.all_passed else 1


def cmd_limit(args) -> int:
    from .limits import one_param_functional, orbit_limit_set

    g, _ = _read_valid_algebra(args)
    coords = parse_json(args.family, "family must be a JSON array of polynomial strings", list)
    t0 = frac_parse(args.t0)
    xi_t = one_param_functional(g, [str(c) for c in coords], t0=t0)
    rep = orbit_limit_set(
        g, xi_t, sample_budget=args.budget, seed=args.seed, bound=args.bound
    )
    report = {
        "t0": frac_str(t0),
        "generic_rank": rep.generic_rank,
        "degenerated": rep.degenerated,
        "limit_base": functional_to_list(rep.limit_base),
        "limit_direction": subspace_to_rows(rep.limit_direction),
        "annihilated": list(rep.annihilated),
        "decomposition": [
            {
                "representative": functional_to_list(c.representative),
                "orbit_dim": c.orbit_dim,
                "samples": c.size,
            }
            for c in rep.decomposition
        ],
        "slice_count": rep.slice_count,
        "min_orbits_per_slice": rep.min_orbits_per_slice,
        "isolated_point_flag": rep.isolated_point_flag,
        "central_limit_set_dim": rep.m_dim,
        "samples": rep.samples,
    }
    return _emit(args, _envelope(args, g, "limit", report))


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", "-i", default="-", help="algebra file, '-' for stdin")
    common.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    common.add_argument("--bound", type=int, default=7, help="integer bound for random coordinates")
    common.add_argument(
        "--order-variant",
        choices=ORDER_VARIANTS,
        default="lex_ascending",
        help="tuple order used for fine labels",
    )
    common.add_argument("--format", choices=("json", "text"), default="json")

    p = argparse.ArgumentParser(prog="nilorbit", description=__doc__)
    p.add_argument("--version", action="version", version=f"nilorbit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("family", parents=[common], help="emit a generated algebra")
    f.add_argument("kind")
    f.add_argument("params", type=int, nargs="*")
    f.set_defaults(func=cmd_family)

    sub.add_parser("validate", parents=[common], help="diagnostics; exit 1 if invalid").set_defaults(
        func=cmd_validate
    )
    sub.add_parser("series", parents=[common], help="lower central series").set_defaults(
        func=cmd_series
    )
    sub.add_parser("flag", parents=[common], help="Jordan-Hoelder flag").set_defaults(func=cmd_flag)

    c = sub.add_parser("classify", parents=[common], help="stratum labels of a functional")
    c.add_argument("functional", help='JSON array of rationals, e.g. \'["1","0","1/2"]\'')
    c.set_defaults(func=cmd_classify)

    s = sub.add_parser("strata", parents=[common], help="sampled stratum enumeration")
    s.add_argument("--samples", type=int, default=50)
    s.add_argument("--probe", action="append", help="extra probe functional (JSON array)")
    s.set_defaults(func=cmd_strata)

    l = sub.add_parser("layers", parents=[common], help="composition-series layering")
    l.add_argument("--samples", type=int, default=50)
    l.set_defaults(func=cmd_layers)

    ix = sub.add_parser("index", parents=[common], help="generic stratum and index")
    ix.add_argument("--mode", choices=("symbolic", "sampled"), default="symbolic")
    ix.add_argument("--samples", type=int, default=64)
    ix.set_defaults(func=cmd_index)

    fl = sub.add_parser("flat", parents=[common], help="flat-orbit certificate")
    fl.add_argument("functional")
    fl.add_argument("--samples", type=int, default=8)
    fl.set_defaults(func=cmd_flat)

    sub.add_parser("recognize", parents=[common], help="heisenberg x abelian recognition").set_defaults(
        func=cmd_recognize
    )

    v = sub.add_parser("verify-hmn", parents=[common], help="check the h(m,n) properties")
    v.add_argument("m", type=int)
    v.add_argument("n", type=int)
    v.add_argument("--samples", type=int, default=20)
    v.set_defaults(func=cmd_verify_hmn)

    lim = sub.add_parser("limit", parents=[common], help="limit set of a one-parameter family")
    lim.add_argument("family", help='JSON array of polynomial strings, e.g. \'["t","1","0"]\'')
    lim.add_argument("--t0", default="0")
    lim.add_argument("--budget", type=int, default=50)
    lim.set_defaults(func=cmd_limit)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MathError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # a bug in the package, reported so that the run can be reproduced
        algebra = getattr(args, "algebra", None)
        where = f"algebra_sha256 {algebra_hash(algebra)}, " if algebra is not None else ""
        print(f"internal error in {args.command}: {e} ({where}seed {args.seed})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
