import ast
import importlib
import importlib.util
import io
import json
import pkgutil
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

import nilorbit
import nilorbit.algebra
import nilorbit.cli
from nilorbit.cli import main
from nilorbit.errors import MathError, UsageError
from nilorbit.families import heisenberg, hmn
from nilorbit.formats import (
    MAX_DIM,
    FormatError,
    algebra_from_json,
    algebra_hash,
    algebra_to_dict,
    algebra_to_json,
)


def run_cli(args, stdin_text=None, capsys=None, monkeypatch=None):
    """Drive main() in process; returns (exit_code, stdout)."""
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(args)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def h3_file(tmp_path):
    path = tmp_path / "h3.json"
    path.write_text(algebra_to_json(heisenberg(1)), encoding="utf-8")
    return str(path)


def test_family_emits_algebra_format(capsys):
    code, out = run_cli(["family", "hmn", "2", "2"], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 5 and doc["basis"][0] == "X1"


def test_family_pipe_validate(capsys, monkeypatch):
    code, out = run_cli(["family", "hmn", "2", "2"], capsys=capsys)
    code2, out2 = run_cli(["validate"], stdin_text=out, capsys=capsys, monkeypatch=monkeypatch)
    assert code2 == 0
    rep = json.loads(out2)["report"]
    assert rep["valid"] and rep["diagnostics"] == []


def test_family_output_roundtrips_bit_exactly(capsys, monkeypatch):
    code, out = run_cli(["family", "threadlike", "4"], capsys=capsys)
    assert algebra_to_json(algebra_from_json(out)) == out


def test_validate_nonnilpotent_exit_code(capsys, monkeypatch):
    bad = '{"dim": 2, "basis": ["A", "B"], "brackets": [{"i": 1, "j": 2, "coeffs": {"1": "1"}}]}'
    code, out = run_cli(["validate"], stdin_text=bad, capsys=capsys, monkeypatch=monkeypatch)
    assert code == 1
    rep = json.loads(out)["report"]
    assert not rep["valid"]
    assert rep["diagnostics"][0]["kind"] == "non_nilpotent"


def test_validate_malformed_json_reports_and_fails(capsys, monkeypatch):
    code, out = run_cli(["validate"], stdin_text="garbage", capsys=capsys, monkeypatch=monkeypatch)
    assert code == 1
    doc = json.loads(out)
    assert doc["diagnostics"][0]["kind"] == "malformed"


_H3 = {"dim": 3, "basis": ["Z", "X", "Y"], "brackets": [{"i": 2, "j": 3, "coeffs": {"1": "1"}}]}
_MALFORMED = {
    "coeffs-array": dict(_H3, brackets=[{"i": 2, "j": 3, "coeffs": ["1"]}]),
    "brackets-null": dict(_H3, brackets=None),
    "basis-string": dict(_H3, basis="ZXY"),
    "dim-float": dict(_H3, dim=2.7),
    "dim-bool": dict(_H3, dim=True),
    "duplicate-names": dict(_H3, basis=["Z", "X", "X"]),
    "coeff-key-word": dict(_H3, brackets=[{"i": 2, "j": 3, "coeffs": {"x": "1"}}]),
    "coeff-key-underscore": dict(_H3, brackets=[{"i": 2, "j": 3, "coeffs": {" 0_1": "1"}}]),
    "coeff-key-sign": dict(_H3, brackets=[{"i": 2, "j": 3, "coeffs": {"+1": "1"}}]),
    "coeff-exponent": dict(_H3, brackets=[{"i": 2, "j": 3, "coeffs": {"1": "1e5000"}}]),
    "coeff-decimal": dict(_H3, brackets=[{"i": 2, "j": 3, "coeffs": {"1": "0.5"}}]),
    # written by hand: json.dumps cannot write an integer this long either
    "dim-5000-digits": '{"dim": ' + "1" * 5000 + ', "basis": ["Z", "X", "Y"], "brackets": []}',
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_document_types_are_format_errors(name, capsys, monkeypatch):
    doc = _MALFORMED[name]
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with pytest.raises(FormatError):
        algebra_from_json(text)
    # validate reports a malformed document as a diagnostic; other commands exit 2
    code, out = run_cli(["validate"], stdin_text=text, capsys=capsys, monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out)["diagnostics"][0]["kind"] == "malformed"
    code, _ = run_cli(["series"], stdin_text=text, capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2


def test_series_on_nonnilpotent_is_math_error(capsys, monkeypatch):
    bad = '{"dim": 2, "basis": ["A", "B"], "brackets": [{"i": 1, "j": 2, "coeffs": {"1": "1"}}]}'
    code, _ = run_cli(["series"], stdin_text=bad, capsys=capsys, monkeypatch=monkeypatch)
    assert code == 1


def test_series_on_garbage_is_usage_error(capsys, monkeypatch):
    code, _ = run_cli(["series"], stdin_text="nope", capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2


def test_missing_input_file_is_usage_error(capsys, tmp_path):
    for path in ("/nonexistent/file.json", str(tmp_path)):
        code, _ = run_cli(["series", "-i", path], capsys=capsys)
        assert code == 2


def test_limit_zero_denominator_t0_is_usage_error(h3_file, capsys):
    code = main(["limit", '["0","0","t"]', "--t0", "1/0", "-i", h3_file])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_classify_zero_functional(h3_file, capsys):
    code, out = run_cli(["classify", '["0","0","0"]', "-i", h3_file], capsys=capsys)
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["orbit_dim"] == 0 and rep["is_character"]
    assert rep["coarse"] == [] and rep["fine"] == [[], [], []]


def test_layers_h3(h3_file, capsys):
    code, out = run_cli(["layers", "-i", h3_file], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    layers = doc["report"]["layers"]
    assert len(layers) == 2
    assert layers[0]["orbit_dim"] == 2
    assert layers[1]["is_character_layer"] and layers[1]["character_dim"] == 2
    assert doc["algebra_sha256"] and doc["seed"] == 0
    assert doc["order_variant"] == "lex_ascending"


def test_index_symbolic_and_sampled(h3_file, capsys):
    code, out = run_cli(["index", "-i", h3_file], capsys=capsys)
    rep = json.loads(out)["report"]
    assert code == 0 and rep["ind"] == 1
    code, out = run_cli(["index", "-i", h3_file, "--mode", "sampled", "--samples", "20"], capsys=capsys)
    rep2 = json.loads(out)["report"]
    assert rep2["ind"] == 1 and rep2["certification"]["mode"] == "sampled"


def test_flat_report(h3_file, capsys):
    code, out = run_cli(["flat", '["1","0","0"]', "-i", h3_file], capsys=capsys)
    rep = json.loads(out)["report"]
    assert code == 0 and rep["flat"] and rep["direction_dim"] == 2


def test_strata_report_flags_lower_bound(h3_file, capsys):
    code, out = run_cli(["strata", "-i", h3_file, "--samples", "20"], capsys=capsys)
    rep = json.loads(out)["report"]
    assert rep["completeness"] == "sampled-lower-bound"
    assert len(rep["strata"]) == 2


def test_recognize_cli(h3_file, capsys):
    code, out = run_cli(["recognize", "-i", h3_file], capsys=capsys)
    rep = json.loads(out)["report"]
    assert rep["recognized"] and rep["d"] == 1 and rep["k"] == 0


def test_verify_hmn_cli(capsys):
    code, out = run_cli(["verify-hmn", "2", "2"], capsys=capsys)
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["all_passed"] and len(rep["items"]) == 5


@pytest.mark.parametrize("m, n", [(2, 3), (3, 5), (4, 5)])
def test_verify_hmn_cli_passes_when_m_is_below_n(m, n, capsys):
    """Items (iii)-(v) need m >= n; below that they are not applicable, and the run passes."""
    code, out = run_cli(["verify-hmn", str(m), str(n)], capsys=capsys)
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["all_passed"]
    assert [(it["item"], it["applicable"]) for it in rep["items"][2:]] == [("iii", False), ("iv", False), ("v", False)]
    assert rep["items"][4]["detail"] == "needs m >= n"


def test_limit_cli(capsys, monkeypatch, tmp_path):
    from nilorbit.families import hmn

    path = tmp_path / "h22.json"
    path.write_text(algebra_to_json(hmn(2, 2)), encoding="utf-8")
    code, out = run_cli(
        ["limit", '["0","0","0","1","t"]', "-i", str(path), "--budget", "25"],
        capsys=capsys,
    )
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["annihilated"] == ["Y2"]
    assert rep["isolated_point_flag"] is False


def test_layers_descending_variant_recorded(h3_file, capsys):
    code, out = run_cli(
        ["layers", "-i", h3_file, "--order-variant", "lex_descending"], capsys=capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["order_variant"] == "lex_descending"
    assert doc["report"]["layers"][-1]["is_character_layer"]


def test_text_format(h3_file, capsys):
    code, out = run_cli(["index", "-i", h3_file, "--format", "text"], capsys=capsys)
    assert code == 0
    assert "report.ind = 1" in out


def test_internal_error_is_one_line_with_hash_and_seed(h3_file, capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("flag prefix of dimension 2 is not an ideal")

    monkeypatch.setattr(nilorbit.algebra, "jordan_holder_flag", broken)
    code = main(["flag", "-i", h3_file, "--seed", "17"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("internal error in flag: flag prefix of dimension 2 is not an ideal")
    assert algebra_hash(heisenberg(1)) in err and "seed 17" in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["series", "flag", "strata"])
def test_command_computes_the_lower_central_series_once(command, h3_file, capsys, monkeypatch):
    """Validation hands its series to the command instead of dropping it."""
    calls = []
    series = nilorbit.algebra.lower_central_series

    def counting(g):
        calls.append(g)
        return series(g)

    monkeypatch.setattr(nilorbit.algebra, "lower_central_series", counting)
    code, out = run_cli([command, "-i", h3_file], capsys=capsys)
    assert code == 0 and json.loads(out)["command"] == command
    assert len(calls) == 1


def test_validate_series_and_flag_on_threadlike_60_are_fast(capsys, monkeypatch):
    """Brackets with a vector read the stored table at the vector's support, not m dense brackets."""
    _, doc = run_cli(["family", "threadlike", "60"], capsys=capsys)
    start = time.perf_counter()
    for command in ("validate", "series", "flag"):
        code, _ = run_cli([command], stdin_text=doc, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
    assert time.perf_counter() - start < 2


def test_usage_error_without_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_deterministic_reports_same_seed(h3_file):
    cmds = [
        ["layers", "-i", h3_file, "--seed", "9"],
        ["strata", "-i", h3_file, "--seed", "9"],
        ["index", "-i", h3_file, "--mode", "sampled", "--seed", "9"],
    ]
    for cmd in cmds:
        a = subprocess.run(
            [sys.executable, "-m", "nilorbit.cli", *cmd], capture_output=True, text=True
        )
        b = subprocess.run(
            [sys.executable, "-m", "nilorbit.cli", *cmd], capture_output=True, text=True
        )
        assert a.returncode == 0 and a.stdout == b.stdout


def test_package_imports_only_the_standard_library():
    """The CLI must run on a bare interpreter, even though the tests have pytest installed."""
    package = Path(nilorbit.cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "nilorbit", (path.name, name)


_H3_TEXT = json.dumps(_H3)
_NONNILPOTENT = '{"dim": 2, "basis": ["A", "B"], "brackets": [{"i": 1, "j": 2, "coeffs": {"1": "1"}}]}'
_HMN = "error: hmn(m, n) needs m >= 1 and n >= 1"
_BAD_ARRAY = "error: functional must be a JSON array"
_ABOVE_CAP = json.dumps({"dim": MAX_DIM + 1, "basis": [f"X{i}" for i in range(MAX_DIM + 1)]})

# name -> (argv, stdin, exit code, start of the one stderr line, algebra function made to raise ValueError);
# an empty start means nothing on stderr: validate reports a malformed document on stdout
_EXIT_CODES = {
    "limit-zero-denominator": (["limit", '["0","0","1/0"]'], _H3_TEXT, 2, "error: cannot parse term", None),
    "limit-no-coordinates": (["limit", "[]"], _H3_TEXT, 2, "error: expected 3 coordinate polynomials", None),
    "limit-exponent": (["limit", '["0","0","1e5000"]'], _H3_TEXT, 2, "error: cannot parse term", None),
    "limit-t0-exponent": (["limit", '["0","0","t"]', "--t0", "1e5"], _H3_TEXT, 2, "error: bad rational", None),
    "limit-not-an-array": (["limit", '{"t": 1}'], _H3_TEXT, 2, "error: family must be a JSON array", None),
    "classify-short": (["classify", '["1","0"]'], _H3_TEXT, 2, "error: functional needs 3 coordinates", None),
    "classify-decimal": (["classify", '["1","0","0.5"]'], _H3_TEXT, 2, "error: bad rational '0.5'", None),
    "classify-5000-digits": (["classify", '["1","0",' + "7" * 5000 + "]"], _H3_TEXT, 2, _BAD_ARRAY, None),
    "verify-hmn-negative": (["verify-hmn", "1", "-3"], None, 2, _HMN, None),
    "verify-hmn-zero": (["verify-hmn", "0", "0"], None, 2, _HMN, None),
    "verify-hmn-bound": (["verify-hmn", "2", "2", "--bound", "-1"], None, 2, "error: bound must be", None),
    "verify-hmn-no-samples": (["verify-hmn", "2", "2", "--samples", "-1"], None, 2, "error: samples must", None),
    "limit-no-budget": (["limit", '["t","1","0"]', "--budget", "0"], _H3_TEXT, 2, "error: sample budget", None),
    "limit-negative-budget": (["limit", '["t","1","0"]', "--budget", "-3"], _H3_TEXT, 2, "error: sample budget", None),
    "limit-exponent-cap": (["limit", '["t^1001","1","0"]'], _H3_TEXT, 2, "error: exponent above 1000", None),
    "family-zero": (["family", "heisenberg", "0"], None, 2, "error: heisenberg(d) needs d >= 1", None),
    "family-unknown-kind": (["family", "lie", "3"], None, 2, "error: unknown family kind 'lie'; known kinds: heisenberg,", None),
    "family-arity": (["family", "hmn", "2"], None, 2, _HMN, None),
    "family-size-cap": (["family", "heisenberg", str(10**9)], None, 2, "error: heisenberg(1000000000) has", None),
    "verify-hmn-size-cap": (["verify-hmn", "128", "128"], None, 2, "error: hmn(128, 128) has dimension 257", None),
    "series-size-cap": (["series"], _ABOVE_CAP, 2, "error: dimension 257 is above the cap of 256", None),
    "strata-no-samples": (["strata", "--samples", "0"], _H3_TEXT, 2, "error: need at least one sample", None),
    "strata-bound": (["strata", "--bound", "-1"], _H3_TEXT, 2, "error: bound must be >= 0", None),
    "index-no-samples": (["index", "--mode", "sampled", "--samples", "0"], _H3_TEXT, 2, "error: sampled", None),
    "flat-no-samples": (["flat", '["1","0","0"]', "--samples", "0"], _H3_TEXT, 2, "error: samples must", None),
    "series-garbage": (["series"], "nope", 2, "error: invalid JSON", None),
    "series-nonnilpotent": (["series"], _NONNILPOTENT, 1, "error: invalid algebra: lower central", None),
    "limit-character-family": (["limit", '["0","t","1"]'], _H3_TEXT, 1, "error: the family is identically", None),
    "validate-exponent": (["validate"], _H3_TEXT.replace('"1"}', '"1e5000"}'), 1, "", None),
    "internal-value-error": (
        ["series"], _H3_TEXT, 1, "internal error in series: boom (algebra_sha256 ", "lower_central_series"
    ),
}


@pytest.mark.parametrize("name", sorted(_EXIT_CODES))
def test_exit_code_table(name, capsys, monkeypatch):
    argv, stdin_text, expected, head, broken = _EXIT_CODES[name]
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    if broken is not None:
        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(nilorbit.algebra, broken, boom)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    if head:
        assert err.startswith(head) and err.count("\n") == 1, err
    else:
        assert err == ""


def test_input_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    for command in ("series", "validate"):
        code = main([command, "-i", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: input is not UTF-8 text") and err.count("\n") == 1


_BAD_VALUES = ["1/0", "x", "1e5000", "7" * 5000, "@BIG@", None, 2.5, True, [], {}, 3]


def _mutate_document(doc, rng):
    """One seeded mutation of an algebra document, returned as JSON text."""
    doc = json.loads(json.dumps(doc))
    kind = rng.choice(["drop", "duplicate", "retype", "rational", "truncate", "bracket-key"])
    brackets = doc["brackets"]
    if kind == "drop":
        del doc[rng.choice(sorted(doc))]
    elif kind == "retype":
        doc[rng.choice(sorted(doc))] = rng.choice(_BAD_VALUES)
    elif kind == "bracket-key" and brackets:
        entry = rng.choice(brackets)
        key = rng.choice(sorted(entry))
        if rng.random() < 0.5:
            del entry[key]
        else:
            entry[key] = rng.choice(_BAD_VALUES + [0, 1, 99, -1])
    elif kind == "rational" and brackets:
        coeffs = rng.choice(brackets)["coeffs"]
        coeffs[rng.choice(sorted(coeffs))] = rng.choice(_BAD_VALUES)
    text = json.dumps(doc)
    if kind == "duplicate":
        key = rng.choice(sorted(doc))
        text = text[:-1] + f", {json.dumps(key)}: {json.dumps(rng.choice(_BAD_VALUES))}}}"
    elif kind == "truncate":
        text = text[: rng.randrange(len(text))]
    # a bare JSON integer of 5000 digits, which json.dumps cannot write
    return text.replace('"@BIG@"', "7" * 5000)


def _mutate_array(entries, rng):
    entries = list(entries)
    kind = rng.choice(["drop", "duplicate", "retype", "truncate"])
    i = rng.randrange(len(entries))
    if kind == "drop":
        del entries[i]
    elif kind == "duplicate":
        entries.insert(i, entries[i])
    elif kind == "retype":
        entries[i] = rng.choice(_BAD_VALUES)
    text = json.dumps(entries).replace('"@BIG@"', "7" * 5000)
    return text[: rng.randrange(len(text))] if kind == "truncate" else text


def test_seeded_mutation_fuzz_exits_cleanly(capsys, monkeypatch):
    """Mutated documents and arguments end in exit 0, 1 or 2 with a diagnostic, never a traceback."""
    rng = Random(2024)
    cases = [
        (algebra_to_dict(heisenberg(1)), ["1", "0", "1/2"], ["t", "1", "0"]),
        (algebra_to_dict(hmn(2, 2)), ["0", "0", "0", "1", "-3/4"], ["0", "0", "0", "1", "t"]),
    ]
    codes = set()
    for trial in range(300):
        doc, functional, family = rng.choice(cases)
        command = rng.choice(["validate", "series", "flag", "recognize", "classify", "limit"])
        if command in ("classify", "limit") and rng.random() < 0.7:
            text = json.dumps(doc)  # mutate the argument, not the document
            arg = _mutate_array(functional if command == "classify" else family, rng)
        else:
            text = _mutate_document(doc, rng)
            arg = json.dumps(functional if command == "classify" else family)
        argv = [command] + ([arg] if command in ("classify", "limit") else [])
        argv += ["--budget", "3"] if command == "limit" else []
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        try:
            code = main(argv)
        except SystemExit as e:  # argparse, for an argument that looks like an option
            code = e.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (trial, argv, text[:200])
        assert "Traceback" not in err and not err.startswith("internal error"), (trial, argv, text[:200], err)
        codes.add(code)
    assert codes == {0, 1, 2}


def test_every_package_exception_derives_from_an_exit_code_class():
    """A new exception class must choose exit 2 (UsageError) or exit 1 (MathError)."""
    found = set()
    for info in pkgutil.iter_modules(nilorbit.__path__):
        module = importlib.import_module(f"nilorbit.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__.startswith("nilorbit"):
                assert issubclass(obj, (UsageError, MathError)), obj
                found.add(obj.__name__)
    assert {"FormatError", "LimitError", "NonNilpotentError", "NotAnIdealError"} <= found


def _bench_workloads():
    """bench/workloads.py as a module, imported without writing bytecode under bench/."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def test_recorded_cli_session_is_byte_identical(tmp_path, capsys):
    """Every recorded benchmark command gives its recorded exit code and stdout bytes."""
    w = _bench_workloads()
    expected = json.loads((w.EXPECTED_DIR / "cli_session.json").read_text(encoding="utf-8"))
    for fname, make in w.CLI_FILES.items():
        (tmp_path / fname).write_text(algebra_to_json(make()), encoding="utf-8")
    argvs = {w.cli_key(argv): argv for v in range(w.CLI_VARIANTS) for _, argv in w.cli_commands(v)}
    assert sorted(argvs) == sorted(expected)
    mismatches = []
    for key, argv in argvs.items():
        code = main([str(tmp_path / a) if a in w.CLI_FILES else a for a in argv])
        got = w.cli_answer(code, capsys.readouterr().out.encode("utf-8"))
        if got != expected[key]:
            mismatches.append((key, got, expected[key]))
    assert not mismatches, mismatches
