import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import nilorbit.cli
from nilorbit.cli import main
from nilorbit.families import heisenberg
from nilorbit.formats import FormatError, algebra_from_json, algebra_hash, algebra_to_json


def run_cli(args, stdin_text=None, capsys=None, monkeypatch=None):
    """Drive main() in process; returns (exit_code, stdout)."""
    if stdin_text is not None:
        import io

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
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_document_types_are_format_errors(name, capsys, monkeypatch):
    text = json.dumps(_MALFORMED[name])
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
    def broken(g):
        raise RuntimeError("flag prefix of dimension 2 is not an ideal")

    monkeypatch.setattr(nilorbit.cli, "jordan_holder_flag", broken)
    code = main(["flag", "-i", h3_file, "--seed", "17"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("internal error in flag: flag prefix of dimension 2 is not an ideal")
    assert algebra_hash(heisenberg(1)) in err and "seed 17" in err
    assert "Traceback" not in err and err.count("\n") == 1


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
