"""Each CLI command imports only the modules it runs; `import nilorbit` imports none.

No command, and no module of the package, loads `dataclasses` or the modules
it pulls in (`inspect`, `ast`, `dis`, `tokenize`), whose import every command
would pay at start-up.  Every check runs in a fresh interpreter
(`python -c`), since this process has long since imported the whole package.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import nilorbit
from nilorbit.families import heisenberg
from nilorbit.formats import algebra_to_json

# prints the names of the loaded modules as the last line of stderr
_REPORT = "import json, sys\nprint(json.dumps(sorted(sys.modules)), file=sys.stderr)"
_CODE_GENERATION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _loaded_after(code, *flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", f"{code}\n{_REPORT}"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def test_import_nilorbit_loads_no_submodule():
    assert not {m for m in _loaded_after("import nilorbit") if m.startswith("nilorbit.")}


def test_cli_parser_leaves_the_mathematics_unloaded():
    loaded = _loaded_after("import nilorbit.cli; nilorbit.cli.build_parser()")
    assert "nilorbit.cli" in loaded
    assert not loaded & {
        "nilorbit.coadjoint", "nilorbit.strata", "nilorbit.polys", "nilorbit.limits", "nilorbit.families"
    }


def _command(argv, tmp_path):
    """Code that runs one CLI command to completion on h3."""
    path = tmp_path / "h3.json"
    path.write_text(algebra_to_json(heisenberg(1)), encoding="utf-8")
    return (
        "import contextlib, io; from nilorbit.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()): assert main({argv + ['-i', str(path)]!r}) == 0"
    )


@pytest.mark.parametrize("argv", [["series"], ["family", "hmn", "2", "2"]])
def test_command_loads_neither_polys_nor_limits(argv, tmp_path):
    loaded = _loaded_after(_command(argv, tmp_path))
    assert "nilorbit.algebra" in loaded
    assert not loaded & {"nilorbit.polys", "nilorbit.limits"}
    if argv[0] == "series":
        assert "nilorbit.families" not in loaded


def test_every_exported_name_resolves_to_its_home_object():
    code = (
        "import importlib, nilorbit\n"
        "for name in nilorbit.__all__:\n"
        "    obj = getattr(nilorbit, name)\n"
        "    assert obj.__module__.startswith('nilorbit.'), name\n"
        "    assert getattr(importlib.import_module(obj.__module__), name) is obj, name\n"
        "    assert name in dir(nilorbit), name\n"
        "try:\n"
        "    nilorbit.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown name resolved')"
    )
    loaded = _loaded_after(code)
    assert {"nilorbit.strata", "nilorbit.limits", "nilorbit.families"} <= loaded


@pytest.mark.parametrize(
    "argv",
    [None, ["series"], ["strata"], ["limit", '["t","1","0"]'], ["verify-hmn", "2", "2"], ["family", "hmn", "2", "2"]],
    ids=["import", "series", "strata", "limit", "verify-hmn", "family"],
)
def test_cli_loads_no_code_generation_modules(argv, tmp_path):
    """`import nilorbit.cli` (argv None) and each command."""
    code = "import nilorbit.cli" if argv is None else _command(argv, tmp_path)
    assert not _loaded_after(code) & _CODE_GENERATION


def test_no_module_of_the_package_loads_dataclasses():
    package = Path(nilorbit.__file__).parent
    names = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert {"records", "cli", "limits"} <= set(names)
    code = "import importlib\n" + "".join(f"importlib.import_module('nilorbit.{n}')\n" for n in names)
    loaded = _loaded_after(code)
    assert {f"nilorbit.{n}" for n in names} <= loaded
    assert not loaded & _CODE_GENERATION


def test_the_package_leaves_typing_unloaded():
    """Annotations name `collections.abc` types, so no module imports `typing`.

    Under `python -S` (no `site`, whose `.pth` files may load `typing`) the
    standard modules the package uses leave it out too, so it stays out of
    every command's start-up.
    """
    home = str(Path(nilorbit.__file__).parent.parent)  # on sys.path without site
    code = f"import sys; sys.path.insert(0, {home!r})\nimport nilorbit.cli, nilorbit.strata, nilorbit.limits, nilorbit.families"
    loaded = _loaded_after(code, "-S")
    assert {"nilorbit.cli", "nilorbit.strata", "nilorbit.limits", "nilorbit.families"} <= loaded
    assert "typing" not in loaded
