"""Each CLI command imports only the modules it runs; `import nilorbit` imports none.

Every check runs in a fresh interpreter (`python -c`), since this process has
long since imported the whole package.
"""

import json
import subprocess
import sys

import pytest

from nilorbit.families import heisenberg
from nilorbit.formats import algebra_to_json

# prints the loaded nilorbit submodules as the last line of stderr
_REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('nilorbit.'))), file=sys.stderr)"
)


def _loaded_after(code):
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{_REPORT}"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def test_import_nilorbit_loads_no_submodule():
    assert _loaded_after("import nilorbit") == set()


def test_cli_parser_leaves_the_mathematics_unloaded():
    loaded = _loaded_after("import nilorbit.cli; nilorbit.cli.build_parser()")
    assert "nilorbit.cli" in loaded
    assert not loaded & {
        "nilorbit.coadjoint", "nilorbit.strata", "nilorbit.polys", "nilorbit.limits", "nilorbit.families"
    }


@pytest.mark.parametrize("argv", [["series"], ["family", "hmn", "2", "2"]])
def test_command_loads_neither_polys_nor_limits(argv, tmp_path):
    path = tmp_path / "h3.json"
    path.write_text(algebra_to_json(heisenberg(1)), encoding="utf-8")
    code = (
        "import contextlib, io; from nilorbit.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()): assert main({argv + ['-i', str(path)]!r}) == 0"
    )
    loaded = _loaded_after(code)
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
