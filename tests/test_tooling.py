"""Checks on the repository itself: the README's library example runs, no
module imports a name it does not use, the export list is the package's
imports, every CLI flag is read, the runtime needs numpy only, and the fit
panel script runs."""

import argparse
import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qwkt import cli
from qwkt.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "qwkt").glob("*.py") if p.name != "__init__.py")


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, "README.md", "exec"), {})
    # one line per print call
    assert len(out.getvalue().splitlines()) == code.count("print(")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"unused imports: {sorted(imported - used)}"


def test_export_list_is_the_imported_names():
    # a name deleted from one of the two lists cannot linger in the other
    import qwkt

    tree = ast.parse((ROOT / "src" / "qwkt" / "__init__.py").read_text())
    imported = [
        a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
        for a in node.names
    ]
    assert len(qwkt.__all__) == len(set(qwkt.__all__)) == len(imported)
    assert set(qwkt.__all__) == set(imported)


class _ReadRecorder(argparse.Namespace):
    """Namespace that records the attributes read from it."""

    def __init__(self):
        super().__init__()
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


# one representative run per subcommand; each must read every flag it defines
_FLAG_RUNS = {
    "simulate": ["--tau-ps", "0.2", "--bins", "256", "--trials", "1000", "--out", "in.csv"],
    "estimate": ["--input", "in.csv", "--out", "e.json"],
    "fisher": ["--tau-axis", "0.3", "--out", "f.csv"],
    "sweep": ["--tau-axis", "0.5", "--out", "w.csv"],
}


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_flag_runs_cover_every_subcommand():
    assert set(_FLAG_RUNS) == set(_subcommands(build_parser()))


@pytest.mark.parametrize("command", list(_FLAG_RUNS))
def test_every_cli_flag_is_read(tmp_path, monkeypatch, command):
    # through main, which names the run's outputs before the subcommand runs
    monkeypatch.chdir(tmp_path)
    if command == "estimate":
        assert main(["simulate", *_FLAG_RUNS["simulate"]]) == 0
    parser, args = build_parser(), _ReadRecorder()
    parse = parser.parse_args

    def recording_parse(argv):
        parse(argv, namespace=args)
        args._read.clear()  # reads made while parsing do not count
        return args

    monkeypatch.setattr(parser, "parse_args", recording_parse)
    monkeypatch.setattr(cli, "_parser", lambda: parser)
    assert main([command, *_FLAG_RUNS[command]]) == 0
    dests = {a.dest for a in _subcommands(parser)[command]._actions if a.dest != "help"}
    assert not dests - args._read, f"{command} never reads {sorted(dests - args._read)}"


def test_package_has_no_scipy_import():
    # scipy is a test-only oracle; the package runs on numpy alone
    pattern = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    sources = (ROOT / "src" / "qwkt").glob("*.py")
    assert not [p.name for p in sources if pattern.search(p.read_text())]


_NO_SCIPY_SCRIPT = """
import sys
from qwkt.cli import main
runs = [
    ["simulate", "--tau-ps", "0.2", "--bins", "256", "--trials", "1000", "--out", "in.csv"],
    ["estimate", "--input", "in.csv", "--mle", "--layers", "1", "--out", "e.json"],
    ["fisher", "--tau-axis", "0.3", "--alpha", "0.9", "--out", "f.csv"],
    ["sweep", "--tau-axis", "0.05:10:3ps", "--alpha-axis", "0.9:1:2", "--out", "w.csv"],
]
for argv in runs:
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_loads_no_scipy(tmp_path):
    # a fresh interpreter, so nothing the test session imported counts
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fit_panel_of_one_checkout_against_itself():
    # a few fits spread over the panel: each one a result, and a checkout
    # fits as it fits
    script = str(ROOT / "scripts" / "fit_panel.py")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    lines = subprocess.run([sys.executable, script, "--emit", "--every", "577"], env=env,
                           capture_output=True, text=True, timeout=300, check=True).stdout
    assert [" MleResult(layers=" in line for line in lines.splitlines()] == [True] * 6
    proc = subprocess.run([sys.executable, script, str(ROOT), str(ROOT), "--every", "577"],
                          capture_output=True, text=True, timeout=300, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "6 fits: 0 differences\n")
