"""``nhsim`` runs on the standard library and numpy alone."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import nhsim

SRC = Path(__file__).resolve().parents[1] / "src"

# classify, a dimer scan and certify through the CLI, then the scipy modules
# the interpreter has loaded
WORKFLOW = r"""
import contextlib, io, json, sys
import nhsim
from nhsim.cli import main

matrix, family = sys.argv[1:]
for argv in (["classify", matrix],
             ["scan", family, "--class", "pseudo-hermitian", "--grid", "gamma=-2:2:101"],
             ["certify", family, "--at", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def entries(M):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(M, dtype=complex)]


def test_import_and_cli_workflows_load_no_scipy(tmp_path):
    sx, isz = [[0, 1], [1, 0]], [[1j, 0], [0, -1j]]
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"dim": 2, "entries": entries([[1j, 1], [1, -1j]])}))
    family = tmp_path / "dimer.json"
    family.write_text(json.dumps({
        "dim": 2, "params": 1, "param_names": ["gamma"],
        "terms": [{"matrix": {"dim": 2, "entries": entries(sx)}, "exponents": [0]},
                  {"matrix": {"dim": 2, "entries": entries(isz)}, "exponents": [1]}],
    }))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c", WORKFLOW, str(matrix), str(family)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    assert json.loads(out) == []


def test_sources_import_only_stdlib_numpy_and_nhsim():
    allowed = set(sys.stdlib_module_names) | {"numpy", "nhsim"}
    bad = []
    for path in sorted((SRC / "nhsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [(path.name, n) for n in names if n.split(".")[0] not in allowed]
    assert bad == []


def test_every_exported_name_resolves_once():
    modules = [nhsim] + [importlib.import_module(f"nhsim.{m.name}")
                         for m in pkgutil.iter_modules(nhsim.__path__)]
    checked = 0
    for mod in modules:
        names = getattr(mod, "__all__", None)
        if names is None:
            continue
        checked += 1
        assert [n for n in names if not hasattr(mod, n)] == [], mod.__name__
        assert len(set(names)) == len(names), mod.__name__
    assert checked > 1
