"""Every name a package module imports is used there or re-exported, and
importing the CLI does not load what only parallel searches need."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hammingdim"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by imports that the module neither reads nor lists in
    ``__all__``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_modules_found():
    assert SRC / "resolving.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detected():
    source = ("from os import path, sep\nimport json\nimport numpy as np\n"
              "__all__ = ['sep']\nnp.zeros(1)\n")
    assert unused_imports(source) == ["path", "json"]


def test_cli_import_leaves_multiprocessing_out():
    # only parallel searches fork workers; a serial caller should not pay
    # for loading multiprocessing and subprocess
    code = "import sys, hammingdim.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
