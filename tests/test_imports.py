"""Every name a package module, test or demo imports is used there or
re-exported, and neither importing the CLI nor running a search loads
multiprocessing."""

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hammingdim"
MODULES = sorted(SRC.glob("*.py"))
# the package, its tests and its demos
CHECKED = MODULES + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


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
    assert {ROOT / "tests" / "test_imports.py", ROOT / "demos" / "06_files_and_cli.py"} \
        <= set(CHECKED)


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: (
    p.name if p.parent == SRC else p.relative_to(ROOT).as_posix()))
def test_every_import_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detected():
    source = ("from os import path, sep\nimport json\nimport numpy as np\n"
              "__all__ = ['sep']\nnp.zeros(1)\n")
    assert unused_imports(source) == ["path", "json"]


def run_fresh(code: str) -> str:
    """The standard output of ``code`` in a new interpreter on this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout


def test_cli_import_leaves_multiprocessing_out():
    # no search forks workers, so nothing should pay for loading
    # multiprocessing and subprocess
    code = "import sys, hammingdim.cli; print('multiprocessing' in sys.modules)"
    assert run_fresh(code).strip() == "False"


SEARCH_WITH_WORKERS = textwrap.dedent("""
    import json, sys
    from hammingdim import SearchOptions, exists_resolving_of_size, hamming_graph

    reports = []
    cert = exists_resolving_of_size(hamming_graph(4, 4, 4), 8, SearchOptions(
        workers=2, progress=reports.append))
    print(json.dumps({
        "members": cert.basis.members,
        "candidates": cert.candidates_examined,
        "reports": [(p.candidates_examined, p.pruned_subtrees) for p in reports],
        "multiprocessing": "multiprocessing" in sys.modules,
    }))
""")


def test_workers_field_runs_serially():
    # SearchOptions keeps its workers field, checked and then ignored: a
    # search asked for two workers gives the serial certificate and
    # progress, the size-8 hit under the first pick, without forking
    out = json.loads(run_fresh(SEARCH_WITH_WORKERS))
    assert out == {
        "members": [[1, 1, 1], [1, 1, 2], [1, 2, 1], [2, 1, 1],
                    [2, 2, 3], [3, 3, 2], [3, 4, 4], [4, 3, 4]],
        "candidates": 60735,
        "reports": [[60735, 173606]],
        "multiprocessing": False,
    }
