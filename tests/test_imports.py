"""The package depends on the standard library and numpy only.  scipy stays
with the tests, as the reference for the package's own log-sum-exp, softmax,
Gaussian smoothing, DCT and log-gamma; no module of `src/` imports it.  No
module imports another module's underscore name: what modules share is public."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "acoustok"}
SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "acoustok").glob("*.py"))


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def private_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every underscore name a source file imports from a
    module of the package, relatively or as acoustok."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "acoustok"):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "pipeline.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy(path):
    outside = [f"line {line}: {module}" for line, module in absolute_imports(path)
               if module not in ALLOWED]
    assert not outside, f"{path.name} imports outside the allowed set: {outside}"


def test_guard_catches_a_third_party_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import os\nfrom . import corpus\nimport pandas as pd\n"
                      "from sklearn.cluster import KMeans\n"
                      "from scipy.special import logsumexp\nimport scipy.ndimage as ndi\n"
                      "from .tokenizer import logsumexp\n")
    assert [m for _, m in absolute_imports(source) if m not in ALLOWED] == [
        "pandas", "sklearn", "scipy", "scipy"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_no_underscore_name_of_another_module(path):
    assert private_imports(path) == [], f"{path.name} imports another module's underscore names"


def test_guard_catches_an_underscore_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from __future__ import annotations\nfrom os import _exit\n"
                      "from .tokenizer import logsumexp, _batches\n"
                      "from acoustok.corpus import _global_stats as stats\n"
                      "from . import _private\nfrom acoustok import corpus\n")
    assert private_imports(source) == [(3, "_batches"), (4, "_global_stats"), (5, "_private")]


def test_cli_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = ("import sys, acoustok.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "[]\n"
