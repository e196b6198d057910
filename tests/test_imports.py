"""The package depends on the standard library, numpy and scipy only, and
takes its logsumexp from `tokenizer.logsumexp`, not from scipy."""

import ast
import sys
from pathlib import Path

import pytest

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "acoustok"}
SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "acoustok").glob("*.py"))


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "pipeline.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_scipy(path):
    outside = [f"line {line}: {module}" for line, module in absolute_imports(path)
               if module not in ALLOWED]
    assert not outside, f"{path.name} imports outside the allowed set: {outside}"


def test_guard_catches_a_third_party_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import os\nfrom . import corpus\nimport pandas as pd\n"
                      "from sklearn.cluster import KMeans\n")
    assert [m for _, m in absolute_imports(source) if m not in ALLOWED] == ["pandas", "sklearn"]


def scipy_logsumexp_uses(path: Path) -> list[int]:
    """Lines of a source file that import scipy's logsumexp, or reach it as an
    attribute of a name bound to scipy or one of its modules."""
    tree = ast.parse(path.read_text(), str(path))
    scipy_names, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            scipy_names |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                            if alias.name.split(".")[0] == "scipy"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found += [node.lineno for alias in node.names if alias.name == "logsumexp"]
            scipy_names |= {alias.asname or alias.name for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "logsumexp":
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in scipy_names:
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_logsumexp(path):
    lines = scipy_logsumexp_uses(path)
    assert not lines, f"{path.name} uses scipy's logsumexp at lines {lines}"


def test_guard_catches_scipy_logsumexp(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from scipy.special import softmax\n"
                      "from scipy.special import logsumexp\n"
                      "import scipy.special\n"
                      "x = scipy.special.logsumexp([0.0])\n"
                      "from scipy import special as sp\n"
                      "y = sp.logsumexp([0.0])\n"
                      "from .tokenizer import logsumexp\n"
                      "z = np.logsumexp\n")
    assert scipy_logsumexp_uses(source) == [2, 4, 6]
