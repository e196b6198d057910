"""Every function, class and method in the package is run by the package
itself, apart from a short list of named exceptions: one implementation per
algorithm, and no helper that only the tests call."""

import ast
from pathlib import Path

from acoustok.cli import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "acoustok").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# qualified name -> why the package may leave it uncalled
ALLOWED_UNREFERENCED = {
    "save_corpus": "bench/ writes its inputs with it",
    "write_ground_truth": "bench/ writes its truth file with it",
    "Manifest.output_hashes": "bench/ compares run digests with it",
    "GaussState.log_density": "bench/ traces and times it",
    "segment_forward_ll": "bench/ times it",
    "decode_utterance": "decoding as a batch of one utterance; bench/ times it",
    "state_kl": "acceptance criterion 5's pairwise distance; bench/ traces it",
    "frame_cost_matrix": "the tests' per-document frame-cost reference; bench/ times it",
    "subsequence_dtw": "acceptance criterion 6's DTW, the search's driver on a block of one; "
                       "bench/ times and traces it",
    "flat_start_model": "EM's flat start from a corpus; bench/ builds std-scale's models with it",
    "read_matl": "the MATL format's reader, kept with its writer",
    "complete_data_log_posterior": "the LDA's convergence metric, for run telemetry",
}


def definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, bare name) of every top-level function and class and
    every method; dunder methods, which Python calls by protocol, are left out."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item.name) for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return found


def references(tree: ast.Module) -> set[str]:
    """Every name loaded or attribute accessed in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def bench_references(tree: ast.Module) -> set[str]:
    """references(tree), with every string constant that is an identifier:
    the bench's tracer patches a function or method by its name."""
    return references(tree) | {node.value for node in ast.walk(tree)
                               if isinstance(node, ast.Constant) and isinstance(node.value, str)
                               and node.value.isidentifier()}


def stale_bench_reasons(allowed: dict[str, str], bench_sources) -> list[str]:
    """The allowed names whose reason cites bench/ but that no bench source
    references any more."""
    used = set().union(*(bench_references(ast.parse(path.read_text(), str(path)))
                         for path in bench_sources))
    return [name for name, reason in allowed.items()
            if "bench/" in reason and name.split(".")[-1] not in used]


def unreferenced(sources) -> set[str]:
    trees = [ast.parse(path.read_text(), str(path)) for path in sources]
    used = set().union(*map(references, trees)) | {f"cmd_{name}" for name in COMMANDS}
    return {qualified for tree in trees for qualified, bare in definitions(tree)
            if bare not in used}


def test_only_the_listed_names_go_unreferenced():
    assert unreferenced(SOURCES) == set(ALLOWED_UNREFERENCED)


def test_every_bench_reason_names_what_bench_still_uses():
    assert stale_bench_reasons(ALLOWED_UNREFERENCED, BENCH) == []


def test_bench_reasons_check_sees_calls_attributes_and_patched_names(tmp_path):
    source = tmp_path / "bench.py"
    source.write_text(
        "from pkg import called\n"
        "called(x.method())\n"
        "tracer.patch_function(module, \"patched\", name=\"module.patched\")\n")
    allowed = {"called": "bench/ times it", "A.method": "bench/ times it",
               "patched": "bench/ traces it", "dropped": "bench/ builds with it",
               "unlisted": "kept with its writer"}
    assert stale_bench_reasons(allowed, [source]) == ["dropped"]


def test_guard_sees_methods_and_dispatch(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "class A:\n"
        "    def __init__(self): self.used()\n"
        "    def used(self): pass\n"
        "    def idle(self): pass\n"
        "def cmd_synth(ctx): pass\n"
        "def cmd_bogus(ctx): pass\n"
        "def helper(): return A()\n")
    assert unreferenced([source]) == {"A.idle", "cmd_bogus", "helper"}
