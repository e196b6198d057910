"""Golden digests: the README demo's artifacts, byte for byte.

Five runs of `iterate`, `std`, `eval` and `viz` on README.md's demo.ini: at
seeds 11 and 1; with the trained network (`[mdnn] epochs = 30`,
`learning_rate = 0.1`) at seeds 11 and 1; and at seed 11 with `[tokenizer]
mixture_schedule = 2`, whose levels mix one- and two-component states, so the
padded mixture paths are pinned too.  Every file each stage wrote is compared by its
sha256 against tests/golden/readme_demo.json, so a change that moves one bit
names the artifacts that moved.

The bytes depend on which kernels OpenBLAS picks for the CPU at run time (its
core), and the network's also on the number of threads OpenBLAS runs, so the
five runs are made in a child process with OPENBLAS_CORETYPE set to
PINNED_CORE, a core every x86-64 host with AVX2 can run, and
OPENBLAS_NUM_THREADS set to PINNED_THREADS, the default of the 2-core host the
digests were recorded on.  The file also records the numpy version, the BLAS
and the core the child reported; a mismatch prints both environments, with
the thread count, so a different library, core or thread count is told apart
from a change in the code.

A change that moves artifacts on purpose re-records the file in the same
change with `PYTHONPATH=src python tests/test_golden.py`, and lists what moved.

Two more tests reverse the lines of an index of a seed-11 run made in the
test process and re-run the stages after it: no other file may change.  They
compare the run with itself, so they need no pinned core.

Time: each run takes 1.3-1.6 s wall on a 2-core host; the five together,
the child's start included, must finish in RUN_BOUND_S.  The two index-order
tests take 0.4-0.5 s each, after 1.3-1.6 s for their own run.
"""

import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from test_cli import readme_demo_ini

import acoustok
from acoustok.cli import main
from acoustok.config import load_config
from acoustok.corpus import load_corpus
from acoustok.manifest import Manifest, file_sha256
from acoustok.pipeline import RunContext, plan, stage

GOLDEN = Path(__file__).resolve().parent / "golden" / "readme_demo.json"
COMMANDS = ("iterate", "std", "eval", "viz")
RUN_BOUND_S = 60.0
# the OpenBLAS core and thread count the golden runs are made with
PINNED_CORE = "Haswell"
PINNED_THREADS = 2

# run name -> (seed, whether the network is the trained one, whether states
# split into mixtures)
RUNS = {"readme_seed11": (11, False, False), "readme_seed1": (1, False, False),
        "trained_seed11": (11, True, False), "trained_seed1": (1, True, False),
        "mixtures_seed11": (11, False, True)}


def openblas_call(symbol: str, restype):
    """What the function symbol of the OpenBLAS of the numpy wheel returns,
    called with no argument, or None when no library in numpy.libs exports
    it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        function = getattr(ctypes.CDLL(str(path)), symbol, None)
        if function is not None:
            function.argtypes, function.restype = [], restype
            return function()
    return None


def blas_core() -> str:
    """The kernels OpenBLAS picked for this CPU at run time, as the OpenBLAS
    of the numpy wheel names them (`SkylakeX`, `Haswell`, ...), or `unknown`."""
    core = openblas_call("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return "unknown" if core is None else core.decode()


def blas_threads() -> int | None:
    """The number of threads the OpenBLAS of the numpy wheel runs, or None
    when it does not say."""
    return openblas_call("scipy_openblas_get_num_threads64_", ctypes.c_int)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_core": blas_core(), "blas_threads": blas_threads()}


def run_demo(out: Path, seed: int, trained: bool, mixtures: bool) -> dict[str, dict[str, str]]:
    """Run the four commands on the README demo into out; the manifest's
    output hashes, stage -> {file: sha256}."""
    ini = readme_demo_ini()
    if trained:
        assert "\nepochs = 3\n" in ini
        ini = ini.replace("\nepochs = 3\n", "\nepochs = 30\nlearning_rate = 0.1\n")
    if mixtures:
        assert "\n[tokenizer]\n" in ini
        ini = ini.replace("\n[tokenizer]\n", "\n[tokenizer]\nmixture_schedule = 2\n")
    out.mkdir(parents=True)
    config = out.parent / f"{out.name}.ini"
    config.write_text(ini)
    for command in COMMANDS:
        assert main([command, "--config", str(config), "--out", str(out),
                     "--seed", str(seed)]) == 0
    return Manifest(out).output_hashes()


def digest(hashes: dict) -> str:
    """One sha256 over a run's output hashes, the form PR texts cite."""
    return hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()


def pinned_runs(root: Path) -> dict:
    """Make every run of RUNS under root in a child process whose OpenBLAS
    uses PINNED_CORE and PINNED_THREADS: {"environment": the child's
    environment(), "runs": name -> output hashes}."""
    paths = [str(Path(acoustok.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_CORETYPE=PINNED_CORE, OPENBLAS_NUM_THREADS=str(PINNED_THREADS),
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.run([sys.executable, __file__, "--runs", str(root)], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """The pinned runs' environment and name -> output hashes, each run made
    once."""
    start = time.perf_counter()
    made = pinned_runs(tmp_path_factory.mktemp("golden"))
    elapsed = time.perf_counter() - start
    assert elapsed < RUN_BOUND_S, f"{len(RUNS)} demo runs took {elapsed:.1f} s"
    return made


@pytest.fixture(scope="module")
def seed11_run(tmp_path_factory):
    """The seed-11 README run made in this process, for reading or copying,
    not for changing."""
    out = tmp_path_factory.mktemp("order") / "readme_seed11"
    run_demo(out, *RUNS["readme_seed11"])
    return out


def moved_files(found: dict, recorded: dict) -> list[str]:
    """'stage: file' of every artifact whose hash differs, or that only one
    side wrote."""
    keys = {(s, f) for side in (found, recorded) for s in side for f in side[s]}
    return [f"{s}: {f}" for s, f in sorted(keys)
            if found.get(s, {}).get(f) != recorded.get(s, {}).get(f)]


@pytest.mark.parametrize("name", list(RUNS))
def test_artifacts_match_the_recorded_digests(demo_runs, name):
    golden = json.loads(GOLDEN.read_text())
    recorded = golden["runs"][name]
    assert (recorded["seed"], recorded["trained"], recorded["mixtures"]) == RUNS[name]
    found = demo_runs["runs"][name]
    moved = moved_files(found, recorded["outputs"])
    assert not moved, (
        f"{len(moved)} artifacts of {name} moved:\n  " + "\n  ".join(moved)
        + f"\nrecorded with {golden['environment']}, run with {demo_runs['environment']}")
    assert digest(found) == recorded["digest"]


def run_files(root: Path) -> dict[str, bytes]:
    """Every file of a run but its manifest, by path relative to root."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*")
            if p.is_file() and p.name != "manifest.jsonl"}


def rerun_on_reversed_index(original: Path, tmp_path, rel_index: str, keys) -> list[str]:
    """Copy the seed-11 README run original, reverse the lines of its index
    rel_index, and re-run those stages of plan() after the corpus source,
    then std and eval, whose key passes keys.  The stages that read the index must have
    read the reversed one; returns the files that differ from the original
    run's, the index aside."""
    out = tmp_path / "run"
    shutil.copytree(original, out)
    index = out / rel_index
    lines = index.read_text().splitlines(keepends=True)
    index.write_text("".join(reversed(lines)))
    assert load_corpus(index.parent).ids() == sorted(json.loads(line)["utt"] for line in lines)
    ctx = RunContext.create(replace(load_config(text=readme_demo_ini()), out=str(out)))
    stages = [each for each in plan(ctx.cfg)[1:] + [stage("std"), stage("eval")]
              if keys(each.key)]
    for each in stages:
        each.run(ctx)
    manifest = Manifest(out)
    readers = [each.key for each in stages if rel_index in manifest.find(each.key)["inputs"]]
    assert readers and all(manifest.find(key)["inputs"][rel_index] == file_sha256(index)
                           for key in readers)
    before, after = run_files(original), run_files(out)
    return sorted(name for name in before.keys() | after.keys()
                  if name != rel_index and before.get(name) != after.get(name))


def test_no_artifact_depends_on_the_order_of_the_index_lines(seed11_run, tmp_path):
    """Reversing the lines of features/corpus.jsonl and re-running every stage
    of the plan after the corpus source, then std and eval, leaves every other
    file of the run as it was."""
    assert rerun_on_reversed_index(seed11_run, tmp_path, "features/corpus.jsonl",
                                   lambda key: True) == []


def test_network_rows_are_keyed_by_utterance_id(seed11_run, tmp_path):
    """Reversing the lines of iter1/bnf's index, which iteration 2 reads, and
    re-running that iteration's stages (init, MAT, MR, MAT, the network and its
    extraction) leaves every other file of the run as it was."""
    assert rerun_on_reversed_index(seed11_run, tmp_path, "iter1/bnf/corpus.jsonl",
                                   lambda key: key.startswith("iter2/")) == []


def made_runs(root: Path) -> dict:
    """Make every run of RUNS under root in this process: its environment()
    and name -> output hashes."""
    return {"environment": environment(),
            "runs": {name: run_demo(root / name, *settings) for name, settings in RUNS.items()}}


def record(root: Path):
    """Write GOLDEN from fresh pinned runs under root."""
    made = pinned_runs(root)
    runs = {}
    for name, (seed, trained, mixtures) in RUNS.items():
        hashes = made["runs"][name]
        runs[name] = {"seed": seed, "trained": trained, "mixtures": mixtures,
                      "digest": digest(hashes), "outputs": hashes}
        print(name, digest(hashes))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"environment": made["environment"], "runs": runs},
                                 indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--runs"]:  # the child of pinned_runs
        print(json.dumps(made_runs(Path(sys.argv[2]))))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            record(Path(tmp))
