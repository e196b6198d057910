"""Append-only run manifest: one JSON line per completed stage with content
hashes of its inputs and outputs, plus atomic file writing helpers.

A stage is complete when its line exists and every file it records, read or
written, still hashes as recorded.  The settings a stage reads are files too,
one per setting under config/, so a run resumes by re-running the stages whose
lines are missing or whose recorded files, settings among them, changed.  A
stage can also record the names a glob pattern matches, so that a file added
to a directory it lists re-runs it.  The manifest is parsed once per run.
Artifacts are always written to a temp file and renamed into place, never
half-written, and a re-run stage removes the files its previous line wrote
that it no longer writes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .labels import read_jsonl

SETTINGS_DIR = "config"  # one file per setting a stage can read


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def path_sha256(path) -> str | None:
    """What a manifest line records of a path: a file's sha256 or, for a glob
    pattern such as wavs/*.wav, the sha256 of the sorted names it matches in
    its directory; None when the file or the pattern's directory is missing."""
    path = Path(path)
    if path.is_file():
        return file_sha256(path)
    if not set("*?[") & set(path.name) or not path.parent.is_dir():
        return None
    names = "\n".join(sorted(p.name for p in path.parent.glob(path.name)))
    return hashlib.sha256(names.encode()).hexdigest()


def atomic_write_bytes(path, data: bytes):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode())


class PipelineError(RuntimeError):
    pass


class StageWriter:
    """Records the hashes of a stage's inputs as it reads them, and collects
    its outputs in memory to land them atomically."""

    def __init__(self, root):
        self.root = Path(root)
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, bytes] = {}

    def read(self, path, what: str) -> Path:
        """Check that an upstream file, or a glob pattern's directory, exists
        and record its path_sha256, keyed by its path relative to the run
        directory, or by its absolute path when it lies outside it."""
        path = Path(path)
        digest = path_sha256(path)
        if digest is None:
            raise PipelineError(f"missing upstream artifact: {what} ({path})")
        key = (path.relative_to(self.root).as_posix() if path.is_relative_to(self.root)
               else str(path.absolute()))
        self.inputs[key] = digest
        return path

    def add_bytes(self, relpath: str, data: bytes):
        self.outputs[relpath] = data

    def add_text(self, relpath: str, text: str):
        self.add_bytes(relpath, text.encode())

    def commit(self, replaced=()) -> dict[str, str]:
        """Land the outputs, then remove each file of replaced (the stage's
        previous outputs) that this run did not write."""
        hashes = {}
        for relpath in sorted(self.outputs):
            path = self.root / relpath
            atomic_write_bytes(path, self.outputs[relpath])
            hashes[relpath] = hashlib.sha256(self.outputs[relpath]).hexdigest()
        for relpath in set(replaced) - hashes.keys():
            (self.root / relpath).unlink(missing_ok=True)
        return hashes


class Manifest:
    """JSON-lines journal under the run directory, parsed once: the latest
    line of each stage is kept, and record adds to both."""

    def __init__(self, out_dir):
        self.path = Path(out_dir) / "manifest.jsonl"
        self.latest = {entry["stage"]: entry for entry in self.entries()}

    def entries(self) -> list[dict]:
        if not self.path.exists():
            return []
        return [e for _, e in read_jsonl(self.path, ("stage", "inputs", "outputs"))]

    def find(self, stage: str) -> dict | None:
        return self.latest.get(stage)

    def record(self, stage: str, outputs: dict[str, str], inputs: dict[str, str],
               elapsed_s: float):
        entry = {
            "stage": stage,
            "inputs": inputs,
            "outputs": outputs,
            "elapsed_s": round(elapsed_s, 6),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
        self.latest[stage] = entry

    def is_complete(self, stage: str, out_dir, outputs=None) -> bool:
        """A stage may be skipped if every path its line records, read or
        written, still hashes as recorded (see path_sha256); when outputs
        names some of the files it wrote, only those of them are checked, and
        a name its line did not write fails.  A line that recorded no
        settings file predates this rule."""
        entry = self.find(stage)
        if entry is None or not any(k.startswith(f"{SETTINGS_DIR}/") for k in entry["inputs"]):
            return False
        written = entry["outputs"] if outputs is None else {
            k: entry["outputs"].get(k) for k in outputs}
        root = Path(out_dir)  # root / key is the key itself when the key is absolute
        files = {**entry["inputs"], **written}
        return all(d is not None and path_sha256(root / k) == d for k, d in files.items())

    def output_hashes(self) -> dict[str, dict[str, str]]:
        """stage -> {relpath: sha256}, for determinism comparisons."""
        return {entry["stage"]: entry["outputs"] for entry in self.entries()}
