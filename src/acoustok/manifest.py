"""Append-only run manifest: one JSON line per completed stage with content
hashes of its inputs and outputs, plus atomic file writing helpers.

A stage is considered complete only once its manifest line is appended, so an
interrupted run can be resumed by re-running the stages whose lines are
missing; individual artifacts are always written to a temp file and renamed
into place, never left half-written.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .labels import read_jsonl


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


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
        """Check that an upstream file exists and record its sha256, keyed by
        its path relative to the run directory, or as given when it lies
        outside it."""
        path = Path(path)
        if not path.exists():
            raise PipelineError(f"missing upstream artifact: {what} ({path})")
        key = path.relative_to(self.root).as_posix() if path.is_relative_to(self.root) else str(path)
        self.inputs[key] = file_sha256(path)
        return path

    def add_bytes(self, relpath: str, data: bytes):
        self.outputs[relpath] = data

    def add_text(self, relpath: str, text: str):
        self.add_bytes(relpath, text.encode())

    def commit(self) -> dict[str, str]:
        hashes = {}
        for relpath in sorted(self.outputs):
            path = self.root / relpath
            atomic_write_bytes(path, self.outputs[relpath])
            hashes[relpath] = hashlib.sha256(self.outputs[relpath]).hexdigest()
        return hashes


class Manifest:
    """JSON-lines journal under the run directory."""

    def __init__(self, out_dir):
        self.path = Path(out_dir) / "manifest.jsonl"

    def entries(self) -> list[dict]:
        if not self.path.exists():
            return []
        return read_jsonl(self.path, ("stage", "inputs", "outputs", "config_sha"))

    def find(self, stage: str) -> dict | None:
        for entry in reversed(self.entries()):
            if entry["stage"] == stage:
                return entry
        return None

    def record(self, stage: str, outputs: dict[str, str], inputs: dict[str, str],
               config_sha: str, elapsed_s: float):
        entry = {
            "stage": stage,
            "inputs": inputs,
            "outputs": outputs,
            "config_sha": config_sha,
            "elapsed_s": round(elapsed_s, 6),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")

    def is_complete(self, stage: str, out_dir, config_sha: str) -> bool:
        """A stage may be skipped if its outputs still match their hashes."""
        entry = self.find(stage)
        if entry is None or entry.get("config_sha") != config_sha:
            return False
        root = Path(out_dir)
        for relpath, digest in entry["outputs"].items():
            path = root / relpath
            if not path.exists() or file_sha256(path) != digest:
                return False
        return True

    def output_hashes(self) -> dict[str, dict[str, str]]:
        """stage -> {relpath: sha256}, for determinism comparisons."""
        return {entry["stage"]: entry["outputs"] for entry in self.entries()}
