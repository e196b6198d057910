"""Token label sequences: exhaustive segmentations of utterances into labeled spans.

A label set maps utterance id to a :class:`TokenLabelSequence`.  Label sets are
the currency passed between the initializer, the per-level tokenizer, the
cross-level fusion stage and the network trainer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

Segment = tuple[int, int, int]  # (token_id, start_frame, end_frame_exclusive)


@dataclass
class TokenLabelSequence:
    """Ordered (token, start, end) segments tiling one utterance."""

    utterance_id: str
    segments: list[Segment] = field(default_factory=list)

    def __post_init__(self):
        prev_end = 0
        for token, start, end in self.segments:
            if start != prev_end:
                raise ValueError(
                    f"{self.utterance_id}: segment starts at {start}, expected {prev_end}"
                )
            if end <= start:
                raise ValueError(f"{self.utterance_id}: empty segment at {start}")
            if token < 0:
                raise ValueError(f"{self.utterance_id}: negative token id {token}")
            prev_end = end

    @property
    def n_frames(self) -> int:
        return self.segments[-1][2] if self.segments else 0

    def boundaries(self) -> list[int]:
        """Interior segment junctions (excludes 0 and T)."""
        return [seg[1] for seg in self.segments[1:]]

    def frame_labels(self) -> np.ndarray:
        """Per-frame token id array of length T."""
        out = np.empty(self.n_frames, dtype=np.int64)
        for token, start, end in self.segments:
            out[start:end] = token
        return out

    def token_ids(self) -> list[int]:
        return [seg[0] for seg in self.segments]


LabelSet = dict[str, TokenLabelSequence]


def validate_label_set(labels: LabelSet, frame_counts: dict[str, int], n_tokens: int | None = None):
    """Check that every utterance is tiled exactly and token ids are in range."""
    for utt, n_frames in frame_counts.items():
        if utt not in labels:
            raise ValueError(f"missing labels for utterance {utt}")
        seq = labels[utt]
        if seq.n_frames != n_frames:
            raise ValueError(
                f"{utt}: labels cover {seq.n_frames} frames, utterance has {n_frames}"
            )
        if n_tokens is not None:
            bad = [t for t in seq.token_ids() if t >= n_tokens]
            if bad:
                raise ValueError(f"{utt}: token ids {bad} out of range [0, {n_tokens})")


def labels_to_jsonl(labels: LabelSet) -> str:
    """One JSON object {utt, token, start, end} per segment, utterances sorted by id."""
    lines = []
    for utt in sorted(labels):
        for token, start, end in labels[utt].segments:
            lines.append(json.dumps(
                {"utt": utt, "token": int(token), "start": int(start), "end": int(end)}
            ))
    return "\n".join(lines) + ("\n" if lines else "")


def read_jsonl(path, keys: tuple[str, ...]) -> list[tuple[int, dict]]:
    """The JSON objects of a JSONL file, one per non-blank line, each with its
    line number.  A line that does not parse, or lacks one of keys, raises a
    ValueError naming the file and the line."""
    records = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: line {number}: {e.msg}") from None
            missing = [k for k in keys if not isinstance(rec, dict) or k not in rec]
            if missing:
                raise ValueError(f"{path}: line {number}: missing {', '.join(missing)}")
            records.append((number, rec))
    return records


def read_labels_jsonl(path) -> LabelSet:
    """Inverse of labels_to_jsonl.  A non-integer field, or segments that do
    not tile their utterance, raise a ValueError naming the file (and line)."""
    per_utt: dict[str, list[Segment]] = {}
    for number, rec in read_jsonl(path, ("utt", "token", "start", "end")):
        try:
            segment = (int(rec["token"]), int(rec["start"]), int(rec["end"]))
        except (TypeError, ValueError) as e:
            raise ValueError(f"{path}: line {number}: {e}") from None
        per_utt.setdefault(rec["utt"], []).append(segment)
    try:
        return {utt: TokenLabelSequence(utt, sorted(segs, key=lambda s: s[1]))
                for utt, segs in per_utt.items()}
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None

