"""Token label sequences: exhaustive segmentations of utterances into labeled spans.

A label set maps utterance id to a :class:`TokenLabelSequence`.  Label sets are
the currency passed between the initializer, the per-level tokenizer, the
cross-level fusion stage and the network trainer.
"""

from __future__ import annotations

import io
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


def pick_boundaries(score: np.ndarray, eligible: np.ndarray, min_gap: int,
                    anchors=()) -> list[int]:
    """Greedy peak picking over inter-frame positions j = 1..T-1 (index j-1).

    Eligible positions are taken by descending score, ties to the lowest j;
    a position closer than min_gap to one already taken or to an anchor is
    dropped.  Returns the taken positions in increasing order.
    """
    order = np.argsort(-score, kind="stable")
    taken: list[int] = []
    for j in (order[eligible[order]] + 1).tolist():
        if all(abs(j - k) >= min_gap for k in (*taken, *anchors)):
            taken.append(j)
    return sorted(taken)


def label_set_from_spans(spans: list[tuple[str, int, int]], ids) -> LabelSet:
    """The label set of (utterance, start, end) spans in time order, each
    labeled with the id at the same position of ids."""
    segments: dict[str, list[Segment]] = {}
    for (utt, start, end), token in zip(spans, ids, strict=True):
        segments.setdefault(utt, []).append((int(token), start, end))
    return {utt: TokenLabelSequence(utt, segs) for utt, segs in segments.items()}


def validate_label_set(labels: LabelSet, frame_counts: dict[str, int], n_tokens: int):
    """Check that the labels cover exactly the utterances of frame_counts,
    each tiled exactly, and that token ids are in range."""
    extra = sorted(set(labels) - set(frame_counts))
    if extra:
        raise ValueError(f"labels for utterance {extra[0]}, which the corpus lacks")
    for utt, n_frames in frame_counts.items():
        if utt not in labels:
            raise ValueError(f"missing labels for utterance {utt}")
        seq = labels[utt]
        if seq.n_frames != n_frames:
            raise ValueError(
                f"{utt}: labels cover {seq.n_frames} frames, utterance has {n_frames}"
            )
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


def open_text(path, newline=None) -> io.StringIO:
    """A UTF-8 text file, read whole, as open(path, newline=newline) reads it.
    Every text reader of the package goes through here: a byte that is not
    UTF-8 raises a ValueError naming the file and the line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{path}: line {line}: byte 0x{data[e.start]:02x} is not UTF-8 "
                         f"({e.reason})") from None


def read_jsonl(path, keys: tuple[str, ...]) -> list[tuple[int, dict]]:
    """The JSON objects of a JSONL file, one per non-blank line, each with its
    line number.  A line that does not parse, or lacks one of keys, raises a
    ValueError naming the file and the line."""
    records = []
    for number, line in enumerate(open_text(path), 1):
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
    """Inverse of labels_to_jsonl.  A token, start or end other than a JSON
    integer (true and false included), or segments that do not tile their
    utterance, raise a ValueError naming the file (and line)."""
    per_utt: dict[str, list[Segment]] = {}
    for number, rec in read_jsonl(path, ("utt", "token", "start", "end")):
        for key in ("token", "start", "end"):
            if type(rec[key]) is not int:
                raise ValueError(f"{path}: line {number}: {key} must be an integer, "
                                 f"got {json.dumps(rec[key])}")
        per_utt.setdefault(rec["utt"], []).append((rec["token"], rec["start"], rec["end"]))
    try:
        return {utt: TokenLabelSequence(utt, sorted(segs, key=lambda s: s[1]))
                for utt, segs in per_utt.items()}
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None

