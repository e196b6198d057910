"""Audio ingestion, acoustic feature extraction, and synthetic corpora.

The front end produces 39-dimensional features per frame: 13 cepstral
coefficients (c0 replaced by log frame energy) plus delta and double delta,
from 25 ms windows every 10 ms.  Synthetic corpora are generated directly in
feature space from known token state distributions so that every downstream
stage can be checked against exact ground truth.

A Corpus stacks its utterances, in id order, in one matrix; each views its rows.

ArtifactReader frames every binary artifact (MATF, MATM, MATL, MATN): magic,
optional version word, fields in file order, no trailing bytes.
"""

from __future__ import annotations

import copy
import json
import math
import struct
import wave
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .labels import LabelSet, TokenLabelSequence, labels_to_jsonl, read_jsonl, read_labels_jsonl

MATF_MAGIC = b"MATF"

LOG_FLOOR = 1e-10
CMVN_VAR_FLOOR = 1e-8

# bytes of the temporaries one block of a blocked kernel builds: k-means
# distances, LDA updates, KL tables and DTW accumulators; a size that stays
# in cache, fixed, not a setting
KERNEL_BLOCK_BYTES = 256 << 10


def row_batches(lengths: np.ndarray, cell_bytes: int, budget: int,
                stacked: bool = True) -> list[slice]:
    """Consecutive rows cut into batches of at most budget bytes, counting
    cell_bytes per cell of the rows' padded copy and, if stacked, of the rows
    themselves (lengths[i] cells each); a batch holds at least one row."""
    batches, start = [], 0
    while start < len(lengths):
        # a batch's bytes grow with every row it takes: it ends before the
        # first row that would take it over the budget, looked for in a
        # window of rows that doubles until it holds that row or the last
        window = 256
        while True:
            rest = lengths[start:start + window]
            cells = (np.cumsum(rest) * stacked
                     + np.maximum.accumulate(rest) * np.arange(1, len(rest) + 1))
            fits = int(np.count_nonzero(cells * cell_bytes <= budget))
            if fits < len(rest) or start + window >= len(lengths):
                break
            window *= 2
        batches.append(slice(start, start + max(1, fits)))
        start += max(1, fits)
    return batches


class AudioError(ValueError):
    """Unreadable or unsupported audio input."""


@dataclass
class Waveform:
    samples: np.ndarray  # float64 in [-1, 1]
    sample_rate: int
    utterance_id: str

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise AudioError(f"{self.utterance_id}: sample rate must be positive")
        if len(self.samples) == 0:
            raise AudioError(f"{self.utterance_id}: zero-length audio")


@dataclass
class FeatureSequence:
    frames: np.ndarray  # (T, d)
    frame_shift: float = 0.010
    frame_length: float = 0.025
    utterance_id: str = ""

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise ValueError(f"{self.utterance_id}: frames must be a non-empty T x d matrix")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError(f"{self.utterance_id}: non-finite feature values")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass
class Corpus:
    """Utterances sorted by id, then stacked once into one (T, d) frame
    matrix, `frames`; utterance u is rows offsets[u] to offsets[u + 1], and
    `utterances`, `corpus[utt]` and iteration give views of those rows.  The
    order the utterances are given in changes nothing."""

    utterances: list[FeatureSequence]
    speakers: dict[str, str] = field(default_factory=dict)  # utterance id -> speaker id

    def __post_init__(self):
        # copies, not replace, which would check every frame again
        self.utterances = [copy.copy(u) for u in
                           sorted(self.utterances, key=lambda u: u.utterance_id)]
        for u in self.utterances:
            if u.dim != self.utterances[0].dim:
                raise ValueError(f"utterance {u.utterance_id} has {u.dim}-dimensional features, "
                                 f"{self.utterances[0].utterance_id} has {self.utterances[0].dim}")
        self.frames = np.concatenate([u.frames for u in self.utterances] or [np.empty((0, 0))])
        self.offsets = np.cumsum([0] + [u.n_frames for u in self.utterances])
        for u, a, b in zip(self.utterances, self.offsets, self.offsets[1:]):
            u.frames = self.frames[a:b]
        self._by_id = {u.utterance_id: u for u in self.utterances}
        if len(self._by_id) != len(self.utterances):
            raise ValueError("duplicate utterance ids in corpus")

    def __iter__(self):
        return iter(self.utterances)

    def __len__(self):
        return len(self.utterances)

    def __getitem__(self, utterance_id: str) -> FeatureSequence:
        return self._by_id[utterance_id]

    def ids(self) -> list[str]:
        return [u.utterance_id for u in self.utterances]

    def frame_counts(self) -> dict[str, int]:
        return {u.utterance_id: u.n_frames for u in self.utterances}


@dataclass
class GroundTruth:
    """True token spans per utterance, for synthetic corpora only."""

    spans: dict[str, list[tuple[int, int, int]]]  # utt -> [(token, start, end)]

    def boundaries(self, utterance_id: str) -> list[int]:
        return [s[1] for s in self.spans[utterance_id][1:]]

    def frame_counts(self) -> dict[str, int]:
        return {utt: segs[-1][2] for utt, segs in self.spans.items()}

    def label_set(self) -> LabelSet:
        return {utt: TokenLabelSequence(utt, list(segs)) for utt, segs in self.spans.items()}


@dataclass
class FeatureConfig:
    window: float = 0.025  # seconds
    shift: float = 0.010
    n_ceps: int = 13
    n_filters: int = 26
    preemphasis: float = 0.97
    delta_window: int = 2
    cmvn: bool = True

    def __post_init__(self):
        for name in ("window", "shift"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 1 <= self.n_ceps <= self.n_filters:
            raise ValueError(f"n_ceps must be >= 1 and <= n_filters ({self.n_filters}), "
                             f"got {self.n_ceps}")
        if self.delta_window < 1:
            raise ValueError(f"delta_window must be >= 1, got {self.delta_window}")


# ---------------------------------------------------------------------------
# audio input
# ---------------------------------------------------------------------------

def load_audio(path) -> Waveform:
    """Read a PCM 16-bit mono WAV file; samples scaled to [-1, 1]."""
    try:
        with wave.open(str(path), "rb") as w:
            n_channels = w.getnchannels()
            sampwidth = w.getsampwidth()
            sample_rate = w.getframerate()
            n_frames = w.getnframes()
            raw = w.readframes(n_frames)
    except (wave.Error, EOFError, OSError) as exc:
        raise AudioError(f"unreadable file {path}: {exc}") from exc
    if n_channels != 1 or sampwidth != 2:
        raise AudioError(
            f"unsupported encoding in {path}: need 16-bit mono, "
            f"got {8 * sampwidth}-bit {n_channels}-channel"
        )
    if n_frames == 0:
        raise AudioError(f"zero-length audio in {path}")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, sample_rate, utterance_id=Path(path).stem)


# ---------------------------------------------------------------------------
# MFCC front end
# ---------------------------------------------------------------------------

def _mel(f):
    return 2595.0 * np.log10(1.0 + f / 700.0)


def _mel_inv(m):
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def _mel_filterbank(n_filters: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular filters spanning 0 to Nyquist, (n_filters, n_fft // 2 + 1)."""
    points = _mel_inv(np.linspace(_mel(0.0), _mel(sample_rate / 2.0), n_filters + 2))
    bins = np.floor((n_fft + 1) * points / sample_rate).astype(int)
    bank = np.zeros((n_filters, n_fft // 2 + 1))
    for i in range(n_filters):
        lo, mid, hi = bins[i], bins[i + 1], bins[i + 2]
        for k in range(lo, mid):
            bank[i, k] = (k - lo) / (mid - lo)
        for k in range(mid, hi):
            bank[i, k] = (hi - k) / (hi - mid)
    return bank


def _dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    """The first n_out rows of the orthonormal DCT-II of length n_in, as an
    (n_out, n_in) cosine matrix: row k is sqrt(2 / n_in) * cos(pi k (2j + 1) /
    (2 n_in)) over j, and row 0 is 1 / sqrt(n_in)."""
    k = np.arange(n_out)[:, None]
    j = np.arange(n_in)[None, :]
    # the cosine's period taken out in integers keeps each angle under 2 pi
    turns = k * (2 * j + 1) % (4 * n_in)
    basis = np.sqrt(2.0 / n_in) * np.cos(np.pi * turns / (2 * n_in))
    basis[0] = 1.0 / np.sqrt(n_in)
    return basis


def _delta(features: np.ndarray, window: int) -> np.ndarray:
    """Regression deltas over +/- window frames with edge replication."""
    T = features.shape[0]
    padded = np.vstack(
        [np.repeat(features[:1], window, axis=0), features, np.repeat(features[-1:], window, axis=0)]
    )
    denom = 2.0 * sum(k * k for k in range(1, window + 1))
    out = np.zeros_like(features)
    for k in range(1, window + 1):
        out += k * (padded[window + k : window + k + T] - padded[window - k : window - k + T])
    return out / denom


def extract_features(waveform: Waveform, cfg: FeatureConfig | None = None) -> FeatureSequence:
    """Frame the signal and compute cepstra + log energy + delta + double delta.

    T = floor((N - window) / shift) + 1 frames; d = 3 * n_ceps (39 by default).
    Raises AudioError if the window or the shift rounds to no sample at the
    signal's rate, or if the signal is shorter than one analysis window.
    The cepstra are the log mel energies times a cosine matrix, the
    orthonormal DCT-II.  They differ from scipy.fft.dct(..., norm="ortho") by
    rounding only: by at most 9.0e-16 of the frame's largest coefficient
    (2.2e-14 absolute) on 2,000 random frames of 26 values in [-23, 10].
    """
    cfg = cfg or FeatureConfig()
    sr = waveform.sample_rate
    win = int(round(cfg.window * sr))
    shift = int(round(cfg.shift * sr))
    for name, seconds, samples in (("window", cfg.window, win), ("shift", cfg.shift, shift)):
        if samples < 1:
            raise AudioError(f"{waveform.utterance_id}: {name} = {seconds} s is {samples} "
                             f"samples at {sr} Hz; it must be at least 1")
    x = waveform.samples
    if len(x) < win:
        raise AudioError(f"{waveform.utterance_id}: audio shorter than one window")

    emphasized = x - cfg.preemphasis * np.concatenate(([x[0]], x[:-1]))
    T = (len(x) - win) // shift + 1
    idx = np.arange(win)[None, :] + shift * np.arange(T)[:, None]
    frames = emphasized[idx]

    log_energy = np.log(np.maximum(np.sum(frames**2, axis=1), LOG_FLOOR))

    n_fft = 1
    while n_fft < win:
        n_fft *= 2
    windowed = frames * np.hamming(win)
    power = np.abs(np.fft.rfft(windowed, n=n_fft)) ** 2
    bank = _mel_filterbank(cfg.n_filters, n_fft, sr)
    log_mel = np.log(np.maximum(power @ bank.T, LOG_FLOOR))
    ceps = log_mel @ _dct_matrix(cfg.n_ceps, cfg.n_filters).T
    ceps[:, 0] = log_energy

    d1 = _delta(ceps, cfg.delta_window)
    d2 = _delta(d1, cfg.delta_window)
    feats = np.hstack([ceps, d1, d2])
    return FeatureSequence(feats, cfg.shift, cfg.window, waveform.utterance_id)


def apply_cmvn(seq: FeatureSequence) -> FeatureSequence:
    """Per-utterance normalization: each column to mean 0, variance 1 (floored)."""
    mean = seq.frames.mean(axis=0)
    var = np.maximum(seq.frames.var(axis=0), CMVN_VAR_FLOOR)
    return replace(seq, frames=(seq.frames - mean) / np.sqrt(var))


def context_rows(corpus: Corpus, radius: int) -> np.ndarray:
    """Every frame of the corpus, in its id order, beside the radius frames on
    each side of it: one (frames, (2 radius + 1) d) gather from corpus.frames,
    in which an utterance repeats its own edge frames."""
    lengths = np.diff(corpus.offsets)
    lo = np.repeat(corpus.offsets[:-1], lengths)[:, None]
    hi = np.repeat(corpus.offsets[1:] - 1, lengths)[:, None]
    rows = np.arange(len(corpus.frames))[:, None] + np.arange(-radius, radius + 1)
    return corpus.frames[np.clip(rows, lo, hi)].reshape(len(rows), -1)


def utterance_stats(seq: FeatureSequence) -> np.ndarray:
    """Per-dimension mean followed by per-dimension standard deviation (length 2d)."""
    return np.concatenate([seq.frames.mean(axis=0), seq.frames.std(axis=0)])


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) cosine similarities of the rows of a and b, clipped to
    [-1, 1]; a zero-norm row scores 0 against every row."""
    rows_a = unit_rows(a)
    # one array given twice stays one operand, which numpy multiplies by its
    # own transpose into an exactly symmetric product
    return unit_row_similarity(rows_a, rows_a if b is a else unit_rows(b))


def row_norms(x: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of x, each row on its own, so the rows
    of a stack get the norms they get one array at a time."""
    return np.linalg.norm(x, axis=1)


def unit_rows(x: np.ndarray, norms: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The rows of x scaled to unit length, zero-norm rows left at 0, and the
    mask of those zero-norm rows.  norms, when given, are `row_norms(x)`
    computed earlier."""
    if norms is None:
        norms = row_norms(x)
    return x / np.where(norms > 0, norms, 1.0)[:, None], norms == 0


def unit_row_similarity(rows_a: tuple[np.ndarray, np.ndarray],
                        rows_b: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """cosine_similarity of two `unit_rows` results: the product of the unit
    rows, clipped, with every zero-norm row's entries set to 0."""
    (unit_a, zero_a), (unit_b, zero_b) = rows_a, rows_b
    sim = np.clip(unit_a @ unit_b.T, -1.0, 1.0)
    sim[zero_a, :] = 0.0
    sim[:, zero_b] = 0.0
    return sim


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

@dataclass
class SynthSpec:
    """Generator settings for a feature-space corpus with known token structure.

    Token k emits from an m-state left-to-right chain of spherical Gaussians;
    the base mean of token k sits at mean_separation along axis k, so any two
    tokens are at least mean_separation * sqrt(2) apart (in units of
    emission_std).  state_drift adds a small per-state offset on a second axis
    to give tokens internal temporal structure.
    """

    n_tokens: int = 5
    states_per_token: int = 3
    dim: int = 8
    n_utterances: int = 20
    tokens_per_utterance: tuple[int, int] = (4, 8)
    frames_per_state: tuple[int, int] = (2, 5)
    mean_separation: float = 4.0
    emission_std: float = 1.0
    state_drift: float = 0.5
    allow_repeats: bool = False
    n_speakers: int = 2
    token_sequences: dict[str, list[int]] | None = None

    def __post_init__(self):
        if self.n_speakers < 1:
            raise ValueError(f"n_speakers must be >= 1, got {self.n_speakers}")

    def state_mean(self, token: int, state: int) -> np.ndarray:
        mean = np.zeros(self.dim)
        mean[token] = self.mean_separation
        offset = (state - (self.states_per_token - 1) / 2.0) * self.state_drift
        mean[(token + 1) % self.dim] += offset
        return mean


def synthesize_corpus(spec: SynthSpec, seed: int) -> tuple[Corpus, GroundTruth]:
    """Deterministically generate features and exact token spans from a spec."""
    if spec.n_tokens < 1:
        raise ValueError("invalid spec: need at least one token")
    if spec.dim < spec.n_tokens:
        raise ValueError("invalid spec: dim must be >= n_tokens for separated means")
    rng = np.random.default_rng(seed)
    utterances = []
    speakers = {}
    spans: dict[str, list[tuple[int, int, int]]] = {}

    if spec.token_sequences is not None:
        sequences = [(utt, list(seq)) for utt, seq in spec.token_sequences.items()]
    else:
        sequences = []
        for i in range(spec.n_utterances):
            length = int(rng.integers(spec.tokens_per_utterance[0], spec.tokens_per_utterance[1] + 1))
            seq = []
            for _ in range(length):
                token = int(rng.integers(spec.n_tokens))
                if not spec.allow_repeats and seq and spec.n_tokens > 1:
                    while token == seq[-1]:
                        token = int(rng.integers(spec.n_tokens))
                seq.append(token)
            sequences.append((f"utt{i:03d}", seq))

    for utt_index, (utt, seq) in enumerate(sequences):
        frames = []
        utt_spans = []
        cursor = 0
        for token in seq:
            if token < 0 or token >= spec.n_tokens:
                raise ValueError(f"invalid spec: token id {token} out of range")
            start = cursor
            for state in range(spec.states_per_token):
                dur = int(rng.integers(spec.frames_per_state[0], spec.frames_per_state[1] + 1))
                mean = spec.state_mean(token, state)
                frames.append(rng.normal(mean, spec.emission_std, size=(dur, spec.dim)))
                cursor += dur
            utt_spans.append((token, start, cursor))
        utterances.append(FeatureSequence(np.vstack(frames), utterance_id=utt))
        speakers[utt] = f"spk{utt_index % spec.n_speakers}"
        spans[utt] = utt_spans

    return Corpus(utterances, speakers), GroundTruth(spans)


# ---------------------------------------------------------------------------
# feature file I/O
# ---------------------------------------------------------------------------

def matf_bytes(seq: FeatureSequence) -> bytes:
    """Binary feature file: magic, u32 rows, u32 cols, row-major float32, little-endian."""
    frames = np.ascontiguousarray(seq.frames, dtype="<f4")
    return (
        MATF_MAGIC
        + struct.pack("<II", frames.shape[0], frames.shape[1])
        + frames.tobytes()
    )


class ArtifactReader:
    """The fields of a binary artifact in file order: the 4-byte magic, then,
    when a version is given, a u32 version word, then what the caller asks
    for.  A wrong magic or version, a short read and bytes after the last
    field each raise a ValueError naming the file (and the field)."""

    def __init__(self, path, magic: bytes, version: int | None = None):
        self.path = path
        with open(path, "rb") as f:
            self._data = memoryview(f.read())
        if self._data[:4] != magic:
            raise ValueError(f"{path}: bad magic {self._data[:4].tobytes()!r}")
        self._pos = 4
        if version is not None:
            (found,) = self.unpack("<I", "version")
            if found != version:
                raise ValueError(f"{path}: unsupported version {found}")

    def _take(self, n: int, field: str) -> memoryview:
        data = self._data[self._pos : self._pos + n]
        if len(data) != n:
            raise ValueError(f"{self.path}: truncated at {field} (need {n} bytes, got {len(data)})")
        self._pos += n
        return data

    def unpack(self, fmt: str, field: str) -> tuple:
        return struct.unpack(fmt, self._take(struct.calcsize(fmt), field))

    def array(self, shape, field: str, dtype: str = "<f8") -> np.ndarray:
        """The next array of this shape, as a writable copy."""
        dtype = np.dtype(dtype)
        count = int(np.prod(shape))
        return np.frombuffer(self._take(dtype.itemsize * count, field), dtype).reshape(shape).copy()

    def end(self):
        """Reject bytes after the last field."""
        extra = len(self._data) - self._pos
        if extra:
            raise ValueError(f"{self.path}: {extra} trailing bytes after the last field")


def read_matf(path, utterance_id: str | None = None,
              frame_shift: float = 0.010) -> FeatureSequence:
    f = ArtifactReader(path, MATF_MAGIC)
    rows, cols = f.unpack("<II", "shape")
    frames = f.array((rows, cols), "frames", "<f4")
    f.end()
    if utterance_id is None:
        utterance_id = Path(path).stem
    try:
        return FeatureSequence(frames, frame_shift, utterance_id=utterance_id)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def corpus_files(corpus: Corpus) -> dict[str, bytes]:
    """One .matf per utterance plus the corpus.jsonl index, keyed by file name."""
    files = {}
    lines = []
    for seq in corpus:
        files[f"{seq.utterance_id}.matf"] = matf_bytes(seq)
        lines.append(json.dumps({
            "utt": seq.utterance_id,
            "frames": seq.n_frames,
            "dim": seq.dim,
            "frame_shift": seq.frame_shift,
            "speaker": corpus.speakers.get(seq.utterance_id),
        }))
    files["corpus.jsonl"] = "".join(line + "\n" for line in lines).encode()
    return files


def save_corpus(directory, corpus: Corpus):
    """Write one .matf per utterance plus a corpus.jsonl index."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in corpus_files(corpus).items():
        (directory / name).write_bytes(data)


def read_corpus_index(index: Path) -> list[tuple[int, dict]]:
    """Each record of a corpus.jsonl with its line number.  Raises, naming the
    file and the line, on an utt that cannot name a file in the index's
    directory (not a non-empty string, a path separator or NUL in it, . or
    ..), a speaker not a non-empty string or null, a frame_shift not a
    positive number, a frames or dim not a positive JSON integer, a repeated
    utterance, mixed dims, a speaker named on some lines and not on others;
    and naming the file, on an unlisted .matf."""
    records = read_jsonl(index, ("utt", "frames", "dim"))
    lines = {}
    for number, r in records:
        utt, speaker, shift = r["utt"], r.get("speaker"), r.get("frame_shift", 0.010)
        if type(utt) is not str or utt in ("", ".", "..") or any(c in utt for c in "/\\\0"):
            raise ValueError(f"{index}: line {number}: utt must be a non-empty string with no "
                             f"path separator or NUL, not . or .., got {json.dumps(utt)}")
        if speaker is not None and (type(speaker) is not str or not speaker):
            raise ValueError(f"{index}: line {number}: speaker must be a non-empty string "
                             f"or null, got {json.dumps(speaker)}")
        if type(shift) not in (int, float) or not (math.isfinite(shift) and shift > 0):
            raise ValueError(f"{index}: line {number}: frame_shift must be a positive number, "
                             f"got {json.dumps(shift)}")
        for key in ("frames", "dim"):
            if type(r[key]) is not int or r[key] < 1:
                raise ValueError(f"{index}: line {number}: {key} must be a positive integer, "
                                 f"got {json.dumps(r[key])}")
        if lines.setdefault(utt, number) != number:
            raise ValueError(f"{index}: line {number} repeats utterance {utt} "
                             f"of line {lines[utt]}")
        first_number, first = records[0]
        if r["dim"] != first["dim"]:
            raise ValueError(f"{index}: line {number}: {utt} has {r['dim']}-dimensional "
                             f"features, line {first_number} has {first['dim']}")
        if (speaker is None) != (first.get("speaker") is None):
            raise ValueError(f"{index}: line {number}: {utt} has speaker {json.dumps(speaker)}, "
                             f"line {first_number} has {json.dumps(first.get('speaker'))}")
    unlisted = sorted({p.stem for p in index.parent.glob("*.matf")} - set(lines))
    if unlisted:
        raise ValueError(f"{index}: {len(unlisted)} .matf files not listed, "
                         f"the first {unlisted[0]}.matf")
    return records


def load_corpus(directory) -> Corpus:
    """The utterances of the directory's corpus.jsonl, read through
    read_corpus_index; a .matf of another shape than its record raises."""
    index = Path(directory) / "corpus.jsonl"
    records = read_corpus_index(index)
    utterances = []
    for number, r in records:
        seq = read_matf(index.parent / f"{r['utt']}.matf", r["utt"], r.get("frame_shift", 0.010))
        if seq.frames.shape != (r["frames"], r["dim"]):
            raise ValueError(f"{index.parent / r['utt']}.matf: {seq.n_frames} x {seq.dim} frames, "
                             f"but line {number} of {index} records {r['frames']} x {r['dim']}")
        utterances.append(seq)
    return Corpus(utterances, {r["utt"]: r["speaker"] for _, r in records if r.get("speaker")})


def ground_truth_jsonl(truth: GroundTruth) -> str:
    """The true spans in the labels JSONL format."""
    return labels_to_jsonl(truth.label_set())


def write_ground_truth(path, truth: GroundTruth):
    Path(path).write_text(ground_truth_jsonl(truth))


def read_ground_truth(path) -> GroundTruth:
    return GroundTruth({utt: seq.segments for utt, seq in read_labels_jsonl(path).items()})
