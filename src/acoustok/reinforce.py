"""Cross-level fusion: merge token boundaries from every level into a joint
segmentation, re-describe the corpus as bags of pseudo-words over that
segmentation, and relabel the segments by LDA topics to produce fresh initial
label sets (one per phonetic granularity).

Level weights are proportional to m, so levels with longer HMMs (which produce
fewer, more reliable boundaries) count more.  The joint boundary function is
kept as exact integer numerators over a common denominator, so unanimity is
detected exactly.

Topics are inferred by CVB0, a deterministic variational update of every
token's topic distribution, so an LDA model's counts are expected counts:
non-negative floats that sum to the document lengths and word frequencies.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .corpus import KERNEL_BLOCK_BYTES, ArtifactReader
from .labels import LabelSet, TokenLabelSequence, label_set_from_spans, pick_boundaries
from .tokenizer import Granularity, GranularityGrid

MATL_MAGIC = b"MATL"
MATL_VERSION = 1


@dataclass
class ReinforceConfig:
    tau: float = -0.05        # second-difference threshold for peak selection
    min_gap: int = 2          # minimum spacing between selected boundaries
    overlap: float = 0.5      # fraction of a token's span inside a segment for membership
    lda_iters: int = 200
    lda_beta: float = 0.01
    lda_alpha: float | None = None  # 50 / K when None

    def __post_init__(self):
        if self.min_gap < 1:
            raise ValueError(f"min_gap must be >= 1, got {self.min_gap}")
        if not 0 < self.overlap <= 1:
            raise ValueError(f"overlap must be in (0, 1], got {self.overlap}")
        if self.lda_iters < 0:
            raise ValueError(f"lda_iters must be >= 0, got {self.lda_iters}")
        if self.lda_beta <= 0:
            raise ValueError(f"lda_beta must be > 0, got {self.lda_beta}")
        if self.lda_alpha is not None and self.lda_alpha <= 0:
            raise ValueError(f"lda_alpha must be > 0 when set, got {self.lda_alpha}")


# ---------------------------------------------------------------------------
# boundary functions and fusion
# ---------------------------------------------------------------------------

def boundary_function(seq: TokenLabelSequence) -> np.ndarray:
    """Binary vector over inter-frame positions j = 1..T-1; 1 at segment junctions."""
    T = seq.n_frames
    b = np.zeros(max(T - 1, 0), dtype=np.int64)
    for j in seq.boundaries():
        b[j - 1] = 1
    return b


def fuse_utterance(b_by_level: dict[Granularity, np.ndarray],
                   cfg: ReinforceConfig | None = None) -> tuple[list[int], np.ndarray]:
    """Weighted-average boundary function and its selected peaks.

    Weight of level (m, n) is m / sum of m over all levels; the numerator is
    accumulated in integers so B(j) == 1 exactly when all levels mark j.
    Selected j are local maxima of B whose discrete second difference
    B(j-1) - 2 B(j) + B(j+1) is at most tau, thinned to the configured gap.
    """
    cfg = cfg or ReinforceConfig()
    levels = sorted(b_by_level, key=lambda g: (g.m, g.n))
    denom = sum(g.m for g in levels)
    length = len(next(iter(b_by_level.values())))
    numer = np.zeros(length, dtype=np.int64)
    for g in levels:
        b = b_by_level[g]
        if len(b) != length:
            raise ValueError("levels disagree on utterance length")
        numer += g.m * b
    B = numer / denom

    padded = np.concatenate(([0.0], B, [0.0]))  # out-of-range positions count as 0
    left, here, right = padded[:-2], padded[1:-1], padded[2:]
    peaks = (here > 0) & (here >= left) & (here >= right) & (left - 2 * here + right <= cfg.tau)
    return pick_boundaries(B, peaks, cfg.min_gap), B


def fuse_boundaries(level_labels: dict[Granularity, LabelSet],
                    cfg: ReinforceConfig | None = None) -> dict[str, list[int]]:
    """Selected joint boundaries for every utterance covered by all levels."""
    cfg = cfg or ReinforceConfig()
    levels = list(level_labels)
    utt_ids = sorted(level_labels[levels[0]])
    fused: dict[str, list[int]] = {}
    for utt in utt_ids:
        b_by_level = {g: boundary_function(level_labels[g][utt]) for g in levels}
        fused[utt], _ = fuse_utterance(b_by_level, cfg)
    return fused


# ---------------------------------------------------------------------------
# pseudo-word documents
# ---------------------------------------------------------------------------

@dataclass
class PseudoDocuments:
    """One bag of pseudo-words per fused segment, in (sorted utterance, span) order."""

    spans: list[tuple[str, int, int]]  # (utterance, start, end) per document
    docs: list[list[int]]
    vocab_size: int


def level_offsets(grid: GranularityGrid) -> dict[Granularity, int]:
    """Start index of each level's token ids in the shared pseudo-word vocabulary."""
    offsets = {}
    cursor = 0
    for g in grid.levels():
        offsets[g] = cursor
        cursor += g.n
    return offsets


def build_documents(fused: dict[str, list[int]],
                    level_labels: dict[Granularity, LabelSet],
                    grid: GranularityGrid,
                    cfg: ReinforceConfig | None = None) -> PseudoDocuments:
    """Collect, per fused segment, every level's tokens overlapping it by at
    least the configured fraction of the token's own span; fall back to the
    tokens covering the segment midpoint so no document is empty."""
    cfg = cfg or ReinforceConfig()
    offsets = level_offsets(grid)
    vocab_size = sum(g.n for g in grid.levels())
    spans_out: list[tuple[str, int, int]] = []
    docs: list[list[int]] = []
    for utt in sorted(fused):
        T = level_labels[grid.levels()[0]][utt].n_frames
        edges = [0] + list(fused[utt]) + [T]
        for a, b in zip(edges[:-1], edges[1:]):
            words: list[int] = []
            for g in grid.levels():
                for token, s, e in level_labels[g][utt].segments:
                    cover = min(b, e) - max(a, s)
                    if cover >= cfg.overlap * (e - s):
                        words.append(offsets[g] + token)
            if not words:
                mid = (a + b) // 2
                for g in grid.levels():
                    for token, s, e in level_labels[g][utt].segments:
                        if s <= mid < e:
                            words.append(offsets[g] + token)
            spans_out.append((utt, a, b))
            docs.append(words)
    return PseudoDocuments(spans_out, docs, vocab_size)


# ---------------------------------------------------------------------------
# LDA by zero-order collapsed variational Bayes
# ---------------------------------------------------------------------------

@dataclass
class LdaModel:
    n_topics: int
    topic_word: np.ndarray  # (K, V) expected counts
    doc_topic: np.ndarray   # (D, K) expected counts
    alpha: float
    beta: float
    seed: int

    def topic_word_distribution(self) -> np.ndarray:
        """(K, V) normalized word distribution per topic."""
        weights = self.topic_word + self.beta
        return weights / weights.sum(axis=1, keepdims=True)


def _segments(keys: np.ndarray, n_segments: int) -> tuple[np.ndarray, np.ndarray]:
    """For ascending keys in [0, n_segments): which segments some key names,
    and where each named segment starts."""
    sizes = np.bincount(keys, minlength=n_segments)
    used = sizes > 0
    return used, (np.cumsum(sizes) - sizes)[used]


def _segment_sums(rows: np.ndarray, segments: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(n_segments, K) sums of the rows of each segment of _segments; a segment
    no key names sums to zeros, where reduceat would return its neighbour's
    row."""
    used, starts = segments
    if len(starts) == len(used):
        return np.add.reduceat(rows, starts, axis=0)
    out = np.zeros((len(used), rows.shape[1]))
    if len(starts):
        out[used] = np.add.reduceat(rows, starts, axis=0)
    return out


def lda_fit(docs: list[list[int]], n_topics: int, vocab_size: int,
            cfg: ReinforceConfig | None = None, seed: int = 0) -> LdaModel:
    """Synchronous zero-order collapsed variational Bayes, CVB0 (Asuncion,
    Welling, Smyth & Teh, UAI 2009), with the usual alpha = 50/K, beta = 0.01
    defaults.

    Every token keeps a distribution gamma over the K topics, and the counts
    are expected counts, sums of gamma: n_dk over the document's tokens and
    n_kw over the word's tokens, each by one reduceat over the tokens in
    document order and in stable word order, and n_k over all tokens.  A
    sweep takes the counts once, then updates every token at once to
        gamma ∝ (n_dk - gamma + alpha)(n_kw - gamma + beta) / (n_k - gamma + V beta),
    normalized per token.  The update runs in blocks of tokens whose (tokens,
    K) temporaries stay under KERNEL_BLOCK_BYTES, or hold one token; it is
    element-wise with one sum per token, so the bits do not depend on the
    blocking.  The model holds the counts of the final gamma.

    Deterministic given the seed: gamma starts one-hot at topics drawn per
    document by rng.integers(K, size=len(doc)), and the sweeps draw nothing.
    """
    cfg = cfg or ReinforceConfig()
    if n_topics < 1:
        raise ValueError("need at least one topic")
    if not docs:
        raise ValueError("no documents")
    K, V, D = n_topics, vocab_size, len(docs)
    docs = [list(map(operator.index, doc)) for doc in docs]
    for d, doc in enumerate(docs):
        if doc and (min(doc) < 0 or max(doc) >= V):
            bad = next(w for w in doc if not 0 <= w < V)
            raise ValueError(f"document {d}: word id {bad} outside [0, {V})")
    alpha = cfg.lda_alpha if cfg.lda_alpha is not None else 50.0 / n_topics
    beta = cfg.lda_beta
    rng = np.random.default_rng(seed)

    initial = np.concatenate([rng.integers(K, size=len(doc)) for doc in docs])
    doc_of = np.repeat(np.arange(D), [len(doc) for doc in docs])
    words = np.array([w for doc in docs for w in doc], dtype=np.int64)
    word_order = np.argsort(words, kind="stable")
    by_doc, by_word = _segments(doc_of, D), _segments(words[word_order], V)
    gamma = np.zeros((len(words), K))
    gamma[np.arange(len(words)), initial] = 1.0

    def counts():
        return (_segment_sums(gamma, by_doc), _segment_sums(gamma[word_order], by_word),
                gamma.sum(axis=0))

    vb = V * beta
    rows = max(1, KERNEL_BLOCK_BYTES // (K * 8))
    for _ in range(cfg.lda_iters):
        doc_topic, word_topic, topic_total = counts()
        for start in range(0, len(words), rows):
            block = slice(start, start + rows)
            g = gamma[block]
            new = ((doc_topic[doc_of[block]] - g + alpha)
                   * (word_topic[words[block]] - g + beta)
                   / (topic_total - g + vb))
            gamma[block] = new / new.sum(axis=1, keepdims=True)
    doc_topic, word_topic, _ = counts()
    return LdaModel(K, word_topic.T.copy(), doc_topic, alpha, beta, seed)


# elementwise log |Gamma(x)|, by the standard library's lgamma
_lgamma = np.vectorize(math.lgamma, otypes=[float])


def complete_data_log_posterior(model: LdaModel) -> float:
    """log P(w, z | alpha, beta) up to assignment-independent constants, the
    collapsed joint of integer counts, evaluated at the model's expected
    counts."""
    K = model.n_topics
    V = model.topic_word.shape[1]
    a, b = model.alpha, model.beta
    doc_len = model.doc_topic.sum(axis=1)
    topic_total = model.topic_word.sum(axis=1)
    doc_part = (
        _lgamma(model.doc_topic + a).sum()
        - _lgamma(doc_len + K * a).sum()
    )
    word_part = (
        _lgamma(model.topic_word + b).sum()
        - _lgamma(topic_total + V * b).sum()
    )
    return float(doc_part + word_part)


def document_topic_log_scores(documents: PseudoDocuments, model: LdaModel) -> np.ndarray:
    """(D, K) log posterior scores, from the final expected counts only:
    log(n_dk + alpha) plus the log-likelihood of the document's words under
    each topic's word distribution.  The word term dominates for documents
    concentrated on one topic's support."""
    log_phi = np.log(model.topic_word_distribution())  # (K, V)
    scores = np.log(model.doc_topic + model.alpha)
    for d, doc in enumerate(documents.docs):
        if doc:
            scores[d] += log_phi[:, doc].sum(axis=1)
    return scores


def relabel(documents: PseudoDocuments, model: LdaModel) -> LabelSet:
    """Label each fused segment with its most probable topic (ties: lowest id)."""
    topics = np.argmax(document_topic_log_scores(documents, model), axis=1)
    return label_set_from_spans(documents.spans, topics)


# ---------------------------------------------------------------------------
# the whole reinforcement pass
# ---------------------------------------------------------------------------

@dataclass
class Reinforcement:
    """One reinforcement pass: the fused boundaries, the pseudo-word documents,
    and per phonetic granularity n the LDA model and the new label set."""

    fused: dict[str, list[int]]
    documents: PseudoDocuments
    models: dict[int, LdaModel]
    labels: dict[int, LabelSet]


def mutual_reinforce(level_labels: dict[Granularity, LabelSet],
                     grid: GranularityGrid,
                     seeds: dict[int, int],
                     cfg: ReinforceConfig | None = None) -> Reinforcement:
    """Fuse boundaries, build documents, and fit one LDA per phonetic
    granularity n in seeds, seeded with seeds[n]; the new initial label set
    for each n is shared by all temporal granularities."""
    cfg = cfg or ReinforceConfig()
    missing = [g for g in grid.levels() if g not in level_labels]
    if missing:
        raise ValueError(f"missing level labels for {missing}")
    fused = fuse_boundaries(level_labels, cfg)
    documents = build_documents(fused, level_labels, grid, cfg)
    models: dict[int, LdaModel] = {}
    labels: dict[int, LabelSet] = {}
    for n, seed in seeds.items():
        models[n] = lda_fit(documents.docs, n, documents.vocab_size, cfg, seed)
        labels[n] = relabel(documents, models[n])
    return Reinforcement(fused, documents, models, labels)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def fused_jsonl(fused: dict[str, list[int]]) -> str:
    """One JSON object {utt, boundaries} per utterance, sorted by id."""
    return "".join(
        json.dumps({"utt": utt, "boundaries": fused[utt]}) + "\n" for utt in sorted(fused)
    )


def documents_jsonl(documents: PseudoDocuments) -> str:
    """One JSON object {utt, start, end, words} per document, in document order."""
    return "".join(
        json.dumps({"utt": utt, "start": start, "end": end, "words": words}) + "\n"
        for (utt, start, end), words in zip(documents.spans, documents.docs)
    )


def matl_bytes(model: LdaModel) -> bytes:
    return b"".join([
        MATL_MAGIC,
        struct.pack("<IIIIddq", MATL_VERSION, model.n_topics,
                    model.topic_word.shape[1], model.doc_topic.shape[0],
                    model.alpha, model.beta, model.seed),
        np.asarray(model.topic_word, "<f8").tobytes(),
        np.asarray(model.doc_topic, "<f8").tobytes(),
    ])


def read_matl(path) -> LdaModel:
    """Inverse of matl_bytes.  The counts are expected counts, kept as f8; a
    negative or non-finite count raises a ValueError naming the file and the
    field."""
    f = ArtifactReader(path, MATL_MAGIC, MATL_VERSION)
    K, V, D, alpha, beta, seed = f.unpack("<IIIddq", "header")
    topic_word = f.array((K, V), "topic-word counts")
    doc_topic = f.array((D, K), "document-topic counts")
    f.end()
    for field, counts in (("topic-word counts", topic_word), ("document-topic counts", doc_topic)):
        bad = counts[~(np.isfinite(counts) & (counts >= 0))]
        if len(bad):
            raise ValueError(f"{path}: {field}: count {float(bad[0])} is negative or not finite")
    return LdaModel(K, topic_word, doc_topic, alpha, beta, seed)
