"""Cross-level fusion: merge token boundaries from every level into a joint
segmentation, re-describe the corpus as bags of pseudo-words over that
segmentation, and relabel the segments by LDA topics to produce fresh initial
label sets (one per phonetic granularity).

Level weights are proportional to m, so levels with longer HMMs (which produce
fewer, more reliable boundaries) count more.  The joint boundary function is
kept as exact integer numerators over a common denominator, so unanimity is
detected exactly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .corpus import ArtifactReader
from .labels import LabelSet, TokenLabelSequence
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
    B = numer / denom if denom else numer.astype(float)

    padded = np.concatenate(([0.0], B, [0.0]))  # out-of-range positions count as 0
    candidates = []
    for idx in range(length):
        j = idx + 1  # boundary position
        left, here, right = padded[idx], padded[idx + 1], padded[idx + 2]
        if here <= 0 or here < left or here < right:
            continue
        if left - 2 * here + right <= cfg.tau:
            candidates.append((-here, j))
    candidates.sort()
    selected: list[int] = []
    for _, j in candidates:
        if all(abs(j - k) >= cfg.min_gap for k in selected):
            selected.append(j)
    return sorted(selected), B


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
# collapsed Gibbs LDA
# ---------------------------------------------------------------------------

@dataclass
class LdaModel:
    n_topics: int
    topic_word: np.ndarray  # (K, V) counts
    doc_topic: np.ndarray   # (D, K) counts
    alpha: float
    beta: float
    seed: int

    def topic_word_distribution(self) -> np.ndarray:
        """(K, V) normalized word distribution per topic."""
        weights = self.topic_word + self.beta
        return weights / weights.sum(axis=1, keepdims=True)


def lda_fit(docs: list[list[int]], n_topics: int, vocab_size: int,
            cfg: ReinforceConfig | None = None, seed: int = 0) -> LdaModel:
    """Collapsed Gibbs sampling with the usual alpha = 50/K, beta = 0.01 defaults.

    Deterministic given the seed: documents and positions are swept in order
    and topics drawn by inverse CDF from a single generator.
    """
    cfg = cfg or ReinforceConfig()
    if n_topics < 1:
        raise ValueError("need at least one topic")
    if not docs:
        raise ValueError("no documents")
    alpha = cfg.lda_alpha if cfg.lda_alpha is not None else 50.0 / n_topics
    beta = cfg.lda_beta
    rng = np.random.default_rng(seed)

    K, V = n_topics, vocab_size
    doc_topic = np.zeros((len(docs), K), dtype=np.int64)
    topic_word = np.zeros((K, V), dtype=np.int64)
    topic_total = np.zeros(K, dtype=np.int64)
    z = [rng.integers(K, size=len(doc)) for doc in docs]
    for d, doc in enumerate(docs):
        for i, w in enumerate(doc):
            k = z[d][i]
            doc_topic[d, k] += 1
            topic_word[k, w] += 1
            topic_total[k] += 1

    for _ in range(cfg.lda_iters):
        for d, doc in enumerate(docs):
            zd = z[d]
            for i, w in enumerate(doc):
                k = zd[i]
                doc_topic[d, k] -= 1
                topic_word[k, w] -= 1
                topic_total[k] -= 1
                p = (doc_topic[d] + alpha) * (topic_word[:, w] + beta) / (topic_total + V * beta)
                cum = np.cumsum(p)
                k = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
                k = min(k, K - 1)
                zd[i] = k
                doc_topic[d, k] += 1
                topic_word[k, w] += 1
                topic_total[k] += 1

    return LdaModel(K, topic_word, doc_topic, alpha, beta, seed)


def complete_data_log_posterior(model: LdaModel) -> float:
    """log P(w, z | alpha, beta) up to assignment-independent constants."""
    K = model.n_topics
    V = model.topic_word.shape[1]
    a, b = model.alpha, model.beta
    doc_len = model.doc_topic.sum(axis=1)
    topic_total = model.topic_word.sum(axis=1)
    doc_part = (
        gammaln(model.doc_topic + a).sum()
        - gammaln(doc_len + K * a).sum()
    )
    word_part = (
        gammaln(model.topic_word + b).sum()
        - gammaln(topic_total + V * b).sum()
    )
    return float(doc_part + word_part)


def document_topic_log_scores(documents: PseudoDocuments, model: LdaModel) -> np.ndarray:
    """(D, K) log posterior scores, from the final sweep's counts only:
    log(n_dk + alpha) plus the log-likelihood of the document's words under
    each topic's word distribution.  The word term dominates for documents
    concentrated on one topic's support."""
    log_phi = np.log(model.topic_word_distribution())  # (K, V)
    scores = np.log(model.doc_topic + model.alpha).astype(float)
    for d, doc in enumerate(documents.docs):
        if doc:
            scores[d] += log_phi[:, doc].sum(axis=1)
    return scores


def relabel(documents: PseudoDocuments, model: LdaModel) -> LabelSet:
    """Label each fused segment with its most probable topic (ties: lowest id)."""
    topics = np.argmax(document_topic_log_scores(documents, model), axis=1)
    segments: dict[str, list[tuple[int, int, int]]] = {}
    for (utt, start, end), k in zip(documents.spans, topics):
        segments.setdefault(utt, []).append((int(k), start, end))
    return {utt: TokenLabelSequence(utt, segs) for utt, segs in segments.items()}


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
                     cfg: ReinforceConfig | None = None,
                     seed: int = 0) -> Reinforcement:
    """Fuse boundaries, build documents, and fit one LDA per phonetic
    granularity; the new initial label set for each n is shared by all
    temporal granularities."""
    cfg = cfg or ReinforceConfig()
    missing = [g for g in grid.levels() if g not in level_labels]
    if missing:
        raise ValueError(f"missing level labels for {missing}")
    fused = fuse_boundaries(level_labels, cfg)
    documents = build_documents(fused, level_labels, grid, cfg)
    models: dict[int, LdaModel] = {}
    labels: dict[int, LabelSet] = {}
    for n in grid.phonetic:
        models[n] = lda_fit(documents.docs, n, documents.vocab_size, cfg,
                            seed=derived_seed(seed, n))
        labels[n] = relabel(documents, models[n])
    return Reinforcement(fused, documents, models, labels)


def derived_seed(seed: int, n: int) -> int:
    return (seed * 1_000_003 + n) % (2**63)


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
    f = ArtifactReader(path, MATL_MAGIC, MATL_VERSION)
    K, V, D, alpha, beta, seed = f.unpack("<IIIddq", "header")
    topic_word = f.array((K, V), "topic-word counts")
    doc_topic = f.array((D, K), "document-topic counts")
    f.end()
    return LdaModel(K, topic_word.astype(np.int64), doc_topic.astype(np.int64),
                    alpha, beta, seed)
