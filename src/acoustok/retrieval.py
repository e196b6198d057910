"""Query-by-example search over decoded token sequences and frame features.

Token mode: a per-level n x n table of symmetric variational KL divergences
between token HMMs is computed offline; at query time a document-query
matching matrix is filled by table lookup and scanned by subsequence DTW
(free start and end on the document axis, full coverage of the query axis).
Scores are summed over levels.  Frame mode runs the same DTW over cosine
distances between feature frames.  All scores are normalized by query length;
lower is better.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .corpus import FeatureSequence
from .tokenizer import GaussState, Granularity, LevelModel, stack_states


# ---------------------------------------------------------------------------
# HMM state distances
# ---------------------------------------------------------------------------

def _variational_kls(states: list[GaussState]) -> np.ndarray:
    """(n, n) variational approximations of KL(states[i] || states[j]) for
    diagonal-covariance GMMs (Hershey & Olsen, ICASSP 2007); exact (the closed
    form) between single components.  Computed in log domain.

    The padding of `stack_states` adds nothing to either sum.  One row i is
    evaluated at a time as an (n, c, c, d) block of component-pair KLs."""
    weights, log_weights, means, variances = stack_states(states)
    log_variances = np.log(variances)
    mq, vq, log_vq = means[:, None], variances[:, None], log_variances[:, None]
    out = np.empty((len(states), len(states)))
    for i in range(len(states)):
        mp, vp, log_vp = means[i][:, None], variances[i][:, None], log_variances[i][:, None]
        # [j, a, b] = KL(component a of i || component b of j), closed form
        terms = log_vq - log_vp + vp / vq + (mp - mq) ** 2 / vq - 1.0
        pair_kl = 0.5 * np.sum(terms, axis=-1)
        # [j, a] = log sum_b w_jb exp(-KL(i_a || j_b)); row i is the self term
        log_match = logsumexp(-pair_kl + log_weights[:, None, :], axis=-1)
        out[i] = np.sum(weights[i] * (log_match[i] - log_match), axis=-1)
    return out


def state_kl(a: GaussState, b: GaussState) -> float:
    """Symmetric variational KL between two emission states, clamped at 0."""
    if a.dim != b.dim:
        raise ValueError("states have different feature dimensions")
    K = _variational_kls([a, b])
    return max(0.0, float(K[0, 1] + K[1, 0]))


def token_distance_matrix(model: LevelModel) -> np.ndarray:
    """S(i, j) = sum over states s of state_kl(HMM_i state s, HMM_j state s)."""
    S = np.zeros((model.granularity.n, model.granularity.n))
    for s in range(model.granularity.m):
        K = _variational_kls([hmm.states[s] for hmm in model.hmms])
        S += np.maximum(0.0, K + K.T)
    np.fill_diagonal(S, 0.0)
    return S


def matching_matrix(S: np.ndarray, doc_tokens, query_tokens) -> np.ndarray:
    """W(i, j) = S(d_i, q_j) by exact table lookup, one row per document token."""
    doc = np.asarray(doc_tokens, dtype=np.int64)
    query = np.asarray(query_tokens, dtype=np.int64)
    n = S.shape[0]
    for ids in (doc, query):
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ValueError(f"token id out of range [0, {n})")
    return S[doc[:, None], query[None, :]]


# ---------------------------------------------------------------------------
# subsequence DTW
# ---------------------------------------------------------------------------

def subsequence_dtw(cost: np.ndarray) -> float:
    """Minimal path cost over a (document, query) cost matrix, divided by the
    query length.  Paths may start and end at any document row but must cover
    every query column; steps are (1,1), (1,0), (0,1)."""
    D, Q = cost.shape
    if D < 1 or Q < 1:
        raise ValueError("cost matrix must be non-empty")
    acc = np.empty((D, Q))
    acc[0, 0] = cost[0, 0]
    for i in range(1, D):
        acc[i, 0] = cost[i, 0] + min(0.0, acc[i - 1, 0])
    for j in range(1, Q):
        acc[0, j] = cost[0, j] + acc[0, j - 1]
        for i in range(1, D):
            acc[i, j] = cost[i, j] + min(acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])
    return float(acc[:, Q - 1].min() / Q)


def frame_cost_matrix(doc: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Pairwise cosine distance (1 - cosine similarity); zero-norm frames cost 1."""
    dn = np.linalg.norm(doc, axis=1)
    qn = np.linalg.norm(query, axis=1)
    sim = (doc @ query.T) / np.outer(np.where(dn > 0, dn, 1.0), np.where(qn > 0, qn, 1.0))
    sim[dn == 0, :] = 0.0
    sim[:, qn == 0] = 0.0
    return 1.0 - np.clip(sim, -1.0, 1.0)


def frame_dtw(query: FeatureSequence, doc: FeatureSequence) -> float:
    if query.dim != doc.dim:
        raise ValueError(f"feature dimensions differ: {query.dim} vs {doc.dim}")
    return subsequence_dtw(frame_cost_matrix(doc.frames, query.frames))


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

@dataclass
class RankedList:
    query_id: str
    entries: list[tuple[str, float]]  # (document id, score), ascending score


@dataclass
class RetrievalIndex:
    """Everything needed to score queries against a fixed document collection."""

    distances: dict[Granularity, np.ndarray] = field(default_factory=dict)
    doc_tokens: dict[str, dict[Granularity, list[int]]] = field(default_factory=dict)
    doc_features: dict[str, FeatureSequence] = field(default_factory=dict)

    @classmethod
    def build(cls, models: dict[Granularity, LevelModel],
              labels: dict[Granularity, dict], corpus=None) -> "RetrievalIndex":
        distances = {g: token_distance_matrix(m) for g, m in models.items()}
        doc_ids = sorted(next(iter(labels.values())))
        doc_tokens = {
            utt: {g: labels[g][utt].token_ids() for g in labels} for utt in doc_ids
        }
        doc_features = {}
        if corpus is not None:
            doc_features = {utt: corpus[utt] for utt in corpus.ids()}
        return cls(distances, doc_tokens, doc_features)


def token_scores(index: RetrievalIndex, query_tokens: dict[Granularity, list[int]],
                 levels: list[Granularity] | None = None) -> dict[str, float]:
    """Per-document token-DTW distance summed over the requested levels."""
    levels = levels if levels is not None else sorted(index.distances, key=lambda g: (g.m, g.n))
    for g in levels:
        if g not in index.distances or g not in query_tokens:
            raise ValueError(f"missing level data for {g}")
    scores: dict[str, float] = {}
    for doc_id, tokens_by_level in index.doc_tokens.items():
        total = 0.0
        for g in levels:
            W = matching_matrix(index.distances[g], tokens_by_level[g], query_tokens[g])
            total += subsequence_dtw(W)
        scores[doc_id] = total
    return scores


def frame_scores(index: RetrievalIndex, query_features: FeatureSequence) -> dict[str, float]:
    if not index.doc_features:
        raise ValueError("index has no document features")
    return {
        doc_id: frame_dtw(query_features, seq)
        for doc_id, seq in index.doc_features.items()
    }


def fuse_scores(streams: list[dict[str, float]],
                weights: list[float] | None = None) -> dict[str, float]:
    """Weighted mean of score streams; unweighted by default."""
    if not streams:
        raise ValueError("no score streams")
    if weights is None:
        weights = [1.0] * len(streams)
    if len(weights) != len(streams):
        raise ValueError("one weight per stream required")
    total_w = sum(weights)
    docs = set(streams[0])
    for s in streams[1:]:
        if set(s) != docs:
            raise ValueError("streams cover different documents")
    return {
        d: sum(w * s[d] for w, s in zip(weights, streams)) / total_w for d in docs
    }


def rank_documents(index: RetrievalIndex, query_id: str,
                   query_tokens: dict[Granularity, list[int]] | None = None,
                   query_features: FeatureSequence | None = None,
                   mode: str = "token",
                   levels: list[Granularity] | None = None,
                   weights: list[float] | None = None) -> RankedList:
    """Rank all indexed documents for one query; ascending distance, ties by id."""
    if mode == "token":
        scores = token_scores(index, query_tokens, levels)
    elif mode == "frame":
        scores = frame_scores(index, query_features)
    elif mode == "fusion":
        streams = [token_scores(index, query_tokens, levels),
                   frame_scores(index, query_features)]
        scores = fuse_scores(streams, weights)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    entries = sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))
    return RankedList(query_id, entries)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def mean_average_precision(lists: list[RankedList],
                           relevance: dict[str, dict[str, int]]) -> float:
    """AP per query is the mean of precision-at-rank over its relevant
    documents; queries with no relevant documents are excluded."""
    aps = []
    for ranked in lists:
        rel = relevance.get(ranked.query_id)
        if rel is None:
            raise ValueError(f"no relevance entries for query {ranked.query_id}")
        hits = 0
        precisions = []
        for rank, (doc_id, _) in enumerate(ranked.entries, start=1):
            if doc_id not in rel:
                raise ValueError(f"no relevance bit for ({ranked.query_id}, {doc_id})")
            if rel[doc_id]:
                hits += 1
                precisions.append(hits / rank)
        if precisions:
            aps.append(sum(precisions) / len(precisions))
    if not aps:
        raise ValueError("no queries with relevant documents")
    return float(sum(aps) / len(aps))


_RANKINGS_HEADER = "query_id\tdoc_id\trank\tscore"


def rankings_tsv(lists: list[RankedList]) -> str:
    """Header plus one (query_id, doc_id, rank, score) row per entry; scores
    are written with repr so they read back exactly."""
    lines = [_RANKINGS_HEADER]
    for ranked in lists:
        for rank, (doc_id, score) in enumerate(ranked.entries, start=1):
            lines.append(f"{ranked.query_id}\t{doc_id}\t{rank}\t{float(score)!r}")
    return "\n".join(lines) + "\n"


def read_rankings_tsv(path) -> list[RankedList]:
    """Inverse of rankings_tsv: queries in file order, entries in rank order.
    A missing header or final newline, or a row other than four fields,
    raises a ValueError naming the file (and the line)."""
    with open(path) as f:
        lines = f.read().split("\n")
    if lines[-1]:
        raise ValueError(f"{path}: no newline at the end of the file")
    if lines[0] != _RANKINGS_HEADER:
        raise ValueError(f"{path}: line 1: expected the header {_RANKINGS_HEADER!r}")
    per_query: dict[str, list[tuple[int, str, float]]] = {}
    for number, line in enumerate(lines[1:-1], start=2):
        try:
            q, doc, rank, score = line.split("\t")
            per_query.setdefault(q, []).append((int(rank), doc, float(score)))
        except ValueError as e:
            raise ValueError(f"{path}: line {number}: {e}") from None
    return [
        RankedList(q, [(doc, score) for _, doc, score in sorted(rows)])
        for q, rows in per_query.items()
    ]


def read_relevance_csv(path) -> dict[str, dict[str, int]]:
    """CSV of (query_id, doc_id, 0/1), with or without a header row.  Any
    other row raises a ValueError naming the file and the line."""
    table: dict[str, dict[str, int]] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for row in reader:
            header = reader.line_num == 1 and len(row) == 3 and row[2] not in ("0", "1")
            if not row or header:
                continue
            if len(row) != 3 or row[2] not in ("0", "1"):
                raise ValueError(f"{path}: line {reader.line_num}: expected "
                                 f"query_id,doc_id,0/1, got {','.join(row)!r}")
            table.setdefault(row[0], {})[row[1]] = int(row[2])
    return table
