"""Query-by-example search over decoded token sequences and frame features.

Token mode: a per-level n x n table of symmetric variational KL divergences
between token HMMs is computed offline; at query time each document's costs
are the table's entries for its tokens against the query's, scanned by
subsequence DTW (free start and end on the document axis, full coverage of
the query axis).  Scores are summed over levels.  Frame mode runs the same
DTW over cosine distances between feature frames.  All scores are
normalized by query length; lower is better.

A KL table reads the level's stacked arrays (`tokenizer.LevelModel`); a state
position's table reads a slice of them, one matrix product per state row
(`_variational_kls`).  The rows run in blocks under KERNEL_BLOCK_BYTES: a
block's per-row products are one stacked matmul and its log-sums one call,
with the same bits as one row at a time.  The table rounds differently from the
term-by-term closed form, by at most about 5e-15 relative on the levels it
has been measured on.

Subsequence DTW has one driver, `_dtw_scores`, for token search, frame
search and `subsequence_dtw` (a block of one).  It takes the documents in
stable order of length and cuts them into blocks by `corpus.row_batches`,
each block one skewed accumulator under KERNEL_BLOCK_BYTES, so documents
of like length share a block and pad little.  It lets its caller write the
block's costs straight into the accumulator, runs one anti-diagonal
wavefront over it and scatters the scores back to the documents' order:
cell (i, j) depends only on the anti-diagonals i + j - 1 and i + j - 2, so
each diagonal of every document in the block is one element-wise minimum of
three neighbours plus one addition.  Token mode writes its table lookups;
frame mode writes 1 - the product of unit rows from `corpus.unit_rows`, the
query's rows scaled once per query and each document's by the row norms the
index computed once, with each document keeping its own product, so frame
scores are bit-identical to `frame_cost_matrix` per document.

Every cell adds its cost to the minimum of the same neighbours as the
cell-by-cell recursion, in path order, so scores do not depend on the
blocking and equal exact enumeration of the paths, but for the sign of a
zero: on equal values Python's `min` keeps its first argument and
`np.minimum` need not, so a hand-built matrix of -0.0 and 0.0 entries can
score 0.0 where `min` gives -0.0.  No cost here holds -0.0: frame costs are
1 - clip(similarity), and token tables are zeros plus max(0, .).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .corpus import (KERNEL_BLOCK_BYTES, FeatureSequence, cosine_similarity, row_batches,
                     row_norms, unit_row_similarity, unit_rows)
from .labels import open_text
from .tokenizer import GaussState, Granularity, LevelModel, TokenHmm, logsumexp, padded_log_weights


# ---------------------------------------------------------------------------
# HMM state distances
# ---------------------------------------------------------------------------

def _variational_kls(weights: np.ndarray, log_weights: np.ndarray, means: np.ndarray,
                     variances: np.ndarray) -> np.ndarray:
    """(n, n) variational approximations of KL(state i || state j) for n
    diagonal-covariance GMMs, padded as `LevelModel` pads them, with the
    log-weights of `padded_log_weights` (Hershey & Olsen, ICASSP 2007); exact
    (the closed form) between single components.  Computed in log domain.

    The padding adds nothing to either sum.  The closed form between
    components p and q is expanded as Kaldi's diagonal GMMs store it (Povey
    et al., ASRU 2011):
        2 KL(p || q) = (v_p + mu_p^2) . (1/v_q) + mu_p . (-2 mu_q/v_q)
                       + sum log v_q + sum mu_q^2/v_q - sum log v_p - d,
    so row i is one (c, 2d) x (2d, n c) matrix product plus per-component
    constants.  KL does not change under a shift of all means, so the means are
    first centred on the mean of the real components, which keeps the
    cancellation in mu_p^2 - 2 mu_p mu_q + mu_q^2 small.

    Rows run in blocks whose (rows, c, n c) products stay under
    KERNEL_BLOCK_BYTES, or hold one row.  A block's products are one stacked
    matmul, which numpy runs as one product of the same shape per row, and its
    log-sums and weighted sums are one call each over element-wise terms, so
    every entry has the same bits however the blocks fall."""
    n, c, d = means.shape
    means = means - means[np.isfinite(log_weights)].mean(axis=0)
    inv_var, log_det = 1.0 / variances, np.sum(np.log(variances), axis=-1)
    left = np.concatenate([variances + means ** 2, means], axis=-1)
    right = np.concatenate([inv_var, -2.0 * means * inv_var], axis=-1).reshape(n * c, 2 * d).T
    const_q = (log_det + np.sum(means ** 2 * inv_var, axis=-1)).reshape(n * c)
    const_p = log_det + d
    out = np.empty((n, n))
    rows = max(1, KERNEL_BLOCK_BYTES // (n * c * c * 8))
    for start in range(0, n, rows):
        block = slice(start, min(n, start + rows))
        # [i, j, a, b] = KL(component a of i || component b of j), closed form
        pair_kl = 0.5 * (left[block] @ right + const_q - const_p[block, :, None])
        pair_kl = pair_kl.reshape(-1, c, n, c).transpose(0, 2, 1, 3)
        # [i, j, a] = log sum_b w_jb exp(-KL(i_a || j_b)); [i, i] is the self term
        log_match = logsumexp(-pair_kl + log_weights[:, None, :], axis=-1)
        own = log_match[np.arange(block.stop - start), np.arange(start, block.stop)]
        out[block] = np.sum(weights[block, None] * (own[:, None] - log_match), axis=-1)
    return out


def state_kl(a: GaussState, b: GaussState) -> float:
    """Symmetric variational KL between two emission states, clamped at 0:
    the distance table of a level of two one-state tokens."""
    level = LevelModel(Granularity(1, 2), [TokenHmm(t, [st], np.ones((1, 2)))
                                           for t, st in enumerate((a, b))], np.ones(2))
    return float(token_distance_matrix(level)[0, 1])


def token_distance_matrix(model: LevelModel) -> np.ndarray:
    """S(i, j) = sum over states s of state_kl(HMM_i state s, HMM_j state s).
    Position s is a slice of the level, cut to the most components it holds."""
    stacked = (model.weights, padded_log_weights(model.weights, model.counts), model.means,
               model.variances)
    S = np.zeros((model.granularity.n, model.granularity.n))
    for s, c in enumerate(model.counts.max(axis=0).tolist()):
        K = _variational_kls(*(a[:, s, :c] for a in stacked))
        S += np.maximum(0.0, K + K.T)
    np.fill_diagonal(S, 0.0)
    return S


def _check_token_ids(ids: np.ndarray, n: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"token id out of range [0, {n})")


# ---------------------------------------------------------------------------
# subsequence DTW
# ---------------------------------------------------------------------------

def _skewed_accumulator(B: int, D: int, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """A (D + Q, Q + 1, B) skewed DTW accumulator and the (D, Q, B) view that
    costs are written through: cell (i, j) of document b is acc[i + j + 1,
    j + 1, b], so row r is the anti-diagonal r - 1.  Cells off a document stay
    +inf.  Column 0 is a query column j = -1 of zeros: as a neighbour of column
    0 it gives the free start, cost + min(0, acc[i - 1, 0])."""
    acc = np.full((D + Q, Q + 1, B), np.inf)
    acc[:, 0] = 0.0
    row, col, doc = acc.strides
    return acc, np.lib.stride_tricks.as_strided(acc[1:, 1:], (D, Q, B), (row, row + col, doc))


def _wavefront(acc: np.ndarray) -> np.ndarray:
    """Subsequence DTW over a filled skewed accumulator, in place: one score
    per document, its minimal path cost over the query length."""
    Q = acc.shape[1] - 1
    # cell (i, j) is hi[r][j] for r = i + j + 1; its neighbours (i - 1, j - 1),
    # (i - 1, j) and (i, j - 1) are lo[r - 2][j], hi[r - 1][j] and lo[r - 1][j]
    lo, hi = acc[:, :-1], acc[:, 1:]
    best = np.empty((Q, acc.shape[2]))
    for r in range(2, len(acc)):
        np.minimum(lo[r - 2], hi[r - 1], out=best)
        np.minimum(best, lo[r - 1], out=best)
        np.add(hi[r], best, out=hi[r])
    return acc[Q:, Q].min(axis=0) / Q


def _dtw_scores(lengths: np.ndarray, q: int, fill) -> np.ndarray:
    """Subsequence DTW of documents of the given lengths against a query of q
    entries: one score per document, in the documents' order, for paths of
    steps (1,1), (1,0), (0,1) over all query columns, free at both document
    ends.  The blocks are cut over the documents in stable order of length,
    so a block pads its documents to lengths close to their own.  A block's
    accumulator holds its longest length + q rows of q + 1 cells;
    fill(docs, cells) writes the costs of the documents at the indices docs
    through the (D, Q, B) view, and cells past a document's end stay +inf."""
    if q < 1 or np.any(lengths < 1):
        raise ValueError("cost matrices must be non-empty")
    order = np.argsort(lengths, kind="stable")
    scores = np.empty(len(lengths))
    for block in row_batches(lengths[order] + q, 8 * (q + 1), KERNEL_BLOCK_BYTES, stacked=False):
        docs = order[block]
        acc, cells = _skewed_accumulator(len(docs), lengths[docs].max(), q)
        fill(docs, cells)
        scores[docs] = _wavefront(acc)
    return scores


def subsequence_dtw(cost: np.ndarray) -> float:
    """Subsequence DTW of one (document, query) cost matrix: a block of one."""
    def fill(docs, cells):
        cells[..., 0] = cost
    return float(_dtw_scores(np.array([cost.shape[0]]), cost.shape[1], fill)[0])


def frame_cost_matrix(doc: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Pairwise cosine distance (1 - cosine similarity); zero-norm frames cost 1."""
    return 1.0 - cosine_similarity(doc, query)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

@dataclass
class RankedList:
    query_id: str
    entries: list[tuple[str, float]]  # (document id, score), ascending score


@dataclass
class RetrievalIndex:
    """Everything needed to score queries against a fixed document collection.
    Each level's document tokens are also kept padded into one (documents,
    longest) array, with each document's length, and their ids are checked
    once, here, as is that every document's features have one dimension.
    Each document's frame norms are kept too, 8 bytes a frame, so frame
    search scales a document's frames without measuring them again."""

    distances: dict[Granularity, np.ndarray] = field(default_factory=dict)
    doc_tokens: dict[str, dict[Granularity, list[int]]] = field(default_factory=dict)
    doc_features: dict[str, FeatureSequence] = field(default_factory=dict)
    padded_tokens: dict[Granularity, tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False)
    frame_norms: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.padded_tokens = {}
        for g, S in self.distances.items():
            rows = [tokens[g] for tokens in self.doc_tokens.values()]
            lengths = np.array([len(row) for row in rows], dtype=np.int64)
            padded = np.zeros((len(rows), lengths.max(initial=0)), dtype=np.int64)
            for b, (doc_id, row) in enumerate(zip(self.doc_tokens, rows)):
                if len(row) == 0:
                    raise ValueError(f"document {doc_id} has no tokens at level {g}")
                padded[b, :len(row)] = row
            _check_token_ids(padded, S.shape[0])
            self.padded_tokens[g] = padded, lengths
        dims = [seq.dim for seq in self.doc_features.values()]
        for doc_id, dim in zip(self.doc_features, dims):
            if dim != dims[0]:
                raise ValueError(f"document {doc_id} has feature dimension {dim}, "
                                 f"the first document {dims[0]}")
        self.frame_norms = [row_norms(seq.frames) for seq in self.doc_features.values()]

    @classmethod
    def build(cls, models: dict[Granularity, LevelModel],
              labels: dict[Granularity, dict], corpus=None) -> "RetrievalIndex":
        """The index of the labelled documents in sorted id order.  The models
        and the labels must cover the same levels, at least one, and every
        level's labels the same documents.  The corpus, when given, holds at
        least those documents; their features are its own, views of its rows."""
        unpaired = sorted(models.keys() ^ labels.keys())
        if unpaired:
            g = unpaired[0]
            lacks = "a model but no labels" if g in models else "labels but no model"
            raise ValueError(f"level {g} has {lacks}")
        if not labels:
            raise ValueError("no levels to index")
        doc_ids = sorted(next(iter(labels.values())))
        for g, level in labels.items():
            if level.keys() != set(doc_ids):
                raise ValueError(f"the labels at level {g} cover different documents")
        distances = {g: token_distance_matrix(m) for g, m in models.items()}
        doc_tokens = {
            utt: {g: labels[g][utt].token_ids() for g in labels} for utt in doc_ids
        }
        doc_features = {}
        if corpus is not None:
            held = set(corpus.ids())
            for utt in doc_ids:
                if utt not in held:
                    raise ValueError(f"the corpus lacks the labelled document {utt}")
            doc_features = {utt: corpus[utt] for utt in doc_ids}
        return cls(distances, doc_tokens, doc_features)


def token_scores(index: RetrievalIndex,
                 query_tokens: dict[Granularity, list[int]]) -> dict[str, float]:
    """Per-document token-DTW distance summed over the index's levels: one
    table lookup and one DTW per level and block of documents."""
    levels = sorted(index.distances)
    for g in levels:
        if g not in query_tokens:
            raise ValueError(f"missing level data for {g}")
    totals = np.zeros(len(index.doc_tokens))
    for g in levels:
        S, query = index.distances[g], np.asarray(query_tokens[g], dtype=np.int64)
        if not len(query):
            raise ValueError(f"query has no tokens at level {g}")
        _check_token_ids(query, S.shape[0])
        tokens, lengths = index.padded_tokens[g]

        def fill(docs, cells):
            D = cells.shape[0]
            np.copyto(cells, S[tokens[docs, :D].T[:, None], query[:, None]],
                      where=np.arange(D)[:, None, None] < lengths[docs])
        totals += _dtw_scores(lengths, len(query), fill)
    return dict(zip(index.doc_tokens, totals.tolist()))


def frame_scores(index: RetrievalIndex, query_features: FeatureSequence) -> dict[str, float]:
    """Per-document frame-DTW distance over cosine costs, one DTW per block
    of documents.  The query's frames are scaled to unit rows once, each
    document's by the index's row norms, one document at a time, and each
    document's costs are its own product of unit rows, which rounds as
    `frame_cost_matrix` does."""
    if not index.doc_features:
        raise ValueError("index has no document features")
    seqs = list(index.doc_features.values())
    if query_features.dim != seqs[0].dim:
        raise ValueError(f"feature dimensions differ: {query_features.dim} vs {seqs[0].dim}")
    query = unit_rows(query_features.frames)

    def fill(docs, cells):
        for b, d in enumerate(docs.tolist()):
            frames = seqs[d].frames
            np.subtract(1.0, unit_row_similarity(unit_rows(frames, index.frame_norms[d]), query),
                        out=cells[:len(frames), :, b])
    lengths = np.array([seq.n_frames for seq in seqs])
    scores = _dtw_scores(lengths, query_features.n_frames, fill)
    return dict(zip(index.doc_features, scores.tolist()))


def valid_fusion_weights(weights) -> bool:
    """No weight is negative and the weights sum above zero."""
    return min(weights) >= 0 and sum(weights) > 0


def fuse_scores(streams: list[dict[str, float]],
                weights: list[float] | None = None) -> dict[str, float]:
    """Weighted mean of score streams; unweighted by default."""
    if not streams:
        raise ValueError("no score streams")
    if weights is None:
        weights = [1.0] * len(streams)
    if len(weights) != len(streams):
        raise ValueError("one weight per stream required")
    if not valid_fusion_weights(weights):
        raise ValueError(f"fusion weights must be non-negative with a positive sum, "
                         f"got {list(weights)}")
    total_w = sum(weights)
    for s in streams[1:]:
        if s.keys() != streams[0].keys():
            raise ValueError("streams cover different documents")
    return {
        d: sum(w * s[d] for w, s in zip(weights, streams)) / total_w for d in streams[0]
    }


def rank_documents(index: RetrievalIndex, query_id: str,
                   query_tokens: dict[Granularity, list[int]] | None = None,
                   query_features: FeatureSequence | None = None,
                   mode: str = "token",
                   weights: list[float] | None = None) -> RankedList:
    """Rank all indexed documents for one query; ascending distance, ties by id."""
    if mode == "token":
        scores = token_scores(index, query_tokens)
    elif mode == "frame":
        scores = frame_scores(index, query_features)
    elif mode == "fusion":
        streams = [token_scores(index, query_tokens),
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
        seen = set()
        for rank, (doc_id, _) in enumerate(ranked.entries, start=1):
            if doc_id in seen:
                raise ValueError(f"query {ranked.query_id} lists document {doc_id} twice")
            seen.add(doc_id)
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
    A missing header or final newline, a row other than four fields, a rank
    or a document repeated within a query, or a query whose N ranks are not
    1..N raises a ValueError naming the file and the line."""
    lines = open_text(path).read().split("\n")
    if lines[-1]:
        raise ValueError(f"{path}: no newline at the end of the file")
    if lines[0] != _RANKINGS_HEADER:
        raise ValueError(f"{path}: line 1: expected the header {_RANKINGS_HEADER!r}")
    per_query: dict[str, dict[int, tuple[str, float]]] = {}
    doc_lines: dict[str, dict[str, int]] = {}
    for number, line in enumerate(lines[1:-1], start=2):
        try:
            q, doc, rank, score = line.split("\t")
            rank, rows, seen = int(rank), per_query.setdefault(q, {}), doc_lines.setdefault(q, {})
            if rank < 1:
                raise ValueError(f"query {q} has rank {rank}; ranks start at 1")
            if rank in rows:
                raise ValueError(f"query {q} repeats rank {rank}")
            if doc in seen:
                raise ValueError(f"query {q} repeats document {doc} of line {seen[doc]}")
            rows[rank], seen[doc] = (doc, float(score)), number
        except ValueError as e:
            raise ValueError(f"{path}: line {number}: {e}") from None
    for q, rows in per_query.items():
        # no rank repeats and none is below 1, so 1..N lacks a rank iff one exceeds N
        beyond = sorted(rank for rank in rows if rank > len(rows))
        if beyond:
            number = doc_lines[q][rows[beyond[0]][0]]
            raise ValueError(f"{path}: line {number}: query {q} has {len(rows)} entries, "
                             f"so rank {beyond[0]} leaves a gap in 1..{len(rows)}")
    return [RankedList(q, [rows[rank] for rank in sorted(rows)])
            for q, rows in per_query.items()]


def read_relevance_csv(path) -> dict[str, dict[str, int]]:
    """CSV of (query_id, doc_id, 0/1), with or without a header row.  Any
    other row, or a (query, document) pair given twice, raises a ValueError
    naming the file and the line (and, for a repeat, the first line)."""
    table: dict[str, dict[str, int]] = {}
    first_line: dict[tuple[str, str], int] = {}
    reader = csv.reader(open_text(path, newline=""))
    for row in reader:
        header = reader.line_num == 1 and len(row) == 3 and row[2] not in ("0", "1")
        if not row or header:
            continue
        if len(row) != 3 or row[2] not in ("0", "1"):
            raise ValueError(f"{path}: line {reader.line_num}: expected "
                             f"query_id,doc_id,0/1, got {','.join(row)!r}")
        q, doc, bit = row
        if (q, doc) in first_line:
            raise ValueError(f"{path}: line {reader.line_num}: query {q} repeats document "
                             f"{doc} of line {first_line[q, doc]}")
        first_line[q, doc] = reader.line_num
        table.setdefault(q, {})[doc] = int(bit)
    return table
