"""Top-down bootstrap of the first label set.

Each utterance is split into word-like segments at spectral discontinuities,
every word-like segment is further split into subword-like pieces by a
watershed transform of its self-similarity dotplot, and the subword segments
are clustered corpus-wide by k-means on their mean feature vectors.  The
resulting per-utterance token sequences seed the per-level HMM training.

Every step is array code that gives the bits of the plain per-frame and
per-cell loops: the discontinuity takes its window means through
sliding_window_view, with a loop over the short windows at the edges only;
the watershed is Vincent & Soille's ordered flood (IEEE TPAMI 1991), solved
as a forest in which each cell points at its earliest-flooded neighbour; and
k-means takes its distances in row blocks under KERNEL_BLOCK_BYTES, so its
memory does not grow with segments x clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import KERNEL_BLOCK_BYTES, Corpus, FeatureSequence, cosine_similarity, row_norms
from .labels import LabelSet, label_set_from_spans, pick_boundaries


@dataclass
class InitConfig:
    alpha: float = 1.0            # threshold = mean + alpha * std of the discontinuity
    min_segment_frames: int = 5   # for word-like segments
    min_subword_frames: int = 5   # watershed pieces shorter than this are merged
    side_frames: int = 5          # averaging window on each side of a candidate boundary
    dotplot_sigma: float = 1.0
    kmeans_iters: int = 100

    def __post_init__(self):
        for name in ("side_frames", "kmeans_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.dotplot_sigma >= 0:
            raise ValueError(f"dotplot_sigma must be >= 0, got {self.dotplot_sigma}")


# ---------------------------------------------------------------------------
# word-like segmentation
# ---------------------------------------------------------------------------

def _window_means(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """Mean of x[max(0, j - before) : j + after] along axis 0 at each
    j = 1 .. T-1.  The full windows are one mean over a sliding_window_view;
    only the windows cut short by an edge are taken one at a time.  Either
    way numpy sums each window as x[a:b].mean(axis=0) sums it, so the bits
    are those of the per-position loop."""
    T = len(x)
    out = np.empty((T - 1,) + x.shape[1:])
    lo, hi = max(1, before), min(T - 1, T - after)  # j whose window is whole
    if lo <= hi:
        windows = sliding_window_view(x, before + after, axis=0)
        out[lo - 1 : hi] = windows[lo - before : hi - before + 1].mean(axis=-1)
    for j in [*range(1, min(lo, T)), *range(max(lo, hi + 1), T)]:
        out[j - 1] = x[max(0, j - before) : j + after].mean(axis=0)
    return out


def discontinuity(seq: FeatureSequence, cfg: InitConfig | None = None) -> np.ndarray:
    """Discontinuity value at each inter-frame position j = 1 .. T-1.

    Euclidean distance between the mean feature vectors over side_frames
    frames left and right of j, scaled by (1 + normalized energy dip), where
    the first feature column is treated as the frame energy.  The energy dip
    at j is the mean energy over side_frames frames each side less the lower
    of frames j-1 and j, or 0 where that is not positive.  A sequence of 0
    or 1 frames has no inter-frame position and gets an empty array.
    """
    cfg = cfg or InitConfig()
    X = seq.frames
    if len(X) < 2:
        return np.zeros(0)
    side = cfg.side_frames
    diff = _window_means(X, side, 0) - _window_means(X, 0, side)
    # one dot per row, as np.linalg.norm takes it
    dist = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])

    energy = X[:, 0]
    local = np.where(energy[1:] < energy[:-1], energy[1:], energy[:-1])
    dips = _window_means(energy, side, side) - local
    dips = np.where(dips > 0.0, dips, 0.0)
    peak = dips.max()
    if peak > 0:
        dips /= peak
    return dist * (1.0 + dips)


def segment_words(seq: FeatureSequence, cfg: InitConfig | None = None) -> list[int]:
    """Boundaries where the discontinuity exceeds mean + alpha * std.

    Candidates are accepted greedily by descending discontinuity; any
    candidate closer than min_segment_frames to an accepted boundary or to
    the utterance edges is dropped.
    """
    cfg = cfg or InitConfig()
    T = seq.n_frames
    if T < 2:
        return []
    disc = discontinuity(seq, cfg)
    return pick_boundaries(disc, disc > disc.mean() + cfg.alpha * disc.std(),
                           cfg.min_segment_frames, (0, T))


# ---------------------------------------------------------------------------
# dotplot + watershed
# ---------------------------------------------------------------------------

def cosine_similarity_matrix(frames: np.ndarray) -> np.ndarray:
    """Frame-pair cosine similarities (`corpus.cosine_similarity`); zero-norm
    frames score 0, every other frame exactly 1 against itself."""
    sim = cosine_similarity(frames, frames)
    np.fill_diagonal(sim, row_norms(frames) != 0)
    return sim


def _gaussian_smooth(x: np.ndarray, sigma: float) -> np.ndarray:
    """x smoothed along axis 0, then axis 1, by a Gaussian of radius
    int(4 sigma + 0.5) with normalized taps, the edge values repeated past
    each end.  Each output value adds the centre tap first, then each pair of
    taps from the outermost in, as w[j] * (left + right)."""
    radius = int(4.0 * sigma + 0.5)
    if radius <= 0:  # sigma under 1/8: a single tap of weight 1
        return x
    taps = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    taps = taps / taps.sum()
    pair = np.empty_like(x)
    for _ in range(2):  # axis 1 is axis 0 of the transpose
        n = len(x)
        padded = np.concatenate([np.repeat(x[:1], radius, axis=0), x,
                                 np.repeat(x[-1:], radius, axis=0)])
        out = x * taps[radius]
        for j in range(radius, 0, -1):
            np.add(padded[radius - j:radius - j + n], padded[radius + j:radius + j + n], out=pair)
            pair *= taps[radius + j]
            out += pair
        x, pair = out.T, pair.T
    return x


def build_dotplot(frames: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    """Self-similarity dotplot smoothed by a separable Gaussian, exactly symmetric.

    The smoothing runs along axis 0, then axis 1, and gives the same bits as
    scipy.ndimage.gaussian_filter(sim, sigma, mode="nearest") (the tests keep
    scipy as the reference); sigma = 0 leaves the similarities unsmoothed.
    """
    if frames.shape[0] < 2:
        raise ValueError("dotplot needs at least 2 frames")
    sim = _gaussian_smooth(cosine_similarity_matrix(frames), sigma)
    return (sim + sim.T) / 2.0


def watershed_regions(relief: np.ndarray) -> np.ndarray:
    """Label every cell by ordered flooding of the relief, 4-connectivity.

    Cells flood by ascending value (ties in row-major order).  A cell with no
    flooded neighbour opens a new region; otherwise it joins the region of
    the neighbour that flooded first.  Flood times are unique, so that
    neighbour is the one of lowest rank, if its rank is below the cell's: each
    cell points at it, or at itself, and pointer doubling takes every cell to
    its root.  Regions are numbered 1, 2, ... in the order their roots flood.
    """
    size = relief.size
    order = np.argsort(relief.ravel(), kind="stable")
    rank = np.empty(size, dtype=np.int64)
    rank[order] = np.arange(size)
    padded = np.full((relief.shape[0] + 2, relief.shape[1] + 2), size, dtype=np.int64)
    padded[1:-1, 1:-1] = rank.reshape(relief.shape)
    earliest = np.minimum(np.minimum(padded[:-2, 1:-1], padded[2:, 1:-1]),
                          np.minimum(padded[1:-1, :-2], padded[1:-1, 2:])).ravel()
    parent = np.minimum(earliest, rank)[order]  # parent[r]: the rank r points at
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            break
        parent = grand
    region = np.cumsum(parent == np.arange(size))  # roots in rank order: 1, 2, ...
    return region[parent][rank].reshape(relief.shape)


def watershed_boundaries(similarity: np.ndarray) -> list[int]:
    """Positions where the main diagonal crosses a watershed region border.

    Regions are flooded on the inverted similarity (1 - s); a boundary at j
    means cells (j-1, j-1) and (j, j) lie in different regions.
    """
    diag = np.diagonal(watershed_regions(1.0 - similarity))
    return (np.flatnonzero(diag[1:] != diag[:-1]) + 1).tolist()


# ---------------------------------------------------------------------------
# k-means over segment representatives
# ---------------------------------------------------------------------------

def _kmeans_pp_seeds(points: np.ndarray, n: int, rng) -> np.ndarray:
    centers = np.empty((n, points.shape[1]))
    centers[0] = points[rng.integers(len(points))]
    sq = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, n):
        total = sq.sum()
        if total <= 0:
            centers[c] = points[rng.integers(len(points))]
            continue
        probs = sq / total
        centers[c] = points[rng.choice(len(points), p=probs)]
        sq = np.minimum(sq, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def kmeans(points: np.ndarray, n: int, seed: int,
           iters: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding; returns (assignments, centers).

    Runs to an assignment fixpoint or iters sweeps.  An empty cluster is
    reseeded at the point currently farthest from its assigned center.
    Distances are taken in blocks of points whose (points, n, d) temporaries
    stay under KERNEL_BLOCK_BYTES, or hold one point; each is one sum over d,
    so the bits do not depend on the blocking.  Each center is the mean of
    its members, read as one slice after a stable sort by assignment.
    """
    if n < 1:
        raise ValueError(f"k-means needs n >= 1 clusters, got n = {n}")
    if len(points) < n:
        raise ValueError(f"insufficient segments: {len(points)} < {n}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_seeds(points, n, rng)
    rows = max(1, KERNEL_BLOCK_BYTES // (n * points.shape[1] * 8))
    assign = np.full(len(points), -1)
    for _ in range(iters):
        new_assign = np.empty(len(points), dtype=np.int64)
        residual = np.empty(len(points))
        for start in range(0, len(points), rows):
            diff = points[start:start + rows, None, :] - centers
            d2 = np.sum(diff * diff, axis=2)
            nearest = np.argmin(d2, axis=1)
            new_assign[start:start + rows] = nearest
            residual[start:start + rows] = d2[np.arange(len(d2)), nearest]
        for empty in np.flatnonzero(np.bincount(new_assign, minlength=n) == 0):
            far = int(np.argmax(residual))
            new_assign[far] = empty
            residual[far] = -1.0
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        members = points[np.argsort(assign, kind="stable")]
        counts = np.bincount(assign, minlength=n)
        ends = np.cumsum(counts)
        for c in np.flatnonzero(counts):
            centers[c] = members[ends[c] - counts[c]:ends[c]].mean(axis=0)
    return assign, centers


def cluster_segments(
    corpus: Corpus,
    segment_spans: dict[str, list[tuple[int, int]]],
    n: int,
    seed: int,
    iters: int = 100,
) -> LabelSet:
    """k-means over segment mean vectors; emits per-utterance token sequences."""
    spans = [(utt, start, end) for utt in corpus.ids() for start, end in segment_spans[utt]]
    if len(spans) < n:
        raise ValueError(f"insufficient segments: the bootstrap found {len(spans)} subword "
                         f"segments in {len(corpus)} utterances, too few for n = {n} "
                         f"clusters; lower [grid] phonetic or add utterances")
    reps = np.vstack([corpus[utt].frames[start:end].mean(axis=0) for utt, start, end in spans])
    assign, _ = kmeans(reps, n, seed, iters)
    return label_set_from_spans(spans, assign)


# ---------------------------------------------------------------------------
# full bootstrap
# ---------------------------------------------------------------------------

def _merge_short(spans: list[tuple[int, int]], min_len: int) -> list[tuple[int, int]]:
    """Left-to-right merge of pieces shorter than min_len into their neighbor."""
    merged: list[tuple[int, int]] = []
    for span in spans:
        if merged and (span[1] - span[0] < min_len or merged[-1][1] - merged[-1][0] < min_len):
            merged[-1] = (merged[-1][0], span[1])
        else:
            merged.append(span)
    return merged


def subword_spans(seq: FeatureSequence, cfg: InitConfig | None = None) -> list[tuple[int, int]]:
    """Word-like segmentation refined by dotplot watershed within each word.

    Watershed pieces shorter than min_subword_frames are merged so that the
    seeded HMMs see realistic state durations."""
    cfg = cfg or InitConfig()
    words = segment_words(seq, cfg)
    spans = []
    for start, end in zip([0] + words, words + [seq.n_frames]):
        length = end - start
        if length < 2:
            spans.append((start, end))
            continue
        dot = build_dotplot(seq.frames[start:end], cfg.dotplot_sigma)
        cuts = watershed_boundaries(dot)
        edges = [start] + [start + c for c in cuts] + [end]
        spans.extend(_merge_short(list(zip(edges[:-1], edges[1:])), cfg.min_subword_frames))
    return spans


def make_initial_labels(corpus: Corpus, seeds: dict[int, int],
                        cfg: InitConfig | None = None) -> dict[int, LabelSet]:
    """The whole bootstrap: word segmentation, watershed refinement, k-means ids.

    seeds maps each phonetic granularity n to its k-means seed.  Every
    utterance is segmented once, and the same subword spans are clustered
    into n ids for each n.  The word-like structure is flattened: each label
    set holds one subword-like token sequence per utterance, tiling it exactly.
    """
    cfg = cfg or InitConfig()
    spans = {utt: subword_spans(corpus[utt], cfg) for utt in corpus.ids()}
    return {n: cluster_segments(corpus, spans, n, seed, cfg.kmeans_iters)
            for n, seed in seeds.items()}
