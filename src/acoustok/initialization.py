"""Top-down bootstrap of the first label set.

Each utterance is split into word-like segments at spectral discontinuities,
every word-like segment is further split into subword-like pieces by a
watershed transform of its self-similarity dotplot, and the subword segments
are clustered corpus-wide by k-means on their mean feature vectors.  The
resulting per-utterance token sequences seed the per-level HMM training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .corpus import Corpus, FeatureSequence
from .labels import LabelSet, TokenLabelSequence


@dataclass
class InitConfig:
    alpha: float = 1.0            # threshold = mean + alpha * std of the discontinuity
    min_segment_frames: int = 5   # for word-like segments
    min_subword_frames: int = 5   # watershed pieces shorter than this are merged
    side_frames: int = 5          # averaging window on each side of a candidate boundary
    dotplot_sigma: float = 1.0
    kmeans_iters: int = 100


@dataclass
class SegmentBoundarySet:
    utterance_id: str
    n_frames: int
    boundaries: list[int]  # interior inter-frame positions, strictly increasing

    def __post_init__(self):
        for j in self.boundaries:
            if not 0 < j < self.n_frames:
                raise ValueError(f"{self.utterance_id}: boundary {j} outside (0, {self.n_frames})")
        if sorted(set(self.boundaries)) != list(self.boundaries):
            raise ValueError(f"{self.utterance_id}: boundaries not strictly increasing")

    def spans(self) -> list[tuple[int, int]]:
        edges = [0] + list(self.boundaries) + [self.n_frames]
        return list(zip(edges[:-1], edges[1:]))


# ---------------------------------------------------------------------------
# word-like segmentation
# ---------------------------------------------------------------------------

def discontinuity(seq: FeatureSequence, cfg: InitConfig | None = None) -> np.ndarray:
    """Discontinuity value at each inter-frame position j = 1 .. T-1.

    Euclidean distance between the mean feature vectors over side_frames
    frames left and right of j, scaled by (1 + normalized energy dip), where
    the first feature column is treated as the frame energy.
    """
    cfg = cfg or InitConfig()
    X = seq.frames
    T = X.shape[0]
    side = cfg.side_frames
    dist = np.zeros(T - 1)
    for j in range(1, T):
        left = X[max(0, j - side) : j].mean(axis=0)
        right = X[j : j + side].mean(axis=0)
        dist[j - 1] = np.linalg.norm(left - right)

    energy = X[:, 0]
    dips = np.zeros(T - 1)
    for j in range(1, T):
        local = min(energy[j - 1], energy[j])
        around = energy[max(0, j - side) : j + side].mean()
        dips[j - 1] = max(0.0, around - local)
    peak = dips.max()
    if peak > 0:
        dips /= peak
    return dist * (1.0 + dips)


def segment_words(seq: FeatureSequence, cfg: InitConfig | None = None) -> SegmentBoundarySet:
    """Boundaries where the discontinuity exceeds mean + alpha * std.

    Candidates are accepted greedily by descending discontinuity; any
    candidate closer than min_segment_frames to an accepted boundary or to
    the utterance edges is dropped.
    """
    cfg = cfg or InitConfig()
    T = seq.n_frames
    if T < 2:
        return SegmentBoundarySet(seq.utterance_id, T, [])
    disc = discontinuity(seq, cfg)
    threshold = disc.mean() + cfg.alpha * disc.std()
    candidates = [int(j) + 1 for j in np.argsort(-disc, kind="stable") if disc[j] > threshold]
    accepted: list[int] = []
    for j in candidates:
        anchors = accepted + [0, T]
        if all(abs(j - a) >= cfg.min_segment_frames for a in anchors):
            accepted.append(j)
    return SegmentBoundarySet(seq.utterance_id, T, sorted(accepted))


# ---------------------------------------------------------------------------
# dotplot + watershed
# ---------------------------------------------------------------------------

def cosine_similarity_matrix(frames: np.ndarray) -> np.ndarray:
    """Raw frame-pair cosine similarities; zero-norm frames score 0, diagonal 1."""
    norms = np.linalg.norm(frames, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = frames / safe[:, None]
    sim = np.clip(unit @ unit.T, -1.0, 1.0)
    sim[norms == 0, :] = 0.0
    sim[:, norms == 0] = 0.0
    nz = norms > 0
    sim[nz, nz] = 1.0
    return sim


def build_dotplot(frames: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    """Self-similarity dotplot smoothed by a separable Gaussian, exactly symmetric."""
    if frames.shape[0] < 2:
        raise ValueError("dotplot needs at least 2 frames")
    sim = cosine_similarity_matrix(frames)
    if sigma > 0:
        sim = gaussian_filter(sim, sigma=sigma, mode="nearest")
    return (sim + sim.T) / 2.0


def watershed_regions(relief: np.ndarray) -> np.ndarray:
    """Label every cell by ordered flooding of the relief, 4-connectivity.

    Cells are processed by ascending value (ties in row-major order).  A cell
    with no labeled neighbor opens a new region; otherwise it joins the region
    of the neighbor that flooded first.
    """
    L = relief.shape[0]
    labels = np.zeros(relief.shape, dtype=np.int64)
    flood_time = np.full(relief.shape, -1, dtype=np.int64)
    order = np.argsort(relief.ravel(), kind="stable")
    next_label = 1
    for step, flat in enumerate(order):
        i, j = divmod(int(flat), relief.shape[1])
        best_time = None
        best_label = 0
        for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < L and 0 <= nj < relief.shape[1] and labels[ni, nj] > 0:
                t = flood_time[ni, nj]
                if best_time is None or t < best_time or (
                    t == best_time and labels[ni, nj] < best_label
                ):
                    best_time = t
                    best_label = labels[ni, nj]
        if best_label == 0:
            best_label = next_label
            next_label += 1
        labels[i, j] = best_label
        flood_time[i, j] = step
    return labels


def watershed_boundaries(similarity: np.ndarray) -> list[int]:
    """Positions where the main diagonal crosses a watershed region border.

    Regions are flooded on the inverted similarity (1 - s); a boundary at j
    means cells (j-1, j-1) and (j, j) lie in different regions.
    """
    labels = watershed_regions(1.0 - similarity)
    diag = np.diagonal(labels)
    return [j for j in range(1, len(diag)) if diag[j] != diag[j - 1]]


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


def kmeans(points: np.ndarray, n: int, seed: int, iters: int = 100,
           trace: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding; returns (assignments, centers).

    Runs to an assignment fixpoint or iters sweeps.  An empty cluster is
    reseeded at the point currently farthest from its assigned center.  If
    trace is a list, the objective (sum of squared distances to assigned
    centers) is appended after each assignment step.
    """
    if len(points) < n:
        raise ValueError(f"insufficient segments: {len(points)} < {n}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_seeds(points, n, rng)
    assign = np.full(len(points), -1)
    for _ in range(iters):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(d2, axis=1)
        if trace is not None:
            trace.append(float(d2[np.arange(len(points)), new_assign].sum()))
        empties = np.flatnonzero(np.bincount(new_assign, minlength=n) == 0)
        if len(empties):
            residual = d2[np.arange(len(points)), new_assign].copy()
            for empty in empties:
                far = int(np.argmax(residual))
                new_assign[far] = empty
                residual[far] = -1.0
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(n):
            members = points[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    return assign, centers


def cluster_segments(
    corpus: Corpus,
    segment_spans: dict[str, list[tuple[int, int]]],
    n: int,
    seed: int,
    iters: int = 100,
) -> LabelSet:
    """k-means over segment mean vectors; emits per-utterance token sequences."""
    order = corpus.ids()
    reps = []
    index = []  # (utt, span) aligned with reps rows
    for utt in order:
        seq = corpus[utt]
        for span in segment_spans[utt]:
            reps.append(seq.frames[span[0] : span[1]].mean(axis=0))
            index.append((utt, span))
    assign, _ = kmeans(np.vstack(reps), n, seed, iters)
    labels: LabelSet = {}
    cursor = 0
    for utt in order:
        segs = []
        for span in segment_spans[utt]:
            segs.append((int(assign[cursor]), span[0], span[1]))
            cursor += 1
        labels[utt] = TokenLabelSequence(utt, segs)
    return labels


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
    for start, end in words.spans():
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
