"""Desk-scale scoring against ground truth and emission of visualization data:
boundary precision/recall/F at a frame tolerance, frame-level cluster purity
and normalized mutual information, token/reference co-occurrence tables,
speaker-token intensity maps, and per-granularity result grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labels import LabelSet


# ---------------------------------------------------------------------------
# boundary scoring
# ---------------------------------------------------------------------------

def match_boundaries(hyp: list[int], ref: list[int], tol: int) -> int:
    """Greedy one-to-one nearest-first matching within +/- tol frames."""
    pairs = sorted(
        (abs(h - r), h, r)
        for h in hyp
        for r in ref
        if abs(h - r) <= tol
    )
    used_h: set[int] = set()
    used_r: set[int] = set()
    matched = 0
    for _, h, r in pairs:
        if h in used_h or r in used_r:
            continue
        used_h.add(h)
        used_r.add(r)
        matched += 1
    return matched


def _prf(matched: int, n_hyp: int, n_ref: int) -> tuple[float, float, float]:
    if n_hyp == 0:
        precision = 1.0 if n_ref == 0 else 0.0
    else:
        precision = matched / n_hyp
    if n_ref == 0:
        recall = 1.0 if n_hyp == 0 else 0.0
    else:
        recall = matched / n_ref
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f


def corpus_boundary_prf(hyp_labels: LabelSet, ref_boundaries: dict[str, list[int]],
                        tol: int = 2) -> tuple[float, float, float]:
    """Micro-averaged over utterances: counts pooled before the ratios."""
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    matched = n_hyp = n_ref = 0
    for utt, ref in ref_boundaries.items():
        hyp = hyp_labels[utt].boundaries()
        matched += match_boundaries(hyp, ref, tol)
        n_hyp += len(hyp)
        n_ref += len(ref)
    return _prf(matched, n_hyp, n_ref)


# ---------------------------------------------------------------------------
# clustering quality
# ---------------------------------------------------------------------------

def cluster_purity_nmi(hyp, ref) -> tuple[float, float]:
    """Purity and normalized mutual information over aligned label pairs.

    NMI normalizes by the mean of the two entropies; when both partitions are
    single-cluster (zero entropy) the partitions are identical and NMI is 1.
    """
    hyp = np.asarray(hyp)
    ref = np.asarray(ref)
    if hyp.size == 0 or hyp.shape != ref.shape:
        raise ValueError("need equal-length non-empty label arrays")
    hyp_ids, hyp_idx = np.unique(hyp, return_inverse=True)
    ref_ids, ref_idx = np.unique(ref, return_inverse=True)
    table = np.zeros((len(hyp_ids), len(ref_ids)))
    np.add.at(table, (hyp_idx, ref_idx), 1.0)
    total = table.sum()
    purity = float(table.max(axis=1).sum() / total)

    p = table / total
    ph = p.sum(axis=1)
    pr = p.sum(axis=0)
    nz = p > 0
    mi = float(np.sum(p[nz] * (np.log(p[nz]) - np.log(np.outer(ph, pr))[nz])))
    h_hyp = float(-np.sum(ph[ph > 0] * np.log(ph[ph > 0])))
    h_ref = float(-np.sum(pr[pr > 0] * np.log(pr[pr > 0])))
    denom = (h_hyp + h_ref) / 2.0
    nmi = 1.0 if denom == 0 else max(0.0, min(1.0, mi / denom))
    return purity, nmi


def frame_label_pairs(hyp_labels: LabelSet, ref_labels: LabelSet) -> tuple[np.ndarray, np.ndarray]:
    """Stack frame-level labels of both sides over the shared utterances."""
    hyp_all, ref_all = [], []
    for utt in sorted(hyp_labels):
        hyp_all.append(hyp_labels[utt].frame_labels())
        ref_all.append(ref_labels[utt].frame_labels())
    return np.concatenate(hyp_all), np.concatenate(ref_all)


# ---------------------------------------------------------------------------
# co-occurrence maps
# ---------------------------------------------------------------------------

@dataclass
class CooccurrenceMatrix:
    counts: np.ndarray  # (n_tokens, n_refs)
    token_ids: list[int]
    ref_labels: list

    def grouped_row_order(self) -> list[int]:
        """Rows grouped by their argmax column, then by descending count."""
        order = []
        argmax = self.counts.argmax(axis=1)
        peak = self.counts.max(axis=1)
        for row in range(len(self.token_ids)):
            order.append((argmax[row], -peak[row], row))
        return [row for _, _, row in sorted(order)]

    def to_csv(self) -> str:
        """Header 'token,<reference labels>' then one row of counts per token."""
        lines = ["token," + ",".join(str(r) for r in self.ref_labels)]
        for token, row in zip(self.token_ids, self.counts):
            lines.append(str(token) + "," + ",".join(str(int(c)) for c in row))
        return "\n".join(lines) + "\n"


def cooccurrence(labels: LabelSet, reference: dict[str, list[tuple]]) -> CooccurrenceMatrix:
    """Count each token realization against the reference unit containing its
    central frame floor((start + end) / 2); realizations with no annotated
    unit at the center are skipped."""
    ref_names = sorted({str(r[0]) for units in reference.values() for r in units})
    ref_index = {name: i for i, name in enumerate(ref_names)}
    n_tokens = 1 + max(
        (seg[0] for seq in labels.values() for seg in seq.segments), default=0
    )
    counts = np.zeros((n_tokens, len(ref_names)), dtype=np.int64)
    for utt, seq in labels.items():
        units = reference.get(utt, [])
        for token, start, end in seq.segments:
            center = (start + end) // 2
            for name, u_start, u_end in units:
                if u_start <= center < u_end:
                    counts[token, ref_index[str(name)]] += 1
                    break
    return CooccurrenceMatrix(counts, list(range(n_tokens)), ref_names)


# ---------------------------------------------------------------------------
# speaker-token intensity map
# ---------------------------------------------------------------------------

@dataclass
class SpeakerTokenMap:
    intensities: np.ndarray  # (n_speakers, n_tokens), columns already reordered
    speakers: list[str]
    token_order: list[int]
    beta: float

    def to_csv(self) -> str:
        """Header 'speaker,<token order>' then one row of intensities per speaker."""
        lines = ["speaker," + ",".join(str(t) for t in self.token_order)]
        for speaker, row in zip(self.speakers, self.intensities):
            lines.append(speaker + "," + ",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


def _solve_beta(counts: np.ndarray, target: float) -> float:
    """Bisection on beta so the mean of 1 - exp(-beta c) over nonzero cells
    hits the target; the mean is strictly increasing in beta."""
    nonzero = counts[counts > 0].astype(float)
    if nonzero.size == 0:
        raise ValueError("all counts are zero")
    if not 0.0 < target < 1.0:
        raise ValueError("target intensity must be in (0, 1)")

    def mean_intensity(beta):
        return float(np.mean(1.0 - np.exp(-beta * nonzero)))

    lo, hi = 0.0, 1.0
    while mean_intensity(hi) < target:
        hi *= 2.0
        if hi > 1e12:
            break
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mean_intensity(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def speaker_token_map(labels: LabelSet, speakers: dict[str, str],
                      target_intensity: float = 0.5,
                      frequent_threshold: int = 3) -> SpeakerTokenMap:
    """Realization counts per (speaker, token) turned into intensities
    1 - exp(-beta c), with beta solved so the mean over nonzero cells equals
    the target.  Columns are ordered by total count, then re-ordered so each
    speaker's newly frequent tokens (count >= threshold, not frequent for any
    earlier speaker) appear consecutively."""
    speaker_ids = sorted(set(speakers.values()))
    spk_index = {s: i for i, s in enumerate(speaker_ids)}
    n_tokens = 1 + max(
        (seg[0] for seq in labels.values() for seg in seq.segments), default=0
    )
    counts = np.zeros((len(speaker_ids), n_tokens), dtype=np.int64)
    for utt, seq in labels.items():
        s = spk_index[speakers[utt]]
        for token, _, _ in seq.segments:
            counts[s, token] += 1

    beta = _solve_beta(counts, target_intensity)
    intensities = 1.0 - np.exp(-beta * counts)

    totals = counts.sum(axis=0)
    by_count = sorted(range(n_tokens), key=lambda a: (-totals[a], a))
    order: list[int] = []
    seen: set[int] = set()
    for s in range(len(speaker_ids)):
        for a in by_count:
            if a not in seen and counts[s, a] >= frequent_threshold:
                order.append(a)
                seen.add(a)
    order.extend(a for a in by_count if a not in seen)
    return SpeakerTokenMap(intensities[:, order], speaker_ids, order, beta)


# ---------------------------------------------------------------------------
# granularity grids and image export
# ---------------------------------------------------------------------------

def grid_csv(results: dict[tuple[int, int], float]) -> str:
    """CSV rows (m, n, value) sorted by granularity, then one summary row
    'summary,avg,std,max,min' over the level values."""
    if not results:
        raise ValueError("no levels to emit")
    values = np.array([results[k] for k in sorted(results)])
    lines = ["m,n,value"]
    for (m, n) in sorted(results):
        lines.append(f"{m},{n},{float(results[(m, n)])!r}")
    lines.append(
        f"summary,{float(values.mean())!r},{float(values.std())!r},"
        f"{float(values.max())!r},{float(values.min())!r}"
    )
    return "\n".join(lines) + "\n"


def pgm_bytes(values: np.ndarray) -> bytes:
    """Binary portable graymap of values in [0, 1], darker = smaller."""
    gray = np.clip(np.round(values * 255.0), 0, 255).astype(np.uint8)
    h, w = gray.shape
    return f"P5\n{w} {h}\n255\n".encode() + gray.tobytes()
