import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from acoustok import initialization
from acoustok.corpus import Corpus, FeatureSequence, SynthSpec, synthesize_corpus
from acoustok.initialization import (
    InitConfig,
    _gaussian_smooth,
    _kmeans_pp_seeds,
    build_dotplot,
    cluster_segments,
    cosine_similarity_matrix,
    discontinuity,
    kmeans,
    make_initial_labels,
    segment_words,
    subword_spans,
    watershed_boundaries,
    watershed_regions,
)


def two_half_utterance(T=40, d=6, jump=5.0):
    frames = np.zeros((T, d))
    frames[T // 2 :, 1] = jump
    frames[:, 0] = 1.0  # flat energy column
    return FeatureSequence(frames, utterance_id="halves")


class TestSegmentWords:
    def test_constant_features_no_boundaries(self):
        seq = FeatureSequence(np.ones((30, 4)), utterance_id="const")
        assert segment_words(seq) == []

    def test_single_jump_found(self):
        seq = two_half_utterance()
        bounds = segment_words(seq)
        assert len(bounds) == 1
        assert abs(bounds[0] - 20) <= 1

    def test_tiny_utterance(self):
        seq = FeatureSequence(np.random.default_rng(0).normal(size=(2, 3)))
        assert len(segment_words(seq)) <= 1

    def test_min_segment_length(self):
        rng = np.random.default_rng(1)
        seq = FeatureSequence(rng.normal(size=(60, 5)) * 3.0)
        bounds = segment_words(seq)
        edges = [0] + bounds + [60]
        assert all(b - a >= 5 for a, b in zip(edges, edges[1:]))


class TestDotplot:
    def test_identical_frames_all_ones_prefilter(self):
        frames = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))
        sim = cosine_similarity_matrix(frames)
        assert np.allclose(sim, 1.0)

    def test_orthogonal_checkerboard(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        frames = np.vstack([e1, e2, e1, e2])
        sim = cosine_similarity_matrix(frames)
        expected = np.array(
            [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=float
        )
        assert np.allclose(sim, expected)

    def test_antipodal_frames(self):
        frames = np.vstack([[1.0, 0.0], [-1.0, 0.0]])
        sim = cosine_similarity_matrix(frames)
        assert sim[0, 1] == pytest.approx(-1.0)

    def test_zero_norm_frame(self):
        frames = np.vstack([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        sim = cosine_similarity_matrix(frames)
        assert np.all(sim[1] == 0.0)
        assert np.all(sim[:, 1] == 0.0)

    def test_filtered_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        dot = build_dotplot(rng.normal(size=(12, 4)))
        assert np.array_equal(dot, dot.T)

    def test_zero_sigma_leaves_similarities(self):
        frames = np.random.default_rng(3).normal(size=(9, 4))
        assert np.array_equal(build_dotplot(frames, 0.0), cosine_similarity_matrix(frames))


class TestGaussianSmooth:
    """The dotplot's smoothing against scipy.ndimage.gaussian_filter with
    mode="nearest", kept here as the reference: the same bits."""

    # 0.1 has radius 0, a single tap
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 1.7])
    def test_equals_scipy_on_cosine_dotplots(self, sigma):
        rng = np.random.default_rng(int(10 * sigma))
        for T in range(2, 200):
            sim = cosine_similarity_matrix(rng.normal(size=(T, 6)))
            reference = gaussian_filter(sim, sigma, mode="nearest")
            assert np.array_equal(_gaussian_smooth(sim, sigma), reference), T

    def test_build_dotplot_symmetrizes_scipy_smoothing(self):
        frames = np.random.default_rng(4).normal(size=(23, 6))
        smooth = gaussian_filter(cosine_similarity_matrix(frames), 1.0, mode="nearest")
        assert np.array_equal(build_dotplot(frames, 1.0), (smooth + smooth.T) / 2.0)


class TestWatershed:
    def test_uniform_matrix_one_region(self):
        assert watershed_boundaries(np.full((8, 8), 0.5)) == []

    def test_two_blocks(self):
        sim = np.zeros((6, 6))
        sim[:3, :3] = 1.0
        sim[3:, 3:] = 1.0
        assert watershed_boundaries(sim) == [3]

    def test_three_blocks(self):
        sim = np.zeros((6, 6))
        for k in range(3):
            sim[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = 1.0
        assert watershed_boundaries(sim) == [2, 4]

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        sim = rng.uniform(size=(10, 10))
        sim = (sim + sim.T) / 2
        assert watershed_boundaries(sim) == watershed_boundaries(sim + 0.37)

    def test_regions_cover_everything(self):
        rng = np.random.default_rng(4)
        labels = watershed_regions(rng.uniform(size=(7, 7)))
        assert np.all(labels > 0)


class TestKmeans:
    def test_two_clouds_pure(self):
        rng = np.random.default_rng(5)
        a = rng.normal(-10.0, 0.5, size=(30, 3))
        b = rng.normal(10.0, 0.5, size=(30, 3))
        assign, _ = kmeans(np.vstack([a, b]), 2, seed=0)
        assert len(set(assign[:30])) == 1
        assert len(set(assign[30:])) == 1
        assert assign[0] != assign[30]

    def test_single_cluster(self):
        points = np.random.default_rng(6).normal(size=(10, 2))
        assign, _ = kmeans(points, 1, seed=0)
        assert np.all(assign == 0)

    def test_deterministic(self):
        points = np.random.default_rng(7).normal(size=(40, 4))
        a1, c1 = kmeans(points, 5, seed=11)
        a2, c2 = kmeans(points, 5, seed=11)
        assert np.array_equal(a1, a2)
        assert np.array_equal(c1, c2)

    def test_insufficient_points(self):
        with pytest.raises(ValueError, match="insufficient segments"):
            kmeans(np.zeros((3, 2)), 5, seed=0)

    def test_objective_non_increasing(self):
        points = np.random.default_rng(8).normal(size=(60, 3))
        objective = []
        for k in range(1, 8):
            assign, centers = kmeans(points, 4, seed=2, iters=k)
            objective.append(float(np.sum((points - centers[assign]) ** 2)))
        assert all(b <= a + 1e-9 for a, b in zip(objective, objective[1:]))


class TestClusterSegments:
    def make_corpus(self):
        # two utterances, segment means form two well-separated clouds
        rng = np.random.default_rng(9)
        frames = []
        spans = []
        cursor = 0
        for value in [-10.0, 10.0, -10.0, 10.0]:
            frames.append(rng.normal(value, 0.1, size=(6, 3)))
            spans.append((cursor, cursor + 6))
            cursor += 6
        seqs = [
            FeatureSequence(np.vstack(frames[:2]), utterance_id="u0"),
            FeatureSequence(np.vstack(frames[2:]), utterance_id="u1"),
        ]
        segment_spans = {"u0": [(0, 6), (6, 12)], "u1": [(0, 6), (6, 12)]}
        return Corpus(seqs), segment_spans

    def test_pure_assignment(self):
        corpus, spans = self.make_corpus()
        labels = cluster_segments(corpus, spans, 2, seed=0)
        low = labels["u0"].segments[0][0]
        high = labels["u0"].segments[1][0]
        assert low != high
        assert labels["u1"].segments[0][0] == low
        assert labels["u1"].segments[1][0] == high

    def test_labels_tile(self):
        corpus, spans = self.make_corpus()
        labels = cluster_segments(corpus, spans, 2, seed=0)
        for utt, seq in labels.items():
            assert seq.n_frames == corpus[utt].n_frames


class TestMakeInitialLabels:
    def test_tiles_and_id_range(self):
        corpus, _ = synthesize_corpus(SynthSpec(n_utterances=8), seed=1)
        labels = make_initial_labels(corpus, {5: 0})[5]
        for utt in corpus.ids():
            assert labels[utt].n_frames == corpus[utt].n_frames
            assert all(0 <= t < 5 for t in labels[utt].token_ids())

    def test_deterministic(self):
        corpus, _ = synthesize_corpus(SynthSpec(n_utterances=6), seed=2)
        a = make_initial_labels(corpus, {4: 3})[4]
        b = make_initial_labels(corpus, {4: 3})[4]
        assert all(a[u].segments == b[u].segments for u in corpus.ids())

    def test_the_order_of_the_utterances_changes_no_label(self):
        corpus, _ = synthesize_corpus(SynthSpec(n_utterances=6), seed=2)
        backward = Corpus(corpus.utterances[::-1], corpus.speakers)
        seeds = {4: 3, 6: 5}
        assert make_initial_labels(corpus, seeds) == make_initial_labels(backward, seeds)

    def test_subword_spans_tile_words(self):
        corpus, _ = synthesize_corpus(SynthSpec(n_utterances=3), seed=4)
        for utt in corpus.ids():
            spans = subword_spans(corpus[utt])
            assert spans[0][0] == 0
            assert spans[-1][1] == corpus[utt].n_frames
            for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
                assert e0 == s1


# ---------------------------------------------------------------------------
# the array bootstrap against plain loops, bit for bit
# ---------------------------------------------------------------------------

def sequential_flood(relief):
    """The ordered flood one cell at a time, in the stable sort's order: a
    cell joins the region of its earliest-flooded 4-neighbour, or opens the
    next region if no neighbour has flooded yet."""
    rows, cols = relief.shape
    labels = np.zeros(relief.shape, dtype=np.int64)
    flood_time = np.full(relief.shape, -1, dtype=np.int64)
    next_label = 1
    for step, flat in enumerate(np.argsort(relief.ravel(), kind="stable")):
        i, j = divmod(int(flat), cols)
        best_time, best_label = None, 0
        for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if 0 <= ni < rows and 0 <= nj < cols and labels[ni, nj] > 0:
                if best_time is None or flood_time[ni, nj] < best_time:
                    best_time, best_label = flood_time[ni, nj], labels[ni, nj]
        if best_label == 0:
            best_label = next_label
            next_label += 1
        labels[i, j] = best_label
        flood_time[i, j] = step
    return labels


def per_frame_discontinuity(X, side):
    """The discontinuity one inter-frame position at a time."""
    T = len(X)
    dist = np.zeros(T - 1)
    dips = np.zeros(T - 1)
    energy = X[:, 0]
    for j in range(1, T):
        left = X[max(0, j - side):j].mean(axis=0)
        right = X[j:j + side].mean(axis=0)
        dist[j - 1] = np.linalg.norm(left - right)
        local = min(energy[j - 1], energy[j])
        around = energy[max(0, j - side):j + side].mean()
        dips[j - 1] = max(0.0, around - local)
    peak = dips.max()
    if peak > 0:
        dips /= peak
    return dist * (1.0 + dips)


def masked_lloyd(points, n, seed, iters=100):
    """Lloyd's sweeps with the whole (points, n, d) difference cube and one
    boolean mask per center."""
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_seeds(points, n, rng)
    assign = np.full(len(points), -1)
    for _ in range(iters):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(d2, axis=1)
        residual = d2[np.arange(len(points)), new_assign].copy()
        for empty in np.flatnonzero(np.bincount(new_assign, minlength=n) == 0):
            far = int(np.argmax(residual))
            new_assign[far] = empty
            residual[far] = -1.0
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(n):
            if np.any(assign == c):
                centers[c] = points[assign == c].mean(axis=0)
    return assign, centers


RELIEF_SHAPES = [(1, 1), (1, 9), (9, 1), (2, 2), (5, 12), (12, 5), (17, 17)]


class TestWatershedAgainstSequentialFlood:
    @pytest.mark.parametrize("shape", RELIEF_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_heavy_ties(self, shape):
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        for _ in range(20):
            relief = np.round(rng.uniform(size=shape), 1)
            assert np.array_equal(watershed_regions(relief), sequential_flood(relief))

    @pytest.mark.parametrize("shape", RELIEF_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_distinct_values(self, shape):
        relief = np.random.default_rng(shape[0] * 37 + shape[1]).normal(size=shape)
        assert np.array_equal(watershed_regions(relief), sequential_flood(relief))

    @pytest.mark.parametrize("shape", RELIEF_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_constant_relief_is_one_region(self, shape):
        relief = np.full(shape, 0.25)
        assert np.array_equal(watershed_regions(relief), sequential_flood(relief))
        assert np.all(watershed_regions(relief) == 1)

    def test_synthetic_corpus_dotplots(self):
        corpus, _ = synthesize_corpus(SynthSpec(n_utterances=6, dim=6), seed=5)
        words = 0
        for utt in corpus.ids():
            seq = corpus[utt]
            cuts = segment_words(seq)
            for start, end in zip([0] + cuts, cuts + [seq.n_frames]):
                if end - start >= 2:
                    relief = 1.0 - build_dotplot(seq.frames[start:end])
                    assert np.array_equal(watershed_regions(relief), sequential_flood(relief))
                    words += 1
        assert words >= 6


class TestDiscontinuityAgainstPerFrameLoop:
    @pytest.mark.parametrize("side", [1, 5])
    @pytest.mark.parametrize("d", [1, 6, 39])
    def test_every_short_length_and_a_long_one(self, d, side):
        rng = np.random.default_rng(10 * d + side)
        for T in [*range(2, 2 * side + 3), 300]:
            X = rng.normal(size=(T, d)) * 3.0
            X[: T // 2] = np.round(X[: T // 2], 1)  # repeated energies and ties
            got = discontinuity(FeatureSequence(X), InitConfig(side_frames=side))
            assert np.array_equal(got, per_frame_discontinuity(X, side)), T

    @pytest.mark.parametrize("T", [0, 1])
    def test_fewer_than_two_frames_is_empty(self, T):
        seq = FeatureSequence(np.ones((1, 4)))
        seq.frames = seq.frames[:T]
        assert discontinuity(seq).shape == (0,)


def kmeans_cases():
    rng = np.random.default_rng(12)
    spread = rng.normal(size=(60, 5))
    duplicated = np.vstack([spread[:20], np.repeat(spread[20:23], 10, axis=0)])
    return [(spread, 7, 3), (duplicated, 9, 4), (duplicated, 23, 5),
            (np.round(spread[:, :1], 0), 4, 6), (np.zeros((6, 2)), 3, 0)]


class TestKmeansArrays:
    def test_matches_masked_lloyd(self):
        for points, n, seed in kmeans_cases():
            assign, centers = kmeans(points, n, seed)
            want_assign, want_centers = masked_lloyd(points, n, seed)
            assert np.array_equal(assign, want_assign)
            assert np.array_equal(centers, want_centers)

    @pytest.mark.parametrize("budget", [1, 1 << 30], ids=["1B", "1GiB"])
    def test_block_budget_keeps_the_bits(self, monkeypatch, budget):
        want = [kmeans(points, n, seed) for points, n, seed in kmeans_cases()]
        monkeypatch.setattr(initialization, "KERNEL_BLOCK_BYTES", budget)
        for (points, n, seed), (assign, centers) in zip(kmeans_cases(), want):
            got_assign, got_centers = kmeans(points, n, seed)
            assert np.array_equal(got_assign, assign)
            assert np.array_equal(got_centers, centers)

    def test_empty_clusters_reseeded_at_the_farthest_points(self):
        # every center starts on the one point: clusters 1 and 2 come up empty
        # and take the first points of equal (zero) residual, in order
        assign, centers = kmeans(np.zeros((6, 2)), 3, seed=0)
        assert assign.tolist() == [1, 2, 0, 0, 0, 0]
        assert np.array_equal(centers, np.zeros((3, 2)))

    @pytest.mark.parametrize("n", [0, -2])
    def test_n_below_one_names_n(self, n):
        with pytest.raises(ValueError, match=f"n >= 1 clusters, got n = {n}"):
            kmeans(np.zeros((4, 2)), n, seed=0)


class TestBootstrapSettings:
    def test_too_few_segments_names_the_counts(self):
        corpus, spans = TestClusterSegments().make_corpus()
        with pytest.raises(ValueError, match=r"found 4 subword segments in 2 utterances, "
                                             r"too few for n = 5 clusters"):
            cluster_segments(corpus, spans, 5, seed=0)
