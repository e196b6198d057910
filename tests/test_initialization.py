import numpy as np
import pytest

from acoustok.corpus import Corpus, FeatureSequence, SynthSpec, synthesize_corpus
from acoustok.initialization import (
    build_dotplot,
    cluster_segments,
    cosine_similarity_matrix,
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
        assert segment_words(seq).boundaries == []

    def test_single_jump_found(self):
        seq = two_half_utterance()
        bounds = segment_words(seq).boundaries
        assert len(bounds) == 1
        assert abs(bounds[0] - 20) <= 1

    def test_tiny_utterance(self):
        seq = FeatureSequence(np.random.default_rng(0).normal(size=(2, 3)))
        assert len(segment_words(seq).boundaries) <= 1

    def test_min_segment_length(self):
        rng = np.random.default_rng(1)
        seq = FeatureSequence(rng.normal(size=(60, 5)) * 3.0)
        bounds = segment_words(seq).boundaries
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
        trace = []
        kmeans(points, 4, seed=2, trace=trace)
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


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

    def test_subword_spans_tile_words(self):
        corpus, _ = synthesize_corpus(SynthSpec(n_utterances=3), seed=4)
        for utt in corpus.ids():
            spans = subword_spans(corpus[utt])
            assert spans[0][0] == 0
            assert spans[-1][1] == corpus[utt].n_frames
            for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
                assert e0 == s1
