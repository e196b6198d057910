import numpy as np
import pytest

from acoustok.labels import TokenLabelSequence
from acoustok.reinforce import (
    ReinforceConfig,
    boundary_function,
    build_documents,
    complete_data_log_posterior,
    fuse_boundaries,
    fuse_utterance,
    lda_fit,
    level_offsets,
    matl_bytes,
    mutual_reinforce,
    read_matl,
    relabel,
)
from acoustok.tokenizer import Granularity, GranularityGrid


def seq(utt, segs):
    return TokenLabelSequence(utt, segs)


class TestBoundaryFunction:
    def test_single_segment_all_zero(self):
        b = boundary_function(seq("u", [(0, 0, 12)]))
        assert b.shape == (11,)
        assert not b.any()

    def test_junction_marked(self):
        b = boundary_function(seq("u", [(0, 0, 10), (1, 10, 20)]))
        assert b[9] == 1
        assert b.sum() == 1

    def test_count_is_segments_minus_one(self):
        s = seq("u", [(0, 0, 3), (1, 3, 9), (0, 9, 14), (2, 14, 20)])
        assert boundary_function(s).sum() == 3


def reference_fused_peaks(B, tau, min_gap):
    """The fused-curve peak scan written out position by position: local
    maxima of B with second difference at most tau, taken by descending B
    (ties to the lowest position) unless within min_gap of one taken."""
    padded = [0.0] + [float(v) for v in B] + [0.0]
    candidates = []
    for j in range(1, len(B) + 1):
        left, here, right = padded[j - 1], padded[j], padded[j + 1]
        if here > 0 and here >= left and here >= right and left - 2 * here + right <= tau:
            candidates.append((-here, j))
    selected: list[int] = []
    for _, j in sorted(candidates):
        if all(abs(j - k) >= min_gap for k in selected):
            selected.append(j)
    return sorted(selected)


class TestFuseUtterance:
    def test_unanimous_isolated_selected(self):
        levels = {Granularity(3, 4): np.zeros(20, dtype=np.int64),
                  Granularity(5, 4): np.zeros(20, dtype=np.int64)}
        for b in levels.values():
            b[9] = 1
        selected, B = fuse_utterance(levels)
        assert B[9] == 1.0
        assert selected == [10]

    def test_nothing_marked_nothing_selected(self):
        levels = {Granularity(3, 4): np.zeros(15, dtype=np.int64)}
        selected, B = fuse_utterance(levels)
        assert selected == []
        assert not B.any()

    def test_weighted_average_hand_value(self):
        # three levels m = 3, 5, 7; only the m=7 level marks position 6
        levels = {
            Granularity(3, 4): np.zeros(12, dtype=np.int64),
            Granularity(5, 4): np.zeros(12, dtype=np.int64),
            Granularity(7, 4): np.zeros(12, dtype=np.int64),
        }
        levels[Granularity(7, 4)][5] = 1
        selected, B = fuse_utterance(levels)
        assert B[5] == 7 / 15
        # second difference 0 - 2*(7/15) + 0 is far below the default tau
        assert selected == [6]

    def test_unanimity_detected_exactly(self):
        rng = np.random.default_rng(0)
        levels = {
            Granularity(m, 5): (rng.uniform(size=30) < 0.2).astype(np.int64)
            for m in (3, 5, 7, 9)
        }
        _, B = fuse_utterance(levels)
        stacked = np.stack(list(levels.values()))
        assert np.array_equal(B == 1.0, stacked.all(axis=0))
        assert np.all((B >= 0) & (B <= 1))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_scan(self, seed):
        rng = np.random.default_rng(seed)
        cfg = ReinforceConfig(min_gap=int(rng.integers(1, 4)))
        for _ in range(20):
            length = int(rng.integers(1, 40))
            levels = {Granularity(m, 4): (rng.uniform(size=length) < 0.3).astype(np.int64)
                      for m in (3, 5, 7)}
            selected, B = fuse_utterance(levels, cfg)
            assert selected == reference_fused_peaks(B, cfg.tau, cfg.min_gap)

    def test_min_gap_thins_adjacent_peaks(self):
        levels = {Granularity(3, 4): np.zeros(20, dtype=np.int64)}
        levels[Granularity(3, 4)][8] = 1
        levels[Granularity(3, 4)][9] = 1
        selected, _ = fuse_utterance(levels)
        assert len(selected) == 1


class TestBuildDocuments:
    def grid2(self):
        return GranularityGrid((2, 4), (2, 3))

    def test_vocab_size_formula(self):
        docs = build_documents(
            {"u": []},
            {
                Granularity(2, 2): {"u": seq("u", [(0, 0, 10)])},
                Granularity(2, 3): {"u": seq("u", [(0, 0, 10)])},
                Granularity(4, 2): {"u": seq("u", [(1, 0, 10)])},
                Granularity(4, 3): {"u": seq("u", [(2, 0, 10)])},
            },
            self.grid2(),
        )
        assert docs.vocab_size == 10

    def test_offsets_follow_grid_order(self):
        offsets = level_offsets(self.grid2())
        assert offsets[Granularity(2, 2)] == 0
        assert offsets[Granularity(2, 3)] == 2
        assert offsets[Granularity(4, 2)] == 5
        assert offsets[Granularity(4, 3)] == 7

    def test_single_level_identity(self):
        grid = GranularityGrid((3,), (4,))
        labels = {Granularity(3, 4): {"u": seq("u", [(2, 0, 5), (1, 5, 11), (3, 11, 14)])}}
        fused = fuse_boundaries(labels)
        docs = build_documents(fused, labels, grid)
        assert [d for d in docs.docs] == [[2], [1], [3]]

    def test_fallback_keeps_documents_non_empty(self):
        # a 1-frame fused segment inside a 10-frame token: overlap rule fails,
        # midpoint fallback must fire
        grid = GranularityGrid((3,), (4,))
        labels = {Granularity(3, 4): {"u": seq("u", [(2, 0, 10)])}}
        docs = build_documents({"u": [4, 5]}, labels, grid)
        assert all(len(d) > 0 for d in docs.docs)
        assert docs.docs[1] == [2]


def disjoint_corpus_docs(n_docs=40, words_per_doc=8, seed=1):
    """Two groups of documents over disjoint 5-word vocabularies."""
    rng = np.random.default_rng(seed)
    docs = []
    groups = []
    for i in range(n_docs):
        group = i % 2
        base = 5 * group
        docs.append(list(base + rng.integers(5, size=words_per_doc)))
        groups.append(group)
    return docs, groups


class TestLda:
    def test_single_topic(self):
        docs, _ = disjoint_corpus_docs()
        model = lda_fit(docs, 1, 10, ReinforceConfig(lda_iters=20), seed=0)
        assert np.argmax(model.doc_topic, axis=1).tolist() == [0] * len(docs)

    def test_disjoint_vocabulary_pure(self):
        docs, groups = disjoint_corpus_docs()
        model = lda_fit(docs, 2, 10, seed=0)
        topics = np.argmax(model.doc_topic, axis=1)
        by_group = [set(topics[np.array(groups) == g]) for g in (0, 1)]
        assert len(by_group[0]) == 1 and len(by_group[1]) == 1
        assert by_group[0] != by_group[1]

    def test_deterministic(self):
        docs, _ = disjoint_corpus_docs()
        cfg = ReinforceConfig(lda_iters=50)
        a = lda_fit(docs, 3, 10, cfg, seed=7)
        b = lda_fit(docs, 3, 10, cfg, seed=7)
        assert np.array_equal(a.topic_word, b.topic_word)
        assert np.array_equal(a.doc_topic, b.doc_topic)

    def test_posterior_improves_over_init(self):
        docs, _ = disjoint_corpus_docs()
        wins = 0
        for s in range(20):
            init = lda_fit(docs, 2, 10, ReinforceConfig(lda_iters=0), seed=s)
            fit = lda_fit(docs, 2, 10, seed=s)
            if complete_data_log_posterior(fit) >= complete_data_log_posterior(init):
                wins += 1
        assert wins >= 19

    def test_topic_word_distribution_normalized(self):
        docs, _ = disjoint_corpus_docs()
        model = lda_fit(docs, 2, 10, ReinforceConfig(lda_iters=30), seed=0)
        rows = model.topic_word_distribution().sum(axis=1)
        assert np.max(np.abs(rows - 1.0)) < 1e-9


class TestRelabel:
    def make_documents(self):
        from acoustok.reinforce import PseudoDocuments

        # documents alternate vocabulary groups; even docs tile u0, odd docs u1
        n_docs = 40
        docs, groups = disjoint_corpus_docs(n_docs=n_docs)
        spans = [
            ("u0" if i % 2 == 0 else "u1", 3 * (i // 2), 3 * (i // 2) + 3)
            for i in range(n_docs)
        ]
        return PseudoDocuments(spans, docs, 10), groups

    def test_single_topic_all_zero(self):
        documents, _ = self.make_documents()
        model = lda_fit(documents.docs, 1, 10, ReinforceConfig(lda_iters=10), seed=0)
        labels = relabel(documents, model)
        for s in labels.values():
            assert all(t == 0 for t in s.token_ids())

    def test_pure_documents_get_their_topic(self):
        documents, groups = self.make_documents()
        model = lda_fit(documents.docs, 2, 10, seed=0)
        labels = relabel(documents, model)
        # all of u0's documents are group 0 and all of u1's are group 1, so
        # each utterance must come out uniformly labeled, with distinct topics
        assert len(set(labels["u0"].token_ids())) == 1
        assert len(set(labels["u1"].token_ids())) == 1
        assert labels["u0"].token_ids()[0] != labels["u1"].token_ids()[0]

    def test_output_tiles(self):
        documents, _ = self.make_documents()
        model = lda_fit(documents.docs, 2, 10, ReinforceConfig(lda_iters=20), seed=0)
        labels = relabel(documents, model)
        for utt, s in labels.items():
            assert s.segments[0][1] == 0
            assert s.n_frames == 60


class TestMutualReinforce:
    def make_level_labels(self, grid):
        # deterministic fake decodes: boundaries every m frames
        T = 24
        labels = {}
        for g in grid.levels():
            segs = []
            start = 0
            token = 0
            while start < T:
                end = min(start + g.m + 1, T)
                segs.append((token % g.n, start, end))
                token += 1
                start = end
            labels[g] = {"u0": seq("u0", segs), "u1": seq("u1", segs)}
        return labels

    def test_one_label_set_per_phonetic_granularity(self):
        grid = GranularityGrid((3, 5), (2, 3, 4, 6))
        labels = self.make_level_labels(grid)
        out = mutual_reinforce(labels, grid, {n: n for n in grid.phonetic},
                               ReinforceConfig(lda_iters=10)).labels
        assert sorted(out) == [2, 3, 4, 6]
        for n, label_set in out.items():
            for s in label_set.values():
                assert all(t < n for t in s.token_ids())
                assert s.n_frames == 24

    def test_single_level_keeps_its_segmentation(self):
        grid = GranularityGrid((3,), (4,))
        labels = self.make_level_labels(grid)
        out = mutual_reinforce(labels, grid, {n: n for n in grid.phonetic},
                               ReinforceConfig(lda_iters=10)).labels
        g = Granularity(3, 4)
        for utt in ("u0", "u1"):
            assert [s[1:] for s in out[4][utt].segments] == [
                s[1:] for s in labels[g][utt].segments
            ]

    def test_missing_level_rejected(self):
        grid = GranularityGrid((3, 5), (4,))
        labels = {Granularity(3, 4): {"u": seq("u", [(0, 0, 10)])}}
        with pytest.raises(ValueError, match="missing level labels"):
            mutual_reinforce(labels, grid, {n: n for n in grid.phonetic})

    def test_one_lda_per_seed(self):
        grid = GranularityGrid((3, 5), (2, 4))
        labels = self.make_level_labels(grid)
        cfg = ReinforceConfig(lda_iters=10)
        seeds = {2: 17, 4: 2**62 + 5}
        out = mutual_reinforce(labels, grid, seeds, cfg)
        assert sorted(out.models) == sorted(out.labels) == [2, 4]
        for n, seed in seeds.items():
            ref = lda_fit(out.documents.docs, n, out.documents.vocab_size, cfg, seed)
            assert out.models[n].seed == seed
            assert np.array_equal(out.models[n].topic_word, ref.topic_word)
            assert np.array_equal(out.models[n].doc_topic, ref.doc_topic)


class TestMatl:
    def test_roundtrip(self, tmp_path):
        docs, _ = disjoint_corpus_docs()
        model = lda_fit(docs, 3, 10, ReinforceConfig(lda_iters=20), seed=5)
        (tmp_path / "m.matl").write_bytes(matl_bytes(model))
        back = read_matl(tmp_path / "m.matl")
        assert back.n_topics == 3
        assert back.alpha == model.alpha and back.beta == model.beta
        assert back.seed == model.seed
        assert np.array_equal(back.topic_word, model.topic_word)
        assert np.array_equal(back.doc_topic, model.doc_topic)
