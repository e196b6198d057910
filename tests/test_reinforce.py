import numpy as np
import pytest
from scipy.special import gammaln

from acoustok import reinforce
from acoustok.labels import TokenLabelSequence
from acoustok.reinforce import (
    ReinforceConfig,
    _lgamma,
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


def reference_cvb0(docs, K, V, alpha, beta, sweeps, seed):
    """Synchronous CVB0 written out one token at a time: gamma starts one-hot
    at the topics drawn per document from default_rng(seed), each sweep adds
    every token's gamma into the counts in token order, then updates each
    token from those counts as (n_dk - g + alpha)(n_kw - g + beta) /
    (n_k - g + V beta), normalized.  Returns the (D, K) and (K, V) counts of
    the final gamma."""
    rng = np.random.default_rng(seed)
    tokens = [(d, w) for d, doc in enumerate(docs) for w in doc]
    topics = [k for doc in docs for k in rng.integers(K, size=len(doc))]
    gamma = [np.eye(K)[k] for k in topics]

    def counts():
        doc_topic, word_topic, topic_total = np.zeros((len(docs), K)), np.zeros((V, K)), np.zeros(K)
        for (d, w), g in zip(tokens, gamma):
            doc_topic[d] += g
            word_topic[w] += g
            topic_total += g
        return doc_topic, word_topic, topic_total

    for _ in range(sweeps):
        doc_topic, word_topic, topic_total = counts()
        updated = []
        for (d, w), g in zip(tokens, gamma):
            p = ((doc_topic[d] - g + alpha) * (word_topic[w] - g + beta)
                 / (topic_total - g + V * beta))
            updated.append(p / p.sum())
        gamma = updated
    doc_topic, word_topic, _ = counts()
    return doc_topic, word_topic.T


# lda_fit sums counts by reduceat, which adds a segment's first row to the
# pairwise sum of the rest, where reference_cvb0 adds in token order; the two
# differ by rounding only.  The largest difference measured over
# TestLda.test_matches_a_per_token_loop's fits is 4.6e-15 of max(|count|, 1).
LDA_RTOL = 1e-13


def bits(a):
    return np.ascontiguousarray(a, dtype="<f8").view("<u8")


class TestLda:
    def test_single_topic(self):
        docs, _ = disjoint_corpus_docs()
        model = lda_fit(docs, 1, 10, ReinforceConfig(lda_iters=20), seed=0)
        assert np.argmax(model.doc_topic, axis=1).tolist() == [0] * len(docs)

    @pytest.mark.parametrize("alpha", [None, 1.0], ids=["default", "alpha1"])
    def test_disjoint_vocabulary_pure(self, alpha):
        # CVB0 keeps the groups apart on 50 of 50 seeds at the default
        # alpha = 50/K = 25 and at alpha = 1
        docs, groups = disjoint_corpus_docs()
        for seed in range(10):
            model = lda_fit(docs, 2, 10, ReinforceConfig(lda_alpha=alpha), seed=seed)
            topics = np.argmax(model.doc_topic, axis=1)
            by_group = [set(topics[np.array(groups) == g]) for g in (0, 1)]
            assert len(by_group[0]) == 1 and len(by_group[1]) == 1, seed
            assert by_group[0] != by_group[1], seed

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

    def test_lgamma_within_rounding_of_scipy(self):
        # two implementations of one function, each within a few units of
        # roundoff; measured at most 1.5e-15 of max(|gammaln|, 1) here
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.uniform(1e-3, 10.0, 2000),
                            rng.integers(0, 5000, 2000) + 0.01, rng.uniform(10.0, 1e6, 2000)])
        tolerance = 16 * np.finfo(float).eps * np.maximum(np.abs(gammaln(x)), 1.0)
        assert np.all(np.abs(_lgamma(x) - gammaln(x)) <= tolerance)

    def test_posterior_matches_scipy_reference(self):
        docs, _ = disjoint_corpus_docs()
        model = lda_fit(docs, 3, 10, ReinforceConfig(lda_iters=20), seed=1)
        a, b, (K, V) = model.alpha, model.beta, model.topic_word.shape
        reference = (gammaln(model.doc_topic + a).sum()
                     - gammaln(model.doc_topic.sum(axis=1) + K * a).sum()
                     + gammaln(model.topic_word + b).sum()
                     - gammaln(model.topic_word.sum(axis=1) + V * b).sum())
        assert complete_data_log_posterior(model) == pytest.approx(reference, rel=1e-13)

    def test_expected_counts_match_the_corpus(self):
        docs, _ = disjoint_corpus_docs(n_docs=30, words_per_doc=5)
        docs = docs + [[]] + [[11, 11]]  # an empty document, a word used once
        V = 14                             # words 10, 12 and 13 never occur
        freq = np.bincount(np.concatenate(docs).astype(int), minlength=V)
        for K, alpha in ((1, None), (3, 0.1), (7, None)):
            model = lda_fit(docs, K, V, ReinforceConfig(lda_iters=5, lda_alpha=alpha), seed=K)
            assert model.doc_topic.shape == (len(docs), K)
            assert model.topic_word.shape == (K, V)
            assert model.doc_topic.dtype == model.topic_word.dtype == np.float64
            assert np.all(model.doc_topic >= 0) and np.all(model.topic_word >= 0)
            assert np.allclose(model.doc_topic.sum(axis=1), [len(d) for d in docs],
                               rtol=LDA_RTOL, atol=0)
            assert np.allclose(model.topic_word.sum(axis=0), freq, rtol=LDA_RTOL, atol=0)

    @pytest.mark.parametrize("alpha, beta", [(0.3, 0.2), (None, 0.01), (1.0, 0.01)],
                             ids=["alpha0.3-beta0.2", "defaults", "alpha1"])
    @pytest.mark.parametrize("K", [1, 2, 5, 9])
    def test_matches_a_per_token_loop(self, alpha, beta, K):
        docs, _ = disjoint_corpus_docs(n_docs=12, words_per_doc=6, seed=K)
        docs = docs + [[3, 3, 7, 1]]
        V = 10
        cfg = ReinforceConfig(lda_iters=30, lda_alpha=alpha, lda_beta=beta)
        model = lda_fit(docs, K, V, cfg, seed=K + 40)
        doc_topic, topic_word = reference_cvb0(
            docs, K, V, 50 / K if alpha is None else alpha, beta, cfg.lda_iters, K + 40)
        for got, want in ((model.doc_topic, doc_topic), (model.topic_word, topic_word)):
            assert np.all(np.abs(got - want) <= LDA_RTOL * np.maximum(np.abs(want), 1.0))
        if K > 1:  # the sweeps moved the counts off the one-hot start
            assert not np.array_equal(model.doc_topic, np.round(model.doc_topic))

    def test_no_sweeps_counts_the_initial_topics(self):
        docs, _ = disjoint_corpus_docs(n_docs=10)
        K, V, seed = 3, 10, 4
        model = lda_fit(docs, K, V, ReinforceConfig(lda_iters=0), seed=seed)
        rng = np.random.default_rng(seed)
        doc_topic, topic_word = np.zeros((len(docs), K)), np.zeros((K, V))
        for d, doc in enumerate(docs):
            for w, k in zip(doc, rng.integers(K, size=len(doc))):
                doc_topic[d, k] += 1
                topic_word[k, w] += 1
        assert np.array_equal(model.doc_topic, doc_topic)
        assert np.array_equal(model.topic_word, topic_word)

    @pytest.mark.parametrize("budget", [None, 1, 1 << 30], ids=["default", "1B", "1GiB"])
    def test_token_blocks_do_not_change_a_bit(self, monkeypatch, budget):
        # 2,000 tokens at K = 20 make 320,000 bytes of (tokens, K) rows, so
        # the default budget takes several blocks, 1 byte one token each and
        # 1 GiB one block
        docs, _ = disjoint_corpus_docs(n_docs=250, words_per_doc=8)
        assert 2000 * 20 * 8 > reinforce.KERNEL_BLOCK_BYTES
        cfg = ReinforceConfig(lda_iters=3)
        want = lda_fit(docs, 20, 10, cfg, seed=3)
        monkeypatch.setattr(reinforce, "KERNEL_BLOCK_BYTES", 1 << 30)
        unblocked = lda_fit(docs, 20, 10, cfg, seed=3)
        if budget is not None:
            monkeypatch.setattr(reinforce, "KERNEL_BLOCK_BYTES", budget)
        got = lda_fit(docs, 20, 10, cfg, seed=3)
        for model in (want, got):
            assert np.array_equal(bits(model.doc_topic), bits(unblocked.doc_topic))
            assert np.array_equal(bits(model.topic_word), bits(unblocked.topic_word))

    def test_empty_documents_and_unused_words_get_zeros(self):
        # reduceat returns a neighbour's row for an empty segment, and fails on
        # one that starts past the last token
        docs, _ = disjoint_corpus_docs(n_docs=12, words_per_doc=4)
        docs = [[w + 1 for w in doc] for doc in docs]       # word 0 never occurs
        V = 13                                               # nor do 11 and 12
        padded = [[]] + docs[:5] + [[], []] + docs[5:] + [[]]
        cfg = ReinforceConfig(lda_iters=20)
        model = lda_fit(padded, 4, V, cfg, seed=2)
        empty = [d for d, doc in enumerate(padded) if not doc]
        assert empty == [0, 6, 7, 15]
        assert not model.doc_topic[empty].any()
        assert not model.topic_word[:, [0, 11, 12]].any()
        # an empty document draws no topics and adds nothing to any count, so
        # the rest is the fit without it, bit for bit
        plain = lda_fit(docs, 4, V, cfg, seed=2)
        kept = [d for d, doc in enumerate(padded) if doc]
        assert np.array_equal(bits(model.doc_topic[kept]), bits(plain.doc_topic))
        assert np.array_equal(bits(model.topic_word), bits(plain.topic_word))
        for only_empty in ([[]], [[], []]):
            model = lda_fit(only_empty, 3, 5, cfg, seed=1)
            assert model.doc_topic.shape == (len(only_empty), 3) and not model.doc_topic.any()
            assert model.topic_word.shape == (3, 5) and not model.topic_word.any()

    @pytest.mark.parametrize("doc", [[0, -1, 1], [0, 2]], ids=["negative", "past-the-end"])
    def test_word_id_outside_vocabulary_rejected(self, doc):
        with pytest.raises(ValueError, match=r"document 0: word id -?\d outside \[0, 2\)"):
            lda_fit([doc], 2, 2, ReinforceConfig(lda_iters=1))

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

    @pytest.mark.parametrize("alpha", [None, 1.0], ids=["default", "alpha1"])
    def test_pure_documents_get_their_topic(self, alpha):
        documents, groups = self.make_documents()
        # all of u0's documents are group 0 and all of u1's are group 1, so
        # each utterance must come out uniformly labeled, with distinct topics
        # (as in TestLda.test_disjoint_vocabulary_pure)
        for seed in range(10):
            model = lda_fit(documents.docs, 2, 10, ReinforceConfig(lda_alpha=alpha), seed=seed)
            labels = relabel(documents, model)
            assert len(set(labels["u0"].token_ids())) == 1, seed
            assert len(set(labels["u1"].token_ids())) == 1, seed
            assert labels["u0"].token_ids()[0] != labels["u1"].token_ids()[0], seed

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
        # expected counts: most are not whole numbers
        assert np.mean(model.topic_word != np.round(model.topic_word)) > 0.5
        (tmp_path / "m.matl").write_bytes(matl_bytes(model))
        back = read_matl(tmp_path / "m.matl")
        assert back.n_topics == 3
        assert back.alpha == model.alpha and back.beta == model.beta
        assert back.seed == model.seed
        assert back.topic_word.dtype == back.doc_topic.dtype == np.float64
        assert np.array_equal(bits(back.topic_word), bits(model.topic_word))
        assert np.array_equal(bits(back.doc_topic), bits(model.doc_topic))
