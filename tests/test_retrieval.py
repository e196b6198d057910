import numpy as np
import pytest
from scipy.special import logsumexp

from acoustok.corpus import Corpus, FeatureSequence
from acoustok.initialization import cosine_similarity_matrix
from acoustok.labels import TokenLabelSequence
from acoustok import retrieval
from acoustok.tokenizer import GaussState, Granularity, LevelModel, TokenHmm
from acoustok.tokenizer import logsumexp as kernel_logsumexp
from acoustok.retrieval import (
    RankedList,
    RetrievalIndex,
    frame_cost_matrix,
    frame_scores,
    fuse_scores,
    mean_average_precision,
    rank_documents,
    read_rankings_tsv,
    read_relevance_csv,
    rankings_tsv,
    state_kl,
    subsequence_dtw,
    token_distance_matrix,
    token_scores,
)

from conftest import ragged_level_states, random_mixture


def closed_form_symmetric_kl(m1, v1, m2, v2):
    """Independent oracle: hand formula for symmetric diagonal-Gaussian KL."""
    def one_way(mp, vp, mq, vq):
        return 0.5 * np.sum(np.log(vq / vp) + (vp + (mp - mq) ** 2) / vq - 1.0)

    return one_way(m1, v1, m2, v2) + one_way(m2, v2, m1, v1)


def reference_state_kl(a, b):
    """Independent reference: the symmetric variational GMM KL (Hershey & Olsen,
    ICASSP 2007) of two states, one closed-form KL per component pair, term by
    term.  The library expands the closed form into a matrix product, which
    rounds differently; see KL_RTOL."""
    def component_kl(mp, vp, mq, vq):
        return 0.5 * np.sum(np.log(vq) - np.log(vp) + vp / vq + (mp - mq) ** 2 / vq - 1.0)

    def table(p, q):
        return np.array([[component_kl(mp, vp, mq, vq) for mq, vq in zip(q.means, q.variances)]
                         for mp, vp in zip(p.means, p.variances)])

    def directed(p, q):
        log_wp = np.log(np.maximum(p.weights, 1e-300))
        log_wq = np.log(np.maximum(q.weights, 1e-300))
        log_num = logsumexp(-table(p, p) + log_wp[None, :], axis=1)
        log_den = logsumexp(-table(p, q) + log_wq[None, :], axis=1)
        return float(np.sum(p.weights * (log_num - log_den)))

    return max(0.0, directed(a, b) + directed(b, a))


# the library's KL tables against reference_state_kl: the largest relative
# difference measured was 4.9e-15, over 10,000 ragged pairs at d < 40 and 40
# ragged levels of test_equals_reference_per_state_sum_on_ragged_level's shape
KL_RTOL = 1e-13


def single(mean, var):
    return GaussState(np.ones(1), np.asarray(mean, float)[None], np.asarray(var, float)[None])


class TestStateKl:
    def test_identical_states_zero(self):
        a = single([1.0, -2.0], [0.5, 2.0])
        b = single([1.0, -2.0], [0.5, 2.0])
        assert state_kl(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_unit_gaussians_one_apart(self):
        a = single([0.0], [1.0])
        b = single([1.0], [1.0])
        assert state_kl(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = single(rng.normal(size=3), rng.uniform(0.2, 2.0, 3))
            b = single(rng.normal(size=3), rng.uniform(0.2, 2.0, 3))
            assert state_kl(a, b) == state_kl(b, a)

    def test_matches_closed_form_random_pairs(self):
        rng = np.random.default_rng(1)
        for d in (1, 5):
            for _ in range(50):
                m1, m2 = rng.normal(size=(2, d))
                v1, v2 = rng.uniform(0.3, 3.0, size=(2, d))
                got = state_kl(single(m1, v1), single(m2, v2))
                want = closed_form_symmetric_kl(m1, v1, m2, v2)
                assert got == pytest.approx(want, abs=1e-9)

    def test_different_dimensions_rejected(self):
        with pytest.raises(ValueError, match="different feature dimensions"):
            state_kl(single([0.0, 1.0], [1.0, 1.0]), single([0.0], [1.0]))

    def test_equals_reference_on_ragged_mixtures(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(1, 40))
            a, b = (random_mixture(rng, int(rng.integers(1, 4)), d, zero_weight=True)
                    for _ in range(2))
            assert state_kl(a, b) == pytest.approx(reference_state_kl(a, b), rel=KL_RTOL)

    def test_gmm_reduces_to_zero_for_identical_mixtures(self):
        rng = np.random.default_rng(2)
        state = GaussState(
            np.array([0.3, 0.7]), rng.normal(size=(2, 4)), rng.uniform(0.5, 1.5, (2, 4))
        )
        other = GaussState(state.weights.copy(), state.means.copy(), state.variances.copy())
        assert state_kl(state, other) == pytest.approx(0.0, abs=1e-9)


def tiny_level_model(means_by_token, m=2, var=1.0):
    hmms = []
    for token, means in enumerate(means_by_token):
        states = [single(means[s], [var] * len(means[s])) for s in range(m)]
        trans = np.tile([0.5, 0.5], (m, 1))
        hmms.append(TokenHmm(token, states, trans))
    n = len(means_by_token)
    return LevelModel(Granularity(m, n), hmms, np.full(n, 1.0 / n))


def level_of(states):
    n, m = len(states), len(states[0])
    hmms = [TokenHmm(t, states[t], np.full((m, 2), 0.5)) for t in range(n)]
    return LevelModel(Granularity(m, n), hmms, np.full(n, 1.0 / n))


def reference_table(states):
    """S(i, j) as reference_state_kl's sum over state positions; 0 on the diagonal."""
    n, m = len(states), len(states[0])
    return np.array([[0.0 if i == j else sum(reference_state_kl(states[i][s], states[j][s])
                                              for s in range(m))
                      for j in range(n)] for i in range(n)])


def per_row_kls(states):
    """The KL kernel one state row at a time, on its own stacking of states:
    padded to their most components with weight 0, log-weight -inf, mean 0
    and variance 1, then the kernel's centring and expanded closed form, with
    each row's own product, log-sums and weighted sum."""
    n, c, d = len(states), max(st.n_components for st in states), states[0].dim
    weights, log_weights = np.zeros((n, c)), np.full((n, c), -np.inf)
    means, variances = np.zeros((n, c, d)), np.ones((n, c, d))
    for k, st in enumerate(states):
        weights[k, :st.n_components] = st.weights
        log_weights[k, :st.n_components] = np.log(np.maximum(st.weights, 1e-300))
        means[k, :st.n_components] = st.means
        variances[k, :st.n_components] = st.variances
    means = means - means[np.isfinite(log_weights)].mean(axis=0)
    inv_var, log_det = 1.0 / variances, np.sum(np.log(variances), axis=-1)
    left = np.concatenate([variances + means ** 2, means], axis=-1)
    right = np.concatenate([inv_var, -2.0 * means * inv_var], axis=-1).reshape(n * c, 2 * d).T
    const_q = (log_det + np.sum(means ** 2 * inv_var, axis=-1)).reshape(n * c)
    const_p = log_det + d
    out = np.empty((n, n))
    for i in range(n):
        pair_kl = 0.5 * (left[i] @ right + const_q - const_p[i][:, None])
        pair_kl = pair_kl.reshape(c, n, c).transpose(1, 0, 2)
        log_match = kernel_logsumexp(-pair_kl + log_weights[:, None, :], axis=-1)
        out[i] = np.sum(weights[i] * (log_match[i] - log_match), axis=-1)
    return out


def per_row_table(level):
    """The distance table of a level from per_row_kls, one state position at
    a time, each position stacked alone."""
    n, m = level.granularity.n, level.granularity.m
    S = np.zeros((n, n))
    for s in range(m):
        K = per_row_kls([hmm.states[s] for hmm in level.hmms])
        S += np.maximum(0.0, K + K.T)
    np.fill_diagonal(S, 0.0)
    return S


class TestDistanceMatrix:
    def test_single_token_zero_matrix(self):
        model = tiny_level_model([[[0.0], [1.0]]])
        S = token_distance_matrix(model)
        assert S.shape == (1, 1)
        assert S[0, 0] == 0.0

    def test_duplicate_tokens_zero(self):
        means = [[[0.0, 0.0], [1.0, 1.0]], [[0.0, 0.0], [1.0, 1.0]]]
        S = token_distance_matrix(tiny_level_model(means))
        assert S[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_hand_summed_closed_form(self):
        means = [[[0.0], [2.0]], [[1.0], [-1.0]]]
        S = token_distance_matrix(tiny_level_model(means, var=1.0))
        want = closed_form_symmetric_kl(
            np.array([0.0]), np.array([1.0]), np.array([1.0]), np.array([1.0])
        ) + closed_form_symmetric_kl(
            np.array([2.0]), np.array([1.0]), np.array([-1.0]), np.array([1.0])
        )
        assert S[0, 1] == pytest.approx(want, abs=1e-12)
        assert S[1, 0] == S[0, 1]

    def test_equals_reference_per_state_sum_on_ragged_level(self):
        rng = np.random.default_rng(7)
        states = ragged_level_states(rng, 6, 3, 13)
        np.testing.assert_allclose(token_distance_matrix(level_of(states)),
                                   reference_table(states), rtol=KL_RTOL, atol=0)

    def test_mean_shift_leaves_the_table_within_tolerance(self):
        """KL does not change when every mean moves by one offset.  The table
        centres each state position's means first, so the cancellation in its
        expanded closed form stays at the scale of the means' spread."""
        rng = np.random.default_rng(16)
        states = ragged_level_states(rng, 8, 2, 39)
        for shift in (0.0, 1e3):
            moved = [[GaussState(st.weights, st.means + shift, st.variances) for st in row]
                     for row in states]
            np.testing.assert_allclose(token_distance_matrix(level_of(moved)),
                                       reference_table(moved), rtol=KL_RTOL, atol=0)

    # 1 byte: one state row per block; 1 GiB: every row in one block
    @pytest.mark.parametrize("budget", [None, 1, 1 << 30])
    def test_row_blocks_equal_a_per_row_loop(self, monkeypatch, budget):
        rng = np.random.default_rng(17)
        wide = [[random_mixture(rng, 2, 39) for _ in range(2)] for _ in range(120)]
        # at the default budget the wide level's (n, c, n c) products span
        # several blocks
        assert 120 * 2 * 120 * 2 * 8 > retrieval.KERNEL_BLOCK_BYTES
        levels = [level_of(ragged_level_states(rng, 6, 3, 13)), level_of(wide)]
        if budget is not None:
            monkeypatch.setattr(retrieval, "KERNEL_BLOCK_BYTES", budget)
        for level in levels:
            assert np.array_equal(bits(token_distance_matrix(level)), bits(per_row_table(level)))

    def test_different_dimensions_in_a_level_rejected(self):
        with pytest.raises(ValueError, match="^token 1 state 1: states have different feature "
                                             "dimensions"):
            tiny_level_model([[[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0, 2.0]]])

    def test_properties_on_trained_style_model(self):
        rng = np.random.default_rng(3)
        means = [[[float(rng.normal())] for _ in range(3)] for _ in range(5)]
        S = token_distance_matrix(tiny_level_model(means, m=3))
        assert np.array_equal(S, S.T)
        assert np.all(np.diag(S) == 0.0)
        assert np.all(S >= 0.0)


def brute_force_subsequence_dtw(cost):
    """Independent oracle: enumerate every monotone path with free document
    endpoints and full query coverage."""
    D, Q = cost.shape
    best = [np.inf]

    def walk(i, j, acc):
        if j == Q - 1:
            best[0] = min(best[0], acc)
            # the path may still continue along the document axis, but any
            # extension only adds non-negative cost, so stopping here is optimal
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            ni, nj = i + di, j + dj
            if ni < D and nj < Q:
                walk(ni, nj, acc + cost[ni, nj])

    for start in range(D):
        walk(start, 0, cost[start, 0])
    return best[0] / Q


class TestTokenDtw:
    def test_all_zero_matrix(self):
        assert subsequence_dtw(np.zeros((4, 3))) == 0.0

    def test_single_query_token_is_min_entry(self):
        rng = np.random.default_rng(5)
        W = rng.uniform(0.5, 2.0, size=(6, 1))
        assert subsequence_dtw(W) == pytest.approx(W.min())

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            D = int(rng.integers(1, 7))
            Q = int(rng.integers(1, 5))
            W = np.round(rng.uniform(0, 2, size=(D, Q)), 2)
            assert subsequence_dtw(W) == pytest.approx(brute_force_subsequence_dtw(W), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(7)
        W = rng.uniform(0.1, 3.0, size=(5, 4))
        val = subsequence_dtw(W)
        assert 0.0 <= val <= W.max() * (W.shape[0] + W.shape[1])


def frame_score(query: np.ndarray, doc: np.ndarray) -> float:
    """Frame-DTW score of one document, through an index of one document."""
    index = RetrievalIndex({}, {}, {"d": FeatureSequence(doc, utterance_id="d")})
    return frame_scores(index, FeatureSequence(query, utterance_id="q"))["d"]


class TestFrameDtw:
    def test_query_is_slice_of_doc(self):
        rng = np.random.default_rng(8)
        doc = rng.normal(size=(30, 6))
        assert frame_score(doc[10:18].copy(), doc) == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_frames_cost_one(self):
        doc = np.tile([1.0, 0.0], (6, 1))
        query = np.tile([0.0, 1.0], (4, 1))
        assert frame_score(query, doc) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(9)
        doc = rng.normal(size=(20, 5))
        query = rng.normal(size=(7, 5))
        a = frame_score(query, doc)
        b = frame_score(query * 3.7, doc * 0.2)
        assert a == pytest.approx(b, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ: 4 vs 5"):
            frame_score(np.zeros((3, 4)), np.zeros((3, 5)))

    def test_cost_is_the_bootstrap_similarity_kernel(self):
        """The frame search and the bootstrap dotplot share one cosine kernel:
        off the diagonal, the cost is exactly 1 - the dotplot's similarity."""
        x = np.random.default_rng(12).normal(size=(30, 39))
        x[7] = 0.0  # a zero-norm frame
        off = ~np.eye(len(x), dtype=bool)
        cost = frame_cost_matrix(x, x)
        assert np.array_equal(cost[off], (1.0 - cosine_similarity_matrix(x))[off])
        assert np.all(cost[7] == 1.0) and np.all(cost[:, 7] == 1.0)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestDtwBlock:
    def test_first_cell_is_its_cost(self):
        """acc[0, 0] is cost[0, 0] itself, with no free-start term added."""
        assert bits(subsequence_dtw(np.array([[-0.0]]))) == bits(-0.0)

    def test_empty_rejected(self):
        for shape in ((0, 3), (3, 0)):
            with pytest.raises(ValueError, match="non-empty"):
                subsequence_dtw(np.zeros(shape))


def random_frames(rng, longest: int, dim: int) -> np.ndarray:
    """1 to `longest` random frames, about a fifth of them zero-norm."""
    frames = rng.normal(size=(int(rng.integers(1, longest + 1)), dim))
    frames[rng.random(len(frames)) < 0.2] = 0.0
    return frames


def random_index(rng, n_docs: int, dim: int = 4, longest: int = 8) -> RetrievalIndex:
    """Two levels of random tables over documents of 1 to `longest` tokens and
    frames, some frames zero-norm."""
    levels = {Granularity(2, 5): 5, Granularity(3, 7): 7}
    distances = {}
    for g, n in levels.items():
        S = rng.uniform(0, 3, size=(n, n))
        S = S + S.T
        np.fill_diagonal(S, 0.0)
        distances[g] = S
    doc_tokens = {f"d{i:02d}": {g: [int(t) for t in
                                    rng.integers(n, size=rng.integers(1, longest + 1))]
                                for g, n in levels.items()} for i in range(n_docs)}
    doc_features = {doc: FeatureSequence(random_frames(rng, longest, dim), utterance_id=doc)
                    for doc in doc_tokens}
    return RetrievalIndex(distances, doc_tokens, doc_features)


def per_document_token_scores(index, query):
    """Independent loop: one lookup and one DTW per document and level."""
    out = {}
    for doc, tokens in index.doc_tokens.items():
        total = 0.0
        for g in sorted(index.distances, key=lambda g: (g.m, g.n)):
            W = index.distances[g][np.array(tokens[g])[:, None], np.array(query[g])[None, :]]
            total += subsequence_dtw(W)
        out[doc] = total
    return out


def per_document_frame_scores(index, query):
    return {doc: subsequence_dtw(frame_cost_matrix(seq.frames, query.frames))
            for doc, seq in index.doc_features.items()}


class TestBlockedScores:
    # 1 byte: every document alone; 1 GiB: every document in one block
    @pytest.mark.parametrize("budget", [retrieval.KERNEL_BLOCK_BYTES, 1500, 1, 1 << 30])
    def test_scores_equal_a_per_document_loop(self, monkeypatch, budget):
        monkeypatch.setattr(retrieval, "KERNEL_BLOCK_BYTES", budget)
        rng = np.random.default_rng(15)
        # documents of 1-8 entries, then of 1-60 in shuffled order, which the
        # blocks visit in order of length
        for longest in (8, 60):
            index = random_index(rng, 17, longest=longest)
            frames = np.array([seq.n_frames for seq in index.doc_features.values()])
            assert np.any(np.diff(frames) < 0) and frames.max() >= 4 * frames.min()
            zero_queries = 0
            for _ in range(5):
                query = {g: [int(t) for t in rng.integers(S.shape[0], size=rng.integers(1, 6))]
                         for g, S in index.distances.items()}
                features = FeatureSequence(random_frames(rng, 5, 4))
                zero_queries += int(np.any(np.all(features.frames == 0.0, axis=1)))
                for got, want in ((token_scores(index, query),
                                   per_document_token_scores(index, query)),
                                  (frame_scores(index, features),
                                   per_document_frame_scores(index, features))):
                    assert list(got) == list(want)
                    assert np.array_equal(bits(list(got.values())), bits(list(want.values())))
            zero_docs = sum(np.any(np.all(seq.frames == 0.0, axis=1))
                            for seq in index.doc_features.values())
            assert zero_docs > 0 and zero_queries > 0

    @pytest.mark.parametrize("budget", [retrieval.KERNEL_BLOCK_BYTES, 1500, 1])
    def test_blocks_take_the_documents_in_order_of_length(self, monkeypatch, budget):
        """Each document once, in one block, the blocks in order of length:
        the documents' lengths are distinct and shuffled, and a block's
        column b holds a document of as many cells (i, 0) as it is long."""
        monkeypatch.setattr(retrieval, "KERNEL_BLOCK_BYTES", budget)
        real, blocks = retrieval._wavefront, []

        def spy(acc):
            # cell (i, 0) of column b is acc[i + 1, 1, b], +inf past the end
            blocks.append((len(acc), np.isfinite(acc[:, 1]).sum(axis=0).tolist()))
            return real(acc)
        monkeypatch.setattr(retrieval, "_wavefront", spy)
        rng = np.random.default_rng(17)
        g, S = Granularity(2, 5), rng.uniform(0, 3, size=(5, 5))
        tokens = rng.permutation(np.arange(1, 18))
        frames = rng.permutation(np.arange(1, 18) * 3)
        docs = [f"d{i:02d}" for i in range(17)]
        index = RetrievalIndex(
            {g: S}, {d: {g: list(rng.integers(5, size=n))} for d, n in zip(docs, tokens)},
            {d: FeatureSequence(random_frames(rng, 1, 4).repeat(n, axis=0), utterance_id=d)
             for d, n in zip(docs, frames)})
        for search, lengths in ((lambda: token_scores(index, {g: [1, 0, 2]}), tokens),
                                (lambda: frame_scores(index, FeatureSequence(
                                    random_frames(rng, 5, 4))), frames)):
            blocks.clear()
            search()
            rows = [r for r, _ in blocks]
            assert rows == sorted(rows)
            assert [n for _, cols in blocks for n in cols] == sorted(lengths.tolist())
            assert (len(blocks) == len(lengths)) == (budget == 1)

    def test_index_keeps_each_documents_frame_norms(self):
        index = random_index(np.random.default_rng(16), 9)
        assert len(index.frame_norms) == len(index.doc_features)
        for norms, seq in zip(index.frame_norms, index.doc_features.values()):
            assert np.array_equal(bits(norms), bits(np.linalg.norm(seq.frames, axis=1)))

    def test_a_zero_norm_frame_costs_one(self, monkeypatch):
        real, costs = retrieval._wavefront, []

        def spy(acc):
            # cell (i, j) of the only document is acc[i + j + 1, j + 1, 0]
            Q = acc.shape[1] - 1
            costs.append(np.array([[acc[i + j + 1, j + 1, 0] for j in range(Q)]
                                   for i in range(len(acc) - Q)]))
            return real(acc)
        monkeypatch.setattr(retrieval, "_wavefront", spy)
        rng = np.random.default_rng(18)
        doc, query = rng.normal(size=(6, 4)), rng.normal(size=(3, 4))
        doc[2] = 0.0
        frame_score(query, doc)
        assert np.all(costs[0][2] == 1.0)
        assert np.array_equal(bits(costs[0]), bits(frame_cost_matrix(doc, query)))

    @pytest.mark.parametrize("budget", [retrieval.KERNEL_BLOCK_BYTES, 1500, 1])
    def test_a_block_is_one_accumulator_within_the_budget(self, monkeypatch, budget):
        monkeypatch.setattr(retrieval, "KERNEL_BLOCK_BYTES", budget)
        real, blocks = retrieval._wavefront, []
        monkeypatch.setattr(retrieval, "_wavefront", lambda acc: blocks.append(acc) or real(acc))
        rng = np.random.default_rng(15)
        index = random_index(rng, 17)
        token_scores(index, {g: [1, 0, 2] for g in index.distances})
        frame_scores(index, FeatureSequence(random_frames(rng, 5, 4)))
        # two token levels and the frames, each over all 17 documents
        assert sum(acc.shape[2] for acc in blocks) == 3 * 17
        for acc in blocks:
            assert acc.flags.owndata and acc.flags.c_contiguous
            assert acc.shape[2] == 1 or acc.nbytes <= budget
        assert any(acc.shape[2] > 1 for acc in blocks) == (budget > 1)

    def test_small_budget_splits_the_documents(self, monkeypatch):
        monkeypatch.setattr(retrieval, "KERNEL_BLOCK_BYTES", 1500)
        real, blocks = retrieval._wavefront, []
        monkeypatch.setattr(retrieval, "_wavefront", lambda acc: blocks.append(acc) or real(acc))
        index = random_index(np.random.default_rng(15), 17)
        for g, S in index.distances.items():
            blocks.clear()
            token_scores(RetrievalIndex({g: S}, index.doc_tokens, {}), {g: [1, 0, 2]})
            assert len(blocks) > 2

    def test_document_feature_dimensions_checked_when_indexed(self):
        features = {doc: FeatureSequence(np.ones((3, dim)), utterance_id=doc)
                    for doc, dim in (("a", 4), ("b", 4), ("c", 5), ("d", 6))}
        with pytest.raises(ValueError, match="document c has feature dimension 5, "
                                             "the first document 4"):
            RetrievalIndex({}, {}, features)

    def test_document_tokens_checked_when_indexed(self):
        g = Granularity(2, 2)
        with pytest.raises(ValueError, match="out of range"):
            RetrievalIndex({g: np.zeros((2, 2))}, {"a": {g: [0, 2]}}, {})
        with pytest.raises(ValueError, match="document a has no tokens"):
            RetrievalIndex({g: np.zeros((2, 2))}, {"a": {g: []}}, {})


def level_model(g):
    """A level of g.n one-dimensional tokens of g.m states."""
    return tiny_level_model([[[float(t + s)] for s in range(g.m)] for t in range(g.n)], m=g.m)


def toy_index():
    """Two-level index over three documents; doc 'hit' contains the query's
    token sequence, doc 'miss' shares no tokens, doc 'part' shares some."""
    rng = np.random.default_rng(10)
    means = [[[float(4 * t)], [float(4 * t + 2)]] for t in range(4)]
    model = tiny_level_model(means, m=2)
    g1, g2 = Granularity(2, 4), Granularity(3, 4)
    model2 = LevelModel(
        g2,
        [TokenHmm(h.token_id, h.states + [h.states[-1]], np.tile([0.5, 0.5], (3, 1)))
         for h in model.hmms],
        model.prior,
    )
    distances = {g1: token_distance_matrix(model), g2: token_distance_matrix(model2)}
    doc_tokens = {
        "hit": {g1: [3, 1, 0, 2, 3], g2: [3, 1, 0, 2, 3]},
        "miss": {g1: [3, 3, 3], g2: [3, 3, 3]},
        "part": {g1: [1, 3, 2], g2: [1, 3, 2]},
    }
    return RetrievalIndex(distances, doc_tokens, {})


class TestRanking:
    def test_exact_sequence_ranked_first(self):
        index = toy_index()
        query = {g: [1, 0, 2] for g in index.distances}
        ranked = rank_documents(index, "q", query_tokens=query)
        assert ranked.entries[0][0] == "hit"
        assert ranked.entries[-1][0] == "miss"

    def test_ranking_matches_stream(self):
        index = toy_index()
        query = {g: [1, 0, 2] for g in index.distances}
        ranked = rank_documents(index, "q", query_tokens=query)
        stream = token_scores(index, query)
        assert [d for d, _ in ranked.entries] == sorted(stream, key=lambda d: (stream[d], d))

    def test_fusion_of_identical_streams_keeps_order(self):
        index = toy_index()
        query = {g: [1, 0, 2] for g in index.distances}
        stream = token_scores(index, query)
        fused = fuse_scores([stream, stream])
        assert all(fused[d] == pytest.approx(stream[d]) for d in stream)

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [1.0, -1.0], [2.0, -1.0]])
    def test_fusion_weights_must_be_non_negative_with_positive_sum(self, weights):
        stream = {"a": 1.0, "b": 2.0}
        with pytest.raises(ValueError, match="fusion weights must be non-negative"):
            fuse_scores([stream, stream], weights)

    def test_ties_broken_by_document_id(self):
        index = RetrievalIndex(
            {Granularity(2, 2): np.zeros((2, 2))},
            {"b": {Granularity(2, 2): [0]}, "a": {Granularity(2, 2): [1]}},
            {},
        )
        out = rank_documents(index, "q", query_tokens={Granularity(2, 2): [0]})
        assert [d for d, _ in out.entries] == ["a", "b"]

    def test_out_of_range_query_id_rejected(self):
        index = toy_index()
        for bad in (4, -1):
            with pytest.raises(ValueError, match=r"token id out of range \[0, 4\)"):
                token_scores(index, {g: [0, bad] for g in index.distances})

    def test_fusion_keeps_the_first_streams_order(self):
        docs = [f"d{i}" for i in (3, 0, 2, 1, 4)]
        token = {d: float(i) for i, d in enumerate(docs)}
        frame = {d: 1.0 for d in sorted(docs)}
        assert list(fuse_scores([token, frame])) == docs

    def test_built_index_keeps_one_document_order(self):
        g = Granularity(2, 4)
        model = tiny_level_model([[[float(t)], [float(t + 1)]] for t in range(4)])
        ids = ["d2", "d0", "d1"]
        labels = {g: {u: TokenLabelSequence(u, [(i, 0, 3)]) for i, u in enumerate(ids)}}
        corpus = Corpus([FeatureSequence(np.ones((3, 2)), utterance_id=u) for u in ids])
        index = RetrievalIndex.build({g: model}, labels, corpus)
        assert list(index.doc_tokens) == list(index.doc_features) == sorted(ids)
        with pytest.raises(ValueError, match="^the corpus lacks the labelled document d2$"):
            RetrievalIndex.build({g: model}, labels, Corpus(corpus.utterances[:2]))

    def test_built_index_views_the_rows_of_a_corpus_holding_more(self):
        # the corpus holds a query besides the two labelled documents
        g = Granularity(2, 4)
        model = tiny_level_model([[[float(t)], [float(t + 1)]] for t in range(4)])
        rng = np.random.default_rng(19)
        corpus = Corpus([FeatureSequence(rng.normal(size=(3 + i, 2)), utterance_id=u)
                         for i, u in enumerate(["d0", "d1", "q0"])])
        labels = {g: {u: TokenLabelSequence(u, [(i, 0, 3 + i)]) for i, u in enumerate(["d0", "d1"])}}
        index = RetrievalIndex.build({g: model}, labels, corpus)
        assert list(index.doc_features) == ["d0", "d1"]
        for utt, seq in index.doc_features.items():
            assert np.shares_memory(seq.frames, corpus.frames)
            assert np.array_equal(seq.frames, corpus[utt].frames)
        # the same scores as the index of a corpus of the documents alone
        alone = RetrievalIndex.build({g: model}, labels, Corpus([corpus["d0"], corpus["d1"]]))
        got, want = frame_scores(index, corpus["q0"]), frame_scores(alone, corpus["q0"])
        assert list(got) == list(want)
        assert np.array_equal(bits(list(got.values())), bits(list(want.values())))

    @pytest.mark.parametrize("modelled, labelled, lacks", [
        ([(2, 2), (3, 3)], [(2, 2)], "a model but no labels"),
        ([(2, 2)], [(2, 2), (3, 3)], "labels but no model"),
    ])
    def test_build_rejects_a_level_the_other_side_lacks(self, modelled, labelled, lacks):
        models = {Granularity(*g): level_model(Granularity(*g)) for g in modelled}
        labels = {Granularity(*g): {"a": TokenLabelSequence("a", [(0, 0, 3)])} for g in labelled}
        with pytest.raises(ValueError, match=rf"level Granularity\(m=3, n=3\) has {lacks}"):
            RetrievalIndex.build(models, labels)

    def test_build_rejects_a_document_one_level_lacks(self):
        models = {g: level_model(g) for g in (Granularity(2, 2), Granularity(3, 3))}
        labels = {g: {u: TokenLabelSequence(u, [(0, 0, 3)]) for u in docs}
                  for g, docs in zip(models, (["a", "b"], ["a"]))}
        with pytest.raises(ValueError, match=r"the labels at level Granularity\(m=3, n=3\) "
                                             "cover different documents"):
            RetrievalIndex.build(models, labels)

    def test_build_rejects_no_levels(self):
        with pytest.raises(ValueError, match="no levels to index"):
            RetrievalIndex.build({}, {})

    def test_missing_level_rejected(self):
        index = toy_index()
        with pytest.raises(ValueError, match="missing level"):
            token_scores(index, {g: [0] for g in list(index.distances)[1:]})

    def test_query_without_tokens_at_a_level_rejected(self):
        index = toy_index()
        query = {g: [1, 0, 2] for g in index.distances} | {Granularity(3, 4): []}
        with pytest.raises(ValueError,
                           match=r"query has no tokens at level Granularity\(m=3, n=4\)"):
            token_scores(index, query)


class TestMeanAveragePrecision:
    def test_all_relevant_first(self):
        lists = [RankedList("q", [("a", 0.1), ("b", 0.2), ("c", 0.3)])]
        rel = {"q": {"a": 1, "b": 1, "c": 0}}
        assert mean_average_precision(lists, rel) == 1.0

    def test_hand_case(self):
        lists = [RankedList("q", [(d, i * 0.1) for i, d in enumerate("abcde")])]
        rel = {"q": {"a": 1, "b": 0, "c": 1, "d": 0, "e": 0}}
        assert mean_average_precision(lists, rel) == pytest.approx((1.0 + 2 / 3) / 2, abs=1e-6)

    def test_single_relevant_at_rank_r(self):
        for r in (1, 2, 5):
            docs = [(f"d{i}", i * 1.0) for i in range(5)]
            rel = {"q": {f"d{i}": int(i == r - 1) for i in range(5)}}
            assert mean_average_precision([RankedList("q", docs)], rel) == pytest.approx(1 / r)

    def test_queries_without_relevant_excluded(self):
        lists = [
            RankedList("q1", [("a", 0.0), ("b", 1.0)]),
            RankedList("q2", [("a", 0.0), ("b", 1.0)]),
        ]
        rel = {"q1": {"a": 1, "b": 0}, "q2": {"a": 0, "b": 0}}
        assert mean_average_precision(lists, rel) == 1.0

    def test_no_queries_left_is_error(self):
        lists = [RankedList("q", [("a", 0.0)])]
        with pytest.raises(ValueError, match="no queries"):
            mean_average_precision(lists, {"q": {"a": 0}})

    def test_missing_bit_is_error(self):
        lists = [RankedList("q", [("a", 0.0)])]
        with pytest.raises(ValueError, match="no relevance bit"):
            mean_average_precision(lists, {"q": {}})

    def test_repeated_document_is_error(self):
        """Read as listed, a, a, b with a relevant would score AP 1.0."""
        lists = [RankedList("q", [("a", 0.1), ("a", 0.2), ("b", 0.3)])]
        with pytest.raises(ValueError, match="query q lists document a twice"):
            mean_average_precision(lists, {"q": {"a": 1, "b": 0}})


class TestFiles:
    def test_rankings_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        lists = []
        for q in ("q1", "q0"):
            scores = sorted(rng.uniform(0, 3, size=6))
            docs = [f"d{i}" for i in rng.permutation(6)]
            lists.append(RankedList(q, list(zip(docs, scores))))
        (tmp_path / "r.tsv").write_text(rankings_tsv(lists))
        back = read_rankings_tsv(tmp_path / "r.tsv")
        assert [r.query_id for r in back] == ["q1", "q0"]
        for got, want in zip(back, lists):
            assert got.entries == want.entries

    def test_ranking_tsv_and_relevance_csv(self, tmp_path):
        lists = [RankedList("q", [("a", 0.25), ("b", 1.5)])]
        (tmp_path / "r.tsv").write_text(rankings_tsv(lists))
        lines = (tmp_path / "r.tsv").read_text().splitlines()
        assert lines[0] == "query_id\tdoc_id\trank\tscore"
        assert lines[1].startswith("q\ta\t1\t")

        (tmp_path / "rel.csv").write_text("query_id,doc_id,rel\nq,a,1\nq,b,0\n")
        rel = read_relevance_csv(tmp_path / "rel.csv")
        assert rel == {"q": {"a": 1, "b": 0}}
