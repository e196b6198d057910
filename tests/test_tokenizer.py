import itertools

import numpy as np
import pytest
from scipy.special import logsumexp

import acoustok.tokenizer as tok
from acoustok.corpus import Corpus, FeatureSequence, SynthSpec, synthesize_corpus
from acoustok.labels import TokenLabelSequence
from acoustok.tokenizer import (
    GaussState,
    Granularity,
    GranularityGrid,
    LevelModel,
    TokenHmm,
    TokenizerConfig,
    component_log_joints,
    corpus_log_likelihood,
    decode_level,
    decode_utterance,
    flat_start_model,
    matm_bytes,
    read_matm,
    run_level,
    run_mat,
    segment_forward_ll,
    train_level_hmms,
)

from conftest import frame_error_rate, oracle_level_model


# ---------------------------------------------------------------------------
# independent oracle: exhaustive enumeration of every labeling and state path
# ---------------------------------------------------------------------------

def _oracle_gauss_logpdf(x, mean, var):
    return float(
        -0.5 * np.sum((x - mean) ** 2 / var + np.log(var) + np.log(2 * np.pi))
    )


def _oracle_span_score(model, frames, token, start, end):
    """Best state-path score of frames[start:end] under one token HMM,
    enumerating every monotone path from state 0 to state m-1."""
    hmm = model.hmms[token]
    m = len(hmm.states)
    L = end - start
    if L < m:
        return -np.inf
    log_self = np.log(hmm.transitions[:, 0])
    log_adv = np.log(hmm.transitions[:, 1])
    emis = np.array(
        [
            [
                _oracle_gauss_logpdf(frames[start + t], s.means[0], s.variances[0])
                for s in hmm.states
            ]
            for t in range(L)
        ]
    )
    best = -np.inf
    for advances in itertools.combinations(range(L - 1), m - 1):
        ai = set(advances)
        state = 0
        score = emis[0, 0]
        for t in range(1, L):
            if (t - 1) in ai:
                score += log_adv[state]
                state += 1
            else:
                score += log_self[state]
            score += emis[t, state]
        score += log_adv[m - 1]
        best = max(best, score)
    return best


def oracle_best_labeling(model, frames, lm_scale=1.0):
    """Argmax over every tiling and token assignment by direct enumeration."""
    T = len(frames)
    n = model.granularity.n
    log_prior = lm_scale * np.log(np.maximum(model.prior, 1e-10))
    span_cache = {}

    def span(token, a, b):
        key = (token, a, b)
        if key not in span_cache:
            span_cache[key] = _oracle_span_score(model, frames, token, a, b)
        return span_cache[key]

    best = [-np.inf, None]

    def recurse(pos, segs, score):
        if pos == T:
            if score > best[0]:
                best[0] = score
                best[1] = list(segs)
            return
        for end in range(pos + 1, T + 1):
            for token in range(n):
                s = span(token, pos, end)
                if s == -np.inf:
                    continue
                segs.append((token, pos, end))
                recurse(end, segs, score + s + log_prior[token])
                segs.pop()

    recurse(0, [], 0.0)
    return best[1], best[0]


def random_instance(rng, T=None, n=None, m=None):
    n = n or int(rng.integers(1, 3))
    m = m or int(rng.integers(1, 3))
    T = T or int(rng.integers(m, 9))
    d = 2
    frames = rng.normal(0, 2.0, size=(T, d))
    hmms = []
    for token in range(n):
        states = [
            GaussState.single(rng.normal(0, 2.0, d), rng.uniform(0.5, 2.0, d))
            for _ in range(m)
        ]
        self_p = rng.uniform(0.2, 0.8, size=m)
        trans = np.stack([self_p, 1 - self_p], axis=1)
        hmms.append(TokenHmm(token, states, trans))
    prior = rng.dirichlet(np.ones(n))
    return LevelModel(Granularity(m, n), hmms, prior), frames


class TestViterbiOracle:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(1000)
        for _ in range(30):
            model, frames = random_instance(rng)
            got = decode_utterance(model, frames)
            want, _ = oracle_best_labeling(model, frames)
            assert got == want

    def test_score_matches_enumeration(self):
        rng = np.random.default_rng(2000)
        for _ in range(10):
            model, frames = random_instance(rng)
            segs = decode_utterance(model, frames)
            corpus = Corpus([FeatureSequence(frames, utterance_id="u")])
            ll = corpus_log_likelihood(
                model, corpus, {"u": TokenLabelSequence("u", segs)}, method="viterbi"
            )
            _, want = oracle_best_labeling(model, frames)
            assert ll == pytest.approx(want, abs=1e-8)


# ---------------------------------------------------------------------------
# independent reference: the mixture density of one state at a time
# ---------------------------------------------------------------------------

def reference_state_joint(state, frames):
    """Independent reference: one state's (T, c) component log-joints by the
    per-state formula, with the same element-wise operations as the batched
    kernel, so the two agree bit for bit."""
    diff = frames[:, None, :] - state.means[None, :, :]
    quad = np.sum(diff * diff / state.variances[None, :, :], axis=2)
    logdet = np.sum(np.log(state.variances), axis=1)
    comp = -0.5 * (quad + logdet + state.dim * np.log(2.0 * np.pi))
    return comp + np.log(np.maximum(state.weights, 1e-300))[None, :]


def random_token(rng, components, d, zero_weight=False):
    states = []
    for c in components:
        weights = rng.dirichlet(np.ones(c))
        if zero_weight and c > 1:
            weights[rng.integers(c)] = 0.0
        states.append(GaussState(weights, 2.0 * rng.normal(size=(c, d)),
                                 rng.uniform(0.1, 3.0, (c, d))))
    return TokenHmm(0, states, np.full((len(components), 2), 0.5))


# component counts per state, feature dimension, zero-weight components
KERNEL_CASES = pytest.mark.parametrize("components, d, zero_weight", [
    ((4, 4, 4), 6, False),          # equal counts
    ((1, 3, 7, 2), 8, False),       # ragged: padded to 7
    ((2, 5, 1), 39, False),         # ragged at d = 39
    ((8, 8), 39, True),             # equal counts of 8 with zero weights
    ((3, 6, 4, 5, 1), 6, True),     # ragged with zero weights
])


class TestMixtureKernel:
    @KERNEL_CASES
    def test_joints_equal_the_per_state_formula(self, components, d, zero_weight):
        rng = np.random.default_rng(sum(components) * d)
        hmm = random_token(rng, components, d, zero_weight)
        frames = 2.0 * rng.normal(size=(17, d))
        joint = component_log_joints(hmm.states, frames)
        assert joint.shape == (17, len(components), max(components))
        for s, (state, c) in enumerate(zip(hmm.states, components)):
            assert np.array_equal(joint[:, s, :c], reference_state_joint(state, frames))
            assert np.all(joint[:, s, c:] == -np.inf)  # padding adds nothing

    @KERNEL_CASES
    def test_densities_and_posteriors_equal_the_per_state_formula(self, components, d,
                                                                  zero_weight):
        rng = np.random.default_rng(sum(components) * d + 1)
        hmm = random_token(rng, components, d, zero_weight)
        frames = 2.0 * rng.normal(size=(23, d))
        ref_joint = [reference_state_joint(state, frames) for state in hmm.states]
        ref_emis = np.stack([logsumexp(j, axis=1) for j in ref_joint], axis=1)
        assert np.array_equal(hmm.emission_matrix(frames), ref_emis)
        for s, state in enumerate(hmm.states):
            assert np.array_equal(state.log_density(frames), ref_emis[:, s])
        emis, post = tok._span_posteriors(hmm, frames)
        assert np.array_equal(emis, ref_emis)
        for s, c in enumerate(components):
            assert np.array_equal(post[:, s, :c], np.exp(ref_joint[s] - ref_emis[:, s, None]))
            assert not post[:, s, c:].any()

    def test_padding_to_eight_or_more_components_agrees_to_rounding(self):
        # numpy sums 8 or more terms pairwise, so a state padded from 7 to 8
        # components is summed in another grouping and may differ in the last
        # bit; equal weights and nearby means make such frames common
        rng = np.random.default_rng(0)
        states = [GaussState(np.full(c, 1.0 / c), 0.1 * rng.normal(size=(c, 6)), np.ones((c, 6)))
                  for c in (8, 7)]
        hmm = TokenHmm(0, states, np.full((2, 2), 0.5))
        frames = rng.normal(size=(40, 6))
        ref = logsumexp(reference_state_joint(hmm.states[1], frames), axis=1)
        np.testing.assert_allclose(hmm.emission_matrix(frames)[:, 1], ref, rtol=1e-14, atol=0)

    def test_emission_table_is_one_kernel_call_per_token(self, monkeypatch):
        model, frames = random_instance(np.random.default_rng(3), T=6, n=3, m=2)
        calls = []
        real = tok.component_log_joints

        def spy(states, frames):
            calls.append((len(states), len(frames)))
            return real(states, frames)

        monkeypatch.setattr(tok, "component_log_joints", spy)
        decode_utterance(model, frames)
        assert calls == [(2, 6)] * 3


class TestGrid:
    def test_standard_grid_has_16_levels(self):
        grid = GranularityGrid((3, 5, 7, 9), (50, 100, 300, 500))
        assert grid.n_levels == 16
        assert len(grid.levels()) == 16

    def test_increasing_enforced(self):
        with pytest.raises(ValueError):
            GranularityGrid((5, 3), (10,))
        with pytest.raises(ValueError):
            GranularityGrid((), (10,))


def whole_utterance_labels(corpus, token=0):
    return {
        utt: TokenLabelSequence(utt, [(token, 0, corpus[utt].n_frames)])
        for utt in corpus.ids()
    }


class TestTraining:
    def test_m1_n1_mean_is_global_mean(self):
        rng = np.random.default_rng(5)
        corpus = Corpus([FeatureSequence(rng.normal(size=(30, 4)), utterance_id="u")])
        labels = whole_utterance_labels(corpus)
        model = train_level_hmms(corpus, labels, Granularity(1, 1))
        got = model.hmms[0].states[0].means[0]
        assert np.max(np.abs(got - corpus["u"].frames.mean(axis=0))) < 1e-6

    def test_recovers_generator_means(self, recovery_corpus):
        spec, corpus, truth = recovery_corpus
        model = train_level_hmms(
            corpus, truth.label_set(), Granularity(spec.states_per_token, spec.n_tokens),
            TokenizerConfig(em_iters=20, em_tol=1e-5),
        )
        for token in range(spec.n_tokens):
            for s in range(spec.states_per_token):
                true_mean = spec.state_mean(token, s)
                got = model.hmms[token].states[s].means[0]
                err = np.max(np.abs(got - true_mean))
                assert err < 0.2 * spec.emission_std, (token, s, err)

    def test_beats_flat_start(self, small_corpus):
        spec, corpus, truth = small_corpus
        g = Granularity(spec.states_per_token, spec.n_tokens)
        labels = truth.label_set()
        trained = train_level_hmms(corpus, labels, g)
        flat = flat_start_model(corpus, labels, g)
        assert corpus_log_likelihood(trained, corpus, labels) >= corpus_log_likelihood(
            flat, corpus, labels
        )

    def test_short_segments_do_not_crash(self):
        rng = np.random.default_rng(6)
        corpus = Corpus([FeatureSequence(rng.normal(size=(10, 3)), utterance_id="u")])
        labels = {"u": TokenLabelSequence("u", [(0, 0, 1), (1, 1, 2), (0, 2, 10)])}
        model = train_level_hmms(corpus, labels, Granularity(3, 2))
        assert len(model.hmms) == 2

    def test_dead_token_reseeded(self):
        rng = np.random.default_rng(7)
        corpus = Corpus([FeatureSequence(rng.normal(size=(20, 3)), utterance_id="u")])
        labels = whole_utterance_labels(corpus, token=0)
        model = train_level_hmms(corpus, labels, Granularity(2, 2))
        assert model.prior[1] == 0.0
        live = model.hmms[0].states[0]
        dead = model.hmms[1].states[0]
        assert np.allclose(dead.means, live.means + 0.1 * np.sqrt(live.variances))

    def test_mixture_schedule_grows_components(self, small_corpus):
        spec, corpus, truth = small_corpus
        cfg = TokenizerConfig(em_iters=6, mixture_schedule=(2, 4))
        model = train_level_hmms(
            corpus, truth.label_set(), Granularity(3, spec.n_tokens), cfg
        )
        for hmm in model.hmms:
            for state in hmm.states:
                assert state.n_components == 4
                assert state.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_mixture_schedule_not_repeated_on_warm_starts(self, small_corpus):
        spec, corpus, truth = small_corpus
        cfg = TokenizerConfig(em_iters=6, mixture_schedule=(2, 4), outer_iters=3)
        model, _, trace = run_level(corpus, truth.label_set(), Granularity(3, spec.n_tokens), cfg)
        assert len(trace) >= 4  # trained at least twice, warm-started after the first
        for hmm in model.hmms:
            assert [s.n_components for s in hmm.states] == [4, 4, 4]

    def test_one_density_evaluation_per_token_and_state(self, monkeypatch):
        spec = SynthSpec(n_tokens=3, states_per_token=3, dim=4, n_utterances=6)
        corpus, truth = synthesize_corpus(spec, seed=8)
        labels = truth.label_set()
        g = Granularity(3, spec.n_tokens)
        init = flat_start_model(corpus, labels, g)
        calls = []
        real = tok.component_log_joints

        def spy(states, frames):
            calls.append(len(states) * len(frames))
            return real(states, frames)

        monkeypatch.setattr(tok, "component_log_joints", spy)
        train_level_hmms(corpus, labels, g, TokenizerConfig(em_iters=1), init_model=init)
        segments = [seg for seq in labels.values() for seg in seq.segments]
        tokens_with_spans = len({token for token, _, _ in segments})
        labelled_frames = sum(end - start for _, start, end in segments)
        assert len(calls) == tokens_with_spans
        assert sum(calls) == labelled_frames * g.m

    def test_order_independent(self, small_corpus):
        spec, corpus, truth = small_corpus
        g = Granularity(3, spec.n_tokens)
        labels = truth.label_set()
        m1 = train_level_hmms(corpus, labels, g)
        shuffled = Corpus(list(reversed(corpus.utterances)), dict(corpus.speakers))
        m2 = train_level_hmms(shuffled, labels, g)
        for h1, h2 in zip(m1.hmms, m2.hmms):
            assert np.array_equal(h1.transitions, h2.transitions)
            for s1, s2 in zip(h1.states, h2.states):
                assert np.array_equal(s1.means, s2.means)
                assert np.array_equal(s1.variances, s2.variances)

    def test_transition_rows_normalized(self, small_corpus):
        spec, corpus, truth = small_corpus
        model = train_level_hmms(corpus, truth.label_set(), Granularity(3, spec.n_tokens))
        for hmm in model.hmms:
            assert np.max(np.abs(hmm.transitions.sum(axis=1) - 1.0)) < 1e-9


class TestLikelihood:
    def test_empty_corpus_zero(self):
        model, _ = random_instance(np.random.default_rng(1), T=4, n=1, m=1)
        assert corpus_log_likelihood(model, Corpus([]), {}) == 0.0

    def test_single_frame_hand_formula(self):
        d = 3
        x = np.array([0.5, -1.0, 2.0])
        state = GaussState.single(x.copy(), np.full(d, 1.5))
        hmm = TokenHmm(0, [state], np.array([[0.3, 0.7]]))
        model = LevelModel(Granularity(1, 1), [hmm], np.array([1.0]))
        corpus = Corpus([FeatureSequence(x[None, :], utterance_id="u")])
        labels = {"u": TokenLabelSequence("u", [(0, 0, 1)])}
        got = corpus_log_likelihood(model, corpus, labels)
        want = -0.5 * d * np.log(2 * np.pi * 1.5) + np.log(0.7) + np.log(1.0)
        assert got == pytest.approx(want, abs=1e-12)

    def test_additive_over_utterances(self):
        rng = np.random.default_rng(9)
        model, _ = random_instance(rng, T=6, n=2, m=2)
        f1 = rng.normal(size=(6, 2))
        f2 = rng.normal(size=(5, 2))
        c1 = Corpus([FeatureSequence(f1, utterance_id="a")])
        c2 = Corpus([FeatureSequence(f2, utterance_id="b")])
        both = Corpus(
            [FeatureSequence(f1, utterance_id="a"), FeatureSequence(f2, utterance_id="b")]
        )
        la = {"a": TokenLabelSequence("a", [(0, 0, 3), (1, 3, 6)])}
        lb = {"b": TokenLabelSequence("b", [(1, 0, 5)])}
        assert corpus_log_likelihood(model, both, {**la, **lb}) == pytest.approx(
            corpus_log_likelihood(model, c1, la) + corpus_log_likelihood(model, c2, lb)
        )

    def test_unknown_method_rejected(self):
        model, frames = random_instance(np.random.default_rng(13), T=4, n=1, m=1)
        corpus = Corpus([FeatureSequence(frames, utterance_id="u")])
        labels = {"u": TokenLabelSequence("u", [(0, 0, 4)])}
        with pytest.raises(ValueError, match="Forward"):
            corpus_log_likelihood(model, corpus, labels, method="Forward")

    def test_short_segment_is_minus_inf(self):
        model, frames = random_instance(np.random.default_rng(10), T=4, n=1, m=2)
        assert segment_forward_ll(model.hmms[0], frames[:1]) == -np.inf


class TestDecode:
    def test_single_token_model_labels_everything(self):
        rng = np.random.default_rng(11)
        model, _ = random_instance(rng, T=8, n=1, m=2)
        frames = rng.normal(size=(12, 2))
        segs = decode_utterance(model, frames)
        assert all(s[0] == 0 for s in segs)
        assert segs[0][1] == 0 and segs[-1][2] == 12

    def test_oracle_model_high_accuracy(self, small_corpus):
        spec, corpus, truth = small_corpus
        labels = decode_level(oracle_level_model(spec), corpus)
        assert frame_error_rate(labels, truth) <= 0.05

    def test_labels_tile_and_in_range(self):
        rng = np.random.default_rng(12)
        model, _ = random_instance(rng, T=8, n=2, m=2)
        corpus = Corpus(
            [FeatureSequence(rng.normal(size=(T, 2)), utterance_id=f"u{T}") for T in (5, 9, 17)]
        )
        labels = decode_level(model, corpus)
        for utt in corpus.ids():
            assert labels[utt].n_frames == corpus[utt].n_frames
            assert all(t < 2 for t in labels[utt].token_ids())


class TestRunLevel:
    def test_trace_monotone(self, small_corpus):
        spec, corpus, truth = small_corpus
        from acoustok.initialization import make_initial_labels

        init = make_initial_labels(corpus, {spec.n_tokens: 0})[spec.n_tokens]
        _, _, trace = run_level(corpus, init, Granularity(3, spec.n_tokens))
        values = [v for _, v in trace]
        for prev, cur in zip(values, values[1:]):
            if prev == -np.inf:
                continue
            assert cur >= prev - 1e-6

    def test_fixpoint_returns_immediately(self, small_corpus):
        spec, corpus, truth = small_corpus
        g = Granularity(3, spec.n_tokens)
        _, final_labels, _ = run_level(corpus, truth.label_set(), g)
        _, again, trace = run_level(corpus, final_labels, g)
        assert len(trace) == 2  # one train half-step + one decode half-step
        for utt in corpus.ids():
            assert again[utt].segments == final_labels[utt].segments

    def test_decode_steps_non_decreasing(self, small_corpus):
        spec, corpus, truth = small_corpus
        from acoustok.initialization import make_initial_labels

        init = make_initial_labels(corpus, {spec.n_tokens: 1})[spec.n_tokens]
        _, _, trace = run_level(corpus, init, Granularity(3, spec.n_tokens))
        decode_lls = [v for step, v in trace if step == "decode"]
        for prev, cur in zip(decode_lls, decode_lls[1:]):
            assert cur >= prev - 1e-6

    def test_one_emission_table_per_utterance_outside_training(self, small_corpus, monkeypatch):
        spec, corpus, truth = small_corpus
        g = Granularity(3, spec.n_tokens)

        calls = {"train": 0, "other": 0}
        training = []
        real_density = tok.component_log_joints
        real_train = tok.train_level_hmms

        def density_spy(states, frames):
            calls["train" if training else "other"] += len(states)
            return real_density(states, frames)

        def train_spy(*args, **kwargs):
            training.append(True)
            try:
                return real_train(*args, **kwargs)
            finally:
                training.pop()

        monkeypatch.setattr(tok, "component_log_joints", density_spy)
        monkeypatch.setattr(tok, "train_level_hmms", train_spy)
        run_level(corpus, truth.label_set(), g, TokenizerConfig(outer_iters=1, em_iters=1))
        assert calls["train"] > 0
        assert calls["other"] == len(corpus) * g.n * g.m

    def test_last_trace_value_is_corpus_log_likelihood(self, small_corpus):
        spec, corpus, truth = small_corpus
        from acoustok.initialization import make_initial_labels

        cfg = TokenizerConfig(outer_iters=2, lm_scale=0.5)
        init = make_initial_labels(corpus, {spec.n_tokens: 2})[spec.n_tokens]
        model, labels, trace = run_level(corpus, init, Granularity(3, spec.n_tokens), cfg)
        assert trace[-1] == ("decode", corpus_log_likelihood(model, corpus, labels, cfg.lm_scale))


class TestRunMat:
    def test_single_level_matches_run_level(self, small_corpus):
        spec, corpus, truth = small_corpus
        grid = GranularityGrid((3,), (spec.n_tokens,))
        init = {spec.n_tokens: truth.label_set()}
        models, labels = run_mat(corpus, grid, init)
        g = Granularity(3, spec.n_tokens)
        _, direct_labels, _ = run_level(corpus, truth.label_set(), g)
        for utt in corpus.ids():
            assert labels[g][utt].segments == direct_labels[utt].segments

    def test_level_count_and_shared_init(self, small_corpus):
        spec, corpus, truth = small_corpus
        grid = GranularityGrid((2, 3), (3, 4))
        from acoustok.initialization import make_initial_labels

        init = make_initial_labels(corpus, {n: 0 for n in grid.phonetic})
        models, labels = run_mat(corpus, grid, init, TokenizerConfig(outer_iters=2, em_iters=3))
        assert set(models) == set(grid.levels())
        assert all(models[g].granularity == g for g in grid.levels())

    def test_missing_init_rejected(self, small_corpus):
        spec, corpus, _ = small_corpus
        with pytest.raises(ValueError, match="missing initial labels"):
            run_mat(corpus, GranularityGrid((3,), (4,)), {})

    def test_same_n_shares_initialization(self, small_corpus, monkeypatch):
        spec, corpus, truth = small_corpus
        seen = []

        import acoustok.tokenizer as tok

        real = tok.run_level

        def spy(corpus_, init_labels, g, cfg=None):
            seen.append((g, id(init_labels)))
            return real(corpus_, init_labels, g, cfg or TokenizerConfig(outer_iters=1, em_iters=1))

        monkeypatch.setattr(tok, "run_level", spy)
        grid = GranularityGrid((2, 3), (spec.n_tokens,))
        run_mat(corpus, grid, {spec.n_tokens: truth.label_set()},
                TokenizerConfig(outer_iters=1, em_iters=1))
        ids = {g: label_id for g, label_id in seen}
        assert ids[Granularity(2, spec.n_tokens)] == ids[Granularity(3, spec.n_tokens)]


class TestModelFile:
    def test_roundtrip(self, small_corpus, tmp_path):
        spec, corpus, truth = small_corpus
        cfg = TokenizerConfig(em_iters=4, mixture_schedule=(2,))
        model = train_level_hmms(corpus, truth.label_set(), Granularity(2, spec.n_tokens), cfg)
        (tmp_path / "m.matm").write_bytes(matm_bytes(model))
        back = read_matm(tmp_path / "m.matm")
        assert back.granularity == model.granularity
        assert np.array_equal(back.prior, model.prior)
        for h1, h2 in zip(model.hmms, back.hmms):
            assert np.array_equal(h1.transitions, h2.transitions)
            for s1, s2 in zip(h1.states, h2.states):
                assert np.array_equal(s1.weights, s2.weights)
                assert np.array_equal(s1.means, s2.means)
                assert np.array_equal(s1.variances, s2.variances)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.matm").write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="bad magic"):
            read_matm(tmp_path / "bad.matm")
