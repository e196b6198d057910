import itertools
import warnings

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

from conftest import frame_error_rate, oracle_level_model, ragged_level_states


# ---------------------------------------------------------------------------
# independent oracle: exhaustive enumeration of every labeling and state path
# ---------------------------------------------------------------------------

def _oracle_gauss_logpdf(x, mean, var):
    return float(
        -0.5 * np.sum((x - mean) ** 2 / var + np.log(var) + np.log(2 * np.pi))
    )


def _oracle_state_logpdf(x, state):
    """Mixture log density, summed directly over the components of nonzero
    weight."""
    return float(np.logaddexp.reduce([
        np.log(w) + _oracle_gauss_logpdf(x, mean, var)
        for w, mean, var in zip(state.weights, state.means, state.variances) if w > 0]))


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
    emis = np.array([[_oracle_state_logpdf(frames[start + t], s) for s in hmm.states]
                     for t in range(L)])
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
            GaussState(np.ones(1), rng.normal(0, 2.0, (1, d)), rng.uniform(0.5, 2.0, (1, d)))
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

    def test_matches_enumeration_on_a_ragged_level(self):
        # states of 1, 2 and 3 components, one weighted 0: decoding pads every
        # state to the level's largest count
        rng = np.random.default_rng(1001)
        for _ in range(10):
            model, frames = random_instance(rng, n=3, m=3)
            states = ragged_level_states(rng, 3, 3, frames.shape[1])
            model = LevelModel(model.granularity, [TokenHmm(k, states[k], hmm.transitions)
                                                   for k, hmm in enumerate(model.hmms)],
                               model.prior)
            got = decode_utterance(model, frames)
            want, _ = oracle_best_labeling(model, frames)
            assert got == want

    def test_score_matches_enumeration(self):
        rng = np.random.default_rng(2000)
        for _ in range(10):
            model, frames = random_instance(rng)
            segs = decode_utterance(model, frames)
            log_prior = np.log(np.maximum(model.prior, 1e-10))
            score = sum(_oracle_span_score(model, frames, token, start, end) + log_prior[token]
                        for token, start, end in segs)
            _, want = oracle_best_labeling(model, frames)
            assert score == pytest.approx(want, abs=1e-8)


# ---------------------------------------------------------------------------
# independent reference: the mixture density of one state at a time
# ---------------------------------------------------------------------------

def reference_state_joint(state, frames):
    """Independent reference: one state's (T, c) component log-joints by the
    per-state formula, element-wise, (x - mu)^2 / v.  The level kernel expands
    the square into a matrix product, which rounds differently; see
    DENSITY_TOL."""
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


def level_of(hmms):
    """The level of the given token HMMs, with a uniform prior."""
    return LevelModel(Granularity(hmms[0].m, len(hmms)), hmms, np.full(len(hmms), 1.0 / len(hmms)))


def level_joints(hmm, frames):
    """(T, m, c) component log-joints of one token's states from the level
    kernel, over the stack of a level of that one token."""
    return np.moveaxis(tok._log_joints(level_of([hmm]).density_stack(), frames), 1, 2)


# the level kernel's joints and densities against reference_state_joint,
# |kernel - reference| <= DENSITY_TOL * (1 + |reference|): the largest
# difference measured was 4.8e-15 of (1 + |reference|) over 400 random levels
# of 1-3 tokens (d <= 39, 1-8 components, zero weights included), and 2.2e-15
# with frames and means offset by +100 at d = 39
DENSITY_TOL = 1e-13
# responsibilities, from forward-backward over those densities: the largest
# absolute difference measured was 1.8e-12 over 300 random one-token spans of
# 23 frames (d <= 39, 1-8 components)
POSTERIOR_TOL = 1e-11


def assert_close(got, want, tol=DENSITY_TOL):
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


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
        joint = level_joints(hmm, frames)
        assert joint.shape == (17, len(components), max(components))
        for s, (state, c) in enumerate(zip(hmm.states, components)):
            assert_close(joint[:, s, :c], reference_state_joint(state, frames))
            assert np.all(joint[:, s, c:] == -np.inf)  # padding adds nothing

    @KERNEL_CASES
    def test_densities_and_posteriors_equal_the_per_state_formula(self, components, d,
                                                                  zero_weight):
        rng = np.random.default_rng(sum(components) * d + 1)
        hmm = random_token(rng, components, d, zero_weight)
        frames = 2.0 * rng.normal(size=(23, d))
        ref_joint = [reference_state_joint(state, frames) for state in hmm.states]
        ref_emis = np.stack([logsumexp(j, axis=1) for j in ref_joint], axis=1)
        assert_close(tok.logsumexp(level_joints(hmm, frames), axis=2), ref_emis)
        for s, state in enumerate(hmm.states):
            assert_close(state.log_density(frames), ref_emis[:, s])
        # responsibilities: the E-step's occupancy times the component posteriors
        # one span of token 0: all the rows of frames
        spans = (np.array([0]), np.array([0]), np.array([len(frames)]))
        layout = tok._SpanLayout(np.array([0]), spans, frames, len(components))
        _, resp, _, _ = tok._token_statistics(level_of([hmm]), layout)
        _, gamma, _, _ = reference_e_step(hmm, ref_emis, np.array([0, len(frames)]))
        for s, c in enumerate(components):
            assert_close(resp[:, s, :c],
                         gamma[:, s, None] * np.exp(ref_joint[s] - ref_emis[:, s, None]),
                         POSTERIOR_TOL)
            assert not resp[:, s, c:].any()

    @KERNEL_CASES
    def test_span_likelihood_equals_the_reference_forward(self, components, d, zero_weight):
        rng = np.random.default_rng(sum(components) * d + 2)
        hmm = random_token(rng, components, d, zero_weight)
        self_p = rng.uniform(0.05, 0.95, size=len(components))
        hmm.transitions = np.stack([self_p, 1 - self_p], axis=1)
        frames = 2.0 * rng.normal(size=(23, d))
        ref_emis = np.stack([logsumexp(reference_state_joint(state, frames), axis=1)
                             for state in hmm.states], axis=1)
        want, _, _, _ = reference_forward_backward(hmm, ref_emis)
        assert np.isfinite(want)
        assert segment_forward_ll(hmm, frames) == pytest.approx(want, rel=DENSITY_TOL)

    def test_padding_to_eight_or_more_components_agrees_to_rounding(self):
        # a state padded from 7 to 8 components, equal weights and nearby
        # means: the log-sum's fold adds its padding as exact zeros, where a
        # pairwise sum of 8 or more terms could group them apart
        rng = np.random.default_rng(0)
        states = [GaussState(np.full(c, 1.0 / c), 0.1 * rng.normal(size=(c, 6)), np.ones((c, 6)))
                  for c in (8, 7)]
        hmm = TokenHmm(0, states, np.full((2, 2), 0.5))
        frames = rng.normal(size=(40, 6))
        ref = logsumexp(reference_state_joint(hmm.states[1], frames), axis=1)
        assert_close(tok.logsumexp(level_joints(hmm, frames), axis=2)[:, 1], ref)

    def test_emission_table_is_one_kernel_product_over_the_level(self, monkeypatch):
        model, frames = random_instance(np.random.default_rng(3), T=6, n=3, m=2)
        calls = []
        real = tok._log_joints

        def spy(stack, frames):
            calls.append((stack[1].shape[1], len(frames)))
            return real(stack, frames)

        monkeypatch.setattr(tok, "_log_joints", spy)
        decode_utterance(model, frames)
        assert calls == [(3 * 2, 6)]

    def test_one_component_emission_table_is_a_slice_of_the_joints(self, monkeypatch):
        model, frames = random_instance(np.random.default_rng(4), T=20, n=3, m=2)
        assert model.weights.shape[2] == 1
        joints = []
        real = tok._log_joints

        def spy(stack, frames):
            joints.append(real(stack, frames))
            return joints[-1]

        monkeypatch.setattr(tok, "_log_joints", spy)
        table = tok._emission_table(model.density_stack(), frames, 2)
        assert np.shares_memory(table, joints[0])
        assert np.array_equal(table.reshape(20, 6), joints[0][:, 0])

    def test_level_kernel_equals_the_per_state_formula(self):
        rng = np.random.default_rng(60)
        d = 5
        tokens = [random_token(rng, components, d, zero_weight=True)
                  for components in ((2, 3), (1, 1), (4, 2))]
        states = [state for hmm in tokens for state in hmm.states]
        stack = level_of(tokens).density_stack()
        frames = 2.0 * rng.normal(size=(19, d))
        # every frame against every state, as decoding scores it; component
        # j of every state is one slice
        joint = tok._log_joints(stack, frames)
        assert joint.shape == (19, 4, 6)
        for k, state in enumerate(states):
            c = state.n_components
            assert_close(joint[:, :c, k], reference_state_joint(state, frames))
            assert np.all(joint[:, c:, k] == -np.inf)
        # a token's frames against its own states, as training scores them
        centre, rows, const = stack
        for token in range(len(tokens)):
            own = slice(2 * token, 2 * token + 2)
            assert_close(tok._log_joints((centre, rows[:, own], const[:, own]), frames),
                         joint[:, :, own])

    def test_uncentred_features_equal_the_per_state_formula(self):
        # bottleneck features are not centred: frames and means far from 0,
        # with variances from 0.01 to 3
        rng = np.random.default_rng(61)
        d = 39
        tokens = [TokenHmm(t, [GaussState(rng.dirichlet(np.ones(c)),
                                          100.0 + 2.0 * rng.normal(size=(c, d)),
                                          rng.uniform(0.01, 3.0, (c, d))) for c in (1, 2, 3)],
                           np.full((3, 2), 0.5)) for t in range(3)]
        frames = 100.0 + 2.0 * rng.normal(size=(40, d))
        joint = tok._log_joints(level_of(tokens).density_stack(), frames)
        for k, state in enumerate(state for hmm in tokens for state in hmm.states):
            assert_close(joint[:, :state.n_components, k], reference_state_joint(state, frames))

    # feature dimensions of the demo's acoustic and bottleneck features and of
    # the paper's; levels whose states hold one and two components
    @pytest.mark.parametrize("d, components", [(6, 1), (8, 2), (39, 1), (39, 2)])
    def test_a_frame_has_the_same_joints_in_any_batch(self, d, components):
        # a frame scored alone, or at any place among others, gives the same
        # bits: BLAS may hand a one-row product to gemv, and small products to
        # other kernels
        rng = np.random.default_rng(62 + d)
        level = level_of([random_token(rng, (components,) * 5, d) for _ in range(7)])
        stack = level.density_stack()
        frames = 2.0 * rng.normal(size=(100, d))
        table = tok._emission_table(stack, frames, 5)
        for t in (0, 1, 15, 16, 17, 99):
            assert np.array_equal(tok._emission_table(stack, frames[t:t + 1], 5), table[t:t + 1])
        for start, stop in ((3, 40), (16, 32), (50, 100)):
            assert np.array_equal(tok._emission_table(stack, frames[start:stop], 5),
                                  table[start:stop])


class TestGrid:
    def test_standard_grid_has_16_levels(self):
        grid = GranularityGrid((3, 5, 7, 9), (50, 100, 300, 500))
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

    def test_flat_start_only_without_a_warm_start(self, small_corpus, monkeypatch):
        spec, corpus, truth = small_corpus
        g = Granularity(3, spec.n_tokens)
        labels = truth.label_set()
        calls = []
        real = tok._flat_start

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(tok, "_flat_start", spy)
        cfg = TokenizerConfig(em_iters=1)
        model = train_level_hmms(corpus, labels, g, cfg)
        assert len(calls) == 1
        train_level_hmms(corpus, labels, g, cfg, init_model=model)
        assert len(calls) == 1

    def test_short_segments_do_not_crash(self):
        rng = np.random.default_rng(6)
        corpus = Corpus([FeatureSequence(rng.normal(size=(10, 3)), utterance_id="u")])
        labels = {"u": TokenLabelSequence("u", [(0, 0, 1), (1, 1, 2), (0, 2, 10)])}
        model = train_level_hmms(corpus, labels, Granularity(3, 2))
        assert len(model.hmms) == 2

    def test_empty_corpus_rejected(self):
        for train in (train_level_hmms, flat_start_model):
            with pytest.raises(ValueError, match="empty corpus"):
                train(Corpus([]), {}, Granularity(2, 3))

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

    @pytest.mark.parametrize("schedule", [(6,), (-1, 2), (2, 2), (4, 2)],
                             ids=["at-em_iters", "negative", "repeated", "decreasing"])
    def test_a_mixture_schedule_entry_that_never_acts_is_rejected(self, schedule):
        # each training call counts EM iterations 0..em_iters-1 afresh
        TokenizerConfig(em_iters=6, mixture_schedule=(0, 2, 5))
        with pytest.raises(ValueError, match=r"^mixture_schedule must be strictly increasing "
                                             r"EM iterations in \[0, 6\), got "):
            TokenizerConfig(em_iters=6, mixture_schedule=schedule)

    @pytest.mark.parametrize("em_iters", [1, 3])
    def test_one_product_per_token_and_one_e_step_per_em_iteration(self, monkeypatch,
                                                                    em_iters):
        spec = SynthSpec(n_tokens=3, states_per_token=3, dim=4, n_utterances=6)
        corpus, truth = synthesize_corpus(spec, seed=8)
        labels = truth.label_set()
        g = Granularity(3, spec.n_tokens)
        init = flat_start_model(corpus, labels, g)
        calls, e_steps = [], []
        real_kernel, real_e_step = tok._log_joints, tok._e_step

        def kernel_spy(stack, frames):
            assert stack[1].shape[1] == g.m  # a token's frames against its own states
            calls.append(len(frames))
            return real_kernel(stack, frames)

        def e_step_spy(emis, edges, log_self, log_adv, batches):
            e_steps.append(len(edges) - 1)
            return real_e_step(emis, edges, log_self, log_adv, batches)

        monkeypatch.setattr(tok, "_log_joints", kernel_spy)
        monkeypatch.setattr(tok, "_e_step", e_step_spy)
        # em_tol = 0: no token stops early
        cfg = TokenizerConfig(em_iters=em_iters, em_tol=0.0)
        train_level_hmms(corpus, labels, g, cfg, init_model=init)
        segments = [seg for seq in labels.values() for seg in seq.segments]
        labelled_frames = sum(end - start for _, start, end in segments)
        assert e_steps == [len(segments)] * em_iters
        assert len(calls) == em_iters * g.n
        assert sum(calls) == em_iters * labelled_frames

    @pytest.mark.parametrize("start", ["flat", "warm"])
    def test_span_rows_are_gathered_once_and_again_when_tokens_leave_em(self, monkeypatch,
                                                                        start):
        # TestLevelOracle's level: tokens 0-2 train 12, 2 and 2 EM iterations,
        # token 3 holds no span
        spec = SynthSpec(n_tokens=3, states_per_token=3, dim=4, n_utterances=6)
        corpus, _ = synthesize_corpus(spec, seed=21)
        labels = random_segments(corpus, 3, np.random.default_rng(21))
        g = Granularity(3, 4)
        cfg = TokenizerConfig(em_iters=14, em_tol=3e-3, mixture_schedule=(2,))
        init = flat_start_model(corpus, labels, g) if start == "warm" else None
        gathered = []

        class Spy(tok._SpanLayout):
            def __init__(self, tokens, spans, frames, m):
                super().__init__(tokens, spans, frames, m)
                gathered.append((tokens.tolist(), len(self.rows)))

        monkeypatch.setattr(tok, "_SpanLayout", Spy)
        train_level_hmms(corpus, labels, g, cfg, init_model=init)
        frames = np.bincount([t for seq in labels.values() for t, a, b in seq.segments
                              for _ in range(a, b)])
        # the flat start reads the first layout too
        assert gathered == [([0, 1, 2], frames.sum()), ([0], frames[0])]

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
        assert matm_bytes(m1) == matm_bytes(m2)

    def test_transition_rows_normalized(self, small_corpus):
        spec, corpus, truth = small_corpus
        model = train_level_hmms(corpus, truth.label_set(), Granularity(3, spec.n_tokens))
        for hmm in model.hmms:
            assert np.max(np.abs(hmm.transitions.sum(axis=1) - 1.0)) < 1e-9


# ---------------------------------------------------------------------------
# independent reference: span-by-span E-step statistics
# ---------------------------------------------------------------------------

def reference_forward_backward(hmm, emis):
    """(ll, log_gamma, stay_post, move_post) of one span, or (ll, None, None,
    None) when no path traverses it; stay_post[t, s] and move_post[t, s] are
    the posteriors of the self-loop and the advance out of state s at frame t."""
    L, m = emis.shape
    log_self, log_adv = np.log(np.maximum(hmm.transitions, 1e-300)).T
    alpha = np.full((L, m), -np.inf)
    alpha[0, 0] = emis[0, 0]
    for t in range(1, L):
        move = np.concatenate(([-np.inf], alpha[t - 1, :-1] + log_adv[:-1]))
        alpha[t] = np.logaddexp(alpha[t - 1] + log_self, move) + emis[t]
    ll = alpha[L - 1, m - 1] + log_adv[m - 1]
    if not np.isfinite(ll):
        return ll, None, None, None
    beta = np.full((L, m), -np.inf)
    beta[L - 1, m - 1] = log_adv[m - 1]
    for t in range(L - 2, -1, -1):
        stay = log_self + emis[t + 1] + beta[t + 1]
        move = np.concatenate((log_adv[:-1] + emis[t + 1, 1:] + beta[t + 1, 1:], [-np.inf]))
        beta[t] = np.logaddexp(stay, move)
    stay_post = np.exp(alpha[:-1] + log_self[None, :] + emis[1:] + beta[1:] - ll)
    move_post = np.zeros((L - 1, m))
    move_post[:, :-1] = np.exp(alpha[:-1, :-1] + log_adv[None, :-1] + emis[1:, 1:]
                               + beta[1:, 1:] - ll)
    return float(ll), alpha + beta - ll, stay_post, move_post


def reference_uniform_edges(length, m):
    """State s takes frames edges[s]:edges[s + 1]; when length < m, one frame
    per state and the trailing states stay empty."""
    if length >= m:
        return [(length * s) // m for s in range(m + 1)]
    return list(range(length + 1)) + [length] * (m - length)


class ReferenceStats:
    """Sufficient statistics of one token, accumulated span by span and state
    by state."""

    def __init__(self, m, c, d):
        self.occ = np.zeros((m, c))
        self.first, self.second = np.zeros((m, c, d)), np.zeros((m, c, d))
        self.stay, self.move = np.zeros(m), np.zeros(m)

    def add_state(self, s, resp, frames):
        c = resp.shape[1]
        self.occ[s, :c] += resp.sum(axis=0)
        self.first[s, :c] += resp.T @ frames
        self.second[s, :c] += resp.T @ (frames * frames)

    def add_soft(self, frames, post, log_gamma, stay_post, move_post):
        gamma = np.exp(log_gamma)
        m = gamma.shape[1]
        for s in range(m):
            self.add_state(s, gamma[:, s : s + 1] * post[:, s], frames)
        self.stay += stay_post.sum(axis=0)
        self.move += move_post.sum(axis=0)
        self.move[m - 1] += gamma[-1, m - 1]  # exit transition

    def add_hard(self, frames, post, m):
        edges = reference_uniform_edges(len(frames), m)
        for s in range(m):
            start, end = edges[s], edges[s + 1]
            if start == end:
                continue
            self.add_state(s, post[start:end, s], frames[start:end])
            self.stay[s] += end - start - 1
            self.move[s] += 1.0

    def add_rows(self, frames, m):
        """A flat start: every frame of a uniformly aligned state is its own."""
        edges = reference_uniform_edges(len(frames), m)
        for s in range(m):
            rows = frames[edges[s] : edges[s + 1]]
            if not len(rows):
                continue
            self.occ[s, 0] += len(rows)
            self.first[s, 0] += rows.sum(axis=0)
            self.second[s, 0] += (rows * rows).sum(axis=0)
            self.stay[s] += len(rows) - 1
            self.move[s] += 1.0

    def m_step(self, hmm, var_floor):
        states = []
        for s, state in enumerate(hmm.states):
            c = state.n_components
            occ = self.occ[s, :c]
            if occ.sum() <= 1e-8:
                states.append(state)
                continue
            means, variances = state.means.copy(), state.variances.copy()
            for k in range(c):
                if occ[k] > 1e-8:
                    means[k] = self.first[s, k] / occ[k]
                    variances[k] = np.maximum(self.second[s, k] / occ[k] - means[k] ** 2,
                                              var_floor)
            states.append(GaussState(occ / occ.sum(), means, variances))
        trans = hmm.transitions.copy()
        for s in range(hmm.m):
            denom = self.stay[s] + self.move[s]
            if denom > 1e-8:
                trans[s] = self.stay[s] / denom, self.move[s] / denom
        return TokenHmm(hmm.token_id, states, trans)


def reference_spans(corpus, labels, token):
    return [corpus[utt].frames[a:b] for utt in sorted(corpus.ids())
            for t, a, b in labels[utt].segments if t == token]


def reference_global_stats(corpus):
    """Global mean and variance, and the variance floor they give by default."""
    frames = np.vstack([corpus[utt].frames for utt in sorted(corpus.ids())])
    var = np.maximum(frames.var(axis=0), 1e-8)
    return frames.mean(axis=0), var, TokenizerConfig().var_floor_frac * var


def reference_posteriors(hmm, frames):
    """(T, m) state log densities and (T, m, c) component posteriors of a
    token whose states hold c components each, state by state."""
    joints = [reference_state_joint(state, frames) for state in hmm.states]
    emis = np.stack([logsumexp(joint, axis=1) for joint in joints], axis=1)
    post = np.stack([np.exp(joint - emis[:, s, None]) for s, joint in enumerate(joints)], axis=1)
    return emis, post


def reference_em_iteration(corpus, labels, model):
    """One EM iteration of every token from model, span by span."""
    _, _, var_floor = reference_global_stats(corpus)
    hmms = []
    for token, hmm in enumerate(model.hmms):
        spans = reference_spans(corpus, labels, token)
        emis, post = reference_posteriors(hmm, np.concatenate(spans))
        c = max(st.n_components for st in hmm.states)
        stats = ReferenceStats(hmm.m, c, corpus.utterances[0].dim)
        a = 0
        for frames in spans:
            b = a + len(frames)
            _, log_gamma, stay_post, move_post = reference_forward_backward(hmm, emis[a:b])
            if log_gamma is None:
                stats.add_hard(frames, post[a:b], hmm.m)
            else:
                stats.add_soft(frames, post[a:b], log_gamma, stay_post, move_post)
            a = b
        hmms.append(stats.m_step(hmm, var_floor))
    return hmms


def reference_flat_start(corpus, labels, g):
    mean, var, var_floor = reference_global_stats(corpus)
    hmms = []
    for token in range(g.n):
        template = TokenHmm(token, [GaussState(np.ones(1), mean[None], var[None])
                                    for _ in range(g.m)],
                            np.full((g.m, 2), 0.5))
        stats = ReferenceStats(g.m, 1, len(mean))
        for span in reference_spans(corpus, labels, token):
            stats.add_rows(span, g.m)
        hmms.append(stats.m_step(template, var_floor))
    return hmms


def random_segments(corpus, n, rng, max_len=7):
    """Labels tiling each utterance with spans of 1..max_len frames, many of
    them shorter than m; each utterance opens with tokens 0..n-1, so every
    token has spans."""
    labels = {}
    for utt in corpus.ids():
        T, segments, start = corpus[utt].n_frames, [], 0
        while start < T:
            end = min(T, start + int(rng.integers(1, max_len + 1)))
            token = len(segments) if len(segments) < n else int(rng.integers(n))
            segments.append((token, start, end))
            start = end
        labels[utt] = TokenLabelSequence(utt, segments)
    return labels


# trained models against the per-token references, which score frames
# element-wise: the largest relative difference measured was 2.1e-14 over 20
# corpora of test_level_equals_each_token_trained_alone's shape (14 EM
# iterations and a split, cold and warm), and 3.0e-15 after one EM iteration
EM_RTOL = 1e-12


def assert_models_match(got, want, transitions_rtol=0.0):
    """States equal within EM_RTOL (the references add their moments in
    another order), transitions within transitions_rtol: exactly unless the
    model was trained on densities."""
    assert len(got) == len(want)
    for h1, h2 in zip(got, want):
        np.testing.assert_allclose(h1.transitions, h2.transitions, rtol=transitions_rtol, atol=0)
        for s1, s2 in zip(h1.states, h2.states):
            for name in ("weights", "means", "variances"):
                np.testing.assert_allclose(getattr(s1, name), getattr(s2, name),
                                           rtol=EM_RTOL, atol=0)


class TestEStepReference:
    @pytest.fixture
    def spans(self):
        spec = SynthSpec(n_tokens=3, states_per_token=3, dim=4, n_utterances=6)
        corpus, _ = synthesize_corpus(spec, seed=21)
        return corpus, random_segments(corpus, 3, np.random.default_rng(21))

    @pytest.mark.parametrize("m", [3, 1])
    def test_flat_start_equals_the_row_sums(self, spans, m):
        corpus, labels = spans
        g = Granularity(m, 3)
        model = flat_start_model(corpus, labels, g)
        assert_models_match(model.hmms, reference_flat_start(corpus, labels, g))
        counts = np.bincount([t for seq in labels.values() for t, _, _ in seq.segments])
        assert np.array_equal(model.prior, counts / counts.sum())

    # states per token, mixture components per state
    @pytest.mark.parametrize("m, components", [(3, 1), (3, 2), (1, 1), (1, 2)])
    def test_warm_em_iteration_equals_the_span_by_span_statistics(self, spans, m, components):
        corpus, labels = spans
        g = Granularity(m, 3)
        init = flat_start_model(corpus, labels, g)
        if components > 1:
            init = LevelModel(g, [TokenHmm(h.token_id, [st.split() for st in h.states],
                                           h.transitions) for h in init.hmms], init.prior)
        if m > 1:  # the fallback is exercised
            assert any(b - a < m for seq in labels.values() for _, a, b in seq.segments)
        model = train_level_hmms(corpus, labels, g, TokenizerConfig(em_iters=1), init_model=init)
        assert_models_match(model.hmms, reference_em_iteration(corpus, labels, init), EM_RTOL)
        assert np.array_equal(model.prior, init.prior)


def reference_m_step(hmm, resp, frames, stay, move, var_floor):
    """A token reestimated from its (N, m, c) component responsibilities over
    its stacked frames and its (m,) expected self-loop and advance counts,
    state by state.  Unlike ReferenceStats.m_step, which adds the moments span
    by span, it reduces each state's frames at once; the level's M-step takes
    all of a token's states in one product, which rounds apart (EM_RTOL)."""
    squares = frames * frames
    states = []
    for s, state in enumerate(hmm.states):
        r = resp[:, s, :state.n_components]
        occ = r.sum(axis=0)
        total = occ.sum()
        if total <= 1e-8:
            states.append(state)  # unvisited state keeps its parameters
            continue
        first, second = r.T @ frames, r.T @ squares
        means = state.means.copy()
        variances = state.variances.copy()
        seen = occ > 1e-8
        means[seen] = first[seen] / occ[seen, None]
        variances[seen] = np.maximum(second[seen] / occ[seen, None] - means[seen] ** 2, var_floor)
        states.append(GaussState(occ / total, means, variances))
    trans = hmm.transitions.copy()
    denom = stay + move
    seen = denom > 1e-8
    trans[seen] = np.stack([stay[seen], move[seen]], axis=1) / denom[seen, None]
    return TokenHmm(hmm.token_id, states, trans)


def reference_train_level(corpus, labels, g, cfg, init):
    """A level trained one token at a time by the per-token EM: each token
    runs its own loop of mixture splits, span-by-span E-steps
    (reference_e_step below), M-steps and em_tol checks; tokens with no spans
    are then reseeded from the most populous one.  Returns the model and the
    EM iterations each token ran."""
    _, var, _ = reference_global_stats(corpus)
    var_floor = cfg.var_floor_frac * var
    hmms, iterations, frame_counts, span_counts = [], [], [], []
    for token, hmm in enumerate(init.hmms):
        spans = reference_spans(corpus, labels, token)
        frame_counts.append(sum(len(span) for span in spans))
        span_counts.append(len(spans))
        ran, prev_ll = 0, None
        for it in range(cfg.em_iters if spans else 0):
            target = 2 ** sum(k <= it for k in set(cfg.mixture_schedule))
            if any(state.n_components < target for state in hmm.states):
                hmm = TokenHmm(token, [state.split() if state.n_components < target else state
                                       for state in hmm.states], hmm.transitions.copy())
                prev_ll = None
            frames = np.concatenate(spans)
            emis, post = reference_posteriors(hmm, frames)
            ll, gamma, stay, move = reference_e_step(
                hmm, emis, np.cumsum([0] + [len(span) for span in spans]))
            hmm = reference_m_step(hmm, gamma[:, :, None] * post, frames, stay, move, var_floor)
            ran += 1
            if prev_ll is not None and abs(ll - prev_ll) / max(1.0, abs(prev_ll)) < cfg.em_tol:
                break
            prev_ll = ll
        hmms.append(hmm)
        iterations.append(ran)
    donor = hmms[int(np.argmax(frame_counts))]
    for token, count in enumerate(frame_counts):
        if count == 0:
            # each mean moved by reseed_scale standard deviations
            hmms[token] = TokenHmm(token, [
                GaussState(state.weights.copy(),
                           state.means + cfg.reseed_scale * np.sqrt(state.variances),
                           state.variances.copy()) for state in donor.states],
                donor.transitions.copy())
    prior = np.array(span_counts, dtype=float) / sum(span_counts)
    return LevelModel(g, hmms, prior), iterations


class TestLevelOracle:
    # the level's E-step in one batch, or every span and every utterance a
    # batch of its own, which must give the same bytes
    @pytest.mark.parametrize("budget", [None, "BATCH_BYTES"])
    def test_level_equals_each_token_trained_alone(self, monkeypatch, budget):
        spec = SynthSpec(n_tokens=3, states_per_token=3, dim=4, n_utterances=6)
        corpus, _ = synthesize_corpus(spec, seed=21)
        # tokens 0-2 hold spans, many shorter than m; token 3 holds none
        labels = random_segments(corpus, 3, np.random.default_rng(21))
        g = Granularity(3, 4)
        cfg = TokenizerConfig(em_iters=14, em_tol=3e-3, mixture_schedule=(2,))
        model = flat_start_model(corpus, labels, g)
        for start in ("cold", "warm"):
            want, iterations = reference_train_level(corpus, labels, g, cfg, model)
            if budget is not None:
                with monkeypatch.context() as patch:
                    patch.setattr(tok, budget, 1)
                    batched = train_level_hmms(corpus, labels, g, cfg, init_model=model)
            model = train_level_hmms(corpus, labels, g, cfg, init_model=model)
            if budget is not None:
                assert matm_bytes(batched) == matm_bytes(model)
            assert_models_match(model.hmms, want.hmms, EM_RTOL)
            assert np.array_equal(model.prior, want.prior)
            if start == "cold":
                # tokens stop at different iterations, one after its split,
                # so the warm start holds one- and two-component tokens
                assert iterations == [12, 2, 2, 0]
                assert [hmm.states[0].n_components for hmm in model.hmms] == [2, 1, 1, 1]

    def test_unvisited_state_and_component_keep_their_parameters(self):
        spec = SynthSpec(n_tokens=3, states_per_token=3, dim=4, n_utterances=6)
        corpus, _ = synthesize_corpus(spec, seed=22)
        # token 2 holds only one-frame spans, so its states 1 and 2 see no frame
        labels = {}
        for utt in corpus.ids():
            T, segments, start = corpus[utt].n_frames, [], 0
            while start < T:
                token, length = [(0, 6), (2, 1), (1, 5)][len(segments) % 3]
                segments.append((token, start, min(T, start + length)))
                start = segments[-1][2]
            labels[utt] = TokenLabelSequence(utt, segments)
        g = Granularity(3, 3)
        init = flat_start_model(corpus, labels, g)
        # token 0's states hold two components, the second of weight 0, which
        # no frame visits
        states = []
        for state in init.hmms[0].states:
            split = state.split()
            states.append(GaussState(np.array([1.0, 0.0]), split.means, split.variances))
        init = LevelModel(g, [TokenHmm(0, states, init.hmms[0].transitions)] + init.hmms[1:],
                          init.prior)
        cfg = TokenizerConfig(em_iters=3, em_tol=0.0)
        want, iterations = reference_train_level(corpus, labels, g, cfg, init)
        model = train_level_hmms(corpus, labels, g, cfg, init_model=init)
        assert iterations == [3, 3, 3]
        assert_models_match(model.hmms, want.hmms, EM_RTOL)
        assert np.array_equal(model.prior, want.prior)
        for s in (1, 2):
            got, start = model.hmms[2].states[s], init.hmms[2].states[s]
            for name in ("weights", "means", "variances"):
                assert np.array_equal(getattr(got, name), getattr(start, name))
        for got, start in zip(model.hmms[0].states, init.hmms[0].states):
            assert got.weights[1] < 1e-8
            assert np.array_equal(got.means[1], start.means[1])
            assert np.array_equal(got.variances[1], start.variances[1])


# ---------------------------------------------------------------------------
# the batched kernels against one span or one utterance at a time
# ---------------------------------------------------------------------------

def reference_e_step(hmm, emis, edges):
    """(ll, gamma, stay, move) of a token's stacked spans, span by span and
    added up in span order: forward-backward, or the uniform alignment, scored
    along it, for a span no path traverses."""
    m = emis.shape[1]
    # rows of their own, as the level's: BLAS takes a dot product of strided
    # and of contiguous vectors in different loops, which may round apart
    log_self, log_adv = np.log(np.maximum(hmm.transitions, 1e-300)).T.copy()
    ll, gamma, stay, move = 0.0, np.empty_like(emis), np.zeros(m), np.zeros(m)
    for a, b in zip(edges[:-1], edges[1:]):
        span_ll, log_gamma, stay_post, move_post = reference_forward_backward(hmm, emis[a:b])
        if log_gamma is None:
            bounds = reference_uniform_edges(b - a, m)
            span_gamma, span_stay, span_move = np.zeros((b - a, m)), np.zeros(m), np.zeros(m)
            for s in range(m):
                if bounds[s + 1] > bounds[s]:
                    span_gamma[bounds[s]:bounds[s + 1], s] = 1.0
                    span_stay[s], span_move[s] = bounds[s + 1] - bounds[s] - 1, 1.0
            span_ll = (emis[a:b][span_gamma > 0].sum() + span_stay @ log_self
                       + span_move @ log_adv)
        else:
            span_gamma = np.exp(log_gamma)
            span_stay, span_move = stay_post.sum(axis=0), move_post.sum(axis=0)
            span_move[m - 1] += span_gamma[-1, m - 1]  # exit transition
        gamma[a:b] = span_gamma
        ll, stay, move = ll + span_ll, stay + span_stay, move + span_move
    return ll, gamma, stay, move


def running_sum(values):
    """Sum along axis 0, first to last, as reference_e_step adds its spans."""
    total = 0.0
    for value in values:
        total = total + value
    return total


class TestBatchedKernels:
    # budget None: all spans in one batch; 1: every span a batch of its own
    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("m", [3, 4])
    def test_e_step_equals_the_span_by_span_reference(self, monkeypatch, m, budget):
        if budget is not None:
            monkeypatch.setattr(tok, "BATCH_BYTES", budget)
        rng = np.random.default_rng(30 + m)
        # three tokens, each with its own transitions and spans; mixed
        # lengths: length-1 spans and others shorter than m take the uniform
        # fallback
        token_lengths = [[5, 1, m - 1, 12, 2, m], [1, 9, 3, 20], [m + 1, 2, 7]]
        hmms, emis, edges = [], [], [0]
        for token, lengths in enumerate(token_lengths):
            self_p = rng.uniform(0.05, 0.95, size=m)
            hmm = TokenHmm(token, random_token(rng, (2,) * m, 3).states,
                           np.stack([self_p, 1 - self_p], axis=1))
            hmms.append(hmm)
            frames = rng.normal(0, 2.0, size=(sum(lengths), 3))
            emis.append(tok.logsumexp(level_joints(hmm, frames), axis=2))
            edges += list(edges[-1] + np.cumsum(lengths))
        owner = np.repeat(np.arange(3), [len(lengths) for lengths in token_lengths])
        log_self, log_adv = level_of(hmms).log_transitions()
        lls, gamma, stays, moves = tok._e_step(np.concatenate(emis), np.array(edges),
                                               log_self[owner], log_adv[owner])
        span_at, frame_at = 0, 0
        for hmm, token_emis, lengths in zip(hmms, emis, token_lengths):
            spans = slice(span_at, span_at + len(lengths))
            frames = slice(frame_at, frame_at + sum(lengths))
            want_ll, want_gamma, want_stay, want_move = reference_e_step(
                hmm, token_emis, np.cumsum([0] + lengths))
            assert running_sum(lls[spans]) == want_ll
            assert np.array_equal(gamma[frames], want_gamma)
            assert np.array_equal(running_sum(stays[spans]), want_stay)
            assert np.array_equal(running_sum(moves[spans]), want_move)
            span_at, frame_at = spans.stop, frames.stop

    def test_decoding_a_group_equals_decoding_each_utterance_alone(self):
        rng = np.random.default_rng(40)
        model, _ = random_instance(rng, n=3, m=3)
        corpus = Corpus([FeatureSequence(rng.normal(0, 2.0, size=(T, 2)), utterance_id=f"u{i}")
                         for i, T in enumerate([7, 2, 15, 1, 30, 3])])
        assert len(list(tok._table_groups(model, corpus))) == 1
        labels = decode_level(model, corpus)
        for utt in corpus.ids():
            assert labels[utt].segments == decode_utterance(model, corpus[utt].frames)
        # an utterance shorter than m is one segment of the likeliest token
        for utt, T in (("u1", 2), ("u3", 1)):
            assert labels[utt].segments == [(int(np.argmax(model.prior)), 0, T)]

    # budget None: the corpus in one batch; 1: every utterance a batch of its own
    @pytest.mark.parametrize("budget", [None, 1])
    def test_every_scored_block_is_a_slice_of_the_corpus_matrix(self, small_corpus,
                                                                monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(tok, "BATCH_BYTES", budget)
        spec, corpus, truth = small_corpus
        model = flat_start_model(corpus, truth.label_set(), Granularity(3, spec.n_tokens))
        blocks = []
        real = tok._emission_table

        def spy(stack, frames, m):
            blocks.append(frames)
            return real(stack, frames, m)

        monkeypatch.setattr(tok, "_emission_table", spy)
        groups = list(tok._table_groups(model, corpus))
        assert len(groups) == (1 if budget is None else len(corpus))
        assert [len(b) for b in blocks] == [lengths.sum() for _, _, lengths in groups]
        assert all(np.shares_memory(b, corpus.frames) for b in blocks)
        assert [u for utts, _, _ in groups for u in utts] == corpus.ids()

    def test_split_groups_give_the_same_labels_and_trace(self, small_corpus, monkeypatch):
        spec, corpus, _ = small_corpus
        from acoustok.initialization import make_initial_labels

        g = Granularity(3, spec.n_tokens)
        init = make_initial_labels(corpus, {spec.n_tokens: 0})[spec.n_tokens]
        cfg = TokenizerConfig(outer_iters=2, em_iters=2)
        model, labels, trace = run_level(corpus, init, g, cfg)
        assert len(list(tok._table_groups(model, corpus))) == 1
        monkeypatch.setattr(tok, "BATCH_BYTES", 1)
        assert len(list(tok._table_groups(model, corpus))) == len(corpus)
        split_model, split_labels, split_trace = run_level(corpus, init, g, cfg)
        assert split_trace == trace
        assert matm_bytes(split_model) == matm_bytes(model)
        for utt in corpus.ids():
            assert split_labels[utt].segments == labels[utt].segments


def reference_viterbi(model, table, lm_scale=1.0):
    """Token-loop Viterbi over one utterance's (T, n, m) emission table, one
    frame at a time.  Its ties: a self-loop wins over an advance of equal
    score, a state-0 score over an equal entry, and the lowest token id among
    equal exits and among equal final scores."""
    T, n, m = table.shape
    log_prior = model.log_prior(lm_scale)
    log_trans = np.log(np.maximum(np.stack([hmm.transitions for hmm in model.hmms]), 1e-300))
    log_self, log_adv = log_trans[..., 0], log_trans[..., 1]
    if T < m:
        return [(int(np.argmax(log_prior)), 0, T)]
    delta = np.full((n, m), -np.inf)
    delta[:, 0] = log_prior + table[0, :, 0]
    choice = np.zeros((T, n, m), dtype=np.int8)  # 0 stay, 1 advance, 2 switch
    switch_from = np.zeros(T, dtype=np.int64)
    for t in range(1, T):
        stay = delta + log_self
        move = np.full((n, m), -np.inf)
        move[:, 1:] = delta[:, :-1] + log_adv[:, :-1]
        exit_scores = delta[:, m - 1] + log_adv[:, m - 1]
        switch_from[t] = np.argmax(exit_scores)
        enter = exit_scores[switch_from[t]] + log_prior
        stays = stay >= move
        new = np.where(stays, stay, move)
        choice[t] = np.where(stays, 0, 1)
        entering = enter > new[:, 0]
        new[:, 0] = np.where(entering, enter, new[:, 0])
        choice[t, :, 0] = np.where(entering, 2, choice[t, :, 0])
        delta = new + table[t]
    token, state = int(np.argmax(delta[:, m - 1] + log_adv[:, m - 1])), m - 1
    starts = []  # segment start frames with their token, last first
    for t in range(T - 1, 0, -1):
        if choice[t, token, state] == 1:
            state -= 1
        elif choice[t, token, state] == 2:
            starts.append((t, token))
            token, state = int(switch_from[t]), m - 1
    starts.append((0, token))
    starts.reverse()
    ends = [start for start, _ in starts[1:]] + [T]
    return [(token, start, end) for (start, token), end in zip(starts, ends)]


class TestViterbiTies:
    # budget None: every utterance in one batch; 1: each a batch of its own
    @pytest.mark.parametrize("budget", [None, 1])
    def test_decode_level_keeps_the_per_frame_reference_path_on_tied_tables(self, monkeypatch,
                                                                           budget):
        if budget is not None:
            monkeypatch.setattr(tok, "BATCH_BYTES", budget)
        # emissions rounded to 0.5, equal transitions, an equal prior and states
        # of two means: many paths tie, and the decoder must keep the
        # reference's.  A tie between a self-loop and an advance moves a
        # boundary rarely (in 2 of these 240 utterances), so there are many.
        real = tok._emission_table
        monkeypatch.setattr(tok, "_emission_table",
                            lambda stack, frames, m: np.round(2 * real(stack, frames, m)) / 2)
        rng = np.random.default_rng(70)
        n, m, d = 3, 3, 1
        for _ in range(40):
            hmms = [TokenHmm(k, [GaussState(np.ones(1), rng.integers(0, 2, (1, d)) * 1.0,
                                            np.ones((1, d)))
                                 for _ in range(m)], np.full((m, 2), 0.5)) for k in range(n)]
            model = LevelModel(Granularity(m, n), hmms, np.full(n, 1.0 / n))
            # ragged lengths, some shorter than m
            corpus = Corpus([FeatureSequence(rng.normal(0, 1.5, size=(T, d)), utterance_id=f"u{i}")
                             for i, T in enumerate(rng.integers(1, 25, size=6))])
            labels = decode_level(model, corpus)
            for utt in corpus.ids():
                frames = corpus[utt].frames
                table = np.stack([logsumexp(reference_state_joint(state, frames), axis=1)
                                  for hmm in hmms for state in hmm.states], axis=1)
                want = reference_viterbi(model, np.round(2 * table.reshape(-1, n, m)) / 2)
                assert labels[utt].segments == want


# the fold against scipy's max-shift sum: the largest relative difference
# measured on test_agrees_with_scipy_without_warnings' 800 cases was 2.9e-15,
# at a result near 0 (1.9e-14 for the max-shift formula the fold replaced)
LOGSUMEXP_RTOL = 1e-13


class TestLogsumexp:
    def test_agrees_with_scipy_without_warnings(self):
        rng = np.random.default_rng(50)
        for case in range(800):
            shape = tuple(int(k) for k in rng.integers(1, 6, size=int(rng.integers(1, 5))))
            axis = int(rng.integers(-len(shape), len(shape)))
            a = rng.normal(size=shape) * rng.choice([0.1, 3.0, 800.0])
            kind = case % 4
            if kind == 1:  # -inf padding
                a[rng.random(shape) < 0.4] = -np.inf
            elif kind == 2:  # ties
                a = np.round(a)
            elif kind == 3:  # whole rows of -inf along the axis
                row_shape = tuple(1 if k == axis % len(shape) else size
                                  for k, size in enumerate(shape))
                a[np.broadcast_to(rng.random(row_shape) < 0.5, shape)] = -np.inf
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = tok.logsumexp(a, axis)
            want = logsumexp(a, axis=axis)
            assert np.array_equal(got == -np.inf, want == -np.inf), (shape, axis, kind)
            np.testing.assert_allclose(got, want, rtol=LOGSUMEXP_RTOL, atol=0,
                                       err_msg=str((shape, axis, kind)))

    def test_a_single_finite_term_comes_back_unchanged(self):
        rng = np.random.default_rng(51)
        values = rng.normal(size=60) * rng.choice([0.1, 3.0, 800.0], size=60)
        # alone along the axis, or among -inf
        padded = np.full((60, 5), -np.inf)
        padded[np.arange(60), rng.integers(5, size=60)] = values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(tok.logsumexp(values[:, None], axis=1), values)
            assert np.array_equal(tok.logsumexp(padded, axis=1), values)
            assert np.array_equal(tok.logsumexp(padded.T, axis=0), values)

    def test_an_axis_of_one_term_comes_back_as_a_view(self):
        # no pass over a one-component mixture: its log-sum is its own slice
        a = np.random.default_rng(52).normal(size=(7, 1, 5))
        got = tok.logsumexp(a, axis=1)
        assert np.shares_memory(got, a)
        assert np.array_equal(got, a[:, 0])

    def test_a_row_all_minus_inf_gives_minus_inf(self):
        a = np.full((4, 3), -np.inf)
        a[1] = [0.5, -np.inf, 2.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tok.logsumexp(a, axis=1)
        assert got[0] == got[2] == got[3] == -np.inf
        assert np.isfinite(got[1])


class TestLikelihood:
    def test_empty_corpus_zero(self):
        model, _ = random_instance(np.random.default_rng(1), T=4, n=1, m=1)
        assert corpus_log_likelihood(model, Corpus([]), {}) == 0.0

    def test_single_frame_hand_formula(self):
        d = 3
        x = np.array([0.5, -1.0, 2.0])
        state = GaussState(np.ones(1), x[None].copy(), np.full((1, d), 1.5))
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

    # budget None: the corpus is one table batch; 1: every utterance is one
    @pytest.mark.parametrize("budget", [None, 1])
    def test_one_emission_table_per_utterance_outside_training(self, small_corpus, monkeypatch,
                                                               budget):
        spec, corpus, truth = small_corpus
        g = Granularity(3, spec.n_tokens)
        if budget is not None:
            monkeypatch.setattr(tok, "BATCH_BYTES", budget)

        calls = {"train": [], "other": []}
        training = []
        real_density = tok._log_joints
        real_train = tok.train_level_hmms

        def density_spy(stack, frames):
            calls["train" if training else "other"].append((stack[1].shape[1], len(frames)))
            return real_density(stack, frames)

        def train_spy(*args, **kwargs):
            training.append(True)
            try:
                return real_train(*args, **kwargs)
            finally:
                training.pop()

        monkeypatch.setattr(tok, "_log_joints", density_spy)
        monkeypatch.setattr(tok, "train_level_hmms", train_spy)
        run_level(corpus, truth.label_set(), g, TokenizerConfig(outer_iters=1, em_iters=1))
        assert calls["train"]
        # one kernel call per table batch, against all n * m states, whose
        # frames add up to the corpus once
        batches = 1 if budget is None else len(corpus)
        assert [states for states, _ in calls["other"]] == [g.n * g.m] * batches
        assert sum(frames for _, frames in calls["other"]) == sum(corpus.frame_counts().values())

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


class TestLevelModel:
    """The model is its stacked arrays; the records are its constructor input
    and views of its rows."""

    @staticmethod
    def tokens(rng, n, m, d=2):
        return [TokenHmm(k, [GaussState(np.ones(1), rng.normal(size=(1, d)), np.ones((1, d)))
                             for _ in range(m)], np.full((m, 2), 0.5)) for k in range(n)]

    def test_a_token_of_another_state_count_is_rejected(self):
        hmms = self.tokens(np.random.default_rng(0), 2, 3)
        with pytest.raises(ValueError, match=r"^token 0: 3 states and transitions of shape "
                                             r"\(3, 2\), where m = 2 needs \(2, 2\)$"):
            LevelModel(Granularity(2, 2), hmms, np.full(2, 0.5))

    def test_transitions_of_another_shape_are_rejected(self):
        hmms = self.tokens(np.random.default_rng(1), 2, 2)
        hmms[1].transitions = np.full((3, 2), 0.5)
        with pytest.raises(ValueError, match=r"^token 1: 2 states and transitions of shape "
                                             r"\(3, 2\), where m = 2 needs \(2, 2\)$"):
            LevelModel(Granularity(2, 2), hmms, np.full(2, 0.5))

    @pytest.mark.parametrize("shape", [(3,), (1, 2), ()])
    def test_a_prior_of_another_shape_is_rejected(self, shape):
        hmms = self.tokens(np.random.default_rng(4), 2, 2)
        with pytest.raises(ValueError) as err:
            LevelModel(Granularity(2, 2), hmms, np.full(shape, 0.5))
        assert str(err.value) == f"prior of shape {shape}, where n = 2 needs (2,)"

    def test_mixed_feature_dimensions_name_the_token_and_state(self):
        hmms = self.tokens(np.random.default_rng(2), 3, 2)
        hmms[2].states[1] = GaussState(np.ones(1), np.zeros((1, 3)), np.ones((1, 3)))
        with pytest.raises(ValueError, match="^token 2 state 1: states have different feature "
                                             "dimensions, 3 where token 0 state 0 has 2$"):
            LevelModel(Granularity(2, 3), hmms, np.full(3, 1.0 / 3))

    def test_stacked_once_and_viewed_per_state(self):
        rng = np.random.default_rng(3)
        states = ragged_level_states(rng, 4, 3, 5)
        hmms = [TokenHmm(k, states[k], np.full((3, 2), 0.5)) for k in range(4)]
        model = LevelModel(Granularity(3, 4), hmms, np.full(4, 0.25))
        assert model.weights.shape == (4, 3, 3) and model.means.shape == (4, 3, 3, 5)
        for token, hmm in enumerate(hmms):
            for s, (view, state) in enumerate(zip(model.hmms[token].states, hmm.states)):
                c = state.n_components
                assert model.counts[token, s] == view.n_components == c
                for name in ("weights", "means", "variances"):
                    assert np.array_equal(getattr(view, name), getattr(state, name))
                    assert np.shares_memory(getattr(view, name), getattr(model, name))
                # padding: weight 0, mean 0, variance 1
                assert not model.weights[token, s, c:].any()
                assert not model.means[token, s, c:].any()
                assert np.all(model.variances[token, s, c:] == 1.0)
        # the records were copied: editing them leaves the model as it was
        before = matm_bytes(model)
        hmms[0].states[0].means += 1.0
        assert matm_bytes(model) == before

    def test_an_edit_through_a_view_edits_the_model(self):
        model = LevelModel(Granularity(2, 3), self.tokens(np.random.default_rng(4), 3, 2),
                           np.full(3, 1.0 / 3))
        before = matm_bytes(model)
        model.hmms[1].states[1].means[0, 1] = 7.5
        assert matm_bytes(model) != before
        assert model.means[1, 1, 0, 1] == 7.5

    def test_a_warm_start_leaves_its_init_model_as_it_was(self, small_corpus):
        spec, corpus, truth = small_corpus
        g = Granularity(3, spec.n_tokens)
        init = flat_start_model(corpus, truth.label_set(), g)
        before = matm_bytes(init)
        # a split grows the arrays; the M-steps and the reseeding update them
        cfg = TokenizerConfig(em_iters=3, mixture_schedule=(1,))
        labels = whole_utterance_labels(corpus, token=0)
        model = train_level_hmms(corpus, labels, g, cfg, init_model=init)
        assert matm_bytes(init) == before
        assert matm_bytes(model) != before


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
