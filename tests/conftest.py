import numpy as np
import pytest

from acoustok.corpus import SynthSpec, synthesize_corpus
from acoustok.tokenizer import GaussState, Granularity, LevelModel, TokenHmm


def oracle_level_model(spec: SynthSpec) -> LevelModel:
    """The generating model itself, as a LevelModel: the decode upper bound."""
    hmms = []
    mean_dur = (spec.frames_per_state[0] + spec.frames_per_state[1]) / 2.0
    self_prob = max(0.0, 1.0 - 1.0 / mean_dur)
    for token in range(spec.n_tokens):
        states = [
            GaussState(np.ones(1), spec.state_mean(token, s)[None],
                       np.full((1, spec.dim), spec.emission_std**2))
            for s in range(spec.states_per_token)
        ]
        trans = np.tile([self_prob, 1.0 - self_prob], (spec.states_per_token, 1))
        hmms.append(TokenHmm(token, states, trans))
    prior = np.full(spec.n_tokens, 1.0 / spec.n_tokens)
    return LevelModel(Granularity(spec.states_per_token, spec.n_tokens), hmms, prior)


def random_mixture(rng, c, d, zero_weight=False):
    weights = rng.dirichlet(np.ones(c))
    if zero_weight and c > 1:
        weights[rng.integers(c)] = 0.0
    return GaussState(weights, 2.0 * rng.normal(size=(c, d)), rng.uniform(0.1, 3.0, (c, d)))


def ragged_level_states(rng, n, m, d):
    """[token][state] mixtures of 1-3 components, one of them weighted 0."""
    states = [[random_mixture(rng, int(rng.integers(1, 4)), d) for _ in range(m)]
              for _ in range(n)]
    states[2][1] = random_mixture(rng, 3, d, zero_weight=True)
    counts = {st.n_components for row in states for st in row}
    assert counts == {1, 2, 3}
    assert any(np.any(st.weights == 0.0) for row in states for st in row)
    return states


def frame_error_rate(labels, truth) -> float:
    """Fraction of frames whose decoded id differs from the true id (same id space)."""
    wrong = 0
    total = 0
    for utt, seq in labels.items():
        hyp = seq.frame_labels()
        ref = np.empty_like(hyp)
        for token, start, end in truth.spans[utt]:
            ref[start:end] = token
        wrong += int(np.sum(hyp != ref))
        total += len(hyp)
    return wrong / total


@pytest.fixture(scope="session")
def small_corpus():
    """20 utterances, 5 well-separated tokens: the standard desk fixture."""
    spec = SynthSpec(n_tokens=5, states_per_token=3, dim=8, n_utterances=20)
    corpus, truth = synthesize_corpus(spec, seed=12345)
    return spec, corpus, truth


@pytest.fixture(scope="session")
def recovery_corpus():
    """Larger fixture with distinct per-state structure, enough frames per
    state that the ML mean estimate is well inside 0.2 sigma."""
    spec = SynthSpec(
        n_tokens=5,
        states_per_token=3,
        dim=8,
        n_utterances=80,
        state_drift=2.0,
        frames_per_state=(4, 7),
    )
    corpus, truth = synthesize_corpus(spec, seed=12345)
    return spec, corpus, truth
