"""Kernel microbenchmarks on fixed, seeded paper-width inputs (d=39, two
Gaussian components per state), timed with timeit through public functions
only.  `segment_forward_ll` stands in for the private forward-backward pass.

Each kernel also reports a computed operation count (frame x component x dim,
DTW cells, or state pairs) and computed bytes moved: the float64 inputs read
plus the outputs written, counted once.  Both are derived from the input
shapes, not measured.
"""

from __future__ import annotations

import timeit

import numpy as np

from acoustok.reinforce import ReinforceConfig, lda_fit
from acoustok.retrieval import frame_cost_matrix, subsequence_dtw, token_distance_matrix
from acoustok.tokenizer import (
    GaussState,
    Granularity,
    LevelModel,
    TokenHmm,
    decode_utterance,
    segment_forward_ll,
)

D = 39          # feature dimension
C = 2           # components per state
F8 = 8          # bytes per float64
STATE_BYTES = (C + 2 * C * D) * F8  # weights, means and variances of one state
SEED = 20170718


def _state(rng) -> GaussState:
    return GaussState(np.full(C, 1.0 / C), rng.normal(size=(C, D)),
                      rng.uniform(0.5, 2.0, size=(C, D)))


def _hmm(rng, token: int, m: int) -> TokenHmm:
    return TokenHmm(token, [_state(rng) for _ in range(m)], np.tile([0.7, 0.3], (m, 1)))


def _time_per_call(fn, min_loop: float = 0.05, repeat: int = 5) -> float:
    """Median seconds per call over `repeat` timed loops of at least
    `min_loop` seconds each."""
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < min_loop:
        number *= 2
    return float(np.median(timer.repeat(repeat=repeat, number=number)) / number)


def run() -> dict[str, float]:
    rng = np.random.default_rng(SEED)
    out: dict[str, float] = {}

    def record(name, seconds, scale, unit_key, ops, nbytes):
        out[f"kernel.{name}_{unit_key}"] = seconds * scale
        out[f"kernel.{name}.computed_ops"] = float(ops)
        out[f"kernel.{name}.computed_bytes"] = float(nbytes)

    # emission density of one span: T frames against one two-component state
    T = 20
    state = _state(rng)
    span = rng.normal(size=(T, D))
    record("log_density", _time_per_call(lambda: state.log_density(span)), 1e6, "us",
           T * C * D, T * D * F8 + STATE_BYTES + T * F8)

    # forward log-likelihood of one span through an m=5 token HMM
    m = 5
    hmm = _hmm(rng, 0, m)
    record("segment_forward_ll", _time_per_call(lambda: segment_forward_ll(hmm, span)), 1e6,
           "us", T * m * C * D, T * D * F8 + m * STATE_BYTES + T * m * F8)

    # token-loop Viterbi over one utterance at n=16, m=5
    n, T_utt = 16, 100
    level = LevelModel(Granularity(m, n), [_hmm(rng, k, m) for k in range(n)],
                       np.full(n, 1.0 / n))
    utt = rng.normal(size=(T_utt, D))
    record("decode_utterance", _time_per_call(lambda: decode_utterance(level, utt)), 1e3, "ms",
           T_utt * n * m * C * D,
           T_utt * D * F8 + n * m * STATE_BYTES + T_utt * n * m * (F8 + 1))

    # one collapsed-Gibbs sweep: 200 documents of 8 words, V=200, K=16
    docs = [[int(w) for w in rng.integers(200, size=8)] for _ in range(200)]
    cfg = ReinforceConfig(lda_iters=1)
    tokens = sum(len(d) for d in docs)
    record("lda_sweep", _time_per_call(lambda: lda_fit(docs, 16, 200, cfg, seed=1)), 1e3, "ms",
           tokens * 16, tokens * 16 * 3 * F8)

    # KL table of one level: n=8 tokens, m=5 states, two components each
    small = LevelModel(Granularity(m, 8), level.hmms[:8], np.full(8, 1.0 / 8))
    pairs = 8 * 7 // 2 * m
    record("token_distance_matrix", _time_per_call(lambda: token_distance_matrix(small)), 1e3,
           "ms", pairs, pairs * 2 * STATE_BYTES + 8 * 8 * F8)

    # subsequence DTW over a 40 x 8 token matching matrix
    cost = rng.uniform(size=(40, 8))
    record("subsequence_dtw", _time_per_call(lambda: subsequence_dtw(cost)), 1e6, "us",
           cost.size, 2 * cost.size * F8)

    # cosine frame cost matrix: a 100-frame document against a 30-frame query
    doc, query = rng.normal(size=(100, D)), rng.normal(size=(30, D))
    record("frame_cost_matrix", _time_per_call(lambda: frame_cost_matrix(doc, query)), 1e6, "us",
           100 * 30 * D, (100 + 30) * D * F8 + 100 * 30 * F8)
    return out
