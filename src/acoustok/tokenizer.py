"""Per-level unsupervised token training: EM on labeled spans alternating with
token-loop Viterbi decoding, repeated over a grid of model configurations.

A level is one token inventory at a granularity (m states per token HMM,
n distinct tokens).  Training a level alternates two half-steps: fit the n
left-to-right HMMs to the current label spans (warm-started from the previous
alternation so the likelihood cannot drop), then re-decode the corpus with the
fitted models to obtain new labels.  Levels are trained independently; levels
sharing the same n start from the same initial label set.

Every state density comes from one kernel, `component_log_joints`, called once
per token: by the E-step on the token's stacked span frames, for emissions and
component posteriors, and by decoding, whose table serves the likelihood trace.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .corpus import ArtifactReader, Corpus
from .labels import LabelSet, TokenLabelSequence, validate_label_set

MATM_MAGIC = b"MATM"
MATM_VERSION = 1

PRIOR_FLOOR = 1e-10
TRANS_FLOOR = 1e-300
LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class Granularity:
    m: int  # states per token HMM (temporal granularity)
    n: int  # distinct tokens (phonetic granularity)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class GranularityGrid:
    temporal: tuple[int, ...]  # m values, strictly increasing
    phonetic: tuple[int, ...]  # n values, strictly increasing

    def __post_init__(self):
        for name, values in (("temporal", self.temporal), ("phonetic", self.phonetic)):
            if not values:
                raise ValueError(f"{name} granularities must be non-empty")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"{name} granularities must be strictly increasing")

    def levels(self) -> list[Granularity]:
        return [Granularity(m, n) for m in self.temporal for n in self.phonetic]

    @property
    def n_levels(self) -> int:
        return len(self.temporal) * len(self.phonetic)


@dataclass
class GaussState:
    """Diagonal-covariance Gaussian mixture emission."""

    weights: np.ndarray   # (c,)
    means: np.ndarray     # (c, d)
    variances: np.ndarray # (c, d)

    @classmethod
    def single(cls, mean: np.ndarray, variance: np.ndarray) -> "GaussState":
        return cls(np.ones(1), mean[None, :].copy(), variance[None, :].copy())

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def log_density(self, frames: np.ndarray) -> np.ndarray:
        """(T,) mixture log densities."""
        return logsumexp(component_log_joints([self], frames), axis=2)[:, 0]

    def split(self, scale: float = 0.2) -> "GaussState":
        """Double the component count, offsetting means by +/- scale * std."""
        std = np.sqrt(self.variances)
        means = np.vstack([self.means - scale * std, self.means + scale * std])
        variances = np.vstack([self.variances, self.variances])
        weights = np.concatenate([self.weights, self.weights]) / 2.0
        return GaussState(weights, means, variances)

    def perturbed(self, scale: float) -> "GaussState":
        return GaussState(
            self.weights.copy(),
            self.means + scale * np.sqrt(self.variances),
            self.variances.copy(),
        )


@dataclass
class TokenHmm:
    """Left-to-right HMM: per-state self-loop and advance probabilities,
    advance from the last state is the exit."""

    token_id: int
    states: list[GaussState]
    transitions: np.ndarray  # (m, 2): [self, advance]

    @property
    def m(self) -> int:
        return len(self.states)

    def log_transitions(self) -> tuple[np.ndarray, np.ndarray]:
        t = np.maximum(self.transitions, TRANS_FLOOR)
        return np.log(t[:, 0]), np.log(t[:, 1])

    def emission_matrix(self, frames: np.ndarray) -> np.ndarray:
        """(T, m) state log densities."""
        return logsumexp(component_log_joints(self.states, frames), axis=2)


def stack_states(states: list[GaussState]) -> tuple[np.ndarray, ...]:
    """(S, c) weights and log-weights and (S, c, d) means and variances, c the
    most components a state holds; fewer are padded with weight 0, log-weight
    -inf, mean 0 and variance 1, which add nothing to a mixture sum."""
    S, c, d = len(states), max(st.n_components for st in states), states[0].dim
    weights, log_weights = np.zeros((S, c)), np.full((S, c), -np.inf)
    means, variances = np.zeros((S, c, d)), np.ones((S, c, d))
    for k, st in enumerate(states):
        weights[k, :st.n_components] = st.weights
        log_weights[k, :st.n_components] = np.log(np.maximum(st.weights, 1e-300))
        means[k, :st.n_components] = st.means
        variances[k, :st.n_components] = st.variances
    return weights, log_weights, means, variances


def component_log_joints(states: list[GaussState], frames: np.ndarray) -> np.ndarray:
    """(T, S, c) log weight plus log density of every (padded) component of
    every state at every frame, in one broadcast over a (T, S, c, d) block."""
    _, log_weights, means, variances = stack_states(states)
    diff = frames[:, None, None, :] - means
    quad = np.sum(diff * diff / variances, axis=3)
    logdet = np.sum(np.log(variances), axis=2)
    return -0.5 * (quad + logdet + means.shape[2] * LOG_2PI) + log_weights


@dataclass
class LevelModel:
    granularity: Granularity
    hmms: list[TokenHmm]
    prior: np.ndarray  # (n,) unigram token prior

    def __post_init__(self):
        if len(self.hmms) != self.granularity.n:
            raise ValueError("model must hold exactly n token HMMs")

    def log_prior(self, lm_scale: float = 1.0) -> np.ndarray:
        return lm_scale * np.log(np.maximum(self.prior, PRIOR_FLOOR))


@dataclass
class TokenizerConfig:
    em_iters: int = 10
    em_tol: float = 1e-4           # relative per-token log-likelihood gain
    outer_iters: int = 5
    lm_scale: float = 1.0
    # from each listed EM iteration on, states hold twice as many mixture
    # components; a warm start that already holds them is not split again
    mixture_schedule: tuple[int, ...] = ()
    var_floor_frac: float = 1e-4   # floor = frac * global per-dimension variance
    reseed_scale: float = 0.1      # perturbation for dead-token reseeding

    def __post_init__(self):
        if self.outer_iters < 1:
            raise ValueError(f"outer_iters must be >= 1, got {self.outer_iters}")


# ---------------------------------------------------------------------------
# segment-level forward / backward / viterbi
# ---------------------------------------------------------------------------

def segment_forward_ll(hmm: TokenHmm, frames: np.ndarray) -> float:
    """Forward log-likelihood of a span: enter state 0, exit from the last state."""
    return _span_ll(hmm, hmm.emission_matrix(frames), np.logaddexp)


def _span_ll(hmm: TokenHmm, emis: np.ndarray, combine) -> float:
    """Span log-likelihood from its (L, m) emissions, -inf if L < m; combine as in _alpha."""
    log_self, log_adv = hmm.log_transitions()
    return float(_alpha(emis, log_self, log_adv, combine)[-1, -1] + log_adv[-1])


def _alpha(emis: np.ndarray, log_self: np.ndarray, log_adv: np.ndarray, combine) -> np.ndarray:
    """(L, m) left-to-right recursion entering state 0; combine is np.logaddexp
    for the forward sum over paths, np.maximum for the best path."""
    L, m = emis.shape
    alpha = np.full((L, m), -np.inf)
    alpha[0, 0] = emis[0, 0]
    for t in range(1, L):
        move = np.concatenate(([-np.inf], alpha[t - 1, :-1] + log_adv[:-1]))
        alpha[t] = combine(alpha[t - 1] + log_self, move) + emis[t]
    return alpha


def _forward_backward(hmm: TokenHmm, emis: np.ndarray):
    """Alpha/beta over one span; returns (ll, log_gamma, stay_post, move_post).

    stay_post[t, s] and move_post[t, s] are linear-domain posteriors of taking
    the self-loop / advance transition out of state s at frame t (t < L-1).
    """
    L, m = emis.shape
    log_self, log_adv = hmm.log_transitions()
    alpha = _alpha(emis, log_self, log_adv, np.logaddexp)
    ll = alpha[L - 1, m - 1] + log_adv[m - 1]
    if not np.isfinite(ll):
        return ll, None, None, None
    beta = np.full((L, m), -np.inf)
    beta[L - 1, m - 1] = log_adv[m - 1]
    for t in range(L - 2, -1, -1):
        stay = log_self + emis[t + 1] + beta[t + 1]
        move = np.concatenate((log_adv[:-1] + emis[t + 1, 1:] + beta[t + 1, 1:], [-np.inf]))
        beta[t] = np.logaddexp(stay, move)
    log_gamma = alpha + beta - ll
    stay_post = np.exp(alpha[:-1] + log_self[None, :] + emis[1:] + beta[1:] - ll)
    move_post = np.zeros((L - 1, m))
    move_post[:, :-1] = np.exp(alpha[:-1, :-1] + log_adv[None, :-1] + emis[1:, 1:]
                               + beta[1:, 1:] - ll)
    return float(ll), log_gamma, stay_post, move_post


def _uniform_edges(length: int, m: int) -> list[int]:
    """Hard alignment: state s takes frames edges[s]:edges[s + 1]; when
    length < m, one frame per state and the trailing states stay empty."""
    if length >= m:
        return [(length * s) // m for s in range(m + 1)]
    return list(range(length + 1)) + [length] * (m - length)


# ---------------------------------------------------------------------------
# per-token statistics and M-step
# ---------------------------------------------------------------------------

class _TokenStats:
    def __init__(self, m: int, max_components: int, d: int):
        self.occ = np.zeros((m, max_components))
        self.first = np.zeros((m, max_components, d))
        self.second = np.zeros((m, max_components, d))
        self.stay = np.zeros(m)
        self.move = np.zeros(m)
        self.ll = 0.0

    def _add_state(self, s: int, resp: np.ndarray, frames: np.ndarray):
        """Accumulate state s's (L, c) component responsibilities for the frames."""
        c = resp.shape[1]
        self.occ[s, :c] += resp.sum(axis=0)
        self.first[s, :c] += resp.T @ frames
        self.second[s, :c] += resp.T @ (frames * frames)

    def add_soft(self, frames: np.ndarray, post: np.ndarray, ll, log_gamma, stay_post, move_post):
        gamma = np.exp(log_gamma)  # (L, m)
        m = gamma.shape[1]
        for s in range(m):
            self._add_state(s, gamma[:, s : s + 1] * post[:, s], frames)
        self.stay += stay_post.sum(axis=0)
        self.move += move_post.sum(axis=0)
        self.move[m - 1] += gamma[-1, m - 1]  # exit transition
        self.ll += ll

    def add_hard(self, hmm: TokenHmm, frames: np.ndarray, emis: np.ndarray, post: np.ndarray):
        """Uniform-alignment statistics for a span no path traverses: one
        shorter than m, or one of zero likelihood."""
        score = 0.0
        log_self, log_adv = hmm.log_transitions()
        edges = _uniform_edges(len(frames), hmm.m)
        for s in range(hmm.m):
            start, end = edges[s], edges[s + 1]
            if start == end:
                continue
            score += emis[start:end, s].sum()
            self._add_state(s, post[start:end, s], frames[start:end])
            self.stay[s] += end - start - 1
            self.move[s] += 1.0
            score += (end - start - 1) * log_self[s] + log_adv[s]
        self.ll += score


def _span_posteriors(hmm: TokenHmm, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, m) emissions and (L, m, c) component posteriors from one kernel call."""
    joint = component_log_joints(hmm.states, frames)
    emis = logsumexp(joint, axis=2)
    return emis, np.exp(joint - emis[:, :, None])


def _m_step(hmm: TokenHmm, stats: _TokenStats, var_floor: np.ndarray) -> TokenHmm:
    states = []
    for s, state in enumerate(hmm.states):
        c = state.n_components
        occ = stats.occ[s, :c]
        total = occ.sum()
        if total <= 1e-8:
            states.append(state)  # unvisited state keeps its parameters
            continue
        weights = occ / total
        means = state.means.copy()
        variances = state.variances.copy()
        for k in range(c):
            if occ[k] <= 1e-8:
                continue
            means[k] = stats.first[s, k] / occ[k]
            variances[k] = np.maximum(
                stats.second[s, k] / occ[k] - means[k] ** 2, var_floor
            )
        states.append(GaussState(weights, means, variances))
    trans = hmm.transitions.copy()
    for s in range(hmm.m):
        denom = stats.stay[s] + stats.move[s]
        if denom > 1e-8:
            trans[s, 0] = stats.stay[s] / denom
            trans[s, 1] = stats.move[s] / denom
    return TokenHmm(hmm.token_id, states, trans)


def _flat_start_token(token_id, frames, edges, m, var_floor, global_mean, global_var):
    """Initial single-Gaussian model from a uniform state alignment of the
    spans frames[edges[i]:edges[i + 1]].

    A template state has one component, so each frame's whole weight goes to
    it and no density is evaluated.  States that no span reaches keep the
    template's global statistics.
    """
    template = TokenHmm(token_id, [GaussState.single(global_mean, global_var) for _ in range(m)],
                        np.full((m, 2), 0.5))
    stats = _TokenStats(m, 1, len(global_mean))
    for a, b in zip(edges[:-1], edges[1:]):
        cut = _uniform_edges(b - a, m)
        for s in range(m):
            rows = frames[a + cut[s] : a + cut[s + 1]]
            if not len(rows):
                continue
            stats.occ[s, 0] += len(rows)
            stats.first[s, 0] += rows.sum(axis=0)
            stats.second[s, 0] += (rows * rows).sum(axis=0)
            stats.stay[s] += len(rows) - 1
            stats.move[s] += 1.0
    return _m_step(template, stats, var_floor)


def flat_start_model(corpus: Corpus, labels: LabelSet, g: Granularity,
                     cfg: TokenizerConfig | None = None) -> LevelModel:
    """The model EM would start from: uniform alignments, no reestimation."""
    cfg = cfg or TokenizerConfig()
    spans = _collect_spans(corpus, labels, g.n)
    global_mean, global_var = _global_stats(corpus)
    var_floor = cfg.var_floor_frac * global_var
    hmms = [_flat_start_token(i, *spans[i], g.m, var_floor, global_mean, global_var)
            for i in range(g.n)]
    return LevelModel(g, hmms, _estimate_prior(labels, g.n))


def _collect_spans(corpus: Corpus, labels: LabelSet, n: int
                   ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per token, its labeled frames stacked into one array and the edges that
    cut the stack back into spans: span i is frames[edges[i]:edges[i + 1]]."""
    # sorted utterance order fixes the reduction order, making training
    # independent of how the corpus happens to be ordered
    spans: list[list[np.ndarray]] = [[] for _ in range(n)]
    for utt in sorted(corpus.ids()):
        frames = corpus[utt].frames
        for token, start, end in labels[utt].segments:
            if token >= n:
                raise ValueError(f"{utt}: token id {token} >= n={n}")
            spans[token].append(frames[start:end])
    dim = corpus.utterances[0].dim if corpus.utterances else 0
    return [(np.concatenate(s) if s else np.empty((0, dim)), np.cumsum([0] + [len(f) for f in s]))
            for s in spans]


def _global_stats(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    frames = np.vstack([corpus[utt].frames for utt in sorted(corpus.ids())])
    return frames.mean(axis=0), np.maximum(frames.var(axis=0), 1e-8)


def _estimate_prior(labels: LabelSet, n: int) -> np.ndarray:
    counts = np.zeros(n)
    for seq in labels.values():
        for token, _, _ in seq.segments:
            counts[token] += 1
    total = counts.sum()
    return counts / total if total > 0 else np.full(n, 1.0 / n)


def train_level_hmms(corpus: Corpus, labels: LabelSet, g: Granularity,
                     cfg: TokenizerConfig | None = None,
                     init_model: LevelModel | None = None) -> LevelModel:
    """Fit the n token HMMs to the labeled spans by per-token EM.

    Warm-starts from init_model when given (otherwise from a uniform-alignment
    flat start), so successive calls within the alternation cannot decrease the
    likelihood of the training labels.  Tokens with no assigned spans are
    reseeded from a perturbed copy of the most populous token's model.
    """
    cfg = cfg or TokenizerConfig()
    validate_label_set(labels, corpus.frame_counts(), g.n)
    spans = _collect_spans(corpus, labels, g.n)
    global_mean, global_var = _global_stats(corpus)
    var_floor = cfg.var_floor_frac * global_var
    dim = len(global_mean)

    split_at = set(cfg.mixture_schedule)
    hmms: list[TokenHmm] = []
    for token in range(g.n):
        frames, edges = spans[token]
        if init_model is not None:
            hmm = init_model.hmms[token]  # read only: EM builds new states
        else:
            hmm = _flat_start_token(token, frames, edges, g.m, var_floor, global_mean, global_var)
        if not len(frames):
            hmms.append(hmm)  # reseeded afterwards
            continue
        prev_ll = None
        for it in range(cfg.em_iters):
            # a warm start already holds the components of earlier splits
            target = 2 ** sum(k <= it for k in split_at)
            if any(s.n_components < target for s in hmm.states):
                hmm = TokenHmm(token, [s.split() if s.n_components < target else s
                                       for s in hmm.states], hmm.transitions.copy())
                prev_ll = None  # mixture count changed, restart convergence check
            max_c = max(s.n_components for s in hmm.states)
            stats = _TokenStats(g.m, max_c, dim)
            emis, post = _span_posteriors(hmm, frames)
            for a, b in zip(edges[:-1], edges[1:]):
                ll, log_gamma, stay_post, move_post = _forward_backward(hmm, emis[a:b])
                if log_gamma is None:
                    stats.add_hard(hmm, frames[a:b], emis[a:b], post[a:b])
                else:
                    stats.add_soft(frames[a:b], post[a:b], ll, log_gamma, stay_post, move_post)
            hmm = _m_step(hmm, stats, var_floor)
            if prev_ll is not None:
                if abs(stats.ll - prev_ll) / max(1.0, abs(prev_ll)) < cfg.em_tol:
                    break
            prev_ll = stats.ll
        hmms.append(hmm)

    frames_per_token = np.array([len(frames) for frames, _ in spans])
    if np.any(frames_per_token == 0) and np.any(frames_per_token > 0):
        populous = int(np.argmax(frames_per_token))  # argmax ties -> lowest id
        for token in np.flatnonzero(frames_per_token == 0):
            donor = hmms[populous]
            hmms[token] = TokenHmm(int(token), [s.perturbed(cfg.reseed_scale)
                                                for s in donor.states], donor.transitions.copy())
    return LevelModel(g, hmms, _estimate_prior(labels, g.n))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def _emission_table(model: LevelModel, frames: np.ndarray) -> np.ndarray:
    """(T, n, m) state log densities: one kernel call per token, so the largest
    temporary is (T, m, c, d), never the (T, n * m, c, d) of all tokens."""
    return np.stack([h.emission_matrix(frames) for h in model.hmms], axis=1)


def decode_utterance(model: LevelModel, frames: np.ndarray, lm_scale: float = 1.0) -> list:
    """Token-loop Viterbi: any token may follow any token, weighted by the prior."""
    return _viterbi_tokens(model, _emission_table(model, frames), lm_scale)


def _viterbi_tokens(model: LevelModel, emis: np.ndarray, lm_scale: float) -> list:
    """Token-loop Viterbi over an utterance's (T, n, m) emission table."""
    T, n, m = emis.shape
    log_prior = model.log_prior(lm_scale)
    log_self, log_adv = map(np.stack, zip(*(h.log_transitions() for h in model.hmms)))

    if T < m:
        return [(int(np.argmax(log_prior)), 0, T)]

    delta = np.full((n, m), -np.inf)
    delta[:, 0] = log_prior + emis[0, :, 0]
    # choice codes: 0 = self-loop, 1 = advance within token, 2 = token switch
    choice = np.zeros((T, n, m), dtype=np.int8)
    switch_from = np.zeros(T, dtype=np.int64)

    for t in range(1, T):
        stay = delta + log_self
        move = np.full((n, m), -np.inf)
        move[:, 1:] = delta[:, :-1] + log_adv[:, :-1]
        exit_scores = delta[:, m - 1] + log_adv[:, m - 1]
        best_exit_token = int(np.argmax(exit_scores))
        enter = exit_scores[best_exit_token] + log_prior  # (n,) into state 0

        new_delta = np.where(stay >= move, stay, move)
        choice[t] = np.where(stay >= move, 0, 1)
        better_enter = enter > new_delta[:, 0]
        new_delta[:, 0] = np.where(better_enter, enter, new_delta[:, 0])
        choice[t, :, 0] = np.where(better_enter, 2, choice[t, :, 0])
        switch_from[t] = best_exit_token
        delta = new_delta + emis[t]

    final = delta[:, m - 1] + log_adv[:, m - 1]
    token = int(np.argmax(final))
    state = m - 1
    boundaries = []  # segment start frames with their token
    for t in range(T - 1, 0, -1):
        c = choice[t, token, state]
        if c == 1:
            state -= 1
        elif c == 2:
            boundaries.append((t, token))
            token = int(switch_from[t])
            state = m - 1
    boundaries.append((0, token))
    boundaries.reverse()
    ends = [start for start, _ in boundaries[1:]] + [T]
    return [(tok, start, end) for (start, tok), end in zip(boundaries, ends)]


def decode_level(model: LevelModel, corpus: Corpus,
                 cfg: TokenizerConfig | None = None) -> LabelSet:
    lm_scale = (cfg or TokenizerConfig()).lm_scale
    return {utt: TokenLabelSequence(utt, decode_utterance(model, corpus[utt].frames, lm_scale))
            for utt in corpus.ids()}


def corpus_log_likelihood(model: LevelModel, corpus: Corpus, labels: LabelSet,
                          lm_scale: float = 1.0, method: str = "forward") -> float:
    """Sum over segments of the span log-likelihood plus scaled prior terms.

    method "forward" sums over state alignments; "viterbi" takes the best one
    (the quantity the decoder maximizes).
    """
    combine = {"forward": np.logaddexp, "viterbi": np.maximum}.get(method)
    if combine is None:
        raise ValueError(f"unknown likelihood method {method!r}: expected 'forward' or 'viterbi'")
    total = 0.0
    for utt in corpus.ids():
        if utt not in labels:
            raise ValueError(f"missing labels for {utt}")
        table = _emission_table(model, corpus[utt].frames)
        total = _add_segment_lls(total, model, table, labels[utt].segments, lm_scale, combine)
    return float(total)


def _add_segment_lls(total, model: LevelModel, emis, segments, lm_scale, combine=np.logaddexp):
    """total plus, added one by one, each segment's span LL and prior from a (T, n, m) table."""
    log_prior = model.log_prior(lm_scale)
    for token, start, end in segments:
        total += _span_ll(model.hmms[token], emis[start:end, token], combine) + log_prior[token]
    return total


# ---------------------------------------------------------------------------
# alternation and the grid
# ---------------------------------------------------------------------------

def run_level(corpus: Corpus, init_labels: LabelSet, g: Granularity,
              cfg: TokenizerConfig | None = None
              ) -> tuple[LevelModel, LabelSet, list[tuple[str, float]]]:
    """Alternate model fitting and decoding until the labels stop changing.

    Returns the final model, the final labels, and a trace of the corpus
    log-likelihood after every half-step.
    """
    cfg = cfg or TokenizerConfig()
    labels = init_labels
    model: LevelModel | None = None
    trace: list[tuple[str, float]] = []
    for _ in range(cfg.outer_iters):
        model = train_level_hmms(corpus, labels, g, cfg, init_model=model)
        # one emission table per utterance serves decoding and both trace points
        train_ll = decode_ll = 0.0
        new_labels: LabelSet = {}
        for utt in corpus.ids():
            table = _emission_table(model, corpus[utt].frames)
            segments = _viterbi_tokens(model, table, cfg.lm_scale)
            new_labels[utt] = TokenLabelSequence(utt, segments)
            train_ll = _add_segment_lls(train_ll, model, table, labels[utt].segments, cfg.lm_scale)
            decode_ll = _add_segment_lls(decode_ll, model, table, segments, cfg.lm_scale)
        trace += [("train", float(train_ll)), ("decode", float(decode_ll))]
        changed = any(new_labels[utt].segments != labels[utt].segments for utt in corpus.ids())
        labels = new_labels
        if not changed:
            break
    return model, labels, trace


def run_mat(corpus: Corpus, grid: GranularityGrid, init_labels_per_n: dict[int, LabelSet],
            cfg: TokenizerConfig | None = None
            ) -> tuple[dict[Granularity, LevelModel], dict[Granularity, LabelSet]]:
    """Train every level of the grid independently.

    All levels with the same phonetic granularity n start from the same
    initial label set init_labels_per_n[n].
    """
    cfg = cfg or TokenizerConfig()
    for n in grid.phonetic:
        if n not in init_labels_per_n:
            raise ValueError(f"missing initial labels for n={n}")
    models: dict[Granularity, LevelModel] = {}
    labels: dict[Granularity, LabelSet] = {}
    for g in grid.levels():
        model, lab, _ = run_level(corpus, init_labels_per_n[g.n], g, cfg)
        models[g] = model
        labels[g] = lab
    return models, labels


# ---------------------------------------------------------------------------
# model file I/O
# ---------------------------------------------------------------------------

def matm_bytes(model: LevelModel) -> bytes:
    """Versioned binary model file, parameters as little-endian 64-bit floats."""
    g = model.granularity
    d = model.hmms[0].states[0].dim
    parts = [MATM_MAGIC, struct.pack("<IIII", MATM_VERSION, g.m, g.n, d)]
    for hmm in model.hmms:
        for state in hmm.states:
            parts.append(struct.pack("<I", state.n_components))
            parts.append(np.asarray(state.weights, "<f8").tobytes())
            parts.append(np.asarray(state.means, "<f8").tobytes())
            parts.append(np.asarray(state.variances, "<f8").tobytes())
        parts.append(np.asarray(hmm.transitions, "<f8").tobytes())
    parts.append(np.asarray(model.prior, "<f8").tobytes())
    return b"".join(parts)


def read_matm(path) -> LevelModel:
    f = ArtifactReader(path, MATM_MAGIC, MATM_VERSION)
    m, n, d = f.unpack("<III", "header")
    hmms = []
    for token in range(n):
        states = []
        for _ in range(m):
            (c,) = f.unpack("<I", "component count")
            weights = f.array((c,), "weights")
            means = f.array((c, d), "means")
            variances = f.array((c, d), "variances")
            states.append(GaussState(weights, means, variances))
        trans = f.array((m, 2), "transitions")
        hmms.append(TokenHmm(token, states, trans))
    prior = f.array((n,), "prior")
    f.end()
    return LevelModel(Granularity(m, n), hmms, prior)
