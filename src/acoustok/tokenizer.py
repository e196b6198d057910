"""Per-level unsupervised token training: EM on labeled spans alternating with
token-loop Viterbi decoding, repeated over a grid of model configurations.

A level is one token inventory at a granularity (m states per token HMM,
n distinct tokens).  Training a level alternates two half-steps: fit the n
left-to-right HMMs to the current label spans (warm-started from the previous
alternation so the likelihood cannot drop), then re-decode the corpus with the
fitted models to obtain new labels.  Levels are trained independently; levels
sharing the same n start from the same initial label set.

A level trains and decodes as one batch of rows, not a loop over tokens.
Every state density comes from one kernel, `_log_joints`, over a level's
states stacked once per model use.  Training scores each frame of every token
still in EM against its own token's states, for emissions and component
posteriors, in one pass per EM iteration; decoding scores each utterance
against all n * m states in one pass, and that table also serves the
likelihood trace.

The E-step runs once per EM iteration over the spans of every token still
training: every span's alignment, from forward-backward or, for a span no
path traverses, the uniform alignment the flat start also uses, fills one
(N, m) occupancy table over the stacked frames.  Each token's log-likelihood,
transition counts, em_tol check and M-step stay its own, so a token follows
the course EM would take on it alone.

Each recursion runs once per batch of rows, not once per span or utterance.
The E-step's forward-backward runs over the spans padded into one time-major
(L, B, m) emission array, -inf past each span's end.  Decoding runs one
token-loop Viterbi over a batch of consecutive utterances' padded (T, U, n, m)
tables, and the likelihood trace scores every segment of the batch in one
forward pass.  In the E-step and the trace, each row has its own token's
transitions.  A batch's tables and its padded copy stay under BATCH_BYTES.
The batched recursions repeat the per-row element-wise operations, and sums
over frames and over spans add their terms in order, so the results do not
depend on how rows are batched.  `logsumexp` is the package's one log-sum-exp.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

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
            if values[0] < 1:
                raise ValueError(f"{name} granularities must be >= 1, got {values[0]}")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"{name} granularities must be strictly increasing")

    def levels(self) -> list[Granularity]:
        return [Granularity(m, n) for m in self.temporal for n in self.phonetic]


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

    def split(self) -> "GaussState":
        """Double the component count, offsetting means by +/- 0.2 std."""
        offset = 0.2 * np.sqrt(self.variances)
        means = np.vstack([self.means - offset, self.means + offset])
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
    every state at every frame: the density kernel over the states, stacked."""
    return _log_joints(_density_stack(states), frames, np.arange(len(states)))


def _density_stack(states: list[GaussState]) -> tuple[np.ndarray, ...]:
    """States as the density kernel reads them, stacked once: (S, c)
    log-weights, (S, c, d) means and variances, and the (S, c) sums of log
    variances."""
    _, log_weights, means, variances = stack_states(states)
    return log_weights, means, variances, np.sum(np.log(variances), axis=2)


# bytes of the (frames, states, c, d) block one step of the density kernel
# builds; a size that stays in cache, fixed, not a setting
KERNEL_BLOCK_BYTES = 256 << 10


def _log_joints(stack: tuple[np.ndarray, ...], frames: np.ndarray,
                states: np.ndarray) -> np.ndarray:
    """(T, k, c) log weight plus log density of every (padded) component of k
    stacked states at each of T frames.  states holds the k rows of the
    _density_stack that every frame is scored against, (k,), or each frame's
    own, (T, k).  The kernel broadcasts over blocks of frames and states whose
    (frames, states, c, d) temporaries stay under KERNEL_BLOCK_BYTES, or hold
    one frame and one state; every entry is the same element-wise formula,
    however the blocks fall.

    c is the most components a stacked state holds.  A state padded to it
    gains -inf joints, which add exact zeros to its mixture sums while c is
    under 8; from 8 terms numpy sums pairwise, so a padded state's density may
    move in the last bit."""
    log_weights, means, variances, logdet = stack
    c, d = means.shape[1:]
    k = states.shape[-1]
    cols = max(1, min(k, KERNEL_BLOCK_BYTES // (c * d * 8)))
    rows = max(1, KERNEL_BLOCK_BYTES // (cols * c * d * 8))
    out = np.empty((len(frames), k, c))
    for r in range(0, len(frames), rows):
        for s in range(0, k, cols):
            pick = states[r:r + rows, s:s + cols] if states.ndim == 2 else states[s:s + cols]
            diff = frames[r:r + rows, None, None, :] - means[pick]
            quad = np.sum(diff * diff / variances[pick], axis=3)
            out[r:r + rows, s:s + cols] = (-0.5 * (quad + logdet[pick] + d * LOG_2PI)
                                           + log_weights[pick])
    return out


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

    def log_transitions(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, m) log self-loop and advance probabilities of every token."""
        return tuple(map(np.stack, zip(*(h.log_transitions() for h in self.hmms))))


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
        if self.em_iters < 0:
            raise ValueError(f"em_iters must be >= 0, got {self.em_iters}")
        if not self.em_tol >= 0:
            raise ValueError(f"em_tol must be >= 0, got {self.em_tol}")
        if self.outer_iters < 1:
            raise ValueError(f"outer_iters must be >= 1, got {self.outer_iters}")
        if not self.var_floor_frac > 0:  # a zero floor lets a variance reach 0
            raise ValueError(f"var_floor_frac must be > 0, got {self.var_floor_frac}")


# ---------------------------------------------------------------------------
# padded rows: one recursion per batch of spans or utterances
# ---------------------------------------------------------------------------

# bytes a batch of rows may take: its tables, as stacked, plus their padded
# (longest, rows) copy; a batch holds at least one row, however long
BATCH_BYTES = 64 << 20


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along axis, by scipy.special.logsumexp's real-valued
    formula (scipy 1.17), with which it agrees bit for bit: the maxima are
    taken out of the sum as log1p(s / count) + log(count) + max, and where that
    is not finite the direct log(sum(exp(a))) stands."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(a, axis=axis, keepdims=True)
        at_top = a == top
        count = np.sum(at_top, axis=axis, keepdims=True, dtype=a.dtype)
        rest = np.sum(np.exp(np.where(at_top, -np.inf, a) - top), axis=axis, keepdims=True)
        out = np.log1p(np.where(rest == 0, rest, rest / count)) + np.log(count) + top
        direct = ~np.isfinite(out)
        if direct.any():
            out = np.where(direct, np.log(np.sum(np.exp(a), axis=axis, keepdims=True)), out)
    return np.squeeze(out, axis=axis)


def _batches(lengths: np.ndarray, cell_bytes: int, budget: int,
             stacked: bool = True) -> list[slice]:
    """Consecutive rows cut into batches of at most budget bytes, counting
    cell_bytes per cell of the rows' padded copy and, if stacked, of the rows
    themselves (lengths[i] cells each)."""
    batches, start, total, longest = [], 0, 0, 0
    for i, length in enumerate(lengths.tolist()):
        total, longest = total + length * stacked, max(longest, length)
        if i > start and (total + longest * (i + 1 - start)) * cell_bytes > budget:
            batches.append(slice(start, i))
            start, total, longest = i, length * stacked, length
    if len(lengths):
        batches.append(slice(start, len(lengths)))
    return batches


def _pad(stacked: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The (longest, B, ...) time-major copy, -inf where padded, of B rows
    stacked along axis 0, row b holding lengths[b] entries; and the (time, row)
    index of every stacked entry, which gathers the copy back."""
    rows = np.repeat(np.arange(len(lengths)), lengths)
    time = np.arange(len(stacked)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    padded = np.full((lengths.max(), len(lengths)) + stacked.shape[1:], -np.inf)
    padded[time, rows] = stacked
    return padded, (time, rows)


def _ordered_sum(values: np.ndarray):
    """Sum along axis 0 one term at a time, first to last, as a running total
    adds them; numpy's own sum may pair them up."""
    return np.add.accumulate(values, axis=0)[-1] if len(values) else np.zeros(values.shape[1:])


def _alpha(emis: np.ndarray, log_self: np.ndarray, log_adv: np.ndarray) -> np.ndarray:
    """(L, B, m) left-to-right forward recursion over B padded rows of
    emissions, each entering state 0 at its first frame: the log-sum over the
    paths that reach each state at each frame.  The log transitions are one
    token's (m,) or each row's (B, m); a row's -inf padding keeps its alpha
    -inf after its last frame."""
    L, B, m = emis.shape
    alpha = np.full((L, B, m), -np.inf)
    alpha[0, :, 0] = emis[0, :, 0]
    move = np.full((B, m), -np.inf)
    for t in range(1, L):
        move[:, 1:] = alpha[t - 1, :, :-1] + log_adv[..., :-1]
        alpha[t] = np.logaddexp(alpha[t - 1] + log_self, move) + emis[t]
    return alpha


def _beta(emis: np.ndarray, last: np.ndarray, log_self: np.ndarray,
          log_adv: np.ndarray) -> np.ndarray:
    """(L, B, m) backward recursion over B padded rows of emissions, row b
    leaving by the exit at its last frame last[b], with its own (B, m) log
    transitions."""
    L, B, m = emis.shape
    beta = np.full((L, B, m), -np.inf)
    beta[last, np.arange(B), m - 1] = log_adv[:, m - 1]
    move = np.full((B, m), -np.inf)
    for t in range(L - 2, -1, -1):
        stay = log_self + emis[t + 1] + beta[t + 1]
        move[:, :-1] = log_adv[:, :-1] + emis[t + 1, :, 1:] + beta[t + 1, :, 1:]
        np.copyto(beta[t], np.logaddexp(stay, move), where=(t < last)[:, None])
    return beta


def segment_forward_ll(hmm: TokenHmm, frames: np.ndarray) -> float:
    """Forward log-likelihood of a span: enter state 0, exit from the last state."""
    log_self, log_adv = hmm.log_transitions()
    alpha = _alpha(hmm.emission_matrix(frames)[:, None], log_self, log_adv)
    return float(alpha[-1, 0, -1] + log_adv[-1])


def _e_step(emis: np.ndarray, edges: np.ndarray, log_self: np.ndarray,
            log_adv: np.ndarray):
    """Alignment of spans from their stacked (N, m) emissions, span i being
    emis[edges[i]:edges[i + 1]] with (m,) log transitions log_self[i] and
    log_adv[i], its token's: (lls, gamma, stays, moves).

    lls holds each span's log-likelihood and gamma the (N, m) state occupancy;
    the (spans, m) stays and moves hold each span's expected self-loop and
    advance counts, the exit from the last state included.  A span no path
    traverses (shorter than m, or of zero likelihood) gets the uniform
    alignment, scored along it.  Forward and backward run once per batch of
    spans, over their padded (L, B, m) emissions, each row with its own
    transitions.
    """
    m = emis.shape[1]
    lengths = np.diff(edges)
    gamma = np.empty_like(emis)
    B = len(lengths)
    lls, stays, moves = np.empty(B), np.empty((B, m)), np.empty((B, m))
    for batch in _batches(lengths, 8 * m, BATCH_BYTES):
        rows = slice(edges[batch.start], edges[batch.stop])
        padded, index = _pad(emis[rows], lengths[batch])
        last, spans = lengths[batch] - 1, np.arange(batch.stop - batch.start)
        row_self, row_adv = log_self[batch], log_adv[batch]
        alpha = _alpha(padded, row_self, row_adv)
        beta = _beta(padded, last, row_self, row_adv)
        lls[batch] = alpha[last, spans, m - 1] + row_adv[:, m - 1]
        # a span no path traverses is realigned below; a 0 shift keeps its
        # exponents at -inf, where its own -inf would give NaN
        shift = np.where(np.isfinite(lls[batch]), lls[batch], 0.0)[:, None]
        occupancy = np.exp(alpha + beta - shift)
        gamma[rows] = occupancy[index]
        stays[batch] = np.exp(alpha[:-1] + row_self + padded[1:] + beta[1:] - shift).sum(axis=0)
        moves[batch, :-1] = np.exp(alpha[:-1, :, :-1] + row_adv[:, :-1] + padded[1:, :, 1:]
                                   + beta[1:, :, 1:] - shift).sum(axis=0)
        moves[batch, -1] = occupancy[last, spans, m - 1]
    lost = np.flatnonzero(~np.isfinite(lls))
    lost_edges = np.concatenate([[0], np.cumsum(lengths[lost])])
    rows = np.arange(lost_edges[-1]) + np.repeat(edges[lost] - lost_edges[:-1], lengths[lost])
    gamma[rows], stays[lost], moves[lost] = _uniform_alignment(lost_edges, m)
    for i in lost:
        a, b = edges[i], edges[i + 1]
        lls[i] = emis[a:b][gamma[a:b] > 0].sum() + stays[i] @ log_self[i] + moves[i] @ log_adv[i]
    return lls, gamma, stays, moves


def _uniform_alignment(edges: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hard alignment of stacked spans, span i being rows edges[i] to
    edges[i + 1]: the one-hot (N, m) occupancy with each span's (spans, m)
    self-loop and advance counts.  State s of a span of L frames takes its
    frames L * s // m up to L * (s + 1) // m; when L < m, one frame per state
    and the trailing states stay empty."""
    lengths = np.diff(edges)
    span = np.repeat(np.arange(len(lengths)), lengths)
    length = lengths[span]
    frame = np.arange(edges[-1]) - edges[span]
    # the last s with L * s // m <= frame
    state = np.where(length >= m, (m * (frame + 1) - 1) // length, frame)
    frames_in = np.bincount(span * m + state, minlength=len(lengths) * m).reshape(-1, m)
    return np.eye(m)[state], np.maximum(frames_in - 1.0, 0.0), np.minimum(frames_in, 1.0)


# ---------------------------------------------------------------------------
# M-step
# ---------------------------------------------------------------------------

def _m_step(hmm: TokenHmm, resp: np.ndarray, frames: np.ndarray, stay: np.ndarray,
            move: np.ndarray, var_floor: np.ndarray) -> TokenHmm:
    """Reestimate a token from its (N, m, c) component responsibilities over the
    stacked frames and its (m,) expected self-loop and advance counts."""
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


def flat_start_model(corpus: Corpus, labels: LabelSet, g: Granularity,
                     cfg: TokenizerConfig | None = None) -> LevelModel:
    """The model EM starts from: every token's states fitted to a uniform state
    alignment of its spans, with no reestimation.

    A template state has one component, so each frame's whole weight goes to
    it and no density is evaluated.  States that no span reaches keep the
    template's global statistics.
    """
    return _flat_start(_collect_spans(corpus, labels, g.n), _global_stats(corpus), g,
                       cfg or TokenizerConfig())


def _flat_start(spans: list[tuple[np.ndarray, np.ndarray]],
                stats: tuple[np.ndarray, np.ndarray], g: Granularity,
                cfg: TokenizerConfig) -> LevelModel:
    """flat_start_model from already collected spans and global statistics."""
    global_mean, global_var = stats
    hmms = []
    for token, (frames, edges) in enumerate(spans):
        template = TokenHmm(token, [GaussState.single(global_mean, global_var)
                                    for _ in range(g.m)], np.full((g.m, 2), 0.5))
        gamma, stays, moves = _uniform_alignment(edges, g.m)
        hmms.append(_m_step(template, gamma[:, :, None], frames, stays.sum(axis=0),
                            moves.sum(axis=0), cfg.var_floor_frac * global_var))
    return LevelModel(g, hmms, _estimate_prior(spans))


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


def _estimate_prior(spans: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Unigram prior from _collect_spans' per-token span counts."""
    counts = np.array([len(edges) - 1 for _, edges in spans], dtype=float)
    total = counts.sum()
    return counts / total if total > 0 else np.full(len(spans), 1.0 / len(spans))


def _token_statistics(hmms: list[TokenHmm], spans: list[tuple[np.ndarray, np.ndarray]]
                      ) -> list[tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
    """E-step statistics of several tokens at once, hmms[j] with the stacked
    frames and span edges spans[j]: per token, (ll, resp, stay, move), resp
    being the (N, m, c) component responsibilities of its frames.

    One kernel pass scores every frame against its own token's states, and one
    _e_step aligns every span, each with its token's transitions.  ll, stay and
    move add up the token's own spans in span order.
    """
    m = hmms[0].m
    n_frames = [len(frames) for frames, _ in spans]
    n_spans = [len(edges) - 1 for _, edges in spans]
    frame_at = np.cumsum([0] + n_frames)
    span_at = np.cumsum([0] + n_spans)
    frames = np.concatenate([frames for frames, _ in spans])
    edges = np.concatenate([[0]] + [edges[1:] + at for (_, edges), at in zip(spans, frame_at)])
    states = np.repeat(np.arange(len(hmms)) * m, n_frames)[:, None] + np.arange(m)
    joint = _log_joints(_density_stack([s for hmm in hmms for s in hmm.states]), frames, states)
    emis = logsumexp(joint, axis=2)
    log_self, log_adv = map(np.stack, zip(*(hmm.log_transitions() for hmm in hmms)))
    owner = np.repeat(np.arange(len(hmms)), n_spans)
    lls, gamma, stays, moves = _e_step(emis, edges, log_self[owner], log_adv[owner])
    resp = gamma[:, :, None] * np.exp(joint - emis[:, :, None])
    return [(float(_ordered_sum(lls[a:b])), resp[frame_at[j]:frame_at[j + 1]],
             _ordered_sum(stays[a:b]), _ordered_sum(moves[a:b]))
            for j, (a, b) in enumerate(zip(span_at[:-1], span_at[1:]))]


def train_level_hmms(corpus: Corpus, labels: LabelSet, g: Granularity,
                     cfg: TokenizerConfig | None = None,
                     init_model: LevelModel | None = None) -> LevelModel:
    """Fit the n token HMMs to the labeled spans by EM, a level at a time.

    Each EM iteration runs one E-step over the spans of every token still
    training (_token_statistics), then each token's own M-step.  A token stops
    once its log-likelihood gain falls under em_tol, and its spans leave later
    iterations; mixture splits are per token too, so every token follows the
    course EM would take on it alone.  Warm-starts from init_model when given
    (otherwise from the flat start), so successive calls within the
    alternation cannot decrease the likelihood of the training labels.  Tokens
    with no assigned spans are reseeded from a perturbed copy of the most
    populous token's model.
    """
    cfg = cfg or TokenizerConfig()
    validate_label_set(labels, corpus.frame_counts(), g.n)
    spans = _collect_spans(corpus, labels, g.n)
    stats = _global_stats(corpus)
    var_floor = cfg.var_floor_frac * stats[1]
    if init_model is None:
        init_model = _flat_start(spans, stats, g, cfg)

    split_at = set(cfg.mixture_schedule)
    hmms = list(init_model.hmms)  # read only: EM builds new states
    prev_ll: list[float | None] = [None] * g.n
    training = [token for token in range(g.n) if len(spans[token][0])]  # the rest are reseeded
    for it in range(cfg.em_iters):
        if not training:
            break
        # a warm start already holds the components of earlier splits
        target = 2 ** sum(k <= it for k in split_at)
        for token in training:
            hmm = hmms[token]
            if any(s.n_components < target for s in hmm.states):
                hmms[token] = TokenHmm(token, [s.split() if s.n_components < target else s
                                               for s in hmm.states], hmm.transitions.copy())
                prev_ll[token] = None  # mixture count changed, restart convergence check
        stats = _token_statistics([hmms[token] for token in training],
                                  [spans[token] for token in training])
        still = []
        for token, (ll, resp, stay, move) in zip(training, stats):
            hmms[token] = _m_step(hmms[token], resp, spans[token][0], stay, move, var_floor)
            prev = prev_ll[token]
            if prev is None or not abs(ll - prev) / max(1.0, abs(prev)) < cfg.em_tol:
                still.append(token)
            prev_ll[token] = ll
        training = still

    frames_per_token = np.array([len(frames) for frames, _ in spans])
    if np.any(frames_per_token == 0) and np.any(frames_per_token > 0):
        populous = int(np.argmax(frames_per_token))  # argmax ties -> lowest id
        for token in np.flatnonzero(frames_per_token == 0):
            donor = hmms[populous]
            hmms[token] = TokenHmm(int(token), [s.perturbed(cfg.reseed_scale)
                                                for s in donor.states], donor.transitions.copy())
    return LevelModel(g, hmms, _estimate_prior(spans))


# ---------------------------------------------------------------------------
# decoding and the likelihood trace
# ---------------------------------------------------------------------------

def _emission_table(stack: tuple[np.ndarray, ...], frames: np.ndarray,
                    g: Granularity) -> np.ndarray:
    """(T, n, m) state log densities of an utterance: one kernel pass over the
    _density_stack of a level's n * m states, in token-major order."""
    joint = _log_joints(stack, frames, np.arange(g.n * g.m))
    return logsumexp(joint, axis=2).reshape(len(frames), g.n, g.m)


def _table_groups(model: LevelModel, corpus: Corpus):
    """Consecutive utterances of corpus.ids() in batches, each with its
    utterances' emission tables; the model's states are stacked once."""
    g, ids = model.granularity, corpus.ids()
    stack = _density_stack([s for hmm in model.hmms for s in hmm.states])
    lengths = np.array([corpus[utt].n_frames for utt in ids], dtype=np.int64)
    for batch in _batches(lengths, 8 * g.n * g.m, BATCH_BYTES):
        yield ids[batch], [_emission_table(stack, corpus[utt].frames, g) for utt in ids[batch]]


def _viterbi(model: LevelModel, tables: list[np.ndarray], lm_scale: float) -> list[list]:
    """Token-loop Viterbi over utterances' (T, n, m) emission tables, in one
    recursion over their padded (T, U, n, m) copy: any token may follow any
    token, weighted by the prior.  An utterance's scores stop changing after
    its last frame, and its backtrack runs alone."""
    n, m = model.granularity.n, model.granularity.m
    log_prior = model.log_prior(lm_scale)
    log_self, log_adv = model.log_transitions()
    lengths = np.array([len(table) for table in tables], dtype=np.int64)
    emis, _ = _pad(np.concatenate(tables), lengths)
    T, U = len(emis), len(tables)

    delta = np.full((U, n, m), -np.inf)
    delta[:, :, 0] = log_prior + emis[0, :, :, 0]
    # choice codes: 0 = self-loop, 1 = advance within token, 2 = token switch
    choice = np.zeros((T, U, n, m), dtype=np.int8)
    switch_from = np.zeros((T, U), dtype=np.int64)
    move = np.full((U, n, m), -np.inf)

    for t in range(1, T):
        stay = delta + log_self
        move[:, :, 1:] = delta[:, :, :-1] + log_adv[:, :-1]
        exit_scores = delta[:, :, m - 1] + log_adv[:, m - 1]
        best_exit_token = np.argmax(exit_scores, axis=1)
        enter = exit_scores[np.arange(U), best_exit_token][:, None] + log_prior  # into state 0

        stays = stay >= move
        new_delta = np.where(stays, stay, move)
        choice[t] = np.where(stays, 0, 1)
        better_enter = enter > new_delta[:, :, 0]
        new_delta[:, :, 0] = np.where(better_enter, enter, new_delta[:, :, 0])
        choice[t, :, :, 0] = np.where(better_enter, 2, choice[t, :, :, 0])
        switch_from[t] = best_exit_token
        delta = np.where((t < lengths)[:, None, None], new_delta + emis[t], delta)

    final = delta[:, :, m - 1] + log_adv[:, m - 1]
    return [_backtrack(choice[:L, u], switch_from[:L, u], int(np.argmax(final[u])))
            if L >= m else [(int(np.argmax(log_prior)), 0, L)]
            for u, L in enumerate(lengths.tolist())]


def _backtrack(choice: np.ndarray, switch_from: np.ndarray, token: int) -> list:
    """One utterance's segments from its (T, n, m) choice codes and (T,) switch
    sources, ending in the last state of token."""
    T, _, m = choice.shape
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


def decode_utterance(model: LevelModel, frames: np.ndarray, lm_scale: float = 1.0) -> list:
    """Token-loop Viterbi: any token may follow any token, weighted by the prior."""
    stack = _density_stack([s for hmm in model.hmms for s in hmm.states])
    return _viterbi(model, [_emission_table(stack, frames, model.granularity)], lm_scale)[0]


def decode_level(model: LevelModel, corpus: Corpus,
                 cfg: TokenizerConfig | None = None) -> LabelSet:
    lm_scale = (cfg or TokenizerConfig()).lm_scale
    labels: LabelSet = {}
    for utts, tables in _table_groups(model, corpus):
        for utt, segments in zip(utts, _viterbi(model, tables, lm_scale)):
            labels[utt] = TokenLabelSequence(utt, segments)
    return labels


def _segment_scores(model: LevelModel, tables: list[np.ndarray], segment_lists: list,
                    lm_scale: float) -> np.ndarray:
    """Per segment, in list-then-segment order, its span forward log-likelihood
    plus its token's scaled log prior, segment_lists[i] cutting tables[i]: one
    forward per batch of segments, each row with its token's transitions."""
    log_self, log_adv = model.log_transitions()
    tokens = np.array([token for segments in segment_lists for token, _, _ in segments],
                      dtype=np.int64)
    columns = [table[start:end, token] for table, segments in zip(tables, segment_lists)
               for token, start, end in segments]
    lengths = np.array([len(column) for column in columns], dtype=np.int64)
    lls = np.empty(len(columns))
    for batch in _batches(lengths, 8 * model.granularity.m, BATCH_BYTES):
        padded, _ = _pad(np.concatenate(columns[batch]), lengths[batch])
        rows = tokens[batch]
        alpha = _alpha(padded, log_self[rows], log_adv[rows])
        lls[batch] = alpha[lengths[batch] - 1, np.arange(len(rows)), -1] + log_adv[rows, -1]
    return lls + model.log_prior(lm_scale)[tokens]


def corpus_log_likelihood(model: LevelModel, corpus: Corpus, labels: LabelSet,
                          lm_scale: float = 1.0) -> float:
    """Sum over segments of the span forward log-likelihood plus scaled prior
    terms, added in utterance and segment order."""
    for utt in corpus.ids():
        if utt not in labels:
            raise ValueError(f"missing labels for {utt}")
    scores = [_segment_scores(model, tables, [labels[utt].segments for utt in utts], lm_scale)
              for utts, tables in _table_groups(model, corpus)]
    return float(_ordered_sum(np.concatenate([np.empty(0), *scores])))


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
        # one emission table per utterance serves decoding and both trace
        # points, whose segments share one forward per batch of utterances
        new_labels: LabelSet = {}
        train_scores, decode_scores = [], []
        for utts, tables in _table_groups(model, corpus):
            decoded = _viterbi(model, tables, cfg.lm_scale)
            new_labels.update((utt, TokenLabelSequence(utt, segments))
                              for utt, segments in zip(utts, decoded))
            trained = [labels[utt].segments for utt in utts]
            scores = _segment_scores(model, tables + tables, trained + decoded, cfg.lm_scale)
            n_trained = sum(map(len, trained))
            train_scores.append(scores[:n_trained])
            decode_scores.append(scores[n_trained:])
        trace += [("train", float(_ordered_sum(np.concatenate(train_scores)))),
                  ("decode", float(_ordered_sum(np.concatenate(decode_scores))))]
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
    if m < 1 or n < 1:
        raise ValueError(f"{path}: header m = {m}, n = {n}: both must be >= 1")
    hmms = []
    for token in range(n):
        states = []
        for s in range(m):
            (c,) = f.unpack("<I", "component count")
            if c < 1:
                raise ValueError(f"{path}: token {token} state {s}: component count 0, "
                                 "must be >= 1")
            weights = f.array((c,), "weights")
            means = f.array((c, d), "means")
            variances = f.array((c, d), "variances")
            states.append(GaussState(weights, means, variances))
        trans = f.array((m, 2), "transitions")
        hmms.append(TokenHmm(token, states, trans))
    prior = f.array((n,), "prior")
    f.end()
    return LevelModel(Granularity(m, n), hmms, prior)
