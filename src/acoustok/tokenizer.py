"""Per-level unsupervised token training: EM on labeled spans alternating with
token-loop Viterbi decoding, repeated over a grid of model configurations.

A level is one token inventory at a granularity (m states per token HMM,
n distinct tokens).  Training a level alternates two half-steps: fit the n
left-to-right HMMs to the current label spans (warm-started from the previous
alternation so the likelihood cannot drop), then re-decode the corpus with the
fitted models to obtain new labels.  Levels sharing the same n start from the
same initial label set.

The levels of one m run as one batch, a group (run_mat), and each gets the
bytes it would get alone: they share the corpus, the state count and every
kernel shape, so each EM iteration lays out the spans of every level
together and runs one E-step and one M-step call over them, and each batch
of utterances gets one Viterbi recursion over the levels' tokens side by
side, each level taking its best exit over its own tokens.  Side by side is
one token axis, token_offsets, a level's token k being its offset + k; MR's
pseudo-word vocabulary is the same axis over the grid.  Each level keeps its
own model (its density centre and component count, so every kernel product
keeps the shape it has alone), prior, reseeding, emission table, likelihood
trace, backtrack and outer-loop stop: a level leaves the group at its
fixpoint.  Groups are cut in n order under BATCH_BYTES, a level counting as
its emission table over the corpus, so a level too large to share a batch
runs alone.

A level trains and decodes as one batch of rows of the corpus matrix,
`Corpus.frames`, not a loop over tokens: a labeled span is a row range
gathered by index, a decoding batch of consecutive utterances a slice.  Its
model, `LevelModel`, is its states stacked into arrays (component counts,
weights, means, variances, transitions) with its token prior, and every
state density comes from one kernel, `_log_joints`, in the layout of Kaldi's
diagonal GMMs (Povey et al., ASRU 2011): a component's log joint is [x^2, x]
times its row (-1/2v, mu/v) plus its constant, frames and means taken
relative to a centre that depends on the model alone.  `GaussState` and
`TokenHmm` records are the model's constructor input and views of its rows;
`decode_utterance` and `segment_forward_ll` are `decode_level` and
`corpus_log_likelihood` on a corpus of one.  EM, mixture splits and
reseeding included, updates a copy of the warm start's arrays, or the flat
start's, in place.

A training call lays its group's spans out once (`_SpanLayout`), and again
only when a token leaves EM.  Each EM iteration scores each token's rows
against its own states in one product, aligns every span still training in
one E-step (forward-backward, or for a span no path traverses the uniform
alignment the flat start uses), and takes each token's occupancies and
moments in one product of the M-step; each token's log-likelihood, em_tol
check and splits stay its own, so it follows the course EM would take on it
alone.  Decoding scores a batch of utterances against all n * m states of a
level in one product, a table that also serves the level's likelihood
trace.

Transitions are durations.  A left-to-right token with no skips, entered at
state 0 and left from state m - 1, enters and leaves each state once on
every path through a span, so a state's expected advances are its visits
(one per span) and its expected self-loops its occupancy less its visits:
the Baum-Welch ratio of expected transitions to occupancy (Rabiner, Proc.
IEEE 1989) for this topology gives advance = visits / occupancy, the inverse
of the state's mean duration.  The E-step computes no transition posterior.

Each recursion runs once per batch of rows padded time-major, state axis
outside the rows and -inf past each row's end, so a frame's calls run on
contiguous arrays: the E-step's forward-backward over (L, m, B) spans, and
the token-loop Viterbi over (T, m, U, n) tables, with one back-pointer flag
per state and frame, whose segments the trace scores in one forward pass.  A
batch stays under BATCH_BYTES.  Per-row operations repeat, sums over frames
and spans add in order, and every kernel product has one shape, so results
do not depend on the batching, as far as the density kernel's products do
not (_log_joints).  `logsumexp`, the package's one log-sum-exp,
folds components in one at a time: one component costs no pass, its density
being a slice of the kernel's joints, and each further one rounds once.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass, field

import numpy as np

from .corpus import ArtifactReader, Corpus, FeatureSequence, row_batches
from .labels import LabelSet, TokenLabelSequence, validate_label_set

MATM_MAGIC = b"MATM"
MATM_VERSION = 1

PRIOR_FLOOR = 1e-10
TRANS_FLOOR = 1e-300
LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True, order=True)  # levels sort by m, then n
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


def token_offsets(gs: list[Granularity]) -> list[int]:
    """The token axis of levels side by side: where each level of gs begins,
    its tokens following those of the levels before it, and the axis' length
    last.  A MAT group lays its levels' spans, priors and Viterbi out on it,
    and MR's pseudo-word vocabulary is it over the grid."""
    return np.cumsum([0] + [g.n for g in gs]).tolist()


@dataclass
class GaussState:
    """Diagonal-covariance Gaussian mixture emission."""

    weights: np.ndarray   # (c,)
    means: np.ndarray     # (c, d)
    variances: np.ndarray # (c, d)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def log_density(self, frames: np.ndarray) -> np.ndarray:
        """(T,) mixture log densities: the emission table of a level of one
        one-state token."""
        level = LevelModel(Granularity(1, 1), [TokenHmm(0, [self], np.ones((1, 2)))], np.ones(1))
        return _emission_table(level.density_stack(), frames, 1)[:, 0, 0]

    def split(self) -> "GaussState":
        """Double the component count, offsetting means by +/- 0.2 std."""
        weights, means, variances = _split_components(
            self.weights[None], self.means[None], self.variances[None],
            np.array([self.n_components]))
        return GaussState(weights[0], means[0], variances[0])


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


def padded_log_weights(weights: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The log of stacked (..., c) weights, of which counts (...) are real in
    each row, and -inf on the padding, which adds nothing to a mixture's
    log-sum."""
    real = np.arange(weights.shape[-1]) < counts[..., None]
    return np.where(real, np.log(np.maximum(weights, 1e-300)), -np.inf)


def _split_components(weights: np.ndarray, means: np.ndarray, variances: np.ndarray,
                      counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked mixtures with every component doubled: of the (S, c) weights and
    (S, c, d) means and variances, row i holding counts[i] components, its
    component j becomes components j and j + counts[i], with half the weight
    and the mean minus and plus 0.2 std.  The (S, 2c) and (S, 2c, d) results
    are padded as LevelModel pads."""
    j = np.arange(2 * weights.shape[1])
    k = counts[:, None]
    lower, real = j < k, j < 2 * k
    source = np.where(lower, j, np.where(real, j - k, 0))
    rows = np.arange(len(counts))[:, None]
    mean, variance = means[rows, source], variances[rows, source]
    offset = 0.2 * np.sqrt(variance)
    return (np.where(real, weights[rows, source] / 2.0, 0.0),
            np.where(real[..., None], np.where(lower[..., None], mean - offset, mean + offset), 0.0),
            np.where(real[..., None], variance, 1.0))


# frames per product of the density kernel: every product it makes has this
# many rows, the last block padded, since BLAS may round a product of another
# shape otherwise (a one-row product goes to gemv, small ones take other
# kernels); fixed, not a setting
PRODUCT_ROWS = 16


def _log_joints(stack: tuple[np.ndarray, ...], frames: np.ndarray) -> np.ndarray:
    """(T, c, k) log weight plus log density of every (padded) component of
    the k states of stack, a LevelModel.density_stack or a run of its states,
    at each of T frames: [(x - centre)^2, x - centre] times each component's
    row, plus its constant.  Component j of every state is one (T, k) slice,
    so a mixture log-sum reduces over an outer axis, one slice at a time.

    The frames go in blocks of PRODUCT_ROWS, the last padded with zero rows,
    and the blocks' products are one stacked matmul, which numpy runs as one
    product of the same shape per block.  So on levels of up to 150 states,
    as measured, a frame's joints do not depend on which frames share its
    batch or its block, nor on the thread count (OpenBLAS at 1 and 2
    threads); on levels of 500 or more states under the SkylakeX core at
    one thread they do, in the last bits.  The expanded form rounds
    differently from the element-wise (x - mu)^2 / v; the centre keeps its
    cancellation at the scale of the level's spread.

    c is the most components a stacked state holds.  A state padded to it
    gains -inf joints, which logsumexp's fold adds as exact zeros."""
    centre, rows, const = stack
    c, k, width = rows.shape
    d, T = width // 2, len(frames)
    x = np.zeros((-(-T // PRODUCT_ROWS) * PRODUCT_ROWS, width))
    np.subtract(frames, centre, out=x[:T, d:])
    np.square(x[:T, d:], out=x[:T, :d])
    joint = x.reshape(-1, PRODUCT_ROWS, width) @ rows.reshape(c * k, width).T
    joint = joint.reshape(-1, c * k)[:T]
    joint += const.reshape(c * k)
    return joint.reshape(T, c, k)


class LevelModel:
    """A level's n token HMMs of m states as stacked arrays: the (n, m)
    component counts, (n, m, c) weights and (n, m, c, d) means and variances,
    c the most components a state holds, and the (n, m, 2) transitions, with
    the (n,) unigram token prior.  A state with fewer than c components is
    padded with weight 0, mean 0 and variance 1, which add nothing to a
    mixture sum.  EM updates the arrays in place, and c grows when states
    split.

    LevelModel(granularity, hmms, prior) stacks the records once.  `hmms`
    gives them back as views of the rows, each state cut to its own
    components, so an in-place edit through a view edits the model."""

    def __init__(self, granularity: Granularity, hmms: list[TokenHmm], prior: np.ndarray):
        n, m = granularity.n, granularity.m
        if len(hmms) != n:
            raise ValueError("model must hold exactly n token HMMs")
        if np.shape(prior) != (n,):
            raise ValueError(f"prior of shape {np.shape(prior)}, where n = {n} needs ({n},)")
        for token, hmm in enumerate(hmms):
            if hmm.m != m or np.shape(hmm.transitions) != (m, 2):
                raise ValueError(f"token {token}: {hmm.m} states and transitions of shape "
                                 f"{np.shape(hmm.transitions)}, where m = {m} needs ({m}, 2)")
        c = max(state.n_components for hmm in hmms for state in hmm.states)
        d = hmms[0].states[0].dim
        counts, weights = np.zeros((n, m), dtype=np.int64), np.zeros((n, m, c))
        means, variances = np.zeros((n, m, c, d)), np.ones((n, m, c, d))
        for token, hmm in enumerate(hmms):
            for s, state in enumerate(hmm.states):
                if state.dim != d:
                    raise ValueError(f"token {token} state {s}: states have different feature "
                                     f"dimensions, {state.dim} where token 0 state 0 has {d}")
                k = counts[token, s] = state.n_components
                weights[token, s, :k], means[token, s, :k], variances[token, s, :k] = (
                    state.weights, state.means, state.variances)
        self._hold(granularity, counts, weights, means, variances,
                   np.stack([hmm.transitions for hmm in hmms]), prior)

    def _hold(self, granularity: Granularity, counts: np.ndarray, weights: np.ndarray,
              means: np.ndarray, variances: np.ndarray, transitions: np.ndarray,
              prior: np.ndarray):
        """Take stacked arrays as they are, without copying them."""
        self.granularity, self.prior = granularity, prior
        self.counts, self.weights, self.means, self.variances, self.transitions = (
            counts, weights, means, variances, transitions)

    @property
    def hmms(self) -> list[TokenHmm]:
        """The token HMMs as views of the rows, each state cut to its own
        components."""
        return [TokenHmm(token, [GaussState(self.weights[token, s, :c], self.means[token, s, :c],
                                            self.variances[token, s, :c])
                                 for s, c in enumerate(counts)], self.transitions[token])
                for token, counts in enumerate(self.counts.tolist())]

    def log_prior(self, lm_scale: float = 1.0) -> np.ndarray:
        return lm_scale * np.log(np.maximum(self.prior, PRIOR_FLOOR))

    def density_stack(self, c: int | None = None, tokens=slice(None)) -> tuple[np.ndarray, ...]:
        """The S states of tokens (all n by default), token-major, cut to their
        first c components (all when c is None), as the density kernel reads
        them: the (d,) centre, component-major (c, S, 2d) rows (-1/2v, mu/v)
        and (c, S) constants log w - (sum mu^2/v + sum log v + d log 2 pi) / 2,
        mu taken relative to the centre, the mean of the means of every real
        component of the level whatever c and tokens, so a frame's joints
        depend on the model alone.  A padding component's constant is -inf."""
        S, d = self.counts[tokens].size, self.means.shape[3]
        centre = self.means[np.arange(self.weights.shape[2]) < self.counts[..., None]].mean(axis=0)
        means, variances = self.means[tokens, :, :c] - centre, self.variances[tokens, :, :c]
        inv_var = 1.0 / variances
        scaled = means * inv_var
        const = (padded_log_weights(self.weights[tokens], self.counts[tokens])[:, :, :c]
                 - 0.5 * (np.sum(means * scaled, axis=3) + np.sum(np.log(variances), axis=3)
                          + d * LOG_2PI))
        rows = np.concatenate([-0.5 * inv_var, scaled], axis=3)
        # (tokens, m, c, ...) to component-major (c, S, ...)
        return (centre, rows.transpose(2, 0, 1, 3).reshape(-1, S, 2 * d),
                const.transpose(2, 0, 1).reshape(-1, S))

    def log_transitions(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, m) log self-loop and advance probabilities."""
        log_t = np.log(np.maximum(self.transitions, TRANS_FLOOR))
        return log_t[..., 0], log_t[..., 1]

    def split(self, tokens: np.ndarray, target: int) -> np.ndarray:
        """Split each state of tokens that holds fewer than target
        components (_split_components); returns the tokens split."""
        short = np.zeros(self.counts.shape, dtype=bool)
        short[tokens] = self.counts[tokens] < target
        if not short.any():
            return tokens[:0]
        grow = 2 * int(self.counts[short].max()) - self.weights.shape[2]
        if grow > 0:  # the new columns are padding: weight 0, mean 0, variance 1
            self.weights, self.means, self.variances = (
                np.pad(a, [(0, 0), (0, 0), (0, grow)] + [(0, 0)] * (a.ndim - 3),
                       constant_values=fill)
                for a, fill in ((self.weights, 0.0), (self.means, 0.0), (self.variances, 1.0)))
        c = self.weights.shape[2]
        split = _split_components(self.weights[short], self.means[short], self.variances[short],
                                  self.counts[short])
        self.weights[short], self.means[short], self.variances[short] = (a[:, :c] for a in split)
        self.counts[short] *= 2
        return np.flatnonzero(short.any(axis=1))


@dataclass
class TokenizerConfig:
    em_iters: int = 10
    em_tol: float = 1e-4           # relative per-token log-likelihood gain
    outer_iters: int = 5
    lm_scale: float = 1.0
    # from each listed EM iteration on (counted from 0 on every training call,
    # so strictly increasing and below em_iters), states hold twice as many
    # mixture components; a warm start that already holds them is not split
    mixture_schedule: tuple[int, ...] = ()
    var_floor_frac: float = 1e-4   # floor = frac * global per-dimension variance
    reseed_scale: float = 0.1      # perturbation for dead-token reseeding

    def __post_init__(self):
        if self.em_iters < 0:
            raise ValueError(f"em_iters must be >= 0, got {self.em_iters}")
        if not self.em_tol >= 0:
            raise ValueError(f"em_tol must be >= 0, got {self.em_tol}")
        if tuple(self.mixture_schedule) != tuple(k for k in range(self.em_iters)
                                                 if k in self.mixture_schedule):
            raise ValueError(f"mixture_schedule must be strictly increasing EM iterations in "
                             f"[0, {self.em_iters}), got {list(self.mixture_schedule)}")
        if self.outer_iters < 1:
            raise ValueError(f"outer_iters must be >= 1, got {self.outer_iters}")
        if not self.var_floor_frac > 0:  # a zero floor lets a variance reach 0
            raise ValueError(f"var_floor_frac must be > 0, got {self.var_floor_frac}")


# ---------------------------------------------------------------------------
# padded rows: one recursion per batch of spans or utterances
# ---------------------------------------------------------------------------

# bytes a batch of rows may take: its tables, as stacked, plus their padded
# (longest, rows) copy; a batch holds at least one row, however long.  run_mat
# cuts its groups of levels under it too, a level's rows being its tokens'
# emission tables over the corpus
BATCH_BYTES = 64 << 20


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along axis as a fold: term 0, a view of a, then each
    further term as hi + log1p(exp(lo - hi)), hi and lo the larger and smaller
    of the running sum and the term, lo - hi kept -inf where hi is -inf.  An
    axis of one term comes back as a view, with no pass; a -inf term adds an
    exact 0, so a single finite term comes back unchanged and a row all -inf
    gives -inf; each further term rounds once more.  The result may be a
    view of a, so no caller writes into it."""
    terms = np.moveaxis(a, axis, 0)[:, None]  # a 1-D a keeps arrays to fold
    out = terms[0]
    for term in terms[1:]:
        hi, lo = np.maximum(out, term), np.minimum(out, term)
        np.subtract(lo, hi, out=lo, where=np.isfinite(hi))
        hi += np.log1p(np.exp(lo, out=lo), out=lo)
        out = hi
    return out[0]


def _ranges(first, lengths: np.ndarray) -> np.ndarray:
    """The indices of consecutive ranges, concatenated: range i holds
    lengths[i] indices from first[i] on (from first, when a scalar)."""
    return np.arange(lengths.sum()) + np.repeat(first - (np.cumsum(lengths) - lengths), lengths)


def _pad_index(lengths: np.ndarray, k: int) -> np.ndarray:
    """Where stacked rows of these lengths, of k entries each, go in their
    padded copy (_pad): each entry's (N, k) flat offset in its (longest, k, B) axes."""
    time, row = _ranges(0, lengths), np.repeat(np.arange(len(lengths)), lengths)
    return (time[:, None] * k + np.arange(k)) * len(lengths) + row[:, None]


def _pad(stacked: np.ndarray, lengths: np.ndarray, fill: float = -np.inf, index=None):
    """The (longest, k, B, ...) time-major copy, fill where padded, of B rows
    stacked (N, k, ...), so a slice of k is contiguous: row b holds lengths[b]
    entries, placed by index (_pad_index, unless given), which gathers them."""
    k, rest = stacked.shape[1], stacked.shape[2:]
    padded = np.full((lengths.max(), k, len(lengths)) + rest, fill)
    padded.reshape((-1,) + rest)[_pad_index(lengths, k) if index is None else index] = stacked
    return padded


def _ordered_sum(values: np.ndarray):
    """Sum along axis 0 one term at a time, first to last, as a running total
    adds them; numpy's own sum may pair them up."""
    return np.add.accumulate(values, axis=0)[-1] if len(values) else np.zeros(values.shape[1:])


def _alpha(emis: np.ndarray, log_self: np.ndarray, log_adv: np.ndarray) -> np.ndarray:
    """(L, m, B) forward log-sums over B padded rows of state-major emissions
    with their (B, m) log transitions, each row entering state 0 at its first
    frame, -inf past its end.  A frame makes four ufunc calls on contiguous
    views cut before the loop: its self-loops go straight into it, and
    logaddexp adds the advances into states 1..m-1, logaddexp(x, -inf) being x."""
    L, m, B = emis.shape
    alpha = np.empty((L, m, B))  # the loop writes every frame after the first
    alpha[0, 1:], alpha[0, 0] = -np.inf, emis[0, 0]
    loop, adv, move = log_self.T.copy(), log_adv.T[:-1].copy(), np.empty((m - 1, B))
    add, logaddexp = np.add, np.logaddexp
    for prev, head, cur, tail, e in zip(alpha[:-1], alpha[:-1, :-1], alpha[1:], alpha[1:, 1:],
                                        emis[1:]):
        add(prev, loop, out=cur)
        add(head, adv, out=move)
        logaddexp(tail, move, out=tail)
        add(cur, e, out=cur)
    return alpha


def _beta(emis: np.ndarray, last: np.ndarray, log_self: np.ndarray,
          log_adv: np.ndarray) -> np.ndarray:
    """(L, m, B) backward recursion over B padded rows of state-major emissions
    with their (B, m) log transitions, row b leaving at its last frame last[b]
    by the exit, a move out of state m - 1 into an end holding 0 after it, so
    no mask is needed.  A frame makes three ufunc calls on contiguous views
    cut before the loop, from the last frame back: the self-loops go straight
    into the frame, and logaddexp adds the advances out of states 0..m-2."""
    L, m, B = emis.shape
    t = np.arange(L)[:, None]
    end = np.where(t > last, 0.0, log_adv[:, m - 1])  # state m - 1 from a row's last frame
    # (transition + emission) for every frame at once; the recursion adds beta
    stay, move = log_self.T + emis[1:], log_adv.T[:-1] + emis[1:, 1:]
    np.copyto(stay[:, m - 1], end[:-1], where=t[:-1] >= last)
    beta = np.empty((L, m, B))  # the loop writes every frame before the last
    beta[-1, :-1], beta[-1, m - 1] = -np.inf, end[-1]
    add, logaddexp = np.add, np.logaddexp
    for st, mv, nxt, tail, cur, head in zip(stay[::-1], move[::-1], beta[:0:-1], beta[:0:-1, 1:],
                                            beta[-2::-1], beta[-2::-1, :-1]):
        add(st, nxt, out=cur)
        add(mv, tail, out=mv)
        logaddexp(head, mv, out=head)
    return beta


def _e_step_batches(lengths: np.ndarray, m: int) -> list[tuple[slice, tuple]]:
    """The E-step's batches of spans of these lengths, with their padded copies' index."""
    return [(b, _pad_index(lengths[b], m)) for b in row_batches(lengths, 8 * m, BATCH_BYTES)]


def _e_step(emis: np.ndarray, edges: np.ndarray, log_self: np.ndarray,
            log_adv: np.ndarray, batches: list):
    """Alignment of spans from their stacked (N, m) emissions, span i being
    emis[edges[i]:edges[i + 1]] with (m,) log transitions log_self[i] and
    log_adv[i], its token's: (lls, gamma, visits).

    lls holds each span's log-likelihood, gamma the (N, m) state occupancy,
    each frame's divided by their sum, and visits each span's (spans, m)
    visits to each state: 1 per state for a span that paths traverse, since
    each path enters and leaves every state once, which is all the M-step
    needs for the transitions (_m_step), so no transition posterior is
    computed.  A span no path traverses (shorter than m, or of zero
    likelihood) gets the uniform alignment, scored along it.  Forward and
    backward run once per batch of spans (batches, _e_step_batches of the
    spans), over their padded state-major (L, m, B) emissions, each row with
    its own transitions; only the spans' real cells are exponentiated.
    """
    m, lengths = emis.shape[1], np.diff(edges)
    gamma, lls = np.empty_like(emis), np.empty(len(lengths))
    for batch, index in batches:
        rows = slice(edges[batch.start], edges[batch.stop])
        padded = _pad(emis[rows], lengths[batch], index=index)
        last, spans = lengths[batch] - 1, np.arange(batch.stop - batch.start)
        row_self, row_adv = log_self[batch], log_adv[batch]
        alpha = _alpha(padded, row_self, row_adv)
        beta = _beta(padded, last, row_self, row_adv)
        lls[batch] = alpha[last, m - 1, spans] + row_adv[:, m - 1]
        # a span no path traverses is realigned below; a 0 shift keeps its
        # exponents at -inf, where its own -inf would give NaN, and its
        # frames' all-zero occupancies are not divided
        shift = np.repeat(np.where(np.isfinite(lls[batch]), lls[batch], 0.0), lengths[batch])
        occupancy = np.exp(alpha.reshape(-1)[index] + beta.reshape(-1)[index] - shift[:, None])
        # a frame's occupancies sum to 1: dividing by their sum takes out the
        # rounding they share, so a frame sure of its state gives it exactly 1
        total = occupancy.sum(axis=1, keepdims=True)
        np.divide(occupancy, total, out=gamma[rows], where=total > 0)
    visits = np.ones((len(lengths), m))
    lost = np.flatnonzero(~np.isfinite(lls))
    if not len(lost):
        return lls, gamma, visits
    gamma[_ranges(edges[lost], lengths[lost])], visits[lost] = _uniform_alignment(lengths[lost], m)
    for i in lost:
        a, b = edges[i], edges[i + 1]
        # a state's frames less its visit are its self-loops
        stays = gamma[a:b].sum(axis=0) - visits[i]
        lls[i] = emis[a:b][gamma[a:b] > 0].sum() + stays @ log_self[i] + visits[i] @ log_adv[i]
    return lls, gamma, visits


def _uniform_alignment(lengths: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Hard alignment of stacked spans, span i holding lengths[i] rows: the
    one-hot (N, m) occupancy and each span's (spans, m) visits, 1 for a state
    that takes a frame and 0 for one left empty.  State s of a span of L
    frames takes its frames L * s // m up to L * (s + 1) // m; when L < m,
    one frame per state and the trailing states stay empty."""
    frame, span = _ranges(0, lengths), np.repeat(np.arange(len(lengths)), lengths)
    length = lengths[span]
    # the last s with L * s // m <= frame
    state = np.where(length >= m, (m * (frame + 1) - 1) // length, frame)
    frames_in = np.bincount(span * m + state, minlength=len(lengths) * m).reshape(-1, m)
    return np.eye(m)[state], np.minimum(frames_in, 1.0)


# ---------------------------------------------------------------------------
# EM on the stacked states of a group of levels
# ---------------------------------------------------------------------------

class _SpanLayout:
    """The spans of tokens (ascending, each holding a span) among
    _group_spans' spans, as EM reads them: each span's token (owner), length
    and edges in rows, the [1, x, x^2] of their frames in token order; the
    E-step's batches; per token its span count and edges in rows (cuts); and
    per level holding tokens of it, on the group's token axis offsets
    (token_offsets), its part: the level's index in the group, its tokens by
    their ids in the level, and the slice of tokens they take."""

    def __init__(self, tokens: np.ndarray, spans: tuple, frames: np.ndarray, m: int,
                 offsets: list[int]):
        self.tokens, at = tokens, np.searchsorted(spans[0], tokens)  # spans sorted by token
        self.n_spans = np.searchsorted(spans[0], tokens, "right") - at
        self.owner, first, self.lengths = (a[_ranges(at, self.n_spans)] for a in spans)
        x = frames[_ranges(first, self.lengths)]
        self.rows = np.concatenate([np.ones((len(x), 1)), x, x * x], axis=1)
        self.edges = np.concatenate([[0], np.cumsum(self.lengths)])
        self.cuts = self.edges[np.concatenate([[0], np.cumsum(self.n_spans)])].tolist()
        self.batches = _e_step_batches(self.lengths, m)
        bounds = np.searchsorted(tokens, offsets).tolist()
        self.parts = [(k, tokens[lo:hi] - offset, slice(lo, hi))
                      for k, (offset, lo, hi) in enumerate(zip(offsets, bounds, bounds[1:]))
                      if lo < hi]


def _m_step(levels: list[LevelModel], layout: _SpanLayout, resps: list[np.ndarray],
            visits: np.ndarray, var_floor: np.ndarray):
    """Reestimate the tokens of layout, a group's, in place from the (N_k, m,
    c_k) component responsibilities of the rows of each level holding tokens
    of it (layout.parts) and the tokens' (tokens, m) state visits
    (_e_step).  An unvisited state keeps its parameters, and so does an
    unvisited component of a visited state.

    Each token's occupancies and first and second moments are one product,
    its (N_t, m c) responsibilities transposed times its rows [1, x, x^2];
    the divisions, floors, weights and transitions then run once over each
    level's stacked states.  A padding component's responsibility is an exact
    0 (its joint is -inf), so its moments are exact zeros, which add nothing
    to its state's total occupancy while c is under 8; from 8 terms numpy sums
    pairwise, and the total may move in the last bit.

    Transitions are durations: a state's advance probability is its visits
    over its total occupancy and its self-loop the rest, the Baum-Welch
    ratio of expected transitions to occupancy when every path leaves the
    state once per visit.  The advances are held at most the occupancy,
    which rounding can put an ulp under the visits, so both probabilities
    stay in [0, 1]."""
    d, cuts = len(var_floor), layout.cuts
    for (k, tokens, part), resp in zip(layout.parts, resps):
        level, (m, c) = levels[k], resp.shape[1:]
        base = cuts[part.start]
        moments = np.empty((len(tokens), m * c, 1 + 2 * d))
        for j, (at, end) in enumerate(zip(cuts[part], cuts[part.start + 1:part.stop + 1])):
            np.matmul(resp[at - base:end - base].reshape(-1, m * c).T, layout.rows[at:end],
                      out=moments[j])
        moments = moments.reshape(len(tokens), m, c, -1)
        occ, first, second = moments[..., 0], moments[..., 1:d + 1], moments[..., d + 1:]
        total = occ.sum(axis=2)
        visited = total > 1e-8
        seen = ((occ > 1e-8) & visited[..., None])[..., None]
        occ_seen = np.where(seen, occ[..., None], 1.0)
        means = np.where(seen, first / occ_seen, level.means[tokens, :, :c])
        level.variances[tokens, :, :c] = np.where(
            seen, np.maximum(second / occ_seen - means ** 2, var_floor),
            level.variances[tokens, :, :c])
        level.means[tokens, :, :c] = means
        denom = np.where(visited, total, 1.0)[..., None]
        level.weights[tokens, :, :c] = np.where(visited[..., None], occ / denom,
                                                level.weights[tokens, :, :c])
        move = np.minimum(visits[part], total)
        level.transitions[tokens] = np.where(visited[..., None],
                                             np.stack([total - move, move], axis=2) / denom,
                                             level.transitions[tokens])


def _token_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per run of consecutive rows of values, run j holding counts[j] rows,
    their sum along axis 0, added first to last (_ordered_sum)."""
    return _ordered_sum(_pad(values, counts, fill=0.0)).T


def flat_start_model(corpus: Corpus, labels: LabelSet, g: Granularity,
                     cfg: TokenizerConfig | None = None) -> LevelModel:
    """The model EM starts from: every token's states fitted to a uniform state
    alignment of its spans, with no reestimation.

    A template state has one component, so each frame's whole weight goes to
    it and no density is evaluated.  States that no span reaches keep the
    template's global statistics.
    """
    offsets = token_offsets([g])
    spans = _group_spans(corpus, [labels], offsets)
    return _flat_start(_SpanLayout(np.unique(spans[0]), spans, corpus.frames, g.m, offsets),
                       _global_stats(corpus), [g], _estimate_priors(spans[0], offsets),
                       cfg or TokenizerConfig())[0]


def _flat_start(layout: _SpanLayout, stats: tuple[np.ndarray, np.ndarray],
                gs: list[Granularity], priors: list[np.ndarray],
                cfg: TokenizerConfig) -> list[LevelModel]:
    """flat_start_model of each level of a group, with its prior, from the
    layout of every span of the group and global statistics: one M-step from
    the template of the global mean and variance, over the uniform alignment
    of every span."""
    levels = []
    for g, prior in zip(gs, priors):
        level = LevelModel.__new__(LevelModel)
        level._hold(g, np.ones((g.n, g.m), dtype=np.int64), np.ones((g.n, g.m, 1)),
                    *(np.broadcast_to(a, (g.n, g.m, 1, len(a))).copy() for a in stats),
                    np.full((g.n, g.m, 2), 0.5), prior)
        levels.append(level)
    (gamma, visits), cuts = _uniform_alignment(layout.lengths, gs[0].m), layout.cuts
    _m_step(levels, layout, [gamma[cuts[part.start]:cuts[part.stop], :, None]
                             for _, _, part in layout.parts],
            _token_sums(visits, layout.n_spans), cfg.var_floor_frac * stats[1])
    return levels


def _group_spans(corpus: Corpus, label_sets: list[LabelSet],
                 offsets: list[int]) -> tuple[np.ndarray, ...]:
    """Every labeled span of a group's levels, each level's labels checked, as
    rows of corpus.frames: its token on the group's axis offsets
    (token_offsets), first row and length, as (spans,) arrays stable-sorted
    by token, so level after level."""
    if not len(corpus):
        raise ValueError("an empty corpus has no spans to train on")
    starts, levels = corpus.offsets.tolist(), []
    for labels, at, end in zip(label_sets, offsets, offsets[1:]):
        validate_label_set(labels, corpus.frame_counts(), end - at)
        spans = _span_rows(starts, [labels[utt].segments for utt in corpus.ids()])
        spans[0] += at
        levels.append(spans)
    spans = np.concatenate(levels, axis=1)
    return tuple(spans[:, np.argsort(spans[0], kind="stable")])


def _span_rows(starts: list[int], segment_lists: list) -> np.ndarray:
    """The (3, segments) token, first row and length of each segment, list by
    list, segment_lists[i] cutting the utterance whose rows begin at starts[i]."""
    return np.array([(token, at + start, end - start) for at, segments in zip(starts, segment_lists)
                     for token, start, end in segments], dtype=np.int64).reshape(-1, 3).T


def _global_stats(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    return corpus.frames.mean(axis=0), np.maximum(corpus.frames.var(axis=0), 1e-8)


def _estimate_priors(tokens: np.ndarray, offsets: list[int]) -> list[np.ndarray]:
    """Each level's unigram prior from the tokens of a group's spans
    (_group_spans) on its token axis offsets."""
    counts = np.bincount(tokens, minlength=offsets[-1])
    return [own / own.sum() for own in np.split(counts, offsets[1:-1])]


def _token_statistics(levels: list[LevelModel], layout: _SpanLayout):
    """E-step statistics of the tokens of layout, those of a group's levels:
    (lls, resps, visits), per token its log-likelihood and (m,) state visits,
    added up over its spans in span order, and for each level holding tokens
    of layout (layout.parts) the (N_k, m, c_k) component responsibilities of
    its rows, c_k the most components a state of its tokens holds.  Each level
    stacks only those tokens' states, about its own centre, and one kernel
    product per token scores its rows against its own; one _e_step aligns
    every span of the group."""
    cuts, joints = layout.cuts, []
    for k, tokens, part in layout.parts:
        level = levels[k]
        m, d = level.counts.shape[1], level.means.shape[3]
        centre, rows, const = level.density_stack(int(level.counts[tokens].max()), tokens)
        base = cuts[part.start]
        joint = np.empty((cuts[part.stop] - base, len(const), m))
        for j, (at, end) in enumerate(zip(cuts[part], cuts[part.start + 1:part.stop + 1])):
            states = slice(j * m, j * m + m)
            joint[at - base:end - base] = _log_joints((centre, rows[:, states], const[:, states]),
                                                      layout.rows[at:end, 1:d + 1])
        joints.append(joint)
    emis = [logsumexp(joint, axis=1) for joint in joints]
    log_self, log_adv = (np.concatenate(a)[layout.owner]
                         for a in zip(*(level.log_transitions() for level in levels)))
    lls, gamma, visits = _e_step(np.concatenate(emis), layout.edges, log_self, log_adv,
                                 layout.batches)
    resps = []
    for joint, level_emis, (_, _, part) in zip(joints, emis, layout.parts):
        resp = np.exp(joint.transpose(0, 2, 1) - level_emis[:, :, None], order="C")
        resp *= gamma[cuts[part.start]:cuts[part.stop], :, None]
        resps.append(resp)
    sums = _token_sums(np.column_stack([lls, visits]), layout.n_spans)
    return sums[:, 0], resps, sums[:, 1:]


def train_level_hmms(corpus: Corpus, labels: LabelSet, g: Granularity,
                     cfg: TokenizerConfig | None = None,
                     init_model: LevelModel | None = None) -> LevelModel:
    """Fit the n token HMMs to the labeled spans by EM: _train_group of one
    level.  Warm-starts from init_model when given (otherwise from the flat
    start), so successive calls within the alternation cannot decrease the
    likelihood of the training labels; init_model itself is left as it was."""
    return _train_group(corpus, [labels], [g], cfg or TokenizerConfig(),
                        None if init_model is None else [init_model])[0]


def _train_group(corpus: Corpus, label_sets: list[LabelSet], gs: list[Granularity],
                 cfg: TokenizerConfig, init_models: list[LevelModel] | None) -> list[LevelModel]:
    """Fit each level of a group, levels of one m, to its labeled spans by EM,
    the levels as one batch: their spans are laid out together on the group's
    token axis (_group_spans, token_offsets), and each EM iteration runs one
    E-step over the spans of every token still training, of every level
    (_token_statistics), and one M-step.

    EM updates each level's LevelModel in place, about its own centre and with
    its own component count.  A token stops once its log-likelihood gain falls
    under em_tol, and its spans leave later iterations; mixture splits are per
    token too, so every token follows the course EM would take on it alone,
    and every level gets the bytes it would get alone.  Each level's prior is
    estimated from its spans, for the flat start or for the warm start from
    init_models when given: EM runs on copies of their arrays.  Tokens with no
    assigned spans are reseeded from a perturbed copy of their level's most
    populous token's model."""
    offsets = token_offsets(gs)
    spans = _group_spans(corpus, label_sets, offsets)
    stats = _global_stats(corpus)
    var_floor = cfg.var_floor_frac * stats[1]
    priors = _estimate_priors(spans[0], offsets)
    frames_per_token = np.bincount(np.repeat(spans[0], spans[2]), minlength=offsets[-1])
    training = np.flatnonzero(frames_per_token)  # the rest are reseeded
    layout = _SpanLayout(training, spans, corpus.frames, gs[0].m, offsets)
    if init_models is None:
        levels = _flat_start(layout, stats, gs, priors, cfg)
    else:
        levels = copy.deepcopy(init_models)
        for level, prior in zip(levels, priors):
            level.prior = prior
    prev_ll = np.full(len(frames_per_token), np.nan)  # NaN: no likelihood to compare with yet
    for it in range(cfg.em_iters):
        if not len(training):
            break
        if len(training) < len(layout.tokens):  # tokens left EM
            layout = _SpanLayout(training, spans, corpus.frames, gs[0].m, offsets)
        # a warm start already holds the components of earlier splits; a
        # split restarts its token's convergence check
        target = 2 ** sum(k <= it for k in cfg.mixture_schedule)
        for k, tokens, _ in layout.parts:
            prev_ll[offsets[k] + levels[k].split(tokens, target)] = np.nan
        lls, resps, visits = _token_statistics(levels, layout)
        _m_step(levels, layout, resps, visits, var_floor)
        prev = prev_ll[training]
        converged = np.abs(lls - prev) / np.maximum(1.0, np.abs(prev)) < cfg.em_tol
        prev_ll[training] = lls
        training = training[~converged]

    for level, own in zip(levels, np.split(frames_per_token, offsets[1:-1])):
        dead = own == 0
        if dead.any() and not dead.all():
            populous = int(np.argmax(own))  # argmax ties -> lowest id
            for a in (level.counts, level.weights, level.means, level.variances,
                      level.transitions):
                a[dead] = a[populous]
            # padding components take perturbed means too, which nothing reads
            level.means[dead] += cfg.reseed_scale * np.sqrt(level.variances[dead])
    return levels


# ---------------------------------------------------------------------------
# decoding and the likelihood trace
# ---------------------------------------------------------------------------

def _emission_table(stack: tuple[np.ndarray, ...], frames: np.ndarray, m: int) -> np.ndarray:
    """(T, n, m) state log densities of T frames: one kernel product over the
    density_stack of a level's n * m states, token-major; a recursion's padded
    copy (_pad) of it, which it makes anyway, is its state-major layout."""
    return logsumexp(_log_joints(stack, frames), axis=1).reshape(len(frames), -1, m)


def _table_groups(levels: list[LevelModel], corpus: Corpus):
    """Consecutive utterances of corpus.ids() in batches: each batch's ids, for
    each level of a group the (frames, n, m) emission table of its rows of
    corpus.frames, a slice, from one kernel product, and their frame counts."""
    ids, at, m = corpus.ids(), corpus.offsets, levels[0].counts.shape[1]
    stacks = [level.density_stack() for level in levels]
    lengths = np.diff(at)
    # a frame's kernel joints take c times the bytes of its table row
    for batch in row_batches(lengths, 8 * sum(stack[2].size for stack in stacks), BATCH_BYTES):
        frames = corpus.frames[at[batch.start]:at[batch.stop]]
        yield ids[batch], [_emission_table(stack, frames, m) for stack in stacks], lengths[batch]


def _pad_levels(tables: list[np.ndarray], lengths: np.ndarray) -> np.ndarray:
    """_pad of a group's (N, n_k, m) emission tables, state-major, the levels'
    tokens side by side: their (longest, m, B, n) copy, n the levels' tokens,
    -inf where padded."""
    m, n = tables[0].shape[2], sum(table.shape[1] for table in tables)
    padded = np.full((lengths.max(), m, len(lengths), n), -np.inf)
    flat, index, lo = padded.reshape(-1, n), _pad_index(lengths, m), 0
    for table in tables:
        flat[index, lo:lo + table.shape[1]] = table.transpose(0, 2, 1)
        lo += table.shape[1]
    return padded


def _viterbi(levels: list[LevelModel], lm_scale: float, tables: list[np.ndarray],
             lengths: np.ndarray) -> list[list[list]]:
    """Token-loop Viterbi over utterances' stacked emission tables, one per
    level of a group, utterance u holding lengths[u] rows: the recursion
    (_viterbi_forward) over the levels' tokens side by side (token_offsets),
    then each utterance's backtrack, alone and on each level's own flags.  In
    each level any token may follow any token, weighted by its log prior
    scaled by lm_scale; a self-loop wins an equal advance or entry, and the
    lowest token id an equal exit.  An utterance shorter than m is one
    segment of its level's likeliest token.  Returns each level's segments
    per utterance."""
    m = levels[0].counts.shape[1]
    bounds = token_offsets([level.granularity for level in levels])
    log_prior = np.concatenate([level.log_prior(lm_scale) for level in levels])
    advanced, exits = _viterbi_forward(levels, log_prior, bounds, tables, lengths)
    decoded = []
    for lo, hi in zip(bounds, bounds[1:]):
        own_exits = exits[:, :, lo:hi]
        switch_from = np.argmax(own_exits, axis=2)  # ties -> lowest token id
        decoded.append([_backtrack(advanced[:L, :, u, lo:hi], switch_from[:L, u],
                                   int(np.argmax(own_exits[L, u])))
                        if L >= m else [(int(np.argmax(log_prior[lo:hi])), 0, L)]
                        for u, L in enumerate(lengths.tolist())])
    return decoded


def _viterbi_forward(levels: list[LevelModel], log_prior: np.ndarray, bounds: list[int],
                     tables: list[np.ndarray],
                     lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_viterbi's recursion, in one pass over the tables' padded (T, m, U, n)
    copy, the levels' tokens side by side on its last axis, level k's from
    bounds[k] on, with their log priors: the (T, m, U, n) advance flags and
    the (T + 1, U, n) exit scores.  A token is entered by an advance into its
    state 0, scored as its level's best exit (a reduceat over the level's
    tokens) plus its log prior, so a frame makes one comparison per state and
    keeps one flag, advanced or not.  A frame makes seven calls on contiguous
    arrays and one per level.  Past an utterance's end its -inf padding makes
    its scores -inf, so its final scores are kept at its last frame.  The
    padded copy is freed on return, before any backtrack."""
    m, U = levels[0].counts.shape[1], len(lengths)
    emis = _pad_levels(tables, lengths)
    T, n = len(emis), bounds[-1]
    # the transitions as contiguous (m, U, n) arrays, made once per batch
    log_self, log_adv = (np.repeat(np.concatenate(a).T[:, None], U, axis=1)
                         for a in zip(*(level.log_transitions() for level in levels)))
    delta = np.full((m, U, n), -np.inf)
    delta[0] = log_prior + emis[0, 0]
    advanced = np.zeros((T, m, U, n), dtype=bool)
    # exits[t]: the scores of leaving each token's last state after frame
    # t - 1; past an utterance's end its padding makes every score -inf, so
    # exits[L] holds the final scores of an utterance of L frames
    exits = np.full((T + 1, U, n), -np.inf)
    stay, move, best = np.empty((m, U, n)), np.empty((m, U, n)), np.empty((U, len(levels)))
    # the loop's views and ufuncs, bound once, so a frame makes its calls and nothing else
    add, less, copyto, reduceat = np.add, np.less, np.copyto, np.maximum.reduceat
    head, tail, into, starts = delta[:-1], delta[m - 1], move[1:], np.array(bounds[:-1])
    adv, exit_adv = log_adv[:-1], log_adv[m - 1]
    # per level: its best exit, its log prior and its tokens' entries
    entries = [(best[:, k:k + 1], log_prior[lo:hi], move[0, :, lo:hi])
               for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    for exit_t, advanced_t, e in zip(exits[1:T], advanced[1:], emis[1:]):
        add(delta, log_self, out=stay)
        add(head, adv, out=into)
        add(tail, exit_adv, out=exit_t)
        reduceat(exit_t, starts, axis=1, out=best)
        for level_best, prior, entry in entries:
            add(level_best, prior, out=entry)
        less(stay, move, out=advanced_t)
        copyto(stay, move, where=advanced_t)
        add(stay, e, out=delta)
    add(tail, exit_adv, out=exits[T])
    return advanced, exits


def _backtrack(advanced: np.ndarray, switch_from: np.ndarray, token: int) -> list:
    """One utterance's segments from its state-major (T, m, n) advance flags
    and (T,) switch sources, ending in the last state of token.  An advance
    into state 0 is a token switch."""
    T, m, n = advanced.shape
    # flag (t, state, token) as a byte of one bytes object, read without numpy
    flags, sources = advanced.tobytes(), switch_from.tolist()
    state = m - 1
    boundaries = []  # segment start frames with their token
    for t in range(T - 1, 0, -1):
        if not flags[(t * m + state) * n + token]:
            continue
        if state:
            state -= 1
        else:
            boundaries.append((t, token))
            token, state = sources[t], m - 1
    boundaries.append((0, token))
    boundaries.reverse()
    ends = [start for start, _ in boundaries[1:]] + [T]
    return [(tok, start, end) for (start, tok), end in zip(boundaries, ends)]


def decode_level(model: LevelModel, corpus: Corpus,
                 cfg: TokenizerConfig | None = None) -> LabelSet:
    """Token-loop Viterbi of every utterance of corpus: _viterbi of one level."""
    lm_scale = (cfg or TokenizerConfig()).lm_scale
    labels: LabelSet = {}
    for utts, tables, lengths in _table_groups([model], corpus):
        (decoded,) = _viterbi([model], lm_scale, tables, lengths)
        labels.update((utt, TokenLabelSequence(utt, segments))
                      for utt, segments in zip(utts, decoded))
    return labels


def decode_utterance(model: LevelModel, frames: np.ndarray, lm_scale: float = 1.0) -> list:
    """Token-loop Viterbi of one utterance: decode_level on a corpus of it."""
    corpus = Corpus([FeatureSequence(frames)])
    return decode_level(model, corpus, TokenizerConfig(lm_scale=lm_scale))[""].segments


def _segment_scores(level: LevelModel, lm_scale: float, table: np.ndarray,
                    starts: np.ndarray, segment_lists: list) -> np.ndarray:
    """Per segment, in list-then-segment order, its span forward log-likelihood
    plus its token's log prior scaled by lm_scale, segment_lists[i] cutting
    the utterance whose rows of the stacked emission table begin at
    starts[i]: one gather of every segment's column, then one forward per
    batch of segments, each row with its token's transitions."""
    log_self, log_adv = level.log_transitions()
    tokens, first, lengths = _span_rows(starts.tolist(), segment_lists)
    edges = np.concatenate([[0], np.cumsum(lengths)])
    columns = table[_ranges(first, lengths), np.repeat(tokens, lengths)]
    lls = np.empty(len(lengths))
    for batch in row_batches(lengths, 8 * level.counts.shape[1], BATCH_BYTES):
        padded = _pad(columns[edges[batch.start]:edges[batch.stop]], lengths[batch])
        own = tokens[batch]
        alpha = _alpha(padded, log_self[own], log_adv[own])
        lls[batch] = alpha[lengths[batch] - 1, -1, np.arange(len(own))] + log_adv[own, -1]
    return lls + level.log_prior(lm_scale)[tokens]


def corpus_log_likelihood(model: LevelModel, corpus: Corpus, labels: LabelSet,
                          lm_scale: float = 1.0) -> float:
    """Sum over segments of the span forward log-likelihood plus scaled prior
    terms, added in utterance and segment order.  The labels must tile
    exactly the corpus' utterances with ids below the level's n."""
    validate_label_set(labels, corpus.frame_counts(), model.granularity.n)
    scores = [_segment_scores(model, lm_scale, table, np.cumsum(lengths) - lengths,
                              [labels[utt].segments for utt in utts])
              for utts, (table,), lengths in _table_groups([model], corpus)]
    return float(_ordered_sum(np.concatenate([np.empty(0), *scores])))


def segment_forward_ll(hmm: TokenHmm, frames: np.ndarray) -> float:
    """Forward log-likelihood of a span: corpus_log_likelihood of it as token
    0 of a level of one token, whose log prior (log 1) adds an exact 0."""
    level = LevelModel(Granularity(hmm.m, 1), [hmm], np.ones(1))
    return corpus_log_likelihood(level, Corpus([FeatureSequence(frames)]),
                                 {"": TokenLabelSequence("", [(0, 0, len(frames))])})


# ---------------------------------------------------------------------------
# alternation and the grid
# ---------------------------------------------------------------------------

@dataclass
class _LevelRun:
    """A level's alternation (_run_group): its granularity, and its labels,
    model and likelihood trace so far."""

    g: Granularity
    labels: LabelSet
    model: LevelModel | None = None
    trace: list[tuple[str, float]] = field(default_factory=list)


def run_level(corpus: Corpus, init_labels: LabelSet, g: Granularity,
              cfg: TokenizerConfig | None = None
              ) -> tuple[LevelModel, LabelSet, list[tuple[str, float]]]:
    """Alternate model fitting and decoding until the labels stop changing:
    _run_group of one level.

    Returns the final model, the final labels, and a trace of the corpus
    log-likelihood after every half-step.
    """
    (run,) = _run_group(corpus, [init_labels], [g], cfg or TokenizerConfig())
    return run.model, run.labels, run.trace


def _run_group(corpus: Corpus, init_labels: list[LabelSet], gs: list[Granularity],
               cfg: TokenizerConfig) -> list[_LevelRun]:
    """Alternate model fitting and decoding for each level of a group, levels
    of one m, as one batch: each outer iteration trains the levels still
    alternating together (_train_group) and decodes them in one Viterbi per
    batch of utterances.  Each level scores its own trace, and leaves the
    group once its labels stop changing, so it gets the model, labels and
    trace it would get alone."""
    runs = [_LevelRun(g, labels) for g, labels in zip(gs, init_labels)]
    active = runs
    for outer in range(cfg.outer_iters):
        models = _train_group(corpus, [run.labels for run in active], [run.g for run in active],
                              cfg, [run.model for run in active] if outer else None)
        # one emission table per level and batch of utterances serves decoding
        # and both trace points, whose segments share one forward per batch
        new_labels: list[LabelSet] = [{} for _ in active]
        train_scores, decode_scores = [[] for _ in active], [[] for _ in active]
        for utts, tables, lengths in _table_groups(models, corpus):
            starts = np.cumsum(lengths) - lengths
            decoded = _viterbi(models, cfg.lm_scale, tables, lengths)
            trained = [[run.labels[utt].segments for utt in utts] for run in active]
            # a comprehension, so no table outlives its batch
            scores = [_segment_scores(model, cfg.lm_scale, table, np.concatenate([starts, starts]),
                                      old + new)
                      for model, table, old, new in zip(models, tables, trained, decoded)]
            for labels, new, old, level_scores, train, decode in zip(
                    new_labels, decoded, trained, scores, train_scores, decode_scores):
                labels.update((utt, TokenLabelSequence(utt, segments))
                              for utt, segments in zip(utts, new))
                n_trained = sum(map(len, old))
                train.append(level_scores[:n_trained])
                decode.append(level_scores[n_trained:])
        still = []
        for run, model, labels, train, decode in zip(active, models, new_labels, train_scores,
                                                     decode_scores):
            run.model = model
            run.trace += [("train", float(_ordered_sum(np.concatenate(train)))),
                          ("decode", float(_ordered_sum(np.concatenate(decode))))]
            if any(labels[utt].segments != run.labels[utt].segments for utt in corpus.ids()):
                still.append(run)
            run.labels = labels
        active = still
        if not active:
            break
    return runs


def run_mat(corpus: Corpus, grid: GranularityGrid, init_labels_per_n: dict[int, LabelSet],
            cfg: TokenizerConfig | None = None
            ) -> tuple[dict[Granularity, LevelModel], dict[Granularity, LabelSet]]:
    """Train every level of the grid.

    The levels of one m run as groups (_run_group), cut in n order under
    BATCH_BYTES by row_batches, a level counting as its emission table over
    the corpus, n rows of frames * m * 8 bytes: a level too large to share a
    batch runs alone.  Each level gets the bytes it would get alone.  All
    levels with the same phonetic granularity n start from the same initial
    label set init_labels_per_n[n].
    """
    cfg = cfg or TokenizerConfig()
    for n in grid.phonetic:
        if n not in init_labels_per_n:
            raise ValueError(f"missing initial labels for n={n}")
    models: dict[Granularity, LevelModel] = {}
    labels: dict[Granularity, LabelSet] = {}
    for m in grid.temporal:
        for cut in row_batches(np.array(grid.phonetic), 8 * m * len(corpus.frames), BATCH_BYTES):
            ns = grid.phonetic[cut]
            for run in _run_group(corpus, [init_labels_per_n[n] for n in ns],
                                  [Granularity(m, n) for n in ns], cfg):
                models[run.g], labels[run.g] = run.model, run.labels
    return models, labels


# ---------------------------------------------------------------------------
# model file I/O
# ---------------------------------------------------------------------------

def matm_bytes(model: LevelModel) -> bytes:
    """Versioned binary model file, parameters as little-endian 64-bit floats."""
    g = model.granularity
    parts = [MATM_MAGIC, struct.pack("<IIII", MATM_VERSION, g.m, g.n, model.means.shape[3])]
    for token, counts in enumerate(model.counts.tolist()):
        for s, c in enumerate(counts):
            parts.append(struct.pack("<I", c))
            parts += [np.asarray(a[token, s, :c], "<f8").tobytes()
                      for a in (model.weights, model.means, model.variances)]
        parts.append(np.asarray(model.transitions[token], "<f8").tobytes())
    parts.append(np.asarray(model.prior, "<f8").tobytes())
    return b"".join(parts)


def _require(ok: np.ndarray, values: np.ndarray, where: str, rule: str):
    """Raise a ValueError naming where and the first of values that breaks
    rule, ok being False there."""
    if not ok.all():
        raise ValueError(f"{where}: {rule.format(float(values[~ok][0]))}")


def read_matm(path) -> LevelModel:
    """Inverse of matm_bytes.  A value no model can hold (a weight or prior
    negative or not finite, a mean not finite, a variance not finite or not
    > 0, a transition outside [0, 1]) raises a ValueError naming the file, the
    token, the state and the field."""
    f = ArtifactReader(path, MATM_MAGIC, MATM_VERSION)
    m, n, d = f.unpack("<III", "header")
    if m < 1 or n < 1:
        raise ValueError(f"{path}: header m = {m}, n = {n}: both must be >= 1")
    if d < 1:
        raise ValueError(f"{path}: header d = {d}: must be >= 1")
    hmms = []
    for token in range(n):
        states = []
        for s in range(m):
            where = f"{path}: token {token} state {s}"
            (c,) = f.unpack("<I", "component count")
            if c < 1:
                raise ValueError(f"{where}: component count 0, must be >= 1")
            weights = f.array((c,), "weights")
            means = f.array((c, d), "means")
            variances = f.array((c, d), "variances")
            _require(np.isfinite(weights) & (weights >= 0), weights, where,
                     "weight {} is negative or not finite")
            _require(np.isfinite(means), means, where, "mean {} is not finite")
            _require(np.isfinite(variances) & (variances > 0), variances, where,
                     "variance {} is not finite or not > 0")
            states.append(GaussState(weights, means, variances))
        trans = f.array((m, 2), "transitions")
        for s, row in enumerate(trans):
            _require((row >= 0) & (row <= 1), row, f"{path}: token {token} state {s}",
                     "transition {} is outside [0, 1]")
        hmms.append(TokenHmm(token, states, trans))
    prior = f.array((n,), "prior")
    f.end()
    bad = np.flatnonzero(~(np.isfinite(prior) & (prior >= 0)))
    if len(bad):
        raise ValueError(f"{path}: token {bad[0]}: prior {prior[bad[0]]} is negative or not finite")
    return LevelModel(Granularity(m, n), hmms, prior)
