"""Per-level unsupervised token training: EM on labeled spans alternating with
token-loop Viterbi decoding, repeated over a grid of model configurations.

A level is one token inventory at a granularity (m states per token HMM,
n distinct tokens).  Training a level alternates two half-steps: fit the n
left-to-right HMMs to the current label spans (warm-started from the previous
alternation so the likelihood cannot drop), then re-decode the corpus with the
fitted models to obtain new labels.  Levels are trained independently; levels
sharing the same n start from the same initial label set.

A level trains and decodes as one batch of rows of the corpus matrix,
`Corpus.frames`, not a loop over tokens: a labeled span is a row range
gathered by index, a decoding batch of consecutive utterances a slice.  Its
model, `LevelModel`, is its states stacked into arrays (component counts,
weights, means, variances, transitions) with its token prior, and every
state density comes from one kernel, `_log_joints`, in the layout of Kaldi's
diagonal GMMs (Povey et al., ASRU 2011): a component's log joint is [x^2, x]
times its row (-1/2v, mu/v) plus its constant, frames and means taken
relative to a centre that depends on the model alone.  `GaussState` and
`TokenHmm` records are the model's constructor input and views of its rows.
EM, mixture splits and reseeding included, updates a copy of the warm
start's arrays, or the flat start's, in place.

A training call lays its spans out once (`_SpanLayout`), and again only when
a token leaves EM.  Each EM iteration scores each token's rows against its
own states in one product, aligns every span still training in one E-step
(forward-backward, or for a span no path traverses the uniform alignment the
flat start uses), and takes each token's occupancies and moments in one
product of the M-step; each token's log-likelihood, transition counts,
em_tol check and splits stay its own, so it follows the course EM would take
on it alone.  Decoding scores a batch of utterances against all n * m states
in one product, a table that also serves the likelihood trace.

Each recursion runs once per batch of rows padded time-major, -inf past each
row's end: the E-step's forward-backward over (L, B, m) spans, and the
token-loop Viterbi over (T, U, n, m) tables, with one back-pointer flag per
state and frame, whose segments the trace scores in one forward pass.  A
batch stays under BATCH_BYTES.  Per-row operations repeat, sums over frames
and spans add in order, and every kernel product has one shape, so results
do not depend on the batching.  `logsumexp`, the package's one log-sum-exp,
folds components in one at a time: one component costs no pass, its density
being a slice of the kernel's joints, and each further one rounds once.
"""

from __future__ import annotations

import copy
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
    product of the same shape per block.  So a frame's joints do not depend
    on which frames share its batch or its block, nor on the thread count
    (measured with OpenBLAS at 1 and 2 threads).  The expanded form rounds
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

    def density_stack(self, c: int | None = None) -> tuple[np.ndarray, ...]:
        """The n * m states, token-major, cut to their first c components (all
        when c is None), as the density kernel reads them: the (d,) centre,
        component-major (c, S, 2d) rows (-1/2v, mu/v) and (c, S) constants
        log w - (sum mu^2/v + sum log v + d log 2 pi) / 2, mu taken relative to
        the centre.  The centre is the mean of the means of every real
        component of the level, whatever c, so a frame's joints depend on the
        model alone.  A padding component's constant is -inf."""
        S, d = self.counts.size, self.means.shape[3]
        centre = self.means[np.arange(self.weights.shape[2]) < self.counts[..., None]].mean(axis=0)
        means, variances = self.means[:, :, :c] - centre, self.variances[:, :, :c]
        inv_var = 1.0 / variances
        scaled = means * inv_var
        const = (padded_log_weights(self.weights, self.counts)[:, :, :c]
                 - 0.5 * (np.sum(means * scaled, axis=3) + np.sum(np.log(variances), axis=3)
                          + d * LOG_2PI))
        rows = np.concatenate([-0.5 * inv_var, scaled], axis=3)
        # (n, m, c, ...) to component-major (c, n * m, ...)
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
# (longest, rows) copy; a batch holds at least one row, however long
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


def _batches(lengths: np.ndarray, cell_bytes: int, budget: int,
             stacked: bool = True) -> list[slice]:
    """Consecutive rows cut into batches of at most budget bytes, counting
    cell_bytes per cell of the rows' padded copy and, if stacked, of the rows
    themselves (lengths[i] cells each)."""
    batches, start = [], 0
    while start < len(lengths):
        # a batch's bytes grow with every row it takes: it ends before the
        # first row that would take it over the budget, looked for in a
        # window of rows that doubles until it holds that row or the last
        window = 256
        while True:
            rest = lengths[start:start + window]
            cells = (np.cumsum(rest) * stacked
                     + np.maximum.accumulate(rest) * np.arange(1, len(rest) + 1))
            fits = int(np.count_nonzero(cells * cell_bytes <= budget))
            if fits < len(rest) or start + window >= len(lengths):
                break
            window *= 2
        batches.append(slice(start, start + max(1, fits)))
        start += max(1, fits)
    return batches


def _pad_index(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (time, row) index of stacked rows of these lengths in their padded copy (_pad)."""
    return _ranges(0, lengths), np.repeat(np.arange(len(lengths)), lengths)


def _pad(stacked: np.ndarray, lengths: np.ndarray, fill: float = -np.inf, index=None) -> tuple:
    """The (longest, B, ...) time-major copy, fill where padded, of B rows
    stacked along axis 0, row b holding lengths[b] entries; and its index
    (_pad_index, unless given), which gathers the copy back."""
    index = _pad_index(lengths) if index is None else index
    padded = np.full((lengths.max(), len(lengths)) + stacked.shape[1:], fill)
    padded[index] = stacked
    return padded, index


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
    stay, move = np.empty((B, m)), np.full((B, m), -np.inf)
    for t in range(1, L):
        np.add(alpha[t - 1], log_self, out=stay)
        np.add(alpha[t - 1, :, :-1], log_adv[..., :-1], out=move[:, 1:])
        np.logaddexp(stay, move, out=alpha[t])
        alpha[t] += emis[t]
    return alpha


def _beta(emis: np.ndarray, last: np.ndarray, log_self: np.ndarray,
          log_adv: np.ndarray) -> np.ndarray:
    """(L, B, m) backward recursion over B padded rows of emissions, row b
    leaving by the exit at its last frame last[b], with its own (B, m) log
    transitions."""
    L, B, m = emis.shape
    beta = np.full((L, B, m), -np.inf)
    beta[last, np.arange(B), m - 1] = log_adv[:, m - 1]
    # each frame's emissions plus the transitions into them, for every frame
    # at once; the recursion then adds beta, as (transition + emission) + beta
    stay_emis = log_self + emis[1:]
    move_emis = log_adv[:, :-1] + emis[1:, :, 1:]
    stay, move = np.empty((B, m)), np.full((B, m), -np.inf)
    for t in range(L - 2, -1, -1):
        np.add(stay_emis[t], beta[t + 1], out=stay)
        np.add(move_emis[t], beta[t + 1, :, 1:], out=move[:, :-1])
        np.logaddexp(stay, move, out=beta[t], where=(t < last)[:, None])
    return beta


def segment_forward_ll(hmm: TokenHmm, frames: np.ndarray) -> float:
    """Forward log-likelihood of a span: enter state 0, exit from the last
    state; the forward recursion over a batch of one row of the emission
    table of a level of one token."""
    level = LevelModel(Granularity(hmm.m, 1), [hmm], np.ones(1))
    log_self, log_adv = level.log_transitions()
    alpha = _alpha(_emission_table(level.density_stack(), frames, hmm.m), log_self, log_adv)
    return float(alpha[-1, 0, -1] + log_adv[0, -1])


def _e_step_batches(lengths: np.ndarray, m: int) -> list[tuple[slice, tuple]]:
    """The E-step's batches of spans of these lengths, with their padded copies' index."""
    return [(batch, _pad_index(lengths[batch])) for batch in _batches(lengths, 8 * m, BATCH_BYTES)]


def _e_step(emis: np.ndarray, edges: np.ndarray, log_self: np.ndarray,
            log_adv: np.ndarray, batches: list | None = None):
    """Alignment of spans from their stacked (N, m) emissions, span i being
    emis[edges[i]:edges[i + 1]] with (m,) log transitions log_self[i] and
    log_adv[i], its token's: (lls, gamma, stays, moves).

    lls holds each span's log-likelihood and gamma the (N, m) state occupancy;
    the (spans, m) stays and moves hold each span's expected self-loop and
    advance counts, the exit from the last state included.  A span no path
    traverses (shorter than m, or of zero likelihood) gets the uniform
    alignment, scored along it.  Forward and backward run once per batch of
    spans (_e_step_batches of the spans, unless given), over their padded
    (L, B, m) emissions, each row with its own transitions.
    """
    m, lengths = emis.shape[1], np.diff(edges)
    gamma = np.empty_like(emis)
    B = len(lengths)
    lls, stays, moves = np.empty(B), np.empty((B, m)), np.empty((B, m))
    for batch, index in batches or _e_step_batches(lengths, m):
        rows = slice(edges[batch.start], edges[batch.stop])
        padded, _ = _pad(emis[rows], lengths[batch], index=index)
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
    if not len(lost):
        return lls, gamma, stays, moves
    gamma[_ranges(edges[lost], lengths[lost])], stays[lost], moves[lost] = (
        _uniform_alignment(lengths[lost], m))
    for i in lost:
        a, b = edges[i], edges[i + 1]
        lls[i] = emis[a:b][gamma[a:b] > 0].sum() + stays[i] @ log_self[i] + moves[i] @ log_adv[i]
    return lls, gamma, stays, moves


def _uniform_alignment(lengths: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hard alignment of stacked spans, span i holding lengths[i] rows: the
    one-hot (N, m) occupancy with each span's (spans, m) self-loop and advance
    counts.  State s of a span of L frames takes its frames L * s // m up to
    L * (s + 1) // m; when L < m, one frame per state and the trailing states
    stay empty."""
    frame, span = _pad_index(lengths)
    length = lengths[span]
    # the last s with L * s // m <= frame
    state = np.where(length >= m, (m * (frame + 1) - 1) // length, frame)
    frames_in = np.bincount(span * m + state, minlength=len(lengths) * m).reshape(-1, m)
    return np.eye(m)[state], np.maximum(frames_in - 1.0, 0.0), np.minimum(frames_in, 1.0)


# ---------------------------------------------------------------------------
# EM on a level's stacked states
# ---------------------------------------------------------------------------

class _SpanLayout:
    """The spans of tokens (ascending, each holding a span) among
    _collect_spans' spans, as EM reads them: each span's token (owner), length
    and edges in rows, the [1, x, x^2] of their frames in token order; the
    E-step's batches; and per token its span count and edges in rows (cuts)."""

    def __init__(self, tokens: np.ndarray, spans: tuple, frames: np.ndarray, m: int):
        self.tokens, at = tokens, np.searchsorted(spans[0], tokens)  # spans sorted by token
        self.n_spans = np.searchsorted(spans[0], tokens, "right") - at
        self.owner, first, self.lengths = (a[_ranges(at, self.n_spans)] for a in spans)
        x = frames[_ranges(first, self.lengths)]
        self.rows = np.concatenate([np.ones((len(x), 1)), x, x * x], axis=1)
        self.edges = np.concatenate([[0], np.cumsum(self.lengths)])
        self.cuts = self.edges[np.concatenate([[0], np.cumsum(self.n_spans)])].tolist()
        self.batches = _e_step_batches(self.lengths, m)


def _m_step(level: LevelModel, layout: _SpanLayout, resp: np.ndarray, stay: np.ndarray,
            move: np.ndarray, var_floor: np.ndarray):
    """Reestimate the tokens of layout in place from the (N, m, c) component
    responsibilities of its rows and the tokens' (tokens, m) expected
    self-loop and advance counts.  An unvisited state keeps its parameters,
    and so does an unvisited component of a visited state.

    Each token's occupancies and first and second moments are one product,
    its (N_t, m c) responsibilities transposed times its rows [1, x, x^2];
    the divisions, floors, weights and transitions then run once over all the
    stacked states.  A padding component's responsibility is an exact 0 (its
    joint is -inf), so its moments are exact zeros, which add nothing to its
    state's total occupancy while c is under 8; from 8 terms numpy sums
    pairwise, and the total may move in the last bit."""
    tokens, (m, c), d, cuts = layout.tokens, resp.shape[1:], len(var_floor), layout.cuts
    moments = np.empty((len(tokens), m * c, 1 + 2 * d))
    for j, (at, end) in enumerate(zip(cuts, cuts[1:])):
        np.matmul(resp[at:end].reshape(-1, m * c).T, layout.rows[at:end], out=moments[j])
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
    level.weights[tokens, :, :c] = np.where(visited[..., None],
                                            occ / np.where(visited, total, 1.0)[..., None],
                                            level.weights[tokens, :, :c])
    denom = stay + move
    moved = (denom > 1e-8)[..., None]
    level.transitions[tokens] = np.where(
        moved, np.stack([stay, move], axis=2) / np.where(moved, denom[..., None], 1.0),
        level.transitions[tokens])


def _token_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per run of consecutive rows of values, run j holding counts[j] rows,
    their sum along axis 0, added first to last (_ordered_sum)."""
    return _ordered_sum(_pad(values, counts, fill=0.0)[0])


def flat_start_model(corpus: Corpus, labels: LabelSet, g: Granularity,
                     cfg: TokenizerConfig | None = None) -> LevelModel:
    """The model EM starts from: every token's states fitted to a uniform state
    alignment of its spans, with no reestimation.

    A template state has one component, so each frame's whole weight goes to
    it and no density is evaluated.  States that no span reaches keep the
    template's global statistics.
    """
    spans = _collect_spans(corpus, labels, g.n)
    return _flat_start(_SpanLayout(np.unique(spans[0]), spans, corpus.frames, g.m),
                       _global_stats(corpus), g, cfg or TokenizerConfig())


def _flat_start(layout: _SpanLayout, stats: tuple[np.ndarray, np.ndarray], g: Granularity,
                cfg: TokenizerConfig) -> LevelModel:
    """flat_start_model from the layout of every span and global statistics:
    one M-step from the template of the global mean and variance, over the
    uniform alignment of every span."""
    level = LevelModel.__new__(LevelModel)
    level._hold(g, np.ones((g.n, g.m), dtype=np.int64), np.ones((g.n, g.m, 1)),
                *(np.broadcast_to(a, (g.n, g.m, 1, len(a))).copy() for a in stats),
                np.full((g.n, g.m, 2), 0.5), _estimate_prior(layout.owner, g.n))
    gamma, stays, moves = _uniform_alignment(layout.lengths, g.m)
    _m_step(level, layout, gamma[:, :, None], _token_sums(stays, layout.n_spans),
            _token_sums(moves, layout.n_spans), cfg.var_floor_frac * stats[1])
    return level


def _collect_spans(corpus: Corpus, labels: LabelSet, n: int) -> tuple[np.ndarray, ...]:
    """The labels checked, every labeled span as rows of corpus.frames: its
    token, first row and length, as (spans,) arrays stable-sorted by token."""
    if not len(corpus):
        raise ValueError("an empty corpus has no spans to train on")
    validate_label_set(labels, corpus.frame_counts(), n)
    spans = np.array([(token, first + start, end - start)
                      for utt, first in zip(corpus.ids(), corpus.offsets.tolist())
                      for token, start, end in labels[utt].segments], dtype=np.int64).reshape(-1, 3)
    return tuple(spans[np.argsort(spans[:, 0], kind="stable")].T)


def _global_stats(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    return corpus.frames.mean(axis=0), np.maximum(corpus.frames.var(axis=0), 1e-8)


def _estimate_prior(tokens: np.ndarray, n: int) -> np.ndarray:
    """Unigram prior from the tokens of _collect_spans' spans."""
    return np.bincount(tokens, minlength=n) / len(tokens)


def _token_statistics(level: LevelModel, layout: _SpanLayout):
    """E-step statistics of the tokens of layout: (lls, resp, stay, move), per
    token its log-likelihood and (m,) expected self-loop and advance counts,
    added up over its spans in span order, and the (N, m, c) component
    responsibilities of the layout's rows, c the most components a state of
    the tokens holds.  One kernel product per token scores its rows against
    its own states, and one _e_step aligns every span."""
    m, d, cuts = level.counts.shape[1], level.means.shape[3], layout.cuts
    centre, rows, const = level.density_stack(int(level.counts[layout.tokens].max()))
    joint = np.empty((len(layout.rows), len(const), m))
    for token, at, end in zip(layout.tokens.tolist(), cuts, cuts[1:]):
        states = slice(token * m, token * m + m)
        joint[at:end] = _log_joints((centre, rows[:, states], const[:, states]),
                                    layout.rows[at:end, 1:d + 1])
    emis = logsumexp(joint, axis=1)
    log_self, log_adv = level.log_transitions()
    lls, gamma, stays, moves = _e_step(emis, layout.edges, log_self[layout.owner],
                                       log_adv[layout.owner], layout.batches)
    resp = np.exp(joint.transpose(0, 2, 1) - emis[:, :, None], order="C")
    resp *= gamma[:, :, None]
    sums = _token_sums(np.column_stack([lls, stays, moves]), layout.n_spans)
    return sums[:, 0], resp, sums[:, 1:m + 1], sums[:, m + 1:]


def train_level_hmms(corpus: Corpus, labels: LabelSet, g: Granularity,
                     cfg: TokenizerConfig | None = None,
                     init_model: LevelModel | None = None) -> LevelModel:
    """Fit the n token HMMs to the labeled spans by EM, a level at a time.

    EM updates one LevelModel in place.  Each EM iteration runs one
    E-step over the spans of every token still training (_token_statistics)
    and one M-step over their stacked states.  A token stops once its
    log-likelihood gain falls under em_tol, and its spans leave later
    iterations; mixture splits are per token too, so every token follows the
    course EM would take on it alone.  Warm-starts from init_model when given
    (otherwise from the flat start), so successive calls within the
    alternation cannot decrease the likelihood of the training labels.  Tokens
    with no assigned spans are reseeded from a perturbed copy of the most
    populous token's model.  init_model itself is left as it was: EM runs on
    a copy of its arrays, whose prior it then re-estimates.
    """
    cfg = cfg or TokenizerConfig()
    spans = _collect_spans(corpus, labels, g.n)
    stats = _global_stats(corpus)
    var_floor = cfg.var_floor_frac * stats[1]
    frames_per_token = np.bincount(np.repeat(spans[0], spans[2]), minlength=g.n)
    training = np.flatnonzero(frames_per_token)  # the rest are reseeded
    layout = _SpanLayout(training, spans, corpus.frames, g.m)
    if init_model is None:
        level = _flat_start(layout, stats, g, cfg)
    else:
        level = copy.deepcopy(init_model)
        level.prior = _estimate_prior(spans[0], g.n)
    prev_ll = np.full(g.n, np.nan)  # NaN: no likelihood to compare with yet
    for it in range(cfg.em_iters):
        if not len(training):
            break
        if len(training) < len(layout.tokens):  # tokens left EM
            layout = _SpanLayout(training, spans, corpus.frames, g.m)
        # a warm start already holds the components of earlier splits; a
        # split restarts its token's convergence check
        prev_ll[level.split(training, 2 ** sum(k <= it for k in cfg.mixture_schedule))] = np.nan
        lls, resp, stay, move = _token_statistics(level, layout)
        _m_step(level, layout, resp, stay, move, var_floor)
        prev = prev_ll[training]
        converged = np.abs(lls - prev) / np.maximum(1.0, np.abs(prev)) < cfg.em_tol
        prev_ll[training] = lls
        training = training[~converged]

    dead = frames_per_token == 0
    if dead.any() and not dead.all():
        populous = int(np.argmax(frames_per_token))  # argmax ties -> lowest id
        for a in (level.counts, level.weights, level.means, level.variances, level.transitions):
            a[dead] = a[populous]
        # padding components take perturbed means too, which nothing reads
        level.means[dead] += cfg.reseed_scale * np.sqrt(level.variances[dead])
    return level


# ---------------------------------------------------------------------------
# decoding and the likelihood trace
# ---------------------------------------------------------------------------

def _emission_table(stack: tuple[np.ndarray, ...], frames: np.ndarray, m: int) -> np.ndarray:
    """(T, n, m) state log densities of T frames: one kernel product over the
    density_stack of a level's n * m states, in token-major order."""
    return logsumexp(_log_joints(stack, frames), axis=1).reshape(len(frames), -1, m)


def _table_groups(level: LevelModel, corpus: Corpus):
    """Consecutive utterances of corpus.ids() in batches: each batch's ids, the
    (frames, n, m) emission table of its rows of corpus.frames, a slice, from
    one kernel product, and their frame counts."""
    ids, at, m = corpus.ids(), corpus.offsets, level.counts.shape[1]
    stack = level.density_stack()
    lengths = np.diff(at)
    # a frame's kernel joints take c times the bytes of its table row
    for batch in _batches(lengths, 8 * stack[2].size, BATCH_BYTES):
        frames = corpus.frames[at[batch.start]:at[batch.stop]]
        yield ids[batch], _emission_table(stack, frames, m), lengths[batch]


def _viterbi(level: LevelModel, log_prior: np.ndarray, table: np.ndarray,
             lengths: np.ndarray) -> list[list]:
    """Token-loop Viterbi over utterances' stacked emission table, utterance u
    holding lengths[u] rows, in one recursion over its padded (T, U, n, m)
    copy: any token may follow any token, weighted by log_prior.  A token is
    entered by an advance into its state 0, scored as the best exit plus its
    log prior, so a frame makes one comparison per state and keeps one flag,
    advanced or not; a self-loop wins an equal advance or entry, and the
    lowest token id an equal exit.  Past an utterance's last frame its -inf
    padding makes its scores -inf; its final scores are kept at its last
    frame, and its backtrack runs alone."""
    n, m = level.counts.shape
    log_self, log_adv = level.log_transitions()
    emis, _ = _pad(table, lengths)
    T, U = len(emis), len(lengths)

    delta = np.full((U, n, m), -np.inf)
    delta[:, :, 0] = log_prior + emis[0, :, :, 0]
    advanced = np.zeros((T, U, n, m), dtype=bool)
    # exits[t]: the scores of leaving each token's last state after frame
    # t - 1; past an utterance's end its padding makes every score -inf, so
    # exits[L] holds the final scores of an utterance of L frames
    exits = np.full((T + 1, U, n), -np.inf)
    stay, move = np.empty((U, n, m)), np.empty((U, n, m))

    for t in range(1, T):
        np.add(delta, log_self, out=stay)
        np.add(delta[:, :, :-1], log_adv[:, :-1], out=move[:, :, 1:])
        np.add(delta[:, :, m - 1], log_adv[:, m - 1], out=exits[t])
        np.add(exits[t].max(axis=1)[:, None], log_prior, out=move[:, :, 0])
        np.less(stay, move, out=advanced[t])
        np.copyto(stay, move, where=advanced[t])
        np.add(stay, emis[t], out=delta)
    np.add(delta[:, :, m - 1], log_adv[:, m - 1], out=exits[T])

    switch_from = np.argmax(exits, axis=2)  # ties -> lowest token id
    return [_backtrack(advanced[:L, u], switch_from[:L, u], int(np.argmax(exits[L, u])))
            if L >= m else [(int(np.argmax(log_prior)), 0, L)]
            for u, L in enumerate(lengths.tolist())]


def _backtrack(advanced: np.ndarray, switch_from: np.ndarray, token: int) -> list:
    """One utterance's segments from its (T, n, m) advance flags and (T,)
    switch sources, ending in the last state of token.  An advance into
    state 0 is a token switch."""
    T, _, m = advanced.shape
    state = m - 1
    boundaries = []  # segment start frames with their token
    for t in range(T - 1, 0, -1):
        if advanced[t, token, state] and state:
            state -= 1
        elif advanced[t, token, state]:
            boundaries.append((t, token))
            token, state = int(switch_from[t]), m - 1
    boundaries.append((0, token))
    boundaries.reverse()
    ends = [start for start, _ in boundaries[1:]] + [T]
    return [(tok, start, end) for (start, tok), end in zip(boundaries, ends)]


def decode_utterance(model: LevelModel, frames: np.ndarray, lm_scale: float = 1.0) -> list:
    """Token-loop Viterbi: any token may follow any token, weighted by the prior."""
    table = _emission_table(model.density_stack(), frames, model.granularity.m)
    return _viterbi(model, model.log_prior(lm_scale), table, np.array([len(frames)]))[0]


def decode_level(model: LevelModel, corpus: Corpus,
                 cfg: TokenizerConfig | None = None) -> LabelSet:
    log_prior = model.log_prior((cfg or TokenizerConfig()).lm_scale)
    labels: LabelSet = {}
    for utts, table, lengths in _table_groups(model, corpus):
        for utt, segments in zip(utts, _viterbi(model, log_prior, table, lengths)):
            labels[utt] = TokenLabelSequence(utt, segments)
    return labels


def _segment_scores(level: LevelModel, log_prior: np.ndarray, table: np.ndarray,
                    starts: np.ndarray, segment_lists: list) -> np.ndarray:
    """Per segment, in list-then-segment order, its span forward log-likelihood
    plus its token's log prior, segment_lists[i] cutting the utterance whose
    rows of the stacked emission table begin at starts[i]: one gather of every
    segment's column, then one forward per batch of segments, each row with
    its token's transitions."""
    log_self, log_adv = level.log_transitions()
    tokens, first, lengths = np.array(
        [(token, at + start, end - start) for at, segments in zip(starts.tolist(), segment_lists)
         for token, start, end in segments], dtype=np.int64).reshape(-1, 3).T
    edges = np.concatenate([[0], np.cumsum(lengths)])
    columns = table[_ranges(first, lengths), np.repeat(tokens, lengths)]
    lls = np.empty(len(lengths))
    for batch in _batches(lengths, 8 * level.counts.shape[1], BATCH_BYTES):
        padded, _ = _pad(columns[edges[batch.start]:edges[batch.stop]], lengths[batch])
        own = tokens[batch]
        alpha = _alpha(padded, log_self[own], log_adv[own])
        lls[batch] = alpha[lengths[batch] - 1, np.arange(len(own)), -1] + log_adv[own, -1]
    return lls + log_prior[tokens]


def corpus_log_likelihood(model: LevelModel, corpus: Corpus, labels: LabelSet,
                          lm_scale: float = 1.0) -> float:
    """Sum over segments of the span forward log-likelihood plus scaled prior
    terms, added in utterance and segment order."""
    for utt in corpus.ids():
        if utt not in labels:
            raise ValueError(f"missing labels for {utt}")
    log_prior = model.log_prior(lm_scale)
    scores = [_segment_scores(model, log_prior, table, np.cumsum(lengths) - lengths,
                              [labels[utt].segments for utt in utts])
              for utts, table, lengths in _table_groups(model, corpus)]
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
        log_prior = model.log_prior(cfg.lm_scale)
        # one emission table per batch of utterances serves decoding and both
        # trace points, whose segments share one forward per batch
        new_labels: LabelSet = {}
        train_scores, decode_scores = [], []
        for utts, table, lengths in _table_groups(model, corpus):
            decoded = _viterbi(model, log_prior, table, lengths)
            new_labels.update((utt, TokenLabelSequence(utt, segments))
                              for utt, segments in zip(utts, decoded))
            trained = [labels[utt].segments for utt in utts]
            starts = np.cumsum(lengths) - lengths
            scores = _segment_scores(model, log_prior, table, np.concatenate([starts, starts]),
                                     trained + decoded)
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
