"""Multi-target network: shared sigmoid hidden layers, one linear bottleneck,
and a softmax head per level, trained with a uniformly weighted cross-entropy
objective.  The bottleneck activations are the learned frame-level features.

Everything is plain numpy with an explicit backward pass so training is
bit-deterministic given (seed, data, config) and the analytic gradients can be
verified against finite differences.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .corpus import ArtifactReader
from .labels import LabelSet
from .tokenizer import Granularity, GranularityGrid

MATN_MAGIC = b"MATN"
MATN_VERSION = 1


class MdnnError(RuntimeError):
    pass


@dataclass
class MdnnConfig:
    hidden: tuple[int, ...] = (256, 256)
    bottleneck: int = 39
    epochs: int = 10
    batch_size: int = 256
    learning_rate: float = 0.01
    momentum: float = 0.9


@dataclass
class MdnnModel:
    """Shared trunk (hidden layers + bottleneck) and one softmax head per level.

    layer_weights[i] maps activation i to activation i+1; the last trunk layer
    is the linear bottleneck, everything before it is sigmoid.
    """

    layer_weights: list[np.ndarray]
    layer_biases: list[np.ndarray]
    head_weights: list[np.ndarray]
    head_biases: list[np.ndarray]
    head_keys: list[Granularity]
    seed: int

    @property
    def input_dim(self) -> int:
        return self.layer_weights[0].shape[0]

    @property
    def head_sizes(self) -> list[int]:
        return [w.shape[1] for w in self.head_weights]

    def parameters(self) -> list[np.ndarray]:
        return (
            self.layer_weights + self.layer_biases + self.head_weights + self.head_biases
        )


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def init_mdnn(input_dim: int, head_sizes: list[int], head_keys: list[Granularity],
              cfg: MdnnConfig | None = None, seed: int = 0) -> MdnnModel:
    """Glorot-uniform weights, zero biases, in a fixed generation order."""
    cfg = cfg or MdnnConfig()
    rng = np.random.default_rng(seed)
    sizes = [input_dim, *cfg.hidden, cfg.bottleneck]
    layer_weights, layer_biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        layer_weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        layer_biases.append(np.zeros(fan_out))
    head_weights, head_biases = [], []
    for n_out in head_sizes:
        limit = np.sqrt(6.0 / (cfg.bottleneck + n_out))
        head_weights.append(rng.uniform(-limit, limit, size=(cfg.bottleneck, n_out)))
        head_biases.append(np.zeros(n_out))
    return MdnnModel(layer_weights, layer_biases, head_weights, head_biases,
                     list(head_keys), seed)


def _forward(model: MdnnModel, x: np.ndarray):
    """Returns (activations, head_probs); activations[0] is the input and
    activations[-1] the linear bottleneck."""
    acts = [x]
    last = len(model.layer_weights) - 1
    for i, (W, b) in enumerate(zip(model.layer_weights, model.layer_biases)):
        z = acts[-1] @ W + b
        acts.append(z if i == last else _sigmoid(z))
    bottleneck = acts[-1]
    head_probs = [
        _softmax(bottleneck @ W + b)
        for W, b in zip(model.head_weights, model.head_biases)
    ]
    return acts, head_probs


def _cross_entropy(head_probs: list[np.ndarray], targets: np.ndarray) -> float:
    """The loss of mdnn_loss and _backward, from the heads' output probabilities."""
    B = targets.shape[0]
    loss = 0.0
    for h, probs in enumerate(head_probs):
        p = np.maximum(probs[np.arange(B), targets[:, h]], 1e-300)
        loss -= np.log(p).sum() / B
    return float(loss / len(head_probs))


def mdnn_loss(model: MdnnModel, x: np.ndarray, targets: np.ndarray) -> float:
    """Uniformly weighted mean cross-entropy over the heads."""
    return _cross_entropy(_forward(model, x)[1], targets)


def _backward(model: MdnnModel, x: np.ndarray, targets: np.ndarray):
    """Analytic gradients of mdnn_loss; returns (loss, grads aligned with
    model.parameters())."""
    acts, head_probs = _forward(model, x)
    B = x.shape[0]
    H = len(head_probs)
    bottleneck = acts[-1]

    d_bottleneck = np.zeros_like(bottleneck)
    g_head_w, g_head_b = [], []
    for h, probs in enumerate(head_probs):
        d_logits = probs.copy()
        d_logits[np.arange(B), targets[:, h]] -= 1.0
        d_logits /= B * H
        g_head_w.append(bottleneck.T @ d_logits)
        g_head_b.append(d_logits.sum(axis=0))
        d_bottleneck += d_logits @ model.head_weights[h].T

    g_layer_w = [None] * len(model.layer_weights)
    g_layer_b = [None] * len(model.layer_biases)
    delta = d_bottleneck  # bottleneck is linear
    for i in range(len(model.layer_weights) - 1, -1, -1):
        g_layer_w[i] = acts[i].T @ delta
        g_layer_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.layer_weights[i].T) * acts[i] * (1.0 - acts[i])
    return _cross_entropy(head_probs, targets), g_layer_w + g_layer_b + g_head_w + g_head_b


@dataclass
class TrainingLog:
    epochs: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    head_accuracy: list[list[float]] = field(default_factory=list)

    def to_csv(self) -> str:
        n_heads = len(self.head_accuracy[0]) if self.head_accuracy else 0
        lines = ["epoch,loss," + ",".join(f"acc_head{i}" for i in range(n_heads))]
        for e, loss, accs in zip(self.epochs, self.losses, self.head_accuracy):
            lines.append(",".join([str(e), repr(loss)] + [repr(a) for a in accs]))
        return "\n".join(lines) + "\n"


def head_accuracies(model: MdnnModel, x: np.ndarray, targets: np.ndarray) -> list[float]:
    _, head_probs = _forward(model, x)
    return [
        float(np.mean(np.argmax(probs, axis=1) == targets[:, h]))
        for h, probs in enumerate(head_probs)
    ]


def train_mdnn(inputs: np.ndarray, targets: np.ndarray, head_sizes: list[int],
               head_keys: list[Granularity], cfg: MdnnConfig | None = None,
               seed: int = 0) -> tuple[MdnnModel, TrainingLog]:
    """Minibatch SGD with momentum; deterministic given (seed, data, config).

    Raises MdnnError with diagnostics if the loss diverges to NaN.
    """
    cfg = cfg or MdnnConfig()
    if inputs.ndim != 2:
        raise ValueError("inputs must be (N, D)")
    if targets.shape != (inputs.shape[0], len(head_sizes)):
        raise ValueError("targets must be (N, n_heads)")
    for h, size in enumerate(head_sizes):
        if targets[:, h].max() >= size:
            raise ValueError(f"head {h}: target id out of range")
    model = init_mdnn(inputs.shape[1], head_sizes, head_keys, cfg, seed)
    rng = np.random.default_rng(seed + 1)
    velocity = [np.zeros_like(p) for p in model.parameters()]
    log = TrainingLog()
    N = inputs.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(N)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, N, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grads = _backward(model, inputs[batch], targets[batch])
            if not np.isfinite(loss):
                raise MdnnError(
                    f"training diverged at epoch {epoch}, batch {n_batches}: loss={loss}"
                )
            params = model.parameters()
            for v, p, g in zip(velocity, params, grads):
                v *= cfg.momentum
                v -= cfg.learning_rate * g
                p += v
            epoch_loss += loss
            n_batches += 1
        log.epochs.append(epoch)
        log.losses.append(epoch_loss / max(n_batches, 1))
        log.head_accuracy.append(head_accuracies(model, inputs, targets))
    return model, log


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

def gradient_check(model: MdnnModel, x: np.ndarray, targets: np.ndarray,
                   n_params: int = 500, step: float = 1e-4, seed: int = 0) -> float:
    """Max relative error between analytic and central finite-difference
    gradients over up to n_params randomly chosen parameters.

    Relative error uses max(|analytic|, |numeric|, 1e-6) as the denominator so
    exactly-zero gradients compare cleanly.
    """
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    _, grads = _backward(model, x, targets)
    params = model.parameters()
    sizes = [p.size for p in params]
    total = sum(sizes)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(total, size=min(n_params, total), replace=False)
    offsets = np.cumsum([0] + sizes)
    worst = 0.0
    for flat in sorted(int(c) for c in chosen):
        pi = int(np.searchsorted(offsets, flat, side="right")) - 1
        local = flat - offsets[pi]
        p = params[pi]
        idx = np.unravel_index(local, p.shape)
        original = p[idx]
        p[idx] = original + step
        up = mdnn_loss(model, x, targets)
        p[idx] = original - step
        down = mdnn_loss(model, x, targets)
        p[idx] = original
        numeric = (up - down) / (2.0 * step)
        analytic = grads[pi][idx]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# targets and inputs
# ---------------------------------------------------------------------------

def build_targets(labels_by_level: dict[Granularity, LabelSet],
                  grid: GranularityGrid) -> dict[str, np.ndarray]:
    """Per-utterance (T, n_levels) target matrix; frame t of level h holds the
    token id of the segment containing t, in grid level order."""
    levels = grid.levels()
    for g in levels:
        if g not in labels_by_level:
            raise ValueError(f"missing labels for level {g}")
    utt_ids = sorted(labels_by_level[levels[0]])
    out: dict[str, np.ndarray] = {}
    for utt in utt_ids:
        T = labels_by_level[levels[0]][utt].n_frames
        targets = np.empty((T, len(levels)), dtype=np.int64)
        for h, g in enumerate(levels):
            if utt not in labels_by_level[g]:
                raise ValueError(f"level {g} does not cover utterance {utt}")
            seq = labels_by_level[g][utt]
            if seq.n_frames != T:
                raise ValueError(f"level {g} covers {seq.n_frames} frames of {utt}, expected {T}")
            targets[:, h] = seq.frame_labels()
        out[utt] = targets
    return out


def make_iteration_input(mfcc_context: np.ndarray,
                         bnf_context: np.ndarray | None = None,
                         extra_blocks: tuple[np.ndarray, ...] = (),
                         utterance_vector: np.ndarray | None = None) -> np.ndarray:
    """Per-frame concatenation in fixed order: acoustic context, bottleneck
    context, extra blocks, then the utterance-level vector tiled to every
    frame.  All per-frame blocks must agree on the frame count."""
    T = mfcc_context.shape[0]
    blocks = [mfcc_context]
    if bnf_context is not None:
        blocks.append(bnf_context)
    blocks.extend(extra_blocks)
    for b in blocks[1:]:
        if b.shape[0] != T:
            raise ValueError(f"frame count mismatch: {b.shape[0]} != {T}")
    if utterance_vector is not None:
        blocks.append(np.tile(utterance_vector, (T, 1)))
    return np.hstack(blocks)


def extract_bnf(model: MdnnModel, frames: np.ndarray) -> np.ndarray:
    """Bottleneck activations of each input frame, (T, bottleneck width)."""
    if frames.shape[1] != model.input_dim:
        raise ValueError(f"input dim {frames.shape[1]} != model input {model.input_dim}")
    acts, _ = _forward(model, frames)
    return acts[-1]


# ---------------------------------------------------------------------------
# model file I/O
# ---------------------------------------------------------------------------

def matn_bytes(model: MdnnModel) -> bytes:
    sizes = [model.input_dim] + [w.shape[1] for w in model.layer_weights]
    parts = [MATN_MAGIC, struct.pack("<Iq", MATN_VERSION, model.seed)]
    parts.append(struct.pack("<I", len(sizes)))
    parts.append(struct.pack(f"<{len(sizes)}I", *sizes))
    parts.append(struct.pack("<I", len(model.head_weights)))
    for g, w in zip(model.head_keys, model.head_weights):
        parts.append(struct.pack("<III", g.m, g.n, w.shape[1]))
    for p in model.parameters():
        parts.append(np.asarray(p, "<f8").tobytes())
    return b"".join(parts)


def read_matn(path) -> MdnnModel:
    f = ArtifactReader(path, MATN_MAGIC, MATN_VERSION)
    (seed,) = f.unpack("<q", "seed")
    (n_sizes,) = f.unpack("<I", "layer count")
    sizes = list(f.unpack(f"<{n_sizes}I", "layer sizes"))
    (n_heads,) = f.unpack("<I", "head count")
    head_keys, head_sizes = [], []
    for _ in range(n_heads):
        m, n, width = f.unpack("<III", "head descriptor")
        head_keys.append(Granularity(m, n))
        head_sizes.append(width)
    layer_weights = [f.array((a, b), "layer weights") for a, b in zip(sizes[:-1], sizes[1:])]
    layer_biases = [f.array((b,), "layer biases") for b in sizes[1:]]
    head_weights = [f.array((sizes[-1], w), "head weights") for w in head_sizes]
    head_biases = [f.array((w,), "head biases") for w in head_sizes]
    f.end()
    return MdnnModel(layer_weights, layer_biases, head_weights, head_biases, head_keys, seed)
