"""Multi-target network: shared sigmoid hidden layers, one linear bottleneck,
and a softmax head per level, trained with a uniformly weighted cross-entropy
objective.  The bottleneck activations are the learned frame-level features.

Everything is plain numpy, with an explicit backward pass,
so training is bit-deterministic given (seed, data, config) and the analytic
gradients can be verified against finite differences.
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
    context_radius: int = 4  # frames of context on each side of an input frame
    hidden: tuple[int, ...] = (256, 256)
    bottleneck: int = 39
    epochs: int = 10
    batch_size: int = 256
    learning_rate: float = 0.01
    momentum: float = 0.9

    def __post_init__(self):
        for name in ("bottleneck", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {list(self.hidden)}")
        if self.context_radius < 0:
            raise ValueError(f"context_radius must be >= 0, got {self.context_radius}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass
class MdnnModel:
    """Shared trunk (hidden layers + bottleneck) and one softmax head per level,
    head h being head_keys[h].n wide.

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

    def parameters(self) -> list[np.ndarray]:
        return (
            self.layer_weights + self.layer_biases + self.head_weights + self.head_biases
        )


def _sigmoid(x):
    """Logistic function from e = exp(-|x|), which cannot overflow.  The
    exponent is picked as -x or x, not negated from |x|, so a NaN keeps its
    sign bit."""
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's maximum: the same bits as
    scipy.special.softmax(z, axis=1)."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def init_mdnn(input_dim: int, head_keys: list[Granularity],
              cfg: MdnnConfig | None = None, seed: int = 0) -> MdnnModel:
    """Glorot-uniform weights, zero biases, in a fixed generation order; one
    head per key, as wide as the key's n."""
    cfg = cfg or MdnnConfig()
    rng = np.random.default_rng(seed)
    sizes = [input_dim, *cfg.hidden, cfg.bottleneck]
    layer_weights, layer_biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        layer_weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        layer_biases.append(np.zeros(fan_out))
    head_weights, head_biases = [], []
    for n_out in (g.n for g in head_keys):
        limit = np.sqrt(6.0 / (cfg.bottleneck + n_out))
        head_weights.append(rng.uniform(-limit, limit, size=(cfg.bottleneck, n_out)))
        head_biases.append(np.zeros(n_out))
    return MdnnModel(layer_weights, layer_biases, head_weights, head_biases,
                     list(head_keys), seed)


def _trunk(model: MdnnModel, x: np.ndarray) -> list[np.ndarray]:
    """The shared layers' activations; [0] is the input and [-1] the linear
    bottleneck."""
    acts = [x]
    last = len(model.layer_weights) - 1
    for i, (W, b) in enumerate(zip(model.layer_weights, model.layer_biases)):
        z = acts[-1] @ W + b
        acts.append(z if i == last else _sigmoid(z))
    return acts


def _forward(model: MdnnModel, x: np.ndarray):
    """Returns (the trunk's activations, each head's probabilities)."""
    acts = _trunk(model, x)
    return acts, [_softmax(acts[-1] @ W + b)
                  for W, b in zip(model.head_weights, model.head_biases)]


def _cross_entropy(head_probs: list[np.ndarray], targets: np.ndarray) -> float:
    """Uniformly weighted mean cross-entropy over the heads, from their output
    probabilities: the loss _backward differentiates."""
    B = targets.shape[0]
    loss = 0.0
    for h, probs in enumerate(head_probs):
        p = np.maximum(probs[np.arange(B), targets[:, h]], 1e-300)
        loss -= np.log(p).sum() / B
    return float(loss / len(head_probs))


def _backward(model: MdnnModel, x: np.ndarray, targets: np.ndarray):
    """Analytic gradients of the loss; returns (loss, grads aligned with
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
    """One row per epoch, numbered from 0."""

    losses: list[float] = field(default_factory=list)
    head_accuracy: list[list[float]] = field(default_factory=list)

    def to_csv(self) -> str:
        n_heads = len(self.head_accuracy[0]) if self.head_accuracy else 0
        lines = ["epoch,loss," + ",".join(f"acc_head{i}" for i in range(n_heads))]
        for e, (loss, accs) in enumerate(zip(self.losses, self.head_accuracy)):
            lines.append(",".join([str(e), repr(loss)] + [repr(a) for a in accs]))
        return "\n".join(lines) + "\n"


def head_accuracies(model: MdnnModel, x: np.ndarray, targets: np.ndarray,
                    batch_size: int = MdnnConfig.batch_size) -> list[float]:
    """Per head, the share of rows whose largest logit is the target's, scored
    batch_size rows at a time: the softmax keeps the logits' order, so it is
    not evaluated, and logits it would round to one probability rank apart."""
    hits = np.zeros(len(model.head_weights), dtype=np.int64)
    for start in range(0, x.shape[0], batch_size):
        rows = slice(start, start + batch_size)
        bottleneck = _trunk(model, x[rows])[-1]
        hits += [np.count_nonzero(np.argmax(bottleneck @ W + b, axis=1) == targets[rows, h])
                 for h, (W, b) in enumerate(zip(model.head_weights, model.head_biases))]
    return (hits / x.shape[0]).tolist()


def train_mdnn(inputs: np.ndarray, targets: np.ndarray, head_keys: list[Granularity],
               cfg: MdnnConfig | None = None, seed: int = 0) -> tuple[MdnnModel, TrainingLog]:
    """Minibatch SGD with momentum; deterministic given (seed, data, config).

    Raises MdnnError with diagnostics if the loss diverges to NaN.
    """
    cfg = cfg or MdnnConfig()
    if inputs.ndim != 2:
        raise ValueError("inputs must be (N, D)")
    if targets.shape != (inputs.shape[0], len(head_keys)):
        raise ValueError("targets must be (N, n_heads)")
    for h, g in enumerate(head_keys):
        if targets[:, h].min() < 0 or targets[:, h].max() >= g.n:
            raise ValueError(f"head {h}: target id out of range [0, {g.n})")
    model = init_mdnn(inputs.shape[1], head_keys, cfg, seed)
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
        log.losses.append(epoch_loss / max(n_batches, 1))
        log.head_accuracy.append(head_accuracies(model, inputs, targets, cfg.batch_size))
    return model, log


# ---------------------------------------------------------------------------
# targets and inputs
# ---------------------------------------------------------------------------

def build_targets(labels_by_level: dict[Granularity, LabelSet], grid: GranularityGrid,
                  ids: list[str]) -> np.ndarray:
    """(frames, n_levels) targets over the utterances ids, in that order:
    column h holds each frame's token id at grid level h."""
    levels = grid.levels()
    columns = []
    for g in levels:
        if g not in labels_by_level:
            raise ValueError(f"missing labels for level {g}")
        for utt in ids:
            if utt not in labels_by_level[g]:
                raise ValueError(f"level {g} does not cover utterance {utt}")
            T, found = labels_by_level[levels[0]][utt].n_frames, labels_by_level[g][utt].n_frames
            if found != T:
                raise ValueError(f"level {g} covers {found} frames of {utt}, expected {T}")
        columns.append(np.concatenate([labels_by_level[g][utt].frame_labels() for utt in ids]))
    return np.stack(columns, axis=1)


def make_iteration_input(blocks: list[np.ndarray], statistics: np.ndarray) -> np.ndarray:
    """The per-frame blocks side by side, in their order, then each frame's
    row of utterance statistics.  All must agree on the frame count."""
    for b in (*blocks, statistics):
        if b.shape[0] != blocks[0].shape[0]:
            raise ValueError(f"frame count mismatch: {b.shape[0]} != {blocks[0].shape[0]}")
    return np.hstack([*blocks, statistics])


def extract_bnf(model: MdnnModel, frames: np.ndarray) -> np.ndarray:
    """Bottleneck activations of each input frame, (T, bottleneck width), in
    blocks of the default minibatch's rows, so the activations held do not
    grow with T; no head is evaluated."""
    if frames.shape[1] != model.input_dim:
        raise ValueError(f"input dim {frames.shape[1]} != model input {model.input_dim}")
    block = MdnnConfig.batch_size
    return np.concatenate([_trunk(model, frames[start:start + block])[-1]
                           for start in range(0, frames.shape[0], block)])


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
    """Inverse of matn_bytes.  A parameter that is not finite raises a
    ValueError naming the file, the field and the layer or head."""
    f = ArtifactReader(path, MATN_MAGIC, MATN_VERSION)
    (seed,) = f.unpack("<q", "seed")
    (n_sizes,) = f.unpack("<I", "layer count")
    sizes = list(f.unpack(f"<{n_sizes}I", "layer sizes"))
    if len(sizes) < 2 or min(sizes) < 1:
        raise ValueError(f"{path}: layer sizes {sizes}: need at least 2, each >= 1")
    (n_heads,) = f.unpack("<I", "head count")
    head_keys = []
    for h in range(n_heads):
        m, n, width = f.unpack("<III", "head descriptor")
        if m < 1 or n < 1:
            raise ValueError(f"{path}: head {h}: m = {m}, n = {n}: both must be >= 1")
        if width != n:
            raise ValueError(f"{path}: head {h}: width {width} != n = {n}")
        head_keys.append(Granularity(m, n))
    layer_weights = [f.array((a, b), "layer weights") for a, b in zip(sizes[:-1], sizes[1:])]
    layer_biases = [f.array((b,), "layer biases") for b in sizes[1:]]
    head_weights = [f.array((sizes[-1], g.n), "head weights") for g in head_keys]
    head_biases = [f.array((g.n,), "head biases") for g in head_keys]
    f.end()
    for field, arrays in (("layer weights", layer_weights), ("layer biases", layer_biases),
                          ("head weights", head_weights), ("head biases", head_biases)):
        for i, values in enumerate(arrays):
            bad = values[~np.isfinite(values)]
            if len(bad):
                raise ValueError(f"{path}: {field} {i}: value {float(bad[0])} is not finite")
    return MdnnModel(layer_weights, layer_biases, head_weights, head_biases, head_keys, seed)
