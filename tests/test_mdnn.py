import tracemalloc

import numpy as np
import pytest
from scipy.special import softmax

from acoustok import mdnn
from acoustok.corpus import FeatureSequence
from acoustok.labels import TokenLabelSequence
from acoustok.mdnn import (
    MdnnConfig,
    MdnnError,
    _backward,
    _cross_entropy,
    _forward,
    _sigmoid,
    _softmax,
    build_targets,
    extract_bnf,
    head_accuracies,
    init_mdnn,
    make_iteration_input,
    matn_bytes,
    read_matn,
    train_mdnn,
)
from acoustok.tokenizer import Granularity, GranularityGrid


def mdnn_loss(model, x, targets) -> float:
    """Uniformly weighted mean cross-entropy over the heads."""
    return _cross_entropy(_forward(model, x)[1], targets)


def gradient_check(model, x, targets, n_params=500, step=1e-4, seed=0) -> float:
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


def toy_data(n=200, d=4, seed=0):
    """Two planted classes at +/-5, identical targets on both heads."""
    rng = np.random.default_rng(seed)
    half = n // 2
    inputs = np.vstack(
        [rng.normal(5.0, 0.5, size=(half, d)), rng.normal(-5.0, 0.5, size=(n - half, d))]
    )
    targets = np.zeros((n, 2), dtype=np.int64)
    targets[half:] = 1
    return inputs, targets


TOY_KEYS = [Granularity(3, 2), Granularity(5, 2)]


class TestBuildTargets:
    def test_single_segment_constant_target(self):
        grid = GranularityGrid((3,), (4,))
        labels = {Granularity(3, 4): {"u": TokenLabelSequence("u", [(2, 0, 7)])}}
        targets = build_targets(labels, grid, ["u"])
        assert np.all(targets[:, 0] == 2)

    def test_sixteen_levels_sixteen_targets(self):
        grid = GranularityGrid((3, 5, 7, 9), (2, 3, 4, 5))
        labels = {
            g: {"u": TokenLabelSequence("u", [(0, 0, 5), (1, 5, 10)])}
            for g in grid.levels()
        }
        targets = build_targets(labels, grid, ["u"])
        assert targets.shape == (10, 16)

    def test_half_open_membership(self):
        grid = GranularityGrid((3,), (2,))
        labels = {Granularity(3, 2): {"u": TokenLabelSequence("u", [(0, 0, 4), (1, 4, 8)])}}
        targets = build_targets(labels, grid, ["u"])[:, 0]
        assert targets[3] == 0
        assert targets[4] == 1

    def test_rows_follow_the_given_ids(self):
        grid = GranularityGrid((3,), (4,))
        labels = {Granularity(3, 4): {"a": TokenLabelSequence("a", [(1, 0, 2)]),
                                      "b": TokenLabelSequence("b", [(3, 0, 1), (2, 1, 3)])}}
        targets = build_targets(labels, grid, ["b", "a"])
        assert targets.tolist() == [[3], [2], [2], [1], [1]]

    @pytest.mark.parametrize("second, message", [
        ({}, "does not cover utterance u"),
        ({"u": TokenLabelSequence("u", [(0, 0, 3)])}, "covers 3 frames of u, expected 4"),
    ])
    def test_level_disagreeing_with_the_first_rejected(self, second, message):
        grid = GranularityGrid((3, 5), (2,))
        labels = {Granularity(3, 2): {"u": TokenLabelSequence("u", [(0, 0, 4)])},
                  Granularity(5, 2): second}
        with pytest.raises(ValueError, match=message):
            build_targets(labels, grid, ["u"])

    def test_missing_level_rejected(self):
        grid = GranularityGrid((3, 5), (2,))
        labels = {Granularity(3, 2): {"u": TokenLabelSequence("u", [(0, 0, 4)])}}
        with pytest.raises(ValueError, match="missing labels"):
            build_targets(labels, grid, ["u"])


class TestTraining:
    def test_separable_toy_reaches_full_accuracy(self):
        inputs, targets = toy_data()
        cfg = MdnnConfig(hidden=(8, 8), bottleneck=4, epochs=50, batch_size=32)
        model, log = train_mdnn(inputs, targets, TOY_KEYS, cfg, seed=0)
        accs = head_accuracies(model, inputs, targets)
        assert accs == [1.0, 1.0]

    def test_accuracy_ranks_logits_the_softmax_rounds_to_a_tie(self, monkeypatch):
        # logits 0 and 1e-17 have one probability, 0.5, as the softmax rounds
        # them; the larger logit is still the prediction
        model = init_mdnn(3, [Granularity(3, 2)], MdnnConfig(hidden=(4,), bottleneck=2))
        model.head_weights[0][:] = 0.0
        model.head_biases[0][:] = [0.0, 1e-17]
        assert np.all(_softmax(np.array([[0.0, 1e-17]])) == 0.5)

        def no_softmax(z):
            raise AssertionError("head_accuracies evaluated a softmax")

        monkeypatch.setattr(mdnn, "_softmax", no_softmax)
        x = np.random.default_rng(2).normal(size=(5, 3))
        assert head_accuracies(model, x, np.ones((5, 1), dtype=np.int64)) == [1.0]

    def test_accuracy_in_row_blocks_counts_every_row_once(self):
        rng = np.random.default_rng(3)
        model = init_mdnn(6, TOY_KEYS, MdnnConfig(hidden=(5,), bottleneck=3), seed=1)
        x, targets = rng.normal(size=(50, 6)), rng.integers(0, 2, size=(50, 2))
        whole = head_accuracies(model, x, targets, batch_size=50)
        assert head_accuracies(model, x, targets, batch_size=7) == whole
        assert whole == [float(np.mean(np.argmax(_forward(model, x)[1][h], axis=1)
                                       == targets[:, h])) for h in range(2)]

    def test_training_memory_does_not_grow_with_rows(self):
        """Beyond its inputs, training holds a minibatch's activations, not
        every row's: peak traced memory at 4N rows stays within 1 MB of N's."""
        keys = [Granularity(3, 100), Granularity(5, 100)]
        cfg = MdnnConfig(hidden=(64,), bottleneck=8, epochs=1, batch_size=64)
        peaks = []
        for n in (1500, 6000):
            rng = np.random.default_rng(0)
            x, targets = rng.normal(size=(n, 20)), rng.integers(0, 100, size=(n, 2))
            tracemalloc.start()
            try:
                train_mdnn(x, targets, keys, cfg, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1_000_000, peaks

    def test_loss_trend_non_increasing_after_warmup(self):
        inputs, targets = toy_data()
        cfg = MdnnConfig(hidden=(8, 8), bottleneck=4, epochs=30, batch_size=32)
        _, log = train_mdnn(inputs, targets, TOY_KEYS, cfg, seed=0)
        for prev, cur in zip(log.losses[3:], log.losses[4:]):
            assert cur <= prev + 1e-3

    def test_softmax_rows_sum_to_one(self):
        inputs, targets = toy_data(n=32)
        cfg = MdnnConfig(hidden=(8,), bottleneck=4, epochs=2, batch_size=16)
        model, _ = train_mdnn(inputs, targets, TOY_KEYS, cfg, seed=1)
        _, head_probs = _forward(model, inputs)
        for probs in head_probs:
            assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-6

    @pytest.mark.parametrize("scale", [1e-2, 1.0, 30.0, 1e3])
    def test_softmax_equals_scipy(self, scale):
        rng = np.random.default_rng(int(scale * 100))
        for _ in range(100):
            z = rng.uniform(-scale, scale, size=(int(rng.integers(1, 40)), int(rng.integers(1, 9))))
            assert np.array_equal(_softmax(z), softmax(z, axis=1))

    def test_softmax_ties_equal_scipy(self):
        z = np.array([[3.0, 3.0, -1.0], [0.0, 0.0, 0.0], [-1e3, 1e3, 1e3], [5.0, -5.0, 5.0]])
        assert np.array_equal(_softmax(z), softmax(z, axis=1))
        assert _softmax(z)[2, 1] == _softmax(z)[2, 2] == 0.5

    def test_sigmoid_equals_the_masked_form(self):
        # the two-branch form indexed by boolean masks, the reference
        x = np.random.default_rng(5).normal(scale=30.0, size=(64, 50))
        x[0, :8] = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 800.0, -800.0]
        want = np.empty_like(x)
        pos = x >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        want[~pos] = ex / (1.0 + ex)
        assert _sigmoid(x).tobytes() == want.tobytes()

    def test_bit_deterministic(self):
        inputs, targets = toy_data(n=64)
        cfg = MdnnConfig(hidden=(8,), bottleneck=4, epochs=5, batch_size=16)
        blobs = []
        for _ in range(2):
            model, _ = train_mdnn(inputs, targets, TOY_KEYS, cfg, seed=9)
            blobs.append(matn_bytes(model))
        assert blobs[0] == blobs[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        inputs, targets = toy_data(n=64)
        cfg = MdnnConfig(hidden=(8,), bottleneck=4, epochs=50, batch_size=16,
                         learning_rate=1e6)
        with pytest.raises(MdnnError, match="diverged"):
            train_mdnn(inputs, targets, TOY_KEYS, cfg, seed=0)

    def test_target_range_checked(self):
        for bad in (7, 2, -1):
            inputs, targets = toy_data(n=16)
            targets[0, 0] = bad
            with pytest.raises(ValueError, match="head 0: target id out of range"):
                train_mdnn(inputs, targets, TOY_KEYS, MdnnConfig(epochs=1), seed=0)

    def test_head_order_matches_grid_order(self):
        grid = GranularityGrid((3, 5), (2, 4))
        model = init_mdnn(10, grid.levels(), MdnnConfig(hidden=(8,), bottleneck=4))
        assert [w.shape[1] for w in model.head_weights] == [2, 4, 2, 4]
        assert model.head_keys == grid.levels()


class TestTrainingLog:
    def test_csv_layout(self):
        inputs, targets = toy_data(n=32)
        cfg = MdnnConfig(hidden=(8,), bottleneck=4, epochs=3, batch_size=16)
        _, log = train_mdnn(inputs, targets, TOY_KEYS, cfg, seed=2)
        text = log.to_csv()
        assert text.endswith("\n")
        header, *rows = text.splitlines()
        assert header == "epoch,loss,acc_head0,acc_head1"
        assert rows == [
            ",".join([str(epoch), repr(loss), *map(repr, accs)])
            for epoch, (loss, accs) in enumerate(zip(log.losses, log.head_accuracy))
        ]
        assert [row.split(",")[0] for row in rows] == ["0", "1", "2"]
        # the benchmark reads the last row's head accuracies from column 2 on
        assert [float(v) for v in rows[-1].split(",")[2:]] == log.head_accuracy[-1]


class TestGradientCheck:
    def test_fresh_model_small_error(self):
        rng = np.random.default_rng(3)
        inputs = rng.normal(size=(12, 10))
        targets = rng.integers(0, 3, size=(12, 2))
        keys = [Granularity(3, 3), Granularity(5, 3)]
        model = init_mdnn(10, keys, MdnnConfig(hidden=(16, 8), bottleneck=5), seed=4)
        assert gradient_check(model, inputs, targets, n_params=400) < 1e-4

    def test_zero_weight_model_bias_gradients(self):
        inputs, targets = toy_data(n=20)
        model = init_mdnn(4, TOY_KEYS, MdnnConfig(hidden=(6,), bottleneck=3), seed=0)
        for p in model.layer_weights + model.head_weights:
            p[:] = 0.0
        assert gradient_check(model, inputs, targets, n_params=500) < 1e-4

    def test_repeatable(self):
        rng = np.random.default_rng(5)
        inputs = rng.normal(size=(8, 6))
        targets = rng.integers(0, 2, size=(8, 2))
        model = init_mdnn(6, TOY_KEYS, MdnnConfig(hidden=(5,), bottleneck=3), seed=1)
        a = gradient_check(model, inputs, targets, n_params=100, seed=2)
        b = gradient_check(model, inputs, targets, n_params=100, seed=2)
        assert a == b


class TestExtractBnf:
    def test_default_width(self):
        model = init_mdnn(20, [Granularity(3, 2)], MdnnConfig(hidden=(8,), bottleneck=39))
        seq = FeatureSequence(np.random.default_rng(0).normal(size=(5, 20)))
        assert extract_bnf(model, seq.frames).shape[1] == 39

    def test_wide_bottleneck(self):
        model = init_mdnn(20, [Granularity(3, 2)], MdnnConfig(hidden=(8,), bottleneck=64))
        out = extract_bnf(model, np.zeros((4, 20)))
        assert out.shape[1] == 64

    def test_deterministic_on_identical_inputs(self):
        model = init_mdnn(6, [Granularity(3, 2)], MdnnConfig(hidden=(8,), bottleneck=4))
        frames = np.random.default_rng(1).normal(size=(7, 6))
        a = extract_bnf(model, frames)
        b = extract_bnf(model, frames.copy())
        assert np.array_equal(a, b)

    def test_no_head_is_evaluated(self, monkeypatch):
        model = init_mdnn(6, [Granularity(3, 2)], MdnnConfig(hidden=(8,), bottleneck=4))
        frames = np.random.default_rng(1).normal(size=(7, 6))
        expected = extract_bnf(model, frames)

        def no_head(z):
            raise AssertionError("extract_bnf evaluated a softmax head")

        monkeypatch.setattr(mdnn, "_softmax", no_head)
        assert np.array_equal(extract_bnf(model, frames), expected)

    def test_dimension_mismatch(self):
        model = init_mdnn(6, [Granularity(3, 2)], MdnnConfig(hidden=(8,), bottleneck=4))
        with pytest.raises(ValueError, match="input dim"):
            extract_bnf(model, np.zeros((3, 5)))

    def test_row_blocks_stitch_in_order(self):
        model = init_mdnn(6, [Granularity(3, 2)], MdnnConfig(hidden=(8,), bottleneck=4))
        frames = np.random.default_rng(3).normal(size=(2 * MdnnConfig.batch_size + 7, 6))
        np.testing.assert_allclose(extract_bnf(model, frames), mdnn._trunk(model, frames)[-1],
                                   rtol=1e-12, atol=1e-12)

    def test_memory_beyond_the_output_does_not_grow_with_rows(self):
        model = init_mdnn(20, [Granularity(3, 2)], MdnnConfig(hidden=(64,), bottleneck=8))
        extra = []
        for n in (1500, 6000):
            frames = np.random.default_rng(0).normal(size=(n, 20))
            tracemalloc.start()
            try:
                out = extract_bnf(model, frames)
                extra.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
            finally:
                tracemalloc.stop()
        assert extra[1] - extra[0] < 1_000_000, extra


class TestIterationInput:
    def test_mfcc_bnf_stats_dimension(self):
        out = make_iteration_input([np.zeros((10, 351)), np.zeros((10, 351))], np.zeros((10, 78)))
        assert out.shape == (10, 780)

    def test_three_block_layout_width(self):
        blocks = [np.full((10, 351), float(i)) for i in range(3)]
        out = make_iteration_input(blocks, np.full((10, 400), 3.0))
        assert out.shape == (10, 1453)
        assert np.array_equal(out, np.hstack([*blocks, np.full((10, 400), 3.0)]))

    def test_identity_without_extras(self):
        rng = np.random.default_rng(2)
        ctx, stats = rng.normal(size=(6, 12)), rng.normal(size=(6, 3))
        out = make_iteration_input([ctx], stats)
        assert np.array_equal(out[:, :12], ctx)
        assert np.array_equal(out[:, 12:], stats)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="frame count mismatch: 6 != 5"):
            make_iteration_input([np.zeros((5, 4)), np.zeros((6, 4))], np.zeros((5, 2)))

    def test_statistics_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="frame count mismatch: 6 != 5"):
            make_iteration_input([np.zeros((5, 4))], np.zeros((6, 2)))


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        inputs, targets = toy_data(n=32)
        cfg = MdnnConfig(hidden=(8, 6), bottleneck=4, epochs=2, batch_size=16)
        model, _ = train_mdnn(inputs, targets, TOY_KEYS, cfg, seed=3)
        (tmp_path / "m.matn").write_bytes(matn_bytes(model))
        back = read_matn(tmp_path / "m.matn")
        assert back.seed == model.seed
        assert back.head_keys == model.head_keys
        for p, q in zip(model.parameters(), back.parameters()):
            assert np.array_equal(p, q)
        assert mdnn_loss(back, inputs, targets) == mdnn_loss(model, inputs, targets)
