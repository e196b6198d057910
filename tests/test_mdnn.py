import numpy as np
import pytest

from acoustok.corpus import FeatureSequence
from acoustok.labels import TokenLabelSequence
from acoustok.mdnn import (
    MdnnConfig,
    MdnnError,
    _forward,
    build_targets,
    extract_bnf,
    gradient_check,
    head_accuracies,
    init_mdnn,
    make_iteration_input,
    matn_bytes,
    mdnn_loss,
    read_matn,
    train_mdnn,
)
from acoustok.tokenizer import Granularity, GranularityGrid


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
        targets = build_targets(labels, grid)
        assert np.all(targets["u"][:, 0] == 2)

    def test_sixteen_levels_sixteen_targets(self):
        grid = GranularityGrid((3, 5, 7, 9), (2, 3, 4, 5))
        labels = {
            g: {"u": TokenLabelSequence("u", [(0, 0, 5), (1, 5, 10)])}
            for g in grid.levels()
        }
        targets = build_targets(labels, grid)
        assert targets["u"].shape == (10, 16)

    def test_half_open_membership(self):
        grid = GranularityGrid((3,), (2,))
        labels = {Granularity(3, 2): {"u": TokenLabelSequence("u", [(0, 0, 4), (1, 4, 8)])}}
        targets = build_targets(labels, grid)["u"][:, 0]
        assert targets[3] == 0
        assert targets[4] == 1

    def test_missing_level_rejected(self):
        grid = GranularityGrid((3, 5), (2,))
        labels = {Granularity(3, 2): {"u": TokenLabelSequence("u", [(0, 0, 4)])}}
        with pytest.raises(ValueError, match="missing labels"):
            build_targets(labels, grid)


class TestTraining:
    def test_separable_toy_reaches_full_accuracy(self):
        inputs, targets = toy_data()
        cfg = MdnnConfig(hidden=(8, 8), bottleneck=4, epochs=50, batch_size=32)
        model, log = train_mdnn(inputs, targets, [2, 2], TOY_KEYS, cfg, seed=0)
        accs = head_accuracies(model, inputs, targets)
        assert accs == [1.0, 1.0]

    def test_loss_trend_non_increasing_after_warmup(self):
        inputs, targets = toy_data()
        cfg = MdnnConfig(hidden=(8, 8), bottleneck=4, epochs=30, batch_size=32)
        _, log = train_mdnn(inputs, targets, [2, 2], TOY_KEYS, cfg, seed=0)
        for prev, cur in zip(log.losses[3:], log.losses[4:]):
            assert cur <= prev + 1e-3

    def test_softmax_rows_sum_to_one(self):
        inputs, targets = toy_data(n=32)
        cfg = MdnnConfig(hidden=(8,), bottleneck=4, epochs=2, batch_size=16)
        model, _ = train_mdnn(inputs, targets, [2, 2], TOY_KEYS, cfg, seed=1)
        _, head_probs = _forward(model, inputs)
        for probs in head_probs:
            assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-6

    def test_bit_deterministic(self):
        inputs, targets = toy_data(n=64)
        cfg = MdnnConfig(hidden=(8,), bottleneck=4, epochs=5, batch_size=16)
        blobs = []
        for _ in range(2):
            model, _ = train_mdnn(inputs, targets, [2, 2], TOY_KEYS, cfg, seed=9)
            blobs.append(matn_bytes(model))
        assert blobs[0] == blobs[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        inputs, targets = toy_data(n=64)
        cfg = MdnnConfig(hidden=(8,), bottleneck=4, epochs=50, batch_size=16,
                         learning_rate=1e6)
        with pytest.raises(MdnnError, match="diverged"):
            train_mdnn(inputs, targets, [2, 2], TOY_KEYS, cfg, seed=0)

    def test_target_range_checked(self):
        inputs, targets = toy_data(n=16)
        targets[0, 0] = 7
        with pytest.raises(ValueError, match="out of range"):
            train_mdnn(inputs, targets, [2, 2], TOY_KEYS, MdnnConfig(epochs=1), seed=0)

    def test_head_order_matches_grid_order(self):
        grid = GranularityGrid((3, 5), (2, 4))
        sizes = [g.n for g in grid.levels()]
        model = init_mdnn(10, sizes, grid.levels(), MdnnConfig(hidden=(8,), bottleneck=4))
        assert model.head_sizes == [2, 4, 2, 4]
        assert model.head_keys == grid.levels()


class TestGradientCheck:
    def test_fresh_model_small_error(self):
        rng = np.random.default_rng(3)
        inputs = rng.normal(size=(12, 10))
        targets = rng.integers(0, 3, size=(12, 2))
        model = init_mdnn(10, [3, 3], TOY_KEYS, MdnnConfig(hidden=(16, 8), bottleneck=5), seed=4)
        assert gradient_check(model, inputs, targets, n_params=400) < 1e-4

    def test_zero_weight_model_bias_gradients(self):
        inputs, targets = toy_data(n=20)
        model = init_mdnn(4, [2, 2], TOY_KEYS, MdnnConfig(hidden=(6,), bottleneck=3), seed=0)
        for p in model.layer_weights + model.head_weights:
            p[:] = 0.0
        assert gradient_check(model, inputs, targets, n_params=500) < 1e-4

    def test_repeatable(self):
        rng = np.random.default_rng(5)
        inputs = rng.normal(size=(8, 6))
        targets = rng.integers(0, 2, size=(8, 2))
        model = init_mdnn(6, [2, 2], TOY_KEYS, MdnnConfig(hidden=(5,), bottleneck=3), seed=1)
        a = gradient_check(model, inputs, targets, n_params=100, seed=2)
        b = gradient_check(model, inputs, targets, n_params=100, seed=2)
        assert a == b


class TestExtractBnf:
    def test_default_width(self):
        model = init_mdnn(20, [2], [Granularity(3, 2)], MdnnConfig(hidden=(8,), bottleneck=39))
        seq = FeatureSequence(np.random.default_rng(0).normal(size=(5, 20)))
        assert extract_bnf(model, seq.frames).shape[1] == 39

    def test_wide_bottleneck(self):
        model = init_mdnn(20, [2], [Granularity(3, 2)], MdnnConfig(hidden=(8,), bottleneck=64))
        out = extract_bnf(model, np.zeros((4, 20)))
        assert out.shape[1] == 64

    def test_deterministic_on_identical_inputs(self):
        model = init_mdnn(6, [2], [Granularity(3, 2)], MdnnConfig(hidden=(8,), bottleneck=4))
        frames = np.random.default_rng(1).normal(size=(7, 6))
        a = extract_bnf(model, frames)
        b = extract_bnf(model, frames.copy())
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        model = init_mdnn(6, [2], [Granularity(3, 2)], MdnnConfig(hidden=(8,), bottleneck=4))
        with pytest.raises(ValueError, match="input dim"):
            extract_bnf(model, np.zeros((3, 5)))


class TestIterationInput:
    def test_mfcc_bnf_stats_dimension(self):
        out = make_iteration_input(
            np.zeros((10, 351)), np.zeros((10, 351)), utterance_vector=np.zeros(78)
        )
        assert out.shape == (10, 780)

    def test_three_block_layout_width(self):
        out = make_iteration_input(
            np.zeros((10, 351)),
            np.zeros((10, 351)),
            extra_blocks=(np.zeros((10, 351)),),
            utterance_vector=np.zeros(400),
        )
        assert out.shape == (10, 1453)

    def test_identity_without_extras(self):
        ctx = np.random.default_rng(2).normal(size=(6, 12))
        assert np.array_equal(make_iteration_input(ctx), ctx)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="frame count mismatch"):
            make_iteration_input(np.zeros((5, 4)), np.zeros((6, 4)))


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        inputs, targets = toy_data(n=32)
        cfg = MdnnConfig(hidden=(8, 6), bottleneck=4, epochs=2, batch_size=16)
        model, _ = train_mdnn(inputs, targets, [2, 2], TOY_KEYS, cfg, seed=3)
        (tmp_path / "m.matn").write_bytes(matn_bytes(model))
        back = read_matn(tmp_path / "m.matn")
        assert back.seed == model.seed
        assert back.head_keys == model.head_keys
        for p, q in zip(model.parameters(), back.parameters()):
            assert np.array_equal(p, q)
        assert mdnn_loss(back, inputs, targets) == mdnn_loss(model, inputs, targets)
