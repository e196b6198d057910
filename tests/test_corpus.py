import wave

import numpy as np
import pytest
from scipy.fft import dct

from acoustok.corpus import (
    AudioError,
    Corpus,
    FeatureConfig,
    FeatureSequence,
    SynthSpec,
    Waveform,
    _dct_matrix,
    apply_cmvn,
    context_rows,
    extract_features,
    load_audio,
    load_corpus,
    matf_bytes,
    read_matf,
    save_corpus,
    synthesize_corpus,
    utterance_stats,
)


def save_audio(path, waveform: Waveform):
    """Write a waveform as PCM 16-bit mono WAV."""
    pcm = np.clip(np.round(waveform.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(waveform.sample_rate)
        w.writeframes(pcm.tobytes())


def make_tone(seconds=1.0, sr=16000, freq=440.0, amp=0.5):
    t = np.arange(int(seconds * sr)) / sr
    return Waveform(amp * np.sin(2 * np.pi * freq * t), sr, "tone")


class TestLoadAudio:
    def test_one_second_16k(self, tmp_path):
        save_audio(tmp_path / "a.wav", make_tone())
        w = load_audio(tmp_path / "a.wav")
        assert len(w.samples) == 16000
        assert w.sample_rate == 16000
        assert np.max(np.abs(w.samples)) <= 1.0

    def test_stereo_rejected(self, tmp_path):
        with wave.open(str(tmp_path / "st.wav"), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(16000)
            f.writeframes(b"\x00\x00" * 200)
        with pytest.raises(AudioError, match="unsupported encoding"):
            load_audio(tmp_path / "st.wav")

    def test_all_zero_pcm(self, tmp_path):
        save_audio(tmp_path / "z.wav", Waveform(np.zeros(800), 16000, "z"))
        w = load_audio(tmp_path / "z.wav")
        assert np.all(w.samples == 0.0)

    def test_garbage_file(self, tmp_path):
        (tmp_path / "bad.wav").write_bytes(b"not a wav at all")
        with pytest.raises(AudioError):
            load_audio(tmp_path / "bad.wav")


class TestExtractFeatures:
    def test_frame_count_one_second(self):
        # floor((16000 - 400) / 160) + 1
        feats = extract_features(make_tone())
        assert feats.frames.shape == (98, 39)

    def test_constant_signal_zero_deltas(self):
        w = Waveform(np.full(8000, 0.25), 16000, "const")
        feats = extract_features(w)
        assert np.max(np.abs(feats.frames[:, 13:])) < 1e-9

    def test_default_dim_is_39(self):
        assert extract_features(make_tone(0.2)).dim == 39

    def test_deterministic(self):
        a = extract_features(make_tone())
        b = extract_features(make_tone())
        assert np.array_equal(a.frames, b.frames)

    def test_too_short(self):
        with pytest.raises(AudioError, match="shorter than one window"):
            extract_features(Waveform(np.zeros(100), 16000, "short"))

    @pytest.mark.parametrize("setting", ["window", "shift"])
    def test_setting_shorter_than_one_sample(self, setting):
        cfg = FeatureConfig(**{setting: 1e-5})
        with pytest.raises(AudioError, match=rf"tone: {setting} = 1e-05 s is 0 samples "
                                             r"at 16000 Hz"):
            extract_features(make_tone(), cfg)

    def test_dct_within_rounding_of_scipy(self):
        # the cosine matrix rounds differently from scipy's FFT: at most one
        # unit roundoff per summed value, relative to a frame's largest
        # coefficient; measured at most 9.0e-16 (2.2e-14 absolute) here
        frames = np.random.default_rng(5).uniform(-23.0, 10.0, size=(2000, 26))
        ours = frames @ _dct_matrix(13, 26).T
        scipys = dct(frames, type=2, norm="ortho", axis=1)[:, :13]
        tolerance = 26 * np.finfo(float).eps * np.abs(scipys).max(axis=1, keepdims=True)
        assert np.all(np.abs(ours - scipys) <= tolerance)


class TestCmvn:
    def test_column_means_zeroed(self):
        rng = np.random.default_rng(0)
        seq = FeatureSequence(rng.normal(3.0, 2.0, size=(50, 7)))
        out = apply_cmvn(seq)
        assert np.max(np.abs(out.frames.mean(axis=0))) < 1e-9
        assert np.max(np.abs(out.frames.var(axis=0) - 1.0)) < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        seq = FeatureSequence(rng.normal(size=(40, 5)))
        once = apply_cmvn(seq)
        twice = apply_cmvn(once)
        assert np.max(np.abs(once.frames - twice.frames)) < 1e-9

    def test_constant_column_floored(self):
        frames = np.ones((30, 3))
        frames[:, 1] = np.arange(30)
        out = apply_cmvn(FeatureSequence(frames))
        assert np.all(out.frames[:, 0] == 0.0)
        assert np.all(out.frames[:, 2] == 0.0)


def one_utterance(frames) -> Corpus:
    return Corpus([FeatureSequence(frames, utterance_id="u")])


class TestContextRows:
    def test_width(self):
        assert context_rows(one_utterance(np.zeros((10, 39))), 4).shape == (10, 351)

    def test_single_frame_replication(self):
        frame = np.arange(39, dtype=float)
        ctx = context_rows(one_utterance(frame[None, :]), 4)
        assert ctx.shape == (1, 351)
        assert np.array_equal(ctx[0], np.tile(frame, 9))

    def test_radius_zero_identity(self):
        rng = np.random.default_rng(2)
        frames = rng.normal(size=(8, 4))
        assert np.array_equal(context_rows(one_utterance(frames), 0), frames)

    def test_blocks_are_clamped_source_rows(self):
        rng = np.random.default_rng(3)
        frames = rng.normal(size=(6, 3))
        r = 2
        ctx = context_rows(one_utterance(frames), r)
        for t in range(6):
            for bi, k in enumerate(range(-r, r + 1)):
                src = min(max(t + k, 0), 5)
                assert np.array_equal(ctx[t, bi * 3 : (bi + 1) * 3], frames[src])

    @pytest.mark.parametrize("length", [1, 2, 3, 7])
    def test_mid_corpus_utterance_replicates_its_own_edges(self, length):
        """An utterance between two others, some shorter than the radius,
        gets the rows it gets alone: no neighbour's frame enters its context."""
        rng = np.random.default_rng(length)
        seqs = [FeatureSequence(rng.normal(size=(n, 3)), utterance_id=u)
                for u, n in (("a", 5), ("mid", length), ("z", 4))]
        r = 3
        corpus = Corpus(seqs)
        ctx = context_rows(corpus, r)[corpus.offsets[1]:corpus.offsets[2]]
        assert np.array_equal(ctx, context_rows(Corpus([seqs[1]]), r))
        own = {row.tobytes() for row in seqs[1].frames}
        assert all(block.tobytes() in own for block in ctx.reshape(-1, 3))

    def test_rows_follow_id_order(self):
        rng = np.random.default_rng(4)
        seqs = [FeatureSequence(rng.normal(size=(n, 2)), utterance_id=u)
                for u, n in (("b", 3), ("a", 2))]
        corpus = Corpus(seqs)
        ctx = context_rows(corpus, 1)
        assert np.array_equal(ctx, np.vstack([context_rows(Corpus([s]), 1)
                                              for s in seqs[::-1]]))


class TestUtteranceStats:
    def test_length(self):
        seq = FeatureSequence(np.random.default_rng(0).normal(size=(20, 39)))
        assert utterance_stats(seq).shape == (78,)

    def test_constant_std_zero(self):
        seq = FeatureSequence(np.full((10, 4), 2.5))
        stats = utterance_stats(seq)
        assert np.array_equal(stats[:4], np.full(4, 2.5))
        assert np.array_equal(stats[4:], np.zeros(4))

    def test_identical_inputs(self):
        frames = np.random.default_rng(4).normal(size=(15, 6))
        a = utterance_stats(FeatureSequence(frames, utterance_id="a"))
        b = utterance_stats(FeatureSequence(frames.copy(), utterance_id="b"))
        assert np.array_equal(a, b)


class TestSynthesizeCorpus:
    def test_deterministic(self):
        spec = SynthSpec()
        c1, t1 = synthesize_corpus(spec, seed=7)
        c2, t2 = synthesize_corpus(spec, seed=7)
        for a, b in zip(c1, c2):
            assert np.array_equal(a.frames, b.frames)
        assert t1.spans == t2.spans

    def test_single_token(self):
        spec = SynthSpec(n_tokens=1, n_utterances=3, allow_repeats=True)
        _, truth = synthesize_corpus(spec, seed=0)
        for spans in truth.spans.values():
            assert all(s[0] == 0 for s in spans)

    def test_all_tokens_appear(self):
        spec = SynthSpec(n_tokens=5, n_utterances=20)
        _, truth = synthesize_corpus(spec, seed=1)
        seen = {s[0] for spans in truth.spans.values() for s in spans}
        assert seen == set(range(5))

    def test_spans_tile_utterances(self):
        corpus, truth = synthesize_corpus(SynthSpec(), seed=2)
        for seq in corpus:
            spans = truth.spans[seq.utterance_id]
            assert spans[0][1] == 0
            assert spans[-1][2] == seq.n_frames
            for prev, cur in zip(spans, spans[1:]):
                assert prev[2] == cur[1]

    def test_invalid_spec(self):
        with pytest.raises(ValueError, match="invalid spec"):
            synthesize_corpus(SynthSpec(n_tokens=0), seed=0)

    def test_explicit_sequences(self):
        spec = SynthSpec(token_sequences={"q": [2, 0, 3]})
        _, truth = synthesize_corpus(spec, seed=3)
        assert [s[0] for s in truth.spans["q"]] == [2, 0, 3]


class TestCorpusLookup:
    def test_unknown_id_raises_key_error(self):
        corpus = Corpus([FeatureSequence(np.zeros((2, 3)), utterance_id=u) for u in ("b", "a")])
        with pytest.raises(KeyError) as err:
            corpus["missing"]
        assert err.value.args == ("missing",)

    def test_duplicate_ids_rejected(self):
        seqs = [FeatureSequence(np.zeros((2, 3)), utterance_id="a") for _ in range(2)]
        with pytest.raises(ValueError, match="duplicate utterance ids"):
            Corpus(seqs)

    def test_mixed_feature_dimensions_rejected_naming_the_utterance(self):
        seqs = [FeatureSequence(np.zeros((4, d)), utterance_id=u)
                for u, d in (("a", 3), ("b", 3), ("c", 2))]
        with pytest.raises(ValueError,
                           match="^utterance c has 2-dimensional features, a has 3$"):
            Corpus(seqs)

    def test_utterances_are_views_of_the_frame_matrix_in_id_order(self):
        rng = np.random.default_rng(9)
        seqs = [FeatureSequence(rng.normal(size=(T, 3)), utterance_id=u)
                for u, T in (("b", 4), ("a", 1), ("c", 6))]
        corpus = Corpus(seqs)
        assert corpus.frames.shape == (11, 3)
        assert corpus.ids() == ["a", "b", "c"]
        assert corpus.offsets.tolist() == [0, 1, 5, 11]
        given = {seq.utterance_id: seq for seq in seqs}
        for i, utt in enumerate(corpus.ids()):
            view = corpus[utt].frames
            assert np.shares_memory(view, corpus.frames)
            rows = corpus.frames[corpus.offsets[i]:corpus.offsets[i + 1]]
            assert view.__array_interface__["data"] == rows.__array_interface__["data"]
            assert np.array_equal(view, given[utt].frames)

    def test_the_order_utterances_are_given_in_changes_nothing(self):
        rng = np.random.default_rng(10)
        seqs = [FeatureSequence(rng.normal(size=(T, 3)), utterance_id=u)
                for u, T in (("c", 2), ("a", 5), ("d", 1), ("b", 3))]
        forward, backward = Corpus(seqs), Corpus(seqs[::-1])
        assert forward.ids() == backward.ids() == ["a", "b", "c", "d"]
        assert np.array_equal(forward.offsets, backward.offsets)
        assert np.array_equal(forward.frames, backward.frames)

    def test_views_are_built_without_checking_the_frames_again(self, monkeypatch):
        seqs = [FeatureSequence(np.full((T, 2), float(T)), frame_shift=0.02, utterance_id=u)
                for u, T in (("b", 3), ("a", 5))]
        checked = []
        real = FeatureSequence.__post_init__

        def counting(seq):
            checked.append(seq.utterance_id)
            real(seq)

        monkeypatch.setattr(FeatureSequence, "__post_init__", counting)
        corpus = Corpus(seqs)
        assert checked == []
        for seq in seqs:
            view = corpus[seq.utterance_id]
            assert view is not seq and np.shares_memory(view.frames, corpus.frames)
            assert (view.frame_shift, view.frame_length) == (0.02, seq.frame_length)
            assert np.array_equal(view.frames, seq.frames)
            # the caller's sequences are left as they were, not views
            assert not np.shares_memory(seq.frames, corpus.frames)


class TestFeatureFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        seq = FeatureSequence(rng.normal(size=(12, 7)).astype(np.float32), utterance_id="u")
        first = matf_bytes(seq)
        (tmp_path / "u.matf").write_bytes(first)
        back = read_matf(tmp_path / "u.matf")
        assert np.array_equal(back.frames, seq.frames)
        assert matf_bytes(back) == first

    def test_bad_magic(self, tmp_path):
        (tmp_path / "x.matf").write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="bad magic"):
            read_matf(tmp_path / "x.matf")

    def test_corpus_roundtrip(self, tmp_path):
        corpus, _ = synthesize_corpus(SynthSpec(n_utterances=4), seed=6)
        save_corpus(tmp_path / "c", corpus)
        back = load_corpus(tmp_path / "c")
        assert back.ids() == corpus.ids()
        assert back.speakers == corpus.speakers
        for a, b in zip(corpus, back):
            assert np.array_equal(a.frames.astype(np.float32), b.frames.astype(np.float32))
