"""Artifact readers on damaged input: a truncated or over-long binary file, a
truncated JSONL or rankings file, and a malformed text row must each fail with
a ValueError that names the file."""

import json
import struct

import numpy as np
import pytest

from acoustok.corpus import (
    Corpus,
    FeatureSequence,
    SynthSpec,
    corpus_files,
    ground_truth_jsonl,
    load_corpus,
    matf_bytes,
    read_corpus_index,
    read_ground_truth,
    read_matf,
    save_corpus,
    synthesize_corpus,
)
from acoustok.labels import labels_to_jsonl, read_labels_jsonl
from acoustok.manifest import Manifest
from acoustok.mdnn import MdnnConfig, MdnnModel, init_mdnn, matn_bytes, read_matn
from acoustok.reinforce import ReinforceConfig, lda_fit, matl_bytes, read_matl
from acoustok.retrieval import RankedList, rankings_tsv, read_rankings_tsv, read_relevance_csv
from acoustok.tokenizer import GaussState, Granularity, LevelModel, TokenHmm, matm_bytes, read_matm


def tiny_matf() -> bytes:
    return matf_bytes(FeatureSequence(np.arange(6.0).reshape(3, 2), utterance_id="u"))


def tiny_level() -> LevelModel:
    hmms = [
        TokenHmm(k, [GaussState(np.ones(1), np.full((1, 2), k), np.ones((1, 2))),
                     GaussState(np.array([0.4, 0.6]), np.zeros((2, 2)), np.ones((2, 2)))],
                 np.array([[0.5, 0.5], [0.5, 0.5]]))
        for k in range(2)
    ]
    return LevelModel(Granularity(2, 2), hmms, np.array([0.5, 0.5]))


def tiny_matm() -> bytes:
    return matm_bytes(tiny_level())


def tiny_matl() -> bytes:
    return matl_bytes(lda_fit([[0, 1], [2]], 2, 3, ReinforceConfig(lda_iters=2), seed=1))


def tiny_matn() -> bytes:
    cfg = MdnnConfig(hidden=(3,), bottleneck=2)
    return matn_bytes(init_mdnn(2, [Granularity(2, 2)], cfg, seed=1))


FORMATS = [
    ("matf", tiny_matf, read_matf),
    ("matm", tiny_matm, read_matm),
    ("matl", tiny_matl, read_matl),
    ("matn", tiny_matn, read_matn),
]
BINARY_FORMATS = pytest.mark.parametrize("suffix, make, read", FORMATS)
VERSIONED_FORMATS = pytest.mark.parametrize("suffix, make, read", FORMATS[1:])


@BINARY_FORMATS
def test_truncation_names_the_file(tmp_path, suffix, make, read):
    data = make()
    path = tmp_path / f"tiny.{suffix}"
    path.write_bytes(data)
    read(path)  # the whole file reads back
    for offset in range(len(data)):
        path.write_bytes(data[:offset])
        with pytest.raises(ValueError) as excinfo:
            read(path)
        assert str(path) in str(excinfo.value), (offset, str(excinfo.value))


@BINARY_FORMATS
def test_trailing_bytes_name_the_file(tmp_path, suffix, make, read):
    data = make()
    path = tmp_path / f"tiny.{suffix}"
    for extra in (b"\x00", data):  # one appended byte; the file written twice
        path.write_bytes(data + extra)
        with pytest.raises(ValueError, match="trailing bytes") as excinfo:
            read(path)
        assert str(path) in str(excinfo.value)


@BINARY_FORMATS
def test_wrong_magic_names_the_file(tmp_path, suffix, make, read):
    path = tmp_path / f"tiny.{suffix}"
    path.write_bytes(b"XXXX" + make()[4:])
    with pytest.raises(ValueError, match="bad magic") as excinfo:
        read(path)
    assert str(excinfo.value).startswith(f"{path}: ")


@VERSIONED_FORMATS
def test_wrong_version_names_the_file(tmp_path, suffix, make, read):
    data = make()
    path = tmp_path / f"tiny.{suffix}"
    path.write_bytes(data[:4] + struct.pack("<I", 2) + data[8:])
    with pytest.raises(ValueError, match="unsupported version 2") as excinfo:
        read(path)
    assert str(excinfo.value).startswith(f"{path}: ")


def _corpus_dir(directory):
    corpus, _ = synthesize_corpus(SynthSpec(n_utterances=2), seed=4)
    directory = directory / "features"
    directory.mkdir()
    for name, data in corpus_files(corpus).items():
        (directory / name).write_bytes(data)
    return directory / "corpus.jsonl", lambda path: load_corpus(path.parent)


def _labels_file(directory):
    _, truth = synthesize_corpus(SynthSpec(n_utterances=2), seed=4)
    path = directory / "labels.jsonl"
    path.write_text(labels_to_jsonl(truth.label_set()))
    return path, read_labels_jsonl


def _truth_file(directory):
    _, truth = synthesize_corpus(SynthSpec(n_utterances=2), seed=4)
    path = directory / "truth.jsonl"
    path.write_text(ground_truth_jsonl(truth))
    return path, read_ground_truth


def _manifest_file(directory):
    manifest = Manifest(directory)
    manifest.record("synth", {"truth.jsonl": "ab"}, {}, 0.25)
    manifest.record("iter1/init", {"iter1/init/labels_n4.jsonl": "cd"},
                    {"features/corpus.jsonl": "ef"}, 0.5)
    return manifest.path, lambda path: Manifest(path.parent).entries()


def _rankings_file(directory):
    path = directory / "rankings.tsv"
    path.write_text(rankings_tsv([RankedList("q", [("a", 0.25), ("b", 1.5)])]))
    return path, read_rankings_tsv


@pytest.mark.parametrize("make", [_corpus_dir, _labels_file, _truth_file, _manifest_file,
                                  _rankings_file])
def test_truncated_jsonl_names_the_file(tmp_path, make):
    path, read = make(tmp_path)
    text = path.read_text()
    read(path)  # the whole file reads back
    first_line = text.index("\n")
    for cut in (first_line // 2, first_line + 5, len(text) - 3):
        path.write_text(text[:cut])
        with pytest.raises(ValueError) as excinfo:
            read(path)
        assert str(path) in str(excinfo.value), (cut, str(excinfo.value))


def test_corpus_index_cut_at_a_line_boundary(tmp_path):
    path, read = _corpus_dir(tmp_path)
    text = path.read_text()
    path.write_text(text[:text.index("\n") + 1])
    with pytest.raises(ValueError, match="not listed") as excinfo:
        read(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("text, line", [
    ("", 1),                                        # no header
    ("query_id\tdoc_id\trank\tscore\nq\ta\t1\n", 2),  # three fields
    ("query_id\tdoc_id\trank\tscore\nq\ta\tfirst\t0.5\n", 2),
    ("query_id\tdoc_id\trank\tscore\nq\ta\t1\t0.5\nq\tb\t1\t0.7\n", 3),  # rank 1 twice
    ("query_id\tdoc_id\trank\tscore\nq\ta\t1\t0.5\nq\ta\t2\t0.7\n", 3),  # document a twice
    ("query_id\tdoc_id\trank\tscore\nq\ta\t1\t0.5\nq\tb\t5\t0.7\n", 3),  # ranks 1 and 5
    ("query_id\tdoc_id\trank\tscore\nq\ta\t0\t0.5\nq\tb\t1\t0.7\n", 2),  # rank 0
])
def test_malformed_rankings_name_the_file_and_line(tmp_path, text, line):
    path = tmp_path / "rankings.tsv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"line {line}") as excinfo:
        read_rankings_tsv(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("text, line", [
    ("q,a,1\nq,b\n", 2),           # two fields
    ("query_id,doc_id,rel\nq,a,2\n", 2),
])
def test_malformed_relevance_names_the_file_and_line(tmp_path, text, line):
    path = tmp_path / "rel.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"line {line}") as excinfo:
        read_relevance_csv(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("name, read", [("labels.jsonl", read_labels_jsonl),
                                        ("truth.jsonl", read_ground_truth)])
@pytest.mark.parametrize("lines, match", [
    # a gap: the second segment starts one frame after the first ends
    (['{"utt": "u", "token": 0, "start": 0, "end": 4}',
      '{"utt": "u", "token": 1, "start": 5, "end": 9}'], "u: segment starts at 5, expected 4"),
    (['{"utt": "u", "token": 0, "start": 0, "end": 4}',
      '{"utt": "u", "token": "x", "start": 4, "end": 9}'],
     'line 2: token must be an integer, got "x"'),
    (['{"utt": "u", "token": 0, "start": null, "end": 4}'], "line 1: start must be an integer"),
    # numbers and strings that int() would coerce: JSON integers only
    (['{"utt": "u", "token": 0, "start": 0, "end": 3}',
      '{"utt": "u", "token": 1.7, "start": 3, "end": 5}'],
     "line 2: token must be an integer, got 1.7"),
    (['{"utt": "u", "token": 1, "start": 0, "end": 5.9}'],
     "line 1: end must be an integer, got 5.9"),
    (['{"utt": "u", "token": true, "start": 0, "end": 3}'],
     "line 1: token must be an integer, got true"),
    (['{"utt": "u", "token": 0, "start": 0, "end": 3}',
      '{"utt": "u", "token": 1, "start": "3", "end": 5}'],
     'line 2: start must be an integer, got "3"'),
])
def test_malformed_labels_name_the_file(tmp_path, name, read, lines, match):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ValueError, match=match) as excinfo:
        read(path)
    assert str(excinfo.value).startswith(f"{path}: ")


def test_matf_of_another_shape_than_its_record_names_the_file(tmp_path):
    save_corpus(tmp_path, Corpus([FeatureSequence(np.ones((10, 3)), utterance_id="a"),
                                  FeatureSequence(np.ones((4, 3)), utterance_id="b")]))
    load_corpus(tmp_path)  # the corpus as written reads back
    path = tmp_path / "a.matf"
    path.write_bytes(matf_bytes(FeatureSequence(np.ones((6, 2)), utterance_id="a")))
    match = "6 x 2 frames, but line 1 of .* records 10 x 3"
    with pytest.raises(ValueError, match=match) as excinfo:
        load_corpus(tmp_path)
    assert str(excinfo.value).startswith(f"{path}: ")


def test_corpus_index_listing_an_utterance_twice_names_the_file_and_line(tmp_path):
    path, read = _corpus_dir(tmp_path)
    text = path.read_text()
    path.write_text(text + text[:text.index("\n") + 1])  # the first line again, as line 3
    with pytest.raises(ValueError, match="line 3 repeats utterance utt000 of line 1") as excinfo:
        read(path)
    assert str(excinfo.value).startswith(f"{path}: ")


@pytest.mark.parametrize("value", ["10", 0, -1, 4.5, True, None])
@pytest.mark.parametrize("key", ["frames", "dim"])
def test_corpus_index_size_other_than_a_positive_integer_names_the_line(tmp_path, key, value):
    save_corpus(tmp_path, Corpus([FeatureSequence(np.ones((10, 3)), utterance_id="a"),
                                  FeatureSequence(np.ones((4, 3)), utterance_id="b")]))
    index = tmp_path / "corpus.jsonl"
    first, second = index.read_text().splitlines()
    record = json.loads(second)
    record[key] = value
    index.write_text(f"{first}\n{json.dumps(record)}\n")
    with pytest.raises(ValueError) as excinfo:
        read_corpus_index(index)
    assert str(excinfo.value) == (f"{index}: line 2: {key} must be a positive integer, "
                                  f"got {json.dumps(value)}")


UTT = "utt must be a non-empty string with no path separator or NUL, not . or .."
SPEAKER = "speaker must be a non-empty string or null"
SHIFT = "frame_shift must be a positive number"


@pytest.mark.parametrize("key, value, message", [
    ("utt", ["x"], UTT), ("utt", 7, UTT), ("utt", None, UTT), ("utt", "", UTT),
    ("utt", ".", UTT), ("utt", "..", UTT), ("utt", "../a/x", UTT), ("utt", "a\\x", UTT),
    ("utt", "a\0b", UTT),
    ("speaker", ["s"], SPEAKER), ("speaker", "", SPEAKER), ("speaker", 1, SPEAKER),
    ("frame_shift", 0, SHIFT), ("frame_shift", -0.01, SHIFT), ("frame_shift", "0.01", SHIFT),
    ("frame_shift", True, SHIFT), ("frame_shift", None, SHIFT),
])
def test_corpus_index_field_that_names_nothing_names_the_line(tmp_path, key, value, message):
    """An utt must name a file beside the index, a speaker a speaker, and a
    frame_shift a duration; load_corpus stops at the index line."""
    save_corpus(tmp_path, Corpus([FeatureSequence(np.ones((10, 3)), utterance_id="a"),
                                  FeatureSequence(np.ones((4, 3)), utterance_id="b")],
                                 {"a": "s1", "b": "s2"}))
    index = tmp_path / "corpus.jsonl"
    first, second = index.read_text().splitlines()
    record = json.loads(second)
    record[key] = value
    index.write_text(f"{first}\n{json.dumps(record)}\n")
    with pytest.raises(ValueError) as excinfo:
        load_corpus(tmp_path)
    assert str(excinfo.value) == f"{index}: line 2: {message}, got {json.dumps(value)}"


@pytest.mark.parametrize("speakers, message", [
    ({"a": "s1"}, 'line 2: b has speaker null, line 1 has "s1"'),
    ({"b": "s2"}, 'line 2: b has speaker "s2", line 1 has null'),
])
def test_corpus_index_naming_some_speakers_names_the_first_line_that_differs(
        tmp_path, speakers, message):
    save_corpus(tmp_path, Corpus([FeatureSequence(np.ones((10, 3)), utterance_id=u)
                                  for u in ("a", "b", "c")], speakers))
    with pytest.raises(ValueError) as excinfo:
        read_corpus_index(tmp_path / "corpus.jsonl")
    assert str(excinfo.value) == f"{tmp_path / 'corpus.jsonl'}: {message}"


def test_corpus_of_mixed_feature_dimensions_names_the_file_and_line(tmp_path):
    # a Corpus of mixed dimensions cannot be built, so the files are written
    # one by one
    index = []
    for seq in (FeatureSequence(np.ones((10, 3)), utterance_id="a"),
                FeatureSequence(np.ones((4, 2)), utterance_id="b")):
        (tmp_path / f"{seq.utterance_id}.matf").write_bytes(matf_bytes(seq))
        index.append(json.dumps({"utt": seq.utterance_id, "frames": seq.n_frames,
                                 "dim": seq.dim}) + "\n")
    (tmp_path / "corpus.jsonl").write_text("".join(index))
    match = "line 2: b has 2-dimensional features, line 1 has 3$"
    with pytest.raises(ValueError, match=match) as excinfo:
        load_corpus(tmp_path)
    assert str(excinfo.value).startswith(f"{tmp_path / 'corpus.jsonl'}: ")


def _matm_header(m, n, d):
    return b"MATM" + struct.pack("<IIII", 1, m, n, d)


# files whose every field is in place, but a count is 0: a .matm with m = 0 (no
# states, so empty transitions), n = 0 (no tokens, an empty prior) or d = 0
# (means and variances of no values), a .matm whose first state holds 0
# components, and a .matn head of m = 0 or n = 0
ZERO_COUNTS = pytest.mark.parametrize("suffix, make, read, match", [
    ("matm", lambda: _matm_header(0, 1, 2) + struct.pack("<d", 1.0), read_matm,
     "header m = 0, n = 1: both must be >= 1"),
    ("matm", lambda: _matm_header(1, 0, 2), read_matm, "header m = 1, n = 0: both must be >= 1"),
    # one token of one state: a count of 1, a weight, the transitions, the prior
    ("matm", lambda: _matm_header(1, 1, 0) + struct.pack("<I4d", 1, 1.0, 0.5, 0.5, 1.0),
     read_matm, "header d = 0: must be >= 1"),
    # the first state's count (at byte 20) set to 0 and its one component's
    # weight, means and variances (40 bytes) dropped
    ("matm", lambda: tiny_matm()[:20] + struct.pack("<I", 0) + tiny_matm()[64:], read_matm,
     "token 0 state 0: component count 0, must be >= 1"),
    # the head descriptor (m, n, width) sits at byte 36 of the tiny network
    ("matn", lambda: tiny_matn()[:36] + struct.pack("<I", 0) + tiny_matn()[40:], read_matn,
     "head 0: m = 0, n = 2: both must be >= 1"),
    ("matn", lambda: tiny_matn()[:40] + struct.pack("<I", 0) + tiny_matn()[44:], read_matn,
     "head 0: m = 2, n = 0: both must be >= 1"),
], ids=["matm-m", "matm-n", "matm-d", "matm-components", "matn-head-m", "matn-head-n"])


@ZERO_COUNTS
def test_zero_count_names_the_file(tmp_path, suffix, make, read, match):
    path = tmp_path / f"tiny.{suffix}"
    path.write_bytes(make())
    with pytest.raises(ValueError) as excinfo:
        read(path)
    assert str(excinfo.value) == f"{path}: {match}"


def _matn(sizes, head_width, n=2) -> bytes:
    """A network file whose every field is in place: trunk layer sizes, one
    head of n tokens whose weights have head_width columns."""
    weights = [np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    return matn_bytes(MdnnModel(weights, [np.zeros(b) for b in sizes[1:]],
                                [np.zeros((sizes[-1], head_width))], [np.zeros(head_width)],
                                [Granularity(2, n)], seed=1))


# a .matn that reads to the end but describes no working network: a hidden
# layer of width 0 (extract_bnf would return the bias for every frame), and a
# head whose width is not its descriptor's n
INCONSISTENT_MATN = pytest.mark.parametrize("make, match", [
    (lambda: _matn([2, 0, 2], 2), "layer sizes [2, 0, 2]: need at least 2, each >= 1"),
    (lambda: _matn([2, 3, 2], 3), "head 0: width 3 != n = 2"),
], ids=["zero-width-layer", "head-width-not-n"])


@INCONSISTENT_MATN
def test_inconsistent_matn_names_the_file(tmp_path, make, match):
    path = tmp_path / "tiny.matn"
    path.write_bytes(make())
    with pytest.raises(ValueError) as excinfo:
        read_matn(path)
    assert str(excinfo.value) == f"{path}: {match}"


@pytest.mark.parametrize("field, index, value", [
    ("layer weights", 1, np.nan), ("layer biases", 0, np.inf),
    ("head weights", 0, -np.inf), ("head biases", 0, np.nan),
])
def test_non_finite_matn_parameter_names_the_file_and_field(tmp_path, field, index, value):
    model = init_mdnn(2, [Granularity(2, 2)], MdnnConfig(hidden=(3,), bottleneck=2), seed=1)
    arrays = getattr(model, field.replace(" ", "_"))
    arrays[index].flat[-1] = value
    path = tmp_path / "tiny.matn"
    path.write_bytes(matn_bytes(model))
    with pytest.raises(ValueError) as excinfo:
        read_matn(path)
    assert str(excinfo.value) == f"{path}: {field} {index}: value {value} is not finite"


def test_repeated_relevance_pair_names_both_lines(tmp_path):
    # the bits disagree, so the table would depend on row order; a repeat that
    # agrees is refused all the same
    path = tmp_path / "rel.csv"
    for text, message in (
        ("q,a,1\nq,a,0\nq,b,1\n", "line 2: query q repeats document a of line 1"),
        ("query_id,doc_id,rel\nq,a,1\nr,a,1\nq,a,1\n",
         "line 4: query q repeats document a of line 2"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError) as excinfo:
            read_relevance_csv(path)
        assert str(excinfo.value) == f"{path}: {message}"
    path.write_text("q,a,1\nr,a,0\nq,b,1\n")  # one document under two queries
    assert read_relevance_csv(path) == {"q": {"a": 1, "b": 1}, "r": {"a": 0}}


# the tiny model's (2, 3) topic-word counts start at byte 44, after the magic
# and the header, and its (2, 2) document-topic counts at byte 92
@pytest.mark.parametrize("offset, field", [(44, "topic-word counts"),
                                           (92 + 24, "document-topic counts")],
                         ids=["topic-word", "document-topic"])
@pytest.mark.parametrize("value", [-1.0, -0.5, float("nan"), float("inf")])
def test_bad_matl_count_names_the_file_and_field(tmp_path, offset, field, value):
    data = tiny_matl()
    assert len(data) == 92 + 4 * 8
    path = tmp_path / "tiny.matl"
    path.write_bytes(data[:offset] + struct.pack("<d", value) + data[offset + 8:])
    with pytest.raises(ValueError) as excinfo:
        read_matl(path)
    assert str(excinfo.value) == f"{path}: {field}: count {value} is negative or not finite"


def _set_weight(model, value):
    model.hmms[1].states[1].weights[1] = value


def _set_mean(model, value):
    model.hmms[1].states[1].means[1, 0] = value


def _set_variance(model, value):
    model.hmms[1].states[1].variances[0, 1] = value


def _set_transition(model, value):
    model.hmms[1].transitions[1, 0] = value


def _set_prior(model, value):
    model.prior[1] = value


# one value of token 1 (state 1) that no model can hold, and the message
@pytest.mark.parametrize("change, values, message", [
    (_set_weight, [float("nan"), -0.5, float("inf")],
     "token 1 state 1: weight {} is negative or not finite"),
    (_set_mean, [float("nan"), float("inf"), -float("inf")], "token 1 state 1: mean {} is not finite"),
    (_set_variance, [-1.0, 0.0, float("nan"), float("inf")],
     "token 1 state 1: variance {} is not finite or not > 0"),
    (_set_transition, [1.5, -0.5, float("nan")], "token 1 state 1: transition {} is outside [0, 1]"),
    (_set_prior, [-0.1, float("nan"), float("inf")],
     "token 1: prior {} is negative or not finite"),
], ids=["weight", "mean", "variance", "transition", "prior"])
def test_matm_value_no_model_holds_names_the_file_token_state_and_field(tmp_path, change,
                                                                          values, message):
    path = tmp_path / "tiny.matm"
    for value in values:
        model = tiny_level()
        change(model, value)
        path.write_bytes(matm_bytes(model))
        with pytest.raises(ValueError) as excinfo:
            read_matm(path)
        assert str(excinfo.value) == f"{path}: {message.format(value)}"
