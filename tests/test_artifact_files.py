"""Artifact readers on damaged input: a truncated or over-long binary file, a
truncated JSONL or rankings file, and a malformed text row must each fail with
a ValueError that names the file."""

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
    read_ground_truth,
    read_matf,
    save_corpus,
    synthesize_corpus,
)
from acoustok.evalviz import grid_csv, read_grid
from acoustok.labels import labels_to_jsonl, read_labels_jsonl
from acoustok.manifest import Manifest
from acoustok.mdnn import MdnnConfig, init_mdnn, matn_bytes, read_matn
from acoustok.reinforce import ReinforceConfig, lda_fit, matl_bytes, read_matl
from acoustok.retrieval import RankedList, rankings_tsv, read_rankings_tsv, read_relevance_csv
from acoustok.tokenizer import GaussState, Granularity, LevelModel, TokenHmm, matm_bytes, read_matm


def tiny_matf() -> bytes:
    return matf_bytes(FeatureSequence(np.arange(6.0).reshape(3, 2), utterance_id="u"))


def tiny_matm() -> bytes:
    two = GaussState(np.array([0.4, 0.6]), np.zeros((2, 2)), np.ones((2, 2)))
    hmms = [
        TokenHmm(k, [GaussState.single(np.full(2, k), np.ones(2)), two],
                 np.array([[0.5, 0.5], [0.5, 0.5]]))
        for k in range(2)
    ]
    return matm_bytes(LevelModel(Granularity(2, 2), hmms, np.array([0.5, 0.5])))


def tiny_matl() -> bytes:
    return matl_bytes(lda_fit([[0, 1], [2]], 2, 3, ReinforceConfig(lda_iters=2), seed=1))


def tiny_matn() -> bytes:
    cfg = MdnnConfig(hidden=(3,), bottleneck=2)
    return matn_bytes(init_mdnn(2, [2], [Granularity(2, 2)], cfg, seed=1))


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
    manifest.record("synth", {"truth.jsonl": "ab"}, {}, "cfg", 0.25)
    manifest.record("iter1/init", {"iter1/init/labels_n4.jsonl": "cd"},
                    {"features/corpus.jsonl": "ef"}, "cfg", 0.5)
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
      '{"utt": "u", "token": "x", "start": 4, "end": 9}'], "line 2: invalid literal"),
    (['{"utt": "u", "token": 0, "start": null, "end": 4}'], "line 1: "),
])
def test_malformed_labels_name_the_file(tmp_path, name, read, lines, match):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ValueError, match=match) as excinfo:
        read(path)
    assert str(excinfo.value).startswith(f"{path}: ")


@pytest.mark.parametrize("row, line", [("3,x,0.5", 3), ("3", 3), ("summary,0.5,x,1.0,0.0", 4)])
def test_malformed_grid_names_the_file_and_line(tmp_path, row, line):
    lines = grid_csv({(3, 4): 0.25, (5, 4): 0.75}).splitlines()
    lines.insert(line - 1, row)
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line {line}: ") as excinfo:
        read_grid(path)
    assert str(excinfo.value).startswith(f"{path}: ")


@pytest.mark.parametrize("lines, line", [
    ([], 1),                                               # empty file
    (["x,y", "3,4,0.25", "summary,0.25,0.0,0.25,0.25"], 1),  # wrong header
    (["m,n,value", "3,4,0.25", "5,4,0.75"], 4),            # cut before the summary row
])
def test_grid_header_and_summary_name_the_file_and_line(tmp_path, lines, line):
    path = tmp_path / "grid.csv"
    path.write_text("".join(row + "\n" for row in lines))
    with pytest.raises(ValueError, match=f"line {line}: ") as excinfo:
        read_grid(path)
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
