import configparser
import importlib.util
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from test_corpus import save_audio

from acoustok import initialization, pipeline
from acoustok.cli import main
from acoustok.config import _SCHEMA, SETTINGS, PipelineConfig, dump_config, load_config
from acoustok.corpus import (
    Corpus, FeatureSequence, Waveform, load_corpus, matf_bytes, read_matf, save_corpus,
)
from acoustok.manifest import Manifest, StageWriter, atomic_write_text, file_sha256
from acoustok.mdnn import read_matn
from acoustok.pipeline import stage_seed
from acoustok.reinforce import read_matl
from acoustok.retrieval import read_rankings_tsv


TINY_CONFIG = """
[run]
seed = 3
iterations = 1
mr_rounds = 1

[grid]
temporal = 3
phonetic = 4 6

[synth]
n_tokens = 4
dim = 6
n_utterances = 8
tokens_per_utterance = 3 5

[init]
min_segment_frames = 4

[tokenizer]
em_iters = 3
outer_iters = 2

[reinforce]
lda_iters = 30

[mdnn]
context_radius = 2
hidden = 16
bottleneck = 8
epochs = 2
batch_size = 64

[retrieval]
queries = utt000
"""


# every option of every section, each set to a value other than its default
EVERY_OPTION_CONFIG = """
[run]
out = runs/every
seed = 7
iterations = 3
mr_rounds = 2
audio_dir = wavs
relevance = rel.csv

[features]
window = 0.03
shift = 0.015
n_ceps = 12
n_filters = 24
preemphasis = 0.95
delta_window = 3
cmvn = false

[grid]
temporal = 2 4
phonetic = 6 8 10

[init]
alpha = 0.5
min_segment_frames = 6
min_subword_frames = 4
side_frames = 3
dotplot_sigma = 2.0
kmeans_iters = 50

[tokenizer]
em_iters = 4
em_tol = 0.001
outer_iters = 2
lm_scale = 0.5
mixture_schedule = 2 3
var_floor_frac = 0.001
reseed_scale = 0.2

[reinforce]
tau = -0.1
min_gap = 3
overlap = 0.25
lda_iters = 20
lda_beta = 0.1
lda_alpha = 0.5

[mdnn]
context_radius = 3
hidden = 32 16
bottleneck = 8
epochs = 3
batch_size = 32
learning_rate = 0.05
momentum = 0.5

[retrieval]
mode = fusion
queries = utt000 utt001
weights = 0.25 0.75

[synth]
n_tokens = 4
states_per_token = 2
dim = 6
n_utterances = 12
tokens_per_utterance = 3 5
frames_per_state = 3 6
mean_separation = 5.0
emission_std = 0.5
state_drift = 1.0
allow_repeats = true
n_speakers = 3
"""


# the settings each kind of stage reads: [run] keys by key, sections by name
STAGE_SETTINGS = {
    "synth": ("seed", "synth"),
    "features": ("audio_dir", "features"),
    "init": ("seed", "grid", "init"),
    "mat": ("grid", "tokenizer"),
    "mr": ("seed", "grid", "reinforce"),
    "mdnn": ("seed", "mr_rounds", "grid", "mdnn"),
    "extract": ("mr_rounds", "mdnn"),
    "std": ("iterations", "mr_rounds", "grid", "retrieval"),
    "eval": ("iterations", "mr_rounds", "grid", "relevance"),
    "viz": ("iterations", "mr_rounds", "grid"),
}
SEED_FILE = "config/seed.ini"


def _settings(kind) -> set[str]:
    """The settings files a kind of stage records among its inputs."""
    return {f"config/{name}.ini" for name in STAGE_SETTINGS[kind]}


def _stage_kind(key: str) -> str:
    """iter2/mat_mr1 -> mat, iter1/mr1 -> mr, std -> std."""
    return re.sub(r"_mr\d+$|(?<=^mr)\d+$", "", key.rsplit("/", 1)[-1])


def write_tones(path, seed):
    """A 1 s WAV of five 0.2 s tones, each at one of four frequencies."""
    rng = np.random.default_rng(seed)
    t = np.arange(3200) / 16000
    tones = [0.4 * np.sin(2 * np.pi * f * t) for f in rng.choice([300, 700, 1500, 3000], 5)]
    save_audio(path, Waveform(np.concatenate(tones) + rng.normal(0, 0.01, 16000), 16000, "w"))


def _new_stages(out, before: int) -> list[str]:
    return [e["stage"] for e in Manifest(out).entries()[before:]]


def write_config(tmp_path, text=TINY_CONFIG, **overrides):
    path = tmp_path / "config.ini"
    body = text
    for key, value in overrides.items():
        body = re.sub(rf"^{key} = .*$", f"{key} = {value}", body, count=1, flags=re.M)
    path.write_text(body)
    return path


class TestConfig:
    def test_defaults_follow_standard_setup(self):
        cfg = PipelineConfig()
        assert cfg.grid.temporal == (3, 5, 7, 9)
        assert cfg.grid.phonetic == (50, 100, 300, 500)
        assert cfg.mdnn.bottleneck == 39
        assert cfg.mdnn.context_radius == 4

    def test_parse_overrides(self):
        cfg = load_config(text=TINY_CONFIG)
        assert cfg.seed == 3
        assert cfg.grid.levels()[0].m == 3
        assert cfg.grid.phonetic == (4, 6)
        assert cfg.mdnn.hidden == (16,)
        assert cfg.retrieval.queries == ("utt000",)

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config section"):
            load_config(text="[nonsense]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown option"):
            load_config(text="[tokenizer]\nem_iters = 3\nbogus = 1\n")

    @pytest.mark.parametrize("section, line, message", [
        ("tokenizer", "outer_iters = 3 ;2",
         "<string>: [tokenizer] outer_iters: invalid literal for int() with base 10: '3 ;2'"),
        ("tokenizer", "var_floor_frac = 0.0l",
         "<string>: [tokenizer] var_floor_frac: could not convert string to float: '0.0l'"),
        ("grid", "phonetic = 4 six",
         "<string>: [grid] phonetic: invalid literal for int() with base 10: 'six'"),
    ])
    def test_parse_errors_name_the_setting(self, section, line, message):
        with pytest.raises(ValueError) as err:
            load_config(text=f"[{section}]\n{line}\n")
        assert str(err.value) == message

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", [(section, key)
                                              for section, options in _SCHEMA.items()
                                              for key, opt in options.items() if opt.kind is float])
    def test_non_finite_float_setting_names_the_file_and_key(self, tmp_path, section, key, value):
        path = tmp_path / "config.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value) == (f"{path}: [{section}] {key}: "
                                  f"expected a finite number, got {value!r}")

    @pytest.mark.parametrize("section, key", [("features", "context_radius"),
                                              ("retrieval", "relevance")])
    def test_moved_setting_in_its_old_section_names_the_file_and_key(self, tmp_path,
                                                                      section, key):
        path = tmp_path / "old.ini"
        path.write_text(f"[{section}]\n{key} = 2\n")
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: unknown option {key!r} in section [{section}]"

    def test_non_finite_setting_stops_iterate(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_CONFIG.replace("[tokenizer]\n",
                                                          "[tokenizer]\nlm_scale = nan\n"))
        out = tmp_path / "run"
        assert main(["iterate", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"acoustok iterate: {path}: [tokenizer] lm_scale: "
                                           "expected a finite number, got 'nan'\n")
        assert not out.exists()

    def test_write_config_override_replaces_value(self, tmp_path):
        cfg = load_config(write_config(tmp_path, outer_iters=4, phonetic="5 7"))
        assert cfg.tokenizer.outer_iters == 4
        assert cfg.grid.phonetic == (5, 7)

    def test_dump_load_roundtrip_stable_hash(self):
        cfg = load_config(text=TINY_CONFIG)
        again = load_config(text=dump_config(cfg))
        assert dump_config(cfg) == dump_config(again)

    def test_every_option_round_trips(self):
        cfg = load_config(text=EVERY_OPTION_CONFIG)
        default = PipelineConfig()
        sections = [f.name for f in fields(PipelineConfig) if is_dataclass(getattr(cfg, f.name))]
        for obj, ref in [(cfg, default)] + [(getattr(cfg, s), getattr(default, s))
                                            for s in sections]:
            for f in fields(obj):
                if f.name not in sections and f.name != "token_sequences":
                    assert getattr(obj, f.name) != getattr(ref, f.name), f.name
        assert load_config(text=dump_config(cfg)) == cfg

    def test_ini_keys_are_the_dataclass_fields(self):
        parser = configparser.ConfigParser()
        parser.read_string(dump_config(PipelineConfig()))
        keys = {(s, k) for s in parser.sections() for k in parser[s]}
        cfg = PipelineConfig()
        expected = set()
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            if is_dataclass(value):
                expected |= {(f.name, g.name) for g in fields(value)}
            else:
                expected.add(("run", f.name))
        assert keys == expected - {("synth", "token_sequences")}


ROOT = Path(__file__).resolve().parent.parent


def readme_demo_ini() -> str:
    """The demo.ini that README.md's "Running the pipeline" section shows."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Running the pipeline"):]
    return re.search(r"^```ini\n(.*?)^```$", section, re.M | re.S).group(1)


class TestReadmeDemo:
    """README's demo.ini is the bench's demo workload; the two change together."""

    def test_equals_the_bench_demo_workload(self):
        path = ROOT / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        assert readme_demo_ini() == workloads.DEMO_INI.format(seed=11)

    def test_loads(self):
        cfg = load_config(text=readme_demo_ini())
        assert cfg.seed == 11 and cfg.iterations == 2

    def test_setting_names_are_in_the_schema(self):
        """Every `[section]`, `[section] key` and `[section] key = value` in
        README.md names a section of the config schema and a key of it."""
        text = (ROOT / "README.md").read_text()
        named = re.findall(r"`\[([a-z_]+)\](?: (\w+)(?: = [^`]*)?)?`", text)
        assert len({pair for pair in named if pair[1]}) >= 13
        assert [f"[{section}] {key}".strip() for section, key in named
                if section not in _SCHEMA or key and key not in _SCHEMA[section]] == []

    def test_settings_table_equals_the_stage_kinds(self):
        text = (ROOT / "README.md").read_text()
        table = text[text.index("| Stage | Settings it reads |"):].split("\n\n")[0]
        declared = {}
        for row in table.splitlines()[2:]:
            kinds, settings = row.strip("|").split("|")
            for kind in re.findall(r"`(\w+)`", kinds):
                declared[kind] = tuple(re.findall(r"`\[?(\w+)\]?`", settings))
        assert declared == {kind: settings
                            for kind, (_, settings) in pipeline.STAGE_KINDS.items()}


class TestManifest:
    def test_atomic_write_and_hash(self, tmp_path):
        atomic_write_text(tmp_path / "x.txt", "hello\n")
        assert (tmp_path / "x.txt").read_text() == "hello\n"
        digest = file_sha256(tmp_path / "x.txt")
        assert len(digest) == 64

    def test_record_and_find(self, tmp_path):
        m = Manifest(tmp_path)
        m.record("stage_a", {"out.bin": "aa"}, {"in.bin": "bb"}, 0.5)
        m.record("stage_b", {"two.bin": "cc"}, {}, 0.1)
        assert m.find("stage_a")["outputs"] == {"out.bin": "aa"}
        assert set(m.output_hashes()) == {"stage_a", "stage_b"}

    @staticmethod
    def _recorded_stage(root) -> Manifest:
        """Stage "s" of a manifest under root, which read the seed setting and
        in.txt and wrote out.txt."""
        for name in (SEED_FILE, "in.txt", "out.txt"):
            atomic_write_text(root / name, f"{name}\n")
        m = Manifest(root)
        m.record("s", {"out.txt": file_sha256(root / "out.txt")},
                 {key: file_sha256(root / key) for key in (SEED_FILE, "in.txt")}, 0.0)
        return m

    @pytest.mark.parametrize("name", [SEED_FILE, "in.txt", "out.txt"])
    def test_is_complete_requires_matching_files(self, tmp_path, name):
        m = self._recorded_stage(tmp_path)
        assert m.is_complete("s", tmp_path)
        (tmp_path / name).write_text("tampered\n")
        assert not m.is_complete("s", tmp_path)
        (tmp_path / name).write_text(f"{name}\n")
        assert m.is_complete("s", tmp_path)
        (tmp_path / name).unlink()
        assert not m.is_complete("s", tmp_path)

    def test_input_outside_the_run_keyed_by_absolute_path(self, tmp_path, monkeypatch):
        run = tmp_path / "run"
        (tmp_path / "elsewhere").mkdir()
        m = self._recorded_stage(run)
        (tmp_path / "rel.csv").write_text("q,d,1\n")
        monkeypatch.chdir(tmp_path)
        writer = StageWriter("run")
        for path in (Path("run") / SEED_FILE, Path("rel.csv")):
            writer.read(path, "input")
        assert writer.inputs == {SEED_FILE: file_sha256(run / SEED_FILE),
                                 str(tmp_path / "rel.csv"): file_sha256(tmp_path / "rel.csv")}
        m.record("t", {}, writer.inputs, 0.0)
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert m.is_complete("t", run)
        (tmp_path / "rel.csv").write_text("q,d,0\n")
        assert not m.is_complete("t", run)


class TestStages:
    def test_synth_writes_corpus_and_truth(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "features/corpus.jsonl").exists()
        assert (out / "truth.jsonl").exists()
        entries = Manifest(out).entries()
        assert [e["stage"] for e in entries] == ["synth"]

    def test_stage_skipped_when_complete(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        main(["synth", "--config", str(cfg_path), "--out", str(out)])
        main(["synth", "--config", str(cfg_path), "--out", str(out)])
        assert len(Manifest(out).entries()) == 1

    def test_tampered_output_reruns_and_restores(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        main(["synth", "--config", str(cfg_path), "--out", str(out)])
        recorded = Manifest(out).find("synth")["outputs"]["truth.jsonl"]
        (out / "truth.jsonl").write_text("corrupted\n")
        main(["synth", "--config", str(cfg_path), "--out", str(out)])
        assert file_sha256(out / "truth.jsonl") == recorded

    def test_mat_single_level_outputs(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            text=TINY_CONFIG.replace("phonetic = 4 6", "phonetic = 5"),
        )
        out = tmp_path / "run"
        for cmd in ("synth", "init", "mat"):
            assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
        tok = out / "iter1/TOK-1st_MR-0"
        assert (tok / "model_m3_n5.matm").exists()
        assert (tok / "labels_m3_n5.jsonl").exists()
        assert Manifest(out).find("iter1/mat_mr0") is not None

    def test_rewritten_feature_file_changes_recorded_input(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        for cmd in ("synth", "init"):
            assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
        before = Manifest(out).find("iter1/init")["inputs"]
        path = out / "features/utt003.matf"
        seq = read_matf(path)
        path.write_bytes(matf_bytes(FeatureSequence(seq.frames + 1.0, utterance_id="utt003")))
        assert main(["init", "--config", str(cfg_path), "--out", str(out)]) == 0
        after = Manifest(out).find("iter1/init")["inputs"]
        assert read_matf(path).n_frames == seq.n_frames
        assert set(after) == set(before)
        assert {key for key in before if after[key] != before[key]} == {"features/utt003.matf"}

    @pytest.mark.parametrize("old", ["config_sha", "snapshot"])
    def test_line_without_settings_files_reruns(self, tmp_path, old):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        entry = Manifest(out).find("synth")
        entry["inputs"] = {}
        if old == "config_sha":  # as lines were written before settings were inputs
            entry["config_sha"] = "0" * 64
        else:  # as lines were written while every stage read one whole-config snapshot
            (out / "config.snapshot.ini").write_text(dump_config(load_config(cfg_path)))
            entry["inputs"]["config.snapshot.ini"] = file_sha256(out / "config.snapshot.ini")
        (out / "manifest.jsonl").write_text(json.dumps(entry) + "\n")
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        entries = Manifest(out).entries()
        assert [e["stage"] for e in entries] == ["synth", "synth"]
        assert set(entries[-1]["inputs"]) == _settings("synth")
        assert "config_sha" not in entries[-1]

    def test_init_segments_each_utterance_once(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path)  # phonetic = 4 6: two k-means runs
        out = tmp_path / "run"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        calls = []
        real = initialization.subword_spans

        def spy(seq, cfg=None):
            calls.append(seq.utterance_id)
            return real(seq, cfg)

        monkeypatch.setattr(initialization, "subword_spans", spy)
        assert main(["init", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "iter1/init/labels_n6.jsonl").exists()
        assert sorted(calls) == [f"utt{i:03d}" for i in range(8)]

    def test_iteration_and_round_flags(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        for argv in (["synth"], ["init", "--iteration", "1"],
                     ["mat", "--iteration", "1", "--round", "0"],
                     ["mr", "--iteration", "1", "--round", "1"],
                     ["mat", "--iteration", "1", "--round", "1"]):
            assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == 0
        stages = [e["stage"] for e in Manifest(out).entries()]
        assert stages == ["synth", "iter1/init", "iter1/mat_mr0", "iter1/mr1", "iter1/mat_mr1"]
        assert (out / "iter1/TOK-1st_MR-0/labels_m3_n4.jsonl").exists()
        assert (out / "iter1/TOK-1st_MR-1/labels_m3_n6.jsonl").exists()

    def test_iters_overrides_iterations(self, tmp_path):
        cfg_path = write_config(tmp_path, iterations=2)
        out = tmp_path / "run"
        assert main(["iterate", "--iters", "1", "--config", str(cfg_path), "--out", str(out)]) == 0
        stages = [e["stage"] for e in Manifest(out).entries()]
        assert "iter1/extract" in stages
        assert not [s for s in stages if s.startswith("iter2/")]

    def test_seed_overrides_config(self, tmp_path):
        cfg_path = write_config(tmp_path)  # seed = 3
        out = tmp_path / "run"
        assert main(["synth", "--seed", "5", "--config", str(cfg_path), "--out", str(out)]) == 0
        settings = configparser.ConfigParser()
        settings.read(out / SEED_FILE)
        assert settings["run"]["seed"] == "5"

    def test_settings_files_hold_the_config(self, tmp_path):
        cfg_path = write_config(tmp_path, text=EVERY_OPTION_CONFIG)
        out = tmp_path / "run"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        cfg = replace(load_config(cfg_path), out=str(out))
        assert sorted(p.name for p in (out / "config").iterdir()) == sorted(
            f"{name}.ini" for name in SETTINGS)
        merged = configparser.ConfigParser(strict=False)  # each [run] key has its own header
        for name in SETTINGS:
            text = (out / f"config/{name}.ini").read_text()
            assert text == dump_config(cfg, [name])
            assert load_config(text=text) != PipelineConfig()
            merged.read_string(text)
        buf = io.StringIO()
        merged.write(buf)
        # concatenated, the files are the whole config but [run] out
        assert buf.getvalue() == dump_config(cfg).replace(f"out = {out}\n", "")
        assert replace(load_config(text=buf.getvalue()), out=str(out)) == cfg

    def test_undeclared_setting_fails_loudly(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        real = pipeline._run_stage

        def without_seed(ctx, stage, work):
            settings = tuple(s for s in stage.settings if s != "seed")
            return real(ctx, stage._replace(settings=settings), work)

        monkeypatch.setattr(pipeline, "_run_stage", without_seed)
        with pytest.raises(AttributeError, match="'seed'"):
            main(["synth", "--config", str(cfg_path), "--out", str(out)])
        assert Manifest(out).entries() == []

    def test_stages_read_exactly_the_settings_they_declare(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, iterations=2)
        out = tmp_path / "run"
        real, read = pipeline._run_stage, {}

        class Watched:
            def __init__(self, cfg, names):
                self._cfg, self._names = cfg, names

            def __getattr__(self, name):
                self._names.add(name)
                return getattr(self._cfg, name)

        def watch(ctx, stage, work):
            def watched(stage_ctx, writer):
                stage_ctx.cfg = Watched(stage_ctx.cfg, read.setdefault(stage.key, set()))
                return work(stage_ctx, writer)
            return real(ctx, stage, watched)

        monkeypatch.setattr(pipeline, "_run_stage", watch)
        for command in ("iterate", "std", "eval", "viz"):
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(read) == 16
        assert read == {key: set(STAGE_SETTINGS[_stage_kind(key)]) for key in read}

    def test_more_iterations_rerun_no_earlier_stage(self, tmp_path):
        cfg_path = write_config(tmp_path, iterations=2)
        out = tmp_path / "run"
        assert main(["iterate", "--iters", "1", "--config", str(cfg_path), "--out", str(out)]) == 0
        before = len(Manifest(out).entries())
        assert main(["iterate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert _new_stages(out, before) == ["iter2/init", "iter2/mat_mr0", "iter2/mr1",
                                            "iter2/mat_mr1", "iter2/mdnn", "iter2/extract"]

    def test_fewer_utterances_leave_no_stale_files(self, tmp_path):
        out = tmp_path / "run"
        for count in (12, 10):
            cfg_path = write_config(tmp_path, n_utterances=count)
            assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "features").glob("*.matf")) == [
            f"utt{i:03d}.matf" for i in range(10)]
        assert main(["iterate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(list((out / "iter1/bnf").glob("*.matf"))) == 10

    def test_changed_wav_reruns_features_and_downstream(self, tmp_path):
        wavs = tmp_path / "wavs"
        wavs.mkdir()
        for i in range(6):
            write_tones(wavs / f"utt{i:03d}.wav", i)
        cfg_path = write_config(tmp_path, TINY_CONFIG.replace(
            "mr_rounds = 1", f"mr_rounds = 1\naudio_dir = {wavs}"))
        out = tmp_path / "run"
        argv = ["iterate", "--config", str(cfg_path), "--out", str(out)]
        assert main(argv) == 0
        stages = _new_stages(out, 0)
        assert stages[0] == "features" and "synth" not in stages
        write_tones(wavs / "utt002.wav", 99)
        assert main(argv) == 0
        assert _new_stages(out, len(stages)) == stages
        assert main(argv) == 0
        assert _new_stages(out, 2 * len(stages)) == []

    def test_added_or_removed_wav_reruns_features_and_downstream(self, tmp_path):
        wavs = tmp_path / "wavs"
        wavs.mkdir()
        for i in range(6):
            write_tones(wavs / f"utt{i:03d}.wav", i)
        cfg_path = write_config(tmp_path, TINY_CONFIG.replace(
            "mr_rounds = 1", f"mr_rounds = 1\naudio_dir = {wavs}"))
        out = tmp_path / "run"
        argv = ["iterate", "--config", str(cfg_path), "--out", str(out)]
        assert main(argv) == 0
        stages = _new_stages(out, 0)
        for edit, count in [(lambda: write_tones(wavs / "utt006.wav", 6), 7),
                            (lambda: (wavs / "utt006.wav").unlink(), 6)]:
            before = len(Manifest(out).entries())
            edit()
            assert main(argv) == 0
            assert _new_stages(out, before) == stages
            assert len(list((out / "features").glob("*.matf"))) == count
        (wavs / "notes.txt").write_text("not audio\n")
        before = len(Manifest(out).entries())
        assert main(argv) == 0
        assert _new_stages(out, before) == []

    def test_switching_the_corpus_source_replaces_the_corpus(self, tmp_path):
        # 8 synthetic utterances, then 6 WAVs, then the 8 synthetic again:
        # each iterate trains on exactly its own corpus, which features/ then
        # holds, as the source alone writes it into a fresh run
        wavs = tmp_path / "wavs"
        wavs.mkdir()
        for i in range(6):
            write_tones(wavs / f"utt{i:03d}.wav", i)
        (tmp_path / "synth").mkdir()
        (tmp_path / "audio").mkdir()
        synth = write_config(tmp_path / "synth")
        audio = write_config(tmp_path / "audio", TINY_CONFIG.replace(
            "mr_rounds = 1", f"mr_rounds = 1\naudio_dir = {wavs}"))
        out = tmp_path / "run"

        def files(root):
            return {p.relative_to(root).as_posix(): p.read_bytes()
                    for p in [*(root / "features").iterdir(), root / "truth.jsonl"] if p.exists()}

        for step, (cfg_path, source) in enumerate([(synth, "synth"), (audio, "features"),
                                                   (synth, "synth")]):
            assert main(["iterate", "--config", str(cfg_path), "--out", str(out)]) == 0
            fresh = tmp_path / f"fresh{step}"
            assert main([source, "--config", str(cfg_path), "--out", str(fresh)]) == 0
            assert files(out) == files(fresh)
            assert len(list((out / "iter1/bnf").glob("*.matf"))) == (6 if step == 1 else 8)

    def test_zero_row_feature_file_is_named(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        path = out / "features/utt005.matf"
        path.write_bytes(b"MATF" + struct.pack("<II", 0, 6))
        assert main(["init", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"acoustok init: {path}: utt005: frames must be a non-empty T x d matrix\n")

    def test_outer_iters_below_one_fails_cleanly(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, outer_iters=0)
        code = main(["iterate", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("acoustok iterate: ") and "outer_iters" in err

    @pytest.mark.parametrize("section, key", [
        ("mdnn", "batch_size"), ("init", "kmeans_iters"), ("init", "side_frames"),
    ])
    def test_setting_below_one_fails_at_load(self, tmp_path, capsys, section, key):
        # TINY_CONFIG leaves the [init] keys at their defaults; spell them out
        text = TINY_CONFIG.replace("[init]\n", "[init]\nkmeans_iters = 100\nside_frames = 5\n")
        cfg_path = write_config(tmp_path, text, **{key: 0})
        out = tmp_path / "run"
        assert main(["iterate", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"acoustok iterate: {cfg_path}: [{section}] {key} must be >= 1, got 0\n"
        assert not out.exists()

    def test_grid_too_fine_for_the_corpus_names_the_counts(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, phonetic="4 400")
        assert main(["iterate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("acoustok iterate: insufficient segments: the bootstrap found ")
        assert err.endswith(" subword segments in 8 utterances, too few for n = 400 clusters; "
                            "lower [grid] phonetic or add utterances\n")

    def test_missing_upstream_fails_with_diagnostic(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        code = main(["mat", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        assert "missing upstream artifact" in capsys.readouterr().err

    def test_bad_config_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[nope]\nx = 1\n")
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "r")]) == 1
        assert "unknown config section" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("seed = 3\n[run]\n", "File contains no section headers."),
        ("[run]\nseed = 3\nseed = 4\n", "option 'seed' in section 'run' already exists"),
        ("[foo]\nx = 1\n", "unknown config section [foo]"),
        ("[run]\nsede = 3\n", "unknown option 'sede' in section [run]"),
    ], ids=["no-section-header", "duplicate-option", "unknown-section", "unknown-option"])
    def test_unparsable_config_names_the_file(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"acoustok synth: {bad}: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key, value, message", [
        ("n_speakers", "0", "[synth] n_speakers must be >= 1, got 0"),
        ("bottleneck", "0", "[mdnn] bottleneck must be >= 1, got 0"),
        ("mode", "bogus", "[retrieval] mode must be token, frame or fusion, got 'bogus'"),
        ("iterations", "0", "[run] iterations must be >= 1, got 0"),
        ("mr_rounds", "-1", "[run] mr_rounds must be >= 0, got -1"),
        ("phonetic", "0 4", "[grid] phonetic granularities must be >= 1, got 0"),
        ("temporal", "0 3", "[grid] temporal granularities must be >= 1, got 0"),
        ("weights", "1 2 3", "[retrieval] weights: expected two values (token, then frame), got 3"),
        ("weights", "1 -1",
         "[retrieval] weights must be non-negative with a positive sum, got [1.0, -1.0]"),
        ("weights", "0 0",
         "[retrieval] weights must be non-negative with a positive sum, got [0.0, 0.0]"),
        ("queries", "utt000 utt001 utt000",
         "[retrieval] queries: utt000 listed more than once"),
        ("lda_iters", "-1", "[reinforce] lda_iters must be >= 0, got -1"),
        ("lda_beta", "0", "[reinforce] lda_beta must be > 0, got 0.0"),
        ("lda_alpha", "-0.5", "[reinforce] lda_alpha must be > 0 when set, got -0.5"),
        ("overlap", "5", "[reinforce] overlap must be in (0, 1], got 5.0"),
        ("overlap", "0", "[reinforce] overlap must be in (0, 1], got 0.0"),
        ("min_gap", "-3", "[reinforce] min_gap must be >= 1, got -3"),
        ("epochs", "0", "[mdnn] epochs must be >= 1, got 0"),
        ("hidden", "16 0", "[mdnn] hidden widths must be >= 1, got [16, 0]"),
        ("em_iters", "-1", "[tokenizer] em_iters must be >= 0, got -1"),
        ("em_tol", "-0.5", "[tokenizer] em_tol must be >= 0, got -0.5"),
        ("var_floor_frac", "0", "[tokenizer] var_floor_frac must be > 0, got 0.0"),
        ("mixture_schedule", "1 3",
         "[tokenizer] mixture_schedule must be strictly increasing EM iterations in [0, 3), "
         "got [1, 3]"),
        ("window", "0", "[features] window must be > 0, got 0.0"),
        ("shift", "0", "[features] shift must be > 0, got 0.0"),
        ("n_ceps", "30", "[features] n_ceps must be >= 1 and <= n_filters (26), got 30"),
        ("n_ceps", "0", "[features] n_ceps must be >= 1 and <= n_filters (26), got 0"),
        ("n_filters", "0", "[features] n_ceps must be >= 1 and <= n_filters (0), got 13"),
        ("delta_window", "0", "[features] delta_window must be >= 1, got 0"),
        ("context_radius", "-1", "[mdnn] context_radius must be >= 0, got -1"),
        ("learning_rate", "-0.1", "[mdnn] learning_rate must be > 0, got -0.1"),
        ("learning_rate", "0", "[mdnn] learning_rate must be > 0, got 0.0"),
        ("momentum", "1.5", "[mdnn] momentum must be in [0, 1), got 1.5"),
        ("momentum", "-1", "[mdnn] momentum must be in [0, 1), got -1.0"),
        ("dotplot_sigma", "-1", "[init] dotplot_sigma must be >= 0, got -1.0"),
    ], ids=["n_speakers", "bottleneck", "mode", "iterations", "mr_rounds", "phonetic",
            "temporal", "weights", "weights-negative", "weights-zero-sum", "queries-repeated",
            "lda_iters",
            "lda_beta", "lda_alpha", "overlap-above-1", "overlap-zero", "min_gap",
            "epochs", "hidden", "em_iters", "em_tol", "var_floor_frac",
            "mixture_schedule", "window", "shift",
            "n_ceps-above-n_filters", "n_ceps-zero", "n_filters", "delta_window",
            "context_radius", "learning_rate-negative", "learning_rate-zero",
            "momentum-above-1", "momentum-negative", "dotplot_sigma"])
    def test_out_of_range_setting_fails_at_load(self, tmp_path, capsys, key, value, message):
        # TINY_CONFIG leaves these keys at their defaults; spell them out
        text = TINY_CONFIG.replace("[synth]\n", "[synth]\nn_speakers = 2\n").replace(
            "queries = utt000", "queries = utt000\nmode = token\nweights = 1 1").replace(
            "lda_iters = 30\n",
            "lda_iters = 30\nlda_beta = 0.01\nlda_alpha = \noverlap = 0.5\nmin_gap = 2\n").replace(
            "em_iters = 3\n",
            "em_iters = 3\nem_tol = 0.0001\nvar_floor_frac = 0.0001\nmixture_schedule = \n").replace(
            "batch_size = 64\n", "batch_size = 64\nlearning_rate = 0.01\nmomentum = 0.9\n").replace(
            "[init]\n", "[features]\nwindow = 0.025\nshift = 0.01\nn_ceps = 13\n"
            "n_filters = 26\ndelta_window = 2\n\n[init]\n").replace(
            "[init]\n", "[init]\ndotplot_sigma = 1.0\nalpha = 1.0\n")
        cfg_path = write_config(tmp_path, text, **{key: value})
        out = tmp_path / "run"
        assert main(["iterate", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"acoustok iterate: {cfg_path}: {message}\n"
        assert not out.exists()


    @pytest.mark.parametrize("argv, message", [
        (["init", "--iteration", "0"], "argument --iteration: must be >= 1, got 0"),
        (["mat", "--round", "-1"], "argument --round: must be >= 0, got -1"),
        (["mr", "--round", "0"], "argument --round: must be >= 1, got 0"),
        (["iterate", "--iters", "0"], "argument --iters: must be >= 1, got 0"),
    ], ids=["init-iteration", "mat-round", "mr-round", "iterate-iters"])
    def test_flag_below_its_minimum_fails_before_any_stage(self, tmp_path, capsys, argv, message):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg_path), "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert not out.exists()


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One complete two-iteration run on the tiny synthetic corpus."""
    tmp_path = tmp_path_factory.mktemp("full")
    cfg_path = tmp_path / "config.ini"
    cfg_path.write_text(TINY_CONFIG.replace("iterations = 1", "iterations = 2"))
    out = tmp_path / "run"
    code = main(["iterate", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    return cfg_path, out


def _per_n(rel_dir):
    return {f"{rel_dir}/labels_n4.jsonl", f"{rel_dir}/labels_n6.jsonl"}


def _per_level(rel_dir, name="labels", ext="jsonl"):
    return {f"{rel_dir}/{name}_m3_n4.{ext}", f"{rel_dir}/{name}_m3_n6.{ext}"}


def _stage_inputs(out) -> dict[str, set[str]]:
    return {e["stage"]: set(e["inputs"]) for e in Manifest(out).entries()}


def _feature_dir(rel_dir):
    """A feature directory as recorded inputs: its index and the .matf of each
    of the tiny corpus's 8 utterances."""
    return {f"{rel_dir}/corpus.jsonl"} | {f"{rel_dir}/utt{i:03d}.matf" for i in range(8)}


FEATURES, BNF1 = _feature_dir("features"), _feature_dir("iter1/bnf")
FINAL_TOK = "iter2/TOK-2nd_MR-1"


class TestIterate:
    def test_stage_inputs(self, full_run):
        _, out = full_run
        recorded = _stage_inputs(out)
        expected = {
            "synth": set(),
            "iter1/init": FEATURES,
            "iter1/mat_mr0": FEATURES | _per_n("iter1/init"),
            "iter1/mr1": {"features/corpus.jsonl"} | _per_level("iter1/TOK-1st_MR-0"),
            "iter1/mat_mr1": FEATURES | _per_n("iter1/mr1"),
            "iter1/mdnn": FEATURES | _per_level("iter1/TOK-1st_MR-1"),
            "iter1/extract": FEATURES | {"iter1/BNF-1st_MR-1.matn"},
            "iter2/init": BNF1,
            "iter2/mat_mr0": BNF1 | _per_n("iter2/init"),
            "iter2/mr1": {"iter1/bnf/corpus.jsonl"} | _per_level("iter2/TOK-2nd_MR-0"),
            "iter2/mat_mr1": BNF1 | _per_n("iter2/mr1"),
            "iter2/mdnn": FEATURES | BNF1 | _per_level(FINAL_TOK),
            "iter2/extract": FEATURES | BNF1 | {"iter2/BNF-2nd_MR-1.matn"},
        }
        assert {stage: recorded[stage] for stage in recorded if stage not in
                ("std", "eval", "viz")} == {stage: _settings(_stage_kind(stage)) | inputs
                                            for stage, inputs in expected.items()}

    def test_stage_sequence(self, full_run):
        _, out = full_run
        stages = [e["stage"] for e in Manifest(out).entries()]
        assert stages == [
            "synth",
            "iter1/init", "iter1/mat_mr0", "iter1/mr1", "iter1/mat_mr1",
            "iter1/mdnn", "iter1/extract",
            "iter2/init", "iter2/mat_mr0", "iter2/mr1", "iter2/mat_mr1",
            "iter2/mdnn", "iter2/extract",
        ]

    def test_plan_lists_the_stages_iterate_runs(self, full_run):
        cfg_path, out = full_run
        manifest = Manifest(out)
        recorded = dict.fromkeys(e["stage"] for e in manifest.entries())
        stages = pipeline.plan(load_config(cfg_path))
        assert [s.key for s in stages] == [k for k in recorded if k not in ("std", "eval", "viz")]
        for s in stages:
            read = {k for k in manifest.find(s.key)["inputs"] if k.startswith("config/")}
            assert read == {f"config/{name}.ini" for name in s.settings}

    def test_artifact_naming(self, full_run):
        _, out = full_run
        assert (out / "iter1/BNF-1st_MR-1.matn").exists()
        assert (out / "iter2/BNF-2nd_MR-1.matn").exists()
        assert (out / "iter1/TOK-1st_MR-1/model_m3_n4.matm").exists()
        assert (out / "iter2/TOK-2nd_MR-0/labels_m3_n6.jsonl").exists()

    def test_second_iteration_consumes_bnf(self, full_run):
        _, out = full_run
        entry = Manifest(out).find("iter2/mat_mr0")
        assert "iter1/bnf/corpus.jsonl" in entry["inputs"]

    def test_network_input_grows_by_context_block(self, full_run):
        _, out = full_run
        m1 = read_matn(out / "iter1/BNF-1st_MR-1.matn")
        m2 = read_matn(out / "iter2/BNF-2nd_MR-1.matn")
        # context radius 2, bottleneck 8: one extra 8 * 5 block in iteration 2
        assert m2.input_dim == m1.input_dim + 8 * 5

    def test_resume_skips_everything(self, full_run):
        cfg_path, out = full_run
        before = len(Manifest(out).entries())
        assert main(["iterate", "--config", str(cfg_path.parent / "config.ini"),
                     "--out", str(out)]) == 0
        assert len(Manifest(out).entries()) == before

    def test_moved_run_resumes(self, full_run, tmp_path):
        cfg_path, out = full_run
        run = tmp_path / "moved"
        shutil.copytree(out, run)
        before = len(Manifest(run).entries())
        assert main(["iterate", "--config", str(cfg_path), "--out", str(run)]) == 0
        assert len(Manifest(run).entries()) == before

    def test_std_eval_viz(self, full_run, tmp_path_factory):
        cfg_path, out = full_run
        assert main(["std", "--config", str(cfg_path), "--out", str(out)]) == 0
        rankings = (out / "std/rankings.tsv").read_text().splitlines()
        assert rankings[0] == "query_id\tdoc_id\trank\tscore"
        assert len(rankings) == 1 + 7  # 8 utterances, 1 held out as the query

        # relevance: every document relevant, so MAP is exactly 1
        rel = tmp_path_factory.mktemp("rel") / "rel.csv"
        lines = [f"utt000,utt{i:03d},1" for i in range(1, 8)]
        rel.write_text("\n".join(lines) + "\n")
        patched = cfg_path.read_text().replace(
            "mr_rounds = 1", f"mr_rounds = 1\nrelevance = {rel}"
        )
        cfg2 = cfg_path.parent / "config_rel.ini"
        cfg2.write_text(patched)
        out2 = out  # same artifacts, new eval
        assert main(["eval", "--config", str(cfg2), "--out", str(out2)]) == 0
        text = (out2 / "eval/map.csv").read_text().splitlines()
        assert float(text[1]) == 1.0
        levels = (out2 / "eval/levels.csv").read_text().splitlines()
        assert levels[0].startswith("m,n,boundary_p")
        assert len(levels) == 1 + 2  # two levels in the tiny grid

        assert main(["viz", "--config", str(cfg2), "--out", str(out2)]) == 0
        assert (out2 / "viz/grid_boundary_f.csv").exists()
        assert (out2 / "viz/cooccurrence_m3_n4.pgm").read_bytes().startswith(b"P5\n")
        *rows, summary = (out2 / "viz/grid_boundary_f.csv").read_text().splitlines()[1:]
        values = [float(row.split(",")[2]) for row in rows]
        assert float(summary.split(",")[3]) == max(values)
        maps = sorted((out2 / "viz").glob("speaker_map_*.csv"))
        assert maps
        for path in maps:
            for row in path.read_text().splitlines()[1:]:
                for cell in row.split(",")[1:]:
                    float(cell)

        recorded = _stage_inputs(out2)
        labels = _per_level(FINAL_TOK)
        models = _per_level(FINAL_TOK, "model", "matm")
        assert recorded["std"] == _settings("std") | BNF1 | labels | models
        assert recorded["eval"] == (_settings("eval") | {str(rel), "std/rankings.tsv", "truth.jsonl",
                                                         "features/corpus.jsonl"} | labels)
        assert recorded["viz"] == (_settings("viz") | {"features/corpus.jsonl", "truth.jsonl"}
                                   | labels)

    def test_edited_feature_file_reruns_its_readers(self, full_run, tmp_path):
        cfg_path, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        argv = ["iterate", "--config", str(cfg_path), "--out", str(run)]
        assert main(argv) == 0  # re-runs every stage if the copy holds another snapshot
        before = len(Manifest(run).entries())
        path = run / "features/utt003.matf"
        seq = read_matf(path)
        path.write_bytes(matf_bytes(FeatureSequence(seq.frames + 1.0, utterance_id="utt003")))
        assert main(argv) == 0
        rerun = [e["stage"] for e in Manifest(run).entries()[before:]]
        assert rerun[0] == "iter1/init" and "synth" not in rerun
        after = len(Manifest(run).entries())
        assert main(argv) == 0
        assert len(Manifest(run).entries()) == after

    def test_changed_queries_rerun_only_std(self, full_run, tmp_path):
        cfg_path, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        assert main(["std", "--config", str(cfg_path), "--out", str(run)]) == 0
        queries = tmp_path / "queries.ini"
        queries.write_text(cfg_path.read_text().replace("queries = utt000",
                                                        "queries = utt000 utt003"))
        before = len(Manifest(run).entries())
        for command in ("iterate", "std", "iterate"):
            assert main([command, "--config", str(queries), "--out", str(run)]) == 0
        assert _new_stages(run, before) == ["std"]
        assert {row.split("\t")[0] for row in
                (run / "std/rankings.tsv").read_text().splitlines()[1:]} == {"utt000", "utt003"}

    def test_changed_synth_setting_reruns_every_stage(self, full_run, tmp_path):
        cfg_path, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        changed = tmp_path / "synth.ini"
        changed.write_text(cfg_path.read_text().replace("tokens_per_utterance = 3 5",
                                                        "tokens_per_utterance = 3 4"))
        before = len(Manifest(run).entries())
        assert main(["iterate", "--config", str(changed), "--out", str(run)]) == 0
        assert _new_stages(run, before) == list(dict.fromkeys(
            e["stage"] for e in Manifest(out).entries() if e["stage"] not in ("std", "eval", "viz")))

    def test_front_end_setting_reruns_no_stage_of_a_synthetic_run(self, full_run, tmp_path):
        cfg_path, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        assert main(["iterate", "--config", str(cfg_path), "--out", str(run)]) == 0
        window = tmp_path / "window.ini"
        window.write_text(cfg_path.read_text() + "\n[features]\nwindow = 0.03\n")
        before = len(Manifest(run).entries())
        assert main(["iterate", "--config", str(window), "--out", str(run)]) == 0
        assert "window = 0.03" in (run / "config/features.ini").read_text()
        assert _new_stages(run, before) == []

    def test_changed_weights_rerun_only_std_without_a_relevance_table(self, full_run, tmp_path):
        cfg_path, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        for command in ("std", "eval"):
            assert main([command, "--config", str(cfg_path), "--out", str(run)]) == 0
        weights = tmp_path / "weights.ini"
        weights.write_text(cfg_path.read_text().replace("queries = utt000",
                                                        "queries = utt000\nweights = 1 1"))
        before = len(Manifest(run).entries())
        for command in ("iterate", "std", "eval"):
            assert main([command, "--config", str(weights), "--out", str(run)]) == 0
        assert _new_stages(run, before) == ["std"]

    def test_new_relevance_path_reruns_only_eval(self, full_run, tmp_path):
        cfg_path, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        for command in ("std", "eval"):
            assert main([command, "--config", str(cfg_path), "--out", str(run)]) == 0
        rel = tmp_path / "rel.csv"
        rel.write_text("".join(f"utt000,utt{i:03d},1\n" for i in range(1, 8)))
        cfg = tmp_path / "rel.ini"
        cfg.write_text(cfg_path.read_text().replace(
            "mr_rounds = 1", f"mr_rounds = 1\nrelevance = {rel}"))
        before = len(Manifest(run).entries())
        for command in ("iterate", "std", "eval"):
            assert main([command, "--config", str(cfg), "--out", str(run)]) == 0
        assert _new_stages(run, before) == ["eval"]
        assert (run / "eval/map.csv").read_text() == "map\n1.0\n"

    @pytest.mark.parametrize("command", ["init", "mr", "eval", "viz"])
    @pytest.mark.parametrize("edit", ["repeat", "string", "zero", "fraction"])
    def test_malformed_index_names_its_line_in_every_reader(self, full_run, tmp_path, capsys,
                                                             command, edit):
        cfg_path, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        index = run / "features/corpus.jsonl"
        lines = index.read_text().splitlines(keepends=True)
        first = json.loads(lines[0])
        if edit == "repeat":
            lines.append(lines[0])
            message = f"line {len(lines)} repeats utterance {first['utt']} of line 1"
        else:
            first["frames"] = {"string": str(first["frames"]), "zero": 0, "fraction": 4.5}[edit]
            lines[0] = json.dumps(first) + "\n"
            message = f"line 1: frames must be a positive integer, got {json.dumps(first['frames'])}"
        index.write_text("".join(lines))
        assert main([command, "--config", str(cfg_path), "--out", str(run)]) == 1
        assert capsys.readouterr().err == f"acoustok {command}: {index}: {message}\n"

    def test_index_naming_a_speaker_on_some_lines_stops_viz(self, full_run, tmp_path, capsys):
        cfg_path, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        index = run / "features/corpus.jsonl"
        lines = index.read_text().splitlines(keepends=True)
        record = json.loads(lines[3])
        record["speaker"] = None
        lines[3] = json.dumps(record) + "\n"
        index.write_text("".join(lines))
        assert main(["viz", "--config", str(cfg_path), "--out", str(run)]) == 1
        assert capsys.readouterr().err == (
            f'acoustok viz: {index}: line 4: utt003 has speaker null, line 1 has "spk0"\n')

    def test_edited_relevance_table_reruns_eval(self, full_run, tmp_path):
        cfg_path, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        rel = tmp_path / "rel.csv"
        rel.write_text("".join(f"utt000,utt{i:03d},1\n" for i in range(1, 8)))
        cfg = tmp_path / "rel.ini"
        cfg.write_text(cfg_path.read_text().replace(
            "mr_rounds = 1", f"mr_rounds = 1\nrelevance = {rel}"))
        for stage in ("std", "eval"):
            assert main([stage, "--config", str(cfg), "--out", str(run)]) == 0
        assert (run / "eval/map.csv").read_text() == "map\n1.0\n"
        # only utt005 relevant: MAP is the reciprocal of its rank
        rel.write_text("".join(f"utt000,utt{i:03d},{int(i == 5)}\n" for i in range(1, 8)))
        before = len(Manifest(run).entries())
        assert main(["eval", "--config", str(cfg), "--out", str(run)]) == 0
        assert [e["stage"] for e in Manifest(run).entries()[before:]] == ["eval"]
        [ranked] = read_rankings_tsv(run / "std/rankings.tsv")
        rank = [doc for doc, _ in ranked.entries].index("utt005") + 1
        assert (run / "eval/map.csv").read_text() == f"map\n{1 / rank!r}\n"

    def test_bench_expects_the_stages_iterate_runs(self, full_run, monkeypatch):
        """The bench counts a stage missing from its list as a failed operation,
        so a change to the stage list shows here first."""
        cfg_path, out = full_run
        path = Path(__file__).resolve().parent.parent / "bench" / "worker.py"
        monkeypatch.setattr(sys, "path", list(sys.path))  # the worker adds bench/ to it
        spec = importlib.util.spec_from_file_location("worker", path)
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
        recorded = dict.fromkeys(e["stage"] for e in Manifest(out).entries())
        iterate = [stage for stage in recorded if stage not in ("synth", "std", "eval", "viz")]
        assert worker._expected_stages(load_config(cfg_path)) == iterate + ["std", "eval"]


    @pytest.mark.parametrize("name, command, edit", [
        (f"run/{FINAL_TOK}/labels_m3_n4.jsonl", "std", "byte"),
        ("run/features/corpus.jsonl", "init", "byte"),
        ("run/truth.jsonl", "eval", "byte"),
        ("run/manifest.jsonl", "std", "byte"),
        ("run/std/rankings.tsv", "eval", "byte"),
        ("rel.csv", "eval", "byte"),
        ("rel.ini", "eval", "byte"),
        ("run/truth.jsonl", "eval", "first-line"),
    ], ids=["labels", "corpus", "truth", "manifest", "rankings", "relevance", "config",
            "truth-first-line"])
    def test_bad_text_file_is_named(self, full_run, tmp_path, capsys, name, command, edit):
        cfg_path, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        assert main(["std", "--config", str(cfg_path), "--out", str(run)]) == 0
        rel = tmp_path / "rel.csv"
        rel.write_text("".join(f"utt000,utt{i:03d},{i % 2}\n" for i in range(1, 8)))
        cfg = tmp_path / "rel.ini"
        cfg.write_text(cfg_path.read_text().replace(
            "mr_rounds = 1", f"mr_rounds = 1\nrelevance = {rel}"))
        path = tmp_path / name
        data = bytearray(path.read_bytes())
        if edit == "byte":
            data[len(data) // 2] = 0xFF
        else:
            data = data[:data.index(b"\n") + 1]
        path.write_bytes(bytes(data))
        assert main([command, "--config", str(cfg), "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"acoustok {command}: {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("weights", ["0 0", "1 -1"])
    def test_bad_fusion_weights_fail_cleanly(self, full_run, tmp_path, capsys, weights):
        cfg_path, out = full_run
        fusion = tmp_path / "fusion.ini"
        fusion.write_text(cfg_path.read_text().replace(
            "queries = utt000", f"queries = utt000\nmode = fusion\nweights = {weights}"))
        run = tmp_path / "run"
        shutil.copytree(out, run)  # keeps the shared run's snapshot untouched
        before = Manifest(run).entries()
        assert main(["std", "--config", str(fusion), "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"acoustok std: {fusion}: [retrieval] weights must be non-negative")
        assert Manifest(run).entries() == before

    def test_mr_seeds_come_from_stage_seed(self, full_run):
        cfg_path, out = full_run
        cfg = load_config(cfg_path)
        for k in (1, 2):
            for n in cfg.grid.phonetic:
                model = read_matl(out / f"iter{k}/mr1/lda_n{n}.matl")
                assert model.seed == stage_seed(cfg.seed, f"mr/{k}/1/{n}")

    @pytest.mark.parametrize("stage, labels", [
        ("mat", "iter1/init/labels_n4.jsonl"),
        ("mr", "iter1/TOK-1st_MR-0/labels_m3_n4.jsonl"),
        ("std", f"{FINAL_TOK}/labels_m3_n4.jsonl"),
        ("eval", f"{FINAL_TOK}/labels_m3_n4.jsonl"),
    ], ids=["mat", "mr", "std", "eval"])
    def test_labels_missing_an_utterance_fail_cleanly(self, full_run, tmp_path, capsys,
                                                       stage, labels):
        cfg_path, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        path = run / labels
        kept = [line for line in path.read_text().splitlines(keepends=True)
                if '"utt003"' not in line]
        path.write_text("".join(kept))
        assert main([stage, "--config", str(cfg_path), "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert err == f"acoustok {stage}: {path}: missing labels for utterance utt003\n"

    @pytest.mark.parametrize("stage", ["std", "eval", "viz"])
    def test_labels_of_an_unknown_utterance_fail_cleanly(self, full_run, tmp_path, capsys,
                                                          stage):
        cfg_path, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        path = run / f"{FINAL_TOK}/labels_m3_n4.jsonl"
        with path.open("a") as f:
            f.write('{"utt": "utt999", "token": 0, "start": 0, "end": 5}\n')
        assert main([stage, "--config", str(cfg_path), "--out", str(run)]) == 1
        assert capsys.readouterr().err == (
            f"acoustok {stage}: {path}: labels for utterance utt999, which the corpus lacks\n")

    @pytest.mark.parametrize("mode", ["token", "frame", "fusion"])
    @pytest.mark.parametrize("queries, message", [
        (" ".join(f"utt{i:03d}" for i in range(8)),
         "no documents left: every utterance is a query"),
        ("utt000 utt404", "query utterance 'utt404' not in corpus"),
    ], ids=["all-queries", "unknown-query"])
    def test_queries_checked_before_the_models_are_read(self, full_run, tmp_path, capsys,
                                                        mode, queries, message):
        cfg_path, out = full_run
        cfg = tmp_path / "std.ini"
        cfg.write_text(cfg_path.read_text().replace(
            "queries = utt000", f"queries = {queries}\nmode = {mode}"))
        run = tmp_path / "run"
        shutil.copytree(out, run)
        (run / f"{FINAL_TOK}/model_m3_n4.matm").unlink()
        assert main(["std", "--config", str(cfg), "--out", str(run)]) == 1
        assert capsys.readouterr().err == f"acoustok std: {message}\n"

    def test_non_finite_feature_file_is_named(self, full_run, tmp_path, capsys):
        cfg_path, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        path = run / "iter1/bnf/utt003.matf"
        data = bytearray(path.read_bytes())
        data[12:16] = struct.pack("<f", float("nan"))  # the first frame value
        path.write_bytes(bytes(data))
        assert main(["mat", "--iteration", "2", "--config", str(cfg_path), "--out", str(run)]) == 1
        assert capsys.readouterr().err == (
            f"acoustok mat: {path}: utt003: non-finite feature values\n")

    @pytest.mark.parametrize("edit", ["missing", "short", "extra"])
    def test_bnf_directory_checked_against_the_features(self, full_run, tmp_path, capsys,
                                                        edit):
        cfg_path, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        bnf = run / "iter1/bnf"
        corpus = load_corpus(bnf)
        kept = [seq for seq in corpus if seq.utterance_id != "utt003"]
        cut = corpus["utt003"]
        utt, found, expected = "utt003", "no", load_corpus(run / "features")["utt003"].n_frames
        if edit == "short":
            kept.append(FeatureSequence(cut.frames[:-1], cut.frame_shift, cut.frame_length, utt))
            found = cut.n_frames - 1
        elif edit == "extra":
            kept += [cut, FeatureSequence(cut.frames, cut.frame_shift, cut.frame_length, "utt999")]
            utt, found, expected = "utt999", cut.n_frames, "no"
        shutil.rmtree(bnf)
        # every line of an index names a speaker or none does
        save_corpus(bnf, Corpus(kept, dict(corpus.speakers, utt999="spk0")))
        argv = ["mdnn", "--iteration", "2", "--config", str(cfg_path), "--out", str(run)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (f"acoustok mdnn: {bnf}: {utt}: {found} frames, "
                                           f"the acoustic features have {expected}\n")


class TestDeterminism:
    def test_identical_runs_identical_hashes(self, tmp_path):
        cfg_path = write_config(tmp_path)
        hashes = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["iterate", "--config", str(cfg_path), "--out", str(out)]) == 0
            hashes.append(Manifest(out).output_hashes())
        assert hashes[0] == hashes[1]

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # each run in its own process, the thread count set in its environment
        # only, since a BLAS library reads it once, when it loads
        cfg_path = write_config(tmp_path)
        src = str(Path(__file__).resolve().parent.parent / "src")
        hashes = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
            subprocess.run([sys.executable, "-m", "acoustok.cli", "iterate", "--config", str(cfg_path),
                            "--out", str(out)], env=env, check=True, capture_output=True,
                           timeout=300)
            hashes.append(Manifest(out).output_hashes())
        assert len(hashes[0]) == 7  # synth, then the six stages of one iteration
        assert hashes[0] == hashes[1]
