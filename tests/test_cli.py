import configparser
import re
from dataclasses import fields, is_dataclass

import pytest

from acoustok import initialization
from acoustok.cli import main
from acoustok.config import PipelineConfig, config_sha256, dump_config, load_config
from acoustok.corpus import FeatureSequence, matf_bytes, read_matf
from acoustok.evalviz import read_grid
from acoustok.manifest import Manifest, atomic_write_text, file_sha256
from acoustok.mdnn import read_matn


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

[features]
context_radius = 2

[init]
min_segment_frames = 4

[tokenizer]
em_iters = 3
outer_iters = 2

[reinforce]
lda_iters = 30

[mdnn]
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

[features]
window = 0.03
shift = 0.015
n_ceps = 12
n_filters = 24
preemphasis = 0.95
delta_window = 3
cmvn = false
context_radius = 3

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
mixture_schedule = 2 4
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
hidden = 32 16
bottleneck = 8
epochs = 3
batch_size = 32
learning_rate = 0.05
momentum = 0.5

[retrieval]
mode = fusion
queries = utt000 utt001
relevance = rel.csv
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
        assert cfg.features.context_radius == 4

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
         "[tokenizer] outer_iters: invalid literal for int() with base 10: '3 ;2'"),
        ("tokenizer", "var_floor_frac = 0.0l",
         "[tokenizer] var_floor_frac: could not convert string to float: '0.0l'"),
        ("grid", "phonetic = 4 six",
         "[grid] phonetic: invalid literal for int() with base 10: 'six'"),
    ])
    def test_parse_errors_name_the_setting(self, section, line, message):
        with pytest.raises(ValueError) as err:
            load_config(text=f"[{section}]\n{line}\n")
        assert str(err.value) == message

    def test_write_config_override_replaces_value(self, tmp_path):
        cfg = load_config(write_config(tmp_path, outer_iters=4, phonetic="5 7"))
        assert cfg.tokenizer.outer_iters == 4
        assert cfg.grid.phonetic == (5, 7)

    def test_dump_load_roundtrip_stable_hash(self):
        cfg = load_config(text=TINY_CONFIG)
        again = load_config(text=dump_config(cfg))
        assert config_sha256(cfg) == config_sha256(again)

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
                expected.add(("run", "out" if f.name == "out_dir" else f.name))
        assert keys == expected - {("synth", "token_sequences")}


class TestManifest:
    def test_atomic_write_and_hash(self, tmp_path):
        atomic_write_text(tmp_path / "x.txt", "hello\n")
        assert (tmp_path / "x.txt").read_text() == "hello\n"
        digest = file_sha256(tmp_path / "x.txt")
        assert len(digest) == 64

    def test_record_and_find(self, tmp_path):
        m = Manifest(tmp_path)
        m.record("stage_a", {"out.bin": "aa"}, {"in.bin": "bb"}, "cfg", 0.5)
        m.record("stage_b", {"two.bin": "cc"}, {}, "cfg", 0.1)
        assert m.find("stage_a")["outputs"] == {"out.bin": "aa"}
        assert set(m.output_hashes()) == {"stage_a", "stage_b"}

    def test_is_complete_requires_matching_files(self, tmp_path):
        m = Manifest(tmp_path)
        atomic_write_text(tmp_path / "out.txt", "data")
        m.record("s", {"out.txt": file_sha256(tmp_path / "out.txt")}, {}, "cfg", 0.0)
        assert m.is_complete("s", tmp_path, "cfg")
        (tmp_path / "out.txt").write_text("tampered")
        assert not m.is_complete("s", tmp_path, "cfg")
        assert not m.is_complete("s", tmp_path, "other-cfg")


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
        (out / "iter1/init/labels_n4.jsonl").unlink()  # so that init runs again
        assert main(["init", "--config", str(cfg_path), "--out", str(out)]) == 0
        after = Manifest(out).find("iter1/init")["inputs"]
        assert read_matf(path).n_frames == seq.n_frames
        assert set(after) == set(before)
        assert {key for key in before if after[key] != before[key]} == {"features/utt003.matf"}

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

    def test_outer_iters_below_one_fails_cleanly(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, outer_iters=0)
        code = main(["iterate", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("acoustok iterate: ") and "outer_iters" in err

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
        assert {stage: recorded[stage] for stage in recorded if stage not in
                ("std", "eval", "viz")} == {
            "synth": set(),
            "iter1/init": FEATURES,
            "iter1/mat_mr0": FEATURES | _per_n("iter1/init"),
            "iter1/mr1": _per_level("iter1/TOK-1st_MR-0"),
            "iter1/mat_mr1": FEATURES | _per_n("iter1/mr1"),
            "iter1/mdnn": FEATURES | _per_level("iter1/TOK-1st_MR-1"),
            "iter1/extract": FEATURES | {"iter1/BNF-1st_MR-1.matn"},
            "iter2/init": BNF1,
            "iter2/mat_mr0": BNF1 | _per_n("iter2/init"),
            "iter2/mr1": _per_level("iter2/TOK-2nd_MR-0"),
            "iter2/mat_mr1": BNF1 | _per_n("iter2/mr1"),
            "iter2/mdnn": FEATURES | BNF1 | _per_level(FINAL_TOK),
            "iter2/extract": FEATURES | BNF1 | {"iter2/BNF-2nd_MR-1.matn"},
        }

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
        patched = cfg_path.read_text() + f"\n[retrieval]\nrelevance = {rel}\n"
        # configparser forbids duplicate sections; splice the key instead
        patched = cfg_path.read_text().replace(
            "queries = utt000", f"queries = utt000\nrelevance = {rel}"
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
        values, summary = read_grid(out2 / "viz/grid_boundary_f.csv")
        assert summary[2] == max(values.values())
        maps = sorted((out2 / "viz").glob("speaker_map_*.csv"))
        assert maps
        for path in maps:
            for row in path.read_text().splitlines()[1:]:
                for cell in row.split(",")[1:]:
                    float(cell)

        recorded = _stage_inputs(out2)
        labels = _per_level(FINAL_TOK)
        assert recorded["std"] == BNF1 | labels | _per_level(FINAL_TOK, "model", "matm")
        assert recorded["eval"] == {str(rel), "std/rankings.tsv", "truth.jsonl"} | labels
        assert recorded["viz"] == FEATURES | {"truth.jsonl"} | labels


class TestDeterminism:
    def test_identical_runs_identical_hashes(self, tmp_path):
        cfg_path = write_config(tmp_path)
        hashes = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["iterate", "--config", str(cfg_path), "--out", str(out)]) == 0
            hashes.append(Manifest(out).output_hashes())
        assert hashes[0] == hashes[1]
