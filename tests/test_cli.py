import pytest

from acoustok.cli import main
from acoustok.config import PipelineConfig, config_sha256, dump_config, load_config
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


def write_config(tmp_path, text=TINY_CONFIG, **overrides):
    path = tmp_path / "config.ini"
    body = text
    for key, value in overrides.items():
        body = body.replace(f"{key} = ", f"{key} = {value} ;", 1)
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

    def test_dump_load_roundtrip_stable_hash(self):
        cfg = load_config(text=TINY_CONFIG)
        again = load_config(text=dump_config(cfg))
        assert config_sha256(cfg) == config_sha256(again)


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


class TestIterate:
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


class TestDeterminism:
    def test_identical_runs_identical_hashes(self, tmp_path):
        cfg_path = write_config(tmp_path)
        hashes = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["iterate", "--config", str(cfg_path), "--out", str(out)]) == 0
            hashes.append(Manifest(out).output_hashes())
        assert hashes[0] == hashes[1]
