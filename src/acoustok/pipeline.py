"""Pipeline stages behind the command-line interface.

Every command first writes the run's settings, one file per setting under
config/.  Every stage records the settings it reads (STAGE_KINDS) and its
upstream artifacts as inputs, writes its outputs atomically, and appends a
manifest line with the content hashes of both; its work sees no other setting.
A stage whose line is present and whose files still match is skipped, so
interrupted runs resume, and a changed input or setting re-runs exactly the
stages that read it and those downstream whose inputs change in turn.  Artifact
names follow the TOK-kth / BNF-kth / MR-r scheme, with k the feedback iteration
and r the number of reinforcement rounds applied.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import evalviz, mdnn, reinforce, retrieval, tokenizer
from .config import SETTINGS, PipelineConfig, dump_config
from .corpus import (Corpus, GroundTruth, apply_cmvn, context_rows, corpus_files,
                     extract_features, ground_truth_jsonl, load_audio, load_corpus,
                     read_corpus_index, read_ground_truth, synthesize_corpus, utterance_stats)
from .initialization import make_initial_labels
from .labels import LabelSet, labels_to_jsonl, read_labels_jsonl, validate_label_set
from .manifest import SETTINGS_DIR, Manifest, PipelineError, StageWriter, atomic_write_text
from .mdnn import build_targets, extract_bnf, make_iteration_input, read_matn, train_mdnn
from .tokenizer import Granularity, LevelModel, read_matm, run_mat


@dataclass
class RunContext:
    cfg: PipelineConfig  # in a stage's work, only the settings it declared
    out: Path
    manifest: Manifest

    @classmethod
    def create(cls, cfg: PipelineConfig) -> "RunContext":
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        # [run] out is not a setting, so a moved or copied run still resumes
        for name in SETTINGS:
            atomic_write_text(_settings_path(out, name), dump_config(cfg, [name]))
        return cls(cfg, out, Manifest(out))


def _settings_path(out: Path, name: str) -> Path:
    return out / SETTINGS_DIR / f"{name}.ini"


def stage_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


def _seed_map(ctx: RunContext, tag: str) -> dict[int, int]:
    """One seed per phonetic granularity n, derived under the tag tag/n."""
    return {n: stage_seed(ctx.cfg.seed, f"{tag}/{n}") for n in ctx.cfg.grid.phonetic}


def ordinal(k: int) -> str:
    return {1: "1st", 2: "2nd", 3: "3rd"}.get(k, f"{k}th")


def features_dir(iteration: int) -> str:
    """Iteration 1 consumes the acoustic features; later iterations consume
    the bottleneck features extracted in the previous iteration."""
    return "features" if iteration == 1 else f"iter{iteration - 1}/bnf"


def tok_dir(iteration: int, mr_round: int) -> str:
    return f"iter{iteration}/TOK-{ordinal(iteration)}_MR-{mr_round}"


def _read_corpus(ctx: RunContext, writer: StageWriter, rel_dir: str) -> Corpus:
    index = writer.read(ctx.out / rel_dir / "corpus.jsonl", f"feature directory {rel_dir}")
    corpus = load_corpus(index.parent)
    for utt in corpus.ids():
        writer.read(index.parent / f"{utt}.matf", f"features of {utt} in {rel_dir}")
    return corpus


def _read_index(ctx: RunContext, writer: StageWriter, rel_dir: str) -> list[tuple[int, dict]]:
    """The records of a feature directory's index, without loading its features."""
    return read_corpus_index(writer.read(ctx.out / rel_dir / "corpus.jsonl",
                                         f"feature directory {rel_dir}"))


def _read_labels(path: Path, frame_counts: dict[str, int], n: int) -> LabelSet:
    """A label file that tiles every utterance of frame_counts with ids below
    n; anything else raises a ValueError naming the file."""
    labels = read_labels_jsonl(path)
    try:
        validate_label_set(labels, frame_counts, n)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return labels


def _level_paths(ctx: RunContext, writer: StageWriter, rel_dir: str, name: str) -> dict:
    """The path of one artifact per grid level of rel_dir, recorded as input."""
    return {g: writer.read(ctx.out / rel_dir / name.format(m=g.m, n=g.n),
                           f"level artifact {rel_dir} ({g.m},{g.n})")
            for g in ctx.cfg.grid.levels()}


def _read_model(path: Path, g: Granularity, d: int) -> LevelModel:
    """A model file of level g over d-dimensional features; any other raises
    a ValueError naming the file."""
    model = read_matm(path)
    if model.granularity != g:
        m, n = model.granularity.m, model.granularity.n
        raise ValueError(f"{path}: header m = {m}, n = {n}, where the file name gives "
                         f"m = {g.m}, n = {g.n}")
    if model.means.shape[3] != d:
        raise ValueError(f"{path}: header d = {model.means.shape[3]}, where the features "
                         f"searched have d = {d}")
    return model


def _read_levels(ctx: RunContext, writer: StageWriter, rel_dir: str,
                 frame_counts: dict[str, int]) -> dict:
    """The label file of every grid level of rel_dir, each checked by _read_labels."""
    paths = _level_paths(ctx, writer, rel_dir, "labels_m{m}_n{n}.jsonl")
    return {g: _read_labels(path, frame_counts, g.n) for g, path in paths.items()}


def _check_frames(path, found: dict[str, int], counts: dict[str, int]):
    """Raise naming path unless found holds the acoustic features' frame
    counts: the same utterances, each with as many frames."""
    for utt in sorted(counts.keys() | found.keys()):
        if found.get(utt) != counts.get(utt):
            raise ValueError(f"{path}: {utt}: {found.get(utt, 'no')} frames, "
                             f"the acoustic features have {counts.get(utt, 'no')}")


def _read_truth(ctx: RunContext, writer: StageWriter) -> tuple[GroundTruth, dict, list]:
    """The ground truth, checked against the acoustic features' index, the
    final labels of every level, checked against the truth, and the index."""
    path = writer.read(ctx.out / "truth.jsonl", "ground truth (synthetic corpora only)")
    truth = read_ground_truth(path)
    index = _read_index(ctx, writer, "features")
    _check_frames(path, truth.frame_counts(), {r["utt"]: r["frames"] for _, r in index})
    final = tok_dir(ctx.cfg.iterations, ctx.cfg.mr_rounds)
    return truth, _read_levels(ctx, writer, final, truth.frame_counts()), index


def _add_corpus(writer: StageWriter, rel_dir: str, corpus: Corpus):
    for name, data in corpus_files(corpus).items():
        writer.add_bytes(f"{rel_dir}/{name}", data)


# Each kind of stage: its manifest key, filled with the iteration and round
# cmd_{kind} takes, and the settings it reads.  stage() builds every stage.
STAGE_KINDS = {
    "synth": ("synth", ("seed", "synth")),
    "features": ("features", ("audio_dir", "features")),
    "init": ("iter{0}/init", ("seed", "grid", "init")),
    "mat": ("iter{0}/mat_mr{1}", ("grid", "tokenizer")),
    "mr": ("iter{0}/mr{1}", ("seed", "grid", "reinforce")),
    "mdnn": ("iter{0}/mdnn", ("seed", "mr_rounds", "grid", "mdnn")),
    "extract": ("iter{0}/extract", ("mr_rounds", "mdnn")),
    "std": ("std", ("iterations", "mr_rounds", "grid", "retrieval")),
    "eval": ("eval", ("iterations", "mr_rounds", "grid", "relevance")),
    "viz": ("viz", ("iterations", "mr_rounds", "grid")),
}


class Stage(NamedTuple):
    key: str
    settings: tuple[str, ...]
    run: Callable[[RunContext], None]  # the cmd_* call that runs the stage


def stage(kind: str, *args: int) -> Stage:
    """The stage cmd_{kind}(ctx, *args) runs."""
    key, settings = STAGE_KINDS[kind]
    # looked up on each run, so a wrapper installed on the module is called
    return Stage(key.format(*args), settings, lambda ctx: globals()[f"cmd_{kind}"](ctx, *args))


def plan(cfg: PipelineConfig) -> list[Stage]:
    """The stages iterate runs, in order: the corpus source, synth or (with
    audio_dir set) features, then init -> MAT -> (MR -> MAT)* -> MDNN ->
    extract once per iteration."""
    stages = [stage("features" if cfg.audio_dir else "synth")]
    for k in range(1, cfg.iterations + 1):
        stages += [stage("init", k), stage("mat", k, 0)]
        for r in range(1, cfg.mr_rounds + 1):
            stages += [stage("mr", k, r), stage("mat", k, r)]
        stages += [stage("mdnn", k), stage("extract", k)]
    return stages


# stages whose last outputs a stage's outputs replace, besides its own: the
# two corpus sources both write features/
REPLACES = {"synth": ("features",), "features": ("synth",)}


def _run_stage(ctx: RunContext, stage: Stage, work):
    """Run a stage unless the manifest shows it complete.  The stage reads
    the settings it declares: their files are recorded as inputs, and
    work(ctx, writer) gets a context whose cfg holds only those, so reading
    any other setting raises AttributeError.  The files that its own last
    line or, per REPLACES, another stage's wrote and it does not write again
    are removed."""
    if ctx.manifest.is_complete(stage.key, ctx.out):
        return
    start = time.perf_counter()
    writer = StageWriter(ctx.out)
    for name in stage.settings:
        writer.read(_settings_path(ctx.out, name), f"setting {name}")
    declared = SimpleNamespace(**{name: getattr(ctx.cfg, name) for name in stage.settings})
    work(RunContext(declared, ctx.out, ctx.manifest), writer)
    previous = [ctx.manifest.find(key) for key in (stage.key, *REPLACES.get(stage.key, ()))]
    outputs = writer.commit([path for line in previous if line for path in line["outputs"]])
    ctx.manifest.record(stage.key, outputs, writer.inputs, time.perf_counter() - start)


def cmd_synth(ctx: RunContext):
    def work(ctx: RunContext, writer: StageWriter):
        corpus, truth = synthesize_corpus(ctx.cfg.synth, ctx.cfg.seed)
        _add_corpus(writer, "features", corpus)
        writer.add_text("truth.jsonl", ground_truth_jsonl(truth))

    _run_stage(ctx, stage("synth"), work)


def cmd_features(ctx: RunContext):
    def work(ctx: RunContext, writer: StageWriter):
        audio_dir = Path(ctx.cfg.audio_dir)
        if not ctx.cfg.audio_dir or not audio_dir.exists():
            raise PipelineError(f"audio_dir not found: {ctx.cfg.audio_dir!r}")
        wavs = sorted(audio_dir.glob("*.wav"))
        if not wavs:
            raise PipelineError(f"no .wav files in {audio_dir}")
        writer.read(audio_dir / "*.wav", "WAV file names")  # an added WAV re-runs the stage
        sequences = [extract_features(load_audio(writer.read(wav, "audio")), ctx.cfg.features)
                     for wav in wavs]
        if ctx.cfg.features.cmvn:
            sequences = [apply_cmvn(seq) for seq in sequences]
        _add_corpus(writer, "features", Corpus(sequences))

    _run_stage(ctx, stage("features"), work)


def cmd_init(ctx: RunContext, iteration: int = 1):
    def work(ctx: RunContext, writer: StageWriter):
        corpus = _read_corpus(ctx, writer, features_dir(iteration))
        seeds = _seed_map(ctx, f"init/{iteration}")
        for n, labels in make_initial_labels(corpus, seeds, ctx.cfg.init).items():
            writer.add_text(f"iter{iteration}/init/labels_n{n}.jsonl", labels_to_jsonl(labels))

    _run_stage(ctx, stage("init", iteration), work)


def cmd_mat(ctx: RunContext, iteration: int = 1, mr_round: int = 0):
    def work(ctx: RunContext, writer: StageWriter):
        corpus = _read_corpus(ctx, writer, features_dir(iteration))
        src = f"iter{iteration}/mr{mr_round}" if mr_round else f"iter{iteration}/init"
        paths = {n: writer.read(ctx.out / src / f"labels_n{n}.jsonl", f"{src} labels for n={n}")
                 for n in ctx.cfg.grid.phonetic}
        init_labels = {n: _read_labels(path, corpus.frame_counts(), n) for n, path in paths.items()}
        models, labels = run_mat(corpus, ctx.cfg.grid, init_labels, ctx.cfg.tokenizer)
        base = tok_dir(iteration, mr_round)
        for g in ctx.cfg.grid.levels():
            writer.add_bytes(f"{base}/model_m{g.m}_n{g.n}.matm", tokenizer.matm_bytes(models[g]))
            writer.add_text(f"{base}/labels_m{g.m}_n{g.n}.jsonl", labels_to_jsonl(labels[g]))

    _run_stage(ctx, stage("mat", iteration, mr_round), work)


def cmd_mr(ctx: RunContext, iteration: int = 1, mr_round: int = 1):
    """Reinforcement round r reads the MAT labels of round r-1 and emits the
    round-r initial label sets plus the fused boundaries, the documents, and
    the per-n LDA models."""
    def work(ctx: RunContext, writer: StageWriter):
        frame_counts = {r["utt"]: r["frames"]
                        for _, r in _read_index(ctx, writer, features_dir(iteration))}
        level_labels = _read_levels(ctx, writer, tok_dir(iteration, mr_round - 1), frame_counts)
        result = reinforce.mutual_reinforce(level_labels, ctx.cfg.grid,
                                            _seed_map(ctx, f"mr/{iteration}/{mr_round}"),
                                            ctx.cfg.reinforce)
        base = f"iter{iteration}/mr{mr_round}"
        writer.add_text(f"{base}/fused.jsonl", reinforce.fused_jsonl(result.fused))
        writer.add_text(f"{base}/documents.jsonl", reinforce.documents_jsonl(result.documents))
        for n in ctx.cfg.grid.phonetic:
            writer.add_bytes(f"{base}/lda_n{n}.matl", reinforce.matl_bytes(result.models[n]))
            writer.add_text(f"{base}/labels_n{n}.jsonl", labels_to_jsonl(result.labels[n]))

    _run_stage(ctx, stage("mr", iteration, mr_round), work)


def _mdnn_inputs(ctx: RunContext, writer: StageWriter, iteration: int):
    """The network's input, one row per frame, utterances in id order: the
    context of the acoustic features and of every earlier iteration's
    bottleneck features, each gathered from its corpus matrix, then the
    utterance's statistics.  Returns the rows and the acoustic corpus."""
    acoustic = _read_corpus(ctx, writer, "features")
    corpora = [acoustic]
    for k in range(1, iteration):
        rel_dir = f"iter{k}/bnf"
        corpora.append(_read_corpus(ctx, writer, rel_dir))
        _check_frames(ctx.out / rel_dir, corpora[-1].frame_counts(), acoustic.frame_counts())
    stats = np.repeat([utterance_stats(u) for u in acoustic], np.diff(acoustic.offsets), axis=0)
    blocks = [context_rows(c, ctx.cfg.mdnn.context_radius) for c in corpora]
    return make_iteration_input(blocks, stats), acoustic


def _matn_name(ctx: RunContext, iteration: int) -> str:
    return f"iter{iteration}/BNF-{ordinal(iteration)}_MR-{ctx.cfg.mr_rounds}.matn"


def cmd_mdnn(ctx: RunContext, iteration: int = 1):
    def work(ctx: RunContext, writer: StageWriter):
        rows, acoustic = _mdnn_inputs(ctx, writer, iteration)
        level_labels = _read_levels(ctx, writer, tok_dir(iteration, ctx.cfg.mr_rounds),
                                    acoustic.frame_counts())
        targets = build_targets(level_labels, ctx.cfg.grid, acoustic.ids())
        model, log = train_mdnn(rows, targets, ctx.cfg.grid.levels(), ctx.cfg.mdnn,
                                seed=stage_seed(ctx.cfg.seed, f"mdnn/{iteration}"))
        writer.add_bytes(_matn_name(ctx, iteration), mdnn.matn_bytes(model))
        writer.add_text(f"iter{iteration}/mdnn_log.csv", log.to_csv())

    _run_stage(ctx, stage("mdnn", iteration), work)


def cmd_extract(ctx: RunContext, iteration: int = 1):
    def work(ctx: RunContext, writer: StageWriter):
        path = writer.read(ctx.out / _matn_name(ctx, iteration), "trained network")
        model = read_matn(path)
        rows, acoustic = _mdnn_inputs(ctx, writer, iteration)
        try:  # extract_bnf checks the network's input width against the rows'
            bnf = np.split(extract_bnf(model, rows), acoustic.offsets[1:-1])
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        sequences = [replace(u, frames=frames) for u, frames in zip(acoustic, bnf)]
        _add_corpus(writer, f"iter{iteration}/bnf", Corpus(sequences, dict(acoustic.speakers)))

    _run_stage(ctx, stage("extract", iteration), work)


def cmd_iterate(ctx: RunContext):
    """The stages of plan(cfg), in order; the extracted features feed the next
    iteration's MAT and the network input.  The corpus source re-runs when
    its line is missing, what it read changed, or features/corpus.jsonl is no
    longer the index it wrote (the other source wrote features/ since), so a
    feature file edited on purpose is kept."""
    source, *stages = plan(ctx.cfg)
    if not ctx.manifest.is_complete(source.key, ctx.out, outputs=("features/corpus.jsonl",)):
        source.run(ctx)
    for each in stages:
        each.run(ctx)


def cmd_std(ctx: RunContext):
    """Rank documents for each configured query utterance; queries are held
    out of the document collection."""
    def work(ctx: RunContext, writer: StageWriter):
        queries = ctx.cfg.retrieval.queries
        if not queries:
            raise PipelineError("no queries configured in [retrieval]")
        base = tok_dir(ctx.cfg.iterations, ctx.cfg.mr_rounds)
        corpus = _read_corpus(ctx, writer, features_dir(ctx.cfg.iterations))
        for q in queries:
            if q not in corpus.ids():
                raise PipelineError(f"query utterance {q!r} not in corpus")
        doc_ids = [u for u in corpus.ids() if u not in set(queries)]
        if not doc_ids:
            raise PipelineError("no documents left: every utterance is a query")
        level_labels = _read_levels(ctx, writer, base, corpus.frame_counts())
        models = {g: _read_model(path, g, corpus.frames.shape[1]) for g, path in
                  _level_paths(ctx, writer, base, "model_m{m}_n{n}.matm").items()}
        doc_labels = {g: {u: level_labels[g][u] for u in doc_ids} for g in level_labels}
        index = retrieval.RetrievalIndex.build(models, doc_labels, corpus)
        mode = ctx.cfg.retrieval.mode
        weights = list(ctx.cfg.retrieval.weights) or None
        lists = []
        for q in queries:
            q_tokens = {g: level_labels[g][q].token_ids() for g in level_labels}
            lists.append(retrieval.rank_documents(
                index, q, query_tokens=q_tokens, query_features=corpus[q],
                mode=mode, weights=weights,
            ))
        writer.add_text("std/rankings.tsv", retrieval.rankings_tsv(lists))

    _run_stage(ctx, stage("std"), work)


def cmd_eval(ctx: RunContext):
    """Boundary PRF and purity/NMI per level against the synthetic ground
    truth, plus MAP over the written rankings when a relevance table exists."""
    def work(ctx: RunContext, writer: StageWriter):
        truth, level_labels, _ = _read_truth(ctx, writer)
        ref_bounds = {utt: truth.boundaries(utt) for utt in truth.spans}
        truth_labels = truth.label_set()
        lines = ["m,n,boundary_p,boundary_r,boundary_f,purity,nmi"]
        for g in ctx.cfg.grid.levels():
            p, r, f = evalviz.corpus_boundary_prf(level_labels[g], ref_bounds)
            hyp, ref = evalviz.frame_label_pairs(level_labels[g], truth_labels)
            purity, nmi = evalviz.cluster_purity_nmi(hyp, ref)
            lines.append(f"{g.m},{g.n},{p!r},{r!r},{f!r},{purity!r},{nmi!r}")
        writer.add_text("eval/levels.csv", "\n".join(lines) + "\n")

        if ctx.cfg.relevance:
            relevance = retrieval.read_relevance_csv(
                writer.read(ctx.cfg.relevance, "relevance table"))
            lists = retrieval.read_rankings_tsv(
                writer.read(ctx.out / "std/rankings.tsv", "rankings (run std first)"))
            value = retrieval.mean_average_precision(lists, relevance)
            writer.add_text("eval/map.csv", f"map\n{value!r}\n")

    _run_stage(ctx, stage("eval"), work)


def cmd_viz(ctx: RunContext):
    """Per-level co-occurrence maps against the true tokens, speaker-token
    intensity maps, and the granularity grid of boundary F-scores."""
    def work(ctx: RunContext, writer: StageWriter):
        truth, level_labels, index = _read_truth(ctx, writer)
        speakers = {r["utt"]: r["speaker"] for _, r in index if r.get("speaker")}
        ref_bounds = {utt: truth.boundaries(utt) for utt in truth.spans}
        grid_values = {}
        for g in ctx.cfg.grid.levels():
            tag = f"m{g.m}_n{g.n}"
            mat = evalviz.cooccurrence(level_labels[g], truth.spans)
            writer.add_text(f"viz/cooccurrence_{tag}.csv", mat.to_csv())
            peak = mat.counts.max()
            image = mat.counts[mat.grouped_row_order()] / peak if peak else mat.counts
            writer.add_bytes(f"viz/cooccurrence_{tag}.pgm", evalviz.pgm_bytes(image))
            if speakers:
                stm = evalviz.speaker_token_map(level_labels[g], speakers)
                writer.add_bytes(f"viz/speaker_map_{tag}.pgm", evalviz.pgm_bytes(stm.intensities))
                writer.add_text(f"viz/speaker_map_{tag}.csv", stm.to_csv())
            _, _, f = evalviz.corpus_boundary_prf(level_labels[g], ref_bounds)
            grid_values[(g.m, g.n)] = f
        writer.add_text("viz/grid_boundary_f.csv", evalviz.grid_csv(grid_values))

    _run_stage(ctx, stage("viz"), work)

