"""Pipeline stages behind the command-line interface.

Every stage reads its upstream artifacts from the run directory, writes its
outputs atomically, and appends a manifest line with content hashes.  A stage
whose manifest line is present and whose outputs still match their hashes is
skipped, so interrupted runs resume where they stopped.  Artifact names follow
the TOK-kth / BNF-kth / MR-r scheme, with k the feedback iteration and r the
number of reinforcement rounds applied.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import evalviz, mdnn, reinforce, retrieval, tokenizer
from .config import PipelineConfig, config_sha256, dump_config
from .corpus import (
    Corpus,
    FeatureSequence,
    GroundTruth,
    apply_cmvn,
    corpus_files,
    extract_features,
    ground_truth_jsonl,
    load_audio,
    read_ground_truth,
    synthesize_corpus,
    utterance_stats,
    window_context,
)
from .initialization import make_initial_labels
from .labels import labels_to_jsonl, read_labels_jsonl
from .manifest import Manifest, PipelineError, StageWriter, atomic_write_text
from .mdnn import build_targets, extract_bnf, make_iteration_input, read_matn, train_mdnn
from .tokenizer import read_matm, run_mat


@dataclass
class RunContext:
    cfg: PipelineConfig
    out: Path
    manifest: Manifest
    config_sha: str

    @classmethod
    def create(cls, cfg: PipelineConfig) -> "RunContext":
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out / "config.snapshot.ini", dump_config(cfg))
        return cls(cfg, out, Manifest(out), config_sha256(cfg))


def stage_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


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
    corpus = corpus_mod.load_corpus(index.parent)
    for utt in corpus.ids():
        writer.read(index.parent / f"{utt}.matf", f"features of {utt} in {rel_dir}")
    return corpus


def _read_levels(ctx: RunContext, writer: StageWriter, rel_dir: str,
                 name: str = "labels_m{m}_n{n}.jsonl", read=read_labels_jsonl) -> dict:
    """One artifact per grid level of rel_dir, labels unless name and read say otherwise."""
    return {
        g: read(writer.read(ctx.out / rel_dir / name.format(m=g.m, n=g.n),
                            f"level artifact {rel_dir} ({g.m},{g.n})"))
        for g in ctx.cfg.grid.levels()
    }


def _read_truth(ctx: RunContext, writer: StageWriter) -> GroundTruth:
    return read_ground_truth(
        writer.read(ctx.out / "truth.jsonl", "ground truth (synthetic corpora only)")
    )


def _add_corpus(writer: StageWriter, rel_dir: str, corpus: Corpus):
    for name, data in corpus_files(corpus).items():
        writer.add_bytes(f"{rel_dir}/{name}", data)


def _run_stage(ctx: RunContext, key: str, work) -> bool:
    """Run a stage unless the manifest shows it complete; returns True if run."""
    if ctx.manifest.is_complete(key, ctx.out, ctx.config_sha):
        return False
    start = time.perf_counter()
    writer = StageWriter(ctx.out)
    work(writer)
    outputs = writer.commit()
    ctx.manifest.record(key, outputs, writer.inputs, ctx.config_sha,
                        time.perf_counter() - start)
    return True


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def cmd_synth(ctx: RunContext):
    def work(writer: StageWriter):
        corpus, truth = synthesize_corpus(ctx.cfg.synth, ctx.cfg.seed)
        _add_corpus(writer, "features", corpus)
        writer.add_text("truth.jsonl", ground_truth_jsonl(truth))

    _run_stage(ctx, "synth", work)


def cmd_features(ctx: RunContext):
    def work(writer: StageWriter):
        audio_dir = Path(ctx.cfg.audio_dir)
        if not ctx.cfg.audio_dir or not audio_dir.exists():
            raise PipelineError(f"audio_dir not found: {ctx.cfg.audio_dir!r}")
        wavs = sorted(audio_dir.glob("*.wav"))
        if not wavs:
            raise PipelineError(f"no .wav files in {audio_dir}")
        sequences = []
        for wav in wavs:
            seq = extract_features(load_audio(writer.read(wav, "audio")), ctx.cfg.features)
            if ctx.cfg.features.cmvn:
                seq = apply_cmvn(seq)
            sequences.append(seq)
        _add_corpus(writer, "features", Corpus(sequences))

    _run_stage(ctx, "features", work)


def cmd_init(ctx: RunContext, iteration: int = 1):
    def work(writer: StageWriter):
        corpus = _read_corpus(ctx, writer, features_dir(iteration))
        seeds = {n: stage_seed(ctx.cfg.seed, f"init/{iteration}/{n}")
                 for n in ctx.cfg.grid.phonetic}
        for n, labels in make_initial_labels(corpus, seeds, ctx.cfg.init).items():
            writer.add_text(f"iter{iteration}/init/labels_n{n}.jsonl", labels_to_jsonl(labels))

    _run_stage(ctx, f"iter{iteration}/init", work)


def cmd_mat(ctx: RunContext, iteration: int = 1, mr_round: int = 0):
    def work(writer: StageWriter):
        corpus = _read_corpus(ctx, writer, features_dir(iteration))
        src = f"iter{iteration}/mr{mr_round}" if mr_round else f"iter{iteration}/init"
        init_labels = {
            n: read_labels_jsonl(writer.read(ctx.out / src / f"labels_n{n}.jsonl",
                                             f"{src} labels for n={n}"))
            for n in ctx.cfg.grid.phonetic
        }
        models, labels = run_mat(corpus, ctx.cfg.grid, init_labels, ctx.cfg.tokenizer)
        base = tok_dir(iteration, mr_round)
        for g in ctx.cfg.grid.levels():
            writer.add_bytes(f"{base}/model_m{g.m}_n{g.n}.matm", tokenizer.matm_bytes(models[g]))
            writer.add_text(f"{base}/labels_m{g.m}_n{g.n}.jsonl", labels_to_jsonl(labels[g]))

    _run_stage(ctx, f"iter{iteration}/mat_mr{mr_round}", work)


def cmd_mr(ctx: RunContext, iteration: int = 1, mr_round: int = 1):
    """Reinforcement round r reads the MAT labels of round r-1 and emits the
    round-r initial label sets plus the fused boundaries, the documents, and
    the per-n LDA models."""
    def work(writer: StageWriter):
        level_labels = _read_levels(ctx, writer, tok_dir(iteration, mr_round - 1))
        result = reinforce.mutual_reinforce(
            level_labels, ctx.cfg.grid, ctx.cfg.reinforce,
            seed=stage_seed(ctx.cfg.seed, f"mr/{iteration}/{mr_round}"),
        )
        base = f"iter{iteration}/mr{mr_round}"
        writer.add_text(f"{base}/fused.jsonl", reinforce.fused_jsonl(result.fused))
        writer.add_text(f"{base}/documents.jsonl", reinforce.documents_jsonl(result.documents))
        for n in ctx.cfg.grid.phonetic:
            writer.add_bytes(f"{base}/lda_n{n}.matl", reinforce.matl_bytes(result.models[n]))
            writer.add_text(f"{base}/labels_n{n}.jsonl", labels_to_jsonl(result.labels[n]))

    _run_stage(ctx, f"iter{iteration}/mr{mr_round}", work)


def _mdnn_inputs(ctx: RunContext, writer: StageWriter, iteration: int):
    """Per-utterance network input: acoustic context, bottleneck context from
    every earlier iteration, then the utterance statistics vector.  Returns
    the rows and the acoustic corpus."""
    acoustic = _read_corpus(ctx, writer, "features")
    radius = ctx.cfg.features.context_radius
    bnf_corpora = [_read_corpus(ctx, writer, f"iter{k}/bnf") for k in range(1, iteration)]
    rows = {}
    for utt in sorted(acoustic.ids()):
        mfcc_ctx = window_context(acoustic[utt], radius).frames
        blocks = [window_context(c[utt], radius).frames for c in bnf_corpora]
        bnf_ctx = blocks[0] if blocks else None
        extras = tuple(blocks[1:])
        rows[utt] = make_iteration_input(
            mfcc_ctx, bnf_ctx, extras, utterance_stats(acoustic[utt])
        )
    return rows, acoustic


def _matn_name(ctx: RunContext, iteration: int) -> str:
    return f"iter{iteration}/BNF-{ordinal(iteration)}_MR-{ctx.cfg.mr_rounds}.matn"


def cmd_mdnn(ctx: RunContext, iteration: int = 1):
    def work(writer: StageWriter):
        level_labels = _read_levels(ctx, writer, tok_dir(iteration, ctx.cfg.mr_rounds))
        rows, _ = _mdnn_inputs(ctx, writer, iteration)
        targets_by_utt = build_targets(level_labels, ctx.cfg.grid)
        order = sorted(rows)
        X = np.vstack([rows[u] for u in order])
        Y = np.vstack([targets_by_utt[u] for u in order])
        levels = ctx.cfg.grid.levels()
        model, log = train_mdnn(
            X, Y, [g.n for g in levels], levels, ctx.cfg.mdnn,
            seed=stage_seed(ctx.cfg.seed, f"mdnn/{iteration}"),
        )
        writer.add_bytes(_matn_name(ctx, iteration), mdnn.matn_bytes(model))
        writer.add_text(f"iter{iteration}/mdnn_log.csv", log.to_csv())

    _run_stage(ctx, f"iter{iteration}/mdnn", work)


def cmd_extract(ctx: RunContext, iteration: int = 1):
    def work(writer: StageWriter):
        model = read_matn(writer.read(ctx.out / _matn_name(ctx, iteration), "trained network"))
        rows, acoustic = _mdnn_inputs(ctx, writer, iteration)
        sequences = []
        for utt in acoustic.ids():
            bnf = extract_bnf(model, rows[utt])
            sequences.append(FeatureSequence(
                bnf, acoustic[utt].frame_shift, acoustic[utt].frame_length, utt
            ))
        _add_corpus(writer, f"iter{iteration}/bnf", Corpus(sequences, dict(acoustic.speakers)))

    _run_stage(ctx, f"iter{iteration}/extract", work)


def cmd_iterate(ctx: RunContext):
    """init -> MAT -> (MR -> MAT)* -> MDNN -> extract, once per iteration; the
    extracted features feed the next iteration's MAT and the network input."""
    for iteration in range(1, ctx.cfg.iterations + 1):
        cmd_init(ctx, iteration)
        cmd_mat(ctx, iteration, 0)
        for r in range(1, ctx.cfg.mr_rounds + 1):
            cmd_mr(ctx, iteration, r)
            cmd_mat(ctx, iteration, r)
        cmd_mdnn(ctx, iteration)
        cmd_extract(ctx, iteration)


# ---------------------------------------------------------------------------
# retrieval / evaluation / visualization stages
# ---------------------------------------------------------------------------

def _final_tok_dir(ctx: RunContext) -> str:
    return tok_dir(ctx.cfg.iterations, ctx.cfg.mr_rounds)


def cmd_std(ctx: RunContext):
    """Rank documents for each configured query utterance; queries are held
    out of the document collection."""
    def work(writer: StageWriter):
        queries = ctx.cfg.retrieval.queries
        if not queries:
            raise PipelineError("no queries configured in [retrieval]")
        base = _final_tok_dir(ctx)
        level_labels = _read_levels(ctx, writer, base)
        models = _read_levels(ctx, writer, base, "model_m{m}_n{n}.matm", read_matm)
        corpus = _read_corpus(ctx, writer, features_dir(ctx.cfg.iterations))

        doc_ids = [u for u in corpus.ids() if u not in set(queries)]
        doc_labels = {
            g: {u: level_labels[g][u] for u in doc_ids} for g in level_labels
        }
        index = retrieval.RetrievalIndex.build(
            models, doc_labels,
            Corpus([corpus[u] for u in doc_ids], dict(corpus.speakers)),
        )
        mode = ctx.cfg.retrieval.mode
        weights = list(ctx.cfg.retrieval.weights) or None
        lists = []
        for q in queries:
            if q not in corpus.ids():
                raise PipelineError(f"query utterance {q!r} not in corpus")
            q_tokens = {g: level_labels[g][q].token_ids() for g in level_labels}
            lists.append(retrieval.rank_documents(
                index, q, query_tokens=q_tokens, query_features=corpus[q],
                mode=mode, weights=weights,
            ))
        writer.add_text("std/rankings.tsv", retrieval.rankings_tsv(lists))

    _run_stage(ctx, "std", work)


def cmd_eval(ctx: RunContext):
    """Boundary PRF and purity/NMI per level against the synthetic ground
    truth, plus MAP over the written rankings when a relevance table exists."""
    def work(writer: StageWriter):
        truth = _read_truth(ctx, writer)
        level_labels = _read_levels(ctx, writer, _final_tok_dir(ctx))
        ref_bounds = {utt: truth.boundaries(utt) for utt in truth.spans}
        truth_labels = truth.label_set()
        lines = ["m,n,boundary_p,boundary_r,boundary_f,purity,nmi"]
        for g in ctx.cfg.grid.levels():
            p, r, f = evalviz.corpus_boundary_prf(level_labels[g], ref_bounds)
            hyp, ref = evalviz.frame_label_pairs(level_labels[g], truth_labels)
            purity, nmi = evalviz.cluster_purity_nmi(hyp, ref)
            lines.append(f"{g.m},{g.n},{p!r},{r!r},{f!r},{purity!r},{nmi!r}")
        writer.add_text("eval/levels.csv", "\n".join(lines) + "\n")

        if ctx.cfg.retrieval.relevance:
            relevance = retrieval.read_relevance_csv(
                writer.read(ctx.cfg.retrieval.relevance, "relevance table"))
            lists = retrieval.read_rankings_tsv(
                writer.read(ctx.out / "std/rankings.tsv", "rankings (run std first)"))
            value = retrieval.mean_average_precision(lists, relevance)
            writer.add_text("eval/map.csv", f"map\n{value!r}\n")

    _run_stage(ctx, "eval", work)


def cmd_viz(ctx: RunContext):
    """Per-level co-occurrence maps against the true tokens, speaker-token
    intensity maps, and the granularity grid of boundary F-scores."""
    def work(writer: StageWriter):
        truth = _read_truth(ctx, writer)
        level_labels = _read_levels(ctx, writer, _final_tok_dir(ctx))
        corpus = _read_corpus(ctx, writer, "features")
        reference = {
            utt: [(str(token), start, end) for token, start, end in spans]
            for utt, spans in truth.spans.items()
        }
        ref_bounds = {utt: truth.boundaries(utt) for utt in truth.spans}
        grid_values = {}
        for g in ctx.cfg.grid.levels():
            tag = f"m{g.m}_n{g.n}"
            mat = evalviz.cooccurrence(level_labels[g], reference)
            writer.add_text(f"viz/cooccurrence_{tag}.csv", mat.to_csv())
            peak = mat.counts.max()
            image = mat.counts[mat.grouped_row_order()] / peak if peak else mat.counts
            writer.add_bytes(f"viz/cooccurrence_{tag}.pgm", evalviz.pgm_bytes(image))
            if corpus.speakers:
                stm = evalviz.speaker_token_map(level_labels[g], corpus.speakers)
                writer.add_bytes(f"viz/speaker_map_{tag}.pgm", evalviz.pgm_bytes(stm.intensities))
                writer.add_text(f"viz/speaker_map_{tag}.csv", stm.to_csv())
            _, _, f = evalviz.corpus_boundary_prf(level_labels[g], ref_bounds)
            grid_values[(g.m, g.n)] = f
        writer.add_text("viz/grid_boundary_f.csv", evalviz.grid_csv(grid_values))

    _run_stage(ctx, "viz", work)

