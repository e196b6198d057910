"""One benchmark pass in a fresh process; prints one JSON object.

    python3 bench/worker.py setup   WORKLOAD SEED RUN_DIR
    python3 bench/worker.py measure WORKLOAD SEED RUN_DIR --seconds S
                                    [--min-batches N] [--traced] [--detail]
                                    [--spans PATH]

`setup` writes the workload's inputs into RUN_DIR.  `measure` runs the
workload's batch on them, repeating it until --seconds have passed and at
least N times, and checks the outputs.  While it measures, a timer samples
the host's speed (hostspeed.py).  --traced wraps the package's public
functions with the span recorder (tracing.py).  --detail adds the per-stage
quality rows, the network's head accuracy and the kernel microbenchmarks.
On demo, --traced and --detail also run closed-loop query rounds, and every
untraced pass ends with the resume check.  run.py drives these
passes; see bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from acoustok import retrieval  # noqa: E402
from acoustok.cli import main as cli  # noqa: E402
from acoustok.config import load_config  # noqa: E402
from acoustok.corpus import Corpus, FeatureSequence, load_corpus, read_ground_truth  # noqa: E402
from acoustok.evalviz import cluster_purity_nmi, corpus_boundary_prf, frame_label_pairs  # noqa: E402
from acoustok.labels import read_labels_jsonl, validate_label_set  # noqa: E402
from acoustok.manifest import Manifest  # noqa: E402
from acoustok.pipeline import features_dir, ordinal, tok_dir  # noqa: E402
from acoustok.tokenizer import Granularity, read_matm  # noqa: E402

# Query latencies are reported as p50 and the tail: the highest percentile
# with at least TAIL_BEYOND samples beyond it.  The per-layer passes take at
# least MIN_SAMPLES samples per mode.
TAIL_BEYOND = 10
MIN_SAMPLES = 50
MODES = ("token", "frame")


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                info["threads"] = int(fn())
                return info
    return info


def environment() -> dict:
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _quality(labels, truth) -> tuple[float, float, float]:
    ref_bounds = {utt: truth.boundaries(utt) for utt in truth.spans}
    _, _, f = corpus_boundary_prf(labels, ref_bounds)
    purity, nmi = cluster_purity_nmi(*frame_label_pairs(labels, truth.label_set()))
    return f, purity, nmi


def _mean_quality(label_sets, truth, prefix: str) -> dict[str, float]:
    rows = np.array([_quality(labels, truth) for labels in label_sets])
    return {f"{prefix}.{key}": float(v)
            for key, v in zip(("boundary_f", "purity", "nmi"), rows.mean(axis=0))}


def _ranking_ok(ranked, doc_ids: set[str]) -> bool:
    ids = [doc for doc, _ in ranked.entries]
    scores = [score for _, score in ranked.entries]
    return (len(ids) == len(doc_ids) and set(ids) == doc_ids
            and not np.isnan(scores).any() and scores == sorted(scores))


def query_rounds(index, examples, rounds: int):
    """Closed loop: each example in token mode, then in frame mode, `rounds`
    times over; each query starts when the previous one has returned.
    Returns per-mode latencies (s), the first-round ranking of each example
    per mode, and the number of malformed rankings."""
    doc_ids = set(index.doc_tokens)
    latencies = {mode: [] for mode in MODES}
    first = {mode: {} for mode in MODES}
    bad = 0
    for _ in range(rounds):
        for qid, tokens, features in examples:
            for mode in MODES:
                t0 = time.perf_counter()
                ranked = retrieval.rank_documents(index, qid, query_tokens=tokens,
                                                  query_features=features, mode=mode)
                latencies[mode].append(time.perf_counter() - t0)
                bad += not _ranking_ok(ranked, doc_ids)
                first[mode].setdefault(qid, ranked)
    return latencies, first, bad


def latency_metrics(latencies: dict[str, list[float]]) -> dict:
    out = {}
    for mode, values in latencies.items():
        ms = np.asarray(values) * 1e3
        tail = max(50, int(100 * (1 - TAIL_BEYOND / len(ms))))
        for name, pct in (("p50", 50), ("tail", tail)):
            out[f"retrieval.{mode}_query_ms_{name}"] = {
                "value": float(np.percentile(ms, pct)), "unit": "ms", "n": len(ms),
                "percentile": pct}
    return out


def input_seconds(corpus) -> float:
    """Seconds of audio the corpus stands for: frames times frame shift."""
    return float(sum(seq.n_frames * seq.frame_shift for seq in corpus))


def _timed(values: list[float]) -> dict:
    return {"value": float(np.median(values)), "unit": "s", "n": len(values)}


# ---------------------------------------------------------------------------
# pipeline workload (demo)
# ---------------------------------------------------------------------------

def _cut(utt: str, level_labels, seq, frames: int):
    """The first `frames` frames of an utterance, and at each level the
    tokens of the segments that start inside them."""
    tokens = {g: [tok for tok, start, _ in labels[utt].segments if start < frames]
              for g, labels in level_labels.items()}
    cut = FeatureSequence(seq.frames[:frames], seq.frame_shift, seq.frame_length, utt)
    return tokens, cut


def fixed_length_queries(index, level_labels, corpus):
    """Every utterance as a spoken example of QUERY_FRAMES frames, and an
    index over the same documents cut to DOC_FRAMES frames, reusing the
    index's KL tables (see workloads.py)."""
    docs = {u: _cut(u, level_labels, corpus[u], workloads.DOC_FRAMES) for u in index.doc_tokens}
    cut_index = retrieval.RetrievalIndex(index.distances,
                                         {u: tokens for u, (tokens, _) in docs.items()},
                                         {u: seq for u, (_, seq) in docs.items()})
    examples = [(u, *_cut(u, level_labels, corpus[u], workloads.QUERY_FRAMES))
                for u in corpus.ids()]
    return cut_index, examples


def _expected_stages(cfg) -> list[str]:
    keys = []
    for k in range(1, cfg.iterations + 1):
        keys += [f"iter{k}/init", f"iter{k}/mat_mr0"]
        for r in range(1, cfg.mr_rounds + 1):
            keys += [f"iter{k}/mr{r}", f"iter{k}/mat_mr{r}"]
        keys += [f"iter{k}/mdnn", f"iter{k}/extract"]
    return keys + ["std", "eval"]


def _label_files(cfg, run_dir: Path):
    """(producing stage, label set name, [(n, path)]) for every label set the
    pipeline writes: each iteration's init, MR and per-level MAT labels."""
    levels = [Granularity(m, n) for m in cfg.grid.temporal for n in cfg.grid.phonetic]
    for k in range(1, cfg.iterations + 1):
        sets = [(f"iter{k}/init", "init", [(n, f"iter{k}/init/labels_n{n}.jsonl")
                                          for n in cfg.grid.phonetic])]
        for r in range(0, cfg.mr_rounds + 1):
            if r:
                sets.append((f"iter{k}/mr{r}", f"mr{r}",
                             [(n, f"iter{k}/mr{r}/labels_n{n}.jsonl") for n in cfg.grid.phonetic]))
            base = tok_dir(k, r)
            sets.append((f"iter{k}/mat_mr{r}", f"TOK-{ordinal(k)}_MR-{r}",
                         [(g.n, f"{base}/labels_m{g.m}_n{g.n}.jsonl") for g in levels]))
        for stage, name, files in sets:
            yield stage, f"iter{k}.{name}", [(n, run_dir / rel) for n, rel in files]


def _rankings_ok(path: Path, queries, doc_ids: set[str]) -> bool:
    per_query: dict[str, list[str]] = {}
    with open(path) as f:
        next(f)
        for line in f:
            q, doc, _, _ = line.rstrip("\n").split("\t")
            per_query.setdefault(q, []).append(doc)
    return (set(per_query) == set(queries)
            and all(len(d) == len(doc_ids) and set(d) == doc_ids for d in per_query.values()))


def _check_pipeline_run(cfg, run_dir: Path, codes: dict) -> tuple[set, dict]:
    """Failed stages of one run, and its label sets by name."""
    manifest_stages = {e["stage"] for e in Manifest(run_dir).entries()}
    failed = {key for key in _expected_stages(cfg) if key not in manifest_stages}
    failed |= {c for c, code in codes.items() if code != 0 and c in ("std", "eval")}
    counts = load_corpus(run_dir / "features").frame_counts()
    label_sets = {}
    for stage, name, files in _label_files(cfg, run_dir):
        try:
            sets = []
            for n, path in files:
                labels = read_labels_jsonl(path)
                validate_label_set(labels, counts, n)
                sets.append(labels)
            label_sets[name] = sets
        except (OSError, ValueError):
            failed.add(stage)
    queries = list(cfg.retrieval.queries)
    try:
        if not _rankings_ok(run_dir / "std/rankings.tsv", queries,
                            {u for u in counts if u not in queries}):
            failed.add("std")
    except (OSError, ValueError, StopIteration):
        failed.add("std")
    return failed, label_sets


def measure_pipeline(args, tracer, sampler) -> dict:
    """`iterate`, `std` and `eval` through the CLI entry point, each batch on
    a fresh copy of the set-up run directory, repeated until --seconds have
    passed and at least --min-batches times."""
    inputs = Path(args.run_dir)
    config = inputs.parent / f"{inputs.name}.ini"
    cfg = load_config(config)

    # keep the index the std stage builds, for the query rounds
    indexes = []
    build = retrieval.RetrievalIndex.__dict__["build"].__func__

    def keep_index(cls, *args, **kwargs):
        indexes.append(build(cls, *args, **kwargs))
        return indexes[-1]

    retrieval.RetrievalIndex.build = classmethod(keep_index)
    if tracer is not None:
        import tracing
        tracing.install(tracer)

    runs, scaled = [], []
    start = time.perf_counter()
    while len(runs) < args.min_batches or time.perf_counter() - start < args.seconds:
        run_dir = inputs.with_name(f"{inputs.name}-batch{len(runs)}")
        shutil.copytree(inputs, run_dir)
        timings, codes = {}, {}
        begin = time.perf_counter()
        for command in ("iterate", "std", "eval"):
            t0 = time.perf_counter()
            codes[command] = cli([command, "--config", str(config), "--out", str(run_dir)])
            timings[command] = time.perf_counter() - t0
        runs.append((run_dir, timings, codes))
        scaled.append(sampler.scaled(begin, time.perf_counter(), sum(timings.values())))

    audio_s = input_seconds(load_corpus(inputs / "features"))
    checks = [_check_pipeline_run(cfg, run_dir, codes) for run_dir, _, codes in runs]
    digests = [_sha256_json(Manifest(run_dir).output_hashes()) for run_dir, _, _ in runs]
    label_sets = checks[0][1]
    out = {"batch_ref_s": float(np.median(scaled)),
           "batch_rtf": float(np.median(scaled)) / audio_s,
           "batch_s": float(np.median([sum(t.values()) for _, t, _ in runs])),
           "iterate_total_s": sum(t["iterate"] for _, t, _ in runs),
           "batches": len(runs), "digest": digests[0],
           "attempted": len(runs) * len(_expected_stages(cfg)),
           # a repeated batch must reproduce the first one's artifacts
           "failed": sum(len(f) for f, _ in checks) + sum(d != digests[0] for d in digests),
           "failed_stages": sorted(set().union(*(f for f, _ in checks)))}
    out["report"] = {f"{c}_s": _timed([t[c] for _, t, _ in runs])
                     for c in ("iterate", "std", "eval")}
    out["report"]["batch_s"] = _timed([sum(t.values()) for _, t, _ in runs])
    out["report"]["batch_ref_s"] = _timed(scaled)
    out["report"]["input_audio_s"] = {"value": audio_s, "unit": "s", "n": 1}

    run_dir = runs[0][0]
    manifest = Manifest(run_dir)
    out["stage_s"] = {e["stage"]: e["elapsed_s"] for e in manifest.entries()
                      if e["stage"] != "synth"}
    try:
        with open(run_dir / "eval/levels.csv") as f:
            levels = list(csv.DictReader(f))
        out["quality"] = {f"quality.final.{k}": float(np.mean([float(r[k]) for r in levels]))
                          for k in ("boundary_f", "purity", "nmi")}
    except (OSError, KeyError, ValueError):
        out["quality"] = {}

    if (args.detail or tracer is not None) and indexes:
        # latency of queries cut to a fixed length, against the std stage's documents
        final = tok_dir(cfg.iterations, cfg.mr_rounds)
        corpus = load_corpus(run_dir / features_dir(cfg.iterations))
        final_labels = {g: read_labels_jsonl(run_dir / final / f"labels_m{g.m}_n{g.n}.jsonl")
                        for g in indexes[0].distances}
        index, examples = fixed_length_queries(indexes[0], final_labels, corpus)
        latencies, _, bad = query_rounds(index, examples, -(-MIN_SAMPLES // len(examples)))
        out["latency"] = latency_metrics(latencies)
        out["attempted"] += sum(len(v) for v in latencies.values())
        out["failed"] += bad

    if tracer is None:
        # re-invoking iterate on the completed run must re-run no stage
        before = len(manifest.entries())
        t0 = time.perf_counter()
        code = cli(["iterate", "--config", str(config), "--out", str(run_dir)])
        out["manifest.resume_s"] = time.perf_counter() - t0
        out["manifest.resume_stages_rerun"] = len(manifest.entries()) - before
        out["attempted"] += 1
        out["failed"] += int(code != 0 or out["manifest.resume_stages_rerun"] != 0)
    if args.detail:
        truth = read_ground_truth(run_dir / "truth.jsonl")
        for name, sets in label_sets.items():
            out["quality"].update(_mean_quality(sets, truth, f"quality.{name}"))
        with open(run_dir / "iter1/mdnn_log.csv") as f:
            last = list(csv.reader(f))[-1]
        out["mdnn.head_accuracy_min"] = min(float(v) for v in last[2:])
    return out


# ---------------------------------------------------------------------------
# std-scale
# ---------------------------------------------------------------------------

def measure_std_scale(args, tracer, sampler) -> dict:
    """`RetrievalIndex.build`, then one closed-loop round over the queries
    in both modes; the batch repeats until --seconds have passed, and at
    least --min-batches times."""
    run_dir = Path(args.run_dir)
    corpus = load_corpus(run_dir / "features")
    truth = read_ground_truth(run_dir / "truth.jsonl")
    relevance = json.loads((run_dir / "relevance.json").read_text())
    counts = corpus.frame_counts()
    models, labels, failed = {}, {}, 0
    for m in workloads.STD_TEMPORAL:
        for n in workloads.STD_PHONETIC:
            g = Granularity(m, n)
            models[g] = read_matm(run_dir / f"model_m{m}_n{n}.matm")
            labels[g] = read_labels_jsonl(run_dir / f"labels_m{m}_n{n}.jsonl")
            try:
                validate_label_set(labels[g], counts, n)
            except ValueError:
                failed += 1
    doc_ids = [u for u in corpus.ids() if u.startswith("d")]
    query_ids = [u for u in corpus.ids() if u.startswith("q")]
    doc_labels = {g: {u: labels[g][u] for u in doc_ids} for g in labels}
    doc_corpus = Corpus([corpus[u] for u in doc_ids])
    examples = [(q, {g: labels[g][q].token_ids() for g in labels}, corpus[q]) for q in query_ids]

    if tracer is not None:
        import tracing
        tracing.install(tracer)
    batches = []
    start = time.perf_counter()
    while len(batches) < args.min_batches or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        index = retrieval.RetrievalIndex.build(models, doc_labels, doc_corpus)
        t1 = time.perf_counter()
        latencies, first, bad = query_rounds(index, examples, 1)
        t2 = time.perf_counter()
        rankings = {mode: [[q, [[d, repr(s)] for d, s in first[mode][q].entries]]
                           for q in query_ids] for mode in MODES}
        tables = {f"m{g.m}_n{g.n}": hashlib.sha256(S.tobytes()).hexdigest()
                  for g, S in index.distances.items()}
        batches.append({"build": t1 - t0, "search": t2 - t1, "latencies": latencies,
                        "scaled": sampler.scaled(t0, t2, t2 - t0),
                        "first": first, "bad": bad,
                        "digest": _sha256_json({"kl_tables": tables, "rankings": rankings})})

    digests = [b["digest"] for b in batches]
    audio_s = input_seconds(corpus)
    out = {"batch_ref_s": float(np.median([b["scaled"] for b in batches])),
           "batch_rtf": float(np.median([b["scaled"] for b in batches])) / audio_s,
           "batch_s": float(np.median([b["build"] + b["search"] for b in batches])),
           "batches_total_s": sum(b["build"] + b["search"] for b in batches),
           "batches": len(batches), "digest": digests[0], "failed_stages": []}
    out["attempted"] = len(batches) + sum(
        len(v) for b in batches for v in b["latencies"].values())
    out["failed"] = failed + sum(b["bad"] for b in batches) + sum(d != digests[0] for d in digests)
    out["latency"] = latency_metrics(
        {mode: [x for b in batches for x in b["latencies"][mode]] for mode in MODES})
    out["report"] = {"index_build_s": _timed([b["build"] for b in batches]),
                     "search_s": _timed([b["search"] for b in batches]),
                     "batch_s": _timed([b["build"] + b["search"] for b in batches]),
                     "batch_ref_s": _timed([b["scaled"] for b in batches]),
                     "input_audio_s": {"value": audio_s, "unit": "s", "n": 1}}
    out["quality"] = {
        f"quality.map_{mode}": retrieval.mean_average_precision(
            [batches[0]["first"][mode][q] for q in query_ids], relevance)
        for mode in MODES}
    if args.detail:
        out["quality"].update(_mean_quality(list(labels.values()), truth, "quality.final"))
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("action", choices=("setup", "measure"))
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("run_dir")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-batches", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--detail", action="store_true")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    if args.action == "setup":
        run_dir = Path(args.run_dir)
        sizes = workloads.setup(args.workload, args.seed, run_dir)
        files = sorted(p for p in run_dir.rglob("*") if p.is_file()
                       and p.name not in ("manifest.jsonl", "config.snapshot.ini"))
        digest = _sha256_json({str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
                               for p in files})
        print(json.dumps({"sizes": sizes, "inputs_digest": digest}))
        return 0

    tracer = None
    if args.traced:
        import tracing
        tracer = tracing.Tracer()
    measure = measure_std_scale if args.workload == "std-scale" else measure_pipeline
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        out = measure(args, tracer, sampler)
    finally:
        sampler.stop()
    probes = [p for _, p in sampler.samples]
    out["host_speed"] = {"probes": len(probes), "probe_median_s": statistics.median(probes),
                         "factor": hostspeed.factor(probes)}
    if args.detail:
        import kernels
        out["kernels"] = kernels.run()
    if tracer is not None:
        out["trace"] = {"inclusive": tracer.totals(inclusive=True),
                        "self": tracer.totals(inclusive=False),
                        "counts": dict(tracer.counts)}
        if args.spans:
            tracer.write(args.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["environment"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
