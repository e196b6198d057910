"""The benchmark's workloads: how each one makes its inputs from a seed.

demo         the README demo.ini verbatim, with [run] seed set to the workload
             seed: 12 utterances, d=6, grid 3 5 x 4 6, 2 iterations.
std-scale    retrieval only: documents with planted query token strings,
             labels derived from the true spans and flat-start two-component
             level models, so no MAT code runs.

Every workload is one closed-loop client: stages run one after another, and
each query is issued only after the previous one returns.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DEMO_INI = """\
[run]
seed = {seed}
iterations = 2
mr_rounds = 1

[grid]
temporal = 3 5
phonetic = 4 6

[synth]
n_tokens = 4
dim = 6
n_utterances = 12

[tokenizer]
em_iters = 5
outer_iters = 3

[mdnn]
hidden = 32
bottleneck = 8
epochs = 3

[retrieval]
queries = utt000
"""

PIPELINE_CONFIGS = {"demo": DEMO_INI}

# The pipeline workloads' query rounds cut query examples and documents to
# fixed lengths, so the cost of a query does not depend on the utterance
# lengths a seed happens to draw.  24 frames is the shortest utterance the
# synthetic defaults can make; few are shorter than 36.
QUERY_FRAMES = 24
DOC_FRAMES = 36
WORKLOADS = ("demo", "std-scale")

# std-scale sizes
STD_TRUE_TOKENS = 30
STD_DIM = 39
STD_QUERIES = 20
STD_QUERY_TOKENS = 3
STD_PLANTED_PER_QUERY = 2
STD_DOCUMENTS = 60
STD_TEMPORAL = (3, 5)
STD_PHONETIC = (30, 50)

# Batches per measuring pass at the least.  A pipeline batch is iterate +
# std + eval; a std-scale batch is the index build and one closed-loop round
# over the queries in each mode.  The per-layer pass of std-scale runs three,
# so each mode has 60 latency samples; demo's query rounds bring their own
# samples.
MIN_BATCHES = {"demo": 1, "std-scale": 2}
DETAIL_BATCHES = {"demo": 1, "std-scale": 3}


def _lengths(values) -> dict:
    values = list(values)
    return {"min": int(min(values)), "mean": float(np.mean(values)), "max": int(max(values))}


# ---------------------------------------------------------------------------
# pipeline workloads
# ---------------------------------------------------------------------------

def setup_pipeline(workload: str, seed: int, run_dir: Path) -> dict:
    """Write the config and synthesize the corpus into a fresh run directory."""
    from acoustok.cli import main
    from acoustok.config import load_config
    from acoustok.corpus import load_corpus

    config = run_dir.parent / f"{run_dir.name}.ini"
    config.write_text(PIPELINE_CONFIGS[workload].format(seed=seed))
    if main(["synth", "--config", str(config), "--out", str(run_dir)]) != 0:
        raise RuntimeError(f"{workload}: synth failed")
    cfg = load_config(config)
    counts = load_corpus(run_dir / "features").frame_counts()
    queries = list(cfg.retrieval.queries)
    docs = [u for u in counts if u not in queries]
    return {
        "utterances": len(counts),
        "frames": sum(counts.values()),
        "dim": cfg.synth.dim,
        "grid": [list(cfg.grid.temporal), list(cfg.grid.phonetic)],
        "iterations": cfg.iterations,
        "mr_rounds": cfg.mr_rounds,
        "documents": len(docs),
        "queries": len(queries),
        "document_frames": _lengths(counts[u] for u in docs),
        "query_frames": _lengths(counts[u] for u in queries),
        "query_phase": {"examples": len(counts), "example_frames": QUERY_FRAMES,
                        "documents": len(docs), "document_frames": DOC_FRAMES},
    }


# ---------------------------------------------------------------------------
# std-scale
# ---------------------------------------------------------------------------

def _random_tokens(rng, length: int, avoid_first=None, avoid_last=None) -> list[int]:
    seq: list[int] = []
    while len(seq) < length:
        t = int(rng.integers(STD_TRUE_TOKENS))
        if seq and t == seq[-1]:
            continue
        if not seq and t == avoid_first:
            continue
        if len(seq) == length - 1 and t == avoid_last:
            continue
        seq.append(t)
    return seq


def _contains(seq: list[int], sub: list[int]) -> bool:
    k = len(sub)
    return any(seq[i:i + k] == sub for i in range(len(seq) - k + 1))


def std_scale_sequences(seed: int):
    """Query token strings, and documents of which exactly the planted ones
    contain each query's string."""
    rng = np.random.default_rng([seed, 1])
    queries: list[list[int]] = []
    while len(queries) < STD_QUERIES:
        q = _random_tokens(rng, STD_QUERY_TOKENS)
        if q not in queries:
            queries.append(q)
    planted = {}
    slots = rng.permutation(STD_DOCUMENTS)[:STD_QUERIES * STD_PLANTED_PER_QUERY]
    for i, doc in enumerate(slots):
        planted[int(doc)] = i // STD_PLANTED_PER_QUERY
    documents: list[list[int]] = []
    for d in range(STD_DOCUMENTS):
        while True:
            if d in planted:
                q = queries[planted[d]]
                prefix = _random_tokens(rng, int(rng.integers(1, 3)), avoid_last=q[0])
                suffix = _random_tokens(rng, int(rng.integers(1, 3)), avoid_first=q[-1])
                seq = prefix + q + suffix
            else:
                seq = _random_tokens(rng, int(rng.integers(5, 8)))
            hits = [i for i, q in enumerate(queries) if _contains(seq, q)]
            if hits == ([planted[d]] if d in planted else []):
                break
        documents.append(seq)
    relevance = {
        f"q{i:02d}": {f"d{d:03d}": int(planted.get(d) == i) for d in range(STD_DOCUMENTS)}
        for i in range(STD_QUERIES)
    }
    return queries, documents, relevance


def _level_labels(truth, n: int, utt_index: dict[str, int]):
    """Per-level labels from the true spans.  Where the level has more tokens
    than the truth, a true token is split in two by utterance parity, as a
    finer phonetic inventory would split it."""
    from acoustok.labels import TokenLabelSequence

    labels = {}
    for utt, spans in truth.spans.items():
        segs = []
        for token, start, end in spans:
            if token + STD_TRUE_TOKENS < n and utt_index[utt] % 2:
                token += STD_TRUE_TOKENS
            segs.append((token, start, end))
        labels[utt] = TokenLabelSequence(utt, segs)
    return labels


def setup_std_scale(seed: int, run_dir: Path) -> dict:
    """Synthesize documents and queries, derive per-level labels, and write
    paper-width two-component level models."""
    from acoustok.corpus import SynthSpec, save_corpus, synthesize_corpus, write_ground_truth
    from acoustok.labels import labels_to_jsonl
    from acoustok.tokenizer import Granularity, LevelModel, TokenHmm, flat_start_model, matm_bytes

    queries, documents, relevance = std_scale_sequences(seed)
    sequences = {f"q{i:02d}": q for i, q in enumerate(queries)}
    sequences.update({f"d{d:03d}": seq for d, seq in enumerate(documents)})
    spec = SynthSpec(n_tokens=STD_TRUE_TOKENS, states_per_token=3, dim=STD_DIM,
                     token_sequences=sequences)
    corpus, truth = synthesize_corpus(spec, seed)
    run_dir.mkdir(parents=True)
    save_corpus(run_dir / "features", corpus)
    write_ground_truth(run_dir / "truth.jsonl", truth)
    utt_index = {utt: i for i, utt in enumerate(corpus.ids())}
    for m in STD_TEMPORAL:
        for n in STD_PHONETIC:
            labels = _level_labels(truth, n, utt_index)
            flat = flat_start_model(corpus, labels, Granularity(m, n))
            model = LevelModel(flat.granularity, [
                TokenHmm(h.token_id, [s.split() for s in h.states], h.transitions.copy())
                for h in flat.hmms
            ], flat.prior)
            (run_dir / f"labels_m{m}_n{n}.jsonl").write_text(labels_to_jsonl(labels))
            (run_dir / f"model_m{m}_n{n}.matm").write_bytes(matm_bytes(model))
    (run_dir / "relevance.json").write_text(json.dumps(relevance, sort_keys=True))
    counts = corpus.frame_counts()
    doc_ids = [u for u in counts if u.startswith("d")]
    query_ids = [u for u in counts if u.startswith("q")]
    return {
        "utterances": len(counts),
        "frames": sum(counts.values()),
        "dim": STD_DIM,
        "grid": [list(STD_TEMPORAL), list(STD_PHONETIC)],
        "true_tokens": STD_TRUE_TOKENS,
        "documents": len(doc_ids),
        "queries": len(query_ids),
        "planted_per_query": STD_PLANTED_PER_QUERY,
        "document_frames": _lengths(counts[u] for u in doc_ids),
        "query_frames": _lengths(counts[u] for u in query_ids),
        "document_tokens": _lengths(len(s) for s in documents),
        "query_tokens": STD_QUERY_TOKENS,
    }


def setup(workload: str, seed: int, run_dir: Path) -> dict:
    if workload == "std-scale":
        return setup_std_scale(seed, run_dir)
    return setup_pipeline(workload, seed, run_dir)
