"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the acoustok package from outside:
each call becomes a span (name, start, end, parent span) and selected calls
also bump counters.  Spans stay in memory until `write`; `self_times`
subtracts from each span the time its direct children cover.  Nothing here
is imported by the untraced run, so that run pays no cost.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict


def binder(fn):
    """(args, kwargs) -> {parameter: value}, defaults applied."""
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name, count=None):
        """Wrap fn so each call records a span called `name`, or
        `name(args, kwargs)` when callable, and runs `count(args, kwargs,
        counts)` first.  With name=None only the counter runs: for functions
        called too often to span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(args, kwargs, self.counts)
            if name is None:
                return fn(*args, **kwargs)
            span = {"id": len(self.spans),
                    "name": name(args, kwargs) if callable(name) else name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def patch_function(self, module, attr: str, name, count=None):
        """Replace module.attr, and every `from module import attr` copy held
        by another loaded acoustok module, with a recording wrapper."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("acoustok"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name, count=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(raw.__func__, name, count)))
        else:
            setattr(cls, attr, self.wrap(raw, name, count))

    def self_times(self) -> list[float]:
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        return [s["end"] - s["start"] - child_time[s["id"]] for s in self.spans]

    def totals(self, inclusive: bool) -> dict[str, float]:
        """Seconds per span name: inclusive durations or self times."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            out[span["name"]] += (span["end"] - span["start"]) if inclusive else own
        return dict(out)

    def write(self, path):
        with open(path, "w") as f:
            for span, own in zip(self.spans, self.self_times()):
                f.write(json.dumps({**span, "self": own}) + "\n")
            f.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _increment(key: str):
    def count(args, kwargs, counts):
        counts[key] += 1
    return count


def install(tracer: Tracer):
    """Wrap the public functions of every layer the per-layer metrics name."""
    from acoustok import corpus, evalviz, initialization, manifest, mdnn
    from acoustok import pipeline, reinforce, retrieval, tokenizer

    stage_keys = {
        "cmd_init": lambda b: f"iter{b['iteration']}/init",
        "cmd_mat": lambda b: f"iter{b['iteration']}/mat_mr{b['mr_round']}",
        "cmd_mr": lambda b: f"iter{b['iteration']}/mr{b['mr_round']}",
        "cmd_mdnn": lambda b: f"iter{b['iteration']}/mdnn",
        "cmd_extract": lambda b: f"iter{b['iteration']}/extract",
        "cmd_std": lambda b: "std",
        "cmd_eval": lambda b: "eval",
    }
    for attr, key in stage_keys.items():
        bind = binder(getattr(pipeline, attr))
        tracer.patch_function(pipeline, attr,
                              name=lambda a, k, key=key, bind=bind: "stage." + key(bind(a, k)))
    tracer.patch_function(pipeline, "cmd_iterate", name="iterate")

    bind_level = binder(tokenizer.run_level)

    def level_name(args, kwargs):
        g = bind_level(args, kwargs)["g"]
        return f"tokenizer.run_level.m{g.m}_n{g.n}"

    tracer.patch_function(tokenizer, "run_mat", name="tokenizer.run_mat")
    tracer.patch_function(tokenizer, "run_level", name=level_name)
    tracer.patch_function(tokenizer, "train_level_hmms", name="tokenizer.train_level_hmms",
                          count=_increment("tokenizer.train_calls"))
    tracer.patch_function(tokenizer, "decode_level", name="tokenizer.decode_level")
    tracer.patch_function(tokenizer, "corpus_log_likelihood",
                          name="tokenizer.corpus_log_likelihood")
    tracer.patch_method(tokenizer.GaussState, "log_density", name=None,
                        count=_increment("tokenizer.log_density_calls"))

    tracer.patch_function(initialization, "make_initial_labels",
                          name="initialization.make_initial_labels")

    bind_lda = binder(reinforce.lda_fit)

    def count_draws(args, kwargs, counts):
        b = bind_lda(args, kwargs)
        iters = (b["cfg"] or reinforce.ReinforceConfig()).lda_iters
        counts["reinforce.lda_draws"] += sum(len(doc) for doc in b["docs"]) * iters

    tracer.patch_function(reinforce, "fuse_boundaries", name="reinforce.fuse")
    tracer.patch_function(reinforce, "build_documents", name="reinforce.fuse")
    tracer.patch_function(reinforce, "lda_fit", name="reinforce.lda_fit", count=count_draws)

    tracer.patch_function(mdnn, "train_mdnn", name="mdnn.train_mdnn")
    tracer.patch_function(mdnn, "extract_bnf", name="mdnn.extract_bnf")

    def count_cells(args, kwargs, counts):
        cost = args[0] if args else kwargs["cost"]
        counts["retrieval.dtw_cells"] += int(cost.shape[0] * cost.shape[1])

    tracer.patch_method(retrieval.RetrievalIndex, "build", name="retrieval.index_build")
    tracer.patch_function(retrieval, "state_kl", name=None,
                          count=_increment("retrieval.kl_state_pairs"))
    tracer.patch_function(retrieval, "token_scores", name="retrieval.token_scores")
    tracer.patch_function(retrieval, "frame_scores", name="retrieval.frame_scores")
    tracer.patch_function(retrieval, "subsequence_dtw", name=None, count=count_cells)

    tracer.patch_function(corpus, "load_corpus", name="corpus.load_corpus",
                          count=_increment("corpus.load_corpus_calls"))

    def count_bytes(args, kwargs, counts):
        counts["manifest.bytes_written"] += sum(len(v) for v in args[0].outputs.values())

    tracer.patch_method(manifest.StageWriter, "commit", name="manifest.commit",
                        count=count_bytes)
    tracer.patch_method(manifest.Manifest, "is_complete", name="manifest.is_complete")

    for attr in ("corpus_boundary_prf", "frame_label_pairs", "cluster_purity_nmi"):
        tracer.patch_function(evalviz, attr, name="evalviz.eval")
