"""acoustok benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload demo|std-scale \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src, so the
checkout needs no install step.  Every pass runs in a fresh process
(bench/worker.py); this driver only starts them, checks what they report and
prints the result.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

--trace 0  end-to-end metrics of an untraced run: set-up time (median of
           five set-ups), peak RSS and the batch's real-time factor (its
           time, median over the batches, per second of input audio).  The
           batch repeats until S seconds have passed, and at least as often
           as workloads.MIN_BATCHES says.  Both times are scaled to a
           reference host speed (bench/hostspeed.py); the wall times are
           printed beside them.
--trace 1  per-layer metrics: stage times from the manifest of an untraced
           run, per-stage quality, kernel microbenchmarks, and the spans of a
           second, traced run of the same inputs.

Working files go to .bench_runs/ under the repository root.  See
bench/README.md for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
WORK = ROOT / ".bench_runs"
DEADLINE_S = 170.0
SETUP_REPEATS = 5
SETUP_PROBES = 50  # host-speed probes before and after each set-up

END_TO_END = [
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("batch_rtf", "s/s", "lower"),
]

STAGES = [f"stage.iter{k}.{s}_s" for k in (1, 2)
          for s in ("init", "mat_mr0", "mr1", "mat_mr1", "mdnn", "extract")]
STAGES += ["stage.std_s", "stage.eval_s"]
LEVELS = [f"m{m}_n{n}" for m in (3, 5) for n in (4, 6)]
QUALITY_SETS = [f"iter{k}.{name}" for k, o in ((1, "1st"), (2, "2nd"))
                for name in ("init", f"TOK-{o}_MR-0", "mr1", f"TOK-{o}_MR-1")] + ["final"]
KERNELS = [("log_density", "us"), ("segment_forward_ll", "us"), ("decode_utterance", "ms"),
           ("lda_sweep", "ms"), ("token_distance_matrix", "ms"), ("subsequence_dtw", "us"),
           ("frame_cost_matrix", "us")]

PER_LAYER = (
    [(name, "s", "lower") for name in STAGES]
    + [(f"tokenizer.run_level_s.{lv}", "s", "lower") for lv in LEVELS]
    + [("tokenizer.run_level_s.max", "s", "lower"),
       ("tokenizer.run_level_s.median", "s", "lower"),
       ("tokenizer.train_level_hmms_s", "s", "lower"),
       ("tokenizer.decode_level_s", "s", "lower"),
       ("tokenizer.corpus_log_likelihood_s", "s", "lower"),
       ("tokenizer.train_calls", "count", "lower"),
       ("tokenizer.log_density_calls", "count", "lower"),
       ("initialization.make_initial_labels_s", "s", "lower"),
       ("reinforce.fuse_s", "s", "lower"),
       ("reinforce.lda_fit_s", "s", "lower"),
       ("reinforce.lda_draws", "count", "lower"),
       ("mdnn.train_mdnn_s", "s", "lower"),
       ("mdnn.extract_bnf_s", "s", "lower"),
       ("mdnn.head_accuracy_min", "fraction", "higher"),
       ("retrieval.index_build_s", "s", "lower"),
       ("retrieval.kl_state_pairs", "count", "lower"),
       ("retrieval.token_scores_s", "s", "lower"),
       ("retrieval.frame_scores_s", "s", "lower"),
       ("retrieval.dtw_cells", "count", "lower"),
       ("retrieval.token_query_ms_p50", "ms", "lower"),
       ("retrieval.token_query_ms_tail", "ms", "lower"),
       ("retrieval.frame_query_ms_p50", "ms", "lower"),
       ("retrieval.frame_query_ms_tail", "ms", "lower"),
       ("corpus.load_corpus_s", "s", "lower"),
       ("corpus.load_corpus_calls", "count", "lower"),
       ("manifest.commit_s", "s", "lower"),
       ("manifest.is_complete_s", "s", "lower"),
       ("manifest.bytes_written", "bytes", "lower"),
       ("manifest.resume_s", "s", "lower"),
       ("manifest.resume_stages_rerun", "count", "lower"),
       ("evalviz.eval_s", "s", "lower")]
    + [(f"quality.{s}.{q}", "fraction", "higher") for s in QUALITY_SETS
       for q in ("boundary_f", "purity", "nmi")]
    + [("quality.map_token", "fraction", "higher"),
       ("quality.map_frame", "fraction", "higher"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.stage_coverage", "fraction", "higher")]
    + [m for name, unit in KERNELS for m in (
        (f"kernel.{name}_{unit}", unit, "lower"),
        (f"kernel.{name}.computed_ops", "count", "lower"),
        (f"kernel.{name}.computed_bytes", "bytes", "lower"))]
)

# spans whose self times are the per-layer metrics "<span>_s"
SELF_TIMED = (
    "tokenizer.train_level_hmms", "tokenizer.decode_level", "tokenizer.corpus_log_likelihood",
    "initialization.make_initial_labels", "reinforce.fuse", "reinforce.lda_fit",
    "mdnn.train_mdnn", "mdnn.extract_bnf", "retrieval.index_build", "retrieval.token_scores",
    "retrieval.frame_scores", "corpus.load_corpus", "manifest.commit", "manifest.is_complete",
    "evalviz.eval",
)


class PassFailed(RuntimeError):
    pass


def fail(message: str) -> int:
    print(f"bench/run.py: {message}", file=sys.stderr)
    return 2


def check_spec() -> str | None:
    """The metric catalogue above must match BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return f"cannot read BENCHMARK.json: {exc}"
    for key, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec.get(key, [])]
        if listed != catalogue:
            return f"BENCHMARK.json {key} does not match the catalogue in bench/run.py"
    return None


def code_digest() -> str:
    """sha256 over the package and benchmark sources: the key under which
    artifact digests of one code version are compared."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


class Runner:
    """Starts worker passes one at a time, each in a fresh process, within
    the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def __call__(self, *args) -> tuple[dict, float]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise PassFailed("out of time before " + " ".join(args[:2]))
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                                  cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise PassFailed("timed out: " + " ".join(args[:2])) from None
        wall = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise PassFailed(f"worker {' '.join(args[:2])} exited {proc.returncode}")
        try:
            return json.loads(lines[-1]), wall
        except ValueError:
            raise PassFailed(f"worker {' '.join(args[:2])} printed no result") from None


def setup_runs(run, workload: str, seed: int, dirs: list[Path]):
    """One set-up per directory, each in a fresh process; all must write
    identical inputs.  Returns the wall times, the same scaled to the
    reference speed by probes taken just before and after each set-up, the
    last set-up's report and whether the inputs agreed."""
    times, scaled, results = [], [], []
    for run_dir in dirs:
        probes = hostspeed.burst(SETUP_PROBES)
        result, wall = run("setup", workload, str(seed), str(run_dir))
        probes += hostspeed.burst(SETUP_PROBES)
        times.append(wall)
        scaled.append(wall * hostspeed.factor(probes))
        results.append(result)
    consistent = len({r["inputs_digest"] for r in results}) == 1
    return times, scaled, results[-1], consistent


def check_digest(workload: str, seed: int, digest: str) -> bool:
    """Runs of one code version on one workload and seed must produce the
    same artifact digest; the first run records it."""
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{code_digest()}:{workload}:{seed}"
    if key in known:
        return known[key] == digest
    known[key] = digest
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return True


def per_layer_metrics(untraced: dict, traced: dict) -> dict[str, float]:
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for stage, seconds in untraced.get("stage_s", {}).items():
        key = "stage." + stage.replace("/", ".") + "_s"
        if key in out:
            out[key] = seconds
    trace = traced["trace"]
    levels = {}
    for span, seconds in trace["inclusive"].items():
        if span.startswith("tokenizer.run_level."):
            levels[span.rsplit(".", 1)[1]] = seconds
    for level, seconds in levels.items():
        out[f"tokenizer.run_level_s.{level}"] = seconds
    if levels:
        out["tokenizer.run_level_s.max"] = max(levels.values())
        out["tokenizer.run_level_s.median"] = statistics.median(levels.values())
    for span in SELF_TIMED:
        out[f"{span}_s"] = trace["self"].get(span, 0.0)
    for counter, value in trace["counts"].items():
        out[counter] = float(value)
    for key in ("mdnn.head_accuracy_min", "manifest.resume_s", "manifest.resume_stages_rerun"):
        if key in untraced:
            out[key] = float(untraced[key])
    out.update(untraced.get("quality", {}))
    out.update({name: m["value"] for name, m in untraced.get("latency", {}).items()})
    out.update(untraced.get("kernels", {}))
    out["trace.overhead_s"] = traced["batch_ref_s"] - untraced["batch_ref_s"]
    stage_time = sum(v for k, v in trace["inclusive"].items() if k.startswith("stage.iter"))
    if "iterate_total_s" in traced:
        out["trace.stage_coverage"] = stage_time / traced["iterate_total_s"]
    else:
        # std-scale has no stages: its batches are the index builds and the queries
        spans = ("retrieval.index_build", "retrieval.token_scores", "retrieval.frame_scores")
        out["trace.stage_coverage"] = sum(trace["inclusive"].get(k, 0.0) for k in spans) \
            / traced["batches_total_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src/acoustok/__init__.py").is_file():
        return fail(f"no package source at {ROOT / 'src/acoustok'}; run from a full checkout")
    problem = check_spec()
    if problem:
        return fail(problem)

    started = time.monotonic()
    run = Runner(started + DEADLINE_S)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (WORK / "results").mkdir(exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "git_sha": git_sha(), "code_digest": code_digest()}
    checks = {}
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        if args.trace == 0:
            setup_times, setup_scaled, setup, checks["setup_deterministic"] = setup_runs(
                run, args.workload, args.seed, [work / f"setup{i}" for i in range(SETUP_REPEATS)])
            result, _ = run("measure", args.workload, str(args.seed),
                            str(work / f"setup{SETUP_REPEATS - 1}"), "--seconds", str(args.seconds),
                            "--min-batches", str(workloads.MIN_BATCHES[args.workload]))
            metrics["setup_s"] = {"value": statistics.median(setup_scaled), "unit": "s",
                                  "n": len(setup_scaled)}
            metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB", "n": 1}
            metrics["batch_rtf"] = {"value": result["batch_rtf"], "unit": "s/s",
                                    "n": result["batches"]}
            checks["digest_repeatable"] = check_digest(args.workload, args.seed, result["digest"])
            passes = [result]
            record["host_speed"] = result["host_speed"]
            record["report"] = {"setup_wall_s": {"value": statistics.median(setup_times),
                                                 "unit": "s", "n": len(setup_times)},
                                **result["report"], **result.get("latency", {})}
            record["quality"] = result["quality"]
        else:
            _, _, setup, checks["setup_deterministic"] = setup_runs(
                run, args.workload, args.seed, [work / "untraced", work / "traced"])
            batches = str(workloads.DETAIL_BATCHES[args.workload])
            untraced, _ = run("measure", args.workload, str(args.seed), str(work / "untraced"),
                              "--min-batches", batches, "--detail")
            traced, _ = run("measure", args.workload, str(args.seed), str(work / "traced"),
                            "--min-batches", batches, "--traced",
                            "--spans", str(work / "spans.jsonl"))
            checks["traced_digest_equal"] = untraced["digest"] == traced["digest"]
            checks["digest_repeatable"] = check_digest(args.workload, args.seed,
                                                       untraced["digest"])
            units = {name: unit for name, unit, _ in PER_LAYER}
            for name, value in per_layer_metrics(untraced, traced).items():
                metrics[name] = {"value": value, "unit": units[name]}
            passes = [untraced, traced]
        for result in passes:
            attempted += result["attempted"]
            failed += result["failed"]
        record.update(sizes=setup["sizes"], environment=passes[0]["environment"],
                      digest=passes[0]["digest"],
                      failed_stages=sorted({s for p in passes for s in p["failed_stages"]}))
    except PassFailed as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        checks["passes_completed"] = False
        attempted, failed = max(attempted, 1), max(attempted, 1)

    catalogue = END_TO_END if args.trace == 0 else PER_LAYER
    for name, unit, _ in catalogue:
        metrics.setdefault(name, {"value": 0.0, "unit": unit})
    correct = all(checks.values()) and failed == 0
    record.update(checks=checks, correct=correct, attempted=attempted, failed=failed,
                  metrics=metrics, elapsed_s=time.monotonic() - started)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for path in work.iterdir():
        if path.is_dir():
            shutil.rmtree(path)

    for name, unit, _ in catalogue:
        m = metrics[name]
        extra = "".join(f" {k}={m[k]}" for k in ("n", "percentile") if k in m)
        print(f"{name:44s} {m['value']:14.6g} {unit}{extra}")
    for name, m in record.get("report", {}).items():
        extra = "".join(f" {k}={m[k]}" for k in ("n", "percentile") if k in m)
        print(f"{name:44s} {m['value']:14.6g} {m['unit']}{extra}")
    for name, value in sorted(record.get("quality", {}).items()):
        print(f"{name:44s} {value:14.6g} fraction")
    print(f"checks: {json.dumps(checks)} digest: {record.get('digest')}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name]["value"], "unit": unit}
                                  for name, unit, _ in catalogue}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
