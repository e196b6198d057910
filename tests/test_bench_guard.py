"""The benchmark's hold on the package: bench/ builds the std-scale inputs
with package functions, in its traced mode wraps package functions and
methods by name, and times kernels through package functions.  A refactor
that breaks any of these fails here; the traced mode runs in a fresh
process, since it patches the package in place."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from acoustok import tokenizer

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
from pathlib import Path
sys.path[:0] = [{bench!r}, {src!r}]
import tracing, workloads
from acoustok.tokenizer import read_matm

run_dir = Path({tmp!r}) / "run"
sizes = workloads.setup("std-scale", 1, run_dir)
models = {{}}
for path in sorted(run_dir.glob("*.matm")):
    model = read_matm(path)
    g = model.granularity
    models[path.name] = [g.m, g.n, sorted({{s.n_components for h in model.hmms
                                            for s in h.states}})]
tracing.install(tracing.Tracer())
print(json.dumps({{"sizes": sizes, "models": models}}))
"""


def test_std_scale_setup_and_tracing_run_on_the_package(tmp_path):
    probe = PROBE.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"), tmp=str(tmp_path))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.splitlines()[-1])
    assert out["models"] == {f"model_m{m}_n{n}.matm": [m, n, [2]]
                             for m in (3, 5) for n in (30, 50)}
    assert out["sizes"]["documents"] == 60 and out["sizes"]["queries"] == 20


def test_kernel_microbenchmarks_run_on_the_package(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_kernels", ROOT / "bench" / "kernels.py")
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    # the emission tables each timed callback builds: the MAT kernels must
    # time the level's table, as the pipeline builds it
    tables, per_callback = [], []
    real_table = tokenizer._emission_table

    def counted_table(*args):
        tables.append(None)
        return real_table(*args)

    def one_call(fn, *args, **kwargs):
        before = len(tables)
        fn()
        per_callback.append(len(tables) - before)
        return 1.0

    monkeypatch.setattr(tokenizer, "_emission_table", counted_table)
    monkeypatch.setattr(kernels, "_time_per_call", one_call)
    out = kernels.run()
    spec_metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(out) == {m["name"] for m in spec_metrics if m["name"].startswith("kernel.")}
    assert all(value > 0 for value in out.values())
    # each kernel records its time first, in the order it was timed
    timed = [name.split(".")[1].rsplit("_", 1)[0] for name in out if name.count(".") == 1]
    tables_of = dict(zip(timed, per_callback, strict=True))
    for name in ("log_density", "segment_forward_ll", "decode_utterance"):
        assert tables_of[name] == 1, name
