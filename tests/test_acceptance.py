"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every test pins the tolerance and the runtime budget it must meet.
"""

import time

import numpy as np
import pytest

from acoustok.cli import main
from acoustok.corpus import SynthSpec, synthesize_corpus
from acoustok.evalviz import cluster_purity_nmi, corpus_boundary_prf, frame_label_pairs
from acoustok.initialization import make_initial_labels
from acoustok.manifest import Manifest
from acoustok.mdnn import (
    MdnnConfig,
    head_accuracies,
    init_mdnn,
    make_iteration_input,
    train_mdnn,
)
from acoustok.reinforce import ReinforceConfig, boundary_function, fuse_utterance, mutual_reinforce
from acoustok.retrieval import (
    RankedList,
    RetrievalIndex,
    mean_average_precision,
    rank_documents,
    state_kl,
    subsequence_dtw,
    token_distance_matrix,
)
from acoustok.tokenizer import GaussState, Granularity, GranularityGrid, decode_level, run_level, run_mat

from test_mdnn import gradient_check
from test_retrieval import brute_force_subsequence_dtw, closed_form_symmetric_kl
from test_tokenizer import oracle_best_labeling, random_instance


def report(number: int, ok: bool, detail: str, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def mat_grid_run(small_corpus):
    """Grid {3,5} x {5,8} trained on the 20-utterance corpus, shared by the
    reinforcement and KL criteria; the training time is charged to criterion 4."""
    spec, corpus, truth = small_corpus
    start = time.perf_counter()
    grid = GranularityGrid((3, 5), (5, 8))
    init = make_initial_labels(corpus, {n: 0 for n in grid.phonetic})
    models, labels = run_mat(corpus, grid, init)
    return grid, models, labels, time.perf_counter() - start


class TestCriterion1:
    def test_em_decode_monotonicity(self, small_corpus):
        spec, corpus, _ = small_corpus
        start = time.perf_counter()
        init = make_initial_labels(corpus, {5: 0})[5]
        _, _, trace = run_level(corpus, init, Granularity(3, 5))
        elapsed = time.perf_counter() - start
        values = [v for _, v in trace]
        worst = min(
            (b - a for a, b in zip(values, values[1:]) if a != -np.inf),
            default=0.0,
        )
        ok = worst >= -1e-6 and elapsed < 60
        report(1, ok, f"half-step ll change >= {worst:.2e} over {len(values)} steps", elapsed)
        assert worst >= -1e-6
        assert elapsed < 60


class TestCriterion2:
    def test_viterbi_equals_enumeration(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20_2020)
        mismatches = 0
        for _ in range(100):
            model, frames = random_instance(rng)
            got = decode_level(
                model,
                _one_utterance_corpus(frames),
            )["u"].segments
            want, _ = oracle_best_labeling(model, frames)
            if got != want:
                mismatches += 1
        elapsed = time.perf_counter() - start
        ok = mismatches == 0 and elapsed < 10
        report(2, ok, f"{100 - mismatches}/100 instances match enumeration exactly", elapsed)
        assert mismatches == 0
        assert elapsed < 10


def _one_utterance_corpus(frames):
    from acoustok.corpus import Corpus, FeatureSequence

    return Corpus([FeatureSequence(frames, utterance_id="u")])


class TestCriterion3:
    def test_synthetic_recovery(self, small_corpus):
        spec, corpus, truth = small_corpus
        start = time.perf_counter()
        init = make_initial_labels(corpus, {5: 0})[5]
        _, labels, _ = run_level(corpus, init, Granularity(3, 5))
        elapsed = time.perf_counter() - start
        ref_bounds = {u: truth.boundaries(u) for u in truth.spans}
        _, _, f = corpus_boundary_prf(labels, ref_bounds, tol=2)
        hyp, ref = frame_label_pairs(labels, truth.label_set())
        purity, _ = cluster_purity_nmi(hyp, ref)
        ok = f >= 0.80 and purity >= 0.80 and elapsed < 300
        report(3, ok, f"boundary F={f:.3f} (>=0.80), purity={purity:.3f} (>=0.80)", elapsed)
        assert f >= 0.80
        assert purity >= 0.80
        assert elapsed < 300


class TestCriterion4:
    def test_mutual_reinforcement_sanity(self, small_corpus, mat_grid_run):
        spec, corpus, truth = small_corpus
        grid, models, level_labels, train_time = mat_grid_run
        start = time.perf_counter()
        ref_bounds = {u: truth.boundaries(u) for u in truth.spans}
        per_level_f = {
            g: corpus_boundary_prf(level_labels[g], ref_bounds, tol=2)[2]
            for g in grid.levels()
        }
        new_labels = mutual_reinforce(level_labels, grid, {n: n for n in grid.phonetic}).labels
        fused_f = corpus_boundary_prf(new_labels[grid.phonetic[0]], ref_bounds, tol=2)[2]

        cfg_r = ReinforceConfig()
        unanimity_ok = True
        for utt in corpus.ids():
            b = {g: boundary_function(level_labels[g][utt]) for g in grid.levels()}
            selected, B = fuse_utterance(b, cfg_r)
            unanimous = {int(j) + 1 for j in np.flatnonzero(B == 1.0)}
            if not unanimous <= set(selected):
                unanimity_ok = False
        elapsed = time.perf_counter() - start + train_time
        best = max(per_level_f.values())
        ok = fused_f >= best - 0.05 and unanimity_ok and elapsed < 300
        report(4, ok, f"fused F={fused_f:.3f} vs best level {best:.3f}, unanimity={unanimity_ok}",
               elapsed)
        assert fused_f >= best - 0.05
        assert unanimity_ok
        assert elapsed < 300


class TestCriterion5:
    def test_kl_correctness(self, mat_grid_run):
        grid, models, _, _ = mat_grid_run
        start = time.perf_counter()
        rng = np.random.default_rng(5_5555)
        worst = 0.0
        for d in (1, 5):
            for _ in range(50):
                m1, m2 = rng.normal(size=(2, d))
                v1, v2 = rng.uniform(0.3, 3.0, size=(2, d))
                got = state_kl(GaussState(np.ones(1), m1[None], v1[None]),
                               GaussState(np.ones(1), m2[None], v2[None]))
                worst = max(worst, abs(got - closed_form_symmetric_kl(m1, v1, m2, v2)))
        tables_ok = True
        for g in grid.levels():
            S = token_distance_matrix(models[g])
            if not (np.array_equal(S, S.T) and np.all(np.diag(S) == 0.0) and np.all(S >= 0)):
                tables_ok = False
        elapsed = time.perf_counter() - start
        ok = worst < 1e-9 and tables_ok and elapsed < 5
        report(5, ok, f"closed-form deviation {worst:.2e} (<1e-9), trained tables ok={tables_ok}",
               elapsed)
        assert worst < 1e-9
        assert tables_ok
        assert elapsed < 5


class TestCriterion6:
    def test_dtw_equals_enumeration(self):
        start = time.perf_counter()
        rng = np.random.default_rng(6_6666)
        mismatches = 0
        for _ in range(100):
            D = int(rng.integers(1, 7))
            Q = int(rng.integers(1, 5))
            W = np.round(rng.uniform(0, 2, size=(D, Q)), 2)
            if subsequence_dtw(W) != brute_force_subsequence_dtw(W):
                mismatches += 1
        elapsed = time.perf_counter() - start
        ok = mismatches == 0 and elapsed < 10
        report(6, ok, f"{100 - mismatches}/100 matrices match enumeration exactly", elapsed)
        assert mismatches == 0
        assert elapsed < 10


class TestCriterion7:
    def test_gradients_and_separable_training(self):
        start = time.perf_counter()
        grid = GranularityGrid((3, 5, 7, 9), (50, 100, 300, 500))
        levels = grid.levels()
        model = init_mdnn(751, levels, MdnnConfig(hidden=(256, 256), bottleneck=39), seed=7)
        rng = np.random.default_rng(7_7777)
        x = rng.normal(size=(8, 751))
        targets = np.column_stack([rng.integers(0, g.n, size=8) for g in levels])
        err = gradient_check(model, x, targets, n_params=500)

        half = 100
        toy_x = np.vstack([
            rng.normal(5.0, 0.5, size=(half, 4)), rng.normal(-5.0, 0.5, size=(half, 4))
        ])
        toy_y = np.zeros((2 * half, 2), dtype=np.int64)
        toy_y[half:] = 1
        toy_keys = [Granularity(3, 2), Granularity(5, 2)]
        trained, _ = train_mdnn(
            toy_x, toy_y, toy_keys,
            MdnnConfig(hidden=(8, 8), bottleneck=4, epochs=50, batch_size=32), seed=0,
        )
        accs = head_accuracies(trained, toy_x, toy_y)
        elapsed = time.perf_counter() - start
        ok = err < 1e-4 and accs == [1.0, 1.0] and elapsed < 120
        report(7, ok, f"gradient error {err:.2e} (<1e-4), toy head accuracy {accs}", elapsed)
        assert err < 1e-4
        assert accs == [1.0, 1.0]
        assert elapsed < 120


class TestCriterion8:
    QUERY = [2, 0, 3]

    def _sequences(self, rng):
        def random_seq(length):
            while True:
                seq = []
                for _ in range(length):
                    t = int(rng.integers(5))
                    while seq and t == seq[-1]:
                        t = int(rng.integers(5))
                    seq.append(t)
                if all(seq[i:i + 3] != self.QUERY for i in range(len(seq) - 2)):
                    return seq

        sequences = {"query": list(self.QUERY)}
        relevant = []
        for i in range(20):
            utt = f"doc{i:02d}"
            if i < 3:
                prefix = random_seq(2)
                while prefix[-1] == self.QUERY[0]:
                    prefix = random_seq(2)
                suffix = random_seq(2)
                while suffix[0] == self.QUERY[-1]:
                    suffix = random_seq(2)
                sequences[utt] = prefix + self.QUERY + suffix
                relevant.append(utt)
            else:
                sequences[utt] = random_seq(7)
        return sequences, relevant

    def test_retrieval_end_to_end(self):
        start = time.perf_counter()
        rng = np.random.default_rng(777)
        sequences, relevant = self._sequences(rng)
        spec = SynthSpec(n_tokens=5, states_per_token=3, dim=8, token_sequences=sequences)
        corpus, _ = synthesize_corpus(spec, seed=4242)
        grid = GranularityGrid((3, 5), (5, 8))
        init = make_initial_labels(corpus, {n: 0 for n in grid.phonetic})
        models, labels = run_mat(corpus, grid, init)
        doc_ids = [u for u in corpus.ids() if u != "query"]
        doc_labels = {g: {u: labels[g][u] for u in doc_ids} for g in labels}
        index = RetrievalIndex.build(models, doc_labels)
        q_tokens = {g: labels[g]["query"].token_ids() for g in labels}
        ranked = rank_documents(index, "query", query_tokens=q_tokens)
        top5 = {d for d, _ in ranked.entries[:5]}
        rel_table = {"query": {d: int(d in relevant) for d in doc_ids}}
        value = mean_average_precision([ranked], rel_table)

        hand = [RankedList("q", [(d, i * 0.1) for i, d in enumerate("abcde")])]
        hand_rel = {"q": {"a": 1, "b": 0, "c": 1, "d": 0, "e": 0}}
        hand_ap = mean_average_precision(hand, hand_rel)
        elapsed = time.perf_counter() - start
        ok = (set(relevant) <= top5 and value >= 0.7
              and abs(hand_ap - 0.8333333) < 1e-6 and elapsed < 120)
        report(8, ok, f"relevant in top5={set(relevant) <= top5}, MAP={value:.3f} (>=0.7), "
                      f"hand AP={hand_ap:.7f}", elapsed)
        assert set(relevant) <= top5
        assert value >= 0.7
        assert hand_ap == pytest.approx(5 / 6, abs=1e-6)
        assert elapsed < 120


ITERATE_CONFIG = """
[run]
seed = 11
iterations = 2
mr_rounds = 1

[grid]
temporal = 3 5
phonetic = 4 6

[synth]
n_tokens = 4
dim = 6
n_utterances = 12
tokens_per_utterance = 3 5

[init]
min_segment_frames = 4

[tokenizer]
em_iters = 5
outer_iters = 3

[reinforce]
lda_iters = 100

[mdnn]
context_radius = 2
hidden = 32
bottleneck = 8
epochs = 3
batch_size = 128
"""


class TestCriterion9:
    def test_iterate_determinism(self, tmp_path):
        cfg_path = tmp_path / "config.ini"
        cfg_path.write_text(ITERATE_CONFIG)
        start = time.perf_counter()
        hashes = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            code = main(["iterate", "--config", str(cfg_path), "--out", str(out)])
            assert code == 0
            hashes.append(Manifest(out).output_hashes())
        elapsed = time.perf_counter() - start
        identical = hashes[0] == hashes[1]
        ok = identical and elapsed < 900
        stages = len(hashes[0])
        report(9, ok, f"two runs, {stages} stages each, identical hashes={identical}", elapsed)
        assert identical
        assert elapsed < 900


class TestCriterion10:
    def test_dimension_bookkeeping(self):
        start = time.perf_counter()
        first = make_iteration_input([np.zeros((5, 351))], np.zeros((5, 400)))
        second = make_iteration_input([np.zeros((5, 351))] * 3, np.zeros((5, 400)))
        elapsed = time.perf_counter() - start
        ok = first.shape[1] == 751 and second.shape[1] == 1453 and elapsed < 1
        report(10, ok, f"iteration-1 width {first.shape[1]} (=751), "
                       f"iteration-2 width {second.shape[1]} (=1453)", elapsed)
        assert first.shape[1] == 751
        assert second.shape[1] == 1453
        assert elapsed < 1
