import numpy as np
import pytest

from acoustok.evalviz import (
    CooccurrenceMatrix,
    cluster_purity_nmi,
    cooccurrence,
    corpus_boundary_prf,
    frame_label_pairs,
    grid_csv,
    pgm_bytes,
    speaker_token_map,
)
from acoustok.labels import TokenLabelSequence


def boundary_prf(hyp, ref, tol):
    """corpus_boundary_prf on one utterance whose segments are cut at hyp."""
    cuts = [0, *hyp, max([*hyp, *ref], default=0) + 1]
    labels = {"u": TokenLabelSequence("u", [(0, a, b) for a, b in zip(cuts, cuts[1:])])}
    return corpus_boundary_prf(labels, {"u": ref}, tol)


class TestBoundaryPrf:
    def test_identical_sets(self):
        assert boundary_prf([5, 12, 30], [5, 12, 30], tol=2) == (1.0, 1.0, 1.0)

    def test_hand_matching(self):
        # 10 matches 11; 20 has nothing within 2
        assert boundary_prf([10, 20], [11, 30], tol=2) == (0.5, 0.5, 0.5)

    def test_empty_hyp_nonempty_ref(self):
        assert boundary_prf([], [4, 9], tol=2) == (0.0, 0.0, 0.0)

    def test_both_empty(self):
        assert boundary_prf([], [], tol=2) == (1.0, 1.0, 1.0)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(0)
        hyp = sorted(set(rng.integers(0, 100, size=12).tolist()))
        ref = sorted(set(rng.integers(0, 100, size=8).tolist()))
        p1, r1, f1 = boundary_prf(hyp, ref, tol=3)
        p2, r2, f2 = boundary_prf(ref, hyp, tol=3)
        assert (p1, r1, f1) == (r2, p2, f2)

    def test_one_to_one_matching(self):
        # two hypotheses near one reference: only one may match
        p, r, f = boundary_prf([10, 11], [10], tol=2)
        assert (p, r) == (0.5, 1.0)

    def test_corpus_micro_average(self):
        labels = {
            "u0": TokenLabelSequence("u0", [(0, 0, 10), (1, 10, 20)]),
            "u1": TokenLabelSequence("u1", [(0, 0, 20)]),
        }
        refs = {"u0": [10], "u1": [10]}
        p, r, f = corpus_boundary_prf(labels, refs, tol=2)
        assert (p, r) == (1.0, 0.5)

    def test_negative_tolerance_rejected(self):
        labels = {"u0": TokenLabelSequence("u0", [(0, 0, 10), (1, 10, 20)])}
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            corpus_boundary_prf(labels, {"u0": [10]}, tol=-1)


class TestPurityNmi:
    def test_identical_up_to_renaming(self):
        ref = np.array([0, 0, 1, 1, 2, 2])
        hyp = np.array([5, 5, 3, 3, 9, 9])
        assert cluster_purity_nmi(hyp, ref) == (1.0, 1.0)

    def test_random_labels_low_nmi(self):
        rng = np.random.default_rng(1)
        ref = np.tile([0, 1], 5000)
        hyp = rng.integers(0, 2, size=10000)
        purity, nmi = cluster_purity_nmi(hyp, ref)
        assert nmi < 0.02

    def test_single_cluster_balanced_ref(self):
        ref = np.tile([0, 1], 50)
        hyp = np.zeros(100, dtype=int)
        purity, nmi = cluster_purity_nmi(hyp, ref)
        assert purity == 0.5
        assert nmi == 0.0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(2)
        hyp = rng.integers(0, 4, size=500)
        ref = rng.integers(0, 3, size=500)
        base = cluster_purity_nmi(hyp, ref)
        perm = np.array([2, 0, 3, 1])
        assert cluster_purity_nmi(perm[hyp], ref) == pytest.approx(base)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cluster_purity_nmi(np.array([]), np.array([]))

    def test_frame_label_pairs(self):
        hyp = {"u": TokenLabelSequence("u", [(0, 0, 3), (1, 3, 5)])}
        ref = {"u": TokenLabelSequence("u", [(7, 0, 5)])}
        h, r = frame_label_pairs(hyp, ref)
        assert h.tolist() == [0, 0, 0, 1, 1]
        assert r.tolist() == [7] * 5


class TestCooccurrence:
    def test_single_realization(self):
        labels = {"u": TokenLabelSequence("u", [(3, 0, 10)])}
        ref = {"u": [("ah", 0, 10)]}
        mat = cooccurrence(labels, ref)
        assert mat.counts[3, mat.ref_labels.index("ah")] == 1
        assert mat.counts.sum() == 1

    def test_total_counts_annotated_centers(self):
        labels = {
            "u": TokenLabelSequence("u", [(0, 0, 4), (1, 4, 8), (0, 8, 12)])
        }
        ref = {"u": [("x", 0, 6)]}  # centers at 2, 6, 10; only 2 is annotated
        mat = cooccurrence(labels, ref)
        assert mat.counts.sum() == 1

    def test_row_sums_are_realization_counts(self):
        labels = {
            "u": TokenLabelSequence("u", [(0, 0, 4), (1, 4, 8), (0, 8, 12)])
        }
        ref = {"u": [("x", 0, 12)]}
        mat = cooccurrence(labels, ref)
        assert mat.counts[0].sum() == 2
        assert mat.counts[1].sum() == 1

    def test_grouped_order_groups_by_argmax(self):
        counts = np.array([[0, 5], [4, 0], [0, 2], [9, 1]])
        mat = CooccurrenceMatrix(counts, [0, 1, 2, 3], ["a", "b"])
        order = mat.grouped_row_order()
        assert order == [3, 1, 0, 2]

    def test_csv_export(self):
        counts = np.array([[1, 2], [3, 0]])
        mat = CooccurrenceMatrix(counts, [0, 1], ["a", "b"])
        lines = mat.to_csv().splitlines()
        assert lines[0] == "token,a,b"
        assert lines[1] == "0,1,2"


class TestSpeakerTokenMap:
    def make_labels(self):
        labels = {
            "u0": TokenLabelSequence("u0", [(0, 0, 5), (0, 5, 10), (1, 10, 15), (0, 15, 20)]),
            "u1": TokenLabelSequence("u1", [(1, 0, 5), (1, 5, 10), (1, 10, 15), (2, 15, 20)]),
        }
        speakers = {"u0": "spkA", "u1": "spkB"}
        return labels, speakers

    def test_zero_count_zero_intensity(self):
        labels, speakers = self.make_labels()
        m = speaker_token_map(labels, speakers)
        # spkA never says token 2
        col = m.token_order.index(2)
        assert m.intensities[m.speakers.index("spkA"), col] == 0.0

    def test_beta_log2_single_count(self):
        assert 1.0 - np.exp(-np.log(2.0) * 1) == pytest.approx(0.5)
        labels = {"u": TokenLabelSequence("u", [(0, 0, 4)])}
        m = speaker_token_map(labels, {"u": "s"}, target_intensity=0.5)
        assert m.beta == pytest.approx(np.log(2.0), abs=1e-6)
        assert m.intensities[0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_mean_nonzero_intensity_hits_target(self):
        labels, speakers = self.make_labels()
        m = speaker_token_map(labels, speakers, target_intensity=0.4)
        nz = m.intensities[m.intensities > 0]
        assert abs(nz.mean() - 0.4) < 1e-3

    def test_monotone_in_count(self):
        labels, speakers = self.make_labels()
        m = speaker_token_map(labels, speakers)
        # token 1: spkB said it 3 times, spkA once
        col = m.token_order.index(1)
        a = m.intensities[m.speakers.index("spkA"), col]
        b = m.intensities[m.speakers.index("spkB"), col]
        assert b > a > 0

    def test_frequent_token_order(self):
        labels, speakers = self.make_labels()
        m = speaker_token_map(labels, speakers, frequent_threshold=3)
        # spkA's only frequent token is 0; spkB adds 1; token 2 never frequent
        assert m.token_order == [0, 1, 2]

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all counts are zero"):
            speaker_token_map({}, {}, target_intensity=0.5)

    def test_intensities_in_unit_interval(self):
        labels, speakers = self.make_labels()
        m = speaker_token_map(labels, speakers)
        assert np.all(m.intensities >= 0.0)
        assert np.all(m.intensities < 1.0)


class TestGrid:
    def test_sixteen_levels_plus_summary(self):
        results = {(m, n): float(m * n) for m in (3, 5, 7, 9) for n in (50, 100, 300, 500)}
        lines = grid_csv(results).splitlines()
        assert len(lines) == 1 + 16 + 1

    def test_single_level_summary(self):
        assert grid_csv({(3, 5): 0.75}) == "m,n,value\n3,5,0.75\nsummary,0.75,0.0,0.75,0.75\n"

    def test_summary_recomputable(self):
        rng = np.random.default_rng(3)
        results = {(m, n): float(rng.uniform()) for m in (3, 5) for n in (4, 8)}
        _, *rows, last = grid_csv(results).splitlines()
        back = {(int(m), int(n)): float(v) for m, n, v in (r.split(",") for r in rows)}
        assert back == results
        summary = [float(v) for v in last.split(",")[1:]]
        assert last.startswith("summary,")
        values = np.array([back[k] for k in sorted(back)])
        assert summary[0] == pytest.approx(values.mean(), abs=1e-9)
        assert summary[1] == pytest.approx(values.std(), abs=1e-9)
        assert summary[2] == values.max()
        assert summary[3] == values.min()


class TestPgm:
    def test_header_and_size(self):
        data = pgm_bytes(np.linspace(0, 1, 12).reshape(3, 4))
        assert data.startswith(b"P5\n4 3\n255\n")
        assert len(data) == len(b"P5\n4 3\n255\n") + 12
