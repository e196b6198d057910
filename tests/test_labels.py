import numpy as np
import pytest

from acoustok.labels import open_text, pick_boundaries, read_jsonl


def reference_pick(score, eligible, min_gap, anchors=()):
    """The greedy scan written out: candidates as (-score, j) pairs sorted in
    Python, each kept unless within min_gap of a kept position or an anchor."""
    candidates = sorted((-float(score[j - 1]), j) for j in range(1, len(score) + 1)
                        if eligible[j - 1])
    kept: list[int] = []
    for _, j in candidates:
        if all(abs(j - k) >= min_gap for k in kept + list(anchors)):
            kept.append(j)
    return sorted(kept)


def everywhere(score):
    return np.ones(len(score), dtype=bool)


class TestPickBoundaries:
    def test_tie_goes_to_lowest_position(self):
        score = np.array([0.0, 2.0, 2.0, 0.0])
        assert pick_boundaries(score, score > 0, 2) == [2]
        assert pick_boundaries(score, everywhere(score), 2) == [2, 4]

    def test_kept_position_blocks_neighbours(self):
        score = np.array([1.0, 3.0, 2.0])
        assert pick_boundaries(score, everywhere(score), 2) == [2]
        assert pick_boundaries(score, everywhere(score), 1) == [1, 2, 3]

    def test_anchors_block_within_min_gap(self):
        score = np.array([5.0, 1.0, 1.0, 1.0, 5.0])  # T = 6
        assert pick_boundaries(score, everywhere(score), 2, (0, 6)) == [2, 4]
        assert pick_boundaries(score, everywhere(score), 2) == [1, 3, 5]

    def test_ineligible_never_returned_and_blocks_nothing(self):
        score = np.array([9.0, 1.0])
        assert pick_boundaries(score, np.array([False, True]), 5) == [2]
        assert pick_boundaries(score, np.zeros(2, dtype=bool), 1) == []

    def test_result_sorted(self):
        score = np.array([1.0, 0.0, 0.0, 5.0])
        assert pick_boundaries(score, everywhere(score), 1) == [1, 2, 3, 4]
        assert pick_boundaries(score, score > 0, 1) == [1, 4]

    def test_empty_curve(self):
        assert pick_boundaries(np.zeros(0), np.zeros(0, dtype=bool), 2, (0, 1)) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_reference_scan_on_tied_curves(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            length = int(rng.integers(1, 40))
            score = rng.integers(0, 4, size=length).astype(float)
            eligible = rng.uniform(size=length) < 0.7
            min_gap = int(rng.integers(1, 6))
            anchors = (0, length + 1) if rng.uniform() < 0.5 else ()
            assert pick_boundaries(score, eligible, min_gap, anchors) == \
                reference_pick(score, eligible, min_gap, anchors)


class TestOpenText:
    def test_bad_byte_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(b'{"utt": "a"}\n{"utt": "\xff"}\n')
        with pytest.raises(ValueError) as err:
            read_jsonl(path, ("utt",))
        assert str(err.value) == f"{path}: line 2: byte 0xff is not UTF-8 (invalid start byte)"

    @pytest.mark.parametrize("newline", [None, ""])
    def test_reads_as_open_reads(self, tmp_path, newline):
        path = tmp_path / "a.txt"
        path.write_bytes("a\r\nb\rcé\n".encode())
        with open(path, newline=newline, encoding="utf-8") as f:
            assert list(open_text(path, newline)) == list(f)
