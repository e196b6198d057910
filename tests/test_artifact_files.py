"""Binary artifact readers on truncated input: every prefix of a valid file
must fail with a ValueError that names the file."""

import numpy as np
import pytest

from acoustok.corpus import FeatureSequence, matf_bytes, read_matf
from acoustok.mdnn import MdnnConfig, init_mdnn, matn_bytes, read_matn
from acoustok.reinforce import ReinforceConfig, lda_fit, matl_bytes, read_matl
from acoustok.tokenizer import GaussState, Granularity, LevelModel, TokenHmm, matm_bytes, read_matm


def tiny_matf() -> bytes:
    return matf_bytes(FeatureSequence(np.arange(6.0).reshape(3, 2), utterance_id="u"))


def tiny_matm() -> bytes:
    two = GaussState(np.array([0.4, 0.6]), np.zeros((2, 2)), np.ones((2, 2)))
    hmms = [
        TokenHmm(k, [GaussState.single(np.full(2, k), np.ones(2)), two],
                 np.array([[0.5, 0.5], [0.5, 0.5]]))
        for k in range(2)
    ]
    return matm_bytes(LevelModel(Granularity(2, 2), hmms, np.array([0.5, 0.5])))


def tiny_matl() -> bytes:
    return matl_bytes(lda_fit([[0, 1], [2]], 2, 3, ReinforceConfig(lda_iters=2), seed=1))


def tiny_matn() -> bytes:
    cfg = MdnnConfig(hidden=(3,), bottleneck=2)
    return matn_bytes(init_mdnn(2, [2], [Granularity(2, 2)], cfg, seed=1))


@pytest.mark.parametrize("suffix, make, read", [
    ("matf", tiny_matf, read_matf),
    ("matm", tiny_matm, read_matm),
    ("matl", tiny_matl, read_matl),
    ("matn", tiny_matn, read_matn),
])
def test_truncation_names_the_file(tmp_path, suffix, make, read):
    data = make()
    path = tmp_path / f"tiny.{suffix}"
    path.write_bytes(data)
    read(path)  # the whole file reads back
    for offset in range(len(data)):
        path.write_bytes(data[:offset])
        with pytest.raises(ValueError) as excinfo:
            read(path)
        assert str(path) in str(excinfo.value), (offset, str(excinfo.value))
