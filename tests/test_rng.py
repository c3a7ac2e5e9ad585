"""Stream contracts: children spawned in blocks equal one spawn of all."""

import pytest

from mlmc_evidence.rng import spawn, streams, substream


@pytest.mark.parametrize("n", [0, 1, 64, 130])
def test_streams_equal_one_spawn(n):
    lazily = [g.random(3).tolist() for g in streams(substream(7, 1), n)]
    at_once = [g.random(3).tolist() for g in spawn(substream(7, 1), n)]
    assert lazily == at_once
