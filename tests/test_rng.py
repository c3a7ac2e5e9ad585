"""Stream contracts: children spawned in blocks equal one spawn of all, and
a seed is an integer in 0..2^64 - 1."""

import pytest

from mlmc_evidence.errors import ContractViolation
from mlmc_evidence.rng import spawn, streams, substream


@pytest.mark.parametrize("n", [0, 1, 64, 130])
def test_streams_equal_one_spawn(n):
    lazily = [g.random(3).tolist() for g in streams(substream(7, 1), n)]
    at_once = [g.random(3).tolist() for g in spawn(substream(7, 1), n)]
    assert lazily == at_once


@pytest.mark.parametrize("seed, alias", [(2**64 - 1, -1), (0, 2**64)])
def test_no_two_seeds_share_a_stream(seed, alias):
    # a seed was once masked to 64 bits, so `alias` drew `seed`'s streams
    substream(seed, 1)
    with pytest.raises(ContractViolation, match=rf"^seed must lie in 0\.\.2\^64 - 1, got {alias}$"):
        substream(alias, 1)


@pytest.mark.parametrize("seed", [1.5, True])
def test_seed_must_be_an_integer(seed):
    with pytest.raises(ContractViolation, match=f"^seed must be an integer, got {seed!r}$"):
        substream(seed, 1)
