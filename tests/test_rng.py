"""Stream contracts: children spawned in blocks equal one spawn of all, a
seed is an integer in 0..2^64 - 1 and a path entry an integer >= 0."""

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


@pytest.mark.parametrize("entry", [1.5, True])
def test_path_entry_must_be_an_integer(entry):
    # both once drew path 1's stream
    with pytest.raises(ContractViolation, match=f"^path entry must be an integer, got {entry!r}$"):
        substream(1, 0, entry)


def test_path_entry_must_not_be_negative():
    # numpy once raised a bare ValueError
    with pytest.raises(ContractViolation, match="^path entry must be >= 0, got -1$"):
        substream(1, -1)
