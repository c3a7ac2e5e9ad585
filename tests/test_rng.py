"""Stream contracts: the children `streams` derives equal numpy's spawned
children bit for bit, a seed is an integer in 0..2^64 - 1 and a path entry
an integer >= 0.

The derivation repeats numpy's `SeedSequence` mixing, so these tests also
guard against a numpy release that changes it."""

import numpy as np
import pytest

from mlmc_evidence.errors import ContractViolation, ResourceGuardExceeded
from mlmc_evidence.rng import _child_keys, spawn, streams, substream


def draws(g):
    """A child's state (for Philox, its key and counter) and its first draws
    of each kind; the 32-bit integers leave half a 64-bit word buffered for
    the uniforms."""
    state = {k: np.asarray(v).tolist() for k, v in g.bit_generator.state["state"].items()}
    return state, g.standard_normal(3).tolist(), g.integers(0, 1000, 3).tolist(), g.random(3).tolist()


def philox(seq):
    return np.random.Generator(np.random.Philox(seq))


@pytest.mark.parametrize("n", [0, 1, 64, 65, 130])
def test_streams_equal_one_spawn(n):
    for parent in [
        lambda: substream(7, 1),
        lambda: philox(np.random.SeedSequence(3, spawn_key=(2**32 + 5,), pool_size=8)),
        lambda: np.random.default_rng(7),  # not Philox: spawned a block at a time
    ]:
        lazily = [draws(g) for g in streams(parent(), n)]
        at_once = [draws(g) for g in spawn(parent(), n)]
        assert lazily == at_once


@pytest.mark.parametrize("entropy", [0, 1, 2**32, 2**64 - 1, None, [1, 2, 3, 4, 5, 6]])
@pytest.mark.parametrize("spawn_key", [(), (2**32 + 5, 3)])
@pytest.mark.parametrize("pool_size", [4, 8])
@pytest.mark.parametrize("spawned", [0, 2, 2**32 - 2])
def test_child_keys_equal_numpys(entropy, spawn_key, pool_size, spawned):
    # entropy None is drawn from the OS; from 2^32 - 2 on, the fifth
    # child's index has two 32-bit words
    seq = np.random.SeedSequence(
        entropy, spawn_key=spawn_key, pool_size=pool_size, n_children_spawned=spawned
    )
    # the children numpy's `spawn` makes; it is not called past 2^32 - 1,
    # where numpy 2.4's does not return
    children = [
        np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (i,), pool_size=pool_size)
        for i in range(spawned, spawned + 5)
    ]
    if spawned < 2**32 - 5:
        assert [c.spawn_key for c in seq.spawn(5)] == [c.spawn_key for c in children]
    assert _child_keys(seq, spawned, 5) == [c.generate_state(2, np.uint64).tolist() for c in children]
    parent = philox(np.random.SeedSequence(
        seq.entropy, spawn_key=spawn_key, pool_size=pool_size, n_children_spawned=spawned
    ))
    assert [draws(g) for g in streams(parent, 5)] == [draws(philox(c)) for c in children]


def test_a_yielded_stream_cannot_be_spawned_from():
    # it is re-keyed per child, so a spawn would draw another tree's streams
    stream = next(streams(substream(7, 1), 2))
    with pytest.raises(TypeError, match="does not implement spawning"):
        spawn(stream, 1)
    with pytest.raises(TypeError, match="does not implement spawning"):
        next(streams(stream, 1))


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


@pytest.mark.parametrize("path", [(), (4,), (2**40, 0)])
def test_child_r_of_a_substream_is_its_path_extended_by_r(path):
    # loops over many substreams of one path take them as its children
    children = [draws(g) for g in streams(substream(901, *path), 70)]
    assert children == [draws(substream(901, *path, r)) for r in range(70)]


class NoNumpySpawn:
    """A Philox generator's stand-in whose own `spawn` fails the test, so a
    refusal is checked without ever calling numpy's spawn past its limit
    (numpy 2.4's does not return there)."""

    def __init__(self, spawned):
        self.bit_generator = np.random.Philox(np.random.SeedSequence(5, n_children_spawned=spawned))

    def spawn(self, n):
        pytest.fail(f"numpy's spawn was called for {n} children")


@pytest.mark.parametrize("spawned, n", [(2**32 - 1, 1), (2**32 - 2, 2), (0, 2**32)])
def test_spawn_refuses_past_numpys_child_limit(spawned, n):
    rng = NoNumpySpawn(spawned)
    state = rng.bit_generator.state
    with pytest.raises(ResourceGuardExceeded,
                       match=rf"^spawning {n} more children after {spawned} would pass 2\^32 - 1"):
        spawn(rng, n)
    assert rng.bit_generator.seed_seq.n_children_spawned == spawned
    np.testing.assert_equal(rng.bit_generator.state, state)


def test_the_largest_spawn_that_fits_is_numpys():
    parent = philox(np.random.SeedSequence(5, n_children_spawned=2**32 - 2))
    (child,) = spawn(parent, 1)
    assert parent.bit_generator.seed_seq.n_children_spawned == 2**32 - 1
    assert child.bit_generator.seed_seq.spawn_key == (2**32 - 2,)
