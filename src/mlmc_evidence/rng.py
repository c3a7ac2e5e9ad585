"""Deterministic random streams derived from a single run seed.

Every source of randomness in a run is a named substream addressed by
``(seed, stream id, *indices)``. Streams are backed by the counter-based
Philox generator, so a stream's output depends only on its address, never
on how much any other stream has consumed. That makes replications and
training steps reproducible independently of execution order. The members
of one batch share their caller's stream and draw from it in batch order.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .models import _count, _seed

# Stream ids for the top-level substreams of a run; seeded outputs depend on each value.
STREAM_DATA = 0  # synthetic dataset generation
STREAM_BATCH = 1  # batch-level randomness: (data index, level) pairs and latents
STREAM_DIAG = 3  # diagnostics replications
STREAM_CHECK = 4  # gradient-check points


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream of `seed` addressed by `path`.

    Two calls with equal arguments yield generators producing identical
    output; distinct paths are statistically independent. `seed` must be
    an integer in 0..2^64 - 1 and each path entry an integer >= 0: no two
    distinct addresses share a stream.
    """
    seed = _seed(seed)
    path = tuple(_count("path entry", p) for p in path)
    if min(path, default=0) < 0:
        raise ContractViolation(f"path entry must be >= 0, got {min(path)}")
    key = np.random.SeedSequence(seed, spawn_key=path)
    return np.random.Generator(np.random.Philox(key))


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split `rng` into `n` independent child generators.

    Deterministic given the parent's state; children may be consumed in any
    order (or concurrently) without affecting each other.
    """
    return rng.spawn(n)


# Children `streams` spawns per call: a bound on the children alive before
# use. One spawn per training step instead cost the 50-step train-bernoulli
# benchmark call about 7 % against one spawn of all 50.
_SPAWN_BLOCK = 64


def streams(rng: np.random.Generator, n: int):
    """The `n` children `spawn(rng, n)` returns, spawned a block at a time
    as they are consumed, so memory does not grow with `n`."""
    for start in range(0, n, _SPAWN_BLOCK):
        yield from spawn(rng, min(_SPAWN_BLOCK, n - start))
