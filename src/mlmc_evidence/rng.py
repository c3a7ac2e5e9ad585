"""Deterministic random streams derived from a single run seed.

Every source of randomness in a run is a named substream addressed by
``(seed, stream id, *indices)``. Streams are backed by the counter-based
Philox generator, so a stream's output depends only on its address, never
on how much any other stream has consumed. That makes replications and
training steps reproducible independently of execution order. The members
of one batch share their caller's stream and draw from it in batch order.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import ContractViolation, ResourceGuardExceeded
from .models import _count, _seed

# Most children a `SeedSequence` spawns: numpy 2.4's `spawn` does not return
# once its child counter would pass this
_SPAWN_MAX = (1 << 32) - 1

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
    order (or concurrently) without affecting each other. Raises
    `ResourceGuardExceeded`, with `rng` untouched, where its seed's child
    counter plus `n` would pass 2^32 - 1.
    """
    spawned = getattr(rng.bit_generator.seed_seq, "n_children_spawned", 0)
    if spawned + n > _SPAWN_MAX:
        raise ResourceGuardExceeded(
            f"spawning {n} more children after {spawned} would pass 2^32 - 1 children"
        )
    return rng.spawn(n)


# Children whose keys `streams` derives in one vectorized pass: a bound on
# the keys held before use, large enough that the pass's fixed cost of a
# dozen numpy calls is small per child.
_SPAWN_BLOCK = 64

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _powers(start: int, mult: int, n: int) -> np.ndarray:
    """start * mult^k mod 2^32 for k = 0..n, as uint32."""
    out = [start]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# the hash constants of the four words `generate_state` makes a Philox key of
_KEY_HASH = _powers(_INIT_B, _MULT_B, 4)


def _mix_in(pool: np.ndarray, word: np.ndarray, hash_const: int) -> None:
    """Mix one more entropy word per row into the (n, P) pools in place, as
    `SeedSequence.mix_entropy` mixes an entropy word past the pool size,
    its hash constant `hash_const` at the start."""
    c = _powers(hash_const, _MULT_A, pool.shape[1])
    h = word[:, None] ^ c[:-1]
    h *= c[1:]
    h ^= h >> 16
    h *= _MIX_R
    pool *= _MIX_L
    pool -= h
    pool ^= pool >> 16


def _child_keys(seq: np.random.SeedSequence, start: int, n: int) -> list[list[int]]:
    """The Philox keys of `seq`'s children `start`..`start + n - 1`, which
    `seq.spawn` would make: each child's entropy is `seq`'s with its
    index's 32-bit words appended, so its pool is `seq.pool` with those
    words mixed in last."""
    from numpy.random.bit_generator import _coerce_to_uint32_array

    p = seq.pool_size
    # the parent's assembled-entropy words: its run entropy, padded to the
    # pool size when it has a spawn key, and its spawn key
    run = len(_coerce_to_uint32_array(seq.entropy))
    words = max(run, p) + len(_coerce_to_uint32_array(seq.spawn_key))
    hash_const = _INIT_A * pow(_MULT_A, p * p + (words - p) * p, 2**32) & 0xFFFFFFFF
    index = np.arange(start, start + n, dtype=np.uint64)
    pool = np.tile(seq.pool, (n, 1))
    _mix_in(pool, (index & 0xFFFFFFFF).astype(np.uint32), hash_const)
    wide = index >> 32 != 0  # an index of two words
    if wide.any():
        rows = pool[wide]
        hash_const = hash_const * pow(_MULT_A, p, 2**32) & 0xFFFFFFFF
        _mix_in(rows, (index[wide] >> 32).astype(np.uint32), hash_const)
        pool[wide] = rows
    key = pool[:, :4] ^ _KEY_HASH[:-1]  # numpy's pools hold at least 4 words
    key *= _KEY_HASH[1:]
    key ^= key >> 16
    return key.astype("<u4", copy=False).view("<u8").tolist()


@functools.cache
def _unspawnable():
    """Seed of the one generator `streams` re-keys per child: spawning
    from it raises, where a spawnable seed would give another tree's
    streams. Made on first use: the library's import loads no
    `numpy.random`."""
    from numpy.random.bit_generator import ISeedSequence

    class Unspawnable(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype)

    return Unspawnable()


def streams(rng: np.random.Generator, n: int):
    """The `n` children `spawn(rng, n)` returns, bit for bit, taken one at a
    time, so memory does not grow with `n`.

    A Philox generator seeded by a `SeedSequence` yields one generator,
    re-keyed per child: a Philox stream is fixed by its key and a zero
    counter, and each block of up to `_SPAWN_BLOCK` children's keys is
    derived in one vectorized pass of numpy's seed mixing. So:
    - a yielded stream is valid until the next one is taken;
    - numpy's child counter is read-only, so `rng` must not spawn again:
      it would spawn these children anew;
    - a yielded stream cannot be spawned from: `spawn` raises `TypeError`;
    - a child index of two 32-bit words is derived too (numpy 2.4's own
      `spawn` does not return when its counter crosses 2^32).
    Any other generator's children come from `spawn`, a block at a time.
    """
    bit_generator = rng.bit_generator
    seq = bit_generator.seed_seq
    if not (
        type(rng) is np.random.Generator
        and type(bit_generator) is np.random.Philox
        and type(seq) is np.random.SeedSequence
    ):
        for start in range(0, n, _SPAWN_BLOCK):
            yield from spawn(rng, min(_SPAWN_BLOCK, n - start))
        return
    child = np.random.Generator(np.random.Philox(_unspawnable()))
    rekey = child.bit_generator
    state = rekey.state  # counter 0, buffer empty (`buffer_pos` 4), `has_uint32` 0
    first = seq.n_children_spawned
    for start in range(0, n, _SPAWN_BLOCK):
        for key in _child_keys(seq, first + start, min(_SPAWN_BLOCK, n - start)):
            state["state"]["key"] = key
            rekey.state = state
            yield child
