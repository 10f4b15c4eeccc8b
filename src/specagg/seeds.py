"""Deterministic random-substream derivation.

Every random draw in a run descends from the master seed plus a tuple of
string/int tokens naming the consumer (episode, band, relay, ...).
Tokens hash through SHA-256, so the same (seed, tokens) pair yields the
same stream in any process, on any platform, in any execution order.

A stream is ``default_rng(SeedSequence([seed, *4 digest words]))``, but a
family of streams is seeded in one array pass: `SeedSequence`'s fixed
``mix_entropy`` and ``generate_state(4, uint64)`` run over all entropy
rows at once in uint32 arithmetic, and numpy seeds each PCG64 from its
words through the ``bit_generator.ISeedSequence`` interface.  These
generators cannot ``.spawn()``; ``numpy.random`` loads with the first.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .params import EpisodeConfig, require


def _encode(token) -> bytes:
    if isinstance(token, (int, np.integer)):
        return b"i" + str(int(token)).encode()
    if isinstance(token, str):
        return b"s" + token.encode()
    raise TypeError(f"cannot derive a seed from token of type {type(token)!r}")


def _entropy(master_seed: int, keys: list[bytes]) -> np.ndarray:
    """(len(keys), 5) uint32 rows: the seed, then 16 digest bytes of a key."""
    require(EpisodeConfig, "seed", master_seed)
    digests = b"".join(hashlib.sha256(key).digest()[:16] for key in keys)
    entropy = np.full((len(keys), 5), master_seed, dtype=np.uint32)
    entropy[:, 1:] = np.frombuffer(digests, dtype=np.uint32).reshape(-1, 4)
    return entropy


def _hashmix(values: np.ndarray, consts: np.ndarray, k: int, n: int) -> np.ndarray:
    """numpy's hashmix of `values` with the hash constants k to k + n."""
    values = (values ^ consts[k : k + n]) * consts[k + 1 : k + n + 1]
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
    return mixed ^ (mixed >> np.uint32(16))


def _generators(entropy: np.ndarray, pool_size: int = 4):
    """The stream of each row of more than `pool_size` entropy words, as
    `SeedSequence` mixes it; each generator is built when it is reached."""
    from numpy.random import PCG64, Generator

    n = entropy.shape[1]
    consts = np.cumprod([0x43B0D7E5] + [0x931E8875] * (pool_size * n), dtype=np.uint32)
    pool = _hashmix(entropy[:, :pool_size], consts, 0, pool_size)
    k = pool_size
    for src in range(pool_size):  # each pool word into every other
        dst = [d for d in range(pool_size) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, [src]], consts, k, len(dst)))
        k += len(dst)
    for src in range(pool_size, n):  # each further entropy word into all
        pool = _mix(pool, _hashmix(entropy[:, [src]], consts, k, pool_size))
        k += pool_size
    # generate_state(4, uint64): the pool cycled into 8 words, low word first
    consts = np.cumprod([0x8B51F9DD] + [0x58F38DED] * 8, dtype=np.uint32)
    state = _hashmix(pool[:, np.arange(8) % pool_size], consts, 0, 8)
    words = np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)
    return (Generator(PCG64(_seed_words_type()(row))) for row in words)


@functools.cache
def _seed_words_type() -> type:
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for its 4 uint64 seed words

    return SeedWords


def derive_seed_sequence(master_seed: int, *tokens) -> np.random.SeedSequence:
    """SeedSequence for the substream named by `tokens` under `master_seed`.

    `master_seed` must be an `EpisodeConfig.seed`, an integer in [0, 2^32):
    a larger seed would share the stream of its low 32 bits, a fraction
    that of the integer it truncates to.
    """
    from numpy.random import SeedSequence

    return SeedSequence(_entropy(master_seed, [b"\x1f".join(map(_encode, tokens))])[0].tolist())


def derive_rng(master_seed: int, *tokens) -> np.random.Generator:
    """Generator for the substream named by `tokens` under `master_seed`."""
    return next(_generators(_entropy(master_seed, [b"\x1f".join(map(_encode, tokens))])))


def derive_rngs(master_seed: int, *prefix, count: int):
    """Iterator over ``derive_rng(master_seed, *prefix, i)`` for ``i < count``."""
    head = b"".join(_encode(token) + b"\x1f" for token in prefix)
    return _generators(_entropy(master_seed, [head + b"i%d" % i for i in range(count)]))


def _words(value) -> list[int]:
    """A seed value as numpy coerces it: ints as 32-bit words, low first."""
    if not isinstance(value, (int, np.integer)):
        return [word for item in value for word in _words(item)]
    return [int(value) >> s & 0xFFFFFFFF for s in range(0, max(int(value).bit_length(), 1), 32)]


def spawn_rngs(seed_seq: np.random.SeedSequence, count: int):
    """Iterator over the streams of ``seed_seq.spawn(count)``'s children,
    without advancing `seed_seq`: its entropy padded to the pool, its
    spawn key, then each child's index."""
    head = _words(seed_seq.entropy)
    head += [0] * (seed_seq.pool_size - len(head)) + _words(seed_seq.spawn_key)
    rows = np.empty((count, len(head) + 1), dtype=np.uint32)
    rows[:, :-1], rows[:, -1] = head, np.arange(count) + seed_seq.n_children_spawned
    return _generators(rows, seed_seq.pool_size)
