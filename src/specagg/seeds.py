"""Deterministic random-substream derivation.

Every random draw in a run descends from the master seed plus a tuple of
string/int tokens naming the consumer (episode, band, relay, ...).
Tokens hash through SHA-256, so the same (seed, tokens) pair yields the
same stream in any process, on any platform, in any execution order.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .params import EpisodeConfig, require


def _encode(token) -> bytes:
    if isinstance(token, (int, np.integer)):
        return b"i" + str(int(token)).encode()
    if isinstance(token, str):
        return b"s" + token.encode()
    raise TypeError(f"cannot derive a seed from token of type {type(token)!r}")


def derive_seed_sequence(master_seed: int, *tokens) -> np.random.SeedSequence:
    """SeedSequence for the substream named by `tokens` under `master_seed`.

    `master_seed` must be an `EpisodeConfig.seed`, an integer in [0, 2^32):
    a larger seed would share the stream of its low 32 bits, a fraction
    that of the integer it truncates to.
    """
    require(EpisodeConfig, "seed", master_seed)
    digest = hashlib.sha256(b"\x1f".join(_encode(t) for t in tokens)).digest()
    words = np.frombuffer(digest[:16], dtype=np.uint32)
    return np.random.SeedSequence([int(master_seed), *map(int, words)])


def derive_rng(master_seed: int, *tokens) -> np.random.Generator:
    """Generator for the substream named by `tokens` under `master_seed`."""
    return np.random.default_rng(derive_seed_sequence(master_seed, *tokens))
