"""Brute-force reference implementations used to cross-check the library.

These deliberately avoid the library's own code paths: counting uses a
dict-style loop, the allocation oracle materialises the full
cartesian product of per-band choices instead of taking per-band maxima,
noisy sensing draws through the public Generator calls slot by slot
instead of decoding one raw-word draw, substreams are seeded through
numpy's own SeedSequence instead of one array pass per family, and
fading gains are drawn one band's (pairs, relays) array at a time into a
pair-major array instead of filling a band-major buffer in place.  The
acceptance gate's paired t-test lives here too, since scipy is a test
dependency only.
"""

import functools
import hashlib

import numpy as np
from scipy import stats

from specagg.markov import N_STATES

UNALLOCATED = -1


def naive_pair_counts(seq):
    """Count adjacent state pairs with a plain loop."""
    counts = np.zeros((3, 3), dtype=np.int64)
    for a, b in zip(seq[:-1], seq[1:]):
        counts[int(a), int(b)] += 1
    return counts


def exhaustive_best_assignment(common_user, owner, bits, snr):
    """Enumerate every relay-per-band choice respecting the prediction bits.

    Returns (maximal SNR total, one maximising per-band relay tuple).
    Option lists are ordered 'unallocated first, then relays by index',
    so with distinct SNRs the argmax tuple is unique.
    """
    n_bands, n_relays = snr.shape
    options = []
    for band in range(n_bands):
        user = common_user[band]
        choices = [(UNALLOCATED, 0.0)]
        if user >= 0:
            for relay in range(n_relays):
                if owner[relay] == user and bits[relay, band] == 0:
                    choices.append((relay, snr[band, relay]))
        options.append(choices)
    values = [np.array([value for _, value in c]) for c in options]
    totals = functools.reduce(np.add.outer, values)
    best = float(totals.max())
    idx = np.unravel_index(int(totals.argmax()), totals.shape)
    chosen = [options[band][i][0] for band, i in enumerate(idx)]
    return best, chosen


def slotwise_sense(true_states, sensing_error_rate, rng):
    """Noisy `topology.sense` through the public Generator calls: slot
    after slot, the flip uniforms, then the offsets."""
    true_states = np.asarray(true_states, dtype=np.int8)
    slots = true_states if true_states.ndim > 1 else true_states[None]
    flip = np.empty(slots.shape, dtype=bool)
    offset = np.empty(slots.shape, dtype=np.int8)
    for t in range(len(slots)):
        flip[t] = rng.random(slots.shape[1:]) < sensing_error_rate
        # offset 1 or 2 sends a state to one of the two other states
        offset[t] = rng.integers(1, N_STATES, size=slots.shape[1:])
    return np.where(flip, (slots + offset) % N_STATES, slots).reshape(true_states.shape)


def seed_sequence_rng(master_seed, *tokens):
    """`seeds.derive_rng` through numpy's SeedSequence: the seed, then the
    first 16 bytes of the tokens' SHA-256 digest as four uint32 words."""
    key = b"\x1f".join(
        b"s" + token.encode() if isinstance(token, str) else b"i%d" % int(token)
        for token in tokens
    )
    words = np.frombuffer(hashlib.sha256(key).digest()[:16], dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, words)]))


def spawned_rngs(seed_seq, count):
    """`seeds.spawn_rngs` through `SeedSequence.spawn`, which advances the parent."""
    return [np.random.default_rng(child) for child in seed_seq.spawn(count)]


def bandwise_gains(seed, episode, n_pairs, relays, bands):
    """`simulation.gain_chunks`'s Rayleigh gains: each band's stream draws
    a fresh (pairs, relays) `exponential` array, copied into a
    (pairs, bands, relays) one."""
    gains = np.empty((n_pairs, bands, relays))
    for n in range(bands):
        rng = seed_sequence_rng(seed, "gain", episode, n)
        gains[:, n, :] = rng.exponential(1.0, size=(n_pairs, relays))
    return gains


def paired_one_sided_pvalue(x, y) -> float:
    """P-value of a paired t-test for H1: mean(x - y) > 0.

    `x` and `y` must be seed-matched samples of equal length.  A zero
    variance of the differences degenerates to p = 0 when the common
    difference is positive and p = 1 otherwise.
    """
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    if d.size < 2:
        raise ValueError("need at least two paired samples")
    mean = d.mean()
    sd = d.std(ddof=1)
    if sd == 0.0:
        return 0.0 if mean > 0 else 1.0
    t = mean / (sd / np.sqrt(d.size))
    return float(stats.t.sf(t, d.size - 1))
