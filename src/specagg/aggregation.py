"""Four-step spectrum aggregation engine.

Per slot pair the engine takes the network's sensing and prediction
views plus per-(band, relay) SNRs and produces a full allocation:

1. assign each relay to one user pair or drop it (`assign_relays`
   returns each relay's owner),
2. give each band to at most one user's common free set
   (`common_free_spectrum` returns each band's user),
3. give every such band to the best predicted-free relay of its user
   (`allocate_spectrum` returns each band's relay and that relay's entry
   of `snr`, before any `hop` factor),
4. aggregate each user's bands and score the throughput
   (`aggregate_and_score`).

The steps pass plain integer arrays, with -1 (`UNASSIGNED`) for a
dropped relay or a band without a user or relay.  Every step is a pure
function with deterministic tie-breaking (lowest index wins), so
identical inputs produce identical results.  Every step also takes any
number of leading batch axes (one per slot pair, say) on its per-pair
arrays and treats each batch entry independently, so one call can
allocate a whole block of slot pairs; a single pair is the case with
no batch axes.

Steps 2 and 3 rank on each band's best relay of all (`best`, ties to
the lowest index), and re-rank only the bands whose masks exclude it.
Where every node reads one view -- the source and relay masks of step 2
or the prediction bits of step 3 arrive with a node axis of 1, as under
perfect sensing -- a step is decided in closed form on (..., bands)
arrays.  Step 2 gives a band free in the view to the only user that
owns a relay or, where two or more do, to its best relay's owner (-1
for an unowned relay); every other band gets -1.  Step 3 gives a band
with a user and a Good prediction its best relay where that user owns
it, and only its other such bands re-rank; in a decision pass, whose
unowned relays score 0, only zero-score ties leave any.  Per-node masks
take the masked path.
"""

from __future__ import annotations

import numpy as np

from .markov import SpectrumState
from .radio import RadioParams, link_throughput

UNASSIGNED = -1


def two_slot_availability(sensed: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Idle-both-slots mask: sensed not Busy now and predicted not Busy next."""
    return (np.asarray(sensed) != SpectrumState.BUSY) & (
        np.asarray(predicted) != SpectrumState.BUSY
    )


def prediction_bits(predicted: np.ndarray) -> np.ndarray:
    """Occupancy bits from predicted states: 0 = free (predicted Good), 1 = occupied."""
    return (np.asarray(predicted) != SpectrumState.GOOD).astype(np.int8)


def assign_relays(topology, pair_throughput: np.ndarray) -> np.ndarray:
    """Step 1: distribute relays to user pairs; returns each relay's owner.

    A relay covering exactly one pair joins that pair.  A relay covering
    several pairs joins the covered pair with the highest relay-to-
    destination throughput (ties to the lowest user index).  A relay
    covering nothing is dropped: its owner is -1.

    `pair_throughput[..., r, i]` must be defined wherever relay r covers
    pair i; the (..., relays) owners keep its batch axes.
    """
    pair_throughput = np.asarray(pair_throughput, dtype=np.float64)
    if pair_throughput.shape[-2:] != (topology.relays, topology.users):
        raise ValueError("pair_throughput must be (..., relays, users)")
    covered = topology.coverage
    n_covered = covered.sum(axis=1)

    scores = np.where(covered, pair_throughput, -np.inf)
    best_pair = scores.argmax(axis=-1)  # first max = lowest user index

    return np.where(n_covered > 0, best_pair, UNASSIGNED)


def _relay_inputs(owner, snr, hop, best):
    """(snr, owner, hop, best) of steps 2 and 3: the SNRs as float64, the
    owners and per-relay factors broadcast to the SNRs' batch axes as views,
    and `best` as an array, or each band's highest-SNR relay of all (ties to
    the lowest index) ranked from the SNRs when it is None."""
    snr = np.asarray(snr, dtype=np.float64)
    owner = np.broadcast_to(owner, snr.shape[:-2] + np.shape(owner)[-1:])
    hop = np.broadcast_to(hop, owner.shape)
    if best is None:
        return snr, owner, hop, (hop[..., None, :] * snr).argmax(axis=-1)
    return snr, owner, hop, np.asarray(best, np.intp)


def _best_admitted(index, best, admits, snr, hop):
    """The highest-SNR relay (ties to the lowest index) that `admits`, a mask read
    at (batch..., band, relay) indices, admits on each band of `index`, or -1.
    `best`, each row's lowest-index maximum, wins wherever admitted; only the
    other bands with an admitted relay rank SNR rows, rebuilt for them alone."""
    winner = best[index]
    redo = np.flatnonzero(~admits(index + (winner,)))
    index = tuple(axis[redo] for axis in index)
    eligible = admits(index + (slice(None),))  # (K, relays or 1)
    some = eligible.any(axis=-1)
    index = tuple(axis[some] for axis in index)
    rows = hop[index[:-1]] * snr[index]  # (K, relays)
    np.copyto(rows, -np.inf, where=~eligible[some])
    winner[redo] = UNASSIGNED
    winner[redo[some]] = rows.argmax(axis=-1)
    return winner


def common_free_spectrum(
    owner: np.ndarray,
    users: int,
    source_available: np.ndarray,
    relay_available: np.ndarray,
    snr: np.ndarray,
    hop=1.0,
    best=None,
) -> np.ndarray:
    """Step 2: resolve every band to at most one user's common free set.

    A band qualifies for user i when it is available (idle both slots)
    at source i and at one or more of i's relays.  A band qualifying for
    exactly one user joins that user's set.  A contested band goes to
    the owner of the globally best available relay (highest SNR on that
    band, ties to the lowest relay index) -- unless that relay is
    unowned or its owner does not qualify, in which case the band is
    dropped rather than reassigned.

    Args:
        owner: (..., relays) step-1 owners, -1 for a dropped relay.
        users: the number of user pairs.
        source_available: (..., users or 1, bands) bool mask; 1 broadcasts.
        relay_available: (..., relays or 1, bands) bool mask; 1 broadcasts.
        snr: (..., bands, relays) per-band SNR of each relay, before `hop`.
        hop: (..., relays) per-relay factor: relay r's SNR on band n is
            ``hop[..., r] * snr[..., n, r]``; 1 by default.
        best: (..., bands) each band's highest-SNR relay of all (ties to the
            lowest index); ranked from the SNRs when None.

    Returns:
        (..., bands) int64 user of each band, -1 where it is dropped.
    """
    snr, owner, hop, best = _relay_inputs(owner, snr, hop, best)
    source_available = np.asarray(source_available, dtype=bool)
    relay_free = np.asarray(relay_available, dtype=bool)

    ownership = owner[..., None, :] == np.arange(users)[:, None]  # (..., T, Rr)
    if source_available.shape[-2] == relay_free.shape[-2] == 1:
        # one view for every node: a band free in it qualifies for each user
        # with a relay, and its best relay of all is free, so it goes to the
        # only such user or else to its best relay's owner (-1 if unowned,
        # as every relay is where no user has one)
        holders = ownership.any(axis=-1)  # (..., T)
        user = np.where(holders.sum(axis=-1, keepdims=True) == 1,
                        holders.argmax(axis=-1)[..., None],
                        np.take_along_axis(owner, best, axis=-1))
        return np.where((source_available & relay_free)[..., 0, :], user, UNASSIGNED)
    # free relays of each user per band, counted exactly in float64; a one-row
    # relay mask is every relay's
    relays_by_band = owner.shape[-1:] + relay_free.shape[-1:]
    relay_free = np.broadcast_to(relay_free, relay_free.shape[:-2] + relays_by_band)
    user_relay_free = (ownership.astype(np.float64) @ relay_free.astype(np.float64)) > 0
    candidates = source_available & user_relay_free  # (..., T, N)
    n_candidates = candidates.sum(axis=-2)
    # a one-candidate band's first candidate is its only one
    band_user = np.where(n_candidates == 1, candidates.argmax(axis=-2), UNASSIGNED)

    # (batch..., band) indices of the contested bands, and each one's best free relay
    contested = np.nonzero(n_candidates >= 2)
    free = np.broadcast_to(np.swapaxes(relay_free, -1, -2), snr.shape)  # (..., N, Rr)
    winner = _best_admitted(contested, best, lambda at: free[at], snr, hop)
    winner_owner = owner[contested[:-1] + (winner,)]
    owner_qualifies = (winner_owner >= 0) & candidates[
        contested[:-1] + (np.maximum(winner_owner, 0), contested[-1])
    ]
    band_user[contested] = np.where(owner_qualifies, winner_owner, UNASSIGNED)
    return band_user


def allocate_spectrum(
    band_user: np.ndarray,
    owner: np.ndarray,
    bits: np.ndarray,
    snr: np.ndarray,
    hop=1.0,
    best=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Step 3: per band, pick its user's best predicted-free relay.

    Only relays owned by the band's user whose prediction bit for the
    band is 0 are eligible; among those the highest SNR wins (ties to
    the lowest relay index).  A band with no user or no eligible relay
    stays unallocated.

    Args:
        band_user: (..., bands) step-2 users, -1 for a dropped band.
        owner: (..., relays) step-1 owners, -1 for a dropped relay.
        bits: (..., relays or 1, bands) prediction bits, 0 = free; 1 broadcasts.
        snr, hop, best: each relay's SNRs, as for `common_free_spectrum`.

    Returns:
        (band_relay, band_snr): the (..., bands) winning relay of each
        band, -1 when unallocated, and the winner's entry of `snr`, 0 when
        unallocated; `hop` ranks the relays but does not scale it.
    """
    snr, owner, hop, best = _relay_inputs(owner, snr, hop, best)
    band_user = np.asarray(band_user)
    free = np.asarray(bits) == 0

    # the bands step 2 gave to a user and some relay predicts free
    assigned = (band_user >= 0) & free.any(axis=-2)
    band_snr = np.zeros(band_user.shape)
    if free.shape[-2] == 1:
        # one prediction for every relay: a band takes its best relay of all
        # where the band's user owns it; only the rest re-rank
        takes = assigned & (np.take_along_axis(owner, best, axis=-1) == band_user)
        assigned &= ~takes
        band_relay = np.where(takes, best, UNASSIGNED)
        # (batch..., band) indices of those bands, found flat, and their relays
        won = np.unravel_index(np.flatnonzero(takes), takes.shape)
        band_snr[won] = snr[won + (best[won],)]
    else:
        band_relay = np.full(band_user.shape, UNASSIGNED)
    if assigned.any():
        # (batch..., band) indices of the bands left, and each one's best relay
        # of its user predicted free
        left = np.nonzero(assigned)
        owners, users, predicted_free = np.broadcast_arrays(  # (..., N, Rr) views
            owner[..., None, :], band_user[..., None], np.swapaxes(free, -1, -2))
        winner = _best_admitted(
            left, best, lambda at: (owners[at] == users[at]) & predicted_free[at], snr, hop)
        band_relay[left] = winner
        band_snr[left] = np.where(winner >= 0, snr[left + (np.maximum(winner, 0),)], 0.0)
    return band_relay, band_snr


def aggregate_and_score(
    band_user: np.ndarray, band_snr: np.ndarray, users: int, params: RadioParams
) -> tuple[np.ndarray, np.ndarray]:
    """Step 4: total and per-user throughput of an allocation.

    Each band contributes b*log2(1 + its SNR), so a band without a relay
    (SNR 0) contributes nothing; a user's capacity is the same sum
    restricted to that user's bands, added up in band order.

    Returns:
        (total_bps, user_bps): the (...) network throughput and the
        (..., users) throughput of each user.
    """
    per_band = link_throughput(params, band_snr)
    batch = per_band.shape[:-1]
    # bincount adds each (batch entry, user) cell's bands in band order
    mine = band_user >= 0
    rows = np.arange(int(np.prod(batch)), dtype=np.int64).reshape(batch + (1,))
    cells = (rows * users + band_user)[mine]
    user_throughput = np.bincount(
        cells, weights=per_band[mine], minlength=rows.size * users
    ).reshape(batch + (users,))
    return per_band.sum(axis=-1), user_throughput
