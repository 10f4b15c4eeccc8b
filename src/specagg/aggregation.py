"""Four-step spectrum aggregation engine.

Per slot pair the engine takes the network's sensing and prediction
views plus per-(band, relay) SNRs and produces a full allocation:

1. assign each relay to one user pair (or drop it),
2. collect each user's common free bands,
3. give every common band to the best predicted-free relay of its user,
4. group bands by winning relay and score the total throughput.

Every step is a pure function with deterministic tie-breaking (lowest
index wins), so identical inputs produce identical results.  Every step
also takes any number of leading batch axes (one per slot pair, say) on
its per-pair arrays and treats each batch entry independently, so one
call can allocate a whole block of slot pairs; a single pair is the
case with no batch axes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class RelayAssignment:
    """Outcome of step 1: each relay's owning user pair, or dropped.

    ``owner[r]`` is the user index the relay serves, or -1 when dropped.
    """

    users: int
    owner: np.ndarray

    def __post_init__(self):
        owner = np.asarray(self.owner, dtype=np.int64)
        if np.any(owner < UNASSIGNED) or np.any(owner >= self.users):
            raise ValueError("owner entries must be -1 or a valid user index")
        owner = owner.copy()
        owner.flags.writeable = False
        object.__setattr__(self, "owner", owner)


def assign_relays(topology, pair_throughput: np.ndarray) -> RelayAssignment:
    """Step 1: distribute relays to user pairs.

    A relay covering exactly one pair joins that pair.  A relay covering
    several pairs joins the covered pair with the highest relay-to-
    destination throughput (ties to the lowest user index).  A relay
    covering nothing is dropped.

    `pair_throughput[..., r, i]` must be defined wherever relay r covers
    pair i.
    """
    pair_throughput = np.asarray(pair_throughput, dtype=np.float64)
    if pair_throughput.shape[-2:] != (topology.relays, topology.users):
        raise ValueError("pair_throughput must be (..., relays, users)")
    covered = topology.coverage
    n_covered = covered.sum(axis=1)

    scores = np.where(covered, pair_throughput, -np.inf)
    best_pair = scores.argmax(axis=-1)  # first max = lowest user index

    owner = np.where(n_covered > 0, best_pair, UNASSIGNED)
    return RelayAssignment(users=topology.users, owner=owner)


@dataclass(frozen=True)
class CommonSpectrumSet:
    """Outcome of step 2: the owning user of every band, or -1 if dropped."""

    users: int
    band_user: np.ndarray

    def __post_init__(self):
        band_user = np.asarray(self.band_user, dtype=np.int64)
        if np.any(band_user < UNASSIGNED) or np.any(band_user >= self.users):
            raise ValueError("band_user entries must be -1 or a valid user index")
        band_user = band_user.copy()
        band_user.flags.writeable = False
        object.__setattr__(self, "band_user", band_user)


def common_free_spectrum(
    assignment: RelayAssignment,
    source_available: np.ndarray,
    relay_available: np.ndarray,
    snr: np.ndarray,
) -> CommonSpectrumSet:
    """Step 2: resolve every band to at most one user's common free set.

    A band qualifies for user i when it is available (idle both slots)
    at source i and at one or more of i's relays.  A band qualifying for
    exactly one user joins that user's set.  A contested band goes to
    the owner of the globally best available relay (highest SNR on that
    band, ties to the lowest relay index) -- unless that relay is
    unowned or its owner does not qualify, in which case the band is
    dropped rather than reassigned.

    Args:
        source_available: (..., users, bands) bool mask.
        relay_available: (..., relays or 1, bands) bool mask; 1 broadcasts.
        snr: (..., bands, relays) per-band received SNR of each relay.
    """
    source_available = np.asarray(source_available, dtype=bool)
    snr = np.asarray(snr, dtype=np.float64)
    batch = snr.shape[:-2]
    owner = np.broadcast_to(assignment.owner, batch + assignment.owner.shape[-1:])
    relay_free = np.asarray(relay_available, dtype=bool)
    relay_free = np.broadcast_to(relay_free, batch + relay_free.shape[-2:])
    users = assignment.users

    ownership = owner[..., None, :] == np.arange(users)[:, None]  # (..., T, Rr)
    if relay_free.shape[-2] == 1:
        # one mask for all relays: a user with a relay has a free one where it is free
        ownership = ownership.any(axis=-1, keepdims=True)
    # free relays of each user per band, counted exactly in float64
    user_relay_free = (ownership.astype(np.float64) @ relay_free.astype(np.float64)) > 0
    candidates = source_available & user_relay_free  # (..., T, N)
    n_candidates = candidates.sum(axis=-2)
    # the user ids dotted with a one-candidate mask give that candidate
    band_user = np.where(n_candidates == 1, np.arange(users) @ candidates, UNASSIGNED)

    # (batch..., band) indices of the contested bands; each one's SNR row,
    # busy relays masked out in place
    contested = np.nonzero(n_candidates >= 2)
    rows = snr[contested]  # (K, Rr)
    np.copyto(rows, -np.inf, where=~np.swapaxes(relay_free, -1, -2)[contested])
    winner = rows.argmax(axis=-1)
    winner_owner = owner[contested[:-1] + (winner,)]
    owner_qualifies = (winner_owner >= 0) & candidates[
        contested[:-1] + (np.clip(winner_owner, 0, None), contested[-1])
    ]
    band_user[contested] = np.where(owner_qualifies, winner_owner, UNASSIGNED)
    return CommonSpectrumSet(users=users, band_user=band_user)


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of steps 3-4 for one slot pair.

    ``band_relay[n]`` is the winning relay of band n (-1 when the band
    is unallocated), ``band_snr[n]`` its received SNR (0 when
    unallocated) and ``band_user[n]`` the owning user from step 2.
    ``snr_total`` is the sum of winning SNRs; the throughput fields are
    filled by `aggregate_and_score`.  With leading batch axes on the
    band arrays, the totals carry the same batch axes.
    """

    users: int
    band_user: np.ndarray
    band_relay: np.ndarray
    band_snr: np.ndarray
    snr_total: float | np.ndarray
    total_throughput_bps: float | np.ndarray | None = None
    user_throughput_bps: np.ndarray | None = None

    @property
    def allocated(self) -> np.ndarray:
        """Boolean mask of bands that got a relay."""
        return self.band_relay >= 0

    def relay_bands(self) -> dict[int, np.ndarray]:
        """Step-4 grouping: bands aggregated per winning relay."""
        out: dict[int, np.ndarray] = {}
        for relay in np.unique(self.band_relay[self.allocated]):
            out[int(relay)] = np.flatnonzero(self.band_relay == relay)
        return out


def allocate_spectrum(
    common: CommonSpectrumSet,
    assignment: RelayAssignment,
    bits: np.ndarray,
    snr: np.ndarray,
) -> AllocationResult:
    """Step 3: per band, pick the owner's best predicted-free relay.

    Only relays whose prediction bit for the band is 0 are eligible;
    among those the highest SNR wins (ties to the lowest relay index).
    A band with no eligible relay stays unallocated and contributes
    nothing to the SNR total.

    Args:
        bits: (..., relays or 1, bands) prediction bits, 0 = free; 1 broadcasts.
        snr: (..., bands, relays) per-band received SNR of each relay.
    """
    snr = np.asarray(snr, dtype=np.float64)
    band_user = common.band_user
    batch = snr.shape[:-2]
    owner = np.broadcast_to(assignment.owner, batch + assignment.owner.shape[-1:])
    ownership = owner[..., None, :] == np.arange(common.users)[:, None]  # (..., T, Rr)
    bits = np.broadcast_to(bits, batch + np.shape(bits)[-2:])

    # (batch..., band) indices of the bands step 2 gave to a user; each
    # one's SNR row, relays of other users or predicted busy masked out
    assigned = np.nonzero(band_user >= 0)
    eligible = ownership[assigned[:-1] + (band_user[assigned],)] & (
        np.swapaxes(bits, -1, -2)[assigned] == 0
    )  # (K, Rr)
    scores = snr[assigned]
    np.copyto(scores, -np.inf, where=~eligible)
    best = scores.argmax(axis=-1)
    best_snr = scores[np.arange(best.size), best]
    has_winner = eligible.any(axis=-1)
    band_relay = np.full(band_user.shape, UNASSIGNED)
    band_relay[assigned] = np.where(has_winner, best, UNASSIGNED)
    band_snr = np.zeros(band_user.shape)
    band_snr[assigned] = np.where(has_winner, best_snr, 0.0)

    return AllocationResult(
        users=common.users,
        band_user=band_user,
        band_relay=band_relay,
        band_snr=band_snr,
        snr_total=band_snr.sum(axis=-1),
    )


def aggregate_and_score(
    allocation: AllocationResult, params: RadioParams
) -> AllocationResult:
    """Step 4: total and per-user throughput of the allocation.

    Each allocated band contributes b*log2(1 + winning SNR); a user's
    capacity is the same sum restricted to that user's bands, added up
    in band order.
    """
    alloc = allocation.allocated
    per_band = np.where(alloc, link_throughput(params, allocation.band_snr), 0.0)
    users = allocation.users
    batch = per_band.shape[:-1]
    # bincount adds each (batch entry, user) cell's bands in band order
    rows = np.arange(int(np.prod(batch)), dtype=np.int64).reshape(batch + (1,))
    cells = (rows * users + allocation.band_user)[alloc]
    user_throughput = np.bincount(
        cells, weights=per_band[alloc], minlength=rows.size * users
    ).reshape(batch + (users,))
    return replace(
        allocation,
        total_throughput_bps=per_band.sum(axis=-1),
        user_throughput_bps=user_throughput,
    )
