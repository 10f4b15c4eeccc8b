"""Two-slot episode simulation: sense, train, predict, allocate, score.

An episode walks a network through `slots` time slots.  After a training
prefix, every slot t starts a transmission pair (t, t+1): nodes sense at
slot t, a per-band transition matrix is refit on the most recent sensed
window, slot t+1 states are predicted, the aggregation engine allocates
bands under the idle-both-slots rule, and the true t+1 states score the
outcome.  An allocated band whose true t+1 state is Busy or Bad is an
outage; throughput counts only non-outage bands.

Four strategies share identical ground truth, topology, sensing errors,
link budgets and fading draws per (seed, episode) -- comparisons between
them are paired:

* ``PREDICT_AGGREGATE``: Markov prediction + full aggregation.
* ``NO_PREDICTION``: assumes slot t+1 equals the sensed slot t state.
* ``NO_AGGREGATION``: predicts, but each user keeps only its single
  best allocated band.
* ``SINGLE_USER``: the same pipeline with only the first user pair
  present (it keeps every relay that covers it).

No slot pair depends on an earlier pair's allocation, so an episode is
one lockstep pass (`run_episode`) over arrays of all its pairs, which
returns each strategy's allocation.  Each decision (first pair or all,
predict or persist) runs once: step 1 assigns every pair's relays once
per topology, the fading gains are drawn by chunks of bands into one
reused buffer, each band's stream in one call, and per chunk each
topology ranks the best relay of every pair and band once; steps 2-3
run over pair blocks of the chunk's bands and re-rank only the bands
whose masks exclude it.  Every node's sensed states are one (slots,
nodes, bands) array, which each pair block judges once per predictor.
`NO_AGGREGATION` releases predict's bands but each user's best, once per
pass.  Decisions rank on draw-only scores (the hop at Es/N0 = 1, times
the band's gain), so no Es/N0 point or transmit power can move one.
`score_episode` scores an `EpisodePass`, an allocation alone, at any
list of Es/N0 points.  `run_strategies` is the one way to run a cell:
per episode one world, one pass and one scoring per strategy, whose
arrays are stacked over the episodes into the strategy's
`StrategyMetrics`.  `summarize` reduces those to each point's summary rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .aggregation import (
    UNASSIGNED,
    aggregate_and_score,
    allocate_spectrum,
    assign_relays,
    common_free_spectrum,
    prediction_bits,
    two_slot_availability,
)
from .markov import SpectrumState, predict_next_states, window_transition_counts, wrap_states
from .params import ConfigError, EpisodeConfig, NetworkScenario, Strategy, param, violation
from .radio import RadioParams, sample_hop_splits
from .seeds import derive_rng, derive_rngs, derive_seed_sequence
from .topology import (
    BandProcessSet,
    SpectrumProcessConfig,
    Topology,
    build_topology,
    derive_ground_truth_matrix,
    sense,
)


# Blocks hold at most this many elements of their widest array: the
# (bands, pairs, relays) scores that rank each band's best relay, taken
# as blocks of a gain chunk's bands, or the (pairs, users or sensing
# relays, bands) masks of steps 2-3, taken as blocks of pairs over a
# chunk's bands (every node's judged states hold both node sets).  A
# default episode ranks blocks of 20 bands and runs steps 2-3 as blocks
# of 65 and 15 pairs (16 under noisy sensing); each temporary stays
# under a megabyte.
PAIR_BLOCK_ELEMENTS = 2**15

# The fading gains are drawn in chunks of bands whose (bands, pairs,
# relays) gains hold at most this many elements, 8 MB, or one band where
# a band holds more: a default episode is one chunk, a 1000-band,
# 100-relay one is drawn 131 bands at a time into one reused buffer, so
# an episode's gains are never held whole.
GAIN_CHUNK_ELEMENTS = 2**20


def designated_band_error(designated_band: int, bands: int) -> str | None:
    """Why the traced `designated_band` is not one of `bands` bands; None when it is."""
    if designated_band >= bands:
        return f"designated_band must lie in [0, bands), got {designated_band} with bands={bands}"
    return None


@dataclass(frozen=True)
class StrategyMetrics:
    """One strategy's metrics over a cell's episodes, at each of its Es/N0 points."""

    pair_slots: np.ndarray  # (pairs,): the first slot of each slot pair
    allocated: np.ndarray  # (episodes, pairs): kept bands
    outages: np.ndarray  # (episodes, pairs): kept bands whose true t + 1 state fails
    throughput_bps: np.ndarray  # (points, episodes, pairs): network throughput
    user_capacity_bps: np.ndarray  # (points, episodes, users seen): means over the pairs
    trace: np.ndarray  # (episodes, pairs, 3): actual, default, predicted for one band


@dataclass(frozen=True)
class EpisodePass:
    """What one strategy's pass decided; it holds no Es/N0 and scores nothing.

    `kept` is the allocation, four (pairs, bands) arrays: each band's
    user (-1 for none), and its winning relay's position split, doubled
    attenuation and fading gain (both 0 for an unallocated band).  A band
    is held where its user is >= 0; a released band keeps its winner's
    draws.  `failed` marks the bands whose true t + 1 state is Busy or Bad.
    """

    users: int
    kept: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    failed: np.ndarray
    trace: np.ndarray  # (pairs, 3): actual, default, predicted for one band


def _blocks(start: int, stop: int, width: int) -> list[slice]:
    """Slices of the consecutive indices (slot pairs or bands) [start, stop),
    each with at most PAIR_BLOCK_ELEMENTS elements of `width` per index (at
    least one index)."""
    block = max(1, PAIR_BLOCK_ELEMENTS // width)
    return [slice(first, min(first + block, stop)) for first in range(start, stop, block)]


def _hop(alpha: np.ndarray, total: np.ndarray, snr_combining: str) -> np.ndarray:
    """Relayed-link SNR budget of position splits `alpha` and hop sums `total`.

    `total` is beta * 2 * Es/N0; the budget is the second hop, (1 - alpha)
    * total, or the lesser of both hops for 'min_hop'.
    """
    hop = (1.0 - alpha) * total
    if snr_combining == "min_hop":
        hop = np.minimum(alpha * total, hop)
    return hop


def reduce_to_best_band(band_user: np.ndarray, score: np.ndarray, users: int) -> np.ndarray:
    """No-aggregation policy: the mask of each user's best allocated band.

    `band_user` is the (..., bands) user of each allocated band, -1 for
    an unallocated one.  Of each user's bands the one with the highest
    `score` is kept (ties to the lowest band id); every other band is
    released.  Leading batch axes are reduced independently.
    """
    mine = band_user[..., None, :] == np.arange(users)[:, None]  # (..., users, bands)
    best = np.where(mine, score[..., None, :], -np.inf).argmax(axis=-1)
    bands = np.arange(band_user.shape[-1])
    return (mine.any(axis=-1)[..., None] & (bands == best[..., None])).any(axis=-2)


def episode_draws(
    seed: int, episode: int, n_pairs: int, relays: int, users: int
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (alpha, beta): an episode's link-budget draws.

    They are the (n_pairs, relays, users) position splits and attenuations
    of `radio.sample_hop_splits`, one budget stream per relay, so adding a
    relay never perturbs the draws of the existing ones.
    """
    alpha = np.empty((n_pairs, relays, users))
    beta = np.empty_like(alpha)
    for r, rng in enumerate(derive_rngs(seed, "budget", episode, count=relays)):
        alpha[:, r], beta[:, r] = sample_hop_splits(rng, (n_pairs, users))
    for draws in (alpha, beta):
        draws.flags.writeable = False
    return alpha, beta


def gain_chunks(seed: int, episode: int, n_pairs: int, relays: int, bands: int, gain_model: str):
    """Yield (chunk, gains): an episode's fading draws, one chunk of bands at a time.

    `chunk` slices consecutive bands whose draws hold at most
    GAIN_CHUNK_ELEMENTS elements (at least one band), and `gains` is their
    read-only (bands, pairs, relays) power gains.  Each band has one
    fading stream, which draws the band's gains of every pair in one call,
    so adding a band never perturbs the others' draws.  Each chunk
    overwrites the buffer of the last one; unit gains are one chunk that
    holds no memory.
    """
    if gain_model != "rayleigh":
        yield slice(0, bands), np.broadcast_to(1.0, (bands, n_pairs, relays))
        return
    size = max(1, GAIN_CHUNK_ELEMENTS // (n_pairs * relays))
    # each band's generator is built when its band is reached and dropped after its draw
    rngs = derive_rngs(seed, "gain", episode, count=bands)
    buffer = np.empty((min(size, bands), n_pairs, relays))
    for start in range(0, bands, size):
        gains = buffer[: min(size, bands - start)]
        for block in gains:
            next(rngs).standard_exponential(out=block)
        gains.flags.writeable = False
        yield slice(start, start + len(gains)), gains


def sensing_offsets(
    seed: int, episode: int, slots: int, bands: int, users: int, relays: int, err: float
) -> np.ndarray:
    """Read-only int8 (slots, users + relays, bands): an episode's sensing errors.

    The users' nodes come first, then the relays', each with its own
    sensing stream and its `sense` offsets: 0 where the node senses a
    band correctly, 1 or 2 where its report is that many states past the
    truth, so it senses any truth as ``wrap_states(truth + offsets)``.
    """
    offsets = np.stack([sense(rng, err, slots, bands)
                        for kind, n in (("src", users), ("rel", relays))
                        for rng in derive_rngs(seed, "sense", episode, kind, count=n)], axis=1)
    offsets.flags.writeable = False
    return offsets


# an Es/N0 point: a linear end-to-end SNR budget, the sweep variable
_ES_POINT = param(None, "(0, inf)")


def _require_es_points(points: list[float]) -> None:
    """Raise `ConfigError` for an Es/N0 point of `points` outside `(0, inf)`."""
    for es in points:
        if message := violation("es_over_n0", es, _ES_POINT):
            raise ConfigError(message)


def score_episode(
    decided: EpisodePass, points: list[float], params: RadioParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The metrics of the allocation `decided` at each Es/N0 point of `points`.

    Returns each pair's held and failed band counts, each (point, pair)'s
    throughput and each (point, user)'s mean throughput over the pairs.
    A held band is an outage where it `failed`, and an outage delivers
    nothing.  Each pair block rebuilds its SNRs at every point as one
    (points, pairs, bands) batch, in the order (1 - alpha) * (beta * 2 *
    es), then tx * hop * gain / gamma, over the full band layout, so every
    sum rounds as it does for one point alone.  Only the throughputs
    depend on Es/N0; an empty `points` gives none.
    """
    _require_es_points(points)
    users, failed = decided.users, decided.failed
    n_pairs, bands = failed.shape
    es = np.array(points)[:, None, None]
    allocated, outages = np.empty(n_pairs, np.int64), np.empty(n_pairs, np.int64)
    throughput = np.empty((len(points), n_pairs))
    capacity = np.empty((len(points), n_pairs, users))
    # several (points, pairs, bands) temporaries are alive at once; counting at
    # least three users keeps a single-user pass's blocks within a multi-user pass's
    for pairs in _blocks(0, n_pairs, max(len(points), 1) * bands * max(users, 3)):
        band_user, hop_split, beta2, gain = (array[pairs] for array in decided.kept)
        held = band_user >= 0
        delivered = held & ~failed[pairs]
        snr = params.tx_power_w * _hop(hop_split, beta2 * es, params.snr_combining) * gain
        snr /= params.gamma
        # a band that delivers nothing gets SNR 0, so it scores nothing for its user
        band_snr = np.where(delivered, snr, 0.0)
        allocated[pairs], outages[pairs] = held.sum(axis=-1), (held & failed[pairs]).sum(axis=-1)
        throughput[:, pairs], capacity[:, pairs] = aggregate_and_score(
            np.broadcast_to(band_user, snr.shape), band_snr, users, params
        )
    return allocated, outages, throughput, capacity.mean(axis=1)


def run_episode(
    config: EpisodeConfig,
    topology: Topology,
    processes: BandProcessSet,
    params: RadioParams,
    episode: int,
    strategies: tuple[Strategy, ...],
) -> tuple[EpisodePass, ...]:
    """Run one episode's pass of each of `strategies` in lockstep; returns them, unscored.

    A decision is whether a strategy sees only the first pair (`SINGLE_USER`
    sees `topology` restricted to it and reads its share of the full
    population's draws and views) and whether it predicts (all but
    `NO_PREDICTION`); each runs once, however many strategies share it.
    All share the draws and every node's sensed states, one (slots, nodes,
    bands) array: the truth with one node under perfect sensing, else the
    users' views and then the relays'.  Each pair block judges them once
    per predictor, and decisions that see the same topology share step 1
    and the best relays.  Each chunk of bands ranks its best relays and
    runs steps 2-3 of every decision before the next is drawn.
    `NO_AGGREGATION` releases predict's bands but each user's best.  No pass
    reads Es/N0, transmit power or the SNR gap.  The trajectory is read from
    slot 0.
    """
    users, relays, bands = topology.users, topology.relays, processes.band_count
    n_pairs, seed = config.pairs, config.seed
    if message := designated_band_error(config.designated_band, bands):
        raise ConfigError(message)
    if processes.max_slots < config.slots - 1:
        raise ConfigError(
            f"band processes cover {processes.max_slots + 1} slots, "
            f"the episode needs {config.slots}"
        )
    alpha, beta = episode_draws(seed, episode, n_pairs, relays, users)

    truth = processes.trajectory()[: config.slots]
    err = config.sensing_error_rate
    # (slots, nodes, bands) sensed states and the nodes that are relays
    if err == 0.0:
        # perfect sensing: every node shares one view, the truth
        sensed, relay_nodes = truth[:, None, :], slice(0, None)
    else:
        # the users' views, then the relays'
        offsets = sensing_offsets(seed, episode, config.slots, bands, users, relays, err)
        sensed, relay_nodes = wrap_states(truth[:, None] + offsets), slice(users, None)
    # the predictor trains on the first user's sensed history
    history = sensed[:, 0]
    pair_slots = np.arange(config.n_train - 1, config.slots - 1, dtype=np.int64)
    # per decision (whether it sees the first pair alone, whether it predicts):
    # its kept (pairs, bands) winners and their gains, filled block by block
    decision = {strategy: (strategy == Strategy.SINGLE_USER, strategy != Strategy.NO_PREDICTION)
                for strategy in strategies}
    records = {key: (np.empty((n_pairs, bands), np.min_scalar_type(-relays)),
                     np.empty((n_pairs, bands))) for key in decision.values()}
    # window k ends at pair k's first slot
    counts = window_transition_counts(history[:-1], config.n_train)

    # step 1 for all pairs at once, on draw-only scores (the hop at Es/N0 = 1, then
    # times band gains): an SNR is a score times tx * Es/N0 / gamma, so both rank alike
    hop = _hop(alpha, beta * 2.0, params.snr_combining)
    # per topology a decision sees, the whole or its first pair alone: its
    # user count, its relays' owners (narrowest integer type holding -1) and
    # their hops toward them, which its decisions share
    steps = {}
    for single in dict.fromkeys(single for single, _ in records):
        seen, seen_hop = (topology.restrict_to_user(0), hop[..., :1]) if single else (topology, hop)
        owner = assign_relays(seen, seen_hop).astype(np.min_scalar_type(-seen.users))
        # each relay's hop toward its owner; 0 for an unowned relay, so a relay off
        # the first pair is a band's best only where every score is 0, and then
        # relay 0 is, as it is among the pair's relays and relay 0 alone
        owned = np.take_along_axis(seen_hop, np.clip(owner, 0, None)[..., None], axis=-1)
        steps[single] = (seen.users, owner, np.where(owner >= 0, owned[..., 0], 0.0))
    # freed before the chunks' temporaries, which would otherwise grow the heap
    del hop
    designated = config.designated_band
    # steps 2-3 blocks are sized by their widest per-pair mask, (users or sensing relays, bands)
    widest = max(users, sensed.shape[1] - relay_nodes.start)
    for chunk, gains in gain_chunks(seed, episode, n_pairs, relays, bands, params.gain_model):
        # per topology, the best relay of each (pair, band of the chunk), shared by
        # predict and persist, ranked on contiguous blocks of the chunk's bands
        best = {single: np.concatenate([(gains[b] * owned_hop).argmax(-1)
                                        for b in _blocks(0, len(gains), n_pairs * relays)]).T
                for single, (_, _, owned_hop) in steps.items()}
        for pairs in _blocks(0, n_pairs, len(gains) * widest):
            block_gains = gains[:, pairs].transpose(1, 0, 2)  # (pairs, bands, relays)
            now = sensed[pair_slots[pairs], :, chunk]  # (pairs, nodes, bands) at t
            # per predictor, judged when a decision first needs it: every node's
            # availability and the relays' bits, of t + 1 predicted or persisted
            judged = {}
            for (single, predicting), (band_relay, kept_gain) in records.items():
                if predicting not in judged:
                    after = (predict_next_states(counts[pairs, None, chunk], now)
                             if predicting else now)
                    judged[predicting] = (two_slot_availability(now, after),
                                          prediction_bits(after[:, relay_nodes]))
                available, bits = judged[predicting]
                seen_users, owner, owned_hop = steps[single]
                owner, owned_hop, block_best = owner[pairs], owned_hop[pairs], best[single][pairs]
                band_user = common_free_spectrum(
                    owner, seen_users, available[:, :seen_users], available[:, relay_nodes],
                    block_gains, owned_hop, block_best,
                )
                band_relay[pairs, chunk], kept_gain[pairs, chunk] = allocate_spectrum(
                    band_user, owner, bits, block_gains, owned_hop, block_best
                )
    del gains, block_gains  # the last chunk's buffer is spent: free it before the passes

    pair = np.arange(n_pairs)[:, None]
    truth_next = truth[pair_slots + 1]
    failed = (truth_next == SpectrumState.BUSY) | (truth_next == SpectrumState.BAD)
    actual = truth_next[:, designated]
    default = history[pair_slots, designated]
    # the designated band's t + 1 state as the predicting decisions predicted it
    guessed = predict_next_states(counts[:, designated], default)
    passes = {}
    for (single, predicting), (relay, kept_gain) in records.items():
        seen_users, owner, *_ = steps[single]
        # the kept allocation: each band's user and its winner's draws; an
        # unallocated band gets a zero budget, so its SNR is 0 at every point
        won = relay >= 0
        winner = np.clip(relay, 0, None)
        band_user = np.where(won, owner[pair, winner], UNASSIGNED)
        user = np.clip(band_user, 0, None)
        beta2 = np.where(won, beta[pair, winner, user] * 2.0, 0.0)
        passes[single, predicting] = EpisodePass(
            users=seen_users,
            kept=(band_user, alpha[pair, winner, user], beta2, kept_gain),
            failed=failed,
            trace=np.stack([actual, default, guessed if predicting else default],
                           axis=1).astype(np.int8),
        )
    if Strategy.NO_AGGREGATION in decision:
        # predict's allocation but each user's best band by draw-only winner score
        predicted = passes[decision[Strategy.NO_AGGREGATION]]
        band_user, hop_split, beta2, kept_gain = predicted.kept
        held = np.concatenate([reduce_to_best_band(
            band_user[b], _hop(hop_split[b], beta2[b], params.snr_combining) * kept_gain[b], users)
            for b in _blocks(0, n_pairs, users * bands)])
        best_only = replace(predicted, kept=(np.where(held, band_user, UNASSIGNED),
                                              hop_split, beta2, kept_gain))
    return tuple(best_only if strategy == Strategy.NO_AGGREGATION else passes[decision[strategy]]
                 for strategy in strategies)


def build_episode_world(
    scenario: NetworkScenario, config: EpisodeConfig, episode: int
) -> tuple[Topology, BandProcessSet]:
    """Construct the (topology, band processes) shared by all strategies.

    Derivation uses only (seed, episode, entity) tokens -- never the
    strategy -- so every strategy observes the same world.
    """
    topology = build_topology(
        scenario.users,
        scenario.relays,
        scenario.coverage_probability,
        derive_rng(config.seed, "topology", episode),
    )
    chain = derive_ground_truth_matrix(scenario.p0, scenario.persistence, scenario.good_fraction)
    processes = BandProcessSet(
        SpectrumProcessConfig(band_count=scenario.bands, ground_truth_matrix=chain),
        derive_seed_sequence(config.seed, "truth", episode),
        max_slots=config.slots - 1,
    )
    return topology, processes


def run_strategies(
    scenario: NetworkScenario,
    config: EpisodeConfig,
    params: RadioParams,
    strategies: list[Strategy],
    points: list[float],
) -> list[StrategyMetrics]:
    """Run every episode of one cell's `strategies` at its Es/N0 `points`.

    This is the one way to run a cell, of one strategy or several.
    `points` are the cell's linear Es/N0 values, the only Es/N0 it has;
    a repeated point is scored again.  Episodes run outer: each builds
    its world once, runs its strategies' passes in one `run_episode`
    call, and scores each pass at every point in one `score_episode`
    call.  Returns the metrics of each of `strategies`,
    its points in the order of `points`; with no strategies, `[]`
    before any world is built.
    """
    if not points:
        raise ConfigError("a cell needs at least one Es/N0 point")
    _require_es_points(points)
    if not strategies:
        return []
    # per strategy, each episode's scored arrays and trace
    scored = [[] for _ in strategies]
    for episode in range(config.episodes):
        topology, processes = build_episode_world(scenario, config, episode)
        passes = run_episode(config, topology, processes, params, episode, tuple(strategies))
        for decided, episodes in zip(passes, scored):
            episodes.append((*score_episode(decided, points, params), decided.trace))
        # the passes are scored: free them before the next episode runs its own
        del passes, decided
    pair_slots = np.arange(config.n_train - 1, config.slots - 1, dtype=np.int64)
    return [
        StrategyMetrics(pair_slots, np.stack(allocated), np.stack(outages),
                        np.stack(throughput, axis=1), np.stack(capacity, axis=1), np.stack(trace))
        for allocated, outages, throughput, capacity, trace in (zip(*e) for e in scored)
    ]


def summarize(metrics: StrategyMetrics) -> np.ndarray:
    """The (points, 4, episodes) summary of one strategy's metrics.

    Per Es/N0 point its rows, in the order of the summary columns, are
    each episode's outage rate (outages over allocations, 0 where nothing
    was allocated), mean throughput and least and greatest user capacity.
    """
    allocated, outages = metrics.allocated.sum(axis=-1), metrics.outages.sum(axis=-1)
    rate = np.divide(outages, allocated, out=np.zeros(len(allocated)), where=allocated > 0)
    capacity = metrics.user_capacity_bps
    rows = [metrics.throughput_bps.mean(axis=-1), capacity.min(axis=-1), capacity.max(axis=-1)]
    return np.stack([np.broadcast_to(rate, capacity.shape[:2]), *rows], axis=1)


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    """Write `header` and then each of `rows` as one CSV file; returns its path."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return Path(path)


def write_metrics_csv(
    path: str | Path, metrics_by_strategy: dict[Strategy, StrategyMetrics]
) -> None:
    """Per-slot-pair CSV: ``episode,slot,strategy,allocated,outages,throughput_bps``.

    The throughput is each strategy's at its first Es/N0 point, a run's one point.
    """
    rows = (
        [episode, slot, strategy.value, allocated, outages, text]
        for strategy, m in sorted(metrics_by_strategy.items(), key=lambda item: item[0].value)
        for episode, (kept, failed, throughput) in enumerate(
            zip(m.allocated.tolist(), m.outages.tolist(), m.throughput_bps[0])
        )
        # each float's repr, from one repr of the episode's list
        for slot, allocated, outages, text in zip(
            m.pair_slots.tolist(), kept, failed, repr(throughput.tolist())[1:-1].split(", ")
        )
    )
    header = ["episode", "slot", "strategy", "allocated", "outages", "throughput_bps"]
    write_csv(path, header, rows)


def write_trace_csv(path: str | Path, metrics: StrategyMetrics) -> None:
    """Designated-band state trace CSV: ``episode,slot,actual,default,predicted``."""
    rows = (
        # the slot is the predicted/actual one, a pair's second
        [episode, slot + 1, *states]
        for episode, trace in enumerate(metrics.trace.tolist())
        for slot, states in zip(metrics.pair_slots.tolist(), trace)
    )
    write_csv(path, ["episode", "slot", "actual", "default", "predicted"], rows)
