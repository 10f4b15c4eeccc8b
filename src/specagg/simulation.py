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
one lockstep pass (`run_episode`) of its decision rules -- predict (also
NO_AGGREGATION's), persist and single-user -- over arrays of all its
pairs: step 1 assigns every pair's relays once per topology, the fading
gains are drawn by chunks of pairs into one reused buffer, and per pair
block each topology ranks every band's best relay once; steps 2-3
re-rank only the bands whose masks exclude it.  Decisions rank on
draw-only scores (the hop at Es/N0 = 1, times the band's gain), so no
Es/N0 point or transmit power can move one.  `score_episode` turns a
rule's `EpisodePass`, its allocation alone, into one strategy's metric
arrays at any list of Es/N0 points; `NO_AGGREGATION` keeps each user's band
with the highest winner score.  `run_strategies` is the one way to run
a cell: per episode one world, one pass and one scoring per strategy,
each filling its episode's row of the strategy's `StrategyMetrics`
arrays.  `summarize` reduces those arrays to each point's summary rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
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
from .params import ConfigError, EpisodeConfig, NetworkScenario, Strategy, require
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


# Pair blocks hold at most this many elements of their widest per-pair
# array: the (pairs, bands, relays) scores that rank each band's best
# relay, or the (pairs, users or sensing relays, bands) views and masks
# of steps 2-3.  A default episode runs steps 2-3 as blocks of 65 and 15
# pairs (16 under noisy sensing); each temporary stays under a megabyte.
PAIR_BLOCK_ELEMENTS = 2**15

# The fading gains are drawn in chunks of slot pairs whose (pairs, bands,
# relays) gains hold at most this many elements, 8 MB: a default episode
# is one chunk, a 1000-band, 100-relay one is drawn ten pairs at a time
# into one reused buffer, so an episode's gains are never held whole.
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
    """What one decision pass decided; it holds no Es/N0 and scores nothing.

    `kept` is the allocation, four (pairs, bands) arrays: each band's
    user (-1 for none), and its winning relay's position split, doubled
    attenuation (0 for none) and fading gain.  `failed` marks the bands
    whose true t + 1 state is Busy or Bad.
    """

    users: int
    kept: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    failed: np.ndarray
    trace: np.ndarray  # (pairs, 3): actual, default, predicted for one band


def _pair_blocks(start: int, stop: int, width: int) -> list[slice]:
    """Slices of the consecutive slot pairs [start, stop), each with at most
    PAIR_BLOCK_ELEMENTS elements of `width` per pair (at least one pair)."""
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
    """Yield (pairs, gains): an episode's fading draws, one chunk of pairs at a time.

    `pairs` slices consecutive slot pairs whose draws hold at most
    GAIN_CHUNK_ELEMENTS elements (at least one pair), and `gains` is their
    read-only (pairs, bands, relays) power gains.  Each band has one
    fading stream, kept across chunks, so the chunks of an episode are
    one draw of it, and adding a band never perturbs the others' draws.
    Each chunk overwrites the buffer of the last one; unit gains are one
    chunk that holds no memory.
    """
    if gain_model != "rayleigh":
        yield slice(0, n_pairs), np.broadcast_to(1.0, (n_pairs, bands, relays))
        return
    size = max(1, GAIN_CHUNK_ELEMENTS // (bands * relays))
    rngs = list(derive_rngs(seed, "gain", episode, count=bands))
    buffer = np.empty((bands, min(size, n_pairs), relays))
    for start in range(0, n_pairs, size):
        n = min(size, n_pairs - start)
        # band-major, so each band's stream fills its own contiguous block
        for rng, block in zip(rngs, buffer):
            rng.standard_exponential(out=block[:n])
        gains = buffer[:, :n].transpose(1, 0, 2)
        gains.flags.writeable = False
        yield slice(start, start + n), gains


def sensing_offsets(
    seed: int, episode: int, slots: int, bands: int, users: int, relays: int, err: float
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int8 (sources, relays): an episode's sensing errors.

    Each is (slots, nodes, bands), one sensing stream per node: 0 where
    the node senses a band correctly, 1 or 2 where its report is that
    many states past the truth.  A node's offsets are `sense` of an
    all-Good (code 0) trajectory, so it senses any truth as
    ``wrap_states(truth + offsets)``.
    """
    good = np.zeros((slots, bands), dtype=np.int8)
    offsets = []
    for kind, n in (("src", users), ("rel", relays)):
        rngs = derive_rngs(seed, "sense", episode, kind, count=n)
        node_offsets = np.stack([sense(good, err, rng) for rng in rngs], axis=1)
        node_offsets.flags.writeable = False
        offsets.append(node_offsets)
    return tuple(offsets)


def _require_es_points(points: list[float]) -> None:
    """Raise `ConfigError` for an Es/N0 point of `points` outside `es_over_n0`'s declaration."""
    for es in points:
        require(RadioParams, "es_over_n0", es)


def score_episode(
    decided: EpisodePass, strategy: Strategy, points: list[float], params: RadioParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`strategy`'s metrics of the decision pass `decided` at each Es/N0 point of `points`.

    Returns each pair's kept and failed band counts, each (point, pair)'s
    throughput and each (point, user)'s mean throughput over the pairs.
    `NO_AGGREGATION` keeps only each user's best band (`reduce_to_best_band`
    of the winners' draw-only scores); every other strategy keeps the
    whole allocation.  A kept band is an outage where it `failed`, and an
    outage delivers nothing.  Each pair block rebuilds its SNRs at every
    point as one (points, pairs, bands) batch, in the order (1 - alpha) *
    (beta * 2 * es), then tx * hop * gain / gamma, over the full band
    layout, so every sum rounds as it does for one point alone.  Only
    the throughputs depend on Es/N0; an empty `points` gives none.
    """
    _require_es_points(points)
    users, failed = decided.users, decided.failed
    n_pairs, bands = failed.shape
    es = np.array(points)[:, None, None]
    allocated, outages = np.empty(n_pairs, np.int64), np.empty(n_pairs, np.int64)
    throughput = np.empty((len(points), n_pairs))
    capacity = np.empty((len(points), n_pairs, users))
    # the widest temporaries are reduce_to_best_band's (pairs, users, bands)
    # mask and the (points, pairs, bands) batch, several of them alive at
    # once; counting at least three users keeps a single-user pass's blocks
    # within the memory of a multi-user pass's
    for pairs in _pair_blocks(0, n_pairs, max(len(points), 1) * bands * max(users, 3)):
        band_user, hop_split, beta2, gain = (array[pairs] for array in decided.kept)
        held = band_user >= 0
        if strategy == Strategy.NO_AGGREGATION:
            score = _hop(hop_split, beta2, params.snr_combining) * gain
            held = reduce_to_best_band(band_user, score, users)
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
    rules: tuple[Strategy, ...],
) -> tuple[EpisodePass, ...]:
    """Run one episode's decision pass per rule of `rules` in lockstep; returns them, unscored.

    A rule is predict (`PREDICT_AGGREGATE`, also NO_AGGREGATION's),
    persist (`NO_PREDICTION`) or `SINGLE_USER`, which sees `topology`
    restricted to its first pair and reads that pair's share of the full
    population's draws and views.  The rules share the draws, views and
    predictions; predict and persist also share step 1 and the best relays.
    Each chunk of gains runs steps 2-3 of every rule before the next is
    drawn.  No pass reads Es/N0, transmit power or the SNR gap.  The
    episode reads the trajectory from slot 0.
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
    if err == 0.0:
        # perfect sensing: sources and relays share one view, the truth
        views = [truth[:, None, :]]
    else:
        offsets = sensing_offsets(seed, episode, config.slots, bands, users, relays, err)
        views = [wrap_states(truth[:, None] + node_offsets) for node_offsets in offsets]
    # the predictor trains on the first user's sensed history
    history = views[0][:, 0]
    pair_slots = np.arange(config.n_train - 1, config.slots - 1, dtype=np.int64)
    # per rule: whether it sees the first pair alone, whether it predicts, and
    # its kept (pairs, bands) winners and their gains, filled block by block
    records = [(rule == Strategy.SINGLE_USER, rule != Strategy.NO_PREDICTION,
                np.empty((n_pairs, bands), np.min_scalar_type(-relays)), np.empty((n_pairs, bands)))
               for rule in rules]
    guessed = {predicting: np.empty(n_pairs, dtype=np.int8) for _, predicting, *_ in records}
    if True in guessed:
        # window k ends at pair k's first slot
        counts = window_transition_counts(history[:-1], config.n_train)

    # step 1 for all pairs at once, on draw-only scores (the hop at Es/N0 = 1, then
    # times band gains): an SNR is a score times tx * Es/N0 / gamma, so both rank alike
    hop = _hop(alpha, beta * 2.0, params.snr_combining)
    # per topology a rule sees, the whole or its first pair alone: its user
    # count, its relays' owners (narrowest integer type holding -1), their
    # hops toward them, and its rules' records, which share its scores
    steps = {}
    for single in dict.fromkeys(single for single, *_ in records):
        seen, seen_hop = (topology.restrict_to_user(0), hop[..., :1]) if single else (topology, hop)
        owner = assign_relays(seen, seen_hop).astype(np.min_scalar_type(-seen.users))
        # each relay's hop toward its owner; 0 for an unowned relay
        owned = np.take_along_axis(seen_hop, np.clip(owner, 0, None)[..., None], axis=-1)
        seeing = [record[1:] for record in records if record[0] == single]
        steps[single] = seen.users, owner, np.where(owner >= 0, owned[..., 0], 0.0), seeing
    # freed before the pair blocks' temporaries, which would otherwise grow the heap
    del hop
    designated = config.designated_band
    # steps 2-3 blocks are sized by their widest per-pair mask, (users or sensing relays, bands)
    for chunk, gains in gain_chunks(seed, episode, n_pairs, relays, bands, params.gain_model):
        for pairs in _pair_blocks(chunk.start, chunk.stop, bands * max(users, views[-1].shape[1])):
            block_gains = gains[pairs.start - chunk.start : pairs.stop - chunk.start]
            # (pairs, nodes, bands) states at t and t + 1 of each view, predicted
            # or persisted; sources are the first view and relays the last
            now = [view[pair_slots[pairs]] for view in views]
            judged = {}
            for p, guesses in guessed.items():
                after = [predict_next_states(counts[pairs, None], s) for s in now] if p else now
                available = [two_slot_availability(*s) for s in zip(now, after)]
                judged[p] = available, prediction_bits(after[-1])
                guesses[pairs] = after[0][:, 0, designated]
            for seen_users, owner, owned_hop, seeing in steps.values():
                # each band's best relay (shared by predict and persist), on band-major scores
                best = np.concatenate([
                    (owned_hop[pairs][b] * block_gains[b].transpose(1, 0, 2)).argmax(-1).T
                    for b in _pair_blocks(0, len(block_gains), bands * relays)])
                for predicting, band_relay, kept_gain in seeing:
                    available, bits = judged[predicting]
                    band_user = common_free_spectrum(
                        owner[pairs], seen_users, available[0][:, :seen_users], available[-1],
                        block_gains, owned_hop[pairs], best,
                    )
                    band_relay[pairs] = allocate_spectrum(
                        band_user, owner[pairs], bits, block_gains, owned_hop[pairs], best
                    )[0]
                    winner = np.maximum(band_relay[pairs], 0)[..., None]
                    kept_gain[pairs] = np.take_along_axis(block_gains, winner, axis=-1)[..., 0]
    del gains, block_gains  # the last chunk's buffer is spent: free it before the passes

    pair = np.arange(n_pairs)[:, None]
    truth_next = truth[pair_slots + 1]
    failed = (truth_next == SpectrumState.BUSY) | (truth_next == SpectrumState.BAD)
    actual = truth_next[:, designated]
    default = history[pair_slots, designated]
    passes = []
    for single, predicting, relay, kept_gain in records:
        seen_users, owner, *_ = steps[single]
        # the kept allocation: each band's user and its winner's draws; an
        # unallocated band gets a zero budget, so its SNR is 0 at every point
        won = relay >= 0
        winner = np.clip(relay, 0, None)
        band_user = np.where(won, owner[pair, winner], UNASSIGNED)
        user = np.clip(band_user, 0, None)
        beta2 = np.where(won, beta[pair, winner, user] * 2.0, 0.0)
        passes.append(EpisodePass(
            users=seen_users,
            kept=(band_user, alpha[pair, winner, user], beta2, kept_gain),
            failed=failed,
            trace=np.stack([actual, default, guessed[predicting]], axis=1).astype(np.int8),
        ))
    return tuple(passes)


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
    chain = derive_ground_truth_matrix(
        scenario.p0_idle, scenario.persistence, scenario.good_fraction
    )
    process_config = SpectrumProcessConfig(
        band_count=scenario.bands,
        p0_idle=scenario.p0_idle,
        ground_truth_matrix=chain,
    )
    processes = BandProcessSet(
        process_config,
        derive_seed_sequence(config.seed, "truth", episode),
        max_slots=config.slots - 1,
    )
    return topology, processes


# a strategy's decision rule where the two differ
_RULE = {Strategy.NO_AGGREGATION: Strategy.PREDICT_AGGREGATE}


def run_strategies(
    scenario: NetworkScenario,
    config: EpisodeConfig,
    params: RadioParams,
    strategies: list[Strategy],
    points: list[float],
) -> list[StrategyMetrics]:
    """Run every episode of one cell's `strategies` at its Es/N0 `points`.

    This is the one way to run a cell, of one strategy or several.
    `points` are linear Es/N0 values; results are reported at them, not
    at `params.es_over_n0`.  Episodes run outer: each builds its world
    once, runs its strategies' decision rules in one `run_episode` call,
    and scores each strategy at every point in one `score_episode` call.
    Returns the metrics of each of `strategies`, its points in the
    order of `points`.
    """
    if not points:
        raise ConfigError("a cell needs at least one Es/N0 point")
    _require_es_points(points)
    distinct = list(dict.fromkeys(points))
    at = [distinct.index(es) for es in points]
    # the strategies' decision rules, each run once per episode
    rules = tuple(dict.fromkeys(_RULE.get(strategy, strategy) for strategy in strategies))
    pair_slots = np.arange(config.n_train - 1, config.slots - 1, dtype=np.int64)
    shape = (config.episodes, config.pairs)
    out = []
    for strategy in strategies:
        # the single-user strategy sees the first user alone
        users = 1 if strategy == Strategy.SINGLE_USER else scenario.users
        out.append(StrategyMetrics(
            pair_slots=pair_slots,
            allocated=np.empty(shape, np.int64),
            outages=np.empty(shape, np.int64),
            throughput_bps=np.empty((len(points), *shape)),
            user_capacity_bps=np.empty((len(points), config.episodes, users)),
            trace=np.empty((*shape, 3), np.int8),
        ))
    for episode in range(config.episodes):
        topology, processes = build_episode_world(scenario, config, episode)
        passes = run_episode(config, topology, processes, params, episode, rules)
        for strategy, metrics in zip(strategies, out):
            rule = rules.index(_RULE.get(strategy, strategy))
            metrics.trace[episode] = passes[rule].trace
            allocated, outages, throughput, capacity = score_episode(
                passes[rule], strategy, distinct, params)
            metrics.allocated[episode], metrics.outages[episode] = allocated, outages
            metrics.throughput_bps[:, episode] = throughput[at]
            metrics.user_capacity_bps[:, episode] = capacity[at]
        # the passes are scored: free them before the next episode runs its own
        del passes
    return out


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
        [episode, slot, strategy.value, allocated, outages, repr(throughput)]
        for strategy, m in sorted(metrics_by_strategy.items(), key=lambda item: item[0].value)
        for episode, pairs in enumerate(
            zip(m.allocated.tolist(), m.outages.tolist(), m.throughput_bps[0].tolist())
        )
        for slot, allocated, outages, throughput in zip(m.pair_slots.tolist(), *pairs)
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
