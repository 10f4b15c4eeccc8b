"""Two-slot episode simulation: sense, train, predict, allocate, score.

An episode walks a network through `slots` time slots.  After a training
prefix, every slot t starts a transmission pair (t, t+1): nodes sense at
slot t, a per-band transition matrix is refit on the most recent sensed
window, slot t+1 states are predicted, the aggregation engine allocates
bands under the idle-both-slots rule, and the true t+1 states score the
outcome.  An allocated band whose true t+1 state is Busy or Bad is an
outage; throughput counts only non-outage bands.

No slot pair depends on an earlier pair's allocation, so an episode runs
as whole-episode array passes: the ground truth and the sensed states of
every slot are realised first, the sliding-window transition counts of
every pair come from one cumulative sum, step 1 assigns every pair's
relays in one call, and each block of slot pairs gets its nodes' views,
predictions and band scores and runs steps 2-3 at once.

Four strategies share identical ground truth, topology, sensing errors,
link budgets and fading draws per (seed, episode) -- comparisons between
them are paired:

* ``PREDICT_AGGREGATE``: Markov prediction + full aggregation.
* ``NO_PREDICTION``: assumes slot t+1 equals the sensed slot t state.
* ``NO_AGGREGATION``: predicts, but each user keeps only its single
  best allocated band.
* ``SINGLE_USER``: the same pipeline with only the first user pair
  present (it keeps every relay that covers it).

A decision pass (`run_episode`) needs no Es/N0: it ranks users and
relays on draw-only scores, the hop at Es/N0 = 1 and that times each
band's fading gain.  An SNR is its score times P_tx * Es/N0 / gamma, so
both rank alike, and no Es/N0 point or transmit power can move a
decision.  `NO_AGGREGATION` keeps each user's band with the highest
winner score (`reduce_to_best_band`).  A pass keeps four (pairs,
bands) arrays: each band's user and its winning relay's position split,
doubled attenuation and fading gain.  One function, `_score`, reads
only those and turns them into metrics at any list of Es/N0 points as
one (points, pairs, bands) batch; a pass scores its own point through
it.  `run_strategies` runs one cell's strategies at its Es/N0 points:
per episode it builds the world once, runs one pass per decision rule
-- predict (also NO_AGGREGATION's), persist and single-user -- and
scores every other (strategy, point) through the same function.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field, replace
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


# Steps 2-3 run over blocks of slot pairs whose (pairs, bands, relays)
# scores hold at most this many elements: a default episode (80 x 100 x
# 20) runs as five blocks of 16 pairs, a 1000-band, 100-relay world one
# pair at a time.  Each block temporary then stays under a megabyte, so
# peak memory stays that of a per-pair loop; larger blocks were no faster.
PAIR_BLOCK_ELEMENTS = 2**15


def designated_band_error(designated_band: int, bands: int) -> str | None:
    """Why the traced `designated_band` is not one of `bands` bands; None when it is."""
    if designated_band >= bands:
        return f"designated_band must lie in [0, bands), got {designated_band} with bands={bands}"
    return None


@dataclass
class EpisodeMetrics:
    """Per-episode accounting of allocations, outages and throughput."""

    strategy: Strategy
    episode: int
    pair_slots: np.ndarray
    pair_allocated: np.ndarray
    pair_outages: np.ndarray
    pair_throughput_bps: np.ndarray
    user_capacity_bps: np.ndarray
    prediction_match_count: int
    default_match_count: int
    trace: np.ndarray  # (pairs, 3): actual, default, predicted for one band
    # a decision pass's kept allocation, the four (pairs, bands) arrays
    # `_score` reads; None on the metrics `run_strategies` returns
    decisions: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def allocation_count(self) -> int:
        return int(self.pair_allocated.sum())

    @property
    def outage_count(self) -> int:
        return int(self.pair_outages.sum())

    @property
    def outage_rate(self) -> float:
        """Outage bands over allocated bands; 0 when nothing was allocated."""
        allocated = self.allocation_count
        return self.outage_count / allocated if allocated > 0 else 0.0

    @property
    def mean_throughput_bps(self) -> float:
        return float(self.pair_throughput_bps.mean())


def _pair_blocks(n_pairs: int, width: int) -> list[slice]:
    """Slices of consecutive slot pairs, each with at most PAIR_BLOCK_ELEMENTS
    elements of `width` per pair (at least one pair)."""
    block = max(1, PAIR_BLOCK_ELEMENTS // width)
    return [slice(start, start + block) for start in range(0, n_pairs, block)]


def _hop(alpha: np.ndarray, total: np.ndarray, snr_combining: str) -> np.ndarray:
    """Relayed-link SNR budget of position splits `alpha` and hop sums `total`.

    `total` is beta * 2 * Es/N0; the budget is the second hop, (1 - alpha)
    * total, or the lesser of both hops for 'min_hop'.
    """
    hop = (1.0 - alpha) * total
    if snr_combining == "min_hop":
        hop = np.minimum(alpha * total, hop)
    return hop


def _owned_hop(hop: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """(..., relays) hop of each relay toward its owner; 0 for unowned relays."""
    owned_hop = np.take_along_axis(hop, np.clip(owner, 0, None)[..., None], axis=-1)
    return np.where(owner >= 0, owned_hop[..., 0], 0.0)


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


@functools.lru_cache(maxsize=1)
def episode_draws(
    seed: int,
    episode: int,
    n_pairs: int,
    relays: int,
    draw_users: int,
    bands: int,
    gain_model: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (alpha, beta, gains): an episode's link-budget and fading draws.

    alpha and beta are the (n_pairs, relays, draw_users) position splits
    and attenuations of `radio.sample_hop_splits`, one budget stream per
    relay; gains are the (n_pairs, bands, relays) power gains, one fading
    stream per band.  Adding a relay or band never perturbs the draws of
    the existing ones.  Nothing here depends on the strategy or Es/N0,
    so the one-entry cache serves every pass and point of the episode
    that `run_strategies` is running.
    """
    alpha = np.empty((n_pairs, relays, draw_users))
    beta = np.empty_like(alpha)
    for r, rng in enumerate(derive_rngs(seed, "budget", episode, count=relays)):
        alpha[:, r], beta[:, r] = sample_hop_splits(rng, (n_pairs, draw_users))
    if gain_model == "rayleigh":
        # band-major, so each band's stream fills its own contiguous block
        gains = np.empty((bands, n_pairs, relays))
        for n, rng in enumerate(derive_rngs(seed, "gain", episode, count=bands)):
            rng.standard_exponential(out=gains[n])
    else:
        gains = np.broadcast_to(1.0, (bands, n_pairs, relays))
    for draws in (alpha, beta, gains):
        draws.flags.writeable = False
    return alpha, beta, gains.transpose(1, 0, 2)


@functools.lru_cache(maxsize=1)
def sensing_offsets(
    seed: int,
    episode: int,
    slots: int,
    bands: int,
    users: int,
    relays: int,
    err: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int8 (sources, relays): an episode's sensing errors.

    Each is (slots, nodes, bands), one sensing stream per node: 0 where
    the node senses a band correctly, 1 or 2 where its report is that
    many states past the truth.  A node's offsets are `sense` of an
    all-Good (code 0) trajectory, so it senses any truth as
    ``wrap_states(truth + offsets)``.  They hold no truth, so the
    one-entry cache serves every pass, Es/N0 point and p0 value of the
    episode.
    """
    good = np.zeros((slots, bands), dtype=np.int8)
    offsets = []
    for kind, n in (("src", users), ("rel", relays)):
        rngs = derive_rngs(seed, "sense", episode, kind, count=n)
        node_offsets = np.stack([sense(good, err, rng) for rng in rngs], axis=1)
        node_offsets.flags.writeable = False
        offsets.append(node_offsets)
    return tuple(offsets)


def _score(
    kept: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    users: int,
    reduce: bool,
    truth_next: np.ndarray,
    points: list[float],
    params: RadioParams,
) -> list[dict]:
    """The per-pair `EpisodeMetrics` fields of a decision pass at each Es/N0 point of `points`.

    `kept` is the pass's allocation (`EpisodeMetrics.decisions`): the
    (pairs, bands) user of each band, -1 for none, and its winning
    relay's position split, doubled attenuation (0 for none) and fading
    gain.  `truth_next` holds the true (pairs, bands) states at t + 1.
    With `reduce`, each user keeps only its best band (`reduce_to_best_band`
    of the winners' draw-only scores).  A kept band is an outage where
    its truth is Busy or Bad, and an outage delivers nothing.  Each pair
    block rebuilds its SNRs at every point as one (points, pairs, bands)
    batch, in the order (1 - alpha) * (beta * 2 * es), then tx * hop *
    gain / gamma, over the full band layout, so every sum rounds as it
    does for one point alone.  Only the throughputs depend on Es/N0.
    """
    n_pairs, bands = kept[0].shape
    es = np.array(points)[:, None, None]
    failed = (truth_next == SpectrumState.BUSY) | (truth_next == SpectrumState.BAD)
    blocks = []
    # the widest temporaries are reduce_to_best_band's (pairs, users, bands)
    # mask and the (points, pairs, bands) batch, several of them alive at
    # once; counting at least three users keeps a single-user pass's blocks
    # within the memory of a multi-user pass's
    for pairs in _pair_blocks(n_pairs, len(points) * bands * max(users, 3)):
        band_user, hop_split, beta2, gain = (array[pairs] for array in kept)
        held = band_user >= 0
        if reduce:
            score = _hop(hop_split, beta2, params.snr_combining) * gain
            held = reduce_to_best_band(band_user, score, users)
        delivered = held & ~failed[pairs]
        snr = params.tx_power_w * _hop(hop_split, beta2 * es, params.snr_combining) * gain
        snr /= params.gamma
        # a band that delivers nothing gets SNR 0, so it scores nothing for its user
        band_snr = np.where(delivered, snr, 0.0)
        blocks.append((
            held.sum(axis=-1),
            (held & failed[pairs]).sum(axis=-1),
            *aggregate_and_score(np.broadcast_to(band_user, snr.shape), band_snr, users, params),
        ))
    allocated, outages, throughput, capacity = zip(*blocks)
    allocated, outages = np.concatenate(allocated), np.concatenate(outages)
    throughput, capacity = np.concatenate(throughput, axis=1), np.concatenate(capacity, axis=1)
    return [
        dict(
            pair_allocated=allocated,
            pair_outages=outages,
            pair_throughput_bps=throughput[k],
            user_capacity_bps=capacity[k].mean(axis=0),
        )
        for k in range(len(points))
    ]


def run_episode(
    config: EpisodeConfig,
    topology: Topology,
    processes: BandProcessSet,
    params: RadioParams,
    episode: int = 0,
    base_users: int | None = None,
) -> EpisodeMetrics:
    """Run one episode and return its metrics.

    The episode reads the band processes' trajectory from slot 0.
    `base_users` is the user count the link-budget draws are shaped for;
    leaving it at the topology's own user count is correct for
    standalone runs, while the single-user strategy passes the full
    population so its draws stay paired with the multi-user runs.
    """
    users, relays, bands = topology.users, topology.relays, processes.band_count
    n_pairs = config.pairs
    seed = config.seed
    draw_users = base_users if base_users is not None else users
    if draw_users < users:
        raise ConfigError("base_users must cover the topology's user count")
    if message := designated_band_error(config.designated_band, bands):
        raise ConfigError(message)
    if processes.max_slots < config.slots - 1:
        raise ConfigError(
            f"band processes cover {processes.max_slots + 1} slots, "
            f"the episode needs {config.slots}"
        )
    predicting = config.strategy != Strategy.NO_PREDICTION

    draws = episode_draws(seed, episode, n_pairs, relays, draw_users, bands, params.gain_model)
    alpha, beta, gains = draws

    truth = processes.trajectory()[: config.slots]
    err = config.sensing_error_rate
    if err == 0.0:
        # perfect sensing: sources and relays share one view, the truth
        views = [truth[:, None, :]]
    else:
        offsets = sensing_offsets(seed, episode, config.slots, bands, draw_users, relays, err)
        views = [
            wrap_states(truth[:, None] + node_offsets[:, :n])
            for node_offsets, n in zip(offsets, (users, relays))
        ]
    # the predictor trains on the first user's sensed history
    history = views[0][:, 0]
    pair_slots = np.arange(config.n_train - 1, config.slots - 1, dtype=np.int64)
    if predicting:
        # window k ends at pair k's first slot
        counts = window_transition_counts(history[:-1], config.n_train)

    # step 1 for all pairs at once, on draw-only scores (the hop at Es/N0 = 1, then
    # times band gains): an SNR is a score times tx * Es/N0 / gamma, so both rank alike
    hop = _hop(alpha[:, :, :users], beta[:, :, :users] * 2.0, params.snr_combining)
    # relay and user indices in the narrowest integer types that also hold -1
    owner = assign_relays(topology, hop).astype(np.min_scalar_type(-users))
    band_relay = np.empty((n_pairs, bands), dtype=np.min_scalar_type(-relays))
    owned_hop = _owned_hop(hop, owner)
    # freed before the pair blocks' temporaries, which would otherwise grow the heap
    del hop
    predicted = np.empty(n_pairs, dtype=np.int8)
    designated = config.designated_band
    for pairs in _pair_blocks(n_pairs, bands * relays):
        now = pair_slots[pairs]
        # (pairs, nodes, bands) states at t and t + 1 of each view;
        # sources are the first view and relays the last
        states_now = [view[now] for view in views]
        if predicting:
            states_next = [predict_next_states(counts[pairs, None], s) for s in states_now]
        else:
            states_next = states_now
        available = [two_slot_availability(*s) for s in zip(states_now, states_next)]
        score = owned_hop[pairs, None, :] * gains[pairs]
        band_user = common_free_spectrum(owner[pairs], users, available[0], available[-1], score)
        band_relay[pairs], _ = allocate_spectrum(
            band_user, owner[pairs], prediction_bits(states_next[-1]), score
        )
        predicted[pairs] = states_next[0][:, 0, designated]

    # the kept allocation: each band's user and its winner's draws; an
    # unallocated band gets a zero budget, so its SNR is 0 at every point
    pair = np.arange(n_pairs)[:, None]
    won = band_relay >= 0
    winner = np.clip(band_relay, 0, None)
    band_user = np.where(won, owner[pair, winner], UNASSIGNED)
    user = np.clip(band_user, 0, None)
    kept = (
        band_user,
        alpha[pair, winner, user],
        np.where(won, beta[pair, winner, user] * 2.0, 0.0),
        gains[pair, np.arange(bands), winner],
    )
    (pair_fields,) = _score(
        kept,
        users,
        config.strategy == Strategy.NO_AGGREGATION,
        truth[pair_slots + 1],
        [params.es_over_n0],
        params,
    )
    actual = truth[pair_slots + 1, designated]
    default = history[pair_slots, designated]
    return EpisodeMetrics(
        strategy=config.strategy,
        episode=episode,
        pair_slots=pair_slots,
        **pair_fields,
        prediction_match_count=int((predicted == actual).sum()),
        default_match_count=int((default == actual).sum()),
        trace=np.stack([actual, default, predicted], axis=1).astype(np.int8),
        decisions=kept,
    )


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
) -> list[list[list[EpisodeMetrics]]]:
    """Run every episode of one cell's `strategies` at its Es/N0 `points`.

    `points` are linear Es/N0 values; results are reported at them, not
    at `params.es_over_n0`, and `config.strategy` is ignored.  Episodes
    run outer: each builds its world once and runs one decision pass per
    decision rule -- predict (also NO_AGGREGATION's), persist and
    single-user -- and scores each pass's kept allocation at every point
    (`_score`, once per pass and kind), which reads no draws: only
    `run_episode` does, and this function clears their caches.  Returns
    ``out[i][j]``, the per-episode metrics of ``strategies[i]`` at ``points[j]``.
    """
    for es in points:
        require(RadioParams, "es_over_n0", es)
    # each strategy's decision rule, and each rule's config, built once per call
    rules = [_RULE.get(strategy, strategy) for strategy in strategies]
    configs = {rule: replace(config, strategy=rule) for rule in dict.fromkeys(rules)}
    out = [[[] for _ in points] for _ in strategies]
    for episode in range(config.episodes):
        if episode:
            # the last episode's draws are spent: free them before drawing
            episode_draws.cache_clear()
            sensing_offsets.cache_clear()
        topology, processes = build_episode_world(scenario, config, episode)
        truth = processes.trajectory()
        for rule, rule_config in configs.items():
            # the first pair alone keeps every relay covering it, and its
            # draws stay shaped for (so paired with) the full population
            seen = topology.restrict_to_user(0) if rule == Strategy.SINGLE_USER else topology
            decided = run_episode(rule_config, seen, processes, params, episode, scenario.users)
            kept, decided.decisions = decided.decisions, None
            # (reduced, Es/N0) -> pair fields; the pass has scored its own point
            scored = {(False, params.es_over_n0): {}}
            for i, strategy in enumerate(strategies):
                if rules[i] != rule:
                    continue
                reduce = strategy == Strategy.NO_AGGREGATION
                missing = [es for es in dict.fromkeys(points) if (reduce, es) not in scored]
                if missing:
                    scored.update(zip(
                        [(reduce, es) for es in missing],
                        _score(kept, seen.users, reduce, truth[decided.pair_slots + 1],
                               missing, params),
                    ))
                for j, es in enumerate(points):
                    out[i][j].append(EpisodeMetrics(
                        **{**vars(decided), "strategy": strategy, **scored[reduce, es]}
                    ))
            # the pass's views are scored: free its allocation before the next pass keeps one
            del kept
    return out


def run_strategy(
    scenario: NetworkScenario, config: EpisodeConfig, params: RadioParams
) -> list[EpisodeMetrics]:
    """Run every episode of one strategy on freshly built, seed-paired worlds."""
    return run_strategies(scenario, config, params, [config.strategy], [params.es_over_n0])[0][0]


@dataclass(frozen=True)
class StrategySummary:
    """Episode-averaged results of one strategy on one cell."""

    strategy: Strategy
    episodes: int
    outage_rates: np.ndarray
    throughputs_bps: np.ndarray
    min_user_capacities_bps: np.ndarray
    max_user_capacities_bps: np.ndarray

    @property
    def mean_outage_rate(self) -> float:
        return float(self.outage_rates.mean())

    @property
    def mean_throughput_bps(self) -> float:
        return float(self.throughputs_bps.mean())

    @property
    def min_user_capacity_bps(self) -> float:
        return float(self.min_user_capacities_bps.mean())

    @property
    def max_user_capacity_bps(self) -> float:
        return float(self.max_user_capacities_bps.mean())


def summarize(metrics_list: list[EpisodeMetrics]) -> StrategySummary:
    return StrategySummary(
        strategy=metrics_list[0].strategy,
        episodes=len(metrics_list),
        outage_rates=np.array([m.outage_rate for m in metrics_list]),
        throughputs_bps=np.array([m.mean_throughput_bps for m in metrics_list]),
        min_user_capacities_bps=np.array(
            [m.user_capacity_bps.min() for m in metrics_list]
        ),
        max_user_capacities_bps=np.array(
            [m.user_capacity_bps.max() for m in metrics_list]
        ),
    )


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    """Write `header` and then each of `rows` as one CSV file; returns its path."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return Path(path)


def write_metrics_csv(
    path: str | Path, metrics_by_strategy: dict[Strategy, list[EpisodeMetrics]]
) -> None:
    """Per-slot-pair CSV: ``episode,slot,strategy,allocated,outages,throughput_bps``."""
    rows = (
        [m.episode, slot, strategy.value, allocated, outages, repr(throughput)]
        for strategy in sorted(metrics_by_strategy, key=lambda s: s.value)
        for m in metrics_by_strategy[strategy]
        for slot, allocated, outages, throughput in zip(
            m.pair_slots.tolist(),
            m.pair_allocated.tolist(),
            m.pair_outages.tolist(),
            m.pair_throughput_bps.tolist(),
        )
    )
    header = ["episode", "slot", "strategy", "allocated", "outages", "throughput_bps"]
    write_csv(path, header, rows)


def write_trace_csv(path: str | Path, metrics_list: list[EpisodeMetrics]) -> None:
    """Designated-band state trace CSV: ``episode,slot,actual,default,predicted``."""
    rows = (
        # the slot is the predicted/actual one, a pair's second
        [m.episode, slot + 1, *states]
        for m in metrics_list
        for slot, states in zip(m.pair_slots.tolist(), m.trace.tolist())
    )
    write_csv(path, ["episode", "slot", "actual", "default", "predicted"], rows)
