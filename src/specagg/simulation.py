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
every pair come from one cumulative sum, and the four engine steps run
over blocks of slot pairs at once.

Four strategies share identical ground truth, topology, sensing errors,
link budgets and fading draws per (seed, episode) -- comparisons between
them are paired:

* ``PREDICT_AGGREGATE``: Markov prediction + full aggregation.
* ``NO_PREDICTION``: assumes slot t+1 equals the sensed slot t state.
* ``NO_AGGREGATION``: predicts, but each user keeps only its single
  best allocated band.
* ``SINGLE_USER``: the same pipeline with only the first user pair
  present (it keeps every relay that covers it).

`run_strategies` builds each episode's world once and runs one decision
pass (`run_episode`) per distinct decision rule -- predict, persist and
single-user -- at the first Es/N0 point of arms that differ only in
strategy and Es/N0.  No allocation depends on Es/N0, which only scales
the hop budgets, so every other arm is a view of a pass's kept
allocation: a further Es/N0 point, or ``NO_AGGREGATION`` at any point
as `reduce_to_best_band` of the prediction pass.  One `_rescore` call
per pass serves all of its views: it gathers the winning bands' draws
once, rebuilds their SNRs at every Es/N0 point as one (points, pairs,
bands) batch, and scores that batch once as allocated and once
reduced to each user's best band.  The views are byte for byte the
passes they replace while no SNR or link rate saturates.  A transmit
power or Es/N0 so large that SNRs overflow to inf, or so small that
SNRs or their rates round to 0, ties relays that another point ranks:
a pass breaks such ties to the lowest index, a view keeps the first
point's winners.  (`cli` ends a run that overflows in an error.)
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .aggregation import (
    UNASSIGNED,
    AllocationResult,
    aggregate_and_score,
    allocate_spectrum,
    assign_relays,
    common_free_spectrum,
    prediction_bits,
    two_slot_availability,
)
from .markov import SpectrumState, predict_next_states, window_transition_counts, wrap_states
from .params import ConfigError, EpisodeConfig, NetworkScenario, Strategy
from .radio import RadioParams, hop_snrs, link_throughput, sample_hop_splits
from .seeds import derive_rng, derive_seed_sequence
from .topology import (
    BandProcessSet,
    SpectrumProcessConfig,
    Topology,
    build_topology,
    derive_ground_truth_matrix,
    sense,
)


# Slot pairs are allocated in blocks whose (pairs, bands, relays) arrays
# hold at most this many elements: a default episode (80 x 100 x 20)
# runs as five blocks of 16 pairs, a 1000-band, 100-relay world one pair
# at a time.  Each block temporary then stays under a megabyte, so peak
# memory stays that of a per-pair loop; larger blocks were no faster.
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
    # a decision pass's kept allocation, which `run_strategies` rescores:
    # (pairs, bands) winning relays and (pairs, relays) owners, -1 for
    # none; None on the metrics `run_strategies` returns
    decisions: tuple[np.ndarray, np.ndarray] | None = field(
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


def _hop(params: RadioParams, alpha: np.ndarray, beta: np.ndarray, users: int) -> np.ndarray:
    """(..., relays, users) SNR budget of each relay toward each of the first `users` pairs."""
    hop1, hop2 = hop_snrs(params, alpha[..., :users], beta[..., :users])
    return np.minimum(hop1, hop2) if params.snr_combining == "min_hop" else hop2


def _owned_hop(hop: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """(..., relays) hop of each relay toward its owner; 0 for unowned relays."""
    owned_hop = np.take_along_axis(hop, np.clip(owner, 0, None)[..., None], axis=-1)
    return np.where(owner >= 0, owned_hop[..., 0], 0.0)


def _band_relay_snr(
    hop_snr: np.ndarray, owner: np.ndarray, gains: np.ndarray, params: RadioParams
) -> np.ndarray:
    """Per-(band, relay) received SNR for a block of slot pairs.

    A relay's SNR budget toward its own destination scales the per-band
    fading gain, divided by the SNR gap: snr[..., n, r] = P_tx *
    hop[..., r, owner] * h[..., n, r] / gamma.  Unowned relays carry
    zero SNR on every band.
    """
    snr = params.tx_power_w * _owned_hop(hop_snr, owner)[..., None, :] * gains
    snr /= params.gamma
    return snr


def _keep_bands(allocation: AllocationResult, keep: np.ndarray) -> AllocationResult:
    """`allocation` with every band outside `keep` released (throughputs unscored)."""
    keep = keep & allocation.allocated
    band_snr = np.where(keep, allocation.band_snr, 0.0)
    return replace(
        allocation,
        band_relay=np.where(keep, allocation.band_relay, UNASSIGNED),
        band_snr=band_snr,
        snr_total=band_snr.sum(axis=-1),
        total_throughput_bps=None,
        user_throughput_bps=None,
    )


def reduce_to_best_band(
    allocation: AllocationResult, params: RadioParams
) -> AllocationResult:
    """No-aggregation policy: keep each user's best allocated band only.

    The kept band is the one with the highest winning SNR (ties to the
    lowest band id); every other band is released.  Throughput fields
    are re-scored.  Leading batch axes are reduced independently.
    """
    users = np.arange(allocation.users)[:, None]
    mine = allocation.allocated[..., None, :] & (
        allocation.band_user[..., None, :] == users
    )  # (..., users, bands)
    best = np.where(mine, allocation.band_snr[..., None, :], -np.inf).argmax(axis=-1)
    bands = np.arange(allocation.band_user.shape[-1])
    keep = (mine.any(axis=-1)[..., None] & (bands == best[..., None])).any(axis=-2)
    return aggregate_and_score(_keep_bands(allocation, keep), params)


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
    so the one-entry cache serves every arm of the episode that
    `run_strategies` is running.
    """
    alpha = np.empty((n_pairs, relays, draw_users))
    beta = np.empty_like(alpha)
    for r in range(relays):
        rng = derive_rng(seed, "budget", episode, r)
        alpha[:, r], beta[:, r] = sample_hop_splits(rng, (n_pairs, draw_users))
    if gain_model == "rayleigh":
        gains = np.empty((n_pairs, bands, relays))
        for n in range(bands):
            rng = derive_rng(seed, "gain", episode, n)
            gains[:, n, :] = rng.exponential(1.0, size=(n_pairs, relays))
    else:
        gains = np.broadcast_to(1.0, (n_pairs, bands, relays))
    for draws in (alpha, beta, gains):
        draws.flags.writeable = False
    return alpha, beta, gains


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
    one-entry cache serves every arm, Es/N0 point and p0 value of the
    episode.
    """
    good = np.zeros((slots, bands), dtype=np.int8)
    offsets = []
    for kind, n in (("src", users), ("rel", relays)):
        rngs = [derive_rng(seed, "sense", episode, kind, i) for i in range(n)]
        node_offsets = np.stack([sense(good, err, rng) for rng in rngs], axis=1)
        node_offsets.flags.writeable = False
        offsets.append(node_offsets)
    return tuple(offsets)


def _score(alloc: AllocationResult, truth_next: np.ndarray, params: RadioParams) -> tuple:
    """(allocated, outages, delivered throughput, per-user delivered) of each
    slot pair of `alloc`, whose bands are an outage where `truth_next`, the
    true states at t + 1, is Busy or Bad; an outage band delivers nothing."""
    failed = (truth_next == SpectrumState.BUSY) | (truth_next == SpectrumState.BAD)
    delivered = aggregate_and_score(_keep_bands(alloc, ~failed), params)
    return (
        alloc.allocated.sum(axis=-1),
        (alloc.allocated & failed).sum(axis=-1),
        delivered.total_throughput_bps,
        delivered.user_throughput_bps,
    )


def _pair_fields(blocks: list[tuple]) -> dict:
    """The per-pair `EpisodeMetrics` fields from `_score` of consecutive pair blocks."""
    allocated, outages, throughput, capacity = map(np.concatenate, zip(*blocks))
    return dict(
        pair_allocated=allocated,
        pair_outages=outages,
        pair_throughput_bps=throughput,
        user_capacity_bps=capacity.mean(axis=0),
    )


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

    alpha, beta, gains = episode_draws(
        seed, episode, n_pairs, relays, draw_users, bands, params.gain_model
    )

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

    # relay and user indices in the narrowest integer types that also hold -1
    band_relay = np.empty((n_pairs, bands), dtype=np.min_scalar_type(-relays))
    owner = np.empty((n_pairs, relays), dtype=np.min_scalar_type(-users))
    predicted = np.empty(n_pairs, dtype=np.int8)
    designated = config.designated_band
    blocks = []
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

        hop_now = _hop(params, alpha[pairs], beta[pairs], users)
        pair_rate = link_throughput(params, params.tx_power_w * hop_now / params.gamma)
        assignment = assign_relays(topology, pair_rate)
        snr = _band_relay_snr(hop_now, assignment.owner, gains[pairs], params)
        common = common_free_spectrum(assignment, available[0], available[-1], snr)
        alloc = allocate_spectrum(common, assignment, prediction_bits(states_next[-1]), snr)
        band_relay[pairs] = alloc.band_relay
        owner[pairs] = assignment.owner
        if config.strategy == Strategy.NO_AGGREGATION:
            alloc = reduce_to_best_band(alloc, params)
        blocks.append(_score(alloc, truth[now + 1], params))
        predicted[pairs] = states_next[0][:, 0, designated]

    actual = truth[pair_slots + 1, designated]
    default = history[pair_slots, designated]
    return EpisodeMetrics(
        strategy=config.strategy,
        episode=episode,
        pair_slots=pair_slots,
        **_pair_fields(blocks),
        prediction_match_count=int((predicted == actual).sum()),
        default_match_count=int((default == actual).sum()),
        trace=np.stack([actual, default, predicted], axis=1).astype(np.int8),
        decisions=(band_relay, owner),
    )


def _view_snr(
    params: RadioParams, es: np.ndarray, alpha: np.ndarray, beta2: np.ndarray, gain: np.ndarray
) -> np.ndarray:
    """(points, pairs, bands) SNRs of winning bands at each Es/N0 point of `es`.

    `alpha`, `beta2` (twice beta) and `gain` are the (pairs, bands)
    draws of each band's winner.  Every element takes the operations of
    `_hop`, `_owned_hop` and `_band_relay_snr`: (P_tx * hop) * h / gamma
    with hop = (1 - alpha) * (beta * 2 * Es/N0), or the lesser hop.
    """
    total = beta2 * es
    hop = (1.0 - alpha) * total
    if params.snr_combining == "min_hop":
        hop = np.minimum(alpha * total, hop)
    snr = params.tx_power_w * hop * gain
    snr /= params.gamma
    return snr


def _rescore(
    decided: EpisodeMetrics,
    seed: int,
    topology: Topology,
    processes: BandProcessSet,
    views: list[tuple[Strategy, RadioParams]],
    base_users: int,
) -> list[EpisodeMetrics]:
    """The metrics of each (strategy, params) view of a decision pass.

    `decided` is `run_episode` of (topology, processes); a view is its
    own rule at another Es/N0 point, or NO_AGGREGATION at any point of
    the prediction pass.  The views' params differ only in Es/N0.  Each
    winning band's draws are gathered once, its SNR is rebuilt at every
    distinct point (`_view_snr`), and all points are scored as one
    (points, pairs, bands) batch, whose sums round as the pass's do.
    Outages, allocation counts, the trace and the match counts do not
    depend on Es/N0.
    """
    band_relay, owner = decided.decisions
    n_pairs, bands = band_relay.shape
    users = topology.users
    params = views[0][1]
    alpha, beta, gains = episode_draws(
        seed, decided.episode, n_pairs, topology.relays, base_users, bands, params.gain_model
    )
    # (pairs, bands): each band's winner, its user, and their draws
    pair = np.arange(n_pairs)[:, None]
    allocated = band_relay >= 0
    winner = np.clip(band_relay, 0, None)
    band_user = np.where(allocated, owner[pair, winner], UNASSIGNED)
    user = np.clip(band_user, 0, None)
    alpha = alpha[pair, winner, user]
    # an unallocated band gets a zero budget, so its SNR is 0 at every point
    beta2 = np.where(allocated, beta[pair, winner, user] * 2.0, 0.0)
    gain = gains[pair, np.arange(bands), winner]

    point_of = {es: k for k, es in enumerate(dict.fromkeys(p.es_over_n0 for _, p in views))}
    es = np.array(list(point_of))[:, None, None]
    reducing = {strategy == Strategy.NO_AGGREGATION for strategy, _ in views}
    truth = processes.trajectory()
    blocks = {False: [], True: []}
    # the widest temporaries are reduce_to_best_band's (points, pairs, users,
    # bands) mask and `_score`'s (points, pairs, bands) arrays, several of them
    # alive at once; counting at least three users keeps a single-user view's
    # blocks within the memory of the prediction pass's
    for pairs in _pair_blocks(n_pairs, len(point_of) * bands * max(users, 3)):
        snr = _view_snr(params, es, alpha[pairs], beta2[pairs], gain[pairs])
        shape = snr.shape
        alloc = AllocationResult(
            users=users,
            band_user=np.broadcast_to(band_user[pairs], shape),
            band_relay=np.broadcast_to(band_relay[pairs], shape),
            band_snr=snr,
            snr_total=snr.sum(axis=-1),
        )
        truth_next = truth[decided.pair_slots[pairs] + 1]
        for reduce in reducing:
            scored = reduce_to_best_band(alloc, params) if reduce else alloc
            blocks[reduce].append(_score(scored, truth_next, params))
    return [
        replace(
            decided,
            strategy=strategy,
            decisions=None,
            # one point's pair blocks, so its pairs-axis mean is a pass's
            **_pair_fields([
                [column[point_of[view_params.es_over_n0]] for column in block]
                for block in blocks[strategy == Strategy.NO_AGGREGATION]
            ]),
        )
        for strategy, view_params in views
    ]


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


def run_strategies(
    scenario: NetworkScenario, arms: list[tuple[EpisodeConfig, RadioParams]]
) -> list[list[EpisodeMetrics]]:
    """Run every episode of each (config, params) arm on seed-paired worlds.

    Episodes run outer.  Arms that differ only in strategy and Es/N0
    share each episode's world, built once, and one decision pass per
    decision rule -- predict (also NO_AGGREGATION's), persist and
    single-user -- run at the first of them that needs it; every other
    arm is a view of that pass, and each pass's views are rescored
    together (`_rescore`).  Returns each arm's per-episode metrics, in
    arm order.  Every arm must run the same number of episodes.
    """
    episodes = {config.episodes for config, _ in arms}
    if len(episodes) > 1:
        raise ConfigError(
            f"all arms must run the same number of episodes, got {sorted(episodes)}"
        )
    groups: dict[tuple, list[int]] = {}
    for index, (config, params) in enumerate(arms):
        # every field but the strategy and Es/N0, read without re-validating
        shared = (
            tuple(getattr(config, f.name) for f in fields(config) if f.name != "strategy"),
            tuple(getattr(params, f.name) for f in fields(params) if f.name != "es_over_n0"),
        )
        groups.setdefault(shared, []).append(index)
    out = [[] for _ in arms]
    for episode in range(max(episodes, default=0)):
        if episode:
            # the last episode's draws are spent: free them before drawing
            episode_draws.cache_clear()
            sensing_offsets.cache_clear()
        for members in groups.values():
            first = arms[members[0]][0]
            topology, processes = build_episode_world(scenario, first, episode)
            # rule -> (topology seen, pass, its Es/N0, view arms, their (strategy, params))
            passes = {}
            for index in members:
                config, params = arms[index]
                rule = config.strategy
                if rule == Strategy.NO_AGGREGATION:
                    rule = Strategy.PREDICT_AGGREGATE
                if rule not in passes:
                    # the first pair alone keeps every relay covering it, and its
                    # draws stay shaped for (so paired with) the full population
                    seen = topology
                    if rule == Strategy.SINGLE_USER:
                        seen = topology.restrict_to_user(0)
                    decided = run_episode(
                        config if config.strategy == rule else replace(config, strategy=rule),
                        seen, processes, params, episode, scenario.users,
                    )
                    passes[rule] = (seen, decided, params.es_over_n0, [], [])
                seen, decided, es_over_n0, indices, views = passes[rule]
                if config.strategy == rule and params.es_over_n0 == es_over_n0:
                    out[index].append(replace(decided, decisions=None))
                else:
                    indices.append(index)
                    views.append((config.strategy, params))
            for seen, decided, _, indices, views in passes.values():
                if views:
                    rescored = _rescore(
                        decided, first.seed, seen, processes, views, scenario.users
                    )
                    for index, metrics in zip(indices, rescored):
                        out[index].append(metrics)
    return out


def run_strategy(
    scenario: NetworkScenario, config: EpisodeConfig, params: RadioParams
) -> list[EpisodeMetrics]:
    """Run every episode of one strategy on freshly built, seed-paired worlds."""
    return run_strategies(scenario, [(config, params)])[0]


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
