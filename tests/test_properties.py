"""Property tests of the batched engine steps and the sliding-window predictor.

The engine runs every step over a leading slot-pair axis.  Stacking
pairs must not change any pair's result: each entry of a batched call
equals the same pair run alone, both as a batch of one and with no
batch axis.  The invariants of a single allocation must hold for every
pair of a stack.

`run_strategies` runs one cell's strategies at its Es/N0 points: one
pass per strategy, each decision run once, and each pass scored at
every point in one batch.  Each (strategy, point)'s metrics must be
byte for byte those of that strategy run alone at that point and of a
decision pass scored at the point alone, whatever the order and
repeats of the points and strategies and however the views split into
pair blocks.

A pass is its strategy's allocation: one `run_episode` call returns each
strategy's pass as if it ran alone, and no-aggregation's holds one of
predict's bands per user.

Steps 2-3 are metamorphic in the relays: permuting them with all their
inputs permutes only step 3's winners, and a relay that nobody owns and
whose hop is 0 changes no band's user or winner.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import naive_pair_counts, seed_sequence_rng, slotwise_sense

from specagg import simulation
from specagg.aggregation import (
    UNASSIGNED,
    aggregate_and_score,
    allocate_spectrum,
    assign_relays,
    common_free_spectrum,
)
from specagg.markov import (
    estimate_transition_matrix,
    predict_next_states,
    window_transition_counts,
)
from specagg.radio import RadioParams
from specagg.simulation import (
    EpisodeConfig,
    NetworkScenario,
    Strategy,
    build_episode_world,
    reduce_to_best_band,
    run_episode,
    run_strategies,
    score_episode,
)
from specagg.topology import Topology

PARAMS = RadioParams()
# few distinct values, so SNR and rate ties exercise the tie-breaking
LEVELS = np.array([0.0, 0.5, 1.0, 2.0])


def seeded(draw):
    """A generator seeded by hypothesis: arrays drawn from it mix their values,
    where hypothesis `arrays` fills most elements with one."""
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@st.composite
def pair_stacks(draw):
    """A topology plus the per-pair inputs of steps 1-3 for a stack of pairs."""
    pairs = draw(st.integers(1, 4))
    users = draw(st.integers(1, 3))
    relays = draw(st.integers(1, 5))
    bands = draw(st.integers(1, 6))
    rng = seeded(draw)
    return (
        Topology(users=users, relays=relays, coverage=rng.random((relays, users)) < 0.6),
        rng.choice(LEVELS, (pairs, relays, users)),
        rng.random((pairs, users, bands)) < 0.7,
        rng.random((pairs, relays, bands)) < 0.7,
        (rng.random((pairs, relays, bands)) < 0.4).astype(np.int8),
        rng.choice(LEVELS, (pairs, bands, relays)),
    )


def run_steps(topology, rate, source, relay, bits, snr):
    """Steps 1-3 and the no-aggregation keep: the owners, the bands' users
    and the (band_relay, band_snr) of the full and the reduced allocation."""
    owner = assign_relays(topology, rate)
    band_user = common_free_spectrum(owner, topology.users, source, relay, snr)
    band_relay, band_snr = allocate_spectrum(band_user, owner, bits, snr)
    allocated_user = np.where(band_relay >= 0, band_user, UNASSIGNED)
    keep = reduce_to_best_band(allocated_user, band_snr, topology.users)
    reduced = np.where(keep, band_relay, UNASSIGNED), np.where(keep, band_snr, 0.0)
    return owner, band_user, (band_relay, band_snr), reduced


def outputs(steps, users):
    owner, band_user, alloc, reduced = steps
    out = [owner, band_user]
    for band_relay, band_snr in (alloc, reduced):
        out += [
            band_relay,
            band_snr,
            band_snr.sum(axis=-1),
            *aggregate_and_score(band_user, band_snr, users, PARAMS),
        ]
    return out


@settings(max_examples=150, deadline=None)
@given(pair_stacks())
def test_stacked_pairs_equal_each_pair_alone(stack):
    topology, *inputs = stack
    users = topology.users
    batched = outputs(run_steps(topology, *inputs), users)
    for k in range(inputs[0].shape[0]):
        batch_of_one = outputs(run_steps(topology, *(x[k : k + 1] for x in inputs)), users)
        unbatched = outputs(run_steps(topology, *(x[k] for x in inputs)), users)
        for whole, one, alone in zip(batched, batch_of_one, unbatched):
            np.testing.assert_array_equal(whole[k], one[0])
            np.testing.assert_array_equal(whole[k], alone)


@settings(max_examples=150, deadline=None)
@given(pair_stacks())
def test_engine_invariants_hold_for_every_pair(stack):
    topology, rate, source, relay, bits, snr = stack
    owner, band_user, alloc, reduced = run_steps(topology, rate, source, relay, bits, snr)
    users = topology.users
    pairs = np.arange(rate.shape[0])[:, None]

    # each relay has one owner (or none), and it covers its owner
    assert np.all((owner >= UNASSIGNED) & (owner < users))
    owned = owner >= 0
    assert np.all(topology.coverage[np.nonzero(owned)[1], owner[owned]])
    assert np.all(owned == topology.coverage.any(axis=1))

    # each band has at most one user, who qualifies for it
    assert np.all((band_user >= UNASSIGNED) & (band_user < users))
    assigned = band_user >= 0
    user_of = np.where(assigned, band_user, 0)
    assert np.all(source[pairs, user_of, np.arange(band_user.shape[1])][assigned])

    # an allocated band has one relay, owned by the band's user and predicted free
    for band_relay, band_snr in (alloc, reduced):
        allocated = band_relay >= 0
        relay_of = np.where(allocated, band_relay, 0)
        assert np.all(band_user[allocated] >= 0)
        assert np.all(owner[pairs, relay_of][allocated] == band_user[allocated])
        band_ids = np.arange(band_user.shape[1])
        assert np.all(bits[pairs, relay_of, band_ids][allocated] == 0)
        assert np.all(band_snr[~allocated] == 0.0)

    # the no-aggregation policy keeps at most one of each user's bands
    (band_relay, band_snr), (kept_relay, _) = alloc, reduced
    kept = kept_relay >= 0
    assert np.all(kept <= (band_relay >= 0))
    for user in range(users):
        assert np.all((kept & (band_user == user)).sum(axis=-1) <= 1)

    # freeing every predicted-occupied bit never lowers a pair's SNR total
    _, freed_snr = allocate_spectrum(band_user, owner, np.zeros_like(bits), snr)
    assert np.all(freed_snr.sum(axis=-1) >= band_snr.sum(axis=-1))


@st.composite
def shared_mask_stacks(draw):
    """A topology, step-1 rates and steps 2-3 inputs whose relay masks and
    prediction bits hold one row for every relay, under 0-2 batch axes.

    In the first batch entry band 0 is contested (free at every source and
    relay, and relays 0 and 1 serve users 0 and 1 alone) and the last band
    is busy at every relay; the last relay covers nobody, so it is unowned.
    """
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    users = draw(st.integers(2, 3))
    relays = draw(st.integers(3, 5))
    bands = draw(st.integers(2, 6))
    rng = seeded(draw)
    coverage = rng.random((relays, users)) < 0.6
    coverage[:2] = np.eye(2, users, dtype=bool)
    coverage[-1] = False
    source = rng.random(batch + (users, bands)) < 0.7
    relay = rng.random(batch + (1, bands)) < 0.7
    first = (0,) * len(batch)
    source[first + (slice(None), 0)] = True
    relay[first + (0, 0)] = True
    relay[first + (0, -1)] = False
    return (
        Topology(users=users, relays=relays, coverage=coverage),
        rng.choice(LEVELS, batch + (relays, users)),
        source,
        relay,
        (rng.random(batch + (1, bands)) < 0.4).astype(np.int8),
        rng.choice(LEVELS, batch + (bands, relays)),
    )


@settings(max_examples=150, deadline=None)
@given(shared_mask_stacks())
def test_steps_two_and_three_take_one_mask_row_for_every_relay(stack):
    topology, rate, source, relay, bits, snr = stack
    owner = assign_relays(topology, rate)
    assert owner[..., -1].max() == UNASSIGNED

    def steps(relay, bits):
        band_user = common_free_spectrum(owner, topology.users, source, relay, snr)
        band_relay, band_snr = allocate_spectrum(band_user, owner, bits, snr)
        return band_user, band_relay, band_snr, band_snr.sum(axis=-1)

    def every_relay(mask):
        shape = mask.shape[:-2] + (topology.relays, mask.shape[-1])
        return np.broadcast_to(mask, shape).copy()

    for row, copied in zip(steps(relay, bits), steps(every_relay(relay), every_relay(bits))):
        assert row.dtype == copied.dtype
        np.testing.assert_array_equal(row, copied)


@st.composite
def relay_instances(draw):
    """Steps 2-3 inputs of 1-3 pairs: owners, source and relay masks and
    prediction bits (one row for every node or one per node), and
    continuous positive gains and hops, so no two relays tie on a band;
    whether each band's best relay is given; and a permutation of the relays."""
    pairs, users = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    relays, bands = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    source_rows, relay_rows, bit_rows = (
        draw(st.sampled_from([1, nodes])) for nodes in (users, relays, relays))
    rng = seeded(draw)
    return (
        users,
        rng.integers(-1, users, size=(pairs, relays)),
        rng.random((pairs, source_rows, bands)) < 0.8,
        rng.random((pairs, relay_rows, bands)) < 0.7,
        (rng.random((pairs, bit_rows, bands)) < 0.4).astype(np.int8),
        rng.exponential(size=(pairs, bands, relays)),
        rng.uniform(0.1, 2.0, size=(pairs, relays)),
        draw(st.booleans()),
        np.array(draw(st.permutations(range(relays)))),
    )


def relay_steps(users, owner, source, relay_free, bits, gains, hop, ranked):
    """Step 2's band users and step 3's (band_relay, band_gain), given each
    band's best relay as a decision pass gives it when `ranked`."""
    best = (hop[:, None, :] * gains).argmax(axis=-1) if ranked else None
    band_user = common_free_spectrum(owner, users, source, relay_free, gains, hop, best)
    return (band_user, *allocate_spectrum(band_user, owner, bits, gains, hop, best))


@settings(max_examples=100, deadline=None)
@given(relay_instances())
def test_permuting_the_relays_permutes_only_the_winners(case):
    *inputs, ranked, perm = case
    users, owner, source, relay_free, bits, gains, hop = inputs

    def rows(mask):
        return mask[:, perm] if mask.shape[1] > 1 else mask

    band_user, band_relay, band_gain = relay_steps(*inputs, ranked)
    moved_user, moved_relay, moved_gain = relay_steps(
        users, owner[:, perm], source, rows(relay_free), rows(bits), gains[..., perm],
        hop[:, perm], ranked)
    np.testing.assert_array_equal(moved_user, band_user)
    np.testing.assert_array_equal(moved_gain, band_gain)
    np.testing.assert_array_equal(
        np.where(moved_relay >= 0, perm[moved_relay], UNASSIGNED), band_relay)


@settings(max_examples=100, deadline=None)
@given(relay_instances())
def test_an_unowned_zero_hop_relay_changes_no_band_user_or_winner(case):
    *inputs, ranked, _ = case
    users, owner, source, relay_free, bits, gains, hop = inputs

    def grown(mask, value):
        # a per-relay mask gets a row of `value` for the new relay; a one-row
        # mask already holds its row
        if mask.shape[1] == 1:
            return mask
        return np.concatenate([mask, np.full_like(mask[:, :1], value)], axis=1)

    band_user, band_relay, _ = relay_steps(*inputs, ranked)
    # the new relay is free and predicted free everywhere, and its gain is the
    # largest, so only its zero hop and missing owner keep it from winning
    more = relay_steps(
        users, np.append(owner, np.full((len(owner), 1), -1), axis=1), source,
        grown(relay_free, True), grown(bits, 0),
        np.concatenate([gains, 2 * gains.max(axis=-1, keepdims=True)], axis=-1),
        np.append(hop, np.zeros((len(hop), 1)), axis=1), ranked)
    np.testing.assert_array_equal(more[0], band_user)
    np.testing.assert_array_equal(more[1], band_relay)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 8).flatmap(
        lambda window: st.tuples(
            st.just(window),
            arrays(
                np.int8,
                st.tuples(st.integers(window, 14), st.integers(1, 4)),
                elements=st.integers(0, 2),
            ),
        )
    )
)
def test_window_counts_predict_as_refitted_matrices(case):
    window, history = case
    counts = window_transition_counts(history, window)
    assert counts.shape == (history.shape[0] - window + 1, history.shape[1], 3, 3)
    # an int64 history counts exactly as the int8 one
    np.testing.assert_array_equal(
        window_transition_counts(history.astype(np.int64), window), counts
    )
    for k in range(counts.shape[0]):
        segment = history[k : k + window]
        predicted = predict_next_states(counts[k], segment[-1])
        for band in range(history.shape[1]):
            states = segment[:, band]
            np.testing.assert_array_equal(counts[k, band], naive_pair_counts(states))
            # integer counts break ties exactly as the refitted probabilities do
            refit = estimate_transition_matrix(states)
            assert predicted[band] == refit.probs[states[-1]].argmax()


@st.composite
def grid_cells(draw):
    """A small cell, its radio switches, some strategies and an Es/N0 grid."""
    scenario = NetworkScenario(
        users=draw(st.integers(1, 3)),
        relays=draw(st.integers(1, 5)),
        bands=draw(st.integers(1, 7)),
        coverage_probability=draw(st.sampled_from([0.3, 0.7, 1.0])),
        p0=draw(st.sampled_from([0.3, 0.6])),
    )
    n_train = draw(st.integers(2, 4))
    config = EpisodeConfig(
        slots=n_train + draw(st.integers(2, 8)),
        n_train=n_train,
        episodes=draw(st.integers(1, 2)),
        sensing_error_rate=draw(st.sampled_from([0.0, 0.2])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    params = RadioParams(
        # SNRs that round to 0, and SNRs near overflow at 30 dB
        tx_power_w=draw(st.sampled_from([1.0, 0.3, 7.0, 1e-320, 1e300])),
        gain_model=draw(st.sampled_from(["rayleigh", "unit"])),
        snr_combining=draw(st.sampled_from(["second_hop", "min_hop"])),
    )
    strategies = draw(st.lists(st.sampled_from(list(Strategy)), min_size=1, unique=True))
    # linear Es/N0 from -10 to 30 dB, in any order, repeats allowed
    grid = draw(st.lists(st.sampled_from([0.1, 1.0, 10**0.5, 10.0, 1000.0]),
                         min_size=1, max_size=3))
    return scenario, config, params, strategies, grid


METRIC_ARRAYS = ("pair_slots", "allocated", "outages", "throughput_bps", "user_capacity_bps",
                 "trace")


def assert_same_arrays(a, b):
    assert len(a) == len(b)
    for i, (x, y) in enumerate(zip(a, b)):
        assert x.dtype == y.dtype and x.shape == y.shape, i
        assert x.tobytes() == y.tobytes(), i


def assert_cell_equals_separate_runs(scenario, config, params, strategies, points):
    together = run_strategies(scenario, config, params, strategies, points)
    assert len(together) == len(strategies)
    for strategy, metrics in zip(strategies, together):
        assert metrics.throughput_bps.shape == (len(points), config.episodes, config.pairs)
        for j, es in enumerate(points):
            throughput, capacity = metrics.throughput_bps[j], metrics.user_capacity_bps[j]
            # this strategy run alone at this point: a cell of one each
            [alone] = run_strategies(scenario, config, params, [strategy], [es])
            assert_same_arrays(
                (metrics.pair_slots, metrics.allocated, metrics.outages, throughput[None],
                 capacity[None], metrics.trace),
                [getattr(alone, name) for name in METRIC_ARRAYS],
            )
            for episode in range(config.episodes):
                # a decision pass of this strategy alone, scored at this point alone
                topology, processes = build_episode_world(scenario, config, episode)
                (decided,) = run_episode(
                    config, topology, processes, params, episode, (strategy,)
                )
                scored = score_episode(decided, [es], params)
                assert_same_arrays(
                    (metrics.allocated[episode], metrics.outages[episode],
                     throughput[None, episode], capacity[None, episode], metrics.trace[episode]),
                    (*scored, decided.trace),
                )


@settings(max_examples=40, deadline=None)
@given(grid_cells())
def test_es_grid_views_equal_separate_runs(cell):
    assert_cell_equals_separate_runs(*cell)


@pytest.mark.parametrize("users, relays", [(200, 20), (3, 130)])
def test_es_grid_views_keep_user_and_relay_indices_past_int8(users, relays):
    # the kept owners hold user indices up to 199, the winners relay indices up to 129
    scenario = NetworkScenario(users=users, relays=relays, bands=6, coverage_probability=0.7)
    config = EpisodeConfig(slots=8, n_train=2, episodes=1, seed=5)
    assert_cell_equals_separate_runs(
        scenario, config, RadioParams(), list(Strategy), [0.1, 10.0, 1000.0]
    )


@st.composite
def pass_cells(draw):
    """A tiny one-episode cell under perfect or noisy sensing, and strategies
    in any order, repeats allowed."""
    scenario = NetworkScenario(
        users=draw(st.integers(1, 4)),
        relays=draw(st.integers(1, 6)),
        bands=draw(st.integers(1, 8)),
        coverage_probability=draw(st.sampled_from([0.3, 0.7, 1.0])),
    )
    n_train = draw(st.integers(2, 4))
    config = EpisodeConfig(
        slots=n_train + draw(st.integers(2, 8)),
        n_train=n_train,
        episodes=1,
        sensing_error_rate=draw(st.sampled_from([0.0, 0.2])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    params = RadioParams(
        gain_model=draw(st.sampled_from(["rayleigh", "unit"])),
        snr_combining=draw(st.sampled_from(["second_hop", "min_hop"])),
    )
    strategies = draw(st.lists(st.sampled_from(list(Strategy)), min_size=1, max_size=6))
    return scenario, config, params, strategies


@settings(max_examples=60, deadline=None)
@given(pass_cells())
def test_each_strategy_gets_its_own_pass_and_no_aggregation_one_band_per_user(cell):
    scenario, config, params, strategies = cell
    world = build_episode_world(scenario, config, 0)
    passes = run_episode(config, *world, params, 0, tuple(strategies))
    assert len(passes) == len(strategies)
    for strategy, decided in zip(strategies, passes):
        (alone,) = run_episode(config, *world, params, 0, (strategy,))
        assert pickle.dumps(decided) == pickle.dumps(alone)

    predicted, best_only = run_episode(
        config, *world, params, 0, (Strategy.PREDICT_AGGREGATE, Strategy.NO_AGGREGATION))
    band_user, kept = predicted.kept[0], best_only.kept[0]
    # each user holds one band of a pair where predict gave it any, else none
    for user in range(scenario.users):
        np.testing.assert_array_equal(
            (kept == user).sum(axis=-1), (band_user == user).any(axis=-1))
    # the held bands are predict's, with the same users and winners' draws
    held = kept >= 0
    for ours, predicts in zip(best_only.kept, predicted.kept):
        np.testing.assert_array_equal(ours[held], predicts[held])
    assert pickle.dumps((best_only.failed, best_only.trace)) == pickle.dumps(
        (predicted.failed, predicted.trace))


@st.composite
def traced_cells(draw):
    """A small cell under perfect or noisy sensing, tracing any of its bands."""
    scenario, config, params, _, _ = draw(grid_cells())
    config = replace(
        config,
        sensing_error_rate=draw(st.sampled_from([0.0, 0.1, 0.3])),
        designated_band=draw(st.integers(0, scenario.bands - 1)),
    )
    return scenario, config, params


@settings(max_examples=30, deadline=None)
@given(traced_cells())
def test_the_trace_is_the_designated_bands_truth_and_first_users_view(cell):
    # actual: the truth at each pair's second slot; default: user 0's sensed
    # state at its first slot, which persistence predicts; every strategy
    # traces the same two, and the predicting ones the same prediction
    scenario, config, params = cell
    runs = run_strategies(scenario, config, params, list(Strategy), [1.0])
    band, err = config.designated_band, config.sensing_error_rate
    first = runs[0].pair_slots
    for episode in range(config.episodes):
        _, processes = build_episode_world(scenario, config, episode)
        truth = processes.trajectory()[: config.slots]
        rng = seed_sequence_rng(config.seed, "sense", episode, "src", 0)
        sensed = slotwise_sense(truth, err, rng) if err > 0 else truth
        predicted = runs[0].trace[episode, :, 2]
        for strategy, metrics in zip(Strategy, runs):
            actual, default, guess = metrics.trace[episode].T
            np.testing.assert_array_equal(actual, truth[first + 1, band])
            np.testing.assert_array_equal(default, sensed[first, band])
            persisted = strategy == Strategy.NO_PREDICTION
            np.testing.assert_array_equal(guess, default if persisted else predicted)


# one small noisy cell whose views each strategy of a pass scores in one batch
CELL = NetworkScenario(users=3, relays=5, bands=7, coverage_probability=0.7)
CELL_CONFIG = EpisodeConfig(slots=12, n_train=3, episodes=2, sensing_error_rate=0.2, seed=11)
CELL_PARAMS = RadioParams(snr_combining="min_hop")


@pytest.mark.parametrize(
    "cells",
    [
        # unsorted points, one repeated: each is scored as its own point
        [(CELL_PARAMS, list(Strategy), [10.0, 0.1, 1000.0, 0.1])],
        # no-aggregation without the prediction strategy that shares its pass
        [(CELL_PARAMS, [Strategy.NO_AGGREGATION, Strategy.SINGLE_USER], [10.0, 0.1, 1000.0])],
        # strategies out of rule order: a pass's strategies arrive after other rules'
        [(CELL_PARAMS, list(reversed(Strategy)), [0.1, 10.0, 1000.0])],
        # two cells, one call each, at different transmit powers
        [(CELL_PARAMS, list(Strategy), [0.1, 10.0]),
         (replace(CELL_PARAMS, tx_power_w=7.0), list(Strategy), [1000.0, 0.1])],
        # SNRs that round to 0 in one cell, near overflow in the other
        [(replace(CELL_PARAMS, tx_power_w=1e-320), list(Strategy), [0.1, 1000.0]),
         (replace(CELL_PARAMS, tx_power_w=1e300), list(Strategy), [1000.0, 0.1])],
    ],
    ids=["unsorted-repeated-points", "no-aggregation-alone", "strategy-major", "two-groups",
         "extreme-powers"],
)
def test_batched_views_equal_separate_runs(cells):
    for params, strategies, points in cells:
        assert_cell_equals_separate_runs(CELL, CELL_CONFIG, params, strategies, points)


def test_batched_views_span_pair_blocks(monkeypatch):
    # 3 points x 7 bands x 3 users leave one pair per view block of 64 elements
    monkeypatch.setattr(simulation, "PAIR_BLOCK_ELEMENTS", 64)
    assert_cell_equals_separate_runs(
        CELL, CELL_CONFIG, CELL_PARAMS, list(Strategy), [0.1, 10.0, 1000.0]
    )
