"""Tests for the two-slot episode harness and its baseline strategies."""

import pickle
import tracemalloc
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

from oracles import bandwise_gains, slotwise_sense

from specagg.aggregation import UNASSIGNED, aggregate_and_score, allocate_spectrum
from specagg.markov import SpectrumState, TransitionMatrix
from specagg.radio import RadioParams
from specagg import simulation
from specagg.seeds import derive_rng, derive_rngs
from specagg.simulation import (
    ConfigError,
    EpisodeConfig,
    NetworkScenario,
    Strategy,
    build_episode_world,
    episode_draws,
    gain_chunks,
    reduce_to_best_band,
    run_episode,
    run_strategies,
    score_episode,
    sensing_offsets,
    summarize,
)
from specagg.topology import BandProcessSet, SpectrumProcessConfig, Topology

# chain that never leaves Good in any realisable run
ALMOST_FROZEN_GOOD = TransitionMatrix(
    np.array(
        [
            [1.0 - 2e-12, 1e-12, 1e-12],
            [1.0 - 2e-12, 1e-12, 1e-12],
            [1.0 - 2e-12, 1e-12, 1e-12],
        ]
    )
)

# deterministic alternation Good <-> Busy (Bad is unreachable)
PERIOD_TWO = TransitionMatrix(
    np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
)


# the linear Es/N0 point a test scores at where it names none
ES = 10.0


def _world(matrix, bands, seed, slots, users=2, relays=4, coverage=1.0):
    topology_rng = np.random.default_rng(seed)
    coverage_matrix = topology_rng.random((relays, users)) < coverage
    coverage_matrix[0] = True  # keep every pair connected
    topology = Topology(users=users, relays=relays, coverage=coverage_matrix)
    processes = BandProcessSet(
        SpectrumProcessConfig(band_count=bands, ground_truth_matrix=matrix),
        np.random.SeedSequence(seed),
        max_slots=slots - 1,
    )
    return topology, processes


# one pass's metrics at one Es/N0 point, and its designated-band trace
Scored = namedtuple("Scored", "allocated outages throughput_bps user_capacity_bps trace")


def _scored(strategy, config, topology, processes, params, episode=0):
    """The metrics of `strategy` on its decision pass, at the point `ES`."""
    (decided,) = run_episode(config, topology, processes, params, episode, (strategy,))
    allocated, outages, [throughput], [capacity] = score_episode(decided, [ES], params)
    return Scored(allocated, outages, throughput, capacity, decided.trace)


def _matches(trace):
    """The (prediction, default) match counts of a (..., pairs, 3) trace."""
    actual, default, predicted = np.moveaxis(trace, -1, 0)
    return (predicted == actual).sum(-1), (default == actual).sum(-1)


def _alone(strategy, scenario, config, params, es=ES):
    """The metrics of `strategy` run alone at the Es/N0 `es`: a cell of
    one strategy at one point."""
    [metrics] = run_strategies(scenario, config, params, [strategy], [es])
    return metrics


def _at(metrics, j):
    """A cell's `metrics` at its point j alone, as a cell of that one point has them."""
    return replace(
        metrics,
        throughput_bps=metrics.throughput_bps[j : j + 1],
        user_capacity_bps=metrics.user_capacity_bps[j : j + 1],
    )


class TestEpisodeConfig:
    def test_rejects_short_episodes(self):
        with pytest.raises(ConfigError):
            EpisodeConfig(slots=21, n_train=20)

    def test_minimal_length_accepted(self):
        config = EpisodeConfig(slots=22, n_train=20)
        assert config.pairs == 2

    def test_rejects_tiny_training_window(self):
        with pytest.raises(ConfigError):
            EpisodeConfig(slots=10, n_train=1)

    def test_rejects_seed_outside_32_bits(self):
        for seed in (-1, 2**32, 2**32 + 1):
            with pytest.raises(ConfigError, match=r"\[0, 2\^32\)"):
                EpisodeConfig(seed=seed)
            with pytest.raises(ValueError):
                derive_rng(seed, "truth", 0)
        assert EpisodeConfig(seed=2**32 - 1).seed == 2**32 - 1

    def test_stream_tokens_are_strings_or_integers(self):
        with pytest.raises(TypeError, match="token of type"):
            derive_rng(1, "truth", 0.5)

    @pytest.mark.parametrize("designated_band", [-1, 10, 50])
    def test_rejects_designated_band_outside_the_bands(self, designated_band):
        # -1 used to trace the last band silently, 50 to end in an IndexError
        with pytest.raises(ConfigError, match="designated_band"):
            _alone(
                Strategy.PREDICT_AGGREGATE,
                NetworkScenario(bands=10),
                EpisodeConfig(slots=24, episodes=1, designated_band=designated_band),
                RadioParams(),
            )


class TestStaticGoodSpectrum:
    """A spectrum frozen at Good: no outages, every common band allocated."""

    def test_zero_outages_and_full_allocation(self):
        config = EpisodeConfig(slots=12, episodes=1, n_train=4, seed=5)
        topology, processes = _world(ALMOST_FROZEN_GOOD, bands=9, seed=5, slots=12)
        metrics = _scored(Strategy.PREDICT_AGGREGATE, config, topology, processes, RadioParams())
        assert metrics.outages.sum() == 0
        np.testing.assert_array_equal(metrics.allocated, 9)
        assert np.all(metrics.throughput_bps > 0)

    def test_prediction_cannot_help_a_constant_channel(self):
        config = EpisodeConfig(slots=12, episodes=1, n_train=4, seed=5)
        results = {}
        for strategy in (Strategy.PREDICT_AGGREGATE, Strategy.NO_PREDICTION):
            topology, processes = _world(ALMOST_FROZEN_GOOD, bands=9, seed=5, slots=12)
            metrics = _scored(strategy, config, topology, processes, RadioParams())
            results[strategy] = metrics
        a, b = results.values()
        np.testing.assert_array_equal(a.throughput_bps, b.throughput_bps)
        assert a.outages.sum() == b.outages.sum() == 0

    def test_state_match_trace_all_agree(self):
        config = EpisodeConfig(slots=12, episodes=1, n_train=4, seed=5)
        topology, processes = _world(ALMOST_FROZEN_GOOD, bands=9, seed=5, slots=12)
        metrics = _scored(Strategy.PREDICT_AGGREGATE, config, topology, processes, RadioParams())
        assert _matches(metrics.trace) == (config.pairs, config.pairs)
        assert metrics.trace.shape == (config.pairs, 3)


class TestPeriodTwoChain:
    """Alternating Good/Busy truth: the predictor learns the swap, the
    persistence baseline walks into an outage on every allocation."""

    def _run(self, strategy, seed=3):
        config = EpisodeConfig(slots=10, episodes=1, n_train=4, seed=seed)
        topology, processes = _world(PERIOD_TWO, bands=8, seed=seed, slots=10)
        return _scored(strategy, config, topology, processes, RadioParams())

    def test_prediction_avoids_every_outage(self):
        metrics = self._run(Strategy.PREDICT_AGGREGATE)
        assert metrics.allocated.sum() == 0
        assert metrics.outages.sum() == 0

    def test_persistence_baseline_outages_on_every_allocation(self):
        metrics = self._run(Strategy.NO_PREDICTION)
        assert metrics.allocated.sum() > 0
        np.testing.assert_array_equal(metrics.outages, metrics.allocated)
        # throughput never counts an outage band
        assert np.all(metrics.throughput_bps == 0.0)

    def test_hand_traced_six_slot_run(self):
        # slots 0..5, training window 3, pairs at t = 2, 3, 4.  Bands in
        # state Good at t carry a Good->Busy transition inside their
        # window, so the fitted row predicts Busy and the band is
        # skipped; Busy bands fail slot-1 sensing.  The persistence
        # baseline allocates every Good band and every one fails.
        config = EpisodeConfig(slots=6, episodes=1, n_train=3, seed=11)
        topology, processes = _world(PERIOD_TWO, bands=6, seed=11, slots=6)
        truth0 = processes.states.copy()
        metrics = _scored(Strategy.PREDICT_AGGREGATE, config, topology, processes, RadioParams())
        assert metrics.allocated.sum() == 0

        topology, processes = _world(PERIOD_TWO, bands=6, seed=11, slots=6)
        baseline = _scored(Strategy.NO_PREDICTION, config, topology, processes, RadioParams())
        # per pair the persistence baseline allocates exactly the bands
        # currently in Good state, alternating with the phase
        good_now = int((truth0 == SpectrumState.GOOD).sum())
        expected = [good_now if t % 2 == 0 else 6 - good_now for t in (2, 3, 4)]
        np.testing.assert_array_equal(baseline.allocated, expected)
        np.testing.assert_array_equal(baseline.outages, expected)

    def test_state_match_trace_prediction_wins(self):
        metrics = self._run(Strategy.PREDICT_AGGREGATE)
        assert _matches(metrics.trace) == (metrics.trace.shape[0], 0)


class TestNoAggregationBaseline:
    def test_reduce_keeps_best_band_per_user(self):
        band_user = np.array([0, 0])
        band_relay, band_snr = allocate_spectrum(
            band_user,
            np.array([0]),
            np.zeros((1, 2), dtype=np.int8),
            np.array([[1.0], [3.0]]),
        )
        params = RadioParams(band_width_hz=2e6)

        keep = reduce_to_best_band(band_user, band_snr, 1)
        full_bps, _ = aggregate_and_score(band_user, band_snr, 1, params)
        reduced_bps, _ = aggregate_and_score(band_user, np.where(keep, band_snr, 0.0), 1, params)
        assert full_bps == pytest.approx(6e6)
        assert reduced_bps == pytest.approx(4e6)
        assert int(keep.sum()) == 1
        reduced_relay = np.where(keep, band_relay, UNASSIGNED)
        assert reduced_relay[1] == 0 and reduced_relay[0] == UNASSIGNED

    def test_single_band_equals_aggregation(self):
        config = EpisodeConfig(slots=12, episodes=1, n_train=4, seed=5)
        results = []
        for strategy in (Strategy.PREDICT_AGGREGATE, Strategy.NO_AGGREGATION):
            topology, processes = _world(ALMOST_FROZEN_GOOD, bands=1, seed=5, slots=12, users=1)
            metrics = _scored(strategy, config, topology, processes, RadioParams())
            results.append(metrics.throughput_bps)
        np.testing.assert_array_equal(results[0], results[1])

    def test_at_most_one_band_per_user_each_pair(self):
        scenario = NetworkScenario(users=3, relays=8, bands=20)
        config = EpisodeConfig(slots=30, episodes=2, n_train=20, seed=7)
        metrics = _alone(Strategy.NO_AGGREGATION, scenario, config, RadioParams())
        assert np.all(metrics.allocated <= scenario.users)

    def test_never_beats_aggregation_in_any_run(self):
        scenario = NetworkScenario(users=3, relays=8, bands=20)
        params = RadioParams()
        base = EpisodeConfig(slots=30, episodes=4, n_train=20, seed=13)
        full, trimmed = run_strategies(
            scenario, base, params, [Strategy.PREDICT_AGGREGATE, Strategy.NO_AGGREGATION],
            [ES],
        )
        assert np.all(full.throughput_bps >= trimmed.throughput_bps - 1e-9)


class TestSingleUserBaseline:
    @pytest.mark.parametrize("err", [0.0, 0.1])
    # the relays whose coverage of the first pair is cleared: the strategy
    # ranks each band's best relay over every relay, those off the pair at hop 0
    @pytest.mark.parametrize("off_pair", [[], [0], slice(None)])
    def test_definitional_equivalence(self, err, off_pair, monkeypatch):
        # the strategy equals the generic predict pipeline run directly on
        # the restricted topology, fed the full population's link budgets
        # and sensing errors cut down to the first pair
        config = EpisodeConfig(
            slots=60, episodes=1, n_train=20, seed=9, sensing_error_rate=err
        )
        scenario = NetworkScenario(users=4, relays=10, bands=15)
        params = RadioParams()
        drawn = simulation.build_topology

        def build_topology(*args):
            topology = drawn(*args)
            coverage = topology.coverage.copy()
            coverage[off_pair, 0] = False
            return replace(topology, coverage=coverage)

        monkeypatch.setattr(simulation, "build_topology", build_topology)
        step_2 = simulation.common_free_spectrum
        ranked = []

        def common_free_spectrum(owner, users, source, relay, snr, hop, best):
            # each band's best relay is the argmax over every relay's score
            np.testing.assert_array_equal(best, (hop[:, None, :] * snr).argmax(-1))
            ranked.append(users)
            return step_2(owner, users, source, relay, snr, hop, best)

        monkeypatch.setattr(simulation, "common_free_spectrum", common_free_spectrum)
        via_strategy = _alone(Strategy.SINGLE_USER, scenario, config, params)
        assert ranked and set(ranked) == {1}
        topology, processes = build_episode_world(scenario, config, episode=0)
        alpha, beta = episode_draws(config.seed, 0, config.pairs, topology.relays, 4)
        offsets = sensing_offsets(
            config.seed, 0, config.slots, scenario.bands, 4, topology.relays, err
        )
        monkeypatch.setattr(simulation, "episode_draws", lambda *_: (alpha[..., :1], beta[..., :1]))
        # the first user's node and every relay's node
        first_pair = np.delete(offsets, [1, 2, 3], axis=1)
        monkeypatch.setattr(simulation, "sensing_offsets", lambda *_: first_pair)
        (decided,) = run_episode(
            config, topology.restrict_to_user(0), processes, params, 0,
            (Strategy.PREDICT_AGGREGATE,),
        )
        direct = score_episode(decided, [ES], params)
        assert via_strategy.user_capacity_bps.shape == (1, 1, 1)
        episode = (via_strategy.allocated[0], via_strategy.outages[0],
                   via_strategy.throughput_bps[:, 0], via_strategy.user_capacity_bps[:, 0])
        assert pickle.dumps(episode) == pickle.dumps(direct)
        assert via_strategy.trace[0].tobytes() == decided.trace.tobytes()

    def test_disconnected_pair_has_zero_capacity(self):
        config = EpisodeConfig(slots=24, episodes=1, n_train=20, seed=9)
        topology = Topology(users=1, relays=3, coverage=np.zeros((3, 1), dtype=bool))
        scenario = NetworkScenario(users=1, relays=3, bands=10)
        _, processes = build_episode_world(scenario, config, episode=0)
        metrics = _scored(
            Strategy.PREDICT_AGGREGATE, config, topology, processes, RadioParams(), episode=0
        )
        assert metrics.allocated.sum() == 0
        np.testing.assert_array_equal(metrics.user_capacity_bps, [0.0])


class TestDeterminismAndPairing:
    def test_identical_runs_are_byte_identical(self):
        scenario = NetworkScenario(users=3, relays=6, bands=12)
        config = EpisodeConfig(slots=28, episodes=2, n_train=20, seed=21)
        a = _alone(Strategy.PREDICT_AGGREGATE, scenario, config, RadioParams())
        b = _alone(Strategy.PREDICT_AGGREGATE, scenario, config, RadioParams())
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_all_strategies_share_the_ground_truth(self):
        # paired comparisons: the designated band's actual states agree
        # across every strategy on the same seed
        scenario = NetworkScenario(users=3, relays=6, bands=12)
        params = RadioParams()
        traces = []
        for strategy in Strategy:
            config = EpisodeConfig(slots=28, episodes=2, n_train=20, seed=21)
            metrics = _alone(strategy, scenario, config, params)
            traces.append(metrics.trace[..., 0])
        for other in traces[1:]:
            np.testing.assert_array_equal(traces[0], other)

    def test_outage_accounting_is_conserved(self):
        scenario = NetworkScenario(users=3, relays=6, bands=12)
        config = EpisodeConfig(slots=40, episodes=3, n_train=20, seed=2)
        metrics = _alone(Strategy.PREDICT_AGGREGATE, scenario, config, RadioParams())
        assert np.all(metrics.outages <= metrics.allocated)
        # a pair where every allocation failed moves no data
        fully_failed = (metrics.outages == metrics.allocated) & (metrics.allocated > 0)
        assert np.all(metrics.throughput_bps[0][fully_failed] == 0.0)

    def test_seed_changes_the_world(self):
        scenario = NetworkScenario(users=3, relays=6, bands=12)
        params = RadioParams()
        a, b = (
            _alone(Strategy.PREDICT_AGGREGATE, scenario, config, params)
            for config in (EpisodeConfig(slots=28, episodes=1, seed=seed) for seed in (1, 2))
        )
        assert not np.array_equal(a.trace[0], b.trace[0])

    @pytest.mark.parametrize("strategy", [Strategy.PREDICT_AGGREGATE, Strategy.NO_PREDICTION])
    def test_decisions_depend_on_neither_es_over_n0_nor_transmit_power(self, strategy):
        # a pass is given no Es/N0, ranks on draw-only scores and scores
        # nothing, so the whole record stays put where SNRs would round to
        # 0 (1e-320 W) or overflow to inf (1e306 W)
        scenario = NetworkScenario(users=3, relays=8, bands=20)
        config = EpisodeConfig(slots=30, episodes=1, n_train=20, seed=4)
        topology, processes = build_episode_world(scenario, config, 0)
        expected = pickle.dumps(
            run_episode(config, topology, processes, RadioParams(), 0, (strategy,))
        )
        for tx_power_w in (1.0, 1e-320, 1e306):
            params = RadioParams(tx_power_w=tx_power_w)
            decided = run_episode(config, topology, processes, params, 0, (strategy,))
            assert pickle.dumps(decided) == expected


class TestPairBlocks:
    @pytest.mark.parametrize(
        "sensing_error_rate, chunk_elements, step_calls",
        [(0.0, None, 2), (0.2, None, 4), (0.0, 5 * 10 * 6, 3), (0.2, 5 * 10 * 6, 5),
         (0.0, 1, 12), (0.2, 1, 12)],
        ids=["0.0", "0.2", "0.0-chunks-of-5-bands", "0.2-chunks-of-5-bands",
             "0.0-one-band-chunks", "0.2-one-band-chunks"],
    )
    def test_step_one_runs_once_per_pass_over_every_pair_block(
        self, monkeypatch, sensing_error_rate, chunk_elements, step_calls
    ):
        scenario = NetworkScenario(users=3, relays=6, bands=12)
        config = EpisodeConfig(
            slots=30, episodes=1, n_train=20, seed=29, sensing_error_rate=sensing_error_rate
        )
        topology, processes = build_episode_world(scenario, config, 0)
        one_block = _scored(Strategy.PREDICT_AGGREGATE, config, topology, processes, RadioParams())
        calls = {"assign_relays": 0, "common_free_spectrum": 0, "allocate_spectrum": 0}
        for name in calls:
            def counting(*args, _step=getattr(simulation, name), _name=name):
                calls[_name] += 1
                return _step(*args)

            monkeypatch.setattr(simulation, name, counting)
        # 216 elements: three bands of (10 pairs, 6 relays) scores rank each
        # band's best relay; steps 2-3 hold no scores, so their blocks take six
        # pairs of the (3 users, 12 bands) masks under perfect sensing and
        # three of the (6 relays, 12 bands) masks under noisy sensing
        monkeypatch.setattr(simulation, "PAIR_BLOCK_ELEMENTS", 3 * 12 * 6)
        if chunk_elements is not None:
            # gain chunks of 5, 5 and 2 of the 12 bands widen the step blocks to
            # 10 pairs under perfect sensing and 7 + 3, 7 + 3, 10 under noisy; a
            # budget below one band gives 12 chunks of one band and 10 pairs
            monkeypatch.setattr(simulation, "GAIN_CHUNK_ELEMENTS", chunk_elements)
        blocked = _scored(Strategy.PREDICT_AGGREGATE, config, topology, processes, RadioParams())
        assert calls == {
            "assign_relays": 1, "common_free_spectrum": step_calls, "allocate_spectrum": step_calls
        }
        assert pickle.dumps(blocked) == pickle.dumps(one_block)

    def test_every_node_is_judged_once_per_pair_block_and_predictor(self, monkeypatch):
        # noisy sensing gives 3 users' and 6 relays' views: one array of 9 nodes
        scenario = NetworkScenario(users=3, relays=6, bands=12)
        config = EpisodeConfig(slots=30, episodes=1, n_train=20, seed=29, sensing_error_rate=0.2)
        topology, processes = build_episode_world(scenario, config, 0)
        # the shape of the states each judging call reads, per call
        calls = {"predict_next_states": [], "two_slot_availability": [], "prediction_bits": []}
        for name, shapes in calls.items():
            def recording(*args, _judge=getattr(simulation, name), _shapes=shapes):
                _shapes.append(np.shape(args[-1]))
                return _judge(*args)

            monkeypatch.setattr(simulation, name, recording)
        # blocks of 3, 3, 3 and 1 of the 10 pairs, sized by the (6 relays, 12 bands) masks
        monkeypatch.setattr(simulation, "PAIR_BLOCK_ELEMENTS", 3 * 12 * 6)
        run_episode(config, topology, processes, RadioParams(), 0, tuple(Strategy))
        blocks = [(n, 3 + 6, 12) for n in (3, 3, 3, 1)]
        # one prediction of every node per block, then one of the designated band
        assert calls["predict_next_states"] == [*blocks, (config.pairs,)]
        # four strategies, two predictors: each judged once per block
        assert calls["two_slot_availability"] == [shape for shape in blocks for _ in range(2)]
        assert calls["prediction_bits"] == [(n, 6, 12) for n, _, _ in blocks for _ in range(2)]


def drawn_gains(*args):
    """The whole (bands, pairs, relays) gains of `gain_chunks(*args)` and
    the band count of each chunk; each chunk must follow the last one and
    refuse writes."""
    chunks = []
    for bands, gains in gain_chunks(*args):
        assert bands.start == sum(len(chunk) for chunk in chunks)
        assert len(gains) == bands.stop - bands.start
        with pytest.raises(ValueError):
            gains[0, 0, 0] = 0.0
        chunks.append(gains.copy())
    return np.concatenate(chunks), [len(chunk) for chunk in chunks]


def count_derived_streams(monkeypatch) -> list[tuple]:
    """Record the tokens of every stream the engine derives, in order:
    one `derive_rng` call, or each member of a `derive_rngs` family."""
    streams = []

    def counting_derive_rng(seed, *tokens):
        streams.append(tokens)
        return derive_rng(seed, *tokens)

    def counting_derive_rngs(seed, *prefix, count):
        streams.extend((*prefix, i) for i in range(count))
        return derive_rngs(seed, *prefix, count=count)

    monkeypatch.setattr(simulation, "derive_rng", counting_derive_rng)
    monkeypatch.setattr(simulation, "derive_rngs", counting_derive_rngs)
    return streams


class TestSharedDraws:
    @pytest.mark.parametrize(
        "params, strategies, per_episode",
        [
            # one budget stream per relay and one fading stream per band
            (RadioParams(), list(Strategy), 6 + 12),
            (RadioParams(snr_combining="min_hop"), [Strategy.PREDICT_AGGREGATE], 6 + 12),
            # unit gains draw no fading stream
            (RadioParams(gain_model="unit"), [Strategy.NO_AGGREGATION], 6),
        ],
        ids=["all-strategies", "min-hop", "unit-gains"],
    )
    def test_a_cell_draws_once_and_equals_each_strategy_and_point_alone(
        self, params, strategies, per_episode, monkeypatch
    ):
        # run together, a cell's strategies and Es/N0 points draw once per
        # episode, and each (strategy, point)'s metrics are its own run's
        streams = count_derived_streams(monkeypatch)
        scenario = NetworkScenario(users=3, relays=6, bands=12)
        config = EpisodeConfig(slots=26, episodes=2, n_train=20, seed=13)
        points = [1.0, 100.0]
        together = run_strategies(scenario, config, params, strategies, points)
        draws = [tokens for tokens in streams if tokens[0] in ("budget", "gain")]
        assert len(draws) == config.episodes * per_episode
        assert len(together) == len(strategies)
        for strategy, metrics in zip(strategies, together):
            assert len(metrics.throughput_bps) == len(points)
            for j, es in enumerate(points):
                alone = _alone(strategy, scenario, config, params, es)
                assert pickle.dumps(_at(metrics, j)) == pickle.dumps(alone)

    def test_repeated_points_each_get_every_episode(self):
        # two equal points are two (strategy, point) results, not one
        # result keyed by the value and filled twice
        scenario = NetworkScenario(users=2, relays=4, bands=8)
        config = EpisodeConfig(slots=24, episodes=2, n_train=20, seed=3)
        runs = run_strategies(scenario, config, RadioParams(), list(Strategy), [1.0, 1.0])
        for metrics in runs:
            assert metrics.throughput_bps.shape == (2, config.episodes, config.pairs)
            assert metrics.user_capacity_bps.shape[:2] == (2, config.episodes)
            assert pickle.dumps(_at(metrics, 0)) == pickle.dumps(_at(metrics, 1))

    @pytest.mark.parametrize("es", [0.0, -1.0, float("nan"), float("inf")])
    def test_a_point_outside_its_declaration_is_a_config_error(self, es, monkeypatch):
        scenario = NetworkScenario(users=2, relays=4, bands=8)
        config = EpisodeConfig(slots=24, episodes=1, n_train=20)
        # refused before any episode runs
        monkeypatch.setattr(
            simulation, "build_episode_world", lambda *_: pytest.fail("an episode ran")
        )
        with pytest.raises(ConfigError, match="es_over_n0 must lie in"):
            run_strategies(scenario, config, RadioParams(), list(Strategy), [1.0, es])

    @pytest.mark.parametrize("es", [0.0, -1.0, float("nan"), float("inf")])
    def test_scoring_at_a_point_outside_its_declaration_is_a_config_error(self, es):
        # unchecked, nan and inf would score nan and inf, 0 zeros, and -1 fail in link_throughput
        config = EpisodeConfig(slots=10, episodes=1, n_train=4, seed=3)
        topology, processes = _world(PERIOD_TWO, bands=8, seed=3, slots=10)
        rule = (Strategy.PREDICT_AGGREGATE,)
        (decided,) = run_episode(config, topology, processes, RadioParams(), 0, rule)
        with pytest.raises(ConfigError, match="es_over_n0 must lie in"):
            score_episode(decided, [1.0, es], RadioParams())

    @pytest.mark.parametrize("gain_model", ["rayleigh", "unit"])
    def test_draws_are_read_only_and_match_a_fresh_draw(self, gain_model):
        budget = [episode_draws(13, 1, 6, 6, 3) for _ in range(2)]
        for drawn, fresh in zip(*budget):
            assert not drawn.flags.writeable
            with pytest.raises(ValueError):
                drawn[0] = 0.0
            assert drawn.shape == fresh.shape == (6, 6, 3)
            assert drawn.tobytes() == fresh.tobytes()
        gains = [drawn_gains(13, 1, 6, 6, 12, gain_model)[0] for _ in range(2)]
        assert gains[0].shape == (12, 6, 6)
        assert gains[0].tobytes() == gains[1].tobytes()

    @pytest.mark.parametrize(
        "elements, chunk_bands",
        [(None, [12]), (1, [1] * 12), (5 * 7 * 5 - 1, [4, 4, 4]), (5 * 7 * 5, [5, 5, 2])],
        ids=["one-chunk", "one-band-chunks", "chunks-of-4-bands", "chunks-of-5-bands"],
    )
    def test_chunked_gains_equal_per_band_draws(self, elements, chunk_bands, monkeypatch):
        # one chunk, one band per chunk (a budget below one band), chunks of
        # 4 (a budget just short of 5 bands), and chunks of 5, 5 and an uneven
        # tail of 2 of the 12 bands
        if elements is not None:
            monkeypatch.setattr(simulation, "GAIN_CHUNK_ELEMENTS", elements)
        gains, bands = drawn_gains(13, 1, 7, 5, 12, "rayleigh")
        assert bands == chunk_bands
        assert gains.tobytes() == bandwise_gains(13, 1, 7, 5, 12).transpose(1, 0, 2).tobytes()

    @pytest.mark.parametrize("elements", [None, 1, 5 * 7 * 5])
    def test_each_gain_stream_is_derived_once_and_draws_once(self, elements, monkeypatch):
        # per episode each band's stream is derived once, built when its band
        # is reached, and draws all of its (pairs, relays) gains in one call
        if elements is not None:
            monkeypatch.setattr(simulation, "GAIN_CHUNK_ELEMENTS", elements)
        streams = count_derived_streams(monkeypatch)
        events = []
        family = simulation.derive_rngs

        class Drawing:
            def __init__(self, rng, tokens):
                self.rng, self.tokens = rng, tokens
                events.append(("built", *tokens))

            def standard_exponential(self, **kwargs):
                events.append(("drew", *self.tokens))
                return self.rng.standard_exponential(**kwargs)

        def drawing_rngs(seed, *prefix, count):
            rngs = family(seed, *prefix, count=count)
            if prefix[0] != "gain":
                return rngs
            return (Drawing(rng, (*prefix, i)) for i, rng in enumerate(rngs))

        monkeypatch.setattr(simulation, "derive_rngs", drawing_rngs)
        scenario = NetworkScenario(users=3, relays=5, bands=12)
        config = EpisodeConfig(slots=27, episodes=2, n_train=20, seed=13)
        run_strategies(scenario, config, RadioParams(), list(Strategy), [1.0])
        gain = [("gain", episode, band) for episode in range(2) for band in range(12)]
        assert [tokens for tokens in streams if tokens[0] == "gain"] == gain
        assert events == [(event, *tokens) for tokens in gain for event in ("built", "drew")]

    @pytest.mark.parametrize("elements", [None, 1, 7 * 40 * 50])
    def test_the_chunk_buffer_holds_the_budget_or_one_band(self, elements, monkeypatch):
        # (30 bands, 40 pairs, 50 relays) gains are 480 kB, one band 16 kB;
        # beyond the buffer only the stream derivation's few kB are traced
        if elements is not None:
            monkeypatch.setattr(simulation, "GAIN_CHUNK_ELEMENTS", elements)
        limit = 8 * max(simulation.GAIN_CHUNK_ELEMENTS, 40 * 50)
        # the first stream imports numpy.random: derive one before tracing
        next(gain_chunks(13, 1, 1, 1, 1, "rayleigh"))
        tracemalloc.start()
        try:
            for _, gains in gain_chunks(13, 1, 40, 50, 30, "rayleigh"):
                assert gains.nbytes <= limit
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < min(limit, 30 * 40 * 50 * 8) + 8 * 1024

    def test_noisy_arms_sense_each_node_once_per_episode(self, monkeypatch):
        streams = count_derived_streams(monkeypatch)
        scenario = NetworkScenario(users=3, relays=6, bands=11)
        config = EpisodeConfig(
            slots=26, episodes=2, n_train=20, seed=19, sensing_error_rate=0.2
        )
        points = [1.0, 100.0]
        together = run_strategies(scenario, config, RadioParams(), list(Strategy), points)
        sensed = [tokens for tokens in streams if tokens[0] == "sense"]
        expected = [
            ("sense", episode, kind, i)
            for episode in range(config.episodes)
            for kind, n in (("src", 3), ("rel", 6))
            for i in range(n)
        ]
        assert sensed == expected
        for strategy, metrics in zip(Strategy, together):
            for j, es in enumerate(points):
                alone = _alone(strategy, scenario, config, RadioParams(), es)
                assert pickle.dumps(_at(metrics, j)) == pickle.dumps(alone)

    def test_each_p0_value_senses_its_own_truth(self):
        # one-episode runs at two p0 values draw the same sensing errors,
        # as the values of a p0 sweep do; each must sense its own truth
        config = EpisodeConfig(
            slots=26, episodes=1, n_train=20, seed=23, sensing_error_rate=0.3
        )
        scenarios = [
            NetworkScenario(users=2, relays=5, bands=9, p0=p0) for p0 in (0.2, 0.6)
        ]
        in_turn = [
            _alone(Strategy.PREDICT_AGGREGATE, scenario, config, RadioParams())
            for scenario in scenarios
        ]
        assert not np.array_equal(in_turn[0].trace, in_turn[1].trace)
        for scenario, metrics in reversed(list(zip(scenarios, in_turn))):
            alone = _alone(Strategy.PREDICT_AGGREGATE, scenario, config, RadioParams())
            assert pickle.dumps(metrics) == pickle.dumps(alone)

    def test_sensing_offsets_are_read_only_and_hold_no_truth(self):
        # the 3 users' nodes, then the 6 relays'
        offsets = sensing_offsets(19, 1, 26, 11, 3, 6, 0.2)
        assert offsets.shape == (26, 3 + 6, 11)
        assert offsets.dtype == np.int8 and not offsets.flags.writeable
        with pytest.raises(ValueError):
            offsets[0, 0, 0] = 1
        assert set(np.unique(offsets)) <= {0, 1, 2}
        # sensing an all-Good trajectory from a node's stream is its offsets
        good = np.zeros((26, 11), dtype=np.int8)
        first_relay = slotwise_sense(good, 0.2, derive_rng(19, "sense", 1, "rel", 0))
        np.testing.assert_array_equal(offsets[:, 3], first_relay)


class TestLockstepPass:
    def test_a_cell_runs_one_pass_per_episode_sharing_step_one(self, monkeypatch):
        # predict and persist share step 1; the single-user rule runs its own
        calls = {"run_episode": [], "assign_relays": 0}
        run_episode_alone, assign_relays = simulation.run_episode, simulation.assign_relays

        def counting_run_episode(*args, **kwargs):
            calls["run_episode"].append((len(args), kwargs))
            return run_episode_alone(*args, **kwargs)

        def counting_assign_relays(*args):
            calls["assign_relays"] += 1
            return assign_relays(*args)

        monkeypatch.setattr(simulation, "run_episode", counting_run_episode)
        monkeypatch.setattr(simulation, "assign_relays", counting_assign_relays)
        scenario = NetworkScenario(users=3, relays=6, bands=12)
        config = EpisodeConfig(slots=26, episodes=2, n_train=20, seed=13)
        run_strategies(scenario, config, RadioParams(), list(Strategy), [1.0])
        assert calls == {"run_episode": [(6, {})] * 2, "assign_relays": 2 * 2}

    @pytest.mark.parametrize("snr_combining", ["second_hop", "min_hop"])
    @pytest.mark.parametrize("gain_model", ["rayleigh", "unit"])
    @pytest.mark.parametrize("sensing_error_rate", [0.0, 0.2], ids=["perfect", "noisy"])
    def test_chunks_and_blocks_do_not_change_a_cell(
        self, sensing_error_rate, gain_model, snr_combining, monkeypatch
    ):
        scenario = NetworkScenario(users=3, relays=6, bands=12)
        config = EpisodeConfig(
            slots=30, episodes=2, n_train=20, seed=31, sensing_error_rate=sensing_error_rate
        )
        params = RadioParams(gain_model=gain_model, snr_combining=snr_combining)
        cell = (scenario, config, params, list(Strategy), [1.0, 100.0])
        whole = pickle.dumps(run_strategies(*cell))
        drawn, chunked = [], simulation.gain_chunks

        def counting_gain_chunks(*args):
            for chunk in chunked(*args):
                drawn.append(chunk)
                yield chunk

        monkeypatch.setattr(simulation, "gain_chunks", counting_gain_chunks)
        # an episode's 12 bands of (10 pairs, 6 relays) gains: a budget below
        # one band draws 12 chunks of one band; then chunks of 5, 5 and 2; then
        # chunks of 3, each ranked as band blocks of 2 and 1 and run as pair
        # blocks of 8 and 2 under noisy sensing (one block under perfect
        # sensing); then chunks of 3 ranked one band per block and run as pair
        # blocks of 4, 4 and 2 under perfect sensing (2 under noisy sensing).
        # Unit gains are one chunk.
        for chunk_elements, block_elements, chunks in (
            (1, None, 12), (5 * 10 * 6, None, 3),
            (3 * 10 * 6, 2 * 12 * 6, 4), (3 * 10 * 6, 4 * 3 * 3, 4),
        ):
            monkeypatch.setattr(simulation, "GAIN_CHUNK_ELEMENTS", chunk_elements)
            if block_elements is not None:
                monkeypatch.setattr(simulation, "PAIR_BLOCK_ELEMENTS", block_elements)
            drawn.clear()
            assert pickle.dumps(run_strategies(*cell)) == whole
            assert len(drawn) == config.episodes * (chunks if gain_model == "rayleigh" else 1)

    def test_an_episode_never_holds_its_gains_whole(self, monkeypatch):
        # (400 bands, 40 pairs, 100 relays) float64 gains are 12.8 MB; drawn
        # forty bands at a time, a cell stays below half of that
        monkeypatch.setattr(simulation, "GAIN_CHUNK_ELEMENTS", 4 * 400 * 100)
        scenario = NetworkScenario(users=2, relays=100, bands=400)
        config = EpisodeConfig(slots=60, episodes=1, n_train=20, seed=37)
        tracemalloc.start()
        try:
            run_strategies(scenario, config, RadioParams(), list(Strategy), [10.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 400 * 100 * 8 / 2

    def test_a_cell_without_points_is_a_config_error(self):
        scenario = NetworkScenario(users=2, relays=4, bands=8)
        config = EpisodeConfig(slots=24, episodes=1, n_train=20)
        with pytest.raises(ConfigError, match="at least one Es/N0 point"):
            run_strategies(scenario, config, RadioParams(), list(Strategy), [])

    @pytest.mark.parametrize("strategy", [Strategy.PREDICT_AGGREGATE, Strategy.NO_AGGREGATION])
    def test_a_pass_scored_at_no_points_has_no_metrics(self, strategy):
        # no points give empty point axes, not a ZeroDivisionError
        config = EpisodeConfig(slots=10, episodes=1, n_train=4, seed=3)
        topology, processes = _world(PERIOD_TWO, bands=8, seed=3, slots=10)
        (decided,) = run_episode(config, topology, processes, RadioParams(), 0, (strategy,))
        allocated, outages, throughput, capacity = score_episode(decided, [], RadioParams())
        assert throughput.shape == (0, config.pairs) and capacity.shape == (0, 2)
        # the counts do not depend on Es/N0
        at_one_point = score_episode(decided, [1.0], RadioParams())
        assert pickle.dumps((allocated, outages)) == pickle.dumps(at_one_point[:2])

    def test_a_cell_without_strategies_has_no_results(self, monkeypatch):
        scenario = NetworkScenario(users=2, relays=4, bands=8)
        config = EpisodeConfig(slots=24, episodes=2, n_train=20)
        # it returns before any world is built
        monkeypatch.setattr(
            simulation, "build_episode_world", lambda *_: pytest.fail("a world was built")
        )
        assert run_strategies(scenario, config, RadioParams(), [], [10.0]) == []


class TestRadioSwitches:
    def test_unit_gains_are_deterministic_per_relay(self):
        # constant gains: every allocated band of one relay shares its SNR
        config = EpisodeConfig(slots=12, episodes=1, n_train=4, seed=5)
        topology, processes = _world(ALMOST_FROZEN_GOOD, bands=9, seed=5, slots=12)
        params = RadioParams(gain_model="unit")
        metrics = _scored(Strategy.PREDICT_AGGREGATE, config, topology, processes, params)
        assert metrics.outages.sum() == 0
        assert np.all(metrics.allocated == 9)

    def test_min_hop_never_beats_second_hop(self):
        # the weaker-hop rule can only lower the per-band SNR
        scenario = NetworkScenario(users=3, relays=6, bands=12)
        config = EpisodeConfig(slots=26, episodes=2, n_train=20, seed=8)
        second, weaker = (
            _alone(Strategy.PREDICT_AGGREGATE, scenario, config, params)
            for params in (RadioParams(), RadioParams(snr_combining="min_hop"))
        )
        assert np.all(second.throughput_bps >= weaker.throughput_bps - 1e-9)


class TestSummaries:
    def test_summary_aggregates_episodes(self):
        scenario = NetworkScenario(users=2, relays=5, bands=10)
        config = EpisodeConfig(slots=26, episodes=3, n_train=20, seed=4)
        metrics = _alone(Strategy.PREDICT_AGGREGATE, scenario, config, RadioParams())
        summary = summarize(metrics)
        assert summary.shape == (1, 4, 3)
        [[outage, throughput, least, greatest]] = summary
        counts = zip(metrics.outages.tolist(), metrics.allocated.tolist())
        assert outage.tolist() == [
            sum(outages) / sum(allocated) if sum(allocated) else 0.0
            for outages, allocated in counts
        ]
        assert throughput.tolist() == [
            float(np.array(pairs).mean()) for pairs in metrics.throughput_bps[0].tolist()
        ]
        np.testing.assert_array_equal(
            least, [min(users) for users in metrics.user_capacity_bps[0].tolist()]
        )
        assert np.all(least <= greatest)
