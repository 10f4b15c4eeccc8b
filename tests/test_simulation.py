"""Tests for the two-slot episode harness and its baseline strategies."""

import pickle
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
    reduce_to_best_band,
    run_episode,
    run_strategies,
    run_strategy,
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


def _world(matrix, p0, bands, seed, slots, users=2, relays=4, coverage=1.0):
    topology_rng = np.random.default_rng(seed)
    coverage_matrix = topology_rng.random((relays, users)) < coverage
    coverage_matrix[0] = True  # keep every pair connected
    topology = Topology(users=users, relays=relays, coverage=coverage_matrix)
    processes = BandProcessSet(
        SpectrumProcessConfig(band_count=bands, p0_idle=p0, ground_truth_matrix=matrix),
        np.random.SeedSequence(seed),
        max_slots=slots - 1,
    )
    return topology, processes


def _scored(config, topology, processes, params, **kwargs):
    """The metrics of `config.strategy` on one decision pass, at `params`' Es/N0."""
    decided = run_episode(config, topology, processes, params, **kwargs)
    (metrics,) = score_episode(decided, config.strategy, [params.es_over_n0], params)
    return metrics


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
            run_strategy(
                NetworkScenario(bands=10),
                EpisodeConfig(slots=24, episodes=1, designated_band=designated_band),
                RadioParams(),
            )


class TestStaticGoodSpectrum:
    """A spectrum frozen at Good: no outages, every common band allocated."""

    def test_zero_outages_and_full_allocation(self):
        config = EpisodeConfig(slots=12, episodes=1, n_train=4, seed=5)
        topology, processes = _world(
            ALMOST_FROZEN_GOOD, 1.0 - 1e-12, bands=9, seed=5, slots=12
        )
        metrics = _scored(config, topology, processes, RadioParams())
        assert metrics.outage_count == 0
        np.testing.assert_array_equal(metrics.pair_allocated, 9)
        assert np.all(metrics.pair_throughput_bps > 0)

    def test_prediction_cannot_help_a_constant_channel(self):
        config = EpisodeConfig(slots=12, episodes=1, n_train=4, seed=5)
        results = {}
        for strategy in (Strategy.PREDICT_AGGREGATE, Strategy.NO_PREDICTION):
            topology, processes = _world(
                ALMOST_FROZEN_GOOD, 1.0 - 1e-12, bands=9, seed=5, slots=12
            )
            metrics = _scored(
                replace(config, strategy=strategy), topology, processes, RadioParams()
            )
            results[strategy] = metrics
        a, b = results.values()
        np.testing.assert_array_equal(a.pair_throughput_bps, b.pair_throughput_bps)
        assert a.outage_count == b.outage_count == 0

    def test_state_match_trace_all_agree(self):
        config = EpisodeConfig(slots=12, episodes=1, n_train=4, seed=5)
        topology, processes = _world(
            ALMOST_FROZEN_GOOD, 1.0 - 1e-12, bands=9, seed=5, slots=12
        )
        metrics = _scored(config, topology, processes, RadioParams())
        assert metrics.prediction_match_count == config.pairs
        assert metrics.default_match_count == config.pairs
        assert metrics.trace.shape == (config.pairs, 3)


class TestPeriodTwoChain:
    """Alternating Good/Busy truth: the predictor learns the swap, the
    persistence baseline walks into an outage on every allocation."""

    def _run(self, strategy, seed=3):
        config = EpisodeConfig(
            slots=10, episodes=1, n_train=4, seed=seed, strategy=strategy
        )
        topology, processes = _world(PERIOD_TWO, 0.5, bands=8, seed=seed, slots=10)
        return _scored(config, topology, processes, RadioParams())

    def test_prediction_avoids_every_outage(self):
        metrics = self._run(Strategy.PREDICT_AGGREGATE)
        assert metrics.allocation_count == 0
        assert metrics.outage_rate == 0.0

    def test_persistence_baseline_outages_on_every_allocation(self):
        metrics = self._run(Strategy.NO_PREDICTION)
        assert metrics.allocation_count > 0
        assert metrics.outage_count == metrics.allocation_count
        assert metrics.outage_rate == 1.0
        # throughput never counts an outage band
        assert np.all(metrics.pair_throughput_bps == 0.0)

    def test_hand_traced_six_slot_run(self):
        # slots 0..5, training window 3, pairs at t = 2, 3, 4.  Bands in
        # state Good at t carry a Good->Busy transition inside their
        # window, so the fitted row predicts Busy and the band is
        # skipped; Busy bands fail slot-1 sensing.  The persistence
        # baseline allocates every Good band and every one fails.
        config = EpisodeConfig(slots=6, episodes=1, n_train=3, seed=11)
        topology, processes = _world(PERIOD_TWO, 0.5, bands=6, seed=11, slots=6)
        truth0 = processes.states.copy()
        metrics = _scored(config, topology, processes, RadioParams())
        assert metrics.allocation_count == 0

        topology, processes = _world(PERIOD_TWO, 0.5, bands=6, seed=11, slots=6)
        baseline = _scored(
            replace(config, strategy=Strategy.NO_PREDICTION),
            topology,
            processes,
            RadioParams(),
        )
        # per pair the persistence baseline allocates exactly the bands
        # currently in Good state, alternating with the phase
        good_now = int((truth0 == SpectrumState.GOOD).sum())
        expected = [good_now if t % 2 == 0 else 6 - good_now for t in (2, 3, 4)]
        np.testing.assert_array_equal(baseline.pair_allocated, expected)
        np.testing.assert_array_equal(baseline.pair_outages, expected)

    def test_state_match_trace_prediction_wins(self):
        metrics = self._run(Strategy.PREDICT_AGGREGATE)
        assert metrics.prediction_match_count == metrics.trace.shape[0]
        assert metrics.default_match_count == 0


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
            topology, processes = _world(
                ALMOST_FROZEN_GOOD, 1.0 - 1e-12, bands=1, seed=5, slots=12, users=1
            )
            metrics = _scored(
                replace(config, strategy=strategy), topology, processes, RadioParams()
            )
            results.append(metrics.pair_throughput_bps)
        np.testing.assert_array_equal(results[0], results[1])

    def test_at_most_one_band_per_user_each_pair(self):
        scenario = NetworkScenario(users=3, relays=8, bands=20)
        config = EpisodeConfig(
            slots=30, episodes=2, n_train=20, seed=7, strategy=Strategy.NO_AGGREGATION
        )
        for metrics in run_strategy(scenario, config, RadioParams()):
            assert np.all(metrics.pair_allocated <= scenario.users)

    def test_never_beats_aggregation_in_any_run(self):
        scenario = NetworkScenario(users=3, relays=8, bands=20)
        params = RadioParams()
        base = EpisodeConfig(slots=30, episodes=4, n_train=20, seed=13)
        full = run_strategy(scenario, base, params)
        trimmed = run_strategy(
            scenario, replace(base, strategy=Strategy.NO_AGGREGATION), params
        )
        for a, b in zip(full, trimmed):
            assert np.all(a.pair_throughput_bps >= b.pair_throughput_bps - 1e-9)


class TestSingleUserBaseline:
    def test_definitional_equivalence(self):
        # the strategy equals running the restricted topology directly
        config = EpisodeConfig(
            slots=24, episodes=1, n_train=20, seed=9, strategy=Strategy.SINGLE_USER
        )
        scenario = NetworkScenario(users=4, relays=10, bands=15)
        params = RadioParams()
        (via_strategy,) = run_strategy(scenario, config, params)
        topology, processes = build_episode_world(scenario, config, episode=0)
        direct = _scored(
            config,
            topology.restrict_to_user(0),
            processes,
            params,
            episode=0,
            base_users=4,
        )
        assert via_strategy.user_capacity_bps.shape == (1,)
        np.testing.assert_array_equal(
            via_strategy.pair_throughput_bps, direct.pair_throughput_bps
        )

    def test_disconnected_pair_has_zero_capacity(self):
        config = EpisodeConfig(slots=24, episodes=1, n_train=20, seed=9)
        topology = Topology(users=1, relays=3, coverage=np.zeros((3, 1), dtype=bool))
        scenario = NetworkScenario(users=1, relays=3, bands=10)
        _, processes = build_episode_world(scenario, config, episode=0)
        metrics = _scored(config, topology, processes, RadioParams(), episode=0)
        assert metrics.allocation_count == 0
        np.testing.assert_array_equal(metrics.user_capacity_bps, [0.0])


class TestDeterminismAndPairing:
    def test_identical_runs_are_byte_identical(self):
        scenario = NetworkScenario(users=3, relays=6, bands=12)
        config = EpisodeConfig(slots=28, episodes=2, n_train=20, seed=21)
        a = run_strategy(scenario, config, RadioParams())
        b = run_strategy(scenario, config, RadioParams())
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_all_strategies_share_the_ground_truth(self):
        # paired comparisons: the designated band's actual states agree
        # across every strategy on the same seed
        scenario = NetworkScenario(users=3, relays=6, bands=12)
        params = RadioParams()
        traces = []
        for strategy in Strategy:
            config = EpisodeConfig(
                slots=28, episodes=2, n_train=20, seed=21, strategy=strategy
            )
            metrics = run_strategy(scenario, config, params)
            traces.append(np.stack([m.trace[:, 0] for m in metrics]))
        for other in traces[1:]:
            np.testing.assert_array_equal(traces[0], other)

    def test_outage_accounting_is_conserved(self):
        scenario = NetworkScenario(users=3, relays=6, bands=12)
        config = EpisodeConfig(slots=40, episodes=3, n_train=20, seed=2)
        for metrics in run_strategy(scenario, config, RadioParams()):
            assert np.all(metrics.pair_outages <= metrics.pair_allocated)
            # a pair where every allocation failed moves no data
            fully_failed = (metrics.pair_outages == metrics.pair_allocated) & (
                metrics.pair_allocated > 0
            )
            assert np.all(metrics.pair_throughput_bps[fully_failed] == 0.0)

    def test_seed_changes_the_world(self):
        scenario = NetworkScenario(users=3, relays=6, bands=12)
        params = RadioParams()
        a = run_strategy(scenario, EpisodeConfig(slots=28, episodes=1, seed=1), params)
        b = run_strategy(scenario, EpisodeConfig(slots=28, episodes=1, seed=2), params)
        assert not np.array_equal(a[0].trace, b[0].trace)

    @pytest.mark.parametrize("strategy", [Strategy.PREDICT_AGGREGATE, Strategy.NO_PREDICTION])
    def test_decisions_depend_on_neither_es_over_n0_nor_transmit_power(self, strategy):
        # a pass ranks on draw-only scores and scores nothing, so the whole
        # record stays put where SNRs would round to 0 (1e-320 W) or
        # overflow to inf (1e306 W)
        scenario = NetworkScenario(users=3, relays=8, bands=20)
        config = EpisodeConfig(slots=30, episodes=1, n_train=20, seed=4, strategy=strategy)
        topology, processes = build_episode_world(scenario, config, 0)
        expected = pickle.dumps(run_episode(config, topology, processes, RadioParams()))
        for es_over_n0 in (0.1, 10.0, 1000.0):
            for tx_power_w in (1.0, 1e-320, 1e306):
                params = RadioParams(es_over_n0=es_over_n0, tx_power_w=tx_power_w)
                decided = run_episode(config, topology, processes, params)
                assert pickle.dumps(decided) == expected


class TestPairBlocks:
    @pytest.mark.parametrize("sensing_error_rate", [0.0, 0.2])
    def test_step_one_runs_once_per_pass_over_every_pair_block(
        self, monkeypatch, sensing_error_rate
    ):
        scenario = NetworkScenario(users=3, relays=6, bands=12)
        config = EpisodeConfig(
            slots=30, episodes=1, n_train=20, seed=29, sensing_error_rate=sensing_error_rate
        )
        topology, processes = build_episode_world(scenario, config, 0)
        one_block = _scored(config, topology, processes, RadioParams())
        calls = {"assign_relays": 0, "common_free_spectrum": 0}
        for name in calls:
            def counting(*args, _step=getattr(simulation, name), _name=name):
                calls[_name] += 1
                return _step(*args)

            monkeypatch.setattr(simulation, name, counting)
        # three of the 10 pairs per block of (pairs, 12 bands, 6 relays) scores
        monkeypatch.setattr(simulation, "PAIR_BLOCK_ELEMENTS", 3 * 12 * 6)
        blocked = _scored(config, topology, processes, RadioParams())
        assert calls == {"assign_relays": 1, "common_free_spectrum": 4}
        assert pickle.dumps(blocked) == pickle.dumps(one_block)


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
        episode_draws.cache_clear()
        together = run_strategies(scenario, config, params, strategies, points)
        draws = [tokens for tokens in streams if tokens[0] in ("budget", "gain")]
        assert len(draws) == config.episodes * per_episode
        assert len(together) == len(strategies)
        for strategy, by_point in zip(strategies, together):
            assert len(by_point) == len(points)
            for es, metrics in zip(points, by_point):
                episode_draws.cache_clear()
                alone = run_strategy(
                    scenario, replace(config, strategy=strategy), replace(params, es_over_n0=es)
                )
                assert pickle.dumps(metrics) == pickle.dumps(alone)

    def test_repeated_points_each_get_every_episode(self):
        # two equal points are two (strategy, point) results, not one
        # result keyed by the value and filled twice
        scenario = NetworkScenario(users=2, relays=4, bands=8)
        config = EpisodeConfig(slots=24, episodes=2, n_train=20, seed=3)
        runs = run_strategies(scenario, config, RadioParams(), list(Strategy), [1.0, 1.0])
        for strategy, by_point in zip(Strategy, runs):
            assert len(by_point) == 2
            for metrics in by_point:
                assert [m.episode for m in metrics] == list(range(config.episodes))
                assert {m.strategy for m in metrics} == {strategy}
            assert pickle.dumps(by_point[0]) == pickle.dumps(by_point[1])

    @pytest.mark.parametrize("es", [0.0, -1.0, float("nan"), float("inf")])
    def test_a_point_outside_its_declaration_is_a_config_error(self, es):
        scenario = NetworkScenario(users=2, relays=4, bands=8)
        config = EpisodeConfig(slots=24, episodes=1, n_train=20)
        with pytest.raises(ConfigError, match="es_over_n0 must lie in"):
            run_strategies(scenario, config, RadioParams(), list(Strategy), [1.0, es])

    @pytest.mark.parametrize("gain_model", ["rayleigh", "unit"])
    def test_cached_draws_are_read_only_and_match_a_cold_draw(self, gain_model):
        key = (13, 1, 6, 6, 3, 12, gain_model)
        episode_draws.cache_clear()
        episode_draws(*key)
        hit = episode_draws(*key)
        assert episode_draws.cache_info().hits == 1
        episode_draws.cache_clear()
        cold = episode_draws(*key)
        for cached, fresh in zip(hit, cold):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0.0
            assert cached.shape == fresh.shape
            assert cached.tobytes() == fresh.tobytes()

    def test_gains_fill_band_major_as_per_band_draws_and_refuse_writes(self):
        episode_draws.cache_clear()
        _, _, gains = episode_draws(13, 1, 6, 5, 3, 12, "rayleigh")
        assert gains.shape == (6, 12, 5)
        assert gains.tobytes() == bandwise_gains(13, 1, 6, 5, 12).tobytes()
        # the band-major buffer behind the (pairs, bands, relays) view is
        # read-only too
        for array in (gains, gains.base):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0, 0] = 0.0

    def test_noisy_arms_sense_each_node_once_per_episode(self, monkeypatch):
        streams = count_derived_streams(monkeypatch)
        scenario = NetworkScenario(users=3, relays=6, bands=11)
        config = EpisodeConfig(
            slots=26, episodes=2, n_train=20, seed=19, sensing_error_rate=0.2
        )
        points = [1.0, 100.0]
        sensing_offsets.cache_clear()
        together = run_strategies(scenario, config, RadioParams(), list(Strategy), points)
        sensed = [tokens for tokens in streams if tokens[0] == "sense"]
        expected = [
            ("sense", episode, kind, i)
            for episode in range(config.episodes)
            for kind, n in (("src", 3), ("rel", 6))
            for i in range(n)
        ]
        assert sensed == expected
        for strategy, by_point in zip(Strategy, together):
            for es, metrics in zip(points, by_point):
                sensing_offsets.cache_clear()
                alone = run_strategy(
                    scenario, replace(config, strategy=strategy), RadioParams(es_over_n0=es)
                )
                assert pickle.dumps(metrics) == pickle.dumps(alone)

    def test_cached_sensing_serves_a_second_truth(self):
        # one-episode runs at two p0 values hit the same cache entry, as
        # the values of a p0 sweep do; each must sense its own truth
        config = EpisodeConfig(
            slots=26, episodes=1, n_train=20, seed=23, sensing_error_rate=0.3
        )
        scenarios = [
            NetworkScenario(users=2, relays=5, bands=9, p0_idle=p0) for p0 in (0.2, 0.6)
        ]
        sensing_offsets.cache_clear()
        warm = [run_strategy(scenario, config, RadioParams()) for scenario in scenarios]
        assert sensing_offsets.cache_info().hits == 1
        for scenario, metrics in zip(scenarios, warm):
            sensing_offsets.cache_clear()
            alone = run_strategy(scenario, config, RadioParams())
            assert pickle.dumps(metrics) == pickle.dumps(alone)

    def test_cached_sensing_offsets_are_read_only_and_hold_no_truth(self):
        key = (19, 1, 26, 11, 3, 6, 0.2)
        sensing_offsets.cache_clear()
        sources, relays = sensing_offsets(*key)
        assert sources.shape == (26, 3, 11) and relays.shape == (26, 6, 11)
        for offsets in (sources, relays):
            assert offsets.dtype == np.int8 and not offsets.flags.writeable
            with pytest.raises(ValueError):
                offsets[0, 0, 0] = 1
            assert set(np.unique(offsets)) <= {0, 1, 2}
        # sensing an all-Good trajectory from a node's stream is its offsets
        good = np.zeros((26, 11), dtype=np.int8)
        first_relay = slotwise_sense(good, 0.2, derive_rng(19, "sense", 1, "rel", 0))
        np.testing.assert_array_equal(relays[:, 0], first_relay)


class TestRadioSwitches:
    def test_unit_gains_are_deterministic_per_relay(self):
        # constant gains: every allocated band of one relay shares its SNR
        config = EpisodeConfig(slots=12, episodes=1, n_train=4, seed=5)
        topology, processes = _world(
            ALMOST_FROZEN_GOOD, 1.0 - 1e-12, bands=9, seed=5, slots=12
        )
        params = RadioParams(gain_model="unit")
        metrics = _scored(config, topology, processes, params)
        assert metrics.outage_count == 0
        assert np.all(metrics.pair_allocated == 9)

    def test_min_hop_never_beats_second_hop(self):
        # the weaker-hop rule can only lower the per-band SNR
        scenario = NetworkScenario(users=3, relays=6, bands=12)
        config = EpisodeConfig(slots=26, episodes=2, n_train=20, seed=8)
        second = run_strategy(scenario, config, RadioParams())
        weaker = run_strategy(
            scenario, config, RadioParams(snr_combining="min_hop")
        )
        for a, b in zip(second, weaker):
            assert np.all(a.pair_throughput_bps >= b.pair_throughput_bps - 1e-9)


class TestSummaries:
    def test_summary_aggregates_episodes(self):
        scenario = NetworkScenario(users=2, relays=5, bands=10)
        config = EpisodeConfig(slots=26, episodes=3, n_train=20, seed=4)
        metrics = run_strategy(scenario, config, RadioParams())
        summary = summarize(metrics)
        assert summary.episodes == 3
        assert summary.outage_rates.shape == (3,)
        assert summary.mean_throughput_bps == pytest.approx(
            np.mean([m.mean_throughput_bps for m in metrics])
        )
        assert summary.min_user_capacity_bps <= summary.max_user_capacity_bps

    def test_baseline_wrappers_set_strategy(self):
        # each baseline's metrics record the strategy that produced them
        scenario = NetworkScenario(users=2, relays=5, bands=10)
        config = EpisodeConfig(slots=26, episodes=1, n_train=20, seed=4)
        params = RadioParams()
        for strategy in (Strategy.NO_PREDICTION, Strategy.NO_AGGREGATION):
            topology, processes = build_episode_world(scenario, config, 0)
            metrics = _scored(
                replace(config, strategy=strategy), topology, processes, params
            )
            assert metrics.strategy == strategy
