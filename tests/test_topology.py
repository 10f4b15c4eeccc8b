"""Tests for topology construction and ground-truth band processes."""

import numpy as np
import pytest

from oracles import slotwise_sense

from specagg.markov import SpectrumState, TransitionMatrix, stationary_distribution
from specagg.simulation import EpisodeConfig, NetworkScenario, build_episode_world
from specagg.topology import (
    BandProcessSet,
    SpectrumProcessConfig,
    Topology,
    build_topology,
    derive_ground_truth_matrix,
    sense,
)

# frozen seeded snapshot: build_topology(5, 20, 0.4, default_rng(1)), row-major
COVERAGE_SNAPSHOT_T5_R20_P04_SEED1 = (
    "0010100001001010101101000001100100001001"
    "0001000010001011000011000110001000010000"
    "01010101110111101010"
)


class TestBuildTopology:
    def test_full_coverage(self):
        topo = build_topology(3, 4, 1.0, np.random.default_rng(0))
        assert topo.coverage.all()

    def test_empty_coverage_drops_everything_later(self):
        # probability ~0 is not allowed; emulate with a seed that yields
        # no coverage at a tiny probability
        topo = build_topology(2, 3, 1e-9, np.random.default_rng(0))
        assert not topo.coverage.any()

    def test_seeded_snapshot(self):
        topo = build_topology(5, 20, 0.4, np.random.default_rng(1))
        packed = "".join(
            "".join(str(int(v)) for v in row) for row in topo.coverage
        )
        assert packed == COVERAGE_SNAPSHOT_T5_R20_P04_SEED1

    def test_relay_prefix_stable(self):
        # growing the relay population extends, never reshuffles
        small = build_topology(4, 6, 0.5, np.random.default_rng(5))
        large = build_topology(4, 10, 0.5, np.random.default_rng(5))
        np.testing.assert_array_equal(large.coverage[:6], small.coverage)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            build_topology(2, 2, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_topology(2, 2, 1.5, np.random.default_rng(0))

    def test_restrict_to_user(self):
        topo = build_topology(5, 20, 0.4, np.random.default_rng(1))
        single = topo.restrict_to_user(0)
        assert single.users == 1 and single.relays == 20
        np.testing.assert_array_equal(single.coverage[:, 0], topo.coverage[:, 0])


class TestDeriveGroundTruthMatrix:
    def test_memoryless_limit(self):
        tm = derive_ground_truth_matrix(0.4, 0.0, 0.75)
        pi = np.array([0.3, 0.1, 0.6])
        for row in tm.probs:
            np.testing.assert_allclose(row, pi, atol=1e-15)

    def test_stationary_matches_construction(self):
        tm = derive_ground_truth_matrix(0.4, 0.6, 0.75)
        pi = stationary_distribution(tm)
        np.testing.assert_allclose(pi, [0.3, 0.1, 0.6], atol=1e-9)

    def test_idle_mass_exact_over_grid(self):
        for p0 in (0.1, 0.25, 0.4, 0.6, 0.9):
            for pers in (0.0, 0.3, 0.6, 0.95):
                tm = derive_ground_truth_matrix(p0, pers, 0.75)
                pi = stationary_distribution(tm)
                assert pi[0] + pi[1] == pytest.approx(p0, abs=1e-9)

    def test_boundary_rejection(self):
        with pytest.raises(ValueError):
            derive_ground_truth_matrix(0.4, 0.6, 1.0)
        with pytest.raises(ValueError):
            derive_ground_truth_matrix(0.0, 0.6, 0.5)
        with pytest.raises(ValueError):
            derive_ground_truth_matrix(0.4, 1.0, 0.5)


class TestSpectrumProcessConfig:
    def test_accepts_matching_chain(self):
        tm = derive_ground_truth_matrix(0.4, 0.6, 0.75)
        config = SpectrumProcessConfig(band_count=10, ground_truth_matrix=tm)
        assert config.p0_idle == pytest.approx(0.4, abs=1e-12)

    @pytest.mark.parametrize("p0", [0.05, 0.2, 0.4, 0.6, 0.95])
    @pytest.mark.parametrize("persistence", [0.0, 0.3, 0.6, 0.9])
    def test_a_world_idles_at_its_scenario_p0(self, p0, persistence):
        # the idle probability is declared once, as the scenario's p0; the
        # world's chain carries it as its stationary idle mass
        scenario = NetworkScenario(users=1, relays=1, bands=2, p0=p0, persistence=persistence)
        _, processes = build_episode_world(scenario, EpisodeConfig(slots=24), 0)
        assert processes.config.p0_idle == pytest.approx(p0, abs=1e-9)


def _process_set(matrix, bands=8, seed=0, max_slots=50):
    config = SpectrumProcessConfig(band_count=bands, ground_truth_matrix=matrix)
    return BandProcessSet(config, np.random.SeedSequence(seed), max_slots=max_slots)


class TestBandProcessSet:
    def test_replay_is_bitwise_identical(self):
        tm = derive_ground_truth_matrix(0.4, 0.6, 0.75)
        runs = [_process_set(tm, seed=42).trajectory() for _ in range(2)]
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_trajectory_matches_slot_by_slot_stepping(self):
        # reference: step each band slot by slot from its own child stream
        tm = derive_ground_truth_matrix(0.4, 0.6, 0.75)
        procs = _process_set(tm, bands=7, seed=5, max_slots=40)
        pi_cum = np.cumsum(stationary_distribution(tm))
        row_cum = np.cumsum(tm.probs, axis=1)
        for band, child in enumerate(np.random.SeedSequence(5).spawn(7)):
            u = np.random.default_rng(child).random(41)
            state = min(int(np.searchsorted(pi_cum, u[0], side="right")), 2)
            expected = [state]
            for t in range(1, 41):
                state = min(int((u[t] >= row_cum[state]).sum()), 2)
                expected.append(state)
            np.testing.assert_array_equal(procs.trajectory()[:, band], expected)
        stepped = np.stack([procs.advance() for _ in range(40)])
        np.testing.assert_array_equal(stepped, procs.trajectory()[1:])

    def test_band_substreams_are_independent(self):
        # adding bands never perturbs the existing trajectories
        tm = derive_ground_truth_matrix(0.4, 0.6, 0.75)
        small = _process_set(tm, bands=5, seed=9)
        large = _process_set(tm, bands=12, seed=9)
        np.testing.assert_array_equal(large.trajectory()[:, :5], small.trajectory())

    def test_deterministic_row_forces_transition(self):
        probs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        # stationary is all-Busy: from its first slot no band is ever idle
        procs = _process_set(TransitionMatrix(probs))
        assert procs.config.p0_idle == 0.0
        assert np.all(procs.trajectory() == SpectrumState.BUSY)

    def test_good_to_busy_certainty(self):
        probs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        tm = TransitionMatrix(probs)
        procs = _process_set(tm, bands=6, seed=3)
        before = procs.states.copy()
        after = procs.advance()
        flips = {SpectrumState.GOOD: SpectrumState.BUSY, SpectrumState.BUSY: SpectrumState.GOOD}
        for b, a in zip(before, after):
            assert flips[SpectrumState(int(b))] == a

    def test_long_run_idle_frequency(self):
        tm = derive_ground_truth_matrix(0.4, 0.6, 0.75)
        procs = _process_set(tm, bands=100, seed=17, max_slots=1000)
        idle = (procs.trajectory() != SpectrumState.BUSY).mean()
        assert abs(idle - 0.4) < 0.01

    def test_exhausts_after_max_slots(self):
        tm = derive_ground_truth_matrix(0.4, 0.6, 0.75)
        procs = _process_set(tm, max_slots=3)
        for _ in range(3):
            procs.advance()
        with pytest.raises(RuntimeError):
            procs.advance()


    @pytest.mark.parametrize("max_slots", [2.5, True, 0])
    def test_rejects_a_max_slots_that_is_not_a_positive_integer(self, max_slots):
        # 2.5 used to end in a numpy TypeError, True to build two slots
        tm = derive_ground_truth_matrix(0.4, 0.6, 0.75)
        message = rf"^max_slots must be an integer >= 1, got {max_slots}$"
        with pytest.raises(ValueError, match=message):
            _process_set(tm, max_slots=max_slots)


class TestSensing:
    def test_perfect_sensing_is_identity(self):
        truth = np.array([0, 1, 2, 1, 0], dtype=np.int8)
        np.testing.assert_array_equal(sense(truth), truth)

    def test_full_error_never_matches(self):
        truth = np.tile(np.array([0, 1, 2], dtype=np.int8), 50)
        sensed = sense(truth, 1.0, np.random.default_rng(0))
        assert not np.any(sensed == truth)
        assert np.all((sensed >= 0) & (sensed <= 2))

    def test_seeded_mismatch_count_frozen(self):
        truth = np.zeros(100, dtype=np.int8)
        sensed = sense(truth, 0.1, np.random.default_rng(3))
        assert int((sensed != truth).sum()) == 8

    def test_requires_rng_when_noisy(self):
        with pytest.raises(ValueError):
            sense(np.zeros(3, dtype=np.int8), 0.5)


class TestSensingSlotAxis:
    @pytest.mark.parametrize("bands", [8, 9])
    @pytest.mark.parametrize("err", [0.1, 1.0])
    def test_slots_sensed_at_once_equal_one_call_per_slot(self, bands, err):
        # an odd band count leaves half a 64-bit word of offset draws
        # over after each slot, which the next slot must pick up
        truth = np.random.default_rng(5).integers(0, 3, size=(12, bands)).astype(np.int8)
        at_once = sense(truth, err, np.random.default_rng(17))
        rng = np.random.default_rng(17)
        per_slot = np.stack([sense(states, err, rng) for states in truth])
        assert at_once.dtype == np.int8
        np.testing.assert_array_equal(at_once, per_slot)


class TestSensingDecoding:
    """`sense` decodes one raw-word draw; the oracle makes the public
    Generator calls slot by slot.  Both must leave equal states and an
    equal generator, spare 32-bit half included."""

    @staticmethod
    def _assert_same(truth, err, rng, oracle_rng):
        sensed = sense(truth, err, rng)
        expected = slotwise_sense(truth, err, oracle_rng)
        assert sensed.dtype == np.int8 and sensed.shape == truth.shape
        np.testing.assert_array_equal(sensed, expected)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("bands", [1, 2, 3, 7, 8, 99, 100, 101])
    @pytest.mark.parametrize("slots", [1, 2, 3, 100])
    def test_matches_slotwise_draws(self, bands, slots):
        truth = np.random.default_rng(bands).integers(0, 3, size=(slots, bands))
        truth = truth.astype(np.int8)
        for err in (0.1, 0.5, 1.0):
            for seed in range(5):
                rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                self._assert_same(truth, err, rng, oracle_rng)

    @pytest.mark.parametrize("bands", [1, 2, 7, 8])
    @pytest.mark.parametrize("shape", ["one_slot", "slots"])
    def test_generator_entering_with_a_spare_half(self, bands, shape):
        size = (bands,) if shape == "one_slot" else (5, bands)
        truth = np.random.default_rng(bands).integers(0, 3, size=size).astype(np.int8)
        rng, oracle_rng = np.random.default_rng(13), np.random.default_rng(13)
        for generator in (rng, oracle_rng):
            generator.integers(1, 3, size=1)
            assert generator.bit_generator.state["has_uint32"] == 1
        self._assert_same(truth, 0.5, rng, oracle_rng)

    def test_one_dimensional_input(self):
        truth = np.tile(np.array([0, 1, 2], dtype=np.int8), 11)
        self._assert_same(truth, 0.5, np.random.default_rng(2), np.random.default_rng(2))

    def test_other_bit_generators_are_refused_before_a_draw(self):
        rng = np.random.Generator(np.random.Philox(0))
        with pytest.raises(ValueError, match="Philox"):
            sense(np.zeros((4, 3), dtype=np.int8), 0.5, rng)
        assert rng.random() == np.random.Generator(np.random.Philox(0)).random()


class TestOccupancyProjection:
    def test_projection_matches_truth_under_perfect_sensing(self):
        tm = derive_ground_truth_matrix(0.4, 0.6, 0.75)
        procs = _process_set(tm, bands=50, seed=23)
        for _ in range(10):
            truth = procs.advance()
            busy = sense(truth) == SpectrumState.BUSY
            np.testing.assert_array_equal(busy, truth == SpectrumState.BUSY)


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(users=0, relays=1, coverage=np.zeros((1, 0), dtype=bool))
    with pytest.raises(ValueError):
        Topology(users=2, relays=2, coverage=np.zeros((3, 2), dtype=bool))
