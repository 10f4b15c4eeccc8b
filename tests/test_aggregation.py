"""Tests for the four-step aggregation engine against brute-force oracles."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import exhaustive_best_assignment

from specagg.aggregation import (
    UNASSIGNED,
    aggregate_and_score,
    allocate_spectrum,
    assign_relays,
    common_free_spectrum,
    prediction_bits,
    two_slot_availability,
)
from specagg.markov import SpectrumState
from specagg.radio import RadioParams
from specagg.topology import Topology

GOOD, BAD, BUSY = SpectrumState.GOOD, SpectrumState.BAD, SpectrumState.BUSY


def topo(coverage):
    coverage = np.asarray(coverage, dtype=bool)
    return Topology(users=coverage.shape[1], relays=coverage.shape[0], coverage=coverage)


def random_instance(rng, n_bands=None, n_relays=None, n_users=None):
    n_bands = n_bands or rng.integers(1, 7)
    n_relays = n_relays or rng.integers(1, 5)
    n_users = n_users or rng.integers(1, 4)
    owner = rng.integers(-1, n_users, size=n_relays)
    common_user = rng.integers(-1, n_users, size=n_bands)
    bits = rng.integers(0, 2, size=(n_relays, n_bands)).astype(np.int8)
    snr = rng.uniform(0.1, 50.0, size=(n_bands, n_relays))
    return n_users, owner, common_user, bits, snr


class TestAvailabilityHelpers:
    def test_two_slot_rule(self):
        sensed = np.array([GOOD, BAD, BUSY, GOOD])
        predicted = np.array([GOOD, BUSY, GOOD, BAD])
        np.testing.assert_array_equal(
            two_slot_availability(sensed, predicted), [True, False, False, True]
        )

    def test_bits_free_only_when_predicted_good(self):
        predicted = np.array([GOOD, BAD, BUSY])
        np.testing.assert_array_equal(prediction_bits(predicted), [0, 1, 1])


class TestAssignRelays:
    def test_single_pair_relay_joins_it(self):
        topology = topo([[False, False, True]])
        owner = assign_relays(topology, np.array([[1.0, 1.0, 1.0]]))
        assert owner[0] == 2

    def test_uncovered_relay_dropped(self):
        topology = topo([[False, False]])
        owner = assign_relays(topology, np.zeros((1, 2)))
        assert owner[0] == UNASSIGNED

    def test_multi_coverage_takes_best_throughput(self):
        topology = topo([[True, True]])
        owner = assign_relays(topology, np.array([[5e6, 7e6]]))
        assert owner[0] == 1

    def test_two_way_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            rates = rng.uniform(1.0, 10.0, size=(1, 2))
            topology = topo([[True, True]])
            owner = assign_relays(topology, rates)
            best = 0 if rates[0, 0] >= rates[0, 1] else 1
            assert owner[0] == best

    def test_tie_breaks_to_lowest_user(self):
        topology = topo([[True, True, True]])
        owner = assign_relays(topology, np.array([[3.0, 3.0, 3.0]]))
        assert owner[0] == 0

    def test_partition_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            coverage = rng.random((6, 3)) < 0.5
            topology = topo(coverage)
            rates = rng.uniform(0, 1, size=(6, 3))
            owner = assign_relays(topology, rates)
            # each relay has one owner, or is dropped when it covers no pair
            assert owner.shape == (6,)
            np.testing.assert_array_equal(
                owner == UNASSIGNED, ~coverage.any(axis=1)
            )
            # an assigned relay always covers its pair
            for relay, user in enumerate(owner):
                if user >= 0:
                    assert coverage[relay, user]


class TestCommonFreeSpectrum:
    def test_band_free_for_single_user_joins_it(self):
        owner = np.array([0, 1])
        source_avail = np.array([[True], [False]])
        relay_avail = np.array([[True], [True]])
        snr = np.array([[1.0, 9.0]])
        band_user = common_free_spectrum(owner, 2, source_avail, relay_avail, snr)
        assert band_user[0] == 0

    def test_band_busy_everywhere_dropped(self):
        owner = np.array([0, 1])
        source_avail = np.array([[True], [True]])
        relay_avail = np.array([[False], [False]])
        snr = np.array([[1.0, 9.0]])
        band_user = common_free_spectrum(owner, 2, source_avail, relay_avail, snr)
        assert band_user[0] == UNASSIGNED

    def test_contested_band_goes_to_owner_of_best_relay(self):
        owner = np.array([0, 1])
        source_avail = np.array([[True], [True]])
        relay_avail = np.array([[True], [True]])
        snr = np.array([[1.0, 9.0]])  # relay 1 (user 1) is globally best
        band_user = common_free_spectrum(owner, 2, source_avail, relay_avail, snr)
        assert band_user[0] == 1

    def test_winner_outside_any_set_drops_band(self):
        # the strongest free relay is unowned: the band is dropped, not
        # reassigned to the runner-up
        owner = np.array([0, 1, UNASSIGNED])
        source_avail = np.array([[True], [True]])
        relay_avail = np.array([[True], [True], [True]])
        snr = np.array([[1.0, 2.0, 50.0]])
        band_user = common_free_spectrum(owner, 2, source_avail, relay_avail, snr)
        assert band_user[0] == UNASSIGNED

    def test_many_free_relays_of_one_user_keep_the_band(self):
        # 256 free relays of one user must not wrap a narrow per-user count
        relays = 256
        owner = np.zeros(relays, dtype=np.int64)
        source_avail = np.array([[True, True]])
        relay_avail = np.zeros((relays, 2), dtype=bool)
        relay_avail[:, 0] = True
        relay_avail[0, 1] = True
        snr = np.ones((2, relays))
        band_user = common_free_spectrum(owner, 1, source_avail, relay_avail, snr)
        np.testing.assert_array_equal(band_user, [0, 0])

    def test_exhaustive_candidate_scan(self):
        # replicate the selection rule with plain loops over all
        # (user, relay) candidates and compare band by band
        rng = np.random.default_rng(8)
        for _ in range(300):
            n_users = int(rng.integers(1, 4))
            n_relays = int(rng.integers(1, 6))
            n_bands = int(rng.integers(1, 8))
            owner = rng.integers(-1, n_users, size=n_relays)
            source_avail = rng.random((n_users, n_bands)) < 0.7
            relay_avail = rng.random((n_relays, n_bands)) < 0.7
            snr = rng.uniform(0.1, 20.0, size=(n_bands, n_relays))

            expected = candidate_scan(owner, n_users, source_avail, relay_avail, snr)
            band_user = common_free_spectrum(owner, n_users, source_avail, relay_avail, snr)
            np.testing.assert_array_equal(band_user, expected)


def candidate_scan(owner, n_users, source_avail, relay_avail, snr):
    """Step 2's selection rule in plain loops over all (user, relay) candidates."""
    n_bands, n_relays = snr.shape
    expected = np.full(n_bands, UNASSIGNED)
    for band in range(n_bands):
        candidates = [
            user
            for user in range(n_users)
            if source_avail[user, band]
            and any(owner[r] == user and relay_avail[r, band] for r in range(n_relays))
        ]
        if not candidates:
            continue
        if len(candidates) == 1:
            expected[band] = candidates[0]
            continue
        free = [r for r in range(n_relays) if relay_avail[r, band]]
        winner = max(free, key=lambda r: (snr[band, r], -r))
        if owner[winner] in candidates:
            expected[band] = owner[winner]
    return expected


class TestAllocateSpectrum:
    def test_single_relay_single_band(self):
        owner = np.array([0])
        common_user = np.array([0])
        bits = np.zeros((1, 1), dtype=np.int8)
        snr = np.array([[4.0]])
        band_relay, band_snr = allocate_spectrum(common_user, owner, bits, snr)
        assert band_relay[0] == 0
        assert band_snr.sum() == 4.0

    def test_fully_occupied_prediction_unallocates(self):
        owner = np.array([0, 0])
        common_user = np.array([0])
        bits = np.ones((2, 1), dtype=np.int8)
        snr = np.array([[4.0, 8.0]])
        band_relay, band_snr = allocate_spectrum(common_user, owner, bits, snr)
        assert band_relay[0] == UNASSIGNED
        assert band_snr.sum() == 0.0
        total_bps, _ = aggregate_and_score(common_user, band_snr, 1, RadioParams())
        assert total_bps == 0.0

    def test_matches_exhaustive_oracle_on_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            n_users, owner, common_user, bits, snr = random_instance(rng)
            band_relay, band_snr = allocate_spectrum(common_user, owner, bits, snr)
            best, chosen = exhaustive_best_assignment(common_user, owner, bits, snr)
            assert band_snr.sum() == pytest.approx(best, rel=1e-12, abs=1e-12)
            # with continuous SNRs the maximiser is unique a.s.
            np.testing.assert_array_equal(band_relay, chosen)

    def test_tie_breaks_to_lowest_relay(self):
        owner = np.array([0, 0, 0])
        bits = np.zeros((3, 1), dtype=np.int8)
        snr = np.array([[7.0, 7.0, 7.0]])
        band_relay, _ = allocate_spectrum(np.array([0]), owner, bits, snr)
        assert band_relay[0] == 0


class TestSharedBestRelay:
    """Steps 2-3 given each band's best relay of all, as a decision pass
    shares it, re-rank only the bands whose mask excludes it."""

    @staticmethod
    def instance(rng, snr_kind, n_users, pairs=3):
        """`pairs` random (users, relays, bands) instances of one shape:
        owners, masks with a relay axis of 1 or per relay, per-relay hops
        and per-band gains, and each band's best relay of all."""
        n_relays, n_bands = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        owner = rng.integers(-1, n_users, size=(pairs, n_relays))
        source = rng.random((pairs, n_users, n_bands)) < 0.8
        relay_axis = n_relays if rng.random() < 0.5 else 1
        relay_free = rng.random((pairs, relay_axis, n_bands)) < 0.7
        bits_axis = n_relays if rng.random() < 0.5 else 1
        bits = (rng.random((pairs, bits_axis, n_bands)) < 0.4).astype(np.int8)
        if snr_kind == "continuous":
            hop = rng.uniform(0.1, 2.0, size=(pairs, n_relays))
            gains = rng.exponential(size=(pairs, n_bands, n_relays))
        else:
            # small integers force ties, which go to the lowest relay index
            hop = rng.integers(1, 3, size=(pairs, n_relays)).astype(np.float64)
            gains = rng.integers(0, 3, size=(pairs, n_bands, n_relays)).astype(np.float64)
        if snr_kind == "zero-owned":
            # a decision pass gives an unowned relay hop 0; here some owned
            # relays have SNR exactly 0 too, so the best relay of a band
            # whose SNRs are all 0 is its lowest relay, owned or not
            hop[(owner < 0) | (rng.random(owner.shape) < 0.5)] = 0.0
        best = (hop[:, None, :] * gains).argmax(axis=-1)
        return owner, source, relay_free, bits, hop, gains, best

    @pytest.mark.parametrize("snr_kind", ["continuous", "integer", "zero-owned"])
    @pytest.mark.parametrize("n_users", [1, 3])
    def test_given_best_relay_steps_two_and_three_equal_the_oracles(self, snr_kind, n_users):
        rng = np.random.default_rng([41, n_users, len(snr_kind)])
        for _ in range(150):
            owner, source, relay_free, bits, hop, gains, best = self.instance(
                rng, snr_kind, n_users
            )
            snr = hop[:, None, :] * gains
            band_user = common_free_spectrum(owner, n_users, source, relay_free, gains, hop, best)
            band_relay, band_gain = allocate_spectrum(band_user, owner, bits, gains, hop, best)
            # step 3's second output is each winner's entry of `gains`, 0 where
            # the band is unallocated; the winner's hop times it is its SNR
            winner = np.maximum(band_relay, 0)
            at_winner = np.take_along_axis(gains, winner[..., None], axis=-1)[..., 0]
            np.testing.assert_array_equal(band_gain, np.where(band_relay >= 0, at_winner, 0.0))
            band_snr = np.take_along_axis(hop, winner, axis=-1) * band_gain
            # the same as given the full SNRs alone, whose best relays the steps rank
            np.testing.assert_array_equal(
                band_user, common_free_spectrum(owner, n_users, source, relay_free, snr)
            )
            ranked = allocate_spectrum(band_user, owner, bits, snr)
            np.testing.assert_array_equal(band_relay, ranked[0])
            np.testing.assert_array_equal(band_snr, ranked[1])
            for k in range(len(owner)):
                every_relay = (len(owner[k]), gains.shape[1])
                expected = candidate_scan(
                    owner[k], n_users, source[k],
                    np.broadcast_to(relay_free[k], every_relay), snr[k],
                )
                np.testing.assert_array_equal(band_user[k], expected)
                every_bit = np.broadcast_to(bits[k], every_relay)
                total, chosen = exhaustive_best_assignment(
                    band_user[k], owner[k], every_bit, snr[k]
                )
                # step 3 band by band: the user's best predicted-free relay, even at SNR 0
                for band, user in enumerate(band_user[k]):
                    eligible = [r for r in range(len(owner[k]))
                                if user >= 0 and owner[k, r] == user and every_bit[r, band] == 0]
                    best_eligible = max(eligible, key=lambda r: (snr[k, band, r], -r), default=-1)
                    assert band_relay[k, band] == best_eligible
                assert band_snr[k].sum() == pytest.approx(total, rel=1e-12, abs=1e-12)
                # the oracle lists "unallocated" first, so it leaves a band
                # whose best eligible SNR is 0 unallocated where step 3 takes
                # that relay; among equal SNRs both take the lowest relay
                kept = band_snr[k] > 0
                np.testing.assert_array_equal(band_relay[k][kept], np.array(chosen)[kept])
                assert np.all(band_snr[k][band_relay[k] != np.array(chosen)] == 0.0)


# few distinct values, so SNR ties exercise the tie-breaking
SCORES = st.sampled_from([0.0, 1.0, 2.0])


@st.composite
def shared_view_instances(draw):
    """Steps 2-3 inputs whose source, relay and bit masks have a node axis of
    1: owners with -1 and users without a relay, small-integer SNRs with ties
    and all-zero bands under a unit hop, or unit gains under small-integer
    hops, and each band's best relay given or None.  Two or more relays make
    the same masks copied out per node take the general path."""
    pairs, users, relays, bands = (draw(st.integers(low, high))
                                   for low, high in ((1, 3), (1, 3), (2, 5), (1, 6)))
    owner = draw(arrays(np.int64, (pairs, relays), elements=st.integers(-1, users - 1)))
    source, relay_free = (draw(arrays(np.bool_, (pairs, 1, bands))) for _ in range(2))
    bits = draw(arrays(np.int8, (pairs, 1, bands), elements=st.integers(0, 1)))
    if draw(st.booleans()):
        gains = draw(arrays(np.float64, (pairs, bands, relays), elements=SCORES))
        gains[draw(arrays(np.bool_, (pairs, bands)))] = 0.0
        hop = np.ones((pairs, relays))
    else:
        gains = np.ones((pairs, bands, relays))
        hop = draw(arrays(np.float64, (pairs, relays), elements=SCORES))
    best = (hop[:, None, :] * gains).argmax(axis=-1) if draw(st.booleans()) else None
    band_user = draw(arrays(np.int64, (pairs, bands), elements=st.integers(-1, users - 1)))
    return users, owner, source, relay_free, bits, gains, hop, best, band_user


@settings(max_examples=300, deadline=None)
@given(shared_view_instances())
def test_a_shared_view_decides_as_the_same_masks_per_node(case):
    # steps 2-3 in closed form on one view equal the general path given
    # that view copied out to every user and relay, dtypes included
    users, owner, source, relay_free, bits, gains, hop, best, band_user = case
    pairs, bands, relays = gains.shape

    def per_node(mask, nodes):
        return np.broadcast_to(mask, (pairs, nodes, bands)).copy()

    band_user_shared = common_free_spectrum(owner, users, source, relay_free, gains, hop, best)
    band_user_per_node = common_free_spectrum(
        owner, users, per_node(source, users), per_node(relay_free, relays), gains, hop, best)
    assert band_user_shared.dtype == band_user_per_node.dtype
    np.testing.assert_array_equal(band_user_shared, band_user_per_node)
    # step 3 of step 2's users, and of any users, also users without a relay
    for users_of_bands in (band_user_shared, band_user):
        shared = allocate_spectrum(users_of_bands, owner, bits, gains, hop, best)
        every_relay = allocate_spectrum(
            users_of_bands, owner, per_node(bits, relays), gains, hop, best)
        for got, expected in zip(shared, every_relay):
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)


class TestAggregateAndScore:
    def test_empty_allocation(self):
        common_user = np.array([UNASSIGNED, UNASSIGNED])
        _, band_snr = allocate_spectrum(
            common_user, np.array([0, 1]), np.zeros((2, 2), dtype=np.int8), np.ones((2, 2))
        )
        total_bps, user_bps = aggregate_and_score(common_user, band_snr, 2, RadioParams())
        assert total_bps == 0.0
        np.testing.assert_array_equal(user_bps, [0.0, 0.0])

    def test_snr_one_band_at_2mhz(self):
        total_bps, _ = _score_two_band_case(snrs=[1.0], params=RadioParams(band_width_hz=2e6))
        assert total_bps == 2e6

    def test_two_band_sum(self):
        total_bps, _ = _score_two_band_case(
            snrs=[1.0, 3.0], params=RadioParams(band_width_hz=2e6)
        )
        assert total_bps == 6e6  # 2 Mb/s + 4 Mb/s

    def test_per_band_sum_oracle(self):
        rng = np.random.default_rng(77)
        params = RadioParams()
        for _ in range(100):
            n_users, owner, common_user, bits, snr = random_instance(rng)
            band_relay, band_snr = allocate_spectrum(common_user, owner, bits, snr)
            total_bps, user_bps = aggregate_and_score(common_user, band_snr, n_users, params)
            expected = sum(
                params.band_width_hz * np.log2(1.0 + band_snr[band])
                for band in range(len(common_user))
                if band_relay[band] >= 0
            )
            assert total_bps == pytest.approx(expected, rel=1e-12)
            assert user_bps.sum() == pytest.approx(total_bps, rel=1e-9)


class TestEngineInvariants:
    def test_aggregation_dominates_any_single_band(self):
        rng = np.random.default_rng(31)
        params = RadioParams()
        for _ in range(100):
            n_users, owner, common_user, bits, snr = random_instance(rng)
            band_relay, band_snr = allocate_spectrum(common_user, owner, bits, snr)
            total_bps, _ = aggregate_and_score(common_user, band_snr, n_users, params)
            for band in np.flatnonzero(band_relay >= 0):
                single = params.band_width_hz * np.log2(1.0 + band_snr[band])
                assert total_bps >= single - 1e-9

    def test_freeing_a_bit_never_hurts(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n_users, owner, common_user, bits, snr = random_instance(rng)
            _, base_snr = allocate_spectrum(common_user, owner, bits, snr)
            ones = np.argwhere(bits == 1)
            if ones.size == 0:
                continue
            relay, band = ones[rng.integers(len(ones))]
            flipped = bits.copy()
            flipped[relay, band] = 0
            _, better_snr = allocate_spectrum(common_user, owner, flipped, snr)
            assert better_snr.sum() >= base_snr.sum() - 1e-12

    def test_determinism_byte_for_byte(self):
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        results = []
        for rng in (rng_a, rng_b):
            n_users, owner, common_user, bits, snr = random_instance(rng)
            band_relay, band_snr = allocate_spectrum(common_user, owner, bits, snr)
            scored = aggregate_and_score(common_user, band_snr, n_users, RadioParams())
            results.append(pickle.dumps((band_relay, band_snr, scored)))
        assert results[0] == results[1]


def _score_two_band_case(snrs, params):
    n = len(snrs)
    common_user = np.zeros(n, dtype=np.int64)
    _, band_snr = allocate_spectrum(
        common_user, np.array([0]), np.zeros((1, n), dtype=np.int8), np.array(snrs)[:, None]
    )
    return aggregate_and_score(common_user, band_snr, 1, params)
