"""Tests for the three-state Markov machinery."""

from bisect import bisect_right

import numpy as np
import pytest

from oracles import naive_pair_counts

from specagg.markov import (
    EstimationError,
    NonUniqueStationaryError,
    SpectrumState,
    TransitionMatrix,
    estimate_transition_matrix,
    estimate_transition_matrices,
    parse_observations,
    predict_next_states,
    stationary_distribution,
    wrap_states,
)

# The worked 20-slot observation example and its exact estimate.
EXAMPLE_STRING = "00010210000112010001"
EXAMPLE_MATRIX = np.array(
    [
        [7 / 12, 4 / 12, 1 / 12],
        [3 / 5, 1 / 5, 1 / 5],
        [1 / 2, 1 / 2, 0.0],
    ]
)


def sample_chain(probs, length, rng, start=0):
    # one bulk draw is the same stream as `length` scalar draws, and
    # bisect_right over a row's cumulative sums picks as searchsorted does
    cum = probs.cumsum(axis=1).tolist()
    seq = []
    state = start
    for u in rng.random(length).tolist():
        state = bisect_right(cum[state], u)
        seq.append(state)
    return np.array(seq, dtype=np.int64)


class TestSpectrumState:
    def test_encoding_is_fixed(self):
        assert SpectrumState.GOOD == 0
        assert SpectrumState.BAD == 1
        assert SpectrumState.BUSY == 2
        assert len(SpectrumState) == 3


class TestTransitionMatrix:
    def test_rejects_bad_rows(self):
        bad = np.full((3, 3), 0.4)
        with pytest.raises(ValueError):
            TransitionMatrix(bad)

    def test_rejects_negative(self):
        m = np.array([[1.2, -0.2, 0.0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError):
            TransitionMatrix(m)

    def test_immutable(self):
        tm = TransitionMatrix(np.eye(3))
        with pytest.raises(ValueError):
            tm.probs[0, 0] = 0.5


class TestEstimation:
    def test_worked_example_exact(self):
        obs = parse_observations(EXAMPLE_STRING)[0]
        tm = estimate_transition_matrix(obs)
        np.testing.assert_array_equal(tm.probs, EXAMPLE_MATRIX)

    def test_single_state_sequence_uses_fallback(self):
        tm = estimate_transition_matrix([0, 0, 0, 0])
        np.testing.assert_array_equal(tm.probs[0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(tm.probs[1], [1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_array_equal(tm.probs[2], [1 / 3, 1 / 3, 1 / 3])

    def test_matches_naive_counting_oracle(self):
        rng = np.random.default_rng(7)
        truth = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]])
        seq = sample_chain(truth, 300, rng)
        counts = naive_pair_counts(seq)
        expected = counts / counts.sum(axis=1, keepdims=True)
        tm = estimate_transition_matrix(seq)
        np.testing.assert_array_equal(tm.probs, expected)

    def test_too_short_sequences_raise(self):
        with pytest.raises(EstimationError):
            estimate_transition_matrix([])
        with pytest.raises(EstimationError):
            estimate_transition_matrix([1])

    def test_batch_estimation_matches_scalar(self):
        rng = np.random.default_rng(3)
        windows = rng.integers(0, 3, size=(25, 20))
        batch = estimate_transition_matrices(windows)
        for i, row in enumerate(windows):
            np.testing.assert_array_equal(
                batch[i], estimate_transition_matrix(row).probs
            )

    def test_batch_rows_are_count_ratios_of_each_band(self):
        # naive pair counting is the oracle, band by band; states never left
        # fall back to the uniform row
        rng = np.random.default_rng(4)
        windows = rng.integers(0, 3, size=(40, 6))
        windows[0] = [0, 0, 0, 0, 0, 1]
        batch = estimate_transition_matrices(windows)
        for band, row in enumerate(windows):
            counts = naive_pair_counts(row).astype(np.float64)
            totals = counts.sum(axis=1, keepdims=True)
            expected = np.where(totals > 0, counts / np.maximum(totals, 1.0), 1 / 3)
            np.testing.assert_array_equal(batch[band], expected)
        np.testing.assert_array_equal(batch[0, 1:], np.full((2, 3), 1 / 3))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_batch_rejects_unknown_state_codes(self, bad):
        windows = np.zeros((4, 5), dtype=np.int64)
        windows[2, 3] = bad
        with pytest.raises(ValueError, match="state codes"):
            estimate_transition_matrices(windows)

    def test_estimation_consistency(self):
        # entries converge on long sequences from a known chain
        rng = np.random.default_rng(11)
        truth = np.array([[0.7, 0.2, 0.1], [0.3, 0.4, 0.3], [0.1, 0.3, 0.6]])
        seq = sample_chain(truth, 100_000, rng)
        tm = estimate_transition_matrix(seq)
        assert np.abs(tm.probs - truth).max() < 0.05


class TestStationary:
    def test_identity_is_non_unique(self):
        with pytest.raises(NonUniqueStationaryError):
            stationary_distribution(TransitionMatrix(np.eye(3)))

    def test_doubly_stochastic_uniform(self):
        tm = TransitionMatrix(np.full((3, 3), 1 / 3))
        np.testing.assert_allclose(stationary_distribution(tm), [1 / 3] * 3, atol=1e-12)

    def test_worked_example_against_lstsq_oracle(self):
        tm = TransitionMatrix(EXAMPLE_MATRIX)
        pi = stationary_distribution(tm)
        a = np.vstack([EXAMPLE_MATRIX.T - np.eye(3), np.ones(3)])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        oracle, *_ = np.linalg.lstsq(a, b, rcond=None)
        np.testing.assert_allclose(pi, oracle, atol=1e-12)
        assert np.abs(pi @ EXAMPLE_MATRIX - pi).max() <= 1e-9

    def test_worked_example_against_long_run_frequencies(self):
        # one-million-step occupation frequencies, binomial 3-sigma bands
        tm = TransitionMatrix(EXAMPLE_MATRIX)
        pi = stationary_distribution(tm)
        rng = np.random.default_rng(2024)
        n = 1_000_000
        seq = sample_chain(EXAMPLE_MATRIX, n, rng)
        freq = np.bincount(seq, minlength=3) / n
        sigma = np.sqrt(pi * (1 - pi) / n)
        assert np.all(np.abs(freq - pi) <= 3 * sigma)

    def test_reducible_chain_with_unique_pi_still_solves(self):
        p = np.array([[1.0, 0.0, 0.0], [0.5, 0.25, 0.25], [0.2, 0.3, 0.5]])
        pi = stationary_distribution(TransitionMatrix(p))
        np.testing.assert_allclose(pi, [1.0, 0.0, 0.0], atol=1e-12)

    def test_stationary_is_fixed_point(self):
        pi = stationary_distribution(TransitionMatrix(EXAMPLE_MATRIX))
        np.testing.assert_allclose(pi @ EXAMPLE_MATRIX, pi, atol=1e-12)


# the transition counts of the worked example
EXAMPLE_COUNTS = np.array([[7, 4, 1], [3, 1, 1], [1, 1, 0]])


def batched(counts, states, pairs=2, nodes=3):
    """(bands, 3, 3) `counts` and (bands,) `states` stacked as `run_episode`
    passes them: (pairs, 1, bands, 3, 3) counts against (pairs, nodes,
    bands) states."""
    counts = np.broadcast_to(counts, (pairs, 1) + np.shape(counts))
    states = np.broadcast_to(states, (pairs, nodes) + np.shape(states))
    return counts, states


class TestPrediction:
    def test_row_maxima_of_worked_example(self):
        counts, states = batched(np.stack([EXAMPLE_COUNTS] * 2), [0, 1])
        assert np.all(predict_next_states(counts, states) == SpectrumState.GOOD)

    def test_tie_breaks_toward_good(self):
        # Busy row of the worked example ties 1/2 vs 1/2; Good wins
        for table in (EXAMPLE_COUNTS, EXAMPLE_MATRIX):
            counts, states = batched(np.stack([table] * 4), [SpectrumState.BUSY] * 4)
            predicted = predict_next_states(counts, states)
            assert predicted.shape == (2, 3, 4) and predicted.dtype == np.int8
            assert np.all(predicted == SpectrumState.GOOD)

    def test_ties_break_toward_the_lowest_state(self):
        # Bad > Busy where Good is out of the tie, on every band at once
        rows = np.array([[1, 1, 1], [0, 2, 2], [3, 1, 3], [0, 0, 0]])
        counts, states = batched(np.broadcast_to(rows[:, None], (4, 3, 3)), [0, 1, 2, 0])
        assert np.all(predict_next_states(counts, states) == [0, 1, 0, 0])

    def test_degenerate_row(self):
        p = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 0, 1.0]])
        counts, states = batched(p[None], [SpectrumState.BAD])
        assert np.all(predict_next_states(counts, states) == SpectrumState.BUSY)

    def test_a_lone_matrix_and_state_give_one_state(self):
        for state in SpectrumState:
            predicted = predict_next_states(EXAMPLE_MATRIX, state)
            assert predicted.shape == () and predicted == EXAMPLE_MATRIX[state].argmax()

    def test_count_scale_invariance(self):
        # argmax is invariant to scaling a row's count table
        rng = np.random.default_rng(9)
        counts = rng.integers(1, 30, size=(2, 1, 50, 3, 3))
        states = rng.integers(0, 3, size=(2, 3, 50))
        base = predict_next_states(counts / counts.sum(axis=-1, keepdims=True), states)
        np.testing.assert_array_equal(predict_next_states(counts, states), base)
        for scale in (2, 10):
            scaled = counts * scale
            probs = scaled / scaled.sum(axis=-1, keepdims=True)
            np.testing.assert_array_equal(predict_next_states(probs, states), base)

    def test_vectorised_matches_row_argmax(self):
        rng = np.random.default_rng(2)
        batch = rng.dirichlet(np.ones(3), size=(40, 3))
        current = rng.integers(0, 3, size=40).astype(np.int8)
        preds = predict_next_states(batch, current)
        for i in range(40):
            assert preds[i] == np.argmax(batch[i, current[i]])


class TestObservationIO:
    def test_parse_worked_string(self):
        seqs = parse_observations(EXAMPLE_STRING)
        assert len(seqs) == 1
        assert seqs[0].shape == (20,)
        assert seqs[0][3] == 1 and seqs[0][5] == 2

    def test_file_round_trip(self):
        # the text of an observation file: two sequences and a blank line
        seqs = parse_observations(f"{EXAMPLE_STRING}\n\n0120\n")
        assert len(seqs) == 2
        np.testing.assert_array_equal(seqs[1], [0, 1, 2, 0])

    def test_rejects_foreign_digits(self):
        with pytest.raises(ValueError):
            parse_observations("0123")


def test_estimation_preserves_row_stochasticity():
    rng = np.random.default_rng(21)
    for _ in range(100):
        seq = rng.integers(0, 3, size=rng.integers(2, 40))
        tm = estimate_transition_matrix(seq)
        np.testing.assert_allclose(tm.probs.sum(axis=1), 1.0, atol=1e-12)


def test_wrap_states_is_the_int8_modulo_in_place():
    # every state plus every sensing offset, over an odd-shaped block
    codes = np.add.outer(np.arange(3), np.arange(3)).astype(np.int8).repeat(7, axis=0)
    expected = codes % 3
    wrapped = wrap_states(codes)
    assert wrapped is codes and wrapped.dtype == np.int8
    np.testing.assert_array_equal(wrapped, expected)
