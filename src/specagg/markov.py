"""Three-state Markov machinery for spectrum band dynamics.

A band is always in one of three conditions: Good (idle, channel quality
supports transmission), Bad (idle, quality too poor) or Busy (licensed
user active).  This module provides the state alphabet, transition-matrix
estimation from observed state sequences, stationary distributions, and
single-slot state prediction.

All operations are pure functions of their inputs; the value types are
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

N_STATES = 3

ROW_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-9
SINGULARITY_RCOND = 1e-10


class EstimationError(ValueError):
    """Raised when a state sequence is too short to estimate transitions."""


class NonUniqueStationaryError(ValueError):
    """Raised when a chain has no unique stationary distribution."""


class SpectrumState(IntEnum):
    """Band condition codes.  Idle states (Good, Bad) are contiguous."""

    GOOD = 0
    BAD = 1
    BUSY = 2


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic 3x3 matrix over (Good, Bad, Busy).

    Entry ``probs[i, j]`` is the probability of moving from state ``i``
    to state ``j`` in one slot.  Rows must sum to 1 within 1e-12 and every
    entry must lie in [0, 1]; violations raise ``ValueError`` at
    construction.  The wrapped array is made read-only.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (N_STATES, N_STATES):
            raise ValueError(f"transition matrix must be 3x3, got {p.shape}")
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("transition probabilities must lie in [0, 1]")
        row_sums = p.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            raise ValueError(f"rows must sum to 1, got {row_sums}")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def __eq__(self, other):
        if isinstance(other, TransitionMatrix):
            return np.array_equal(self.probs, other.probs)
        return NotImplemented


def estimate_transition_matrix(states: np.ndarray) -> TransitionMatrix:
    """Estimate a transition matrix from one observed state sequence.

    Each entry is the exact count ratio count(i -> j) / count(i -> *),
    as `estimate_transition_matrices` computes it.  States with no
    outgoing observations get the uniform row (1/3 each), which keeps
    the matrix row-stochastic without injecting prior structure.

    Raises:
        EstimationError: from `estimate_transition_matrices`, if `states`
            is not one sequence of at least two states (no transition to
            count).
    """
    return TransitionMatrix(estimate_transition_matrices(np.asarray(states)[None])[0])


def estimate_transition_matrices(windows: np.ndarray) -> np.ndarray:
    """Batch transition-matrix estimation, one row of `windows` per band.

    Counts every (bands, window_length) row's one-step transitions and
    returns raw (bands, 3, 3) probabilities count(i -> j) / count(i -> *),
    with the uniform fallback for rows of states never left.
    """
    windows = np.asarray(windows, dtype=np.int64)
    if windows.ndim != 2 or windows.shape[1] < 2:
        raise EstimationError(f"windows must be (bands, length>=2), got shape {windows.shape}")
    if np.any((windows < 0) | (windows >= N_STATES)):
        raise ValueError("state codes must be 0, 1 or 2")
    # the one window of every band, counted as the engine counts its windows
    counts = window_transition_counts(windows.T, windows.shape[1])[0]
    totals = counts.sum(axis=2, keepdims=True)
    return np.divide(counts, totals, out=np.full(counts.shape, 1.0 / N_STATES), where=totals > 0)


def stationary_distribution(matrix: TransitionMatrix) -> np.ndarray:
    """Solve for the stationary distribution pi with pi P = pi, sum(pi) = 1.

    The underdetermined balance system is closed by replacing its last
    equation with the normalisation constraint.  A chain whose closed
    system is singular (reciprocal condition number below 1e-10) has no
    unique stationary distribution and raises
    ``NonUniqueStationaryError``.
    """
    p = matrix.probs
    a = p.T - np.eye(N_STATES)
    a[-1, :] = 1.0
    b = np.zeros(N_STATES)
    b[-1] = 1.0

    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or 1.0 / cond < SINGULARITY_RCOND:
        raise NonUniqueStationaryError(
            "stationary distribution is not unique (singular balance system)"
        )
    pi = np.linalg.solve(a, b)
    pi = np.clip(pi, 0.0, 1.0)
    pi = pi / pi.sum()
    residual = np.abs(pi @ p - pi).max()
    if residual > STATIONARY_RESIDUAL_TOL:
        raise NonUniqueStationaryError(
            f"stationary solve residual {residual:.3e} exceeds {STATIONARY_RESIDUAL_TOL}"
        )
    return pi


def window_transition_counts(history: np.ndarray, window: int) -> np.ndarray:
    """Transition counts of every sliding window of a state history at once.

    `history` is (slots, bands).  Entry k of the (slots - window + 1,
    bands, 3, 3) result holds, per band, the one-step transition counts
    of ``history[k : k + window]``: entry (i, j) counts the adjacent
    pairs (i, j).  Window 0 is counted pair by pair; each later window
    adds the pair it gains and takes off the pair it loses, in one running
    sum, so the cost does not grow with the window length.
    """
    # pair codes 0-8 fit in int8
    history = np.asarray(history, dtype=np.int8)
    slots, n_bands = history.shape
    if not 2 <= window <= slots:
        raise EstimationError(f"window must lie in [2, {slots}], got {window}")
    pair_codes = history[:-1] * N_STATES + history[1:]
    one_hot = (pair_codes[..., None] == np.arange(N_STATES**2, dtype=np.int8)).view(np.int8)
    # the narrowest signed integer type holding a count of window - 1 (a lost pair is -1)
    counts = np.empty((slots - window + 1, n_bands, N_STATES**2), np.min_scalar_type(-window))
    one_hot[: window - 1].sum(axis=0, out=counts[0])
    np.subtract(one_hot[window - 1 :], one_hot[: slots - window], out=counts[1:])
    np.cumsum(counts, axis=0, out=counts)
    return counts.reshape(-1, n_bands, N_STATES, N_STATES)


def predict_next_states(prob_batch: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Most likely next states: each band's row argmax for its current state.

    `prob_batch` is (..., bands, 3, 3) and `current` is (..., bands);
    leading axes broadcast against each other, and a lone (3, 3) matrix
    with a scalar state gives a 0-d prediction.  Ties in the row maximum
    break by fixed priority Good > Bad > Busy, which is the index order,
    so the first argmax wins.  Integer transition counts predict exactly
    as the probabilities estimated from them, because every row is one
    count vector over a positive total (an unseen row is all zeros, as
    its uniform fallback is all equal).
    """
    best_next = np.asarray(prob_batch).argmax(axis=-1)  # (..., bands, 3)
    current = np.asarray(current, dtype=np.intp)[..., None]
    return np.take_along_axis(best_next, current, axis=-1)[..., 0].astype(np.int8)


def wrap_states(codes: np.ndarray) -> np.ndarray:
    """``codes % N_STATES`` in place, for int8 `codes` in [0, 2 * N_STATES).

    A state plus a sensing offset stays below 2 * N_STATES, so one int8
    subtraction where a code reaches N_STATES wraps it, at a fraction of
    the cost of the int8 modulo.  Returns `codes`.
    """
    codes -= (codes >= N_STATES).view(np.int8) * N_STATES
    return codes


def parse_observations(text: str) -> list[np.ndarray]:
    """Parse observation sequences from digit-string lines.

    One sequence per line, digits 0/1/2 with no separators, e.g. a line
    ``00010210000112010001`` parses to a 20-slot state array.  Blank
    lines are skipped.
    """
    sequences = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if not set(line) <= {"0", "1", "2"}:
            raise ValueError(f"line {line_no}: expected only digits 0/1/2, got {line!r}")
        sequences.append(np.array([int(c) for c in line], dtype=np.int8))
    return sequences
