"""Node population, relay coverage, and per-band ground-truth state processes.

The network holds T source-destination pairs and Rr candidate relays.
Coverage is a Bernoulli incidence relation: each relay is independently
in range of each pair.  Every spectrum band evolves as an independent
copy of one three-state Markov chain whose stationary idle mass equals
the configured idle probability.  A node's noisy sensing is drawn as
offsets past the truth, so it holds no truth itself.

Each band owns its own random substream, so adding a band never perturbs
another band's trajectory and trajectories replay bit-exactly per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import (
    N_STATES,
    SpectrumState,
    TransitionMatrix,
    stationary_distribution,
)
from .params import EpisodeConfig, NetworkScenario, is_integer, require
from .seeds import spawn_rngs


@dataclass(frozen=True)
class Topology:
    """Immutable node population with relay->pair coverage incidence.

    ``coverage[r, i]`` is True when relay ``r`` is in range of both ends
    of user pair ``i``.
    """

    users: int
    relays: int
    coverage: np.ndarray

    def __post_init__(self):
        require(NetworkScenario, "users", self.users)
        require(NetworkScenario, "relays", self.relays)
        cov = np.asarray(self.coverage, dtype=bool)
        if cov.shape != (self.relays, self.users):
            raise ValueError(
                f"coverage must be ({self.relays}, {self.users}), got {cov.shape}"
            )
        cov = cov.copy()
        cov.flags.writeable = False
        object.__setattr__(self, "coverage", cov)

    def restrict_to_user(self, user: int = 0) -> "Topology":
        """Single-pair view of this topology (same relays, one column)."""
        return Topology(users=1, relays=self.relays, coverage=self.coverage[:, [user]])


def build_topology(
    users: int, relays: int, coverage_probability: float, rng: np.random.Generator
) -> Topology:
    """Draw a Bernoulli coverage incidence, one row per relay.

    Each relay is in range of each pair independently with
    `coverage_probability`; rows are drawn relay after relay, in one
    call, so a larger relay population extends, rather than reshuffles,
    a smaller one drawn from the same stream.
    """
    require(NetworkScenario, "coverage_probability", coverage_probability)
    coverage = rng.random((relays, users)) < coverage_probability
    return Topology(users=users, relays=relays, coverage=coverage)


def derive_ground_truth_matrix(
    p0: float, persistence: float, good_fraction: float
) -> TransitionMatrix:
    """Build a chain whose stationary idle mass is exactly `p0`.

    The chain is the lazy reversible form

        P = persistence * I + (1 - persistence) * ones @ pi

    with pi = (p0*good_fraction, p0*(1-good_fraction), 1-p0), so its
    stationary distribution is pi itself and the idle states carry mass
    p0 by construction.  `persistence` is the probability of
    freezing in place for one slot; 0 gives i.i.d. slots.
    """
    require(NetworkScenario, "p0", p0)
    require(NetworkScenario, "persistence", persistence)
    require(NetworkScenario, "good_fraction", good_fraction)
    pi = np.array([p0 * good_fraction, p0 * (1.0 - good_fraction), 1.0 - p0])
    probs = persistence * np.eye(N_STATES) + (1.0 - persistence) * np.ones(
        (N_STATES, 1)
    ) * pi
    return TransitionMatrix(probs)


@dataclass(frozen=True)
class SpectrumProcessConfig:
    """Shape of the per-band ground-truth process: its band count, checked
    as `NetworkScenario.bands`, and the chain every band follows."""

    band_count: int
    ground_truth_matrix: TransitionMatrix

    def __post_init__(self):
        require(NetworkScenario, "bands", self.band_count)

    @property
    def p0_idle(self) -> float:
        """The chain's stationary idle mass, Good + Bad: the scenario's `p0`
        for a chain from `derive_ground_truth_matrix`."""
        pi = stationary_distribution(self.ground_truth_matrix)
        return float(pi[SpectrumState.GOOD] + pi[SpectrumState.BAD])


class BandProcessSet:
    """Ground-truth Markov trajectories for every band.

    Initial states are drawn from the chain's stationary distribution
    (the network is observed in steady state).  Each band consumes
    uniforms from its own child stream of `seed_seq`; the whole
    trajectory is therefore fixed by the seed alone, regardless of how
    the set is advanced or how many *other* bands exist.

    The full `max_slots + 1` slot trajectory is realised at
    construction from pre-drawn uniforms, so trajectories are stable
    prefixes when `max_slots` grows.  `advance` walks a cursor along
    it; `trajectory` hands all of it out at once.
    """

    def __init__(
        self,
        config: SpectrumProcessConfig,
        seed_seq: np.random.SeedSequence,
        max_slots: int,
    ):
        if not (is_integer(max_slots) and max_slots >= 1):
            raise ValueError(f"max_slots must be an integer >= 1, got {max_slots!r}")
        self.config = config
        self.max_slots = max_slots
        n = config.band_count
        pi_cum = np.cumsum(stationary_distribution(config.ground_truth_matrix))
        row_cum = np.cumsum(config.ground_truth_matrix.probs, axis=1)

        # one child stream per band: uniform 0 picks the initial state,
        # uniforms 1..max_slots drive the transitions
        draws = np.empty((n, max_slots + 1))
        for band, rng in enumerate(spawn_rngs(seed_seq, n)):
            draws[band] = rng.random(max_slots + 1)

        # step[t, n * 3 + s]: band n's state at slot t + 1 if it is in
        # state s at slot t, the number of cumulative row entries <= u
        u = draws.T[1:, :, None]
        step = sum((u >= row_cum[:, j]).astype(np.int8) for j in range(N_STATES))
        step = np.minimum(step, N_STATES - 1).reshape(max_slots, n * N_STATES)
        states = np.empty((max_slots + 1, n), dtype=np.int8)
        initial = np.searchsorted(pi_cum, draws[:, 0], side="right")
        states[0] = np.minimum(initial, N_STATES - 1)
        row_start = np.arange(n) * N_STATES
        for t in range(max_slots):
            states[t + 1] = step[t].take(row_start + states[t])
        states.flags.writeable = False
        self._trajectory = states
        self._slot = 0

    @property
    def band_count(self) -> int:
        return self.config.band_count

    @property
    def states(self) -> np.ndarray:
        """True states of every band at the latest slot."""
        return self._trajectory[self._slot]

    def advance(self) -> np.ndarray:
        """Advance every band one slot and return the new state vector."""
        if self._slot >= self.max_slots:
            raise RuntimeError(f"band processes exhausted after {self.max_slots} slots")
        self._slot += 1
        return self._trajectory[self._slot]

    def trajectory(self) -> np.ndarray:
        """Read-only (max_slots + 1, bands) true states of every slot."""
        return self._trajectory


def sense(
    rng: np.random.Generator, sensing_error_rate: float, slots: int, bands: int
) -> np.ndarray:
    """One node's int8 (slots, bands) sensing offsets: with probability
    `sensing_error_rate` a band's report is flipped to a uniformly random
    other state, 1 or 2 states past the truth, and otherwise it is 0, so
    the node senses a truth as ``wrap_states(truth + offsets)``.

    Slots are sensed in turn, each drawing its flip uniforms and then its
    offsets.  The draws reproduce, byte for byte, the stream of drawing
    ``rng.random(bands)`` then ``rng.integers(1, 3, size=bands)`` slot
    after slot, from one ``bit_generator.random_raw`` call decoded with
    array operations.  It relies on three numpy internals:

    * each uniform is ``next_double``, one 64-bit word ``w`` giving
      ``(w >> 11) * 2**-53``; the band flips when that is below the rate;
    * each offset takes one 32-bit half-word, low half first, and PCG64
      keeps the unused high half as a spare (``has_uint32``/``uinteger``
      in its state) for the next 32-bit draw, even across calls;
    * Lemire's bounded draw over a range of 2 never rejects, so the
      offset is ``1 + (half >> 31)``.

    The spare the draws leave is written back to the generator's state.
    The decoding is valid for a PCG64 that holds no spare, so any other
    generator is refused before a draw.  `tests/oracles.py` keeps the
    slot-by-slot calls as `slotwise_sense`, against which the offsets and
    the generator state after the call are tested.
    """
    require(EpisodeConfig, "sensing_error_rate", sensing_error_rate)
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise ValueError(
            f"noisy sensing decodes PCG64 draws, got {type(bitgen).__name__}"
        )
    if bitgen.state["has_uint32"]:
        raise ValueError("noisy sensing needs a generator with no spare 32-bit half")
    n = slots * bands
    # slot 2k draws `even` offset words and slot 2k + 1 the other
    # `bands - even`, so a pair of slots spans 3 * bands words: uniforms,
    # offsets, uniforms, offsets (an odd slot count leaves the last pair's
    # second half zero, cut off below)
    n_words, even = (n + 1) // 2, (bands + 1) // 2
    pairs = np.zeros(((slots + 1) // 2, 3 * bands), dtype=np.uint64)
    pairs.ravel()[: n + n_words] = bitgen.random_raw(n + n_words)
    uniform = np.hstack([pairs[:, :bands], pairs[:, bands + even : 2 * bands + even]])
    # (w >> 11) * 2**-53 < rate, with both sides scaled by 2**53 exactly
    flip = uniform.ravel()[:n] >> 11 < sensing_error_rate * 2.0**53
    words = np.hstack([pairs[:, bands : bands + even], pairs[:, 2 * bands + even :]])
    halves = words.astype("<u8", copy=False).view("<u4").ravel()[: 2 * n_words]
    offset = (1 + (halves[:n] >> 31)).astype(np.int8)
    offset *= flip
    state = bitgen.state
    state["has_uint32"] = 2 * n_words - n
    state["uinteger"] = int(halves[-1])
    bitgen.state = state
    return offset.reshape(slots, bands)
