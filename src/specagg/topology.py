"""Node population, relay coverage, and per-band ground-truth state processes.

The network holds T source-destination pairs and Rr candidate relays.
Coverage is a Bernoulli incidence relation: each relay is independently
in range of each pair.  Every spectrum band evolves as an independent
copy of one three-state Markov chain whose stationary idle mass equals
the configured idle probability; nodes observe band states through
(optionally noisy) sensing.

Each band owns its own random substream, so adding a band never perturbs
another band's trajectory and trajectories replay bit-exactly per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markov import (
    N_STATES,
    SpectrumState,
    TransitionMatrix,
    stationary_distribution,
)
from .params import EpisodeConfig, NetworkScenario, require

IDLE_MASS_TOL = 1e-6


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
    `coverage_probability`; rows are drawn relay by relay so a larger
    relay population extends, rather than reshuffles, a smaller one
    drawn from the same stream.
    """
    require(NetworkScenario, "coverage_probability", coverage_probability)
    rows = [rng.random(users) < coverage_probability for _ in range(relays)]
    return Topology(users=users, relays=relays, coverage=np.array(rows))


def derive_ground_truth_matrix(
    p0_idle: float, persistence: float, good_fraction: float
) -> TransitionMatrix:
    """Build a chain whose stationary idle mass is exactly `p0_idle`.

    The chain is the lazy reversible form

        P = persistence * I + (1 - persistence) * ones @ pi

    with pi = (p0*good_fraction, p0*(1-good_fraction), 1-p0), so its
    stationary distribution is pi itself and the idle states carry mass
    p0_idle by construction.  `persistence` is the probability of
    freezing in place for one slot; 0 gives i.i.d. slots.
    """
    require(NetworkScenario, "p0_idle", p0_idle)
    require(NetworkScenario, "persistence", persistence)
    require(NetworkScenario, "good_fraction", good_fraction)
    pi = np.array(
        [p0_idle * good_fraction, p0_idle * (1.0 - good_fraction), 1.0 - p0_idle]
    )
    probs = persistence * np.eye(N_STATES) + (1.0 - persistence) * np.ones(
        (N_STATES, 1)
    ) * pi
    return TransitionMatrix(probs)


@dataclass(frozen=True)
class SpectrumProcessConfig:
    """Shape of the per-band ground-truth process.

    `band_count` and `p0_idle` are checked as `NetworkScenario.bands`
    and `.p0_idle`, and the chain's stationary idle mass (Good + Bad)
    must match `p0_idle` within 1e-6.
    """

    band_count: int
    p0_idle: float
    ground_truth_matrix: TransitionMatrix

    def __post_init__(self):
        require(NetworkScenario, "bands", self.band_count)
        require(NetworkScenario, "p0_idle", self.p0_idle)
        pi = stationary_distribution(self.ground_truth_matrix)
        idle_mass = pi[SpectrumState.GOOD] + pi[SpectrumState.BAD]
        if abs(idle_mass - self.p0_idle) > IDLE_MASS_TOL:
            raise ValueError(
                f"stationary idle mass {idle_mass:.8f} does not match "
                f"p0_idle {self.p0_idle}"
            )


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
        if max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        self.config = config
        self.max_slots = max_slots
        n = config.band_count
        pi_cum = np.cumsum(stationary_distribution(config.ground_truth_matrix))
        row_cum = np.cumsum(config.ground_truth_matrix.probs, axis=1)

        # one child stream per band: uniform 0 picks the initial state,
        # uniforms 1..max_slots drive the transitions
        children = seed_seq.spawn(n)
        draws = np.empty((n, max_slots + 1))
        for band, child in enumerate(children):
            draws[band] = np.random.default_rng(child).random(max_slots + 1)

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
    true_states: np.ndarray,
    sensing_error_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Observe band states, flipping each to a uniformly random other
    state with probability `sensing_error_rate`.

    `true_states` is one slot's band states, or a (slots, bands) array
    whose leading axis is time.  Slots are sensed in turn from `rng`,
    each drawing its flip uniforms and then its offsets, so one call
    over many slots draws exactly what one call per slot draws.

    The default is perfect sensing (the report equals the truth) and
    consumes no randomness.

    Noisy sensing reproduces, byte for byte, the stream of drawing
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

    The spare the generator enters with feeds the first offset, and the
    spare the draws leave is written back to its state.  The decoding is
    valid for PCG64 only, so any other bit generator is refused before a
    draw.  `tests/oracles.py` keeps the slot-by-slot calls as
    `slotwise_sense`, against which the output and the generator state
    after the call are tested.
    """
    require(EpisodeConfig, "sensing_error_rate", sensing_error_rate)
    true_states = np.asarray(true_states, dtype=np.int8)
    if sensing_error_rate == 0.0:
        return true_states.copy()
    if rng is None:
        raise ValueError("an rng is required when sensing_error_rate > 0")
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise ValueError(
            f"noisy sensing decodes PCG64 draws, got {type(bitgen).__name__}"
        )
    slots = true_states if true_states.ndim > 1 else true_states[None]
    n, bands = slots.size, math.prod(slots.shape[1:])
    entry = bitgen.state
    spare = entry["has_uint32"]
    # the n offsets take the spare half, if any, then halves of fresh
    # words; slot 2k draws `even` offset words and slot 2k + 1 the other
    # `bands - even`, so a pair of slots spans 3 * bands words: uniforms,
    # offsets, uniforms, offsets (an odd slot count leaves the last pair's
    # second half zero, cut off below)
    n_words = (n + 1 - spare) // 2
    even = (bands + 1 - spare) // 2
    pairs = np.zeros(((len(slots) + 1) // 2, 3 * bands), dtype=np.uint64)
    pairs.ravel()[: n + n_words] = bitgen.random_raw(n + n_words)
    uniform = np.hstack([pairs[:, :bands], pairs[:, bands + even : 2 * bands + even]])
    # (w >> 11) * 2**-53 < rate, with both sides scaled by 2**53 exactly
    flip = uniform.ravel()[:n] >> 11 < sensing_error_rate * 2.0**53
    words = np.hstack([pairs[:, bands : bands + even], pairs[:, 2 * bands + even :]])
    halves = words.astype("<u8", copy=False).view("<u4").ravel()[: 2 * n_words]
    if spare:
        halves = np.concatenate([[entry["uinteger"]], halves])
    # offset 1 or 2 sends a state to one of the two other states
    offset = (1 + (halves[:n] >> 31)).astype(np.int8)
    state = bitgen.state
    state["has_uint32"] = spare + 2 * n_words - n
    if n_words:
        state["uinteger"] = int(halves[-1])
    bitgen.state = state
    flip, offset = flip.reshape(slots.shape), offset.reshape(slots.shape)
    return np.where(flip, (slots + offset) % N_STATES, slots).reshape(true_states.shape)
