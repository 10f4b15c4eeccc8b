"""specagg: relay-assisted dynamic spectrum aggregation simulator.

A slot-based Monte Carlo model of opportunistic spectrum access: bands
evolve as three-state Markov chains (Good / Bad / Busy), secondary users
sense and predict band states, and a four-step engine assigns relays,
collects common free spectrum, allocates bands by SNR and aggregates
them per relay.  Deterministic seeding makes every figure reproducible
byte for byte.
"""

from .aggregation import (
    aggregate_and_score,
    allocate_spectrum,
    assign_relays,
    common_free_spectrum,
    prediction_bits,
    two_slot_availability,
)
from .markov import (
    EstimationError,
    NonUniqueStationaryError,
    SpectrumState,
    TransitionMatrix,
    count_transitions,
    estimate_transition_matrix,
    estimate_transition_matrices,
    n_step_distribution,
    parse_observations,
    predict_next_state,
    predict_next_states,
    stationary_distribution,
)
from .radio import (
    GapError,
    RadioParams,
    link_throughput,
    sample_hop_snrs,
    snr_gap,
)
from .seeds import derive_rng, derive_seed_sequence
from .simulation import (
    ConfigError,
    EpisodeConfig,
    NetworkScenario,
    Strategy,
    build_episode_world,
    reduce_to_best_band,
    run_episode,
    run_strategies,
    score_episode,
    summarize,
)
from .topology import (
    BandProcessSet,
    SpectrumProcessConfig,
    Topology,
    build_topology,
    derive_ground_truth_matrix,
    sense,
)

__version__ = "0.1.0"
