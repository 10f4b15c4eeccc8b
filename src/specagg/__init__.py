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
    SpectrumState,
    TransitionMatrix,
    estimate_transition_matrix,
    parse_observations,
    predict_next_states,
    stationary_distribution,
)
from .radio import RadioParams, link_throughput, sample_hop_snrs, snr_gap
from .seeds import derive_rng, derive_seed_sequence
from .simulation import (
    EpisodeConfig,
    NetworkScenario,
    Strategy,
    run_episode,
    run_strategies,
    score_episode,
    summarize,
)
from .topology import BandProcessSet, SpectrumProcessConfig, Topology

__version__ = "0.1.0"
