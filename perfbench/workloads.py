"""The benchmark's workloads: config overrides, entry point and size.

A workload is one call into the public API (`specagg.cli.parse_config`
followed by `run_single` or `run_sweep`) with a fixed config.  The seed
comes from the benchmark's `--seed`; the program only sees the
generated config.

Scored slot pairs, the unit of work, are
episodes x (slots - n_train) x strategies x cells.
"""

from __future__ import annotations

from dataclasses import dataclass

# The size every workload sets explicitly, so that a change of the
# program's defaults does not change a workload's work under its name.
SLOTS = 100
N_TRAIN = 20
ES_N0_DB_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
SIZE = {
    "users": "5",
    "relays": "20",
    "bands": "100",
    "slots": str(SLOTS),
    "n_train": str(N_TRAIN),
    "es_n0_db": "10.0",
    "es_n0_db_sweep": ",".join(str(db) for db in ES_N0_DB_GRID),
}
RUN_STRATEGIES = 4
SWEEP_STRATEGIES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    episodes: int
    sweep_axis: str | None = None
    sweep_values: tuple = ()

    @property
    def cells(self) -> int:
        return len(self.sweep_values) * len(ES_N0_DB_GRID) if self.sweep_axis else 1

    @property
    def strategies(self) -> int:
        return SWEEP_STRATEGIES if self.sweep_axis else RUN_STRATEGIES

    @property
    def pairs(self) -> int:
        """Scored slot pairs of one run of the workload."""
        return self.episodes * (SLOTS - N_TRAIN) * self.strategies * self.cells

    def config_overrides(self, seed: int, out_dir: str) -> dict:
        return {
            **SIZE,
            **self.overrides,
            "episodes": str(self.episodes),
            "seed": str(seed),
            "out": out_dir,
            "workers": "1",
        }


WORKLOADS = {
    w.name: w
    for w in (
        # The program's default size: per-pair Python overhead dominates
        # (slot batching).
        Workload("run_default", {}, episodes=10),
        # The 7-point Es/N0 grid re-simulates each world 21 times (one
        # world pass per cell).
        Workload("sweep_p0", {}, episodes=1, sweep_axis="p0", sweep_values=("0.2", "0.6")),
        # The only path through `topology.sense` and per-node prediction.
        Workload("run_noisy", {"sensing_error_rate": "0.1"}, episodes=3),
        # Ten times the bands and five times the relays: array work and
        # memory, not call overhead, dominate (the per-episode gains array
        # alone is 64 MB).
        Workload("run_wide", {"bands": "1000", "relays": "100"}, episodes=1),
    )
}
# Episodes and sweep values are cut so that one run takes about 2 s and
# a 30-s measurement holds about a dozen runs: on a shared host the
# median of fewer, longer runs spread twice as much across seeds.
