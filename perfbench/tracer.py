"""Per-layer tracing of specagg from outside the program.

`Tracer` wraps the public functions named in `TARGETS`.  A module that
imports a function by name (`from .seeds import derive_rng`) holds its
own binding, so every namespace of the package that holds the original
is patched, not only the defining module; methods are patched on their
class.  Each call records a span (name, start, end, parent) in memory,
and `uninstall` restores every original binding.

`layer_stats` turns spans into calls and self time per layer, where a
span's self time is its duration minus the durations of its direct
children.  Spans nest properly because the program is single-threaded.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from array import array
from dataclasses import fields

import numpy as np

PACKAGE = "specagg"

# (layer name, module, attribute path in that module)
TARGETS = [
    ("seeds.derive_rng", "seeds", "derive_rng"),
    ("topology.build_topology", "topology", "build_topology"),
    ("topology.BandProcessSet.init", "topology", "BandProcessSet.__init__"),
    ("topology.BandProcessSet.advance", "topology", "BandProcessSet.advance"),
    ("topology.sense", "topology", "sense"),
    ("markov.estimate_transition_matrices", "markov", "estimate_transition_matrices"),
    ("markov.predict_next_states", "markov", "predict_next_states"),
    ("radio.sample_hop_snrs", "radio", "sample_hop_snrs"),
    ("radio.link_throughput", "radio", "link_throughput"),
    ("aggregation.two_slot_availability", "aggregation", "two_slot_availability"),
    ("aggregation.prediction_bits", "aggregation", "prediction_bits"),
    ("aggregation.assign_relays", "aggregation", "assign_relays"),
    ("aggregation.common_free_spectrum", "aggregation", "common_free_spectrum"),
    ("aggregation.allocate_spectrum", "aggregation", "allocate_spectrum"),
    ("aggregation.aggregate_and_score", "aggregation", "aggregate_and_score"),
    ("simulation.build_episode_world", "simulation", "build_episode_world"),
    ("simulation.run_episode", "simulation", "run_episode"),
    ("simulation.reduce_to_best_band", "simulation", "reduce_to_best_band"),
    ("simulation.summarize", "simulation", "summarize"),
    ("simulation.write_metrics_csv", "simulation", "write_metrics_csv"),
    ("simulation.write_trace_csv", "simulation", "write_trace_csv"),
    ("cli.run_single", "cli", "run_single"),
    ("cli.run_sweep", "cli", "run_sweep"),
]

def _world_key(scenario, config, episode):
    """A world is fixed by its scenario, master seed and episode."""
    return (scenario, config.seed, episode)


def _episode_key(config, topology, processes, params, episode=0, base_users=None):
    """Everything a `run_episode` call depends on except `es_over_n0`."""
    process_config = processes.config
    digest = hashlib.sha1(np.ascontiguousarray(topology.coverage).tobytes())
    digest.update(np.ascontiguousarray(processes.states).tobytes())
    digest.update(np.ascontiguousarray(process_config.ground_truth_matrix.probs).tobytes())
    radio = tuple(
        getattr(params, f.name) for f in fields(params) if f.name != "es_over_n0"
    )
    return (
        config,
        episode,
        base_users,
        topology.users,
        topology.relays,
        process_config.band_count,
        process_config.p0_idle,
        digest.hexdigest(),
        radio,
    )


# layer -> key of a call; calls with equal keys do the same work
DISTINCT_KEYS = {
    "simulation.build_episode_world": _world_key,
    "simulation.run_episode": _episode_key,
}


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Wraps the layers in `targets` and records one span per call."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.absent: list[str] = []
        self.keys: dict[str, list] = {}
        self.key_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        importlib.import_module(PACKAGE)
        modules = _package_modules()
        for layer, module_name, path in self.targets:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                owner, attr = module, path
                if "." in path:
                    class_name, attr = path.split(".")
                    owner = getattr(module, class_name)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            if owner is not module:
                self._patch(owner, attr, wrapper)
                continue
            for namespace in modules:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, layer: str, original):
        name_id = len(self.names)
        self.names.append(layer)
        key_of = DISTINCT_KEYS.get(layer)
        if key_of is not None:
            self.keys[layer] = []
        stack, parents = self._stack, self.parents
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if key_of is not None:
                self._record_key(layer, key_of, args, kwargs)
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def _record_key(self, layer, key_of, args, kwargs) -> None:
        try:
            self.keys[layer].append(key_of(*args, **kwargs))
        except (TypeError, AttributeError) as exc:
            self.key_errors[layer] = repr(exc)

    def spans(self) -> dict:
        """Recorded spans as arrays, with the layer names they index."""
        return {
            "names": np.array(self.names),
            "name_ids": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parents": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "starts": np.frombuffer(self.starts, dtype=np.int64).copy(),
            "ends": np.frombuffer(self.ends, dtype=np.int64).copy(),
        }

    def distinct_ratios(self) -> dict[str, float | str]:
        """Distinct calls over calls for each layer with a key; 'absent' if unknown."""
        out = {}
        for layer in DISTINCT_KEYS:
            keys = self.keys.get(layer)
            if keys is None or layer in self.key_errors or not keys:
                out[layer] = "absent"
            else:
                out[layer] = len(set(keys)) / len(keys)
        return out


def layer_stats(names, name_ids, parents, starts, ends) -> dict[str, tuple[int, int]]:
    """Layer name -> (calls, self time in ns) from recorded spans.

    Spans must nest: each child's interval lies within its parent's.
    """
    name_ids = np.asarray(name_ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    durations = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    child_time = np.zeros_like(durations)
    nested = parents >= 0
    np.add.at(child_time, parents[nested], durations[nested])
    self_time = durations - child_time
    calls = np.bincount(name_ids, minlength=len(names))
    self_ns = np.bincount(name_ids, weights=self_time, minlength=len(names))
    return {
        str(name): (int(calls[i]), int(self_ns[i])) for i, name in enumerate(names)
    }
