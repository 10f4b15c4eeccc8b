"""The benchmark tracer can read every layer of a small run and sweep.

`perfbench/tracer.py` reports a traced layer as "absent" when its target
no longer resolves, when a keyed layer (`build_episode_world`,
`run_episode`) is never called, or when a call's arguments do not fit
the tracer's key function; a benchmark run then ends without a numeric
result.  This runs the unmodified tracer over a tiny `run_single`, a
tiny p0 `run_sweep` and a tiny es_over_n0 `run_sweep` and checks that every layer resolves, every keyed
call fits its key, that each world and decision pass runs once, and
that the decision pass, its allocation steps 1-3, the no-aggregation
keep and the scoring step each still run: a layer with no calls reports
nothing per pair.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from specagg import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer, layer_stats  # noqa: E402

TINY = {"users": "2", "relays": "4", "bands": "8", "slots": "26", "n_train": "20",
        "episodes": "1", "es_n0_db_sweep": "0,10,20"}


@pytest.mark.parametrize("command", ["run", "sweep", "es_over_n0_sweep"])
def test_every_layer_resolves_and_each_world_and_pass_runs_once(command, tmp_path):
    config = cli.parse_config(None, {**TINY, "out": str(tmp_path)})
    tracer = Tracer()
    with tracer:
        if command == "run":
            cli.run_single(config)
        elif command == "sweep":
            cli.run_sweep(config, "p0", ["0.3", "0.5"])
        else:
            cli.run_sweep(config, "es_over_n0", ["0", "10", "20"])
    assert tracer.absent == []
    assert tracer.key_errors == {}
    ratios = tracer.distinct_ratios()
    for ratio in ratios.values():
        assert isinstance(ratio, float) and math.isfinite(ratio)
        assert ratio == 1.0
    json.dumps(ratios, allow_nan=False)
    stats = layer_stats(**tracer.spans())
    for layer in ("simulation.run_episode", "aggregation.assign_relays",
                  "aggregation.common_free_spectrum", "aggregation.allocate_spectrum",
                  "simulation.reduce_to_best_band", "aggregation.aggregate_and_score"):
        calls, _ = stats[layer]
        assert calls >= 1, layer
