"""Tests of the benchmark itself: span arithmetic, tracer patching, output check.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import pytest

import specagg
from specagg import cli, seeds, simulation, topology

from check import check_outputs, expected_csvs, sha256_of
from run import tail_percentile
from tracer import TARGETS, Tracer, layer_stats
from workloads import ES_N0_DB_GRID, Workload

TINY = Workload("tiny", {"users": "3", "relays": "6", "bands": "12"}, episodes=1)
TINY_SWEEP = Workload(
    "tiny_sweep", {"users": "2", "relays": "4", "bands": "8"}, episodes=1,
    sweep_axis="p0", sweep_values=("0.3",),
)


def run_workload(workload, seed, out_dir):
    config = cli.parse_config(None, workload.config_overrides(seed, str(out_dir)))
    if workload.sweep_axis:
        cli.run_sweep(config, workload.sweep_axis, list(workload.sweep_values))
    else:
        cli.run_single(config)


def test_self_time_subtracts_direct_children_only():
    names = ["a", "b", "c"]
    # a [0, 100] holds b [10, 40] (which holds c [20, 30]), b [50, 70] and c [80, 95]
    name_ids = [0, 1, 2, 1, 2]
    parents = [-1, 0, 1, 0, 0]
    starts = [0, 10, 20, 50, 80]
    ends = [100, 40, 30, 70, 95]
    stats = layer_stats(names, name_ids, parents, starts, ends)
    assert stats == {"a": (1, 100 - 30 - 20 - 15), "b": (2, 20 + 20), "c": (2, 10 + 15)}


def test_self_times_sum_to_root_span():
    names = ["root", "x"]
    stats = layer_stats(names, [0, 1, 1, 1], [-1, 0, 1, 2], [0, 5, 6, 7], [50, 40, 30, 20])
    assert sum(ns for _, ns in stats.values()) == 50
    assert stats["x"] == (3, 35)


def test_tracer_patches_caller_namespaces_and_restores_them(tmp_path):
    original = seeds.derive_rng
    advance = topology.BandProcessSet.advance
    tracer = Tracer()
    with tracer:
        # simulation and the package re-export hold their own bindings
        assert simulation.derive_rng is not original
        assert specagg.derive_rng is simulation.derive_rng is seeds.derive_rng
        assert topology.BandProcessSet.advance is not advance
        run_workload(TINY, 3, tmp_path / "out")
    assert simulation.derive_rng is seeds.derive_rng is specagg.derive_rng is original
    assert topology.BandProcessSet.advance is advance

    stats = layer_stats(**tracer.spans())
    assert stats["seeds.derive_rng"][0] > 0
    assert stats["simulation.run_episode"][0] == 4  # one episode per strategy
    assert stats["topology.BandProcessSet.init"][0] == 4
    assert stats["cli.run_single"][0] == 1
    assert stats["topology.sense"][0] == 0  # perfect sensing skips it
    assert tracer.absent == []
    assert tracer.distinct_ratios() == {
        "simulation.build_episode_world": 0.25,
        "simulation.run_episode": 1.0,
    }


def test_sweep_repeats_worlds_across_the_es_grid(tmp_path):
    tracer = Tracer()
    with tracer:
        run_workload(TINY_SWEEP, 3, tmp_path / "out")
    ratios = tracer.distinct_ratios()
    grid = len(ES_N0_DB_GRID)
    assert ratios["simulation.build_episode_world"] == pytest.approx(1 / (3 * grid))
    assert ratios["simulation.run_episode"] == pytest.approx(1 / grid)


def test_untraced_run_records_nothing_after_uninstall(tmp_path):
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    run_workload(TINY, 3, tmp_path / "out")
    assert len(tracer.starts) == 0


def test_missing_function_is_reported_absent(tmp_path):
    targets = TARGETS + [("markov.gone", "markov", "gone"), ("nomodule.f", "nomodule", "f")]
    tracer = Tracer(targets=targets)
    with tracer:
        run_workload(TINY, 3, tmp_path / "out")
    assert tracer.absent == ["markov.gone", "nomodule.f"]
    assert "markov.gone" not in tracer.names


@pytest.fixture
def tiny_outputs(tmp_path):
    out_dir = tmp_path / "out"
    run_workload(TINY, 1, out_dir)
    reference = {"tiny": {name: sha256_of(out_dir / name) for name in expected_csvs(TINY)}}
    return out_dir, reference


def test_check_accepts_a_correct_run(tiny_outputs):
    out_dir, reference = tiny_outputs
    assert check_outputs(TINY, 1, out_dir, reference) == []
    assert check_outputs(TINY, 7, out_dir, None) == []


def test_digest_check_catches_a_corrupted_csv(tiny_outputs):
    out_dir, reference = tiny_outputs
    metrics = out_dir / "metrics.csv"
    lines = metrics.read_text().splitlines(keepends=True)
    # same structure, one throughput digit changed
    row = lines[5].rstrip("\n").split(",")
    row[-1] = str(float(row[-1]) + 1.0)
    lines[5] = ",".join(row) + "\n"
    metrics.write_text("".join(lines))
    assert check_outputs(TINY, 7, out_dir, None) == []
    errors = check_outputs(TINY, 1, out_dir, reference)
    assert len(errors) == 1 and errors[0].startswith("metrics.csv: sha256")


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda lines: lines[:-1], "rows, expected"),
        (lambda lines: [lines[0].replace("outages", "outage")] + lines[1:], "header"),
        (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0] + ",nan\n"] + lines[4:], "bad values"),
    ],
)
def test_structure_check_catches_a_broken_csv(tiny_outputs, corrupt, message):
    out_dir, _ = tiny_outputs
    metrics = out_dir / "metrics.csv"
    metrics.write_text("".join(corrupt(metrics.read_text().splitlines(keepends=True))))
    errors = check_outputs(TINY, 7, out_dir, None)
    assert len(errors) == 1 and message in errors[0]


def test_missing_csv_is_an_error(tiny_outputs):
    out_dir, reference = tiny_outputs
    (out_dir / "trace.csv").unlink()
    assert check_outputs(TINY, 1, out_dir, reference)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile([1.0] * 10) is None
    assert tail_percentile([float(i) for i in range(11)]) == (9, 0.0)
    assert tail_percentile([float(i) for i in range(100)]) == (90, 89.0)
