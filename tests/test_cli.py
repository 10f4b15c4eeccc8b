"""Tests for configuration parsing, sweeps, figure CSVs and the CLI."""

import concurrent.futures
import contextlib
import csv
import inspect
import io
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specagg import cli, simulation
from specagg.cli import (
    CLIError,
    ConfigParseError,
    RunConfig,
    emit_figure_data,
    es_db_to_linear,
    from_config,
    main,
    parse_config,
    run_single,
    run_sweep,
    write_effective_config,
)
from specagg.radio import RadioParams
from specagg.simulation import EpisodeConfig, NetworkScenario, Strategy

# small-but-meaningful run shape used across CLI tests
FAST = {
    "users": "3",
    "relays": "6",
    "bands": "12",
    "slots": "26",
    "episodes": "2",
    "n_train": "20",
    "seed": "5",
}


def fast_config(tmp_path, **extra):
    overrides = dict(FAST)
    overrides["out"] = str(tmp_path / "out")
    overrides.update(extra)
    return parse_config(None, overrides)


class TestParseConfig:
    def test_defaults_match_documented_values(self):
        # the README key table: rows `key`, `key` | default, default | meaning
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| key | default | meaning |\n|---|---|---|\n")[1]
        documented = {}
        for row in table.split("\n\n")[0].splitlines():
            keys, defaults = (cell.split(", ") for cell in row.split(" | ")[:2])
            assert len(keys) == len(defaults), row
            for key, default in zip(keys, defaults):
                key = key.strip("|` ")
                assert key not in documented, f"{key} documented twice"
                documented[key] = default.strip("` ")
        assert sorted(documented) == sorted(f.name for f in fields(RunConfig))
        config = parse_config(None, documented)
        for f in fields(RunConfig):
            assert getattr(config, f.name) == f.default, f.name

    def test_library_defaults_are_the_config_defaults(self):
        config = parse_config()
        assert from_config(NetworkScenario, config) == NetworkScenario()
        assert from_config(RadioParams, config) == RadioParams()
        assert from_config(EpisodeConfig, config) == EpisodeConfig()

    def test_noise_power_is_an_unknown_key(self, tmp_path, capsys):
        assert main(["run", "--noise-power-w", "1e-6", "--out", str(tmp_path / "x")]) == 1
        assert "unrecognized arguments: --noise-power-w" in capsys.readouterr().err
        config_file = tmp_path / "run.cfg"
        config_file.write_text("noise_power_w = 1e-6\n")
        with pytest.raises(ConfigParseError, match="unknown config key 'noise_power_w'"):
            parse_config(str(config_file))

    def test_key_set_twice_in_file_names_both_lines(self, tmp_path):
        config_file = tmp_path / "run.cfg"
        config_file.write_text("p0 = 0.2\nrelays = 8\np0 = 0.3\n")
        with pytest.raises(
            ConfigParseError, match=r"run\.cfg:3: config key 'p0' already set on line 1"
        ):
            parse_config(str(config_file))

    def test_range_error_names_key_and_interval(self):
        with pytest.raises(ConfigParseError, match=r"p0 must lie in \(0, 1\)"):
            parse_config(None, {"p0": "1.5"})

    @pytest.mark.parametrize("raw", [2.7, math.inf])
    def test_integer_key_refuses_a_number_it_would_truncate(self, raw):
        # int(2.7) used to return users=2 silently
        with pytest.raises(ConfigParseError, match=rf"users must be an integer, got {raw}"):
            parse_config(None, {"users": raw})
        assert parse_config(None, {"users": 3.0}).users == 3

    @pytest.mark.parametrize(
        "key, kind, raw",
        [
            ("seed", "an integer", True),
            ("workers", "an integer", True),
            ("users", "an integer", False),
            ("coverage_probability", "a number", True),
            ("p0", "a number", False),
        ],
    )
    def test_bool_value_is_refused(self, key, kind, raw):
        # int(True) == 1 and float(True) == 1.0 used to run as seed 1 or probability 1
        with pytest.raises(ConfigParseError, match=rf"{key} must be {kind}, got {raw}"):
            parse_config(None, {key: raw})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigParseError, match="unknown config key 'p1'"):
            parse_config(None, {"p1": "0.5"})

    def test_file_values_then_flag_precedence(self, tmp_path):
        config_file = tmp_path / "run.cfg"
        config_file.write_text("p0 = 0.2\nrelays = 8\n# comment\n")
        config = parse_config(str(config_file))
        assert config.p0 == 0.2 and config.relays == 8
        config = parse_config(str(config_file), {"p0": "0.6"})
        assert config.p0 == 0.6 and config.relays == 8

    def test_unknown_key_in_file_names_line(self, tmp_path):
        config_file = tmp_path / "run.cfg"
        config_file.write_text("beer = 0.1\n")
        with pytest.raises(ConfigParseError, match="unknown config key 'beer'"):
            parse_config(str(config_file))

    def test_missing_file(self):
        with pytest.raises(ConfigParseError, match="config file not found"):
            parse_config("/does/not/exist.cfg")

    @pytest.mark.parametrize("kind", ["directory", "device"])
    def test_config_that_is_no_regular_file_is_one_error_line(self, kind, tmp_path, capsys):
        # it exists, so "not found" would send the reader looking for a typo
        path = str(tmp_path) if kind == "directory" else os.devnull
        assert main(["run", "--config", path, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: config file is not a regular file: {path}\n"
        assert not (tmp_path / "x").exists()

    def test_cross_field_validation(self):
        with pytest.raises(ConfigParseError, match="slots must be >="):
            parse_config(None, {"slots": "21", "n_train": "20"})
        with pytest.raises(ConfigParseError, match="designated_band"):
            parse_config(None, {"designated_band": "10", "bands": "5"})

    def test_sweep_list_parsing(self):
        config = parse_config(None, {"es_n0_db_sweep": "0,10,20"})
        assert config.es_n0_db_sweep == (0.0, 10.0, 20.0)
        with pytest.raises(ConfigParseError, match="es_n0_db_sweep"):
            parse_config(None, {"es_n0_db_sweep": "0,ten"})

    @pytest.mark.parametrize("out", ["x #y", " x", "x ", "a\nb", "a\rb", "a\u2028b"])
    def test_out_the_config_file_cannot_hold_is_one_error_line(
        self, out, tmp_path, monkeypatch, capsys
    ):
        # each read back from config_effective.txt as another out, or failed to parse
        monkeypatch.chdir(tmp_path)
        assert main(["figure", "--id", "8", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out must hold no '#'") and len(err.splitlines()) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=8))
    def test_effective_config_reads_back_as_the_config(self, out):
        try:
            config = parse_config(None, {"out": out})
        except ConfigParseError:
            return
        with tempfile.TemporaryDirectory() as echo_dir:
            echo = write_effective_config(config, Path(echo_dir))
            assert parse_config(str(echo)) == config

    def test_db_conversion(self):
        assert es_db_to_linear(0.0) == 1.0
        assert es_db_to_linear(10.0) == pytest.approx(10.0)
        assert es_db_to_linear(-10.0) == pytest.approx(0.1)


class TestRunCommand:
    def test_writes_all_artifacts(self, tmp_path):
        config = fast_config(tmp_path)
        paths = run_single(config)
        for name in ("config", "metrics", "summary", "trace"):
            assert paths[name].is_file()
        header = paths["summary"].read_text().splitlines()[0]
        assert header == (
            "strategy,param,value,mean_outage,mean_throughput_bps,min_user_capacity_bps"
        )
        metrics_header = paths["metrics"].read_text().splitlines()[0]
        assert metrics_header == "episode,slot,strategy,allocated,outages,throughput_bps"

    def test_effective_config_echo(self, tmp_path):
        config = fast_config(tmp_path)
        paths = run_single(config)
        text = paths["config"].read_text()
        assert "users = 3" in text and "seed = 5" in text
        assert "p0 = 0.4" in text

    def test_rerun_is_byte_identical(self, tmp_path):
        config = fast_config(tmp_path)
        first = {name: path.read_bytes() for name, path in run_single(config).items()}
        second = {name: path.read_bytes() for name, path in run_single(config).items()}
        assert first == second

    @pytest.mark.parametrize("sensing_error_rate", ["0", "0.1"])
    def test_the_summary_is_explained_by_the_metrics(self, tmp_path, sensing_error_rate):
        # per episode: outages over allocations (0 where none) and the pair
        # mean of throughput; then each strategy's episode mean of both
        paths = run_single(fast_config(tmp_path, sensing_error_rate=sensing_error_rate))
        with open(paths["metrics"], newline="") as fh:
            pairs = list(csv.DictReader(fh))
        with open(paths["summary"], newline="") as fh:
            summary = {row["strategy"]: row for row in csv.DictReader(fh)}
        assert sorted(summary) == sorted(s.value for s in Strategy)
        for strategy, row in summary.items():
            episodes = {}
            for pair in pairs:
                if pair["strategy"] == strategy:
                    episodes.setdefault(pair["episode"], []).append(pair)
            assert len(episodes) == int(FAST["episodes"])
            outage, throughput = [], []
            for rows in episodes.values():
                allocated = sum(int(r["allocated"]) for r in rows)
                outages = sum(int(r["outages"]) for r in rows)
                outage.append(outages / allocated if allocated else 0.0)
                throughput.append(np.mean([float(r["throughput_bps"]) for r in rows]))
            assert row["mean_outage"] == repr(float(np.mean(outage)))
            assert row["mean_throughput_bps"] == repr(float(np.mean(throughput)))


class TestSweepCommand:
    def test_invalid_axis_lists_valid_ones(self, tmp_path):
        config = fast_config(tmp_path)
        with pytest.raises(CLIError, match="p0, band_count, relay_count, es_over_n0"):
            run_sweep(config, "bandwidth", ["1"])

    def test_empty_values_rejected(self, tmp_path):
        with pytest.raises(CLIError, match="at least one"):
            run_sweep(fast_config(tmp_path), "p0", [])

    def test_axis_value_validation(self, tmp_path):
        with pytest.raises(ConfigParseError, match="p0 must lie in"):
            run_sweep(fast_config(tmp_path), "p0", ["0.2", "1.4"])

    def test_band_counts_must_cover_designated_band(self, tmp_path):
        config = fast_config(tmp_path, designated_band="8")
        with pytest.raises(ConfigParseError, match="designated_band"):
            run_sweep(config, "band_count", ["4", "16"])

    def test_sweep_rows_sorted_and_complete(self, tmp_path):
        config = fast_config(tmp_path, es_n0_db_sweep="5,15")
        path = run_sweep(config, "p0", ["0.5", "0.3"])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "strategy,param,value,es_n0_db,mean_outage,mean_throughput_bps,"
            "min_user_capacity_bps,max_user_capacity_bps"
        )
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2 * 2 * 3  # values x es points x strategies
        keys = [(r[0], float(r[2]), float(r[3])) for r in rows]
        assert keys == sorted(keys)

    def test_workers_do_not_change_bytes(self, tmp_path):
        serial = fast_config(tmp_path, es_n0_db_sweep="5,15")
        path_serial = run_sweep(serial, "p0", ["0.3", "0.5"])
        data_serial = path_serial.read_bytes()
        parallel = fast_config(tmp_path, es_n0_db_sweep="5,15", workers="3")
        path_parallel = run_sweep(parallel, "p0", ["0.3", "0.5"])
        assert path_parallel.read_bytes() == data_serial

    @pytest.mark.parametrize(
        "workers, cpus, pool_size",
        [("100000", 8, 3), ("100000", 2, 2), ("2", 8, 2), ("100000", 1, None)],
    )
    def test_pool_is_sized_by_its_work(
        self, workers, cpus, pool_size, tmp_path, monkeypatch
    ):
        # a fake pool records its size and maps in-process: no process starts
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        config = fast_config(tmp_path, es_n0_db_sweep="10", workers=workers)
        # a pool job is one axis value: 3 jobs of 3 cells, one per strategy
        path = run_sweep(config, "p0", ["0.3", "0.4", "0.5"])
        assert sizes == ([] if pool_size is None else [pool_size])
        assert len(path.read_text().splitlines()) == 1 + 9

    @staticmethod
    def loaded_after_importing_the_cli(modules: set[str]) -> str:
        """Which of `modules` a fresh `import specagg.cli` loads, printed sorted."""
        probe = f"import sys, specagg.cli; print(sorted({modules!r} & set(sys.modules)))"
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        return done.stdout.strip()

    def test_importing_the_cli_leaves_the_pool_unloaded(self):
        # the pool's modules load only in a sweep that forks
        modules = {"concurrent.futures.process", "multiprocessing"}
        assert self.loaded_after_importing_the_cli(modules) == "[]"

    def test_importing_the_cli_leaves_numpy_random_unloaded(self):
        # numpy.random loads with the first derived stream, not at start-up
        assert self.loaded_after_importing_the_cli({"numpy.random"}) == "[]"

    @pytest.mark.parametrize(
        "axis, values",
        [("p0", ["0.3"]), ("es_over_n0", ["10"]), ("es_over_n0", ["0", "10", "20"])],
    )
    def test_a_sweep_value_checks_each_strategy_and_point_once(
        self, axis, values, tmp_path, monkeypatch
    ):
        # one cell's radio params and episode config; none per decision
        # pass, Es/N0 point or episode.  Each sweep
        # strategy is scored once per episode at every point of the grid,
        # and never at es_n0_db, which is not a grid point.  The
        # es_over_n0 axis is one cell whose grid is its values
        config = fast_config(
            tmp_path, es_n0_db_sweep="0,10,20,30", es_n0_db="15", episodes="2"
        )
        checks, scored, worlds = [], [], []
        for cls in (EpisodeConfig, RadioParams):
            def counted(self, check=cls.__post_init__):
                checks.append(type(self))
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)

        def score(*args, score=simulation.score_episode, **kwargs):
            bound = inspect.signature(score).bind(*args, **kwargs)
            scored.append(bound.arguments["points"])
            return score(*args, **kwargs)

        def build(*args, build=simulation.build_episode_world):
            worlds.append(args)
            return build(*args)

        monkeypatch.setattr(simulation, "score_episode", score)
        monkeypatch.setattr(simulation, "build_episode_world", build)
        run_sweep(config, axis, values)
        assert checks.count(RadioParams) == 1
        assert checks.count(EpisodeConfig) == 1
        assert len(worlds) == config.episodes
        # one call per sweep strategy and episode, over the whole grid
        grid = values if axis == "es_over_n0" else config.es_n0_db_sweep
        linear = [es_db_to_linear(float(db)) for db in grid]
        assert scored == [linear] * (config.episodes * len(cli.SWEEP_STRATEGIES))

    def test_equal_linear_points_each_get_every_episode(self, tmp_path, monkeypatch):
        # 0 and 1e-20 dB are distinct points whose linear Es/N0 are both 1.0
        config = fast_config(tmp_path, es_n0_db_sweep="0,1e-20")
        assert es_db_to_linear(0.0) == es_db_to_linear(1e-20)
        runs, original = [], cli.run_strategies

        def recorded(*args):
            runs.append(original(*args))
            return runs[-1]

        monkeypatch.setattr(cli, "run_strategies", recorded)
        rows = run_sweep(config, "p0", ["0.3"]).read_text().splitlines()[1:]
        assert len(rows) == 2 * len(cli.SWEEP_STRATEGIES)
        (by_strategy,) = runs
        for metrics in by_strategy:
            assert metrics.throughput_bps.shape[:2] == (2, config.episodes)

    def test_rows_do_not_depend_on_the_other_sweep_values(self, tmp_path):
        # sweep values enter no stream derivation, so a cell's row is the
        # same whichever other values share its sweep
        config = fast_config(tmp_path, es_n0_db_sweep="5,15")
        both = run_sweep(config, "p0", ["0.3", "0.5"]).read_text().splitlines()
        alone = run_sweep(config, "p0", ["0.5"]).read_text().splitlines()
        assert alone[1:] == [row for row in both[1:] if row.split(",")[2] == "0.5"]
        assert len(alone) == 1 + 2 * 3

    def test_es_over_n0_axis_uses_values_as_grid(self, tmp_path):
        config = fast_config(tmp_path)
        path = run_sweep(config, "es_over_n0", ["0", "10"])
        lines = path.read_text().strip().splitlines()[1:]
        assert len(lines) == 2 * 3
        for line in lines:
            cells = line.split(",")
            assert cells[2] == cells[3]  # value doubles as the es point


class TestFigureCommands:
    def test_figure8_columns(self, tmp_path):
        config = fast_config(tmp_path)
        run_single(config)
        path = emit_figure_data(config, 8)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "slot,actual,default,predicted"
        assert len(lines) == 1 + (config.slots - config.n_train)

    def test_figure9_columns_and_rates(self, tmp_path):
        config = fast_config(tmp_path)
        run_single(config)
        path = emit_figure_data(config, 9)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "slot,outage_with_prediction,outage_without"
        assert len(lines) == 1 + (config.slots - config.n_train)
        for line in lines[1:]:
            _, with_pred, without = line.split(",")
            assert 0.0 <= float(with_pred) <= 1.0
            assert 0.0 <= float(without) <= 1.0

    def test_trend_figures_need_their_sweep(self, tmp_path):
        config = fast_config(tmp_path)
        with pytest.raises(CLIError, match="sweep --axis p0"):
            emit_figure_data(config, 10)

    def test_figure10_from_sweep(self, tmp_path):
        config = fast_config(tmp_path, es_n0_db_sweep="5,15")
        run_sweep(config, "p0", ["0.3", "0.5"])
        path = emit_figure_data(config, 10)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "p0,es_n0_db,throughput_aggregate_bps,throughput_no_aggregation_bps"
        )
        assert len(lines) == 1 + 4

    def test_figure13_columns(self, tmp_path):
        config = fast_config(tmp_path)
        run_sweep(config, "es_over_n0", ["5", "15"])
        path = emit_figure_data(config, 13)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "es_over_n0,multiuser_min_capacity,singleuser_capacity,"
            "no_aggregation_max_capacity"
        )
        assert len(lines) == 3

    def test_invalid_figure_id(self, tmp_path):
        with pytest.raises(CLIError, match="valid ids"):
            emit_figure_data(fast_config(tmp_path), 7)

    def test_figure8_without_run_names_missing_piece(self, tmp_path):
        config = fast_config(tmp_path)
        with pytest.raises(CLIError, match="figure 8 needs"):
            emit_figure_data(config, 8)

    @pytest.mark.parametrize("figure_id", ["8", "9", "13"])
    def test_a_failed_figure_creates_no_directory(self, figure_id, tmp_path, capsys):
        out = tmp_path / "fresh" / "deep"
        assert main(["figure", "--id", figure_id, "--out", str(out)]) == 1
        assert "missing prerequisite" in capsys.readouterr().err
        assert not (tmp_path / "fresh").exists()


class TestMainEntry:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        out = str(tmp_path / "cli_out")
        args = ["run", "--out", out]
        for key, value in FAST.items():
            args += [f"--{key.replace('_', '-')}", value]
        assert main(args) == 0
        assert (tmp_path / "cli_out" / "summary.csv").is_file()

    def test_error_is_one_line_nonzero(self, tmp_path, capsys):
        assert main(["run", "--p0", "1.5", "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv", [["run", "--bogus", "1"], ["figure", "--id", "x"], [], ["sweep"]]
    )
    def test_usage_error_is_one_error_line(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert "usage: specagg" in capsys.readouterr().out

    @staticmethod
    def python_m_specagg(*args) -> subprocess.CompletedProcess:
        """`python -m specagg` with `args`, in a fresh process."""
        src = str(Path(cli.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-m", "specagg", *args], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )

    def test_python_m_specagg_runs(self, tmp_path):
        out = tmp_path / "cli_out"
        args = ["run", "--out", str(out), "--episodes", "1"]
        for key, value in FAST.items():
            if key != "episodes":
                args += [f"--{key.replace('_', '-')}", value]
        done = self.python_m_specagg(*args)
        assert done.returncode == 0, done.stderr
        names = ("config_effective.txt", "metrics.csv", "summary.csv", "trace.csv")
        assert sorted(path.name for path in out.iterdir()) == sorted(names)

    def test_python_m_specagg_exits_1_with_one_error_line(self, tmp_path):
        done = self.python_m_specagg("run", "--p0", "2", "--out", str(tmp_path / "x"))
        assert done.returncode == 1
        assert done.stderr.startswith("error:") and len(done.stderr.splitlines()) == 1

    def test_figure_flow_through_main(self, tmp_path):
        out = str(tmp_path / "cli_out")
        base = []
        for key, value in FAST.items():
            base += [f"--{key.replace('_', '-')}", value]
        assert main(["run", "--out", out] + base) == 0
        assert main(["figure", "--id", "9", "--out", out] + base) == 0
        assert (tmp_path / "cli_out" / "figure9.csv").is_file()


class TestNegativeValues:
    """A value that starts with `-` and a digit or `.` may follow its flag
    as a separate argument, as any other value does."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (["sweep", "--axis", "es_over_n0"], "--values", "-5,0"),
            (["run"], "--es-n0-db-sweep", "-5,0"),
            (["run"], "--es-n0-db", "-1e1"),
        ],
    )
    def test_separate_value_equals_the_joined_form(self, command, flag, value, tmp_path):
        base = command + ["--episodes", "1"]
        for key, fast in FAST.items():
            if key != "episodes":
                base += [f"--{key.replace('_', '-')}", fast]
        separate, joined = tmp_path / "separate", tmp_path / "joined"
        assert main(base + [flag, value, "--out", str(separate)]) == 0
        assert main(base + [f"{flag}={value}", "--out", str(joined)]) == 0
        names = sorted(path.name for path in joined.glob("*.csv"))
        assert names and names == sorted(path.name for path in separate.glob("*.csv"))
        for name in names:
            assert (separate / name).read_bytes() == (joined / name).read_bytes()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (["run"], "--es-n0-db", "-inf"),
            (["sweep", "--axis", "es_over_n0"], "--values", "-Infinity,0"),
            (["run"], "--p0", "-nan"),
        ],
    )
    def test_separate_unusable_value_is_the_joined_forms_error(
        self, command, flag, value, tmp_path, capsys
    ):
        errors = []
        for form in ([flag, value], [f"{flag}={value}"]):
            assert main(command + form + ["--out", str(tmp_path / "x")]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error:") and len(errors[0].strip().splitlines()) == 1
        assert "expected one argument" not in errors[0]


class TestInputValidation:
    def test_seed_outside_32_bits_is_one_error_line(self, tmp_path, capsys):
        # 2^32 + 1 would share the stream of seed 1
        assert main(["run", "--seed", str(2**32 + 1), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must lie in [0, 2^32)")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "--es-n0-db", "4000"],
            ["run", "--es-n0-db=-4000"],
            ["run", "--es-n0-db", "nan"],
            ["run", "--es-n0-db-sweep", "0,inf"],
            ["sweep", "--axis", "es_over_n0", "--values", "inf"],
        ],
    )
    def test_unusable_db_value_is_one_error_line(self, args, tmp_path, capsys):
        assert main(args + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "10^(dB/10)" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "args",
        [
            # passes parse_config; the library finds no unique stationary law
            ["--persistence", "0.99999999999"],
            ["--band-width-hz", "inf"],
        ],
    )
    def test_value_the_library_rejects_is_one_error_line(self, args, tmp_path, capsys):
        argv = ["run", "--episodes", "1", "--slots", "24", "--out", str(tmp_path / "x")]
        assert main(argv + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_a_size_no_host_can_allocate_is_one_error_line(self, tmp_path, capsys):
        # the first (relays, users) array of 2**50 users needs 24 PiB, more
        # than a 47-bit address space can map, even under overcommit
        argv = ["run", "--users", str(2**50), "--relays", "3", "--bands", "4",
                "--slots", "24", "--episodes", "1", "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "--tx-power-w", "1e308"],
            ["run", "--band-width-hz", "1e308"],
            ["sweep", "--axis", "p0", "--values", "0.4", "--tx-power-w", "1e308"],
        ],
    )
    def test_arithmetic_overflow_is_one_error_line(self, args, tmp_path, capsys, recwarn):
        out = tmp_path / "x"
        argv = ["--episodes", "1", "--slots", "24", "--users", "2", "--relays", "4",
                "--bands", "8", "--es-n0-db-sweep", "10", "--out", str(out)]
        assert main(args + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: overflow") and len(err.strip().splitlines()) == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not any("inf" in path.read_text() for path in out.glob("*.csv"))

    @pytest.mark.parametrize(
        "command", [["run"], ["sweep", "--axis", "p0", "--values", "0.2"]]
    )
    def test_a_failed_run_creates_no_directory(self, command, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate the cell")

        monkeypatch.setattr(cli, "_run_cell", out_of_memory)
        out = tmp_path / "fresh" / "deep"
        assert main(command + ["--episodes", "1", "--slots", "24", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize(
        "command", [["run"], ["sweep", "--axis", "p0", "--values", "0.2"]]
    )
    @pytest.mark.parametrize("out", ["file", "file/sub/deeper"])
    def test_output_path_under_a_file_is_one_error_line(
        self, command, out, tmp_path, capsys, monkeypatch
    ):
        # refused before the cell runs, not once all its compute is spent
        monkeypatch.setattr(cli, "_run_cell", lambda *_: pytest.fail("the cell ran"))
        (tmp_path / "file").write_text("")
        argv = command + ["--episodes", "1", "--slots", "24", "--es-n0-db-sweep", "10"]
        assert main(argv + ["--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert (tmp_path / "file").read_text() == ""

    @pytest.mark.parametrize(
        "args, key",
        [
            (["--axis", "p0", "--values", "0.2,0.2"], "p0"),
            (["--axis", "p0", "--values", "0.2,0.20"], "p0"),
            (["--axis", "band_count", "--values", "4,04"], "band_count"),
            (["--axis", "es_over_n0", "--values", "10,10.0"], "es_over_n0"),
            (["--axis", "p0", "--values", "0.2", "--es-n0-db-sweep", "10,10"],
             "es_n0_db_sweep"),
        ],
    )
    def test_repeated_sweep_value_is_one_error_line(self, args, key, tmp_path, capsys):
        argv = ["sweep", "--episodes", "1", "--slots", "22", "--bands", "4"]
        assert main(argv + args + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} values must be distinct")
        assert len(err.strip().splitlines()) == 1


# dB points of the cross-command property: 0 and 1e-20 share a linear
# Es/N0, and at 90 dB a 1e300 W transmit power overflows
AGREEMENT_DB = ["0", "1e-20", "-5", "7.5", "30", "90"]


@st.composite
def grid_and_point(draw):
    """An Es/N0 grid in drawn order, and one of its points."""
    grid = draw(st.lists(st.sampled_from(AGREEMENT_DB), min_size=1, max_size=4, unique=True))
    return grid, draw(st.sampled_from(grid))


class TestCommandsAgree:
    """`specagg run --es-n0-db X` and every sweep whose Es/N0 grid holds X
    write equal numbers for each strategy they share."""

    TINY = ["--users", "2", "--relays", "4", "--bands", "8", "--slots", "24",
            "--n-train", "20", "--episodes", "1", "--p0", "0.4"]

    @staticmethod
    def command(argv: list[str], out: Path) -> tuple[int, list[str], list[list[str]]]:
        """`main(argv)` writing into `out`: its exit code, stderr lines and CSV rows."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(out)])
        csvs = [path for path in out.glob("*.csv")] if code == 0 else []
        rows = [line.split(",") for path in csvs for line in path.read_text().splitlines()[1:]]
        return code, err.getvalue().splitlines(), rows

    @settings(max_examples=12, deadline=None)
    @given(cell=grid_and_point(), tx_power_w=st.sampled_from(["1.0", "1e-320", "1e300"]),
           seed=st.integers(0, 3))
    @example(cell=(["30", "0", "7.5"], "0"), tx_power_w="1.0", seed=0)
    @example(cell=(["1e-20", "0"], "1e-20"), tx_power_w="1.0", seed=1)
    @example(cell=(["0", "30"], "30"), tx_power_w="1e-320", seed=0)
    @example(cell=(["30", "-5", "90"], "30"), tx_power_w="1e300", seed=0)
    @example(cell=(["90", "0"], "90"), tx_power_w="1e300", seed=0)
    def test_a_run_and_the_sweeps_through_its_point_agree(self, cell, tx_power_w, seed):
        grid, x = cell
        base = self.TINY + ["--tx-power-w", tx_power_w, "--seed", str(seed)]
        with tempfile.TemporaryDirectory() as tmp:
            run_code, run_err, run_rows = self.command(
                ["run", *base, "--es-n0-db", x], Path(tmp, "run")
            )
            sweeps = [
                self.command(["sweep", *base, "--axis", "es_over_n0", "--values",
                              ",".join(grid)], Path(tmp, "es")),
                self.command(["sweep", *base, "--axis", "p0", "--values", "0.4",
                              "--es-n0-db-sweep", ",".join(grid)], Path(tmp, "p0")),
            ]
        for code, err, _ in [(run_code, run_err, run_rows), *sweeps]:
            assert (code, len(err)) in ((0, 0), (1, 1))
            assert code == 0 or err[0].startswith("error: overflow")
            # only a transmit power that huge can overflow
            assert code == 0 or tx_power_w == "1e300"
        # run rows: strategy, param, value, outage, throughput, min capacity
        want = {row[0]: row[3:6] for row in run_rows}
        for code, _, rows in sweeps:
            if run_code == 1:
                assert code == 1
            elif code == 0:
                # sweep rows: strategy, param, value, es_n0_db, outage, ...
                got = {row[0]: row[4:7] for row in rows if float(row[3]) == float(x)}
                assert got == {s.value: want[s.value] for s in cli.SWEEP_STRATEGIES}


class TestTrendSmoke:
    """Direction checks at miniature scale; the acceptance suite runs
    the full-size versions."""

    def test_p0_maps_to_scenario(self, tmp_path):
        config = fast_config(tmp_path, es_n0_db_sweep="10")
        path = run_sweep(config, "p0", ["0.2", "0.6"])
        rows = [
            line.split(",")
            for line in path.read_text().strip().splitlines()[1:]
            if line.startswith("predict_aggregate")
        ]
        by_value = {float(r[2]): float(r[5]) for r in rows}
        assert by_value[0.6] > by_value[0.2]

    def test_more_relays_never_lose_on_average(self, tmp_path):
        config = fast_config(tmp_path, es_n0_db_sweep="10", episodes="3")
        path = run_sweep(config, "relay_count", ["4", "12"])
        rows = [
            line.split(",")
            for line in path.read_text().strip().splitlines()[1:]
            if line.startswith("predict_aggregate")
        ]
        by_value = {float(r[2]): float(r[5]) for r in rows}
        assert by_value[12.0] > by_value[4.0]
