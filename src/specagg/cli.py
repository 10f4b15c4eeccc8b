"""Command-line front end: single runs, parameter sweeps, figure data.

Three subcommands drive the simulator and write CSV outputs only
(plotting is left to external tools):

* ``specagg run``    -- one cell, all four strategies; writes per-slot
  metrics, a summary, and the designated-band state trace.
* ``specagg sweep``  -- cross a parameter axis with the Es/N0 grid and
  the comparison strategies, a cell per axis value (on the Es/N0 axis,
  one cell whose grid is the values); writes one sorted summary CSV.
* ``specagg figure`` -- assemble the CSV behind one of the six standard
  result figures from completed run/sweep outputs.

Configuration comes from built-in defaults, an optional ``key = value``
file, and command-line flags, in increasing precedence.  The effective
configuration is echoed to the output directory for provenance.  Reruns
with the same master seed reproduce every output byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import re
import sys
from dataclasses import field, fields, make_dataclass, replace
from pathlib import Path

import numpy as np

from .params import ConfigError, param, violation
from .radio import RadioParams
from .simulation import (
    EpisodeConfig,
    NetworkScenario,
    Strategy,
    designated_band_error,
    run_strategies,
    summarize,
    write_csv,
    write_metrics_csv,
    write_trace_csv,
)

# sweep axis -> the RunConfig field each of its values sets
_AXIS_FIELD = {
    "p0": "p0",
    "band_count": "bands",
    "relay_count": "relays",
    "es_over_n0": "es_n0_db",
}
SWEEP_AXES = tuple(_AXIS_FIELD)
FIGURE_IDS = (8, 9, 10, 11, 12, 13)

SWEEP_STRATEGIES = (
    Strategy.PREDICT_AGGREGATE,
    Strategy.NO_AGGREGATION,
    Strategy.SINGLE_USER,
)

_TREND = [
    ("throughput_aggregate_bps", Strategy.PREDICT_AGGREGATE, "mean_throughput_bps"),
    ("throughput_no_aggregation_bps", Strategy.NO_AGGREGATION, "mean_throughput_bps"),
]
# figure id -> (sweep axis, [(column header, strategy, sweep CSV column)])
_SWEEP_FIGURES = {
    10: ("p0", _TREND),
    11: ("band_count", _TREND),
    12: ("relay_count", _TREND),
    13: (
        "es_over_n0",
        [
            ("multiuser_min_capacity", Strategy.PREDICT_AGGREGATE, "min_user_capacity_bps"),
            ("singleuser_capacity", Strategy.SINGLE_USER, "min_user_capacity_bps"),
            ("no_aggregation_max_capacity", Strategy.NO_AGGREGATION, "max_user_capacity_bps"),
        ],
    ),
}

RUN_SUMMARY_HEADER = [
    "strategy",
    "param",
    "value",
    "mean_outage",
    "mean_throughput_bps",
    "min_user_capacity_bps",
]

SWEEP_HEADER = [
    "strategy",
    "param",
    "value",
    "es_n0_db",
    "mean_outage",
    "mean_throughput_bps",
    "min_user_capacity_bps",
    "max_user_capacity_bps",
]


class CLIError(Exception):
    """User-facing error carrying a one-line diagnostic."""


class ConfigParseError(CLIError):
    """Raised for unknown keys, bad syntax or out-of-range values."""


# Every config key: the declared library fields, each under its own name,
# then the command line's own.
RunConfig = make_dataclass(
    "RunConfig",
    [
        (f.name, f.type, field(default=f.default, metadata=f.metadata))
        for cls in (NetworkScenario, RadioParams, EpisodeConfig)
        for f in fields(cls)
        if "interval" in f.metadata
    ]
    + [
        ("es_n0_db", "float", param(10.0, db=True)),
        ("es_n0_db_sweep", "tuple", param((0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0), db=True)),
        ("out", "str", param("out")),
        ("workers", "int", param(1, "[1, inf)")),
    ],
    frozen=True,
)
RunConfig.__module__ = __name__  # so sweep workers can unpickle it

_FIELDS = {f.name: f for f in fields(RunConfig)}


def _to_int(raw) -> int:
    """int(raw), refusing to truncate a number that is not integral."""
    value = int(raw)
    if not isinstance(raw, str) and value != raw:
        raise ValueError(raw)
    return value


# field type -> (converter of one raw value, what a bad value should be)
_CONVERTERS = {
    "int": (_to_int, "an integer"),
    "float": (float, "a number"),
    "tuple": (lambda raw: tuple(float(v) for v in str(raw).split(",")),
              "a comma-separated number list"),
    "str": (str, "a string"),
}


def _require_db(key, db):
    """Accept a dB value only if its linear ratio 10^(dB/10) is finite and > 0."""
    try:
        linear = es_db_to_linear(db)
    except OverflowError:
        linear = math.inf
    if not (math.isfinite(linear) and linear > 0.0):
        raise ConfigParseError(
            f"{key} must be a dB value with a finite, positive 10^(dB/10), got {db}"
        )


def _parse_value(key: str, name: str, raw):
    """Convert and check `raw` as a value of field `name`, naming `key` in errors."""
    spec = _FIELDS[name]
    convert, kind = _CONVERTERS[spec.type]
    try:
        if isinstance(raw, bool):
            # int(True) is 1: a flag is not a count, a seed or a probability
            raise ValueError(raw)
        value = convert(raw)
    except (ValueError, OverflowError):
        raise ConfigParseError(f"{key} must be {kind}, got {raw!r}") from None
    if message := violation(key, value, spec):
        raise ConfigParseError(message)
    if spec.metadata["db"]:
        for db in value if isinstance(value, tuple) else (value,):
            _require_db(key, db)
    if isinstance(value, tuple):
        _require_distinct(key, value)
    return value


def _require_distinct(key: str, values) -> None:
    """Reject a value list that repeats a value (its cells would run twice)."""
    if len(set(values)) < len(values):
        raise ConfigParseError(f"{key} values must be distinct, got {list(values)}")


def _read_config_file(path: str) -> dict[str, str]:
    file_path = Path(path)
    if not file_path.is_file():
        problem = "is not a regular file" if file_path.exists() else "not found"
        raise ConfigParseError(f"config file {problem}: {path}")
    raw: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for line_no, line in enumerate(file_path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(
                f"{path}:{line_no}: expected 'key = value', got {line!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ConfigParseError(f"{path}:{line_no}: unknown config key '{key}'")
        if key in line_of:
            raise ConfigParseError(
                f"{path}:{line_no}: config key '{key}' already set on line {line_of[key]}"
            )
        line_of[key] = line_no
        raw[key] = value
    return raw


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from defaults, a file and overrides.

    Precedence is defaults < file < overrides.  Unknown keys and
    out-of-range values raise `ConfigParseError` naming the offending
    key.
    """
    raw: dict[str, str] = {}
    if path is not None:
        raw.update(_read_config_file(path))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise ConfigParseError(f"unknown config key '{key}'")
        raw[key] = value
    config = RunConfig(**{key: _parse_value(key, key, value) for key, value in raw.items()})
    # an empty out, most often an unset shell variable, would write the run into the cwd
    if not config.out:
        raise ConfigParseError("out must name a directory, got ''")
    # config_effective.txt must read back as this config: a value ends at '#' or a line break
    if "#" in config.out or config.out.strip() != config.out or len(config.out.splitlines()) > 1:
        raise ConfigParseError(
            f"out must hold no '#', line break or leading or trailing space, got {config.out!r}"
        )
    try:
        from_config(EpisodeConfig, config)
    except ConfigError as exc:
        raise ConfigParseError(str(exc)) from None
    if message := designated_band_error(config.designated_band, config.bands):
        raise ConfigParseError(message)
    return config


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_effective_config(config: RunConfig, out_dir: Path) -> Path:
    """Echo the effective configuration for provenance, sorted by key."""
    lines = [
        f"{f.name} = {_format_value(getattr(config, f.name))}"
        for f in sorted(fields(RunConfig), key=lambda f: f.name)
    ]
    path = out_dir / "config_effective.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def es_db_to_linear(db: float) -> float:
    return float(10.0 ** (db / 10.0))


def from_config(cls, config: RunConfig):
    """A `cls` (`NetworkScenario`, `RadioParams` or `EpisodeConfig`) whose init
    fields copy the `config` keys of the same names."""
    return cls(**{f.name: getattr(config, f.name) for f in fields(cls) if f.init})


# an overflow or invalid operation ends the run in an error, not in inf or nan CSVs
@np.errstate(over="raise", invalid="raise", divide="raise")
def _run_cell(config: RunConfig, strategies, grid) -> list[tuple]:
    """Run the cell of `config` with `strategies` at the Es/N0 points `grid` (dB).

    One `run_strategies` call: per episode one world and one Es/N0-free
    pass of every strategy, each decision run once, and one scoring of
    each pass at every point in one batch.  Returns (strategy, metrics,
    columns) per strategy; its columns hold, per point of `grid`, the CSV
    text of the mean outage, throughput and min and max user capacity.
    """
    runs = run_strategies(
        from_config(NetworkScenario, config),
        from_config(EpisodeConfig, config),
        from_config(RadioParams, config),
        strategies,
        [es_db_to_linear(db) for db in grid],
    )
    cells = []
    for strategy, metrics in zip(strategies, runs):
        # per point, the episode mean of each summary row
        columns = [[repr(float(row.mean())) for row in point] for point in summarize(metrics)]
        cells.append((strategy, metrics, columns))
    return cells


def _output_dir(config: RunConfig) -> Path:
    """`config.out`, checked before a run, creating nothing, for a file in its way."""
    out_dir = Path(config.out)
    if not next(path for path in (out_dir, *out_dir.parents) if path.exists()).is_dir():
        raise CLIError(f"cannot write to {out_dir}: a file stands in its path")
    return out_dir


def run_single(config: RunConfig) -> dict[str, Path]:
    """Run one cell with all four strategies at `es_n0_db` and write the run CSVs."""
    out_dir = _output_dir(config)
    cells = _run_cell(config, list(Strategy), [config.es_n0_db])
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_by_strategy = {strategy: metrics for strategy, metrics, _ in cells}

    paths = {
        "config": write_effective_config(config, out_dir),
        "metrics": out_dir / "metrics.csv",
        "summary": out_dir / "summary.csv",
        "trace": out_dir / "trace.csv",
    }
    write_metrics_csv(paths["metrics"], metrics_by_strategy)
    write_trace_csv(paths["trace"], metrics_by_strategy[Strategy.PREDICT_AGGREGATE])
    rows = [
        # the run summary has no max user capacity column
        [strategy.value, "es_n0_db", repr(float(config.es_n0_db)), *columns[:3]]
        for strategy, _, [columns] in sorted(cells, key=lambda cell: cell[0].value)
    ]
    write_csv(paths["summary"], RUN_SUMMARY_HEADER, rows)
    return paths


def _sweep_cell(axis: str, config: RunConfig) -> list[list]:
    """Rows of one cell: its strategies at each point of its `es_n0_db_sweep`.

    A row's value is the cell's axis value, or on the es_over_n0 axis
    the row's own point.  Top-level so worker processes can receive it.
    """
    rows = []
    for strategy, _, by_point in _run_cell(config, SWEEP_STRATEGIES, config.es_n0_db_sweep):
        for db, columns in zip(config.es_n0_db_sweep, by_point):
            value = db if axis == "es_over_n0" else getattr(config, _AXIS_FIELD[axis])
            rows.append([strategy.value, axis, repr(float(value)), repr(float(db)), *columns])
    return rows


def run_sweep(config: RunConfig, axis: str, values: list) -> Path:
    """Cross `values` on `axis` with the Es/N0 grid and write the summary.

    Each axis value is a cell, except on the es_over_n0 axis, whose
    values are the grid of one cell.  Cells may execute concurrently
    (config.workers), one process per cell and per CPU; rows are
    collected and written sorted by (strategy, axis value, Es/N0), so
    reruns and any worker count produce identical files.
    """
    if axis not in SWEEP_AXES:
        raise CLIError(
            f"invalid sweep axis '{axis}'; valid axes: {', '.join(SWEEP_AXES)}"
        )
    if not values:
        raise CLIError("sweep needs at least one axis value")
    name = _AXIS_FIELD[axis]
    parsed = [_parse_value(axis, name, v) for v in values]
    _require_distinct(axis, parsed)
    if axis == "band_count":
        too_small = [v for v in parsed if designated_band_error(config.designated_band, v)]
        if too_small:
            raise ConfigParseError(
                f"band_count values {too_small} do not cover designated_band="
                f"{config.designated_band}"
            )

    out_dir = _output_dir(config)
    if axis == "es_over_n0":
        cells = [replace(config, es_n0_db_sweep=tuple(parsed))]
    else:
        cells = [replace(config, **{name: value}) for value in parsed]
    run_cell = functools.partial(_sweep_cell, axis)

    # a pool forks all its workers at once, so it gets no more than can be busy
    workers = min(config.workers, len(cells), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool's modules (multiprocessing, socket, ...) are
        # a start-up cost of every command that never forks
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(run_cell, cells))
    else:
        groups = [run_cell(cell) for cell in cells]
    rows = sorted(
        (row for group in groups for row in group),
        key=lambda r: (r[0], float(r[2]), float(r[3])),
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    write_effective_config(config, out_dir)
    return write_csv(out_dir / f"sweep_{axis}.csv", SWEEP_HEADER, rows)


def _read_csv(path: Path, missing_hint: str) -> list[dict]:
    if not path.is_file():
        raise CLIError(f"missing prerequisite: {missing_hint} ({path} not found)")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sweep_figure(config: RunConfig, figure_id: int, figure_path: Path) -> Path:
    """Pivot `sweep_<axis>.csv`: a row per sweep point, a column per series."""
    axis, series = _SWEEP_FIGURES[figure_id]
    # on the Es/N0 axis the value is the Es/N0 point, so it alone keys a row
    width = 1 if axis == "es_over_n0" else 2
    key_columns, key_headers = ["value", "es_n0_db"][:width], [axis, "es_n0_db"][:width]
    sweep_path = Path(config.out) / f"sweep_{axis}.csv"
    figure = "figure 13" if width == 1 else "figure"
    rows = _read_csv(sweep_path, f"{figure} needs `specagg sweep --axis {axis}`")
    cells = {
        (row["strategy"], tuple(float(row[c]) for c in key_columns)): row
        for row in rows
        if row["param"] == axis
    }
    first = series[0][1].value
    keys = sorted(key for strategy, key in cells if strategy == first)
    if not keys:
        raise CLIError(f"missing cell: strategy={first} in {sweep_path}")
    table = []
    for key in keys:
        line = [repr(v) for v in key]
        for _, strategy, column in series:
            cell = cells.get((strategy.value, key))
            if cell is None:
                where = " ".join(f"{h}={v}" for h, v in zip(key_headers, key))
                raise CLIError(
                    f"missing cell: strategy={strategy.value} {where} in {sweep_path}"
                )
            line.append(repr(float(cell[column])))
        table.append(line)
    return write_csv(figure_path, key_headers + [h for h, _, _ in series], table)


def emit_figure_data(config: RunConfig, figure_id: int) -> Path:
    """Assemble the CSV behind one standard figure from completed outputs."""
    if figure_id not in FIGURE_IDS:
        raise CLIError(
            f"invalid figure id {figure_id}; valid ids: "
            + ", ".join(str(i) for i in FIGURE_IDS)
        )
    out_dir = Path(config.out)
    figure_path = out_dir / f"figure{figure_id}.csv"

    if figure_id == 8:
        rows = _read_csv(out_dir / "trace.csv", "figure 8 needs `specagg run`")
        first_episode = [r for r in rows if r["episode"] == "0"]
        if not first_episode:
            raise CLIError(f"missing cell: episode=0 trace in {out_dir / 'trace.csv'}")
        header = ["slot", "actual", "default", "predicted"]
        return write_csv(
            figure_path, header, ([row[h] for h in header] for row in first_episode)
        )

    if figure_id == 9:
        rows = _read_csv(out_dir / "metrics.csv", "figure 9 needs `specagg run`")
        per_slot: dict[int, dict[str, list]] = {}
        for row in rows:
            per_slot.setdefault(int(row["slot"]), {}).setdefault(
                row["strategy"], []
            ).append((int(row["outages"]), int(row["allocated"])))
        table = []
        for slot in sorted(per_slot):
            cells = per_slot[slot]
            rates = []
            for name in (Strategy.PREDICT_AGGREGATE.value, Strategy.NO_PREDICTION.value):
                if name not in cells:
                    raise CLIError(
                        f"missing cell: strategy={name} slot={slot} in metrics.csv"
                    )
                outages, allocated = map(sum, zip(*cells[name]))
                rates.append(outages / allocated if allocated else 0.0)
            table.append([slot, repr(rates[0]), repr(rates[1])])
        header = ["slot", "outage_with_prediction", "outage_without"]
        return write_csv(figure_path, header, table)

    return _sweep_figure(config, figure_id, figure_path)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors reach `main` as `CLIError`; subparsers inherit it.

    A token that starts with `-` and a digit, `.`, `inf` or `nan` (any
    case) is a value, e.g. the `-5,0` of `--values -5,0`, the `-1e1` of
    `--es-n0-db -1e1` or the `-inf` of `--es-n0-db -inf`, where argparse
    alone takes only `-5`- or `-.5`-shaped tokens for numbers.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token this matches as a value, not as a flag
        self._negative_number_matcher = re.compile(r"^-([\d.]|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise CLIError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specagg",
        description="Relay-assisted dynamic spectrum aggregation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="key = value configuration file")
        for key in _FIELDS:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, metavar="V")

    run_p = sub.add_parser("run", help="run one cell with all strategies")
    add_config_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="sweep one parameter axis")
    add_config_flags(sweep_p)
    sweep_p.add_argument("--axis", required=True, help=f"one of {', '.join(SWEEP_AXES)}")
    sweep_p.add_argument(
        "--values", required=True, help="comma-separated axis values, e.g. 0.2,0.4,0.6"
    )

    figure_p = sub.add_parser("figure", help="emit the CSV behind one figure")
    add_config_flags(figure_p)
    figure_p.add_argument("--id", required=True, type=int, help="figure id, 8..13")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        overrides = {key: getattr(args, key) for key in _FIELDS}
        config = parse_config(args.config, overrides)
        if args.command == "run":
            run_single(config)
        elif args.command == "sweep":
            run_sweep(config, args.axis, args.values.split(","))
        elif args.command == "figure":
            emit_figure_data(config, args.id)
    except (CLIError, ValueError, OSError, FloatingPointError, MemoryError) as exc:
        # ValueError: a value the library rejects that `parse_config` cannot
        # foresee, e.g. a chain too sticky for a unique stationary solve;
        # OSError: an output or config path the system refuses;
        # FloatingPointError: an overflow, e.g. from a huge tx_power_w;
        # MemoryError: a configured size whose arrays cannot be allocated
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
