"""Command-line front end: single runs, parameter sweeps, figure data.

Three subcommands drive the simulator and write CSV outputs only
(plotting is left to external tools):

* ``specagg run``    -- one cell, all four strategies; writes per-slot
  metrics, a summary, and the designated-band state trace.
* ``specagg sweep``  -- cross a parameter axis with the Es/N0 grid and
  the comparison strategies; writes one sorted summary CSV.
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
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

from .radio import RadioParams
from .seeds import SEED_LIMIT
from .simulation import (
    EpisodeConfig,
    NetworkScenario,
    Strategy,
    run_strategy,
    summarize,
    write_metrics_csv,
    write_trace_csv,
)

SWEEP_AXES = ("p0", "band_count", "relay_count", "es_over_n0")
FIGURE_IDS = (8, 9, 10, 11, 12, 13)

SWEEP_STRATEGIES = (
    Strategy.PREDICT_AGGREGATE,
    Strategy.NO_AGGREGATION,
    Strategy.SINGLE_USER,
)

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


@dataclass(frozen=True)
class RunConfig:
    """Full experiment configuration with documented defaults."""

    users: int = 5
    relays: int = 20
    bands: int = 100
    coverage_probability: float = 0.4
    p0: float = 0.4
    persistence: float = 0.6
    good_fraction: float = 0.75
    band_width_hz: float = 2e6
    noise_power_w: float = 1e-6
    ber: float = 1e-3
    tx_power_w: float = 1.0
    gap_formula: str = "log2"
    gain_model: str = "rayleigh"
    snr_combining: str = "second_hop"
    es_n0_db: float = 10.0
    es_n0_db_sweep: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    slots: int = 100
    episodes: int = 20
    n_train: int = 20
    sensing_error_rate: float = 0.0
    designated_band: int = 0
    seed: int = 1
    out: str = "out"
    workers: int = 1


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigParseError(f"{key} must be an integer, got {raw!r}") from None


def _parse_float(key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigParseError(f"{key} must be a number, got {raw!r}") from None


def _parse_float_list(key, raw):
    try:
        return tuple(float(v) for v in str(raw).split(","))
    except ValueError:
        raise ConfigParseError(
            f"{key} must be a comma-separated number list, got {raw!r}"
        ) from None


def _require(key, value, ok: bool, interval: str):
    if not ok:
        raise ConfigParseError(f"{key} must lie in {interval}, got {value}")
    return value


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
    return db


def _parse_choice(key, raw, choices):
    if raw not in choices:
        raise ConfigParseError(f"{key} must be one of {', '.join(choices)}, got {raw!r}")
    return raw


# key -> (converter, validator); validators get the converted value
_FIELD_PARSERS = {
    "users": (_parse_int, lambda k, v: _require(k, v, v >= 1, "[1, inf)")),
    "relays": (_parse_int, lambda k, v: _require(k, v, v >= 1, "[1, inf)")),
    "bands": (_parse_int, lambda k, v: _require(k, v, v >= 1, "[1, inf)")),
    "coverage_probability": (
        _parse_float,
        lambda k, v: _require(k, v, 0.0 < v <= 1.0, "(0, 1]"),
    ),
    "p0": (_parse_float, lambda k, v: _require(k, v, 0.0 < v < 1.0, "(0, 1)")),
    "persistence": (
        _parse_float,
        lambda k, v: _require(k, v, 0.0 <= v < 1.0, "[0, 1)"),
    ),
    "good_fraction": (
        _parse_float,
        lambda k, v: _require(k, v, 0.0 < v < 1.0, "(0, 1)"),
    ),
    "band_width_hz": (
        _parse_float,
        lambda k, v: _require(k, v, v > 0.0, "(0, inf)"),
    ),
    "noise_power_w": (
        _parse_float,
        lambda k, v: _require(k, v, v > 0.0, "(0, inf)"),
    ),
    "ber": (_parse_float, lambda k, v: _require(k, v, 0.0 < v < 0.2, "(0, 0.2)")),
    "tx_power_w": (_parse_float, lambda k, v: _require(k, v, v > 0.0, "(0, inf)")),
    "gap_formula": (
        lambda k, raw: _parse_choice(k, raw, ("log2", "natural_log")),
        lambda k, v: v,
    ),
    "gain_model": (
        lambda k, raw: _parse_choice(k, raw, ("rayleigh", "unit")),
        lambda k, v: v,
    ),
    "snr_combining": (
        lambda k, raw: _parse_choice(k, raw, ("second_hop", "min_hop")),
        lambda k, v: v,
    ),
    "es_n0_db": (_parse_float, _require_db),
    "es_n0_db_sweep": (_parse_float_list, lambda k, v: tuple(_require_db(k, db) for db in v)),
    "slots": (_parse_int, lambda k, v: _require(k, v, v >= 4, "[4, inf)")),
    "episodes": (_parse_int, lambda k, v: _require(k, v, v >= 1, "[1, inf)")),
    "n_train": (_parse_int, lambda k, v: _require(k, v, v >= 2, "[2, inf)")),
    "sensing_error_rate": (
        _parse_float,
        lambda k, v: _require(k, v, 0.0 <= v <= 1.0, "[0, 1]"),
    ),
    "designated_band": (
        _parse_int,
        lambda k, v: _require(k, v, v >= 0, "[0, bands)"),
    ),
    "seed": (_parse_int, lambda k, v: _require(k, v, 0 <= v < SEED_LIMIT, "[0, 2^32)")),
    "out": (lambda k, raw: str(raw), lambda k, v: v),
    "workers": (_parse_int, lambda k, v: _require(k, v, v >= 1, "[1, inf)")),
}


def _read_config_file(path: str) -> dict[str, str]:
    file_path = Path(path)
    if not file_path.is_file():
        raise ConfigParseError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    for line_no, line in enumerate(file_path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(
                f"{path}:{line_no}: expected 'key = value', got {line!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_PARSERS:
            raise ConfigParseError(f"{path}:{line_no}: unknown config key '{key}'")
        raw[key] = value
    return raw


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from defaults, a file and overrides.

    Precedence is defaults < file < overrides.  Unknown keys and
    out-of-range values raise `ConfigParseError` naming the offending
    key.
    """
    values = {f.name: getattr(RunConfig, f.name) for f in fields(RunConfig)}
    raw: dict[str, str] = {}
    if path is not None:
        raw.update(_read_config_file(path))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELD_PARSERS:
            raise ConfigParseError(f"unknown config key '{key}'")
        raw[key] = value
    for key, raw_value in raw.items():
        convert, validate = _FIELD_PARSERS[key]
        values[key] = validate(key, convert(key, raw_value))

    if values["slots"] < values["n_train"] + 2:
        raise ConfigParseError(
            f"slots must be >= n_train + 2, got slots={values['slots']} "
            f"n_train={values['n_train']}"
        )
    if values["designated_band"] >= values["bands"]:
        raise ConfigParseError(
            f"designated_band must lie in [0, bands), got "
            f"{values['designated_band']} with bands={values['bands']}"
        )
    return RunConfig(**values)


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


def scenario_from(config: RunConfig, **axis_override) -> NetworkScenario:
    return NetworkScenario(
        users=axis_override.get("users", config.users),
        relays=axis_override.get("relays", config.relays),
        bands=axis_override.get("bands", config.bands),
        coverage_probability=config.coverage_probability,
        p0_idle=axis_override.get("p0", config.p0),
        persistence=config.persistence,
        good_fraction=config.good_fraction,
    )


def params_from(config: RunConfig, es_n0_db: float | None = None) -> RadioParams:
    db = config.es_n0_db if es_n0_db is None else es_n0_db
    return RadioParams(
        band_width_hz=config.band_width_hz,
        noise_power_w=config.noise_power_w,
        ber=config.ber,
        es_over_n0=es_db_to_linear(db),
        tx_power_w=config.tx_power_w,
        gap_formula=config.gap_formula,
        gain_model=config.gain_model,
        snr_combining=config.snr_combining,
    )


def episode_config_from(config: RunConfig, strategy: Strategy) -> EpisodeConfig:
    return EpisodeConfig(
        slots=config.slots,
        episodes=config.episodes,
        n_train=config.n_train,
        strategy=strategy,
        seed=config.seed,
        sensing_error_rate=config.sensing_error_rate,
        designated_band=config.designated_band,
    )


def run_single(config: RunConfig) -> dict[str, Path]:
    """Run one cell with all four strategies and write the run CSVs."""
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = scenario_from(config)
    params = params_from(config)

    metrics_by_strategy = {}
    for strategy in Strategy:
        episode_config = episode_config_from(config, strategy)
        metrics_by_strategy[strategy] = run_strategy(scenario, episode_config, params)

    paths = {
        "config": write_effective_config(config, out_dir),
        "metrics": out_dir / "metrics.csv",
        "summary": out_dir / "summary.csv",
        "trace": out_dir / "trace.csv",
    }
    write_metrics_csv(paths["metrics"], metrics_by_strategy)
    write_trace_csv(paths["trace"], metrics_by_strategy[Strategy.PREDICT_AGGREGATE])

    with open(paths["summary"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUN_SUMMARY_HEADER)
        for strategy in sorted(Strategy, key=lambda s: s.value):
            summary = summarize(metrics_by_strategy[strategy])
            writer.writerow(
                [
                    strategy.value,
                    "es_n0_db",
                    repr(float(config.es_n0_db)),
                    repr(summary.mean_outage_rate),
                    repr(summary.mean_throughput_bps),
                    repr(summary.min_user_capacity_bps),
                ]
            )
    return paths


_AXIS_VALUE_PARSER = {
    "p0": _FIELD_PARSERS["p0"],
    "band_count": _FIELD_PARSERS["bands"],
    "relay_count": _FIELD_PARSERS["relays"],
    "es_over_n0": (_parse_float, _require_db),
}

_AXIS_SCENARIO_KEY = {"p0": "p0", "band_count": "bands", "relay_count": "relays"}


@dataclass(frozen=True)
class _Cell:
    config: RunConfig
    axis: str
    value: float
    es_n0_db: float
    strategy: Strategy


def _execute_cell(cell: _Cell) -> list:
    """Run one sweep cell; top-level so worker processes can receive it."""
    override = {}
    if cell.axis in _AXIS_SCENARIO_KEY:
        override[_AXIS_SCENARIO_KEY[cell.axis]] = (
            int(cell.value) if cell.axis != "p0" else cell.value
        )
    scenario = scenario_from(cell.config, **override)
    params = params_from(cell.config, cell.es_n0_db)
    episode_config = episode_config_from(cell.config, cell.strategy)
    summary = summarize(run_strategy(scenario, episode_config, params))
    return [
        cell.strategy.value,
        cell.axis,
        repr(float(cell.value)),
        repr(float(cell.es_n0_db)),
        repr(summary.mean_outage_rate),
        repr(summary.mean_throughput_bps),
        repr(summary.min_user_capacity_bps),
        repr(summary.max_user_capacity_bps),
    ]


def run_sweep(config: RunConfig, axis: str, values: list) -> Path:
    """Cross `values` on `axis` with the Es/N0 grid and write the summary.

    Cells may execute concurrently (config.workers); rows are collected
    and written sorted by (strategy, axis value, Es/N0), so reruns and
    any worker count produce identical files.
    """
    if axis not in SWEEP_AXES:
        raise CLIError(
            f"invalid sweep axis '{axis}'; valid axes: {', '.join(SWEEP_AXES)}"
        )
    if not values:
        raise CLIError("sweep needs at least one axis value")
    convert, validate = _AXIS_VALUE_PARSER[axis]
    parsed = [validate(axis, convert(axis, v)) for v in values]
    if axis == "band_count":
        too_small = [v for v in parsed if v <= config.designated_band]
        if too_small:
            raise ConfigParseError(
                f"band_count values {too_small} do not cover designated_band="
                f"{config.designated_band}"
            )

    if axis == "es_over_n0":
        cells = [
            _Cell(config, axis, float(v), float(v), strategy)
            for v in parsed
            for strategy in SWEEP_STRATEGIES
        ]
    else:
        cells = [
            _Cell(config, axis, float(v), float(db), strategy)
            for v in parsed
            for db in config.es_n0_db_sweep
            for strategy in SWEEP_STRATEGIES
        ]

    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(_execute_cell, cells))
    else:
        rows = [_execute_cell(cell) for cell in cells]
    rows.sort(key=lambda r: (r[0], float(r[2]), float(r[3])))

    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_effective_config(config, out_dir)
    path = out_dir / f"sweep_{axis}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        writer.writerows(rows)
    return path


def _read_csv(path: Path, missing_hint: str) -> list[dict]:
    if not path.is_file():
        raise CLIError(f"missing prerequisite: {missing_hint} ({path} not found)")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sweep_series(rows: list[dict], axis: str, strategy: Strategy, column: str) -> dict:
    """(value, es) -> column for one strategy, erroring on absent cells."""
    out = {}
    for row in rows:
        if row["strategy"] == strategy.value and row["param"] == axis:
            out[(float(row["value"]), float(row["es_n0_db"]))] = float(row[column])
    return out


def _figure_trend(config: RunConfig, axis: str, figure_path: Path) -> Path:
    sweep_path = Path(config.out) / f"sweep_{axis}.csv"
    rows = _read_csv(sweep_path, f"figure needs `specagg sweep --axis {axis}`")
    aggregate = _sweep_series(rows, axis, Strategy.PREDICT_AGGREGATE, "mean_throughput_bps")
    no_agg = _sweep_series(rows, axis, Strategy.NO_AGGREGATION, "mean_throughput_bps")
    if not aggregate:
        raise CLIError(f"missing cell: strategy=predict_aggregate in {sweep_path}")
    with open(figure_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [axis, "es_n0_db", "throughput_aggregate_bps", "throughput_no_aggregation_bps"]
        )
        for value, db in sorted(aggregate):
            if (value, db) not in no_agg:
                raise CLIError(
                    f"missing cell: strategy=no_aggregation {axis}={value} "
                    f"es_n0_db={db} in {sweep_path}"
                )
            writer.writerow(
                [
                    repr(value),
                    repr(db),
                    repr(aggregate[(value, db)]),
                    repr(no_agg[(value, db)]),
                ]
            )
    return figure_path


def emit_figure_data(config: RunConfig, figure_id: int) -> Path:
    """Assemble the CSV behind one standard figure from completed outputs."""
    if figure_id not in FIGURE_IDS:
        raise CLIError(
            f"invalid figure id {figure_id}; valid ids: "
            + ", ".join(str(i) for i in FIGURE_IDS)
        )
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    figure_path = out_dir / f"figure{figure_id}.csv"

    if figure_id == 8:
        rows = _read_csv(out_dir / "trace.csv", "figure 8 needs `specagg run`")
        first_episode = [r for r in rows if r["episode"] == "0"]
        if not first_episode:
            raise CLIError(f"missing cell: episode=0 trace in {out_dir / 'trace.csv'}")
        with open(figure_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["slot", "actual", "default", "predicted"])
            for row in first_episode:
                writer.writerow(
                    [row["slot"], row["actual"], row["default"], row["predicted"]]
                )
        return figure_path

    if figure_id == 9:
        rows = _read_csv(out_dir / "metrics.csv", "figure 9 needs `specagg run`")
        per_slot: dict[int, dict[str, list]] = {}
        for row in rows:
            per_slot.setdefault(int(row["slot"]), {}).setdefault(
                row["strategy"], []
            ).append((int(row["outages"]), int(row["allocated"])))
        with open(figure_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["slot", "outage_with_prediction", "outage_without"])
            for slot in sorted(per_slot):
                cells = per_slot[slot]
                for name in (Strategy.PREDICT_AGGREGATE.value, Strategy.NO_PREDICTION.value):
                    if name not in cells:
                        raise CLIError(
                            f"missing cell: strategy={name} slot={slot} in metrics.csv"
                        )
                rates = []
                for name in (Strategy.PREDICT_AGGREGATE.value, Strategy.NO_PREDICTION.value):
                    outages = sum(o for o, _ in cells[name])
                    allocated = sum(a for _, a in cells[name])
                    rates.append(outages / allocated if allocated else 0.0)
                writer.writerow([slot, repr(rates[0]), repr(rates[1])])
        return figure_path

    if figure_id in (10, 11, 12):
        axis = {10: "p0", 11: "band_count", 12: "relay_count"}[figure_id]
        return _figure_trend(config, axis, figure_path)

    # figure 13: per-user capacity comparison along the Es/N0 axis
    sweep_path = out_dir / "sweep_es_over_n0.csv"
    rows = _read_csv(sweep_path, "figure 13 needs `specagg sweep --axis es_over_n0`")
    multi = _sweep_series(rows, "es_over_n0", Strategy.PREDICT_AGGREGATE, "min_user_capacity_bps")
    single = _sweep_series(rows, "es_over_n0", Strategy.SINGLE_USER, "min_user_capacity_bps")
    no_agg = _sweep_series(rows, "es_over_n0", Strategy.NO_AGGREGATION, "max_user_capacity_bps")
    if not multi:
        raise CLIError(f"missing cell: strategy=predict_aggregate in {sweep_path}")
    with open(figure_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "es_over_n0",
                "multiuser_min_capacity",
                "singleuser_capacity",
                "no_aggregation_max_capacity",
            ]
        )
        for key in sorted(multi):
            for name, series in (("single_user", single), ("no_aggregation", no_agg)):
                if key not in series:
                    raise CLIError(
                        f"missing cell: strategy={name} es_over_n0={key[0]} in {sweep_path}"
                    )
            writer.writerow(
                [repr(key[0]), repr(multi[key]), repr(single[key]), repr(no_agg[key])]
            )
    return figure_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specagg",
        description="Relay-assisted dynamic spectrum aggregation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="key = value configuration file")
        for key in _FIELD_PARSERS:
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
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in _FIELD_PARSERS}
    try:
        config = parse_config(args.config, overrides)
        if args.command == "run":
            run_single(config)
        elif args.command == "sweep":
            run_sweep(config, args.axis, args.values.split(","))
        elif args.command == "figure":
            emit_figure_data(config, args.id)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
