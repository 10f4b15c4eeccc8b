"""Output check of one workload run.

Every run is checked for structure: the expected set of CSV files, each
with its header, its row count and only finite numbers.  At the
reference seed the SHA-256 digest of every CSV must also equal the
digest recorded in `reference_digests.json`, so any byte that moves is
caught.  Record the digests again with
`python3 perfbench/check.py --record` only together with a change that
is meant to move output bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import N_TRAIN, SLOTS, WORKLOADS, Workload

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_digests.json"
REFERENCE_SEED = 1

STRATEGY_NAMES = {"predict_aggregate", "no_prediction", "no_aggregation", "single_user"}


def expected_csvs(workload: Workload) -> dict[str, tuple[list[str], int]]:
    """CSV name -> (header, data row count) a run of `workload` writes."""
    if workload.sweep_axis:
        header = [
            "strategy", "param", "value", "es_n0_db", "mean_outage",
            "mean_throughput_bps", "min_user_capacity_bps", "max_user_capacity_bps",
        ]
        return {f"sweep_{workload.sweep_axis}.csv": (header, workload.cells * workload.strategies)}
    pairs = workload.episodes * (SLOTS - N_TRAIN)
    return {
        "metrics.csv": (
            ["episode", "slot", "strategy", "allocated", "outages", "throughput_bps"],
            pairs * workload.strategies,
        ),
        "summary.csv": (
            ["strategy", "param", "value", "mean_outage", "mean_throughput_bps",
             "min_user_capacity_bps"],
            workload.strategies,
        ),
        "trace.csv": (["episode", "slot", "actual", "default", "predicted"], pairs),
    }


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_structure(path: Path, header: list[str], rows: int) -> list[str]:
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    if not table or table[0] != header:
        return [f"{path.name}: header {table[:1]} != {header}"]
    errors = []
    if len(table) - 1 != rows:
        errors.append(f"{path.name}: {len(table) - 1} rows, expected {rows}")
    for line_no, row in enumerate(table[1:], start=2):
        if len(row) != len(header):
            errors.append(f"{path.name}:{line_no}: {len(row)} fields")
            break
        bad = [value for column, value in zip(header, row) if not _valid(column, value)]
        if bad:
            errors.append(f"{path.name}:{line_no}: bad values {bad}")
            break
    return errors


def _valid(column: str, value: str) -> bool:
    if column == "strategy":
        return value in STRATEGY_NAMES
    if column == "param":
        return bool(value)
    try:
        return math.isfinite(float(value))
    except ValueError:
        return False


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check_outputs(
    workload: Workload, seed: int, out_dir: Path, reference: dict | None
) -> list[str]:
    """Errors found in the CSVs one run wrote to `out_dir`; empty when correct."""
    expected = expected_csvs(workload)
    written = sorted(p.name for p in out_dir.glob("*.csv"))
    if written != sorted(expected):
        return [f"wrote {written}, expected {sorted(expected)}"]
    errors = []
    for name, (header, rows) in expected.items():
        errors += check_structure(out_dir / name, header, rows)
    if seed == REFERENCE_SEED:
        digests = (reference or {}).get(workload.name)
        if digests is None:
            errors.append(f"no reference digests for {workload.name}")
        else:
            for name in expected:
                got = sha256_of(out_dir / name)
                if got != digests.get(name):
                    errors.append(f"{name}: sha256 {got[:12]} != reference {str(digests.get(name))[:12]}")
    return errors


def _record() -> None:
    """Run every workload once at the reference seed and store the digests."""
    import tempfile

    from run import ROOT, run_worker

    digests = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in WORKLOADS.values():
            work = Path(tmp) / workload.name
            result = run_worker(workload, REFERENCE_SEED, work, trace=False)
            out_dir = work / "out"
            digests[workload.name] = {
                name: sha256_of(out_dir / name) for name in sorted(expected_csvs(workload))
            }
            print(workload.name, result["wall_s"], digests[workload.name])
    REFERENCE_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/check.py --record")
    _record()
