"""specagg benchmark: one workload, measured for a fixed time.

Usage, from the repository root:

    python3 perfbench/run.py --workload run_default --seed 1 --seconds 30 --trace 0

Each run of the workload is a fresh process (`worker.py`) that imports
specagg, parses the workload's config through `specagg.cli.parse_config`
and calls `run_single` or `run_sweep`, one run at a time (a closed loop
with one caller, workers = 1).  Runs repeat until `--seconds` have
passed (no run starts that would end after them), with at least
`MIN_RUNS`.  Every run's CSVs are checked
(`check.py`); a run that raises or fails the check counts as failed.

With --trace 0 the last stdout line reports the end-to-end metrics,
medians over the runs, with times in reference seconds (each run's raw
times scaled by the host speed measured at that run; see `host_scale`):

* wall_s      -- process start until the command has written its outputs
* pairs_per_s -- scored slot pairs / wall_s
* setup_s     -- process start until specagg is imported and the config parsed
* peak_rss_mb -- peak resident memory of that run's process alone

With --trace 1, untraced and traced runs alternate.  The traced runs
wrap each layer from outside (`tracer.py`) and report, per layer,
`<layer>.calls` and `<layer>.self_us_per_pair`, two waste ratios, and
the tracing overhead (traced minus untraced median wall time).

Human-readable lines (provenance, raw times with quartiles and the
tail percentile, the host-speed probes and failed_frac) precede the final
JSON line.  Per-layer times are raw.  The program is imported from
`src/` of the checkout; outputs go to a temporary directory under
`.perfbench_work/`, removed before exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from check import check_outputs, load_reference
from tracer import DISTINCT_KEYS, TARGETS, layer_stats
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

MIN_RUNS = 3
WORKER_TIMEOUT_S = 60
# Start no further run once this much time has passed, so that with the
# worker timeout a benchmark run ends within 180 s.
LAST_START_S = 100
# Host-speed probes and their values at reference speed; see `host_scale`.
NUMPY_IMPORT_REF_S = 0.15
KERNEL_REF_S = 0.1
# Single-threaded numeric libraries: one caller on a shared 2-core box.
THREAD_ENV = {
    name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}


def calibration_kernel() -> float:
    """Seconds for a fixed loop of small numpy calls and Python arithmetic.

    The mix resembles the program's per-pair work but shares no code
    with it, so a change to the program does not move it.
    """
    rng = np.random.default_rng(12345)
    table = rng.random((20, 100))
    total = 0.0
    start = time.perf_counter()
    for _ in range(4000):
        free = rng.random(100) < 0.4
        sums = table[:, free].sum(axis=1)
        over = np.flatnonzero(sums > 10.0)
        total += float((np.minimum(sums, 5.0) * 2.0)[over].sum())
        total += sum([j * 0.5 for j in range(20)])
    return time.perf_counter() - start


def host_scale(numpy_import_s: float, kernel_s: float) -> float:
    """Factor that turns one run's raw times into reference seconds.

    The geometric mean of two probes of the host's speed, taken at the
    run: the worker's time from spawn until numpy is imported (before
    any program code) and `calibration_kernel` just before the run.  On
    a shared 2-core KVM guest (Intel Xeon, Python 3.11, numpy 2.4) speed
    drifted by up to 75% within minutes and both probes followed it.
    Over twelve consecutive 40-s windows of a 5-episode `run_noisy`
    (2.9-s runs), the medians of
    raw wall times spread (IQR / median) by 26%, scaled by the import
    time alone by 7.0%, and scaled by both probes by 5.9%.
    """
    return math.sqrt(NUMPY_IMPORT_REF_S / numpy_import_s * KERNEL_REF_S / kernel_s)


class RunFailed(Exception):
    """A workload run that exited non-zero or printed no result."""


def run_worker(workload: Workload, seed: int, work: Path, trace: bool) -> dict:
    """Run `workload` once in a fresh process; outputs land in `work/out`."""
    work.mkdir(parents=True)
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), workload.name, str(seed), str(work)]
    if trace:
        cmd.append("--trace")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"timed out after {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise RunFailed(f"exit {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(lines[-1])
    result["numpy_import_s"] = result["numpy_done"] - start
    result["setup_s"] = result["setup_done"] - start
    result["wall_s"] = result["run_done"] - start
    result["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
    return result


def measure(workload: Workload, seed: int, seconds: float, trace: bool):
    """Repeat checked runs until `seconds` pass; alternate traced runs if `trace`.

    Returns (untraced results, traced results with their span files
    summarised, attempted, failed).
    """
    reference = load_reference()
    WORK_ROOT.mkdir(exist_ok=True)
    untraced, traced, durations = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        enough = attempted >= MIN_RUNS and (not trace or (untraced and traced))
        # stop before a run that would end after `seconds`
        if enough and elapsed + statistics.median(durations) > seconds:
            break
        if attempted and elapsed >= LAST_START_S:
            break
        with_trace = trace and attempted % 2 == 1
        attempted += 1
        work = Path(tempfile.mkdtemp(dir=WORK_ROOT)) / "run"
        began = time.monotonic()
        try:
            kernel_s = calibration_kernel()
            result = run_worker(workload, seed, work, with_trace)
            result["kernel_s"] = kernel_s
            result["scale"] = host_scale(result["numpy_import_s"], kernel_s)
            errors = check_outputs(workload, seed, work / "out", reference)
            if with_trace and not errors:
                with np.load(work / "spans.npz") as spans:
                    result["layers"] = layer_stats(**spans)
        except RunFailed as exc:
            errors = [str(exc)]
        finally:
            shutil.rmtree(work.parent)
            durations.append(time.monotonic() - began)
        if errors:
            failed += 1
            print(f"run {attempted} failed: {'; '.join(errors)}", file=sys.stderr)
        else:
            result["index"] = attempted
            (traced if with_trace else untraced).append(result)
    return untraced, traced, attempted, failed


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """(q, value) of the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def describe(name: str, unit: str, values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    line = (f"{name}: median {median:.6g} {unit}, quartiles {q1:.6g} .. {q3:.6g}, "
            f"min {min(values):.6g}, max {max(values):.6g}, n={len(values)}")
    tail = tail_percentile(values)
    if tail is None:
        return line + "; no tail percentile (fewer than 11 samples)"
    return line + f"; p{tail[0]} {tail[1]:.6g} {unit}"


def end_to_end_metrics(workload: Workload, runs: list[dict]) -> dict:
    """Medians over the runs of their times in reference seconds."""
    for name in ("numpy_import_s", "kernel_s"):
        print(describe(name, "s", [run[name] for run in runs]))
    print(describe("scale", "x", [run["scale"] for run in runs]) + "; raw times follow")
    metrics = {}
    for name in ("wall_s", "setup_s"):
        print(describe(name, "s", [run[name] for run in runs]))
        scaled = statistics.median(run[name] * run["scale"] for run in runs)
        metrics[name] = {"value": scaled, "unit": "s"}
    metrics["pairs_per_s"] = {
        "value": workload.pairs / metrics["wall_s"]["value"], "unit": "pairs/s"
    }
    rss = [run["peak_rss_mb"] for run in runs]
    print(describe("peak_rss_mb", "MB", rss))
    metrics["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
    print(f"pairs per run: {workload.pairs}")
    return metrics


def per_layer_metrics(workload: Workload, untraced: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    calls_by_run = [{layer: c for layer, (c, _) in run["layers"].items()} for run in traced]
    if any(calls != calls_by_run[0] for calls in calls_by_run):
        print("warning: call counts differ between traced runs", file=sys.stderr)
    absent = set(traced[0]["absent"])
    for layer, _, _ in TARGETS:
        if layer in absent:
            metrics[f"{layer}.calls"] = {"value": "absent", "unit": "count"}
            metrics[f"{layer}.self_us_per_pair"] = {"value": "absent", "unit": "us/pair"}
            continue
        self_us = statistics.median(
            run["layers"][layer][1] / 1e3 / workload.pairs for run in traced
        )
        metrics[f"{layer}.calls"] = {"value": calls_by_run[0][layer], "unit": "count"}
        metrics[f"{layer}.self_us_per_pair"] = {"value": self_us, "unit": "us/pair"}
    for layer in DISTINCT_KEYS:
        metrics[f"{layer}.distinct_ratio"] = {
            "value": traced[0]["distinct_ratio"][layer],
            "unit": "ratio",
        }
    # each traced run against the untraced run just before it, since the
    # host's speed drifts more between distant runs than tracing costs
    before = {run["index"] + 1: run["wall_s"] for run in untraced}
    overheads = [run["wall_s"] - before[run["index"]] for run in traced if run["index"] in before]
    metrics["trace.overhead_s"] = {
        "value": statistics.median(overheads) if overheads else "absent",
        "unit": "s",
    }
    print(f"traced wall_s median {statistics.median(r['wall_s'] for r in traced):.6g} s "
          f"(n={len(traced)}), untraced {statistics.median(r['wall_s'] for r in untraced):.6g} s "
          f"(n={len(untraced)}), paired overheads {[round(o, 4) for o in overheads]}")
    shares = sorted(
        ((ns, layer) for layer, (_, ns) in traced[0]["layers"].items()), reverse=True
    )
    total = sum(ns for ns, _ in shares) or 1
    print("self-time shares: " + ", ".join(
        f"{layer} {100 * ns / total:.1f}%" for ns, layer in shares[:6]
    ))
    return metrics


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _cache_sizes() -> dict[str, str]:
    """Total size per cache level, summing caches shared by distinct CPU sets."""
    totals: dict[str, int] = {}
    seen = set()
    for index in sorted(Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index[0-9]*")):
        level, kind = _read(index / "level"), _read(index / "type")
        size, shared = _read(index / "size"), _read(index / "shared_cpu_list")
        if kind == "Instruction" or not size.endswith("K") or (level, shared) in seen:
            continue
        seen.add((level, shared))
        totals[f"L{level}"] = totals.get(f"L{level}", 0) + int(size[:-1])
    return {level: f"{kib // 1024} MiB" if kib >= 1024 else f"{kib} KiB"
            for level, kib in sorted(totals.items())}


def provenance() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    model = next(
        (line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = _cache_sizes()
    return {
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_cache": caches.get("L2", "unknown"),
        "l3_cache": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Exit through `finally` blocks on SIGTERM, so the running worker is
    # killed and waited for, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "specagg" / "cli.py").is_file():
        print(f"error: no specagg sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**32  # the program's seed range
    # Cached bytecode, as an installed package has, whatever the
    # environment says about writing it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True)
    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    print(f"workload {workload.name}, seed {seed}, {args.seconds:g} s, trace {args.trace}")

    try:
        untraced, traced, attempted, failed = measure(
            workload, seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} runs)")
    if not untraced or (args.trace and not traced):
        print("error: no run of the workload succeeded", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer_metrics(workload, untraced, traced)
    else:
        metrics = end_to_end_metrics(workload, untraced)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
