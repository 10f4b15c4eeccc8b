"""Steadiness check and baseline recording for the benchmark.

Runs `run.py` once per (workload, seed) at the `run_seconds` of
BENCHMARK.json, then reports for every end-to-end metric the distance
between the first and third quartile of its values as a share of their
median, against the metric's bound (a steady benchmark stays below a
third of it).  With --trace, each workload also gets two traced runs at
the first seed, whose call counts must repeat exactly.

    python3 perfbench/steadiness.py --trace --out perfbench/baseline.json

Run it from the repository root; it takes about
(workloads x seeds + 2 x workloads) x (run_seconds + 5) seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The reference seed (whose outputs are checked byte for byte) and nine
# others, so that no figure depends on one world.
SEEDS = list(range(1, 11))


def bench(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(provenance, result) of one benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(l.split(": ", 1)[1]) for l in lines if l.startswith("provenance: "))
    return prov, json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", help="write the results to this JSON file")
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    report = {"run_seconds": seconds, "seeds": SEEDS, "end_to_end": {}, "per_layer": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            report["provenance"], result = bench(workload, seed, seconds, trace=False)
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: {result['failed']} failed runs")
            runs.append(result["metrics"])
        rows = report["end_to_end"][workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows[name] = spread([run[name]["value"] for run in runs])
            ok = rows[name]["spread"] <= bound / 3
            steady &= ok
            print(f"{workload:12s} {name:12s} median {rows[name]['median']:.6g} "
                  f"spread {rows[name]['spread']:.4f} bound {bound} {'ok' if ok else 'WIDE'}",
                  flush=True)
        if args.trace:
            first = bench(workload, SEEDS[0], seconds, trace=True)[1]["metrics"]
            second = bench(workload, SEEDS[0], seconds, trace=True)[1]["metrics"]
            differ = [k for k in first if k.endswith(".calls") and first[k] != second[k]]
            steady &= not differ
            print(f"{workload:12s} traced call counts {'differ: ' + str(differ) if differ else 'repeat'}",
                  flush=True)
            report["per_layer"][workload] = {k: v["value"] for k, v in first.items()}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
