"""One run of one workload, in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED WORKDIR [--trace]

Imports specagg, parses the workload's config, runs it with outputs
under WORKDIR/out and prints one JSON line with monotonic-clock
timestamps (numpy imported, config parsed, run done) and the process's
peak RSS.  The parent process records the
spawn time, so setup and wall time include interpreter start-up.
With --trace the run is wrapped by `tracer.Tracer`, whose spans are
written to WORKDIR/spans.npz once the run has finished.
"""

import json
import resource
import sys
import time


def main(argv: list[str]) -> None:
    name, seed, workdir, *flags = argv
    trace = flags == ["--trace"]

    # Interpreter start plus the numpy import, before any program code:
    # one of the host-speed probes `run.py` scales its times by.
    import numpy

    numpy_done = time.monotonic()
    from specagg import cli

    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    config = cli.parse_config(None, workload.config_overrides(int(seed), f"{workdir}/out"))
    setup_done = time.monotonic()

    def run() -> None:
        if workload.sweep_axis:
            cli.run_sweep(config, workload.sweep_axis, list(workload.sweep_values))
        else:
            cli.run_single(config)

    if trace:
        from tracer import Tracer

        with Tracer() as tracer:
            run()
    else:
        run()
    run_done = time.monotonic()

    result = {
        "numpy_done": numpy_done,
        "setup_done": setup_done,
        "run_done": run_done,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        numpy.savez(f"{workdir}/spans.npz", **tracer.spans())
        result["absent"] = tracer.absent
        result["distinct_ratio"] = tracer.distinct_ratios()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
