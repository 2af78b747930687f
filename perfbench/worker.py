"""One workload in its own process; started by ``run.py``, not by hand.

``worker.py setup --workload W --seed S --dir D``
    times one set-up in this fresh interpreter: from before ``import
    sitctl`` until the workload's inputs are ready.  Then takes one
    calibration sample (:mod:`speed`) and prints the set-up time at the
    reference speed and as measured: ``{"setup_s": x, "raw_s": y}``.

``worker.py run --workload W --seed S --seconds N --dir D``
    repeats whole passes over the workload's operations for about N
    seconds, reads the peak resident set, then checks the outputs (the
    checks import scipy, so they come after the memory reading).

``worker.py trace --seed S --seconds N --dir D --trace-out FILE``
    runs the layer suite of :mod:`layers`, which covers every workload.

Each mode prints one JSON object as its last line.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import speed  # imports numpy only when it first measures
import workloads  # imports no sitctl


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_untraced(args, workdir: Path) -> dict:
    w = workloads.build(args.workload, args.seed, workdir / "inputs")
    warm = workdir / "warmup"
    warm.mkdir(parents=True)
    w.warmup(warm)
    outputs, pass_dirs, (walls, raw_walls, op_times, raw_op_times), attempted, failed = workloads.measure(
        w.ops, args.seconds, workdir)
    rss = peak_rss_mib()

    import checks

    problems = checks.check_reference()
    found, seen = checks.CHECKS[args.workload](w, outputs, pass_dirs)
    problems += found
    med = statistics.median
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": [med(walls), "s"],
            "op_p50_s": [med(op_times), "s"],
            "peak_rss_mib": [rss, "MiB"],
        },
        "samples": {"wall_s": len(walls), "op_p50_s": len(op_times)},
        "unscaled": {"wall_s": med(raw_walls), "op_p50_s": med(raw_op_times)},
        "problems": problems,
        "seen": seen,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=["setup", "run", "trace"])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace-out", dest="trace_out")
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.dir)
    if args.mode == "setup":
        if "sitctl" in sys.modules or "numpy" in sys.modules:
            raise RuntimeError("set-up probe must start before numpy and sitctl are imported")
        t0 = time.perf_counter()
        workloads.build(args.workload, args.seed, workdir)
        raw = time.perf_counter() - t0
        unit = speed.unit_time()
        result = {"setup_s": speed.scale(raw, unit, unit), "raw_s": raw}
    elif args.mode == "trace":
        import layers

        result = layers.run(args.seed, args.seconds, workdir, Path(args.trace_out))
    else:
        result = run_untraced(args, workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
