"""sitctl benchmark: study, sweep and audit workloads, measured from outside.

Run from the root of a source checkout (``src/sitctl`` must be there):

    python3 perfbench/run.py                              # all three workloads
    python3 perfbench/run.py --workload study             # one workload
    python3 perfbench/run.py --workload sweep --seed 7    # another seed
    python3 perfbench/run.py --trace 1                    # traced run: per-layer metrics

Each workload runs in a fresh single-threaded worker process (BLAS and
OpenMP pools pinned to one thread), for ``run_seconds`` of
``BENCHMARK.json`` unless ``--seconds`` says otherwise.  ``setup_s`` is
the median over several more fresh interpreters, each timing one set-up.
The traced run is one worker that repeats the work of all three
workloads, so ``--workload`` does not change what it reports.  Every metric is
printed by name with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when the run completed (``correct`` says whether outputs were right)
and 2 when the source tree or a worker is missing or broken.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # imports neither numpy nor sitctl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 21  # after one discarded probe that may compile bytecode
RUN_LIMIT_S = 170.0  # a run ends well within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def call_worker(argv, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; return the JSON object on its last stdout line."""
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(argv[:3])} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, deadline: float) -> dict:
    """Set-up probes, then the measured run, each in a fresh worker."""
    workdir = HERE / "_out" / f"{name}-{os.getpid()}-{time.time_ns()}"
    common = ["--workload", name, "--seed", str(seed)]
    try:
        probes = [call_worker(["setup", *common, "--dir", str(workdir / f"setup{i}")], deadline - time.monotonic())
                  for i in range(SETUP_PROBES + 1)]
        result = call_worker(["run", *common, "--seconds", str(seconds), "--dir", str(workdir / "run")],
                             deadline - time.monotonic())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"]["setup_s"] = [statistics.median(p["setup_s"] for p in probes[1:]), "s"]
    result["samples"]["setup_s"] = SETUP_PROBES
    result["unscaled"]["setup_s"] = statistics.median(p["raw_s"] for p in probes[1:])
    return result


def run_traced(seed: int, seconds: float, deadline: float) -> dict:
    """The layer suite in one worker; its spans go to ``_out/traces``."""
    out_root = HERE / "_out"
    workdir = out_root / f"traced-{os.getpid()}-{time.time_ns()}"
    try:
        return call_worker(["trace", "--seed", str(seed), "--seconds", str(seconds), "--dir", str(workdir),
                            "--trace-out", str(out_root / "traces" / f"seed{seed}.json")], deadline - time.monotonic())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED, help="sweep perturbation seed (default 2024)")
    parser.add_argument("--seconds", type=float, help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: traced run that reports the per-layer metrics instead")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sitctl" / "__init__.py").is_file():
        print(f"error: no sitctl source tree at {ROOT / 'src' / 'sitctl'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    try:
        if args.trace:
            results = {"traced": run_traced(args.seed, args.seconds, time.monotonic() + RUN_LIMIT_S)}
        else:
            names = workloads.NAMES if args.workload == "all" else (args.workload,)
            deadline = time.monotonic() + RUN_LIMIT_S * len(names)
            results = {name: run_workload(name, args.seed, args.seconds, deadline) for name in names}
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, result in results.items():
        for problem in result.get("problems", []):
            print(f"{name}: CHECK FAILED: {problem}")
        for what, figure in result.get("seen", {}).items():
            print(f"{name} check: {what} = {figure}")
        for metric, value in result.get("unscaled", {}).items():
            print(f"{name} unscaled {metric} = {value:.6g} s")
        samples = result.get("samples", {})
        for metric, (value, unit) in result["metrics"].items():
            n = f" (n={samples[metric]})" if metric in samples else ""
            print(f"{name} {metric} = {value:.6g} {unit}{n}")
        print(f"{name} correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        summary["correct"] &= bool(result["correct"])
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, (value, unit) in result["metrics"].items():
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
