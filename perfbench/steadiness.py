"""Steadiness check: two sets of benchmark runs of the same commit, side by side.

    python3 perfbench/steadiness.py

Two sets of 10 runs of every workload, at ``run_seconds`` of
BENCHMARK.json.  Set A uses seeds 1..10 and set B seeds 11..20; within a
set the workloads take turns.  For each workload and end-to-end metric the table gives each
set's quartiles, its spread (the distance between the quartiles as a share
of the median, as ``statistics.quantiles(n=4)`` gives them), the shift of
set B's median from set A's, and the metric's bound from BENCHMARK.json.
A row is ``ok`` when both spreads and the worsening shift are within the
bound.  The share of failed operations must
be the same in every run.  Raw results go to ``perfbench/_out/``.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # per workload per set
SETS = "AB"


def one_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # unscaled times, printed by run.py as "<workload> unscaled <metric> = <value> s"
    result["unscaled"] = {
        parts[2]: float(parts[4]) for parts in (line.split() for line in lines[:-1])
        if len(parts) == 6 and parts[1] == "unscaled"
    }
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    runs = {}  # (set, workload) -> list of results
    for k in range(len(SETS)):
        for i in range(RUNS):
            seed = k * RUNS + i + 1
            for name in names:
                t0 = time.monotonic()
                result = one_run(name, seed)
                runs.setdefault((k, name), []).append(result)
                print(f"set {SETS[k]} run {i + 1} {name} seed {seed}: {time.monotonic() - t0:.1f} s, "
                      f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr)
    out = HERE / "_out" / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({f"{SETS[k]}/{name}": r for (k, name), r in runs.items()}, indent=1))

    ok = True
    print(f"{'workload':8} {'metric':13} {'bound':>6} "
          + " ".join(f"{s + ': q1 / median / q3':>34} {'spread':>7}" for s in SETS) + f" {'shift':>7}  verdict")
    for name in names:
        for metric in bench["end_to_end"]:
            m, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            cells, medians, row_ok = [], [], True
            for k in range(len(SETS)):
                q1, q2, q3, spread = quartiles([r["metrics"][m]["value"] for r in runs[(k, name)]])
                medians.append(q2)
                cells.append(f"{q1:10.5g} / {q2:10.5g} / {q3:10.5g} {spread:7.2%}")
                row_ok &= spread <= bound
            shift = (medians[1] - medians[0]) / medians[0]
            row_ok &= (shift if lower else -shift) <= bound
            ok &= row_ok
            print(f"{name:8} {m:13} {bound:6.0%} " + " ".join(cells) + f" {shift:+7.2%}"
                  + ("  ok" if row_ok else "  OUT OF BOUND"))
        for m in runs[(0, name)][0]["unscaled"]:
            info = []
            for k in range(len(SETS)):
                q1, q2, q3, spread = quartiles([r["unscaled"][m] for r in runs[(k, name)]])
                info.append(f"{SETS[k]}: median {q2:.5g} spread {spread:.2%}")
            print(f"{name:8} unscaled {m}: " + ", ".join(info))
        results = runs[(0, name)] + runs[(1, name)]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        ok &= len(shares) == 1 and correct
        print(f"{name:8} failed share {sorted(shares)}, all correct: {correct}")
    print(f"raw results: {out.relative_to(ROOT)}")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
