"""Steadiness check: two interleaved sets of runs per workload, against the bounds.

    python3 perfbench/steady.py

Runs ``run.py --trace 0`` twenty times per workload of BENCHMARK.json, for
its ``run_seconds``, in two interleaved sets of ten, alternating which set
goes first, each run with its own seed (set A: 1000+i, set B: 2000+i).
For every end-to-end metric it prints each set's median and quartiles, the
spread (interquartile distance over the median) and the shift of B's median
from A's, both against the metric's bound in BENCHMARK.json.  A spread wider
than the bound, a shift beyond it, or failed shares that differ between the
sets are marked.  It also prints each set's median time per iteration of
the numpy reference loop that the times are scaled by, which shows how fast
the host ran; it is not a metric.
Raw results go to ``.perfbench_runs/steady-<time>.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SET_SEEDS = {"A": 1000, "B": 2000}
RUNS = 10  # per set


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, timeout=600)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])["details"]
    result["elapsed_s"] = elapsed
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def report(workload: str, runs: dict, bench: dict) -> list[str]:
    """Lines for one workload; a line starting with '!!' marks a breach."""
    lines = [f"== {workload}"]
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = {}
        for label, results in runs.items():
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in results])
            stats[label] = (q1, med, q3, (q3 - q1) / med)
        shift = (stats["B"][1] - stats["A"][1]) / stats["A"][1]
        if metric["better"] == "higher":
            shift = -shift
        worst_spread = max(s[3] for s in stats.values())
        flag = "  "
        if shift > bound or worst_spread > bound:
            flag = "!!"
        elif worst_spread > bound / 3:
            flag = " ~"
        cells = "  ".join(
            f"{label}: {s[1]:.6g} [{s[0]:.6g}, {s[2]:.6g}] spread {100 * s[3]:.2f}%"
            for label, s in stats.items()
        )
        lines.append(f"{flag} {name:16s} {cells}  worse-by {100 * shift:+.2f}%  bound {100 * bound:.0f}%")
    shares = {label: sorted({r["failed"] / r["attempted"] for r in results})
              for label, results in runs.items()}
    flag = "  " if shares["A"] == shares["B"] and len(shares["A"]) == 1 else "!!"
    lines.append(f"{flag} failed share     A: {shares['A']}  B: {shares['B']}")
    correct = all(r["correct"] for results in runs.values() for r in results)
    lines.append(f"{'  ' if correct else '!!'} correct          {correct}")
    ref = {label: statistics.median(r["details"]["reference_iter_us"] for r in results)
           for label, results in runs.items()}
    lines.append(f"   reference iter   A: {ref['A']:.2f} us  B: {ref['B']:.2f} us (host speed, not a metric)")
    elapsed = max(r["elapsed_s"] for results in runs.values() for r in results)
    lines.append(f"   longest run      {elapsed:.1f} s")
    return lines


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(RUNS):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for workload in workloads:
            for label in order:
                res = one_run(workload, SET_SEEDS[label] + i, seconds)
                results[workload][label].append(res)
                wall = res["metrics"]["wall_s"]["value"]
                print(f"run {i} {workload} {label}: wall_s {wall:.4f} "
                      f"({res['elapsed_s']:.1f} s)", file=sys.stderr, flush=True)

    out_dir = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "results": results}, fh, indent=1)
    breach = False
    for workload in workloads:
        for line in report(workload, results[workload], bench):
            breach |= line.startswith("!!")
            print(line)
    print(f"raw results: {path}")
    return 1 if breach else 0


if __name__ == "__main__":
    sys.exit(main())
