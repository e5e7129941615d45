"""qjoint benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/qjoint`` must be there).
Workloads: search, check_sweep, repair (see README.md).

A run starts fresh single-threaded workers (``worker.py``) one after another.
Each runs whole rounds of the workload for a quarter of ``--seconds``, or one
round for ``search``, whose rounds repeat the same CLI seeds and so each get
a fresh process.  Workers start until the next one would take the summed
round time past ``--seconds``.  Every operation's time is scaled to a
nominal host speed by the reference chunks the worker runs around it (see
``worker.py``).  ``wall_s`` is the median over the run's rounds of a round's
scaled time, and ``op_ms_p50`` the median over the operation slots of a
slot's median scaled time.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median of
twelve fresh interpreters timed until qjoint is imported and ready: the
workers' own start-ups plus bare probes spread between the workers.
``--trace 1`` follows each worker with a traced twin on the same rounds and
prints the per-layer metrics (medians over the rounds of the twins' scaled
seconds per round; counts per round) plus ``trace.overhead_s`` (traced minus
untraced ``wall_s``).  The last line of stdout is ``{"correct",
"attempted", "failed", "metrics"}``; the line before it carries run details
(reference loop speed, rounds, problems, unscaled times) that are not
metrics.  Run outputs and traces go to ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("search", "check_sweep", "repair")
WORKER_SHARE = 4            # a worker runs rounds for seconds / WORKER_SHARE
ROUNDS_PER_WORKER = {"search": 1}
SETUP_PROBES = 12
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "QJOINT_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(env: dict, extra: list[str]) -> tuple[float, str]:
    """Start ``worker.py``; return its time to ``ready`` and the rest of its stdout."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, "--root", ROOT, *extra],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return ready_s, rest


def probe(env: dict) -> float:
    return start_worker(env, ["--probe"])[0]


def run_workers(env: dict, args, rundir: str, trace: bool, probes: list | None):
    """Workers one after another until the next would take the summed round
    time past ``--seconds``.  With ``trace``, each is followed by a traced
    twin on the same rounds.  With ``probes``, every start-up is recorded in
    it, and bare probes between the workers fill it to SETUP_PROBES.
    Returns the untraced and the traced workers' summaries."""
    workers: list[dict] = []
    twins: list[dict] = []
    spent = longest = 0.0
    while True:
        if probes is not None:
            while len(probes) < SETUP_PROBES * spent / args.seconds:
                probes.append(probe(env))
        extra = ["--workload", args.workload, "--seed", str(args.seed),
                 "--first-round", str(sum(w["rounds"] for w in workers)),
                 "--seconds", str(args.seconds / WORKER_SHARE), "--rundir", rundir]
        max_rounds = str(ROUNDS_PER_WORKER.get(args.workload, 0))
        ready_s, out = start_worker(env, extra + ["--max-rounds", max_rounds])
        if probes is not None:
            probes.append(ready_s)
        worker = json.loads(out.strip().splitlines()[-1])
        workers.append(worker)
        if trace:
            _, out = start_worker(env, extra + ["--max-rounds", str(worker["rounds"]), "--trace"])
            twins.append(json.loads(out.strip().splitlines()[-1]))
        spent += worker["loop_s"]
        longest = max(longest, worker["loop_s"])
        if spent + longest > args.seconds:
            break
    if probes is not None:
        while len(probes) < SETUP_PROBES:
            probes.append(probe(env))
    return workers, twins


def merge(workers: list[dict]) -> dict:
    """One run's figures from its workers: medians over all their rounds."""
    op_s = [ops for w in workers for ops in w["op_s"]]
    rounds = len(op_s)
    verified = sum(w["verified"] for w in workers)
    wall_s = statistics.median(sum(ops) for ops in op_s)
    run = {
        "rounds": rounds,
        "workers": len(workers),
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "verified": verified,
        "problems": [p for w in workers for p in w["problems"]][:20],
        "failures": [f for w in workers for f in w["failures"]][:5],
        "generation_s": sum(w["generation_s"] for w in workers),
        "unscaled_wall_s": statistics.median(t for w in workers for t in w["raw_s"]),
        "reference_iter_us": 1e6 * statistics.median(r for w in workers for r in w["reference"]),
        "wall_s": wall_s,
        "op_ms_p50": 1000.0 * statistics.median(statistics.median(s) for s in zip(*op_s)),
        # No verified output at all reads worse than any finite time.
        "s_per_verified": wall_s / (verified / rounds) if verified else math.inf,
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
    }
    if "layers" in workers[0]:
        per_round = [layers for w in workers for layers in w["layers"]]
        names = {name for layers in per_round for name in layers}
        counts: dict[str, float] = {}
        for w in workers:
            for name, n in w["counts"].items():
                counts[name] = counts.get(name, 0) + n
        run["layers"] = {name: statistics.median(layers.get(name, 0.0) for layers in per_round)
                         for name in names}
        run["counts"] = {name: n / rounds for name, n in counts.items()}
        run["absent"] = workers[0]["absent"]
    return run


def per_layer(run: dict, workload: str) -> dict:
    """The per-layer metrics: scaled seconds per round, the median over the
    rounds as ``wall_s`` takes it; counts per round over the run."""
    layers, counts = run["layers"], run["counts"]

    def s(*names):
        return sum(layers.get(n, 0.0) for n in names)

    def n(key):
        return counts.get(key, 0)

    restarts = run["attempted"] if workload == "search" else 0
    out = {
        "counterexample.minimize.s": (s("counterexample.minimize"), "s"),
        "counterexample.minimize.nfev": (n("counterexample.minimize.nfev"), "count"),
        "counterexample.minimize.nit": (n("counterexample.minimize.nit"), "count"),
        "counterexample.least_squares.s": (s("counterexample.least_squares"), "s"),
        "counterexample.least_squares.nfev": (n("counterexample.least_squares.nfev"), "count"),
        "counterexample.parametrize_projector.calls": (
            n("counterexample.parametrize_projector.calls"), "count"),
        "counterexample.parametrize_projector.s": (s("counterexample.parametrize_projector"), "s"),
        "counterexample.verify_instance.calls": (n("counterexample.verify_instance.calls"), "count"),
        "counterexample.verify_instance.s": (s("counterexample.verify_instance"), "s"),
        "counterexample.search.self_s": (s("counterexample.search"), "s"),
        "counterexample.verified_per_restart": (
            run["verified"] / restarts if restarts else 0.0, "ratio"),
        "distribution.orbit_states.calls": (n("distribution.orbit_states.calls"), "count"),
        "distribution.orbit_states.s": (s("distribution.orbit_states"), "s"),
        "distribution.orbit_states.states": (n("distribution.orbit_states.states"), "count"),
        "distribution.trace_inner.calls": (n("distribution.trace_inner.calls"), "count"),
        "distribution.trace_distance.calls": (n("distribution.trace_distance.calls"), "count"),
    }
    for check in ("marginals", "disjointness", "reducibility", "sequential_independence",
                  "on_state_projector", "functional_axioms"):
        out[f"distribution.check_{check}.self_s"] = (s(f"distribution.check_{check}"), "s")
    out.update({
        "distribution.theorem1_check.self_s": (s("distribution.theorem1_check"), "s"),
        "distribution.theorem2_verdict.self_s": (s("distribution.theorem2_verdict"), "s"),
        "permutation.is_fully_permutable.calls": (n("permutation.is_fully_permutable.calls"), "count"),
        "permutation.is_fully_permutable.s": (s("permutation.is_fully_permutable"), "s"),
        "serialize.parse.s": (s("serialize.load_json_file", "serialize.wire_to_check_inputs"), "s"),
        "serialize.render.s": (s("serialize.report_to_wire", "serialize.permutator_report_to_wire",
                                 "serialize.search_result_to_wire", "serialize.canonical_dumps"), "s"),
        "measurement.build.s": (s("measurement.Povm.from_elements",
                                  "measurement.MeasurementFamily.from_povms",
                                  "measurement.MeasurementFamily.binary_projective"), "s"),
        "cli.main.self_s": (s("cli.main"), "s"),
        "jordan.jordan_decompose.calls": (n("jordan.jordan_decompose.calls"), "count"),
        "jordan.jordan_decompose.s": (s("jordan.jordan_decompose"), "s"),
        "jordan.repair_projector.self_s": (s("jordan.repair_projector"), "s"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qjoint", "__init__.py")):
        print(f"perfbench: no qjoint sources under {ROOT}/src", file=sys.stderr)
        return 2
    rundir = os.path.join(ROOT, ".perfbench_runs",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    env = worker_env()
    try:
        if args.trace:
            workers, twins = run_workers(env, args, rundir, trace=True, probes=None)
            base, traced = merge(workers), merge(twins)
            runs = [base, traced]
            metrics = per_layer(traced, args.workload)
            metrics["trace.overhead_s"] = {
                "value": traced["wall_s"] - base["wall_s"], "unit": "s"}
        else:
            probes: list[float] = []
            run = merge(run_workers(env, args, rundir, trace=False, probes=probes)[0])
            run["setup_probes_s"] = probes
            runs = [run]
            metrics = {
                "setup_s": {"value": statistics.median(probes), "unit": "s"},
                "wall_s": {"value": run["wall_s"], "unit": "s"},
                "op_ms_p50": {"value": run["op_ms_p50"], "unit": "ms"},
                "s_per_verified": {"value": run["s_per_verified"], "unit": "s"},
                "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            }
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for name in os.listdir(rundir):
            if name.endswith(".json"):
                os.remove(os.path.join(rundir, name))

    details = {k: v for k, v in runs[0].items() if k != "problems"}
    details["problems"] = [p for r in runs for p in r["problems"]][:20]
    details["absent"] = runs[-1].get("absent", [])
    with open(os.path.join(rundir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"runs": runs, "metrics": metrics}, fh, indent=1)
    for problem in details["problems"] + [f for r in runs for f in r["failures"]]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if details.get("absent"):
        print(f"perfbench: absent traced names: {details['absent']}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": all(not r["problems"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
