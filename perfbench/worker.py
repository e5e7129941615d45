"""Run rounds of one workload in this (fresh) process; print one JSON summary line.

Started by ``run.py`` with the BLAS thread variables already set.  Imports
qjoint from ``<root>/src`` and prints ``ready`` (``run.py`` times this as a
``setup_s`` probe); with ``--probe`` it stops there.  Otherwise it repeats
whole rounds of the workload's operations, round indices counting up from
``--first-round``, until the next round would end after ``--seconds`` or
``--max-rounds`` rounds are done (always at least one round).  Each round's
inputs are made before it and its outputs checked after it, outside the
timed region.

Chunks of a fixed pure-numpy reference loop run between the operations
(``workloads.REFERENCE`` says how often and how long).  Every operation's
time is scaled by ``REFERENCE_ITER_S`` over the reference's time per
iteration, averaged over the chunks just before and just after it, so the
summary's times read as seconds on a host where one reference iteration
takes ``REFERENCE_ITER_S``.  A shared 2-vCPU host was seen to change speed
by up to 1.8x for tens of seconds to minutes at a time, and the reference
follows it.
With ``--trace`` the public functions listed in ``tracing.py`` are wrapped
first, and the summary also holds each round's per-layer seconds, scaled
the same way, and the call counts over all rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)


def import_qjoint(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qjoint
    import qjoint.cli  # noqa: F401  (the CLI is what the check and search rounds call)

    if not os.path.abspath(qjoint.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"qjoint imported from {qjoint.__file__}, not from {src}")
    return qjoint


# Seconds per reference iteration that the scaled times assume: between the
# fast (21 us) and the slow (40 us) phases of the 2-vCPU host measured.
REFERENCE_ITER_S = 30e-6


def reference_chunk(iterations: int) -> float:
    """Seconds per iteration of a fixed pure-numpy loop of small eigensolves,
    the kind of work qjoint does; the same work in every call."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = a + a.conj().T
    t0 = time.perf_counter()
    for _ in range(iterations):
        w, v = np.linalg.eigh(h)
        h = (v * w) @ v.conj().T
        h = (h + h.conj().T) / 2.0
    return (time.perf_counter() - t0) / iterations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--first-round", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--max-rounds", type=int, default=0, help="0: no limit")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--rundir")
    args = parser.parse_args(argv)

    qjoint = import_qjoint(args.root)
    print("ready", flush=True)
    if args.probe:
        return 0

    import workloads

    make_round, run, check = workloads.build(args.workload, qjoint, args.seed, args.rundir)
    every, iterations = workloads.REFERENCE[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    op_s: list[list[float]] = []   # per round, each operation's scaled seconds
    raw_s: list[float] = []        # per round, the unscaled sum
    reference: list[float] = []    # seconds per reference iteration, every chunk
    scale: dict = {}               # (round, operation) -> its scale factor
    cycle_s: list[float] = []      # whole rounds, generation and checks included
    attempted = failed = verified = 0
    generation_s = 0.0
    problems: list[str] = []  # check failures on operations that completed
    failures: list[str] = []
    round_index = args.first_round
    start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        ops = make_round(round_index)
        generation_s += time.perf_counter() - c0
        outputs, times, refs = [], [], []
        for index, op in enumerate(ops):
            if index % every == 0:
                refs.append(reference_chunk(iterations))
            if tracer is not None:
                tracer.op = (round_index, index)
            t = time.perf_counter()
            outputs.append(run(op))
            times.append(time.perf_counter() - t)
        refs.append(reference_chunk(iterations))
        scaled = []
        for index, elapsed in enumerate(times):
            group = index // every
            factor = REFERENCE_ITER_S / ((refs[group] + refs[group + 1]) / 2.0)
            scale[(round_index, index)] = factor
            scaled.append(elapsed * factor)
        op_s.append(scaled)
        raw_s.append(sum(times))
        reference += refs
        for index, (op, (status, output)) in enumerate(zip(ops, outputs)):
            attempted += 1
            if status != "ok":
                failed += 1
                failures.append(f"round {round_index} op {index} failed: {output!r}"[:300])
                continue
            found_problems = check(op, output)
            verified += output is not None and not found_problems
            problems += [f"round {round_index} op {index}: {msg}" for msg in found_problems]
        for op in ops:
            if getattr(op, "path", ""):
                os.remove(op.path)
        del outputs, ops
        round_index += 1
        cycle_s.append(time.perf_counter() - c0)
        if len(cycle_s) == args.max_rounds:
            break
        if time.perf_counter() - start + max(cycle_s) > args.seconds:
            break

    summary = {
        "rounds": len(cycle_s),
        "loop_s": time.perf_counter() - start,
        "attempted": attempted,
        "failed": failed,
        "verified": verified,
        "problems": problems[:20],
        "failures": failures[:5],
        "op_s": op_s,
        "raw_s": raw_s,
        "reference": reference,
        "generation_s": generation_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        first = args.first_round
        layers: list[dict] = [{} for _ in op_s]
        for key, names in tracer.self_times().items():
            if key not in scale:
                continue
            per_round = layers[key[0] - first]
            for name, sec in names.items():
                per_round[name] = per_round.get(name, 0.0) + sec * scale[key]
        summary["layers"] = layers
        counts = dict(tracer.counts)
        for name, n in tracer.span_calls().items():
            counts[f"{name}.calls"] = n
        summary["counts"] = counts
        summary["absent"] = tracer.absent
        tracer.dump(os.path.join(args.rundir, f"trace-{args.first_round:04d}.jsonl"))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
