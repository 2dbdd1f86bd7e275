"""One round of one workload, in a fresh interpreter.

    python3 perfbench/round.py <workload> <trace 0|1>  < inputs.json

Reads the workload's inputs on stdin, builds its fixtures, prints READY,
runs every operation once in order, and prints one JSON line with the
per-operation latencies, the failures and the check results.  run.py
starts one of these per round, so no module-level cache of the library
(`WeylGroup._cache`, the `lru_cache`s in numkernel) outlives a round.

The machine's speed drifts by tens of per cent over seconds to minutes
(other tenants share its cores and caches), and the library's time drifts
with it.  So after each operation a fixed pure-Python calibration chunk,
which does not touch the library, measures the machine's current speed.
Each operation's time is rescaled by the median chunk time around it, to
the speed at which a chunk takes CHUNK_REF_S: the reported times are
"reference seconds", and only a change in the library's own work moves
them.  A chunk runs after every operation, never at a point that depends on
time, so the library allocates in the same order in every round and the
garbage collector pauses in the same operations.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


# a calibration chunk counts as this long; about its time on the machine
# the README's reference figures come from
CHUNK_REF_S = 0.0005
# an operation's speed is the median of this many chunks on each side of it
WINDOW = 4
# chunks run before and after the set-up
SETUP_CHUNKS = 12


def calibration_chunk() -> Fraction:
    """Fixed interpreter work of the kinds the library does: tuple keys in a
    dict, Fraction arithmetic, a list sort.  It keeps nothing, and the
    collector is paused while it runs."""
    table: dict = {}
    acc = Fraction(0)
    values = []
    for i in range(200):
        key = (i % 17, i % 13, i % 7)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 7, 1 + i % 5)
        values.append((i * 7919) % 1009)
    values.sort()
    return acc


def timed_chunk(clock) -> float:
    enabled = gc.isenabled()
    gc.disable()
    t0 = clock()
    calibration_chunk()
    took = clock() - t0
    if enabled:
        gc.enable()
    return took


def main() -> int:
    workload, traced = sys.argv[1], sys.argv[2] == "1"
    clock = time.perf_counter
    # the set-up is rescaled too, by chunks run just before and after it;
    # run.py takes their time out of the set-up it measures
    setup_chunks = [timed_chunk(clock) for _ in range(SETUP_CHUNKS)]
    inputs = json.load(sys.stdin)
    out = sys.stdout
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads                     # after install: binds traced names

    errors: list[str] = []
    try:
        ops = workloads.WORKLOADS[workload](inputs)
    except (RuntimeError, ValueError) as exc:
        errors.append(f"setup: {exc}")
        ops = []
    gc.collect()
    setup_chunks += [timed_chunk(clock) for _ in range(SETUP_CHUNKS)]
    print("READY", json.dumps(setup_chunks), file=out, flush=True)

    # only floats and ints are kept while the operations run: they are not
    # tracked by the collector, so what is kept does not move the points
    # where it collects
    raw = []                 # per-operation wall times, checks included
    latencies = []           # per-operation wall times
    chunks = [timed_chunk(clock)]
    failed = 0
    unexpected = 0
    wall_start = clock()
    for op in ops:
        t0 = clock()
        try:
            result = op.run()
        except Exception as exc:         # a failed operation, counted and named
            latencies.append(clock() - t0)
            failed += 1
            if not op.known_fault:
                unexpected += 1
                errors.append(f"unexpected failure: {exc!r}")
        else:
            latencies.append(clock() - t0)
            err = op.check(result)
            if err:
                errors.append(err)
        raw.append(clock() - t0)
        chunks.append(timed_chunk(clock))
    wall_s = clock() - wall_start

    # operation j lies between chunks j and j + 1
    scales = [CHUNK_REF_S / statistics.median(chunks[max(0, j + 1 - WINDOW):j + 1 + WINDOW])
              for j in range(len(ops))]
    run_s = sum(t * k for t, k in zip(raw, scales))
    latencies = [t * k for t, k in zip(latencies, scales)]
    report = {
        "attempted": len(ops), "failed": failed, "unexpected": unexpected,
        "errors": errors[:5], "n_errors": len(errors),
        "run_s": run_s, "wall_s": wall_s, "latencies": latencies,
        "chunk_ms": statistics.median(chunks) * 1000.0,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }
    print(json.dumps(report), file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
