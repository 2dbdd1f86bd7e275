"""Benchmark of the hecke-functor library: one command, three workloads.

    python3 perfbench/run.py --workload {hecke_kernel,pullback,cli_session}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The inputs are made from the seed here;
each round then runs in a fresh interpreter (perfbench/round.py) that gets
only those inputs.  Rounds repeat, one after another, until S seconds of
rounds have passed (at least one).  The last line of standard output is one
JSON object: correct, attempted, failed and the metrics, the end-to-end
ones with --trace 0 and the per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import WORKLOADS  # noqa: E402
from round import CHUNK_REF_S  # noqa: E402

# a run ends within this many seconds of starting, or fails without a result
RUN_DEADLINE_S = 170
# the tail reported is the highest of these with >= 10 samples beyond it
# in one round; it depends only on the workload's operations per round
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(ops_per_round: int) -> float:
    for p in TAIL_LADDER:
        if ops_per_round * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


class Round:
    """One child interpreter running one round."""

    def __init__(self, workload: str, payload: str, traced: bool, deadline: float):
        # a fixed hash seed fixes set and dict iteration order, and so the
        # work done.  Every round compiles the library from source: no
        # byte-code is written, and the cache prefix (never created) hides
        # any stale __pycache__ in the checkout
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPYCACHEPREFIX=os.path.join(ROOT, ".perfbench_cache"))
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "round.py"), workload,
             "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
            cwd=ROOT)
        self.watchdog = threading.Timer(max(0.0, deadline - time.perf_counter()),
                                        self.proc.kill)
        self.watchdog.start()
        self.proc.stdin.write(payload)
        self.proc.stdin.close()

    def finish(self) -> tuple[float, float, dict]:
        """Wait for the round; return its set-up time in reference seconds,
        when it became ready, and its report."""
        try:
            ready = self.proc.stdout.readline()
            ready_at = time.perf_counter()
            last = self.proc.stdout.read()
        finally:
            self.proc.wait()
            self.watchdog.cancel()
        word, _, chunks = ready.partition(" ")
        if word != "READY" or self.proc.returncode != 0:
            raise RuntimeError(f"round exited with code {self.proc.returncode}")
        chunks = json.loads(chunks)
        setup = (ready_at - self.spawned - sum(chunks)) \
            * CHUNK_REF_S / statistics.median(chunks)
        return setup, ready_at, json.loads(last.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    payload = json.dumps(WORKLOADS[workload](seed))
    plan = [False, True] if traced else [False]
    reports = {False: [], True: []}
    setup_s = None
    started = None
    while started is None or time.perf_counter() - started < seconds \
            or not all(reports[t] for t in plan):
        for t in plan:
            setup, ready_at, report = Round(workload, payload, t, deadline).finish()
            if setup_s is None:
                setup_s, started = setup, ready_at
            reports[t].append(report)
    everything = reports[False] + reports[True]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    correct = all(r["n_errors"] == 0 and r["unexpected"] == 0 for r in everything)
    for r in everything:
        for err in r["errors"]:
            print(f"check failed: {err}", file=sys.stderr)

    untraced = reports[False]
    run_s = statistics.median(r["run_s"] for r in untraced)
    if not traced:
        ops = untraced[0]["attempted"]
        tail = tail_percentile(ops)
        # every round runs the same operations: an operation's latency is
        # its median over the rounds, which keeps one slow round from
        # moving the percentiles
        per_op = [statistics.median(v) * 1000.0
                  for v in zip(*(r["latencies"] for r in untraced))]
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "op_p50_ms": (statistics.median(per_op), "ms"),
            "op_tail_ms": (percentile(per_op, tail), "ms"),
            "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in untraced) / 1024.0,
                            "MB"),
        }
        print(f"{workload}: {len(untraced)} rounds of {ops} operations; "
              f"per round: run_s {[round(r['run_s'], 3) for r in untraced]}, "
              f"wall s {[round(r['wall_s'], 3) for r in untraced]}, "
              f"calibration chunk ms {[round(r['chunk_ms'], 3) for r in untraced]}; "
              f"op_tail_ms is p{tail:g} of {ops} per-operation medians",
              file=sys.stderr)
    else:
        traces = [r["trace"] for r in reports[True]]
        metrics = {}
        for name, value in traces[0].items():
            if name.endswith("_s"):
                value = statistics.median(t[name] for t in traces)
            elif any(t[name] != value for t in traces):
                print(f"count {name} differs between traced rounds", file=sys.stderr)
                correct = False
            metrics[name] = (value, "s" if name.endswith("_s") else "count")
        metrics["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in reports[True]) - run_s, "s")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "hecke_functor")):
        print("no src/hecke_functor under the checkout root: nothing to measure",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
