"""Repeated passes of one workload in a fresh process; prints a JSON record.

Usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
                                   --out DIR --seconds S
       python3 perfbench/worker.py --import-only

Imports linecover from ``src/`` next to this directory and installs the
spans (all layers when --trace 1, only the calls in ``spans.MARKS``
otherwise). The first pass runs the workload's operations in order,
checks each output in full and keeps its fingerprint; it also warms the
process up and is not timed. Timed passes then repeat until S seconds
after the start of this process are used up (at least one; another only
while the last one would still fit). Each repetition of an operation is
timed on its own and its fingerprint must match the first pass.

Untraced, the marks cut every repetition of an operation into the same
sequence of segments. The operation's floor is the sum over segments of
each segment's fastest repetition, with and without the set-up segments
(see README.md).

The record holds, per operation, the status, agent-rounds, the seconds of
every timed repetition with the set-up seconds inside it, and the floors;
the import seconds; peak RSS; the bytes of CSV written; the count of
attempted and failed operations; the time of the fastest timed pass; and
with --trace 1 the span statistics of that pass. With --import-only it
holds only the import seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import linecover          # imports every layer but the CLI, and numpy
    import linecover.cli
    import_s = time.perf_counter() - t0
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    from spans import Recorder, SegmentFloor, segments
    from workloads import KNOWN_DEFECT, OK, WORKLOADS, WRONG, Context

    recorder = Recorder()
    recorder.install(traced=bool(args.trace))
    ctx = Context(linecover=linecover, out_dir=args.out, seed=args.seed)
    ops = WORKLOADS[args.workload]

    records, prints = [], []
    for op in ops:
        result = op.run(ctx)
        outcome = op.check(ctx, result)
        if outcome.status not in (OK, KNOWN_DEFECT):
            print(f"{args.workload}/{op.name}: {outcome.note}", file=sys.stderr)
        prints.append(op.fingerprint(ctx, result))
        records.append({"name": op.name, "status": outcome.status,
                        "agent_rounds": outcome.agent_rounds, "run_s": [], "setup_s": []})

    deadline = start + args.seconds
    passes, best_pass_s, best_trace, last_pass_s = 0, float("inf"), None, 0.0
    floors = [SegmentFloor() for _ in ops]
    while passes == 0 or time.perf_counter() + last_pass_s < deadline:
        recorder.reset()
        t_pass = time.perf_counter()
        pass_s = 0.0
        for op, record, expected, floor in zip(ops, records, prints, floors):
            setup_before = recorder.setup_s
            recorder.marks.clear()
            t0 = time.perf_counter()
            result = op.run(ctx)
            t1 = time.perf_counter()
            run_s = t1 - t0
            if not args.trace and not floor.add(*segments(t0, t1, recorder.marks)):
                print(f"{args.workload}/{op.name}: a repetition cut into other segments "
                      "than the first", file=sys.stderr)
                record["status"] = WRONG
            pass_s += run_s
            record["run_s"].append(run_s)
            record["setup_s"].append(recorder.setup_s - setup_before)
            if op.fingerprint(ctx, result) != expected:
                print(f"{args.workload}/{op.name}: output differs from the first pass",
                      file=sys.stderr)
                record["status"] = WRONG
        passes += 1
        last_pass_s = time.perf_counter() - t_pass
        if pass_s < best_pass_s:
            best_pass_s = pass_s
            if args.trace:
                best_trace = {**recorder.snapshot(), "wall_s": pass_s}

    if not args.trace:
        for record, floor in zip(records, floors):
            record.update(floor.summary())
    attempted = len(ops) * (passes + 1)
    failed = sum(r["status"] != OK for r in records) * (passes + 1)
    print(json.dumps({
        "ops": records,
        "passes": passes,
        "fastest_pass_s": best_pass_s,
        "attempted": attempted,
        "failed": failed,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "csv_bytes": sum(e.stat().st_size for e in os.scandir(args.out)
                         if e.name.endswith(".csv")),
        "trace": best_trace,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
