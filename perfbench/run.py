"""linecover benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

An untraced run first times the import of linecover in a few fresh Python
processes, then starts one worker process (``worker.py``). The worker
checks every operation of the workload once, then repeats the operations
in passes until S seconds are used up. Each operation is short, so it
repeats many times. Calls such as a round of either law cut every
repetition into the same segments of a few milliseconds, and the
operation's time is the sum over segments of each segment's fastest
repetition. On a shared host the program's own cost is the floor under
the measured times; a run nearly always touches it for each short
segment, while whole-pass times, means and medians follow the host's slow
phases (see README.md).

- ``wall_s``: the sum of these floors over the workload's operations.
- ``agent_rounds_per_s``: agent-rounds of the completed operations over
  the sum of their floors without the set-up segments.
- ``setup_s``: the median import time plus the median over passes of the
  per-run set-up calls.
- ``peak_rss_mb``: the worker's peak RSS.
- ``ok_ops_share``: operations that passed their checks over those
  attempted.

With --trace 1 an untraced worker gets the first half of the time and a
traced worker the rest. The run reports the per-layer metrics of the
fastest traced pass and the tracing overhead (that pass's time minus the
fastest untraced pass's), and fails if a layer the workload must reach
recorded no calls.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exit code 0 means a result was
printed; 2 means the benchmark could not run (for example, no ``src/``).
CSV outputs go to a scratch directory ``.perfbench_tmp_*`` in the
repository root, deleted when the worker ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IMPORT_SAMPLES = 6        # import-only processes, besides the worker itself
WORKER_GRACE_S = 60       # past --seconds, before a worker is killed
# One thread for numpy's BLAS: the benchmark is one process with no extra
# workers, and a threaded BLAS that spins while another tenant holds the
# second CPU slowed the dense chain product by up to 5x on a 2-CPU box.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
from workloads import ACTIVE, KNOWN_DEFECT, OK, WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


def run_worker(*args: str, seconds: float = 0.0) -> dict:
    """Run worker.py in a child process and return its JSON record."""
    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench_tmp_", dir=ROOT))
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--out", str(out_dir),
           "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                              text=True, timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {seconds + WORKER_GRACE_S:.0f} s") from exc
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(record: dict, import_s: list[float]) -> dict:
    ops = record["ops"]
    done = [op for op in ops if op["status"] == OK and op["agent_rounds"] > 0]
    run_phase_s = sum(op["run_floor_s"] for op in done)
    setup_per_pass = [sum(op["setup_s"][i] for op in ops) for i in range(record["passes"])]
    return {
        "wall_s": (sum(op["floor_s"] for op in ops), "s"),
        "agent_rounds_per_s": (sum(op["agent_rounds"] for op in done) / run_phase_s
                               if run_phase_s > 0 else 0.0, "1/s"),
        "setup_s": (statistics.median(import_s + [record["import_s"]])
                    + statistics.median(setup_per_pass), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "ok_ops_share": (1.0 - record["failed"] / record["attempted"], "ratio"),
    }


def _span(record: dict, name: str) -> list:
    return record["spans"].get(name, [0, 0.0, 0.0, 0])


def per_layer(record: dict) -> dict:
    """Per-layer metrics of one traced pass (name -> (value, unit))."""
    def calls(name):
        return (_span(record, name)[0], "count")

    def total(name):
        return (_span(record, name)[1], "s")

    def self_s(name):
        return (_span(record, name)[2], "s")

    def per_call(name, scale, unit):
        n, t = _span(record, name)[:2]
        return (t / n * scale if n else 0.0, unit)

    inv = _span(record, "density.inverse_cdf")
    churn = [_span(record, f"lifted_chain.{f}") for f in ("add_agent", "remove_agent")]
    spans = record["spans"]
    m = {
        "density.inverse_cdf.calls": calls("density.inverse_cdf"),
        "density.inverse_cdf.self_s": self_s("density.inverse_cdf"),
        "density.inverse_cdf.us_per_point": (inv[2] / inv[3] * 1e6 if inv[3] else 0.0, "us"),
        "density.cdf.calls": calls("density.cdf"),
        "density.cdf.self_s": self_s("density.cdf"),
        "density.coverage.self_s": self_s("density.coverage"),
        "density.check_positions.calls": calls("density.check_positions"),
        "density.check_positions.self_s": self_s("density.check_positions"),
        "density.optimal_configuration.s": total("density.optimal_configuration"),
        "static_law.static_step.calls": calls("static_law.static_step"),
        "static_law.static_step.us_per_call": per_call("static_law.static_step", 1e6, "us"),
        "static_law.run_static.self_s": self_s("static_law.run_static"),
        "lifted_chain.chain_step.calls": calls("lifted_chain.chain_step"),
        "lifted_chain.chain_step.us_per_call": per_call("lifted_chain.chain_step", 1e6, "us"),
        "lifted_chain.movement_step.us_per_call":
            per_call("lifted_chain.movement_step", 1e6, "us"),
        "lifted_chain.simulate_dynamic.self_s": self_s("lifted_chain.simulate_dynamic"),
        "lifted_chain.build_chain.calls": calls("lifted_chain.build_chain"),
        "lifted_chain.build_chain.s": total("lifted_chain.build_chain"),
        "lifted_chain.init_z.s": total("lifted_chain.init_z"),
        "lifted_chain.churn.s": (sum(s[1] for s in churn), "s"),
        "lifted_chain.stationary.s": total("lifted_chain.stationary"),
        "lifted_chain.mixing_profile.s": total("lifted_chain.mixing_profile"),
        "lifted_chain.spreading_min.s": total("lifted_chain.spreading_min"),
        "spectral.spectrum.calls": calls("spectral.spectrum"),
        "spectral.spectrum.ms_per_call": per_call("spectral.spectrum", 1e3, "ms"),
        "spectral.build_system.s": total("spectral.build_system"),
        "harness.run_one.calls": calls("harness.run_one"),
        "harness.convergence_time.s": total("harness.convergence_time"),
        "harness.initial_positions.s": total("harness.initial_positions"),
        "harness.rounds_to_tol": (record["rounds_to_tol"], "count"),
        "trace.rows": (record["trace_rows"], "count"),
        "trace.position_mb": (record["position_bytes"] / 1e6, "MB"),
        "cli.write_trace_csv.s": total("cli.write_trace_csv"),
        "cli.csv_mb": (record["csv_bytes"] / 1e6, "MB"),
    }
    for layer in ("density", "static_law", "lifted_chain", "spectral", "harness", "cli"):
        m[f"{layer}.self_s"] = (sum(s[2] for n, s in spans.items()
                                    if n.startswith(layer + ".")), "s")
    m["bench.self_time_share"] = (sum(s[2] for s in spans.values()) / record["wall_s"],
                                  "ratio")
    m["bench.traced_wall_s"] = (record["wall_s"], "s")
    return m


def missing_layers(workload: str, trace: dict) -> list[str]:
    return [name for name in ACTIVE[workload] if _span(trace, name)[0] == 0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the child
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (ROOT / "src" / "linecover" / "__init__.py").is_file():
        print(f"perfbench: no linecover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    traced = None
    try:
        if args.trace:
            plain = run_worker(*common, "--trace", "0", seconds=args.seconds / 2)
            left = args.seconds - (time.perf_counter() - start)
            traced = run_worker(*common, "--trace", "1", seconds=left)
        else:
            import_s = [run_worker("--import-only")["import_s"]
                        for _ in range(IMPORT_SAMPLES)]
            left = args.seconds - (time.perf_counter() - start)
            plain = run_worker(*common, "--trace", "0", seconds=left)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    records = [plain] if traced is None else [plain, traced]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = all(op["status"] in (OK, KNOWN_DEFECT) for r in records for op in r["ops"])

    if traced is not None:
        missing = missing_layers(args.workload, traced["trace"])
        if missing:
            print(f"perfbench: no calls recorded for {missing}", file=sys.stderr)
            correct = False
        metrics = per_layer({**traced["trace"], "csv_bytes": traced["csv_bytes"]})
        metrics["bench.tracing_overhead_s"] = (
            traced["fastest_pass_s"] - plain["fastest_pass_s"], "s")
    else:
        metrics = end_to_end(plain, import_s)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
