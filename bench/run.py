"""Benchmark entry point: one run of one workload, one JSON result line.

    python3 bench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it); the package is imported
from the checkout's ``src/``.  A run sets up the workload, repeats the set-up
in fresh processes for ``setup_s``, does an untimed warm-up on small inputs,
then runs whole rounds of the workload's operations until ``--seconds`` have
passed, checking every output.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or, from a separate traced run,
the per-layer metrics per round (``--trace 1``), whose spans are also written
to ``bench/out/``.  Exits nonzero without a result when the package is missing.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported here or in the
# set-up probes, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORKLOADS = ("ladder", "smp", "check")
# set-ups per run, counting the run's own; the median is reported
SETUPS = 5


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up only and print the set-up time")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import the checkout's own package, never an installed copy."""
    if not (SRC / "mvfbdsde" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'mvfbdsde'}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import mvfbdsde

    if Path(mvfbdsde.__file__).resolve().parent != SRC / "mvfbdsde":
        raise SystemExit(f"error: imported mvfbdsde from {mvfbdsde.__file__}, not {SRC}")


def probe_setups(args: argparse.Namespace, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    times = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def run_op(op) -> tuple[float, str | None, list[str]]:
    """Time one operation and check its output: (seconds, traceback if it
    raised, failed checks)."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception:
        return time.perf_counter() - start, traceback.format_exc(), []
    elapsed = time.perf_counter() - start
    return elapsed, None, op.check(out)


def main(argv: list[str]) -> int:
    args = parse(argv)
    t0 = time.perf_counter()
    import_package()
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer().install()
    inputs = workloads.setup(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    if tracer is None:
        setups = [setup_s] + probe_setups(args, SETUPS - 1)
    else:
        setup_mark = tracer.mark()

    ops = workloads.operations(args.workload, inputs)
    warm = workloads.operations(args.workload, workloads.setup(args.workload, args.seed, "warm"))
    for op in warm:
        try:
            op.run()
        except Exception:
            traceback.print_exc()
    if tracer is not None:
        measured_mark = tracer.mark()

    rounds: list[float] = []
    attempted = 0
    failed = 0
    check_failed = False
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        round_s = 0.0
        for op in ops:
            elapsed, crash, wrong = run_op(op)
            round_s += elapsed
            attempted += 1
            if crash or wrong:
                failed += 1
                check_failed |= bool(wrong)
                print(f"{op.name} failed:", crash or "; ".join(wrong), file=sys.stderr)
        rounds.append(round_s)

    if tracer is None:
        metrics = {
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
    else:
        tracer.uninstall()
        metrics = tracer.metrics(setup_mark, measured_mark, len(rounds))
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans, setup_end=setup_mark[0], measured_start=measured_mark[0],
                     round_s=rounds)
        print(f"traced median round {statistics.median(rounds):.4f} s "
              f"over {len(rounds)} rounds; spans in {spans}", file=sys.stderr)
    print(json.dumps({
        "correct": not check_failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
