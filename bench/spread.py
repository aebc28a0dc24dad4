"""Run-to-run spread of the benchmark: several fresh runs per workload, one
seed each, summarised as median and quartile spread per metric.

    python3 bench/spread.py --runs 10 --seconds 30 [--trace 1] [ladder smp check]

Each metric's spread is (Q3 - Q1) / median over the runs, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  Raw results go to
``bench/out/spread-<workload>-trace<0|1>-from<first seed>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=["ladder", "smp", "check"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
            results.append(json.loads(done.stdout.splitlines()[-1]))
        out = BENCH / "out" / f"spread-{workload}-trace{args.trace}-from{args.first_seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(results, indent=1))
        shares = {(r["failed"], r["attempted"]) for r in results}
        print(f"{workload}: {args.runs} runs, all correct: "
              f"{all(r['correct'] for r in results)}, (failed, attempted): {sorted(shares)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:28s} median {med:12.6g}  min {min(values):12.6g}  "
                  f"max {max(values):12.6g}  IQR/median {spread:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
