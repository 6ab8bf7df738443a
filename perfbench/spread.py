"""Run-to-run spread of the end-to-end metrics, against their bounds.

Usage, from the repository root::

    python3 perfbench/spread.py --runs 10 [--workloads tsch-faults ...]

Runs ``perfbench/run.py --trace 0`` once per (seed, workload), seeds
``base-seed .. base-seed + runs - 1``, interleaving the workloads so a
slow stretch of the host lands on all of them alike.  For every metric
it prints the median and the quartile spread ``(Q3 - Q1) / median``
(``statistics.quantiles(values, n=4)``) next to the metric's bound in
``BENCHMARK.json``; ``--json PATH`` also writes every value.  Exit code
1 when a spread other than ``setup_s`` exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--base-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--json", help="write every measured value here")
    args = parser.parse_args(argv)

    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in args.workloads}
    for seed in range(args.base_seed, args.base_seed + args.runs):
        for workload in args.workloads:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 2
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)

    over = []
    for workload, metrics in values.items():
        print(f"\n{workload} ({args.runs} runs)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            share = spread(metrics[name])
            flag = ""
            if share > bound and name != "setup_s":
                flag = "  OVER BOUND"
                over.append(f"{workload}/{name}")
            elif share > bound / 3:
                flag = "  over a third of the bound"
            print(f"  {name:<22} median {statistics.median(metrics[name]):>12.6g}"
                  f"  spread {share:7.2%}  bound {bound:.0%}{flag}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(values, handle, indent=1)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
