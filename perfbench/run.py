"""The benchmark: one workload, measured end to end or traced by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload plant-poll --seed 2018 \\
        --seconds 30 --trace 0

Every measurement is one run of the workload in a fresh single-threaded
process (:mod:`worker`).  With ``--trace 0`` the runner repeats fresh
processes until ``--seconds`` is spent (at least three) and reports the
median of each end-to-end metric.  With ``--trace 1`` it runs one
untraced and one traced process and reports the per-layer ledger.

The modelled outputs must repeat exactly in every process of one seed,
traced or not, and each workload's own output checks must pass;
otherwise the result says ``"correct": false`` and the exit code is 1.
The last stdout line is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plant-poll", "tsch-faults", "campus-10k")
#: The seed used unless one is given, and the one kept for confirming a
#: claim on inputs nobody tuned against (BENCHMARK.json has no key for
#: either).
DEFAULT_SEED = 2018
HELD_OUT_SEED = 7919
#: Fresh processes per untraced run, at least (medians need three).
MIN_PROCESSES = 3
#: Simulated-latency samples a workload must produce per process.
MIN_LATENCY_SAMPLES = 200
#: Host times are reported at the speed of a host on which the worker's
#: reference loop takes this long (its typical time on a 2-core cloud
#: VM): each process's times are scaled by this over its own reference
#: time.  See README.md, "Host noise".
REFERENCE_S = 0.3
#: One invocation must end within this many seconds.
DEADLINE_S = 170.0
#: Thread pools pinned to one thread: the host has two cores, and
#: numpy's BLAS would otherwise hold three threads in every process.
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END = (
    ("run_s", "s"), ("setup_s", "s"), ("slice_ms_p50", "ms"),
    ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"),
    ("sim_latency_p50_ms", "sim_ms"), ("sim_latency_p95_ms", "sim_ms"),
    ("duty_cycle", "ratio"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def spawn(workload: str, seed: int, traced: bool, timeout_s: float) -> Dict:
    """Run one measurement in a fresh process; returns its record."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--traced")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONDONTWRITEBYTECODE="1", **SINGLE_THREAD)
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(1.0, timeout_s))
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} worker failed:\n"
                           f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def problems(records: List[Dict]) -> List[str]:
    """Every reason the records are not a correct result."""
    found = []
    for record in records:
        kind = "traced" if record["traced"] else "untraced"
        found += [f"{kind}: {error}" for error in record["errors"]]
        if record["outputs"]["attempted"] < 1:
            found.append(f"{kind}: no operation attempted")
        if record["latency_samples"] < MIN_LATENCY_SAMPLES:
            found.append(f"{kind}: {record['latency_samples']} latency "
                         f"samples, fewer than {MIN_LATENCY_SAMPLES}")
    digests = {record["digest"] for record in records}
    if len(digests) > 1:
        found.append(f"modelled outputs differ across {len(records)} "
                     f"processes of one seed ({len(digests)} variants)")
    return found


def speed_scale(record: Dict) -> float:
    """Factor that puts one process's host times at reference speed."""
    return REFERENCE_S / record["reference_s"]


def fastest_slices(records: List[Dict]) -> List[float]:
    """Per slice, the fastest process's time (ms, at reference speed).

    Every process of one seed runs the same slices of identical work,
    so the per-slice minimum drops the host's slow phases (see
    README.md) without dropping any of the work.
    """
    scaled = ([t * speed_scale(r) for t in r["slices_ms"]] for r in records)
    return [min(times) for times in zip(*scaled)]


def end_to_end(records: List[Dict]) -> Dict[str, float]:
    """Host metrics over processes; modelled metrics (equal in all)."""
    first = records[0]
    outputs = first["outputs"]
    slices = fastest_slices(records)
    return {
        "run_s": sum(slices) / 1e3,
        "setup_s": statistics.median(r["setup_s"] * speed_scale(r)
                                     for r in records),
        "slice_ms_p50": statistics.median(slices),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "ok_ratio": _ratio(outputs["ok"], outputs["attempted"]),
        "sim_latency_p50_ms": first["latency_p50_ms"],
        "sim_latency_p95_ms": first["latency_p95_ms"],
        "duty_cycle": outputs["duty_cycle"],
    }


def per_layer(untraced: Dict, traced: Dict) -> Dict[str, tuple]:
    """The ledger: exact counters, traced self times, set-up split."""
    c = defaultdict(int, traced["counters"])  # absent layers count 0
    n = traced["ledger"]["counts"]
    ms = {layer: value * speed_scale(traced)
          for layer, value in traced["ledger"]["self_ms"].items()}
    setup_ms = 1e3 * speed_scale(untraced)
    drops = sum(c[f"net.datagrams_dropped_{why}"]
                for why in ("no_route", "ttl", "link"))
    return {
        "sim.events": (c["sim.events"], "count"),
        "sim.events_per_op": (_ratio(c["sim.events"],
                                     traced["outputs"]["attempted"]), "1/op"),
        "sim.cancel_share": (_ratio(n["cancelled"], n["scheduled"]), "ratio"),
        "sim.self_ms": (ms["sim"], "ms"),
        "radio.frames": (c["radio.frames_sent"], "count"),
        "radio.rx_per_frame": (_ratio(c["radio.frames_received"],
                                      c["radio.frames_sent"]), "ratio"),
        "radio.collisions_per_frame": (_ratio(c["radio.collision"],
                                              c["radio.frames_sent"]), "ratio"),
        "radio.neighborhood_builds": (n["neighborhood_builds"], "count"),
        "radio.transitions": (n["transitions"], "count"),
        "radio.self_ms": (ms["radio"], "ms"),
        "mac.attempts_per_success": (_ratio(c["mac.tx_attempts"],
                                            c["mac.tx_success"]), "ratio"),
        "mac.queue_drops": (c["mac.queue_drops"], "count"),
        "mac.slot_ticks": (n["slot_ticks"], "count"),
        "mac.slot_use_ratio": (_ratio(n["slot_used"], n["slot_ticks"]), "ratio"),
        "mac.cell_use_ratio": (_ratio(c["mac.cells_used"],
                                      c["mac.cells_elapsed"]), "ratio"),
        "mac.sixp_sent": (c["mac.sixp_sent"], "count"),
        "mac.self_ms": (ms["mac"], "ms"),
        "rpl.dio_sent": (c["rpl.dio_sent"], "count"),
        "rpl.dao_sent": (c["rpl.dao_sent"], "count"),
        "rpl.parent_changes": (c["rpl.parent_changes"], "count"),
        "rpl.self_ms": (ms["rpl"], "ms"),
        "net.forwards_per_delivered": (_ratio(c["net.datagrams_forwarded"],
                                              c["net.datagrams_delivered"]),
                                       "ratio"),
        "net.fragments_per_datagram": (_ratio(c["net.fragments_sent"],
                                              c["net.datagrams_sent"]), "ratio"),
        "net.drops": (drops, "count"),
        "net.self_ms": (ms["net"], "ms"),
        "coap.retransmits_per_request": (_ratio(c["coap.retransmits"],
                                                c["coap.requests"]), "ratio"),
        "coap.self_ms": (ms["coap"], "ms"),
        "agg.self_ms": (ms["agg"], "ms"),
        "crdt.rounds": (c["crdt.rounds"], "count"),
        "crdt.self_ms": (ms["crdt"], "ms"),
        "obs.spans_stored": (c["obs.spans_stored"], "count"),
        "obs.self_ms": (ms["obs"], "ms"),
        "checking.self_ms": (ms["checking"], "ms"),
        "checking.violations": (c["checking.violations"], "count"),
        "setup.import_ms": (setup_ms * untraced["import_s"], "ms"),
        "setup.build_ms": (setup_ms * untraced["build_s"], "ms"),
        "setup.form_ms": (setup_ms * untraced["form_s"], "ms"),
        "trace.overhead": (_ratio(traced["run_s"] * speed_scale(traced),
                                  untraced["run_s"] * speed_scale(untraced)),
                           "ratio"),
        "other.self_ms": (ms["other"], "ms"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run the processes; returns ``(records, metrics)``."""
    began = time.perf_counter()

    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - began)

    if trace:
        records = [spawn(workload, seed, False, left()),
                   spawn(workload, seed, True, left())]
        return records, per_layer(records[0], records[1])
    records: List[Dict] = []
    longest = 0.0
    while True:
        start = time.perf_counter()
        records.append(spawn(workload, seed, False, left()))
        longest = max(longest, time.perf_counter() - start)
        spent = time.perf_counter() - began
        if spent + longest > (seconds if len(records) >= MIN_PROCESSES
                              else DEADLINE_S):
            break
    units = dict(END_TO_END)
    return records, {name: (value, units[name])
                     for name, value in end_to_end(records).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2

    records, metrics = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    found = problems(records)
    outputs = records[0]["outputs"]
    print(f"{args.workload} seed {args.seed}: {len(records)} processes, "
          f"{outputs['attempted']} operations each, "
          f"{records[0]['latency_samples']} latency samples, "
          f"{len(records[0]['slices_ms'])} slices; reference loop "
          + ", ".join(f"{r['reference_s']:.3f}" for r in records)
          + f" s (nominal {REFERENCE_S} s); wall run_s per process "
          + ", ".join(f"{r['run_s']:.3f}" for r in records))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
    if args.trace:
        spans = records[1]["ledger"]["spans"]
        print("  spans per layer: " + ", ".join(
            f"{layer} {count}" for layer, count in spans.items()))
    for problem in found:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": not found,
        "attempted": sum(r["outputs"]["attempted"] for r in records),
        "failed": sum(r["outputs"]["failed"] for r in records),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not found else 1


if __name__ == "__main__":
    sys.exit(main())
