"""Run one workload once in this (fresh) process and print its record.

Usage: ``python3 perfbench/worker.py --workload NAME --seed N [--traced]``
from the repository root.  :mod:`run` starts one of these per
measurement, so every record has its own imports, its own heap and its
own peak resident set.  The record is one JSON line on stdout.
"""

import time

#: Process start, before any ``repro`` import: ``setup_s`` counts from here.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def percentile(values, fraction):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def add(self, amount: float) -> float:
        self.value += amount
        return self.value


def time_reference() -> float:
    """Seconds this host takes for a fixed piece of pure-Python work.

    The work imitates the simulator's hot paths without using its code:
    heap pushes and pops, seeding a ``random.Random`` per item (as link
    shadowing does), dict updates and method calls on slotted objects.
    A change to ``repro`` cannot change this time; a slower host can.
    """
    start = time.perf_counter()
    rng = random.Random(1)
    heap, totals, cells = [], {}, [_Cell() for _ in range(64)]
    for i in range(24000):
        heapq.heappush(heap, (rng.random(), i))
        draw = random.Random(i).gauss(0.0, 2.0)
        totals[i % 512] = totals.get(i % 512, 0.0) + cells[i % 64].add(draw)
        if len(heap) > 256:
            heapq.heappop(heap)
    return time.perf_counter() - start


def digest(payload) -> str:
    """Stable hash of the modelled outputs (floats compared bit-exactly)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def run(name: str, seed: int, traced: bool) -> dict:
    from workloads import WORKLOADS

    ledger = None
    if traced:
        import ledger as ledger_module
        ledger = ledger_module.install()
    workload = WORKLOADS[name](seed)
    imported = time.perf_counter()
    workload.build()
    if ledger is not None:
        ledger_module.attach(ledger, workload)
    built = time.perf_counter()
    workload.form()

    workload.begin()
    set_up = time.perf_counter()
    # The host's speed, measured just before and just after the timed
    # phase (see README.md: its drift over minutes dwarfs everything else).
    reference_s = [time_reference()]
    sim = workload.sim
    before = workload.counters()
    workload.mark_duty()
    if ledger is not None:
        ledger.reset()
    origin = sim.now
    slices_ms = []
    count = int(round(workload.timed_s / workload.slice_s))
    started = time.perf_counter()
    for index in range(1, count + 1):
        until = origin + index * workload.slice_s
        tick = time.perf_counter()
        if ledger is None:
            sim.run(until=until)
        else:
            ledger.call("sim", sim.run, (), {"until": until})
        slices_ms.append(1e3 * (time.perf_counter() - tick))
    run_s = time.perf_counter() - started
    reference_s.append(time_reference())
    workload.end()

    after = workload.counters()
    counters = {key: after[key] - before.get(key, 0) for key in after}
    outputs = workload.outputs()
    latencies = outputs.pop("latencies_s")
    record = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "setup_s": set_up - _STARTED,
        "import_s": imported - _STARTED,
        "build_s": built - imported,
        "form_s": set_up - built,
        "run_s": run_s,
        "reference_s": sum(reference_s) / len(reference_s),
        "slices_ms": slices_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
        "latency_samples": len(latencies),
        "latency_p50_ms": 1e3 * percentile(latencies, 0.5) if latencies else 0.0,
        "latency_p95_ms": 1e3 * percentile(latencies, 0.95) if latencies else 0.0,
        "counters": counters,
        "digest": digest({"outputs": outputs, "latencies": latencies,
                          "counters": counters}),
        "errors": workload.errors,
    }
    if ledger is not None:
        record["ledger"] = {
            "self_ms": ledger.self_ms(run_s),
            "spans": ledger.spans,
            "counts": ledger.counts,
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.traced)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
