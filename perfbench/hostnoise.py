"""Measure the host's speed phases: how much slower, how often, how long.

Usage: ``python3 perfbench/hostnoise.py [--seconds 20] [--chunk-ms 5]``

Times a fixed chunk of pure-Python work back to back.  A chunk slower
than 1.25x the fastest decile's median counts as slow; consecutive slow
(or fast) chunks form one phase.  Prints the slow/fast speed ratio, the
share of wall time spent slow, and the phase-length quartiles — the
numbers the benchmark's steadiness choices rest on (see README.md).
Last, it splits the chunks into 0.5 s, 2 s and 5 s windows and prints
how much the windows' mean speed spreads: the noise floor of a timing
that long.
"""

from __future__ import annotations

import argparse
import statistics
import time


def _work(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--chunk-ms", type=float, default=5.0)
    args = parser.parse_args(argv)

    n = 1000
    while True:  # size the chunk to about --chunk-ms on this host
        start = time.perf_counter()
        _work(n)
        if time.perf_counter() - start > args.chunk_ms / 1e3:
            break
        n *= 2
    chunks = []
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        _work(n)
        chunks.append(time.perf_counter() - start)

    ordered = sorted(chunks)
    fast = statistics.median(ordered[:max(1, len(ordered) // 10)])
    slow_flags = [c > 1.25 * fast for c in chunks]
    slow = [c for c, s in zip(chunks, slow_flags) if s]
    phases = {True: [], False: []}
    run_len, run_flag = 0.0, slow_flags[0]
    for c, flag in zip(chunks, slow_flags):
        if flag != run_flag:
            phases[run_flag].append(run_len)
            run_len, run_flag = 0.0, flag
        run_len += c
    phases[run_flag].append(run_len)

    def quartiles(values):
        if len(values) < 4:
            return "n/a"
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return f"{q1 * 1e3:.0f}/{q2 * 1e3:.0f}/{q3 * 1e3:.0f} ms"

    print(f"chunks: {len(chunks)} of {statistics.median(chunks) * 1e3:.2f} ms "
          f"(fastest-decile median {fast * 1e3:.2f} ms)")
    if slow:
        print(f"slow/fast speed ratio: {statistics.median(slow) / fast:.2f}")
    print(f"wall share slow: {sum(slow) / sum(chunks):.1%}")
    print(f"slow phases: {len(phases[True])}, length q1/median/q3 "
          f"{quartiles(phases[True])}")
    print(f"fast phases: {len(phases[False])}, length q1/median/q3 "
          f"{quartiles(phases[False])}")
    # How steady is a measurement of a given length?  Split the chunks
    # into back-to-back windows and compare their mean chunk times.
    for window_s in (0.5, 2.0, 5.0):
        per = max(1, int(window_s / statistics.mean(chunks)))
        means = [statistics.mean(chunks[i:i + per])
                 for i in range(0, len(chunks) - per + 1, per)]
        if len(means) >= 4:
            q1, q2, q3 = statistics.quantiles(means, n=4)
            print(f"{window_s:>4} s windows: {len(means)}, quartile spread "
                  f"{(q3 - q1) / q2:.1%}, max/min {max(means) / min(means):.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
