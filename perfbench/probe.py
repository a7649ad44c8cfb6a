"""The host-speed probe: a fixed pure-Python loop timed in its own process.

    python3 perfbench/probe.py

Each line read from standard input asks for one sample: the probe runs
:func:`reference_work` four times and writes the median time in
nanoseconds as one line.  It exits at end of input.  Running the loop in a separate,
otherwise idle interpreter with the garbage collector off keeps its time
independent of the benchmarked library's heap: its live objects, arena
fragmentation and collections.  It still shares the CPU (the benchmark pins
both to one), so it tracks the host's speed.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time


def reference_work() -> int:
    """A fixed mix of the dict, tuple and sort work the library does, on a
    table small enough to stay in the CPU's caches.  Its time then follows
    the host's speed, not where this process's pages happened to land: with
    one 20000-entry table, probe processes started side by side differed by
    up to 9% for the whole of their lives; with this one, by 0.5%."""
    total = 0
    for _ in range(20):
        table = {}
        for i in range(1000):
            table[(i, i & 7)] = i * 3
        for key, value in table.items():
            if key[1] == 3:
                total += value
        total += sorted(table.values(), key=lambda x: -x)[0]
    return total


def sample_ns(n: int = 4) -> int:
    """Median time of ``n`` calls of :func:`reference_work`."""
    took = []
    for _ in range(n):
        start = time.perf_counter_ns()
        reference_work()
        took.append(time.perf_counter_ns() - start)
    return int(statistics.median(took))


def main() -> int:
    # The loop makes no cycles: reference counting frees all it allocates.
    gc.disable()
    for _ in sys.stdin:
        sys.stdout.write(f"{sample_ns()}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
