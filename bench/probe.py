"""A fixed piece of pure-Python work that measures how fast the machine
runs at this moment.

The machine the benchmark was built on changes speed by up to a third
within seconds and between minutes; process CPU time changes with it, so
the time is not stolen by other guests but lost to a slower processor.
The benchmark therefore times every item between two probes and scales
the item's time by PROBE_NS / (mean of the two probe times): times are
reported at the speed the machine had when PROBE_NS was measured. The
probe shares no code with knotbands, so a change to the library cannot
move it. ``python3 bench/probe.py`` prints the median of 2000 probes.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

PROBE_NS = 450_000  # median probe time on the baseline machine (README)


def probe() -> int:
    """Nanoseconds taken by a fixed mix of Fraction, dict and list work."""
    start = time.perf_counter_ns()
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction(k * k - 7, 3 * k + 1)
    counts: dict = {}
    for i in range(600):
        key = (i * 31 % 97, i % 7)
        counts[key] = counts.get(key, 0) + i
    rows = [[(i * j) % 5 - 2 for j in range(12)] for i in range(12)]
    sum(x for r in rows for x in r if x)
    return time.perf_counter_ns() - start


def speed() -> float:
    """Machine speed now as a share of the baseline speed, from the
    median of five probes (the first after a pause runs cold)."""
    return PROBE_NS / statistics.median(probe() for _ in range(5))


if __name__ == "__main__":
    print(statistics.median(probe() for _ in range(2000)))
