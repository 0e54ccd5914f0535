"""A fixed reference computation that measures how fast the machine is now.

The benchmark's machines are shared virtual CPUs whose speed drifts by up
to 2x over seconds to minutes, and process time drifts with wall time, so
no amount of repetition inside one run removes the drift.  Timing this
reference next to every operation gives the speed at that moment: each
latency is then reported as `measured * REFERENCE_S / reference_time`,
the time the operation would take on a machine where the reference takes
REFERENCE_S.  Both sides of a comparison use the same reference, so a
slower program still reads slower; only the machine's drift cancels.

The reference mixes what the package spends its time on (tuple-keyed dict
updates, list updates, rational arithmetic on growing integers) and
allocates nothing the cyclic garbage collector tracks, so it neither
triggers collections that belong to the program nor depends on how much
the program keeps alive.  It takes about half a millisecond.
"""

from __future__ import annotations

from math import gcd
from statistics import median
from time import perf_counter

# about the reference's duration on the machine the benchmark was tuned on
REFERENCE_S = 0.0005

_KEYS = [(i % 7, i % 5, i % 3) for i in range(512)]
_TABLE: dict = {}
_SLOTS = [0] * 64


def reference() -> float:
    """Run the reference once and return its duration in seconds."""
    start = perf_counter()
    table, slots = _TABLE, _SLOTS
    table.clear()
    for i in range(1500):
        key = _KEYS[i & 511]
        table[key] = table.get(key, 0) + i
        slots[i & 63] = (slots[i & 63] + i) & 0xFFFF
    num, den = 3, 7
    for _ in range(30):
        num, den = 5 * num + 7 * den, 7 * den
        common = gcd(num, den)
        num, den = num // common, den // common
    return perf_counter() - start


def scale(samples: list[float]) -> float:
    """Factor that converts a time measured next to `samples` to reference speed."""
    return REFERENCE_S / median(samples)


def normalized(latencies: list[float], references: list[float]) -> list[float]:
    """Latencies at reference speed; references[i] ran just before operation i.

    Each operation uses the median of the four references around it, so a
    single interrupted reference does not distort it.
    """
    return [
        latency * scale(references[max(0, i - 1) : i + 3])
        for i, latency in enumerate(latencies)
    ]
