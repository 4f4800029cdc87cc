"""In-run machine-speed calibration.

The sandbox this benchmark runs in changes speed under it.  Sampled for
seven minutes at this commit, a fixed engine round (``fig1_scan``) took
64.5 ms for most of the time and 106 ms for a contiguous 100 s, and
bursts of about a second at 1.8x come and go besides — the guest sees no
steal time, and nothing else was running.  Swings of that size dwarf any
regression bound, so every time the ledger reports is scaled to a
*reference speed*: between rounds the harness times the fixed kernel
below, and a round measured while the kernel took ``k`` seconds is
reported multiplied by ``REFERENCE_S / k`` (``k`` being the median of
the kernel samples around that round).

The kernel is shaped like the engine's hot paths — ``struct`` decoding,
small-object and dict allocation, attribute reads, a keyed sort —
because the slow-downs are not pure clock-rate changes: a tight integer
loop slowed 1.40x while the engine slowed 1.65x.  Measured over 12 runs
each, scaling round by round took the run-to-run range of the median
round from 69 % to 4.3 % on ``fig1_scan`` and from 63 % to 7.4 % on
``query_point`` (p90: 46 % to 11 % and 45 % to 10 %).

The kernel is part of the benchmark: changing it changes every
reported time, so it is edited only together with a re-baseline.
"""

from __future__ import annotations

import statistics
import struct
import time

#: What the kernel takes on the quiet 2-core box the round counts were
#: sized on; times are reported as if it always took this long.
REFERENCE_S = 0.0047
#: Kernel runs per calibration point around a set-up.
REPEATS = 5

_RECORD = struct.Struct(">IHB")
_BLOB = b"".join(_RECORD.pack(i, i % 60000, i % 200) for i in range(2000))


class _Row:
    __slots__ = ("key", "values", "refs")

    def __init__(self, key, values, refs):
        self.key = key
        self.values = values
        self.refs = refs


def kernel() -> float:
    """Seconds one run of the fixed kernel takes right now."""
    clock = time.perf_counter
    started = clock()
    kept = []
    for _ in range(3):
        table = {}
        for offset in range(0, len(_BLOB), _RECORD.size):
            key, weight, tag = _RECORD.unpack_from(_BLOB, offset)
            row = _Row(key, {"w": weight, "name": "n%d" % tag}, [key, weight, tag])
            table[key] = row
            if row.values["w"] > 30000 and tag % 3:
                kept.append(row)
        kept.sort(key=lambda row: row.values["w"])
        del kept[100:]
    return clock() - started


def point() -> float:
    """A steadier sample for one-off timings: the median of ``REPEATS``
    kernel runs."""
    return statistics.median(kernel() for _ in range(REPEATS))


def scale(kernel_seconds: float, cpu_seconds: float, wall_seconds: float) -> float:
    """Factor that takes an interval measured while the kernel took
    ``kernel_seconds`` to the reference speed.

    Only the part of the interval the process spent on the CPU runs
    slower on a slow machine; the part it spent waiting (fsync, sockets,
    another thread's lock) does not.  So the CPU share of the interval
    is scaled by ``REFERENCE_S / kernel_seconds`` and the rest is left
    as measured.  A CPU-bound interval gets the plain ratio.
    """
    share = min(1.0, cpu_seconds / wall_seconds) if wall_seconds > 0 else 0.0
    return 1.0 - share * (1.0 - REFERENCE_S / kernel_seconds)
