"""Host-speed calibration: a fixed pure-Python loop timed next to the workload.

The 2-CPU virtual machines this benchmark runs on share their physical
cores with other tenants. Their speed for interpreted Python drifts by up
to 1.5x over minutes, in CPU time as well as wall time (CPU time already
leaves out time the hypervisor gave to others). A loop that no change to
the simulator can touch, timed between the workload's points, slows down
with the host, so the ratio of the two keeps the simulator's cost and
drops most of the host's drift.

Times the benchmark reports in seconds are *reference seconds*: the CPU
seconds a run would take on a host that runs :func:`calibrate`'s loop in
exactly ``REFERENCE_S`` seconds. Ratios between two commits are what the
bounds compare, so the choice of ``REFERENCE_S`` only sets the scale.
"""

from __future__ import annotations

import heapq
import time

#: Seconds one calibration loop takes on the reference host.
REFERENCE_S = 0.1
#: Loop trips: 0.05 to 0.1 s of CPU on the 2-CPU hosts, short enough to
#: run after every point of a pass.
TRIPS = 30_000
#: Objects the loop walks over.
LINES = 65_536
#: What the loop returns; a different value means it did not run as written.
CHECKSUM = 720_768


class _Line:
    """A cache-line-like record: the attribute traffic the simulator makes."""

    __slots__ = ("tag", "warp", "hits")

    def __init__(self, tag: int, warp: int):
        self.tag = tag
        self.warp = warp
        self.hits = 0

    def touch(self, tag: int) -> bool:
        if self.tag == tag:
            self.hits += 1
            return True
        self.tag = tag
        return False


def _loop(trips: int) -> int:
    """Attribute access, method calls, dict and heap traffic, small ints,
    over a few megabytes of objects, as the simulator's tables are."""
    lines = [_Line(i, i % 48) for i in range(LINES)]
    table: dict[int, int] = {}
    events: list[tuple[int, int]] = []
    total = 0
    for i in range(trips):
        addr = (i * 2654435761) & 0xFFFFFF
        line = lines[addr % LINES]
        if line.touch(addr >> 12):
            total += line.warp
        key = addr & 0x3FFF
        table[key] = table.get(key, 0) + 1
        heapq.heappush(events, (i + (addr & 31), line.warp))
        while events and events[0][0] <= i:
            total += heapq.heappop(events)[1]
    return total + len(table)


def calibrate() -> float:
    """CPU seconds of one calibration loop on this host, as it is now."""
    started = time.process_time()
    result = _loop(TRIPS)
    elapsed = time.process_time() - started
    if result != CHECKSUM:
        raise RuntimeError(f"calibration loop returned {result}, expected {CHECKSUM}")
    return elapsed


def reference_seconds(cpu_s: float, calibration_s: float) -> float:
    """``cpu_s`` measured while one calibration loop took ``calibration_s``,
    rescaled to the reference host."""
    return cpu_s * REFERENCE_S / calibration_s
