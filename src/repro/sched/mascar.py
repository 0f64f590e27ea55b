"""MASCAR: Memory Aware Scheduling and Cache Access Re-execution
(Sethia et al., HPCA '15).

When the memory subsystem saturates, interleaving more memory warps only
lengthens queues. MASCAR switches to a *memory phase*: exactly one owner
warp may issue memory operations (running ahead and pipelining its misses)
while every other warp is restricted to compute, draining the queues.
Saturation is detected from L1 MSHR occupancy with hysteresis.
"""

from __future__ import annotations

from typing import Optional

from repro.sched.base import (
    OfferedWarps,
    WarpScheduler,
    first_warp_from,
    lowest_warp,
)


class MASCARScheduler(WarpScheduler):
    """Saturation-gated owner-warp memory scheduling."""

    name = "mascar"

    def __init__(self, saturate_on: float = 0.9, saturate_off: float = 0.5):
        super().__init__()
        if not 0.0 <= saturate_off <= saturate_on <= 1.0:
            raise ValueError("need 0 <= saturate_off <= saturate_on <= 1")
        self._sat_on = saturate_on
        self._sat_off = saturate_off
        self._saturated = False
        self._owner: Optional[int] = None
        self._owner_busy = False
        self._next = 0

    def reset(self, num_warps: int) -> None:
        super().reset(num_warps)
        self._saturated = False
        self._owner = None
        self._owner_busy = False
        self._next = 0

    @property
    def in_memory_phase(self) -> bool:
        return self._saturated

    def _update_saturation(self) -> None:
        if self._l1 is None:
            return
        occupancy = self._l1.mshr_occupancy
        if not self._saturated and occupancy >= self._sat_on:
            self._saturated = True
        elif self._saturated and occupancy <= self._sat_off:
            self._saturated = False
            self._owner = None
            self._owner_busy = False

    def select(self, offered: OfferedWarps, cycle: int) -> Optional[int]:
        ready = offered.ready
        if not ready:
            return None
        self._update_saturation()
        if not self._saturated:
            wid = first_warp_from(ready, self._next)
            self._next = (wid + 1) % self._num_warps
            return wid

        mem = ready & offered.mem
        compute = ready ^ mem
        owner = self._owner
        owner_ready = owner is not None and mem >> owner & 1
        if owner is None or (not owner_ready and not self._owner_busy):
            owner = self._owner = lowest_warp(mem) if mem else None
            owner_ready = owner is not None
        # Owner's memory work leads; everyone else may only compute.
        if owner_ready:
            return owner
        if compute:
            return lowest_warp(compute)
        return None

    def notify_issue(self, warp_id: int, is_mem: bool, cycle: int) -> None:
        if is_mem and warp_id == self._owner:
            self._owner_busy = True

    def notify_mem_complete(self, warp_id: int, cycle: int) -> None:
        if warp_id == self._owner:
            self._owner_busy = False

    def notify_warp_finished(self, warp_id: int) -> None:
        if warp_id == self._owner:
            self._owner = None
            self._owner_busy = False
