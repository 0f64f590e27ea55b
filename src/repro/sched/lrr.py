"""Loose Round-Robin — the paper's baseline scheduler."""

from __future__ import annotations

from typing import Optional

from repro.sched.base import OfferedWarps, WarpScheduler, first_warp_from


class LRRScheduler(WarpScheduler):
    """Equal priority for all warps, scanned circularly from the last issuer.

    All ready warps get a turn before any warp gets a second one, which
    makes every warp reach long-latency loads at roughly the same time —
    the behaviour Section VI blames for memory contention.
    """

    name = "lrr"

    def __init__(self) -> None:
        super().__init__()
        self._next = 0

    def reset(self, num_warps: int) -> None:
        super().reset(num_warps)
        self._next = 0

    def select(self, offered: OfferedWarps, cycle: int) -> Optional[int]:
        ready = offered.ready
        if not ready:
            return None
        wid = first_warp_from(ready, self._next)
        self._next = (wid + 1) % self._num_warps
        return wid
