"""CAWA-style criticality-aware warp scheduling (Lee et al., ISCA '15).

Kernel time is bounded by the slowest (critical) warp. CAWA predicts
criticality from lag — how far a warp's retired-instruction count trails
the leader's — and gives critical warps issue priority so the tail
shrinks. This is the greedy-oldest family's opposite: instead of running
leaders further ahead, it drags stragglers forward. Included as a
related-work baseline (Section VI cites CAWA/CAWS among the scheduling
techniques APRES is positioned against).
"""

from __future__ import annotations

from typing import Optional

from repro.sched.base import OfferedWarps, WarpScheduler


class CAWAScheduler(WarpScheduler):
    """Most-lagging-warp-first issue scheduling."""

    name = "cawa"

    def __init__(self) -> None:
        super().__init__()
        self._retired: list[int] = []

    def reset(self, num_warps: int) -> None:
        super().reset(num_warps)
        self._retired = [0] * num_warps

    def criticality(self, warp_id: int) -> int:
        """Instructions this warp trails the leader by (>= 0)."""
        return max(self._retired) - self._retired[warp_id]

    def select(self, offered: OfferedWarps, cycle: int) -> Optional[int]:
        if not offered.ready:
            return None
        # Most critical first; ``min`` keeps the first of equals and the
        # offered ids ascend, so the lowest warp id breaks ties.
        return min(offered, key=self._retired.__getitem__)

    def notify_issue(self, warp_id: int, is_mem: bool, cycle: int) -> None:
        self._retired[warp_id] += 1
        self.events += 1

    def notify_warp_finished(self, warp_id: int) -> None:
        # A finished warp must not define the lag baseline.
        self._retired[warp_id] = -1
