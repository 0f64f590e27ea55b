"""Two-level warp scheduling (Narasiman et al., MICRO-44)."""

from __future__ import annotations

from typing import Optional

from repro.sched.base import OfferedWarps, WarpScheduler, first_warp_from


class TwoLevelScheduler(WarpScheduler):
    """Warps split into fetch groups; one group is active at a time.

    The active group is scheduled round-robin; when none of its warps can
    issue (they all hit long-latency operations) the scheduler activates
    the next group, hiding the stall behind fresh warps.
    """

    name = "twolevel"

    def __init__(self, group_size: int = 8, interleaved: bool = False):
        super().__init__()
        if group_size < 1:
            raise ValueError("group size must be positive")
        self._group_size = group_size
        self._interleaved = interleaved
        self._active_group = 0
        self._next_in_group = 0
        self._groups: list[list[int]] = []
        #: Per group, the bitmask of its members.
        self._group_masks: list[int] = []

    def reset(self, num_warps: int) -> None:
        super().reset(num_warps)
        num_groups = max(1, (num_warps + self._group_size - 1) // self._group_size)
        self._groups = [[] for _ in range(num_groups)]
        for wid in range(num_warps):
            if self._interleaved:
                self._groups[wid % num_groups].append(wid)
            else:
                self._groups[wid // self._group_size].append(wid)
        self._group_masks = [sum(1 << w for w in group) for group in self._groups]
        self._active_group = 0
        self._next_in_group = 0

    def group_of(self, warp_id: int) -> int:
        """Group index of a warp (membership is static)."""
        if self._interleaved:
            return warp_id % len(self._groups)
        return warp_id // self._group_size

    def select(self, offered: OfferedWarps, cycle: int) -> Optional[int]:
        ready = offered.ready
        if not ready:
            return None
        num_groups = len(self._groups)
        for g_offset in range(num_groups):
            gid = (self._active_group + g_offset) % num_groups
            members = ready & self._group_masks[gid]
            if not members:
                continue
            # Members ascend by warp id, so the round-robin from position
            # ``_next_in_group`` is a wrapping first-set-bit search from
            # that member's id (every group starts at that position).
            group = self._groups[gid]
            wid = first_warp_from(members, group[self._next_in_group % len(group)])
            self._active_group = gid
            self._next_in_group = (group.index(wid) + 1) % len(group)
            return wid
        return None
