"""Last Load Table (Section IV-A).

One entry per warp holding the PC of the last long-latency (global) load
that warp issued. Warps sharing the same LLPC executed the same load last,
so — since warps run the same kernel code — they are expected to execute
the *next* load at roughly the same point soon. That is the grouping signal
LAWS uses.
"""

from __future__ import annotations

import bisect
from typing import Optional


class LastLoadTable:
    """Warp-indexed table of last-load PCs.

    Alongside the table it keeps an index from each LLPC to the sorted
    list of warps holding it, so the group search copies one list instead
    of scanning every entry.
    """

    __slots__ = ("_llpc", "_warps_by_llpc")

    def __init__(self, num_warps: int):
        if num_warps < 1:
            raise ValueError("LLT needs at least one warp")
        self._llpc: list[Optional[int]] = [None] * num_warps
        #: LLPC -> ascending ids of the warps whose entry holds it.
        self._warps_by_llpc: dict[Optional[int], list[int]] = {
            None: list(range(num_warps))
        }

    def __len__(self) -> int:
        return len(self._llpc)

    def get(self, warp_id: int) -> Optional[int]:
        """LLPC of a warp; ``None`` until the warp issues its first load."""
        return self._llpc[warp_id]

    def update(self, warp_id: int, pc: int) -> None:
        old = self._llpc[warp_id]
        if old == pc:
            return
        index = self._warps_by_llpc
        members = index[old]
        members.remove(warp_id)
        if not members:
            del index[old]
        self._llpc[warp_id] = pc
        group = index.get(pc)
        if group is None:
            index[pc] = [warp_id]
        else:
            bisect.insort(group, warp_id)

    def warps_with_llpc(self, llpc: Optional[int]) -> list[int]:
        """All warps whose LLPC matches (the group-formation search), ascending."""
        group = self._warps_by_llpc.get(llpc)
        return group[:] if group is not None else []
