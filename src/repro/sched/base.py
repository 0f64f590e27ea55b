"""Warp-scheduler interface.

Every cycle the SM pipeline offers the scheduler the issue-ready warps as
an :class:`OfferedWarps` pair of bitmasks: ``ready`` (bit ``w`` set when
warp ``w`` may issue this cycle) and ``mem`` (bit ``w`` set when warp
``w``'s next instruction is a load or store), so throttling policies like
CCWS/MASCAR can gate loads without gating arithmetic. APRES's hardware
keeps warps in the same form: a WGT entry is a warp bit-vector, and LAWS
issues the first ready warp from its queue head. The load-store unit
feeds back per-load cache outcomes — the signal LAWS builds its groups
on — and the L1 reports evictions for CCWS's victim tags.
"""

from __future__ import annotations

import abc
from typing import Iterable, Iterator, Optional, Sequence

from repro.mem.cache import L1Cache
from repro.mem.request import LoadAccess


class OfferedWarps:
    """The warps a scheduler may pick from this cycle, as two bitmasks.

    The pipeline reuses one instance per SM and rewrites both masks before
    every :meth:`WarpScheduler.select`, so a scheduler must not keep it
    across calls. Only bits of ``ready`` are offered; ``mem`` may carry
    bits of warps that are not.
    """

    __slots__ = ("ready", "mem")

    def __init__(self, ready: int = 0, mem: int = 0):
        self.ready = ready
        self.mem = mem

    @classmethod
    def of(cls, warps: Iterable[int], mem: Iterable[int] = ()) -> "OfferedWarps":
        """Offer ``warps``; those also in ``mem`` have a load/store next."""
        ready = 0
        for w in warps:
            ready |= 1 << w
        mem_mask = 0
        for w in mem:
            mem_mask |= 1 << w
        return cls(ready, mem_mask)

    def __len__(self) -> int:
        return self.ready.bit_count()

    def __iter__(self) -> Iterator[int]:
        """Offered warp ids, ascending."""
        ready = self.ready
        while ready:
            low = ready & -ready
            yield low.bit_length() - 1
            ready ^= low


def lowest_warp(mask: int) -> int:
    """Id of the lowest set bit of a non-zero warp mask."""
    return (mask & -mask).bit_length() - 1


def first_warp_from(mask: int, start: int) -> int:
    """First set bit of a non-zero mask at or after ``start``, wrapping.

    The round-robin step of LRR-style schedulers, for masks whose bits
    all lie below the warp count.
    """
    high = mask >> start
    if high:
        return start + lowest_warp(high)
    return lowest_warp(mask)


class WarpScheduler(abc.ABC):
    """Base class for issue schedulers.

    Subclasses override :meth:`select`; the notification hooks default to
    no-ops. ``events`` counts bookkeeping operations for the energy model.
    """

    name = "base"

    def __init__(self) -> None:
        self.events = 0
        self._num_warps = 0
        self._l1: Optional[L1Cache] = None
        #: Per-SM telemetry proxy (set by the pipeline when tracing).
        self.telemetry = None

    def reset(self, num_warps: int) -> None:
        """(Re)initialise state for an SM with ``num_warps`` warps."""
        self._num_warps = num_warps

    def attach_l1(self, l1: L1Cache) -> None:
        """Give occupancy-sensitive policies (MASCAR) a view of the L1."""
        self._l1 = l1

    @abc.abstractmethod
    def select(self, offered: OfferedWarps, cycle: int) -> Optional[int]:
        """Pick a warp whose bit is set in ``offered.ready``, or ``None``
        to stay idle. The pipeline rejects any other pick."""

    # ------------------------------------------------------------------
    # Feedback hooks
    # ------------------------------------------------------------------

    def notify_issue(self, warp_id: int, is_mem: bool, cycle: int) -> None:
        """An instruction from ``warp_id`` was issued."""

    def notify_load_result(self, access: LoadAccess) -> None:
        """LSU feedback: a load's primary request hit or missed L1."""

    def notify_eviction(self, filler_warp: int, line_addr: int) -> None:
        """L1 evicted a line that ``filler_warp`` brought in."""

    def notify_mem_complete(self, warp_id: int, cycle: int) -> None:
        """All outstanding memory requests of ``warp_id`` completed."""

    def notify_prefetch_targets(self, target_warps: Sequence[int]) -> None:
        """The prefetcher issued prefetches on behalf of these warps."""

    def notify_warp_finished(self, warp_id: int) -> None:
        """``warp_id`` retired its last instruction."""
