"""One SM's issue pipeline.

Each cycle the SM issues at most one warp-instruction, chosen by the
scheduler. Loads are coalesced into line requests and sent to the L1; if
the L1 runs out of MSHRs mid-load the remaining requests enter a replay
queue that blocks further memory issue (a structural hazard) until they
commit. The LSU reports each load's primary outcome back to the scheduler
(the signal LAWS acts on) and to the prefetcher, whose candidates are
issued into the L1 as prefetch fills.

The set of issuable warps is kept incrementally instead of rescanned:

* ``_ready`` — bitmask of warps that are not finished, have no request
  outstanding and whose ``ready_at`` has passed;
* ``_wake`` — heap of ``(ready_at, warp_id)`` for warps waiting only on
  their ``ready_at`` (an ALU latency, a store slot, or the cycle after
  their last fill); ``cycle(now)`` first moves every entry ``<= now``
  into ``_ready``;
* ``_mem`` — bitmask of warps whose next instruction is a load or store.

So a cycle offers the scheduler ``_ready`` (less ``_mem`` while the LSU is
blocked), charges ``(_ready & _mem).bit_count()`` structural stalls, and
reads its next wake-up from the heap top, with no loop over the warps.

A cycle that offers the scheduler no candidate and commits no replayed
line *latches* the SM (:attr:`SMCore.latched_until`): until its next
warp wake-up, a fill releasing an MSHR on its L1, or a completion that
readies one of its warps, every further cycle would repeat the same
counter increments and nothing else, so the simulator charges those
instead of calling :meth:`SMCore.cycle`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, Optional

from repro.config import GPUConfig
from repro.errors import InvariantError, SimulationError
from repro.isa.instructions import Instr, Op
from repro.isa.program import KernelSpec
from repro.mem.cache import AccessOutcome, L1Cache
from repro.mem.request import LoadAccess
from repro.mem.subsystem import MemorySubsystem
from repro.prefetch.base import Prefetcher
from repro.sched.base import OfferedWarps, WarpScheduler
from repro.sm.warp import WarpContext
from repro.stats.counters import SimStats
from repro.telemetry.events import (
    LoadIssueEvent,
    LoadOutcomeEvent,
    MemCompleteEvent,
    PrefetchDropEvent,
    PrefetchIssueEvent,
    SchedGroupEvent,
    WarpIssueEvent,
)

#: Observer invoked for every executed load: ``fn(access, line_hits)``.
LoadObserver = Callable[[LoadAccess, list[bool]], None]

#: ``latched_until`` of a latched SM that no warp wake-up can end: only a
#: completion or an MSHR release can.
NO_WAKE = 1 << 62


class _WarpMemDone:
    """Completion callback for one of a warp's line requests.

    A module-level callable (not a closure) so MSHR callback lists and the
    event queue stay picklable for checkpointing.
    """

    __slots__ = ("sm", "warp")

    def __init__(self, sm: "SMCore", warp: WarpContext):
        self.sm = sm
        self.warp = warp

    def __call__(self, when: int) -> None:
        self.sm._mem_done(self.warp, when)


class _PendingLoad:
    """A load whose line requests have not all been accepted by the L1."""

    __slots__ = ("warp", "pc", "primary_addr", "remaining", "line_addrs", "line_hits")

    def __init__(
        self,
        warp: WarpContext,
        pc: int,
        primary_addr: int,
        remaining: deque[int],
        line_addrs: tuple[int, ...],
        line_hits: list[bool],
    ):
        self.warp = warp
        self.pc = pc
        self.primary_addr = primary_addr
        self.remaining = remaining
        self.line_addrs = line_addrs
        self.line_hits = line_hits


class SMCore:
    """Cycle-level model of one streaming multiprocessor."""

    __slots__ = (
        "sm_id",
        "_config",
        "_scheduler",
        "_prefetcher",
        "_l1",
        "_subsystem",
        "_stats",
        "warps",
        "_replay",
        "_is_mem_at",
        "_issue_latency",
        "_line_size",
        "_finished_warps",
        "mem_requests_issued",
        "mem_requests_completed",
        "load_observers",
        "_telemetry",
        "_ready",
        "_wake",
        "_mem",
        "_offered",
        "latch_mshrs",
        "latched_until",
        "latch_released",
        "latch_fails",
        "latch_stalls",
    )

    #: MSHR occupancy above which prefetches are dropped.
    PREFETCH_MSHR_LIMIT = 0.75
    #: Loads that can wait on MSHR reservation before memory issue blocks.
    LSU_QUEUE_DEPTH = 4

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        kernel: KernelSpec,
        scheduler: WarpScheduler,
        prefetcher: Prefetcher,
        l1: L1Cache,
        subsystem: MemorySubsystem,
        stats: SimStats,
    ):
        self.sm_id = sm_id
        self._config = config
        self._scheduler = scheduler
        self._prefetcher = prefetcher
        self._l1 = l1
        self._subsystem = subsystem
        self._stats = stats
        wave_stride = config.num_sms * config.max_warps_per_sm
        if not kernel.fresh_waves:
            wave_stride = 0
        self.warps = [
            WarpContext(w, sm_id * config.max_warps_per_sm + w, kernel, wave_stride)
            for w in range(config.max_warps_per_sm)
        ]
        self._replay: deque[_PendingLoad] = deque()
        self._is_mem_at = tuple(i.is_mem for i in kernel.body)
        # Hoisted config scalars: the cycle loop reads these every issue and
        # attribute chains through frozen dataclasses are comparatively slow.
        self._issue_latency = config.issue_latency
        self._line_size = config.l1.line_size
        #: Warps whose ``finished`` flag is set, so ``done`` is O(1).
        self._finished_warps = 0
        #: Line requests handed to the L1 / completed back, for the
        #: integrity layer's conservation check against warp.outstanding.
        self.mem_requests_issued = 0
        self.mem_requests_completed = 0
        self.load_observers: list[LoadObserver] = []
        #: Per-SM telemetry proxy; ``None`` (the default) keeps the issue
        #: loop's instrumentation to one identity test per cycle.
        self._telemetry = None
        #: Issue state (module docstring): every warp starts ready at
        #: cycle 0 on the kernel's first instruction.
        self._ready = (1 << len(self.warps)) - 1
        self._wake: list[tuple[int, int]] = []
        self._mem = self._ready if self._is_mem_at[0] else 0
        #: The one object :meth:`cycle` hands to ``scheduler.select``.
        self._offered = OfferedWarps()
        self.latch_mshrs = l1.mshrs
        #: Quiescence latch, armed by an inert :meth:`cycle`: before this
        #: cycle, while ``latch_mshrs.released_total`` still equals
        #: ``latch_released``, a cycle would only add 1 to ``idle_cycles``,
        #: ``latch_fails`` to the L1's ``reservation_fails`` and
        #: ``latch_stalls`` to ``lsu_structural_stalls``. 0 = not latched.
        self.latched_until = 0
        self.latch_released = 0
        self.latch_fails = 0
        self.latch_stalls = 0
        scheduler.reset(len(self.warps))
        scheduler.attach_l1(l1)
        prefetcher.reset(len(self.warps))
        l1.eviction_listener = scheduler.notify_eviction

    def attach_telemetry(self, proxy) -> None:
        """Share one per-SM telemetry proxy with the engines and the L1.

        Stall attribution classifies every idle cycle, so an SM with a
        proxy attached never latches.
        """
        self._telemetry = proxy
        self._scheduler.telemetry = proxy
        self._prefetcher.telemetry = proxy
        self._l1.telemetry = proxy

    # ------------------------------------------------------------------
    # Public state
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._finished_warps == len(self.warps) and not self._replay

    def next_wake_hint(self, now: int) -> Optional[int]:
        """Earliest future cycle a warp becomes ready without an event.

        Warps stalled on memory (or loads parked in the replay queue) wake
        through fill events, so they contribute no hint.
        """
        wake = self._wake
        if not wake:
            return None
        first = wake[0][0]
        if first > now:
            return first
        # Entries due by ``now`` are drained by the next cycle(); skip them.
        return min((t for t, _ in wake if t > now), default=None)

    def next_issuable_hint(self, now: int) -> Optional[int]:
        """Earliest wake-up that could actually *issue*, LSU permitting.

        Like :meth:`next_wake_hint`, but when the LSU replay queue is
        full, warps whose next instruction is a load/store are skipped:
        they cannot issue until a fill drains the queue, and fills arrive
        as events (which are jump targets of their own). Used by the
        sharded engine's relaxed mode to fast-forward past wake-ups that
        would only charge structural stalls; the serial engine and the
        lock-step mode keep using :meth:`next_wake_hint`, whose
        tick-accurate stall accounting they preserve.
        """
        if len(self._replay) < self.LSU_QUEUE_DEPTH:
            return self.next_wake_hint(now)
        mem = self._mem
        return min((t for t, w in self._wake if t > now and not mem >> w & 1),
                   default=None)

    def has_pending_work(self, now: int) -> bool:
        """True when :meth:`cycle` at ``now`` could do more than count idle.

        Exactly the condition under which ``cycle(now)`` mutates anything
        besides ``idle_cycles``: a parked load to retry, or a ready warp
        (even if it only charges an LSU structural stall). The sharded
        engine's lock-step mode uses this to skip inert SMs while
        reproducing the serial engine's counters bit-for-bit. The serial
        engine skips a wider set — SMs that only retry failing
        reservations or charge structural stalls too — by the quiescence
        latch (:attr:`latched_until`).
        """
        wake = self._wake
        return bool(self._replay or self._ready or (wake and wake[0][0] <= now))

    def pending_work_or_hint(self, now: int) -> tuple[bool, Optional[int]]:
        """``(has_pending_work(now), wake hint)`` in one call.

        The hint is only produced on the ``False`` branch (it is exactly
        :meth:`next_wake_hint`, and — the replay queue being empty —
        also :meth:`next_issuable_hint`); when there *is* pending work
        the hint is ``None``.
        """
        if self._replay or self._ready:
            return True, None
        wake = self._wake
        if not wake:
            return False, None
        first = wake[0][0]
        if first <= now:
            return True, None
        return False, first

    # ------------------------------------------------------------------
    # Cycle loop
    # ------------------------------------------------------------------

    def cycle(self, now: int) -> bool:
        """Advance one cycle; returns True if an instruction was issued."""
        self.latched_until = 0
        wake = self._wake
        ready = self._ready
        while wake and wake[0][0] <= now:
            ready |= 1 << heappop(wake)[1]
        self._ready = ready
        replay = self._replay
        committed = self._process_replay(now) if replay else False
        stats = self._stats

        offer = ready
        stalls = 0
        if len(replay) >= self.LSU_QUEUE_DEPTH:
            blocked = ready & self._mem
            if blocked:
                offer ^= blocked
                stalls = blocked.bit_count()
                stats.lsu_structural_stalls += stalls
        if not offer:
            stats.idle_cycles += 1
            tel = self._telemetry
            if tel is not None:
                tel.on_idle(self, now, stalls)
            elif not committed:
                # Inert: nothing this cycle did can differ next cycle
                # until a warp wakes or a fill lands (see module docstring).
                self.latched_until = wake[0][0] if wake else NO_WAKE
                self.latch_released = self.latch_mshrs.released_total
                self.latch_fails = len(replay)
                self.latch_stalls = stalls
            return False

        offered = self._offered
        offered.ready = offer
        offered.mem = self._mem
        chosen = self._scheduler.select(offered, now)
        if chosen is None:
            stats.idle_cycles += 1
            tel = self._telemetry
            if tel is not None:
                tel.on_throttle(now)
            return False
        if chosen < 0 or not offer >> chosen & 1:
            raise SimulationError(
                f"SM {self.sm_id}: scheduler {self._scheduler.name!r} picked "
                f"warp {chosen!r} at cycle {now}, which was not offered",
                details={"cycle": now, "sm": self.sm_id, "chosen": chosen,
                         "offered": list(offered)},
            )
        warp = self.warps[chosen]
        if warp.outstanding:
            # Only corruption behind the pipeline's back gets here: the
            # ready mask is maintained exactly as warps stall and wake.
            raise InvariantError(
                f"SM {self.sm_id} invariant violated at cycle {now}: ready "
                f"warp {chosen} outstanding count is "
                f"{'negative' if warp.outstanding < 0 else 'nonzero'} "
                f"({warp.outstanding})",
                details={"cycle": now, "invariant": "ready mask vs outstanding",
                         "sm": self.describe()},
            )
        self._ready = ready ^ (1 << chosen)
        self._issue(warp, warp.current_instr, now)
        return True

    # ------------------------------------------------------------------
    # Issue paths
    # ------------------------------------------------------------------

    def _issue(self, warp: WarpContext, instr: Instr, now: int) -> None:
        stats = self._stats
        stats.instructions += 1
        tel = self._telemetry
        if tel is not None:
            tel.on_issue()
            if tel.events:
                if instr.op is Op.ALU:
                    dur = self._issue_latency
                elif instr.op is Op.STORE:
                    dur = 1
                else:
                    dur = None  # a load's span ends at its mem_complete
                tel.emit(
                    WarpIssueEvent(
                        cycle=now,
                        sm=self.sm_id,
                        warp=warp.warp_id,
                        pc=instr.pc,
                        op=instr.op.name,
                        dur=dur,
                    )
                )
        self._scheduler.notify_issue(warp.warp_id, instr.is_mem, now)
        if instr.op is Op.ALU:
            # ALU chains are dependent: the next same-warp issue waits.
            stats.alu_instructions += 1
            warp.ready_at = now + self._issue_latency
        elif instr.op is Op.STORE:
            # Stores retire into the write path without blocking the warp.
            stats.store_instructions += 1
            _, lines = instr.addr_gen.coalesced(
                warp.global_id, warp.iteration, self._line_size
            )
            self._subsystem.store(self.sm_id, lines, now)
            warp.ready_at = now + 1
        else:
            stats.load_instructions += 1
            self._issue_load(warp, instr, now)
        self._finish_instruction(warp)

    def _issue_load(self, warp: WarpContext, instr: Instr, now: int) -> None:
        addr_gen = instr.addr_gen
        assert addr_gen is not None
        primary, lines = addr_gen.coalesced(
            warp.global_id, warp.iteration, self._line_size
        )
        # Stall on use: the warp resumes when its last request returns.
        warp.outstanding += len(lines)
        self.mem_requests_issued += len(lines)
        warp.ready_at = now + 1
        tel = self._telemetry
        if tel is not None and tel.events:
            tel.emit(
                LoadIssueEvent(
                    cycle=now,
                    sm=self.sm_id,
                    warp=warp.warp_id,
                    pc=instr.pc,
                    primary_addr=primary,
                    num_lines=len(lines),
                )
            )
        pending = _PendingLoad(
            warp=warp,
            pc=instr.pc,
            primary_addr=primary,
            remaining=deque(lines),
            line_addrs=tuple(lines),
            line_hits=[],
        )
        self._drain_pending(pending, now)
        if pending.remaining:
            self._replay.append(pending)

    def _process_replay(self, now: int) -> bool:
        """Retry stalled loads in order; a stuck head does not starve the rest.

        Returns True if any line request committed to the L1.
        """
        replay = self._replay
        committed = False
        for _ in range(len(replay)):
            pending = replay[0]
            before = len(pending.remaining)
            self._drain_pending(pending, now)
            if pending.remaining:
                committed |= len(pending.remaining) != before
                replay.rotate(-1)
            else:
                committed = True
                replay.popleft()
        return committed

    def _drain_pending(self, pending: _PendingLoad, now: int) -> None:
        """Send line requests to L1 until done or a reservation fails."""
        warp = pending.warp
        while pending.remaining:
            line = pending.remaining[0]
            outcome, ready = self._l1.access(
                line, warp.warp_id, now, on_fill=_WarpMemDone(self, warp)
            )
            if outcome is AccessOutcome.STALL:
                return
            pending.remaining.popleft()
            hit = outcome is AccessOutcome.HIT
            pending.line_hits.append(hit)
            if hit:
                assert ready is not None
                self._subsystem.record_hit_latency(ready - now)
                self._subsystem.events.schedule(ready, _WarpMemDone(self, warp))
            if len(pending.line_hits) == 1:
                # Primary request committed: emit the LSU feedback.
                self._emit_load_feedback(pending, hit, now)
        # All lines committed; remaining per-line outcomes (for observers)
        # were accumulated as they went.
        if self.load_observers and len(pending.line_hits) == len(pending.line_addrs):
            access = LoadAccess(
                sm_id=self.sm_id,
                warp_id=warp.warp_id,
                pc=pending.pc,
                primary_addr=pending.primary_addr,
                line_addrs=pending.line_addrs,
                primary_hit=pending.line_hits[0],
                cycle=now,
            )
            for observer in self.load_observers:
                observer(access, list(pending.line_hits))

    def _emit_load_feedback(self, pending: _PendingLoad, primary_hit: bool, now: int) -> None:
        access = LoadAccess(
            sm_id=self.sm_id,
            warp_id=pending.warp.warp_id,
            pc=pending.pc,
            primary_addr=pending.primary_addr,
            line_addrs=pending.line_addrs,
            primary_hit=primary_hit,
            cycle=now,
        )
        tel = self._telemetry
        emit_events = tel is not None and tel.events
        if emit_events:
            tel.emit(
                LoadOutcomeEvent(
                    cycle=now,
                    sm=self.sm_id,
                    warp=access.warp_id,
                    pc=access.pc,
                    hit=primary_hit,
                )
            )
        self._scheduler.notify_load_result(access)
        candidates = self._prefetcher.observe_load(access)
        line_size = self._line_size
        targets = []
        for cand in candidates:
            line = cand.addr - (cand.addr % line_size)
            # Prefetches must not crowd out demand misses: leave MSHR
            # headroom (adaptive throttling, as both STR and SAP do).
            if self._l1.mshr_occupancy >= self.PREFETCH_MSHR_LIMIT:
                self._l1.stats.prefetch_dropped += 1
                if emit_events:
                    tel.emit(
                        PrefetchDropEvent(
                            cycle=now,
                            sm=self.sm_id,
                            line_addr=line,
                            reason="mshr_pressure",
                        )
                    )
                continue
            issued = self._l1.prefetch(line, now)
            if issued:
                if emit_events:
                    tel.emit(
                        PrefetchIssueEvent(
                            cycle=now,
                            sm=self.sm_id,
                            line_addr=line,
                            target_warp=cand.target_warp,
                        )
                    )
                if cand.target_warp is not None:
                    targets.append(cand.target_warp)
        if targets:
            self._scheduler.notify_prefetch_targets(targets)
            if emit_events:
                tel.emit(
                    SchedGroupEvent(
                        cycle=now,
                        sm=self.sm_id,
                        action="promote",
                        warps=tuple(targets),
                    )
                )

    def _mem_done(self, warp: WarpContext, when: int) -> None:
        warp.outstanding -= 1
        self.mem_requests_completed += 1
        if warp.outstanding < 0:
            raise AssertionError("memory completion underflow")
        if warp.outstanding == 0:
            warp.ready_at = max(warp.ready_at, when)
            if not warp.finished:
                heappush(self._wake, (warp.ready_at, warp.warp_id))
            self.latched_until = 0
            tel = self._telemetry
            if tel is not None and tel.events:
                tel.emit(
                    MemCompleteEvent(cycle=when, sm=self.sm_id, warp=warp.warp_id)
                )
            self._scheduler.notify_mem_complete(warp.warp_id, when)

    def _finish_instruction(self, warp: WarpContext) -> None:
        warp.advance()
        bit = 1 << warp.warp_id
        if self._is_mem_at[warp.pc_index]:
            self._mem |= bit
        else:
            self._mem &= ~bit
        if warp.finished:
            self._finished_warps += 1
            self._scheduler.notify_warp_finished(warp.warp_id)
        elif not warp.outstanding:
            # An ALU op or a store: the warp waits only on ``ready_at``.
            heappush(self._wake, (warp.ready_at, warp.warp_id))

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def check_invariants(self, now: int) -> None:
        """Conservation checks over warp and request state (read-only).

        Raises :class:`InvariantError` with a structured snapshot on the
        first violation.
        """

        def violate(message: str) -> None:
            raise InvariantError(
                f"SM {self.sm_id} invariant violated at cycle {now}: {message}",
                details={"cycle": now, "invariant": message, "sm": self.describe()},
            )

        if len(self.warps) != self._config.max_warps_per_sm:
            violate(
                f"{len(self.warps)} warp contexts but "
                f"{self._config.max_warps_per_sm} were launched")
        finished = sum(1 for w in self.warps if w.finished)
        if finished != self._finished_warps:
            violate(
                f"finished-warp counter {self._finished_warps} disagrees with "
                f"{finished} warps whose finished flag is set")
        outstanding = 0
        for w in self.warps:
            if w.outstanding < 0:
                violate(f"warp {w.warp_id} outstanding count is negative "
                        f"({w.outstanding})")
            if w.finished and w.outstanding:
                violate(f"finished warp {w.warp_id} still has "
                        f"{w.outstanding} requests in flight")
            outstanding += w.outstanding
        in_flight = self.mem_requests_issued - self.mem_requests_completed
        if outstanding != in_flight:
            violate(
                f"warps report {outstanding} outstanding requests but "
                f"{self.mem_requests_issued} issued - "
                f"{self.mem_requests_completed} completed = {in_flight}")
        for pending in self._replay:
            if pending.warp.finished:
                violate(f"replay queue holds a load of finished warp "
                        f"{pending.warp.warp_id}")
        self._check_issue_state(now, violate)
        if (self.latched_until > now
                and self.latch_mshrs.released_total == self.latch_released):
            lsu_blocked = len(self._replay) >= self.LSU_QUEUE_DEPTH
            for w in self.warps:
                if (w.is_ready(now)
                        and not (lsu_blocked and self._is_mem_at[w.pc_index])):
                    violate(f"latched until cycle {self.latched_until} but "
                            f"warp {w.warp_id} can issue")

    def _check_issue_state(self, now: int, violate: Callable[[str], None]) -> None:
        """Cross-check ``_ready``, ``_wake`` and ``_mem`` against a warp scan.

        Heap entries already due (``<= now``) are legal: ``cycle()``
        drains them before it reads the mask, and an SM that is not
        cycled on every tick (latched, or a shard lane jumping ahead)
        holds them until its next cycle.
        """
        ready = self._ready
        if ready >> len(self.warps):
            violate(f"ready mask {ready:#x} names warps beyond "
                    f"the {len(self.warps)} contexts")
        waiting: dict[int, int] = {}
        for ready_at, wid in self._wake:
            if wid in waiting or ready >> wid & 1:
                violate(f"warp {wid} is queued twice across the ready mask "
                        f"and wake heap")
            waiting[wid] = ready_at
        mem = 0
        for w in self.warps:
            wid = w.warp_id
            if self._is_mem_at[w.pc_index]:
                mem |= 1 << wid
            in_ready = ready >> wid & 1
            if w.finished or w.outstanding:
                if in_ready or wid in waiting:
                    violate(f"warp {wid} is finished or waiting on memory but "
                            f"sits in the {'ready mask' if in_ready else 'wake heap'}")
            elif in_ready:
                if w.ready_at > now:
                    violate(f"warp {wid} is in the ready mask but ready only "
                            f"at cycle {w.ready_at}")
            elif waiting.get(wid) != w.ready_at:
                violate(f"issuable warp {wid} (ready at {w.ready_at}) has wake "
                        f"entry {waiting.get(wid)} and no ready bit")
        if mem != self._mem:
            violate(f"memory-op mask {self._mem:#x} disagrees with the warps' "
                    f"next instructions ({mem:#x})")

    def describe(self) -> dict:
        """JSON-ready snapshot of this SM (watchdog/invariant diagnostics)."""
        return {
            "sm": self.sm_id,
            "done": self.done,
            "replay_depth": len(self._replay),
            "mem_requests_issued": self.mem_requests_issued,
            "mem_requests_completed": self.mem_requests_completed,
            "mshr_occupancy": self._l1.mshr_occupancy,
            "warps": [
                {
                    "warp": w.warp_id,
                    "pc_index": w.pc_index,
                    "iteration": w.iteration,
                    "wave": w.wave,
                    "ready_at": w.ready_at,
                    "outstanding": w.outstanding,
                    "finished": w.finished,
                }
                for w in self.warps
            ],
        }
