"""Distributed telemetry: per-lane recording + deterministic barrier merge.

The serial engine hands every SM an :class:`~repro.telemetry.hub.SMTelemetry`
proxy that charges a shared :class:`~repro.telemetry.stalls.StallEngine`
and emits events straight into the hub. Inside a shard none of that
shared state exists, so each :class:`~repro.shard.lane.ShardLane` gets a
:class:`LaneTelemetryRecorder` instead: the same hook surface, but every
observation lands in a per-lane buffer tagged with the parent tick. At
each epoch barrier the worker ships the buffers inside its
:class:`~repro.shard.worker.BarrierReport` (an in-proc hand-off, or a
pickled pipe frame under the process backend), and the parent-side
:class:`ShardTelemetryCoordinator` performs a deterministic tuple-sorted
merge into one real hub.

Lock-step (``epoch_cycles == 1``) byte-identity rests on three facts:

* **Stalls** — a lane yields exactly one outcome per visited tick
  (issue, or one exclusive stall cause); lanes the worker skipped are
  provably inert, so their cached classification is re-charged per tick.
  The only time-dependent cause — waiting-on-memory resolving to
  ``dram_queue`` vs ``l1_pending`` — is decided by the parent, which
  replays the merged boundary log up to the first memory-waiting SM,
  probes DRAM once, then replays the rest: exactly the serial engine's
  memoised first-prober-wins probe.
* **Events** — the serial event queue drains in global schedule order,
  and every event fires exactly at its due tick, so tagging each lane
  schedule with ``(tick, per-SM counter)`` and sorting drained events by
  ``(schedule tick, sm, counter)`` reproduces the serial heap order.
  Cycle-phase events concatenate in SM order; shared-side L2/DRAM events
  (emitted parent-side during replay) are spliced back at boundary
  markers the proxy left in the lane's stream.
* **Intervals** — the collector only reads monotone counters plus the
  per-L1 MSHR occupancy at flush ticks; the coordinator maintains view
  objects summed from per-worker counters in SM order, so flush records
  are float-for-float identical.

Relaxed mode (``epoch_cycles > 1``) keeps the same plumbing but is
approximate by contract: outcomes are charged as recorded, skipped lane
ticks are closed out at finish against each SM's last cause (so the
reconciliation identities still hold exactly), and event order within a
window is a deterministic ``(tick, phase, sm)`` sort rather than the
serial interleave.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.mem.subsystem import EventQueue, SharedL2Core, _L1FillEvent
from repro.shard.proxy import BoundaryEntry, REQ_STORE
from repro.telemetry.hub import EventTarget, TelemetryHub
from repro.telemetry.stalls import STALL_CAUSES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import GPUConfig
    from repro.shard.worker import BarrierReport, FillDelivery
    from repro.sm.pipeline import SMCore
    from repro.stats.counters import SimStats

#: Stall-cause indices (STALL_CAUSES order is the contract; see stalls.py).
_CAUSE_INDEX = {name: i for i, name in enumerate(STALL_CAUSES)}
MSHR_FULL = _CAUSE_INDEX["mshr_full"]
DRAM_QUEUE = _CAUSE_INDEX["dram_queue"]
L1_PENDING = _CAUSE_INDEX["l1_pending"]
SCOREBOARD = _CAUSE_INDEX["scoreboard"]
SCHED_THROTTLE = _CAUSE_INDEX["sched_throttle"]
NO_WARP = _CAUSE_INDEX["no_warp"]

#: Per-tick lane outcomes. Non-negative codes are STALL_CAUSES indices
#: charged verbatim; the two negatives need parent-side resolution.
OUT_ISSUE = -1
#: Waiting on memory: resolves to ``dram_queue`` or ``l1_pending`` only
#: after the parent's tick-t DRAM probe (see module docstring).
OUT_MEM_PENDING = -2


def classify_idle(core: "SMCore") -> int:
    """The stall engine's idle-cause scan, with the DRAM probe deferred.

    Mirrors :meth:`~repro.telemetry.stalls.StallEngine.on_idle` exactly
    (same early break on the first memory-waiting warp); the
    time-dependent ``dram_queue``/``l1_pending`` split is returned as
    :data:`OUT_MEM_PENDING` for the parent to resolve.
    """
    waiting_mem = False
    waiting_dep = False
    for warp in core.warps:
        if warp.finished:
            continue
        if warp.outstanding:
            waiting_mem = True
            break
        waiting_dep = True
    if waiting_mem:
        return OUT_MEM_PENDING
    if waiting_dep:
        return SCOREBOARD
    if core.done:
        return NO_WARP
    return L1_PENDING


class LaneTelemetryRecorder:
    """One lane's stand-in for :class:`SMTelemetry`: record, don't charge.

    Exposes the exact hook surface the SM pipeline, scheduler,
    prefetcher and L1 call (``emit`` / ``on_issue`` / ``on_idle`` /
    ``on_throttle`` / ``sm_id`` / ``events``), buffering everything with
    the current parent tick for the barrier merge.
    """

    __slots__ = ("sm_id", "events", "tick", "inert_code", "outcomes",
                 "drain_items", "cycle_items", "drain_tag",
                 "_sched_counter", "_fill_tags")

    def __init__(self, sm_id: int, capture_events: bool):
        self.sm_id = sm_id
        #: Mirror of ``hub.events``: is event construction worth it?
        self.events = capture_events
        self.tick = 0
        #: Classification cached by :meth:`record_inert`; re-charged by
        #: the worker for every window this lane sleeps through. The
        #: default mirrors the stall engine's ``_last_cause`` default.
        self.inert_code = NO_WARP
        #: (tick, code) — one per visited tick.
        self.outcomes: list[tuple[int, int]] = []
        #: (tick, sched_tick, sched_n, event) — drain-phase emissions.
        self.drain_items: list[tuple[int, int, int, Any]] = []
        #: (tick, "e", event) or (tick, "b", seq) — cycle-phase stream.
        self.cycle_items: list[tuple[int, str, Any]] = []
        #: Schedule tag of the event currently draining (set by the
        #: recording queue), or ``None`` during the cycle phase.
        self.drain_tag: Optional[tuple[int, int]] = None
        self._sched_counter = 0
        #: Reserved schedule tags for in-flight boundary fills (FIFO:
        #: barrier deliveries arrive in per-lane forward order).
        self._fill_tags: deque[tuple[int, int]] = deque()

    # -- lane driver hooks ---------------------------------------------

    def begin_tick(self, now: int) -> None:
        self.tick = now
        self._sched_counter = 0

    def record_inert(self, now: int, core: "SMCore") -> None:
        """The lane skipped ``cycle()`` at ``now``: classify it ourselves.

        ``pending_work_or_hint`` returned False, so the replay queue is
        empty — MSHR gating is impossible and :func:`classify_idle` is
        exactly what the serial ``on_idle`` would have concluded.
        """
        code = classify_idle(core)
        self.inert_code = code
        self.outcomes.append((now, code))

    def take(self) -> tuple[list, list, list]:
        """Hand the window's buffers to the barrier and reset them."""
        out = (self.outcomes, self.drain_items, self.cycle_items)
        self.outcomes = []
        self.drain_items = []
        self.cycle_items = []
        return out

    # -- schedule tagging (recording queue + proxy forward hook) -------

    def next_tag(self) -> tuple[int, int]:
        tag = (self.tick, self._sched_counter)
        self._sched_counter += 1
        return tag

    def on_forward(self, seq: int) -> None:
        """The proxy logged a boundary miss/prefetch with entry ``seq``.

        Two jobs: reserve the schedule tag the serial engine would have
        given the fill event (forwards and local wake-ups share one
        per-tick counter, so per-lane tag order equals serial per-SM
        schedule order), and splice a boundary marker into the cycle
        stream where the shared-side L2/DRAM events belong.
        """
        self._fill_tags.append(self.next_tag())
        self.cycle_items.append((self.tick, "b", seq))

    def pop_fill_tag(self) -> tuple[int, int]:
        if self._fill_tags:
            return self._fill_tags.popleft()
        # Relaxed-mode safety net (a clamped fill whose forward predates
        # recording); exact mode never reaches this.
        return self.next_tag()

    # -- SMTelemetry surface (called by pipeline/scheduler/L1) ---------

    def emit(self, event: Any) -> None:
        tag = self.drain_tag
        if tag is not None:
            self.drain_items.append((self.tick, tag[0], tag[1], event))
        else:
            self.cycle_items.append((self.tick, "e", event))

    def on_issue(self) -> None:
        self.outcomes.append((self.tick, OUT_ISSUE))

    def on_idle(self, sm: "SMCore", now: int, mshr_gated: int) -> None:
        code = MSHR_FULL if mshr_gated else classify_idle(sm)
        self.outcomes.append((now, code))

    def on_throttle(self, now: int) -> None:
        self.outcomes.append((now, SCHED_THROTTLE))


class _RecordingEventQueue(EventQueue):
    """Lane event queue that remembers each event's serial schedule tag.

    Local wake-ups get a fresh ``(tick, counter)`` tag at schedule time;
    barrier-delivered fills pop the tag reserved when their miss was
    forwarded — which is when the *serial* engine would have scheduled
    them. ``run_until`` exposes the draining event's tag through
    ``recorder.drain_tag`` so emissions can be merge-sorted back into
    the serial heap order.
    """

    __slots__ = ("_recorder", "_tags")

    def __init__(self, recorder: LaneTelemetryRecorder):
        super().__init__()
        self._recorder = recorder
        self._tags: dict[int, tuple[int, int]] = {}

    def schedule(self, cycle: int, callback) -> None:
        rec = self._recorder
        if isinstance(callback, _L1FillEvent):
            tag = rec.pop_fill_tag()
        else:
            tag = rec.next_tag()
        seq = next(self._seq)
        self._tags[seq] = tag
        heapq.heappush(self._heap, (cycle, seq, callback))

    def run_until(self, cycle: int) -> None:
        rec = self._recorder
        heap = self._heap
        while heap and heap[0][0] <= cycle:
            when, seq, callback = heapq.heappop(heap)
            self.processed += 1
            rec.drain_tag = self._tags.pop(seq, None)
            callback(when)
        rec.drain_tag = None


class _MergedL1Stats:
    """What the interval collector reads from ``stats.l1`` — nothing more."""

    __slots__ = ("accesses", "misses", "prefetch_issued", "prefetch_useful",
                 "prefetch_demand_merged")

    def __init__(self) -> None:
        self.accesses = 0
        self.misses = 0
        self.prefetch_issued = 0
        self.prefetch_useful = 0
        self.prefetch_demand_merged = 0


class _MergedStats:
    """Stats view fed to the interval collector, updated at barriers.

    ``memory`` is not a merged copy: it aliases the parent-held
    authoritative :class:`~repro.stats.counters.MemoryStats` (all L2/DRAM
    counters are charged parent-side during boundary replay, before the
    window's ``hub.on_tick``), so ``l2_miss_rate`` reads the same values
    the serial engine would.
    """

    __slots__ = ("instructions", "l1", "memory")

    def __init__(self, memory: Any = None) -> None:
        self.instructions = 0
        self.l1 = _MergedL1Stats()
        self.memory = memory


class _LaneL1View:
    """Per-SM MSHR-occupancy view (the only L1 attribute intervals read)."""

    __slots__ = ("mshr_occupancy",)

    def __init__(self) -> None:
        self.mshr_occupancy = 0.0


class _CaptureSink(EventTarget):
    """Stand-in telemetry target for the parent-held L2/DRAM pair.

    The shared side checks ``tel.events`` and calls ``tel.emit`` — this
    buffers those emissions per replayed boundary entry so the
    coordinator can splice them at the lane's boundary markers.
    """

    __slots__ = ("events", "buffer")

    def __init__(self) -> None:
        self.events = True
        self.buffer: list[Any] = []

    def emit(self, event: Any) -> None:
        self.buffer.append(event)


class ShardTelemetryCoordinator:
    """Parent-side merge: barrier payloads -> one serial-identical hub."""

    def __init__(self, hub: TelemetryHub, config: "GPUConfig",
                 shared: SharedL2Core, exact: bool):
        self.hub = hub
        self.exact = exact
        self.num_sms = config.num_sms
        self.stats_view = _MergedStats(shared.memory_stats)
        self.l1_views = [_LaneL1View() for _ in range(config.num_sms)]
        self._shared = shared
        self._capture: Optional[_CaptureSink] = None
        if hub.events:
            self._capture = _CaptureSink()
            shared.l2.telemetry = self._capture
            shared.dram.telemetry = self._capture
        hub.bind_shard(
            num_sms=config.num_sms,
            warps_per_sm=config.max_warps_per_sm,
            dram=shared.dram,
            stats=self.stats_view,
            l1s=self.l1_views,
        )
        self.events_merged = 0

    def make_recorder(self, sm_id: int) -> LaneTelemetryRecorder:
        return LaneTelemetryRecorder(sm_id, capture_events=self.hub.events)

    # ------------------------------------------------------------------
    # Per-window merge
    # ------------------------------------------------------------------

    def process_window(
        self,
        merged: Sequence[BoundaryEntry],
        reports: Sequence["BarrierReport"],
        start: int,
        end: int,
    ) -> list["FillDelivery"]:
        """Replay the merged boundary log *and* merge the lane telemetry.

        Replaces the engine's plain replay loop: the DRAM probe for stall
        attribution must interleave with the replay, so both live here.
        Returns the window's new fill deliveries, exactly as the plain
        loop would have.
        """
        payloads = [r.telemetry for r in reports if r.telemetry is not None]
        self._update_views(payloads)
        if self.exact:
            return self._window_exact(merged, payloads, start)
        return self._window_relaxed(merged, payloads, end)

    def _update_views(self, payloads: Sequence[dict]) -> None:
        view = self.stats_view
        l1 = view.l1
        instructions = accesses = misses = 0
        pf_issued = pf_useful = pf_merged = 0
        for payload in payloads:
            (ins, acc, mis, pfi, pfu, pfm) = payload["counters"]
            instructions += ins
            accesses += acc
            misses += mis
            pf_issued += pfi
            pf_useful += pfu
            pf_merged += pfm
            for sm_id, occupancy in payload["occupancy"]:
                self.l1_views[sm_id].mshr_occupancy = occupancy
        view.instructions = instructions
        l1.accesses = accesses
        l1.misses = misses
        l1.prefetch_issued = pf_issued
        l1.prefetch_useful = pf_useful
        l1.prefetch_demand_merged = pf_merged

    def _replay_one(self, entry: BoundaryEntry, new_fills: list,
                    captured: dict) -> None:
        cycle, sm_id, seq, kind, line_addr = entry
        capture = self._capture
        if capture is not None:
            capture.buffer = []
        if kind == REQ_STORE:
            self._shared.replay_store(line_addr, cycle)
        else:
            fill = self._shared.replay_miss(line_addr, cycle)
            new_fills.append((sm_id, line_addr, fill))
            if capture is not None and capture.buffer:
                captured[(sm_id, seq)] = capture.buffer

    def _window_exact(self, merged, payloads, tick: int) -> list:
        # One parent tick per window. Gather each SM's single outcome.
        codes: list[Optional[int]] = [None] * self.num_sms
        for payload in payloads:
            for sm_id, _tick, code in payload["outcomes"]:
                codes[sm_id] = code
            for sm_id, code in payload["inert"]:
                codes[sm_id] = code
        # The serial DRAM probe fires during the first memory-waiting
        # SM's cycle — after every lower SM's misses (and its own, logged
        # during replay drain before on_idle) reached the shared side.
        probe_sm = None
        for sm_id, code in enumerate(codes):
            if code == OUT_MEM_PENDING:
                probe_sm = sm_id
                break
        new_fills: list = []
        captured: dict = {}
        dram_busy = False
        index = 0
        if probe_sm is not None:
            while index < len(merged) and merged[index][1] <= probe_sm:
                self._replay_one(merged[index], new_fills, captured)
                index += 1
            dram_busy = self._shared.dram.busy_partitions(tick) > 0
        while index < len(merged):
            self._replay_one(merged[index], new_fills, captured)
            index += 1
        if self.hub.events:
            self._feed_events_exact(payloads, captured)
        stalls = self.hub.stalls
        assert stalls is not None
        for sm_id, code in enumerate(codes):
            if code is None:
                continue
            if code == OUT_ISSUE:
                stalls.on_issue(sm_id)
            elif code == OUT_MEM_PENDING:
                stalls.charge(sm_id, DRAM_QUEUE if dram_busy else L1_PENDING)
            else:
                stalls.charge(sm_id, code)
        self.hub.on_tick(tick)
        return new_fills

    def _feed_events_exact(self, payloads, captured: dict) -> None:
        # Drain phase: serial heap order is (schedule tick, sm, counter);
        # the sort is stable, so multiple emissions of one drained event
        # (fill -> evict -> mem_complete) keep their per-lane order.
        drains: list[tuple[int, int, int, Any]] = []
        for payload in payloads:
            for sm_id, items in payload["drain"]:
                for _tick, s, n, event in items:
                    drains.append((s, sm_id, n, event))
        drains.sort(key=lambda item: (item[0], item[1], item[2]))
        emit = self.hub.emit
        merged_events = len(drains)
        for _s, _sm, _n, event in drains:
            emit(event)
        # Cycle phase: SM order (payloads arrive in worker order over
        # contiguous ascending SM groups), with shared-side L2/DRAM
        # emissions spliced at the proxy's boundary markers.
        for payload in payloads:
            for sm_id, items in payload["cycle"]:
                for item in items:
                    if item[1] == "e":
                        emit(item[2])
                        merged_events += 1
                    else:
                        for event in captured.pop((sm_id, item[2]), ()):
                            emit(event)
                            merged_events += 1
        self.events_merged += merged_events

    def _window_relaxed(self, merged, payloads, end: int) -> list:
        new_fills: list = []
        captured: dict = {}
        for entry in merged:
            self._replay_one(entry, new_fills, captured)
        if self.hub.events:
            self._feed_events_relaxed(payloads, captured)
        stalls = self.hub.stalls
        assert stalls is not None
        dram = self._shared.dram
        for payload in payloads:
            for sm_id, tick, code in payload["outcomes"]:
                if code == OUT_ISSUE:
                    stalls.on_issue(sm_id)
                elif code == OUT_MEM_PENDING:
                    busy = dram.busy_partitions(tick) > 0
                    stalls.charge(sm_id, DRAM_QUEUE if busy else L1_PENDING)
                else:
                    stalls.charge(sm_id, code)
        self.hub.on_tick(end - 1)
        return new_fills

    def _feed_events_relaxed(self, payloads, captured: dict) -> None:
        # Lanes visited different tick subsets; a serial interleave no
        # longer exists. Deterministic order: (tick, drains-before-cycles,
        # sm), per-lane append order within — enough for a valid trace.
        items: list[tuple[int, int, int, int, Any]] = []
        for payload in payloads:
            for sm_id, drain in payload["drain"]:
                for k, (tick, s, n, event) in enumerate(drain):
                    items.append((tick, 0, sm_id, k, event))
            for sm_id, cycle in payload["cycle"]:
                for k, item in enumerate(cycle):
                    items.append((tick_of(item), 1, sm_id, k, item))
        items.sort(key=lambda it: it[:4])
        emit = self.hub.emit
        merged_events = 0
        for _tick, phase, sm_id, _k, item in items:
            if phase == 0:
                emit(item)
                merged_events += 1
            elif item[1] == "e":
                emit(item[2])
                merged_events += 1
            else:
                for event in captured.pop((sm_id, item[2]), ()):
                    emit(event)
                    merged_events += 1
        self.events_merged += merged_events

    # ------------------------------------------------------------------
    # Engine pass-throughs
    # ------------------------------------------------------------------

    def on_skip(self, skipped: int) -> None:
        """Parent fast-forward: every SM idles at its last-known cause."""
        self.hub.on_skip(skipped)

    def finish(self, stats: "SimStats") -> None:
        """Final barrier done, worker stats merged: close out the hub."""
        view = self.stats_view
        view.instructions = stats.instructions
        view.memory = stats.memory
        l1 = stats.l1
        merged_l1 = view.l1
        merged_l1.accesses = l1.accesses
        merged_l1.misses = l1.misses
        merged_l1.prefetch_issued = l1.prefetch_issued
        merged_l1.prefetch_useful = l1.prefetch_useful
        merged_l1.prefetch_demand_merged = l1.prefetch_demand_merged
        stalls = self.hub.stalls
        if not self.exact and stalls is not None:
            # Lane ticks skipped inside relaxed windows were never
            # charged; close them against each SM's last cause so the
            # reconciliation identities hold by construction.
            stalls.close_residual(stats.cycles)
        try:
            from repro.telemetry.metrics import get_registry
            get_registry().counter("telemetry.events.merged").inc(
                self.events_merged)
        except Exception:  # pragma: no cover - metrics never block a run
            pass
        self.hub.finish(stats)


def tick_of(cycle_item: tuple) -> int:
    """Tick key of one recorder cycle-stream item (relaxed-mode sort)."""
    return cycle_item[0]
