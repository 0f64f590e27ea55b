"""The quiescence latch, the ready mask and the indexed LLT must not
change any result.

The serial engine skips ``SMCore.cycle`` for latched (provably inert) SMs
and charges the latched counter increments instead. The oracle here is a
dense loop that cycles every SM on every visited tick and rescans every
SM's warps when fast-forwarding, exactly as the engine did before the
latch existed.

``SMCore`` keeps its issuable warps incrementally (a ready mask, a wake
heap and a memory-op mask). A second oracle recomputes, on every cycle,
what the pipeline used to derive by scanning all of an SM's warps.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.llt import LastLoadTable
from repro.errors import SimulationError
from repro.experiments.configs import CONFIGS, experiment_gpu_config
from repro.sm import simulator as simulator_module
from repro.sm.pipeline import NO_WAKE, SMCore
from repro.sm.simulator import GPUSimulator
from repro.workloads.suite import workload
from repro.workloads.synthetic import build_kernel

SCALE = 0.03


class DenseSimulator(GPUSimulator):
    """Reference engine: every SM cycles on every tick the clock visits."""

    __slots__ = ()

    def _tick(self) -> None:
        now = self._now
        events = self.subsystem.events
        events.run_until(now)
        issued_any = False
        for sm in self.sms:
            issued_any |= sm.cycle(now)
        if all(sm.done for sm in self.sms) and not len(events):
            self._now = now + 1
            self._prev_cycle = now
            self._finished = True
            self.stats.cycles = self._now
            return
        self._now = now + 1 if issued_any else self._fast_forward(now)
        self._prev_cycle = now

    def _fast_forward(self, now: int) -> int:
        wake: Optional[int] = self.subsystem.events.next_event_cycle
        for sm in self.sms:
            hint = sm.next_wake_hint(now)
            if hint is not None and (wake is None or hint < wake):
                wake = hint
        if wake is None:
            raise SimulationError(f"reference engine deadlocked at {now}")
        if wake <= now:
            return now + 1
        self.stats.idle_cycles += (wake - now - 1) * len(self.sms)
        return wake


class CountingSimulator(GPUSimulator):
    """Production engine that counts SM-ticks served by a stall-only latch."""

    __slots__ = ("stall_latched_ticks",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stall_latched_ticks = 0

    def _tick(self) -> None:
        now = self._now
        for sm in self.sms:
            if (now < sm.latched_until
                    and sm.latch_mshrs.released_total == sm.latch_released
                    and (sm.latch_fails or sm.latch_stalls)):
                self.stall_latched_ticks += 1
        super()._tick()


def _run(cls, app: str, config_name: str, gpu):
    sim = cls(build_kernel(workload(app), SCALE), gpu, CONFIGS[config_name].build)
    return sim, sim.run()


def _assert_identical(app: str, config_name: str, gpu) -> GPUSimulator:
    _, dense = _run(DenseSimulator, app, config_name, gpu)
    sim, prod = _run(CountingSimulator, app, config_name, gpu)
    assert prod.stats.as_dict() == dense.stats.as_dict(), (app, config_name)
    assert prod.engine_events == dense.engine_events, (app, config_name)
    return sim


@pytest.mark.parametrize("app", ["KM", "BFS"])
def test_latch_matches_dense_reference_for_every_config(app):
    gpu = experiment_gpu_config(2)
    for config_name in CONFIGS:
        _assert_identical(app, config_name, gpu)


@pytest.mark.parametrize("config_name", ["base", "apres"])
def test_latch_matches_dense_reference_when_mshr_starved(config_name):
    """Two MSHRs per L1: SMs sit latched on failing reservations and LSU
    structural stalls, not only on pure idle."""
    gpu = experiment_gpu_config(2)
    gpu = dataclasses.replace(gpu, l1=dataclasses.replace(gpu.l1, num_mshrs=2))
    sim = _assert_identical("BFS", config_name, gpu)
    assert sim.stall_latched_ticks > 0
    assert sim.stats.l1.reservation_fails > 0
    assert sim.stats.lsu_structural_stalls > 0


# ----------------------------------------------------------------------
# Ready mask against the warp scan
# ----------------------------------------------------------------------

def _scan_wake(sm: SMCore, now: int, skip_mem: bool = False) -> Optional[int]:
    """The old warp scan behind ``next_wake_hint``/``next_issuable_hint``."""
    hint: Optional[int] = None
    for w in sm.warps:
        if w.finished or w.outstanding:
            continue
        if skip_mem and sm._is_mem_at[w.pc_index]:
            continue
        if w.ready_at > now and (hint is None or w.ready_at < hint):
            hint = w.ready_at
    return hint


def _scan_ready(sm: SMCore, now: int) -> int:
    """Bitmask of the warps the old scan found ready at ``now``."""
    return sum(1 << w.warp_id for w in sm.warps if w.is_ready(now))


class ScanOracleSM(SMCore):
    """An SM that checks its issue decision against a scan of every warp.

    Each cycle decides at its ``select`` call, or at its end when nothing
    was offered. There, the offered set, the LSU structural stalls charged
    and the next wake-up must equal what the pipeline computed when it
    rescanned all warps every cycle. The hint methods must match the old
    scans both at ``now`` and at the next wake-up, where that warp's heap
    entry is due but not yet drained.
    """

    __slots__ = ("stalls_before", "decisions")

    def __init__(self, *args):
        super().__init__(*args)
        self.decisions = 0
        select = self._scheduler.select

        def checked_select(offered, now):
            self.assert_matches_scan(now, offered)
            return select(offered, now)

        self._scheduler.select = checked_select

    def cycle(self, now: int) -> bool:
        self.stalls_before = self._stats.lsu_structural_stalls
        issued = super().cycle(now)
        if not issued:
            self.assert_matches_scan(now, None)
        return issued

    def assert_matches_scan(self, now: int, offered) -> None:
        self.decisions += 1
        where = (self.sm_id, now)
        ready = _scan_ready(self, now)
        wake = _scan_wake(self, now)
        mem = sum(1 << w.warp_id for w in self.warps if self._is_mem_at[w.pc_index])
        lsu_blocked = len(self._replay) >= self.LSU_QUEUE_DEPTH
        candidates = ready & ~mem if lsu_blocked else ready
        stalls = (ready & mem).bit_count() if lsu_blocked else 0
        assert self._ready == ready, where
        assert self._stats.lsu_structural_stalls - self.stalls_before == stalls, where
        assert (self._wake[0][0] if self._wake else None) == wake, where
        if offered is not None:
            assert offered.ready == candidates, where
            assert len(offered) == bin(candidates).count("1"), where
            assert offered.mem & candidates == mem & candidates, where
        elif not candidates and self.latched_until:
            assert self.latched_until == (NO_WAKE if wake is None else wake), where
        for t in (now,) if wake is None else (now, wake):
            pending = bool(self._replay) or bool(_scan_ready(self, t))
            hint = _scan_wake(self, t)
            assert self.next_wake_hint(t) == hint, (where, t)
            assert self.next_issuable_hint(t) == _scan_wake(self, t, lsu_blocked), (where, t)
            assert self.has_pending_work(t) == pending, (where, t)
            assert self.pending_work_or_hint(t) == (pending, None if pending else hint), (where, t)
        self.check_invariants(now)


@pytest.mark.parametrize("app", ["KM", "BFS"])
def test_ready_mask_matches_warp_scan_for_every_config(app, monkeypatch):
    monkeypatch.setattr(simulator_module, "SMCore", ScanOracleSM)
    gpu = experiment_gpu_config(2)
    kernel = build_kernel(workload(app), SCALE)
    for config_name in CONFIGS:
        sim = GPUSimulator(kernel, gpu, CONFIGS[config_name].build)
        sim.run()
        assert all(sm.decisions > 0 for sm in sim.sms), config_name


@pytest.mark.parametrize("config_name", ["base", "apres", "ccws", "gto", "pa", "cawa"])
def test_ready_mask_matches_warp_scan_when_mshr_starved(config_name, monkeypatch):
    """Two MSHRs per L1 keep the LSU blocked often, so the offered set
    differs from the ready mask and structural stalls are charged."""
    monkeypatch.setattr(simulator_module, "SMCore", ScanOracleSM)
    gpu = experiment_gpu_config(2)
    gpu = dataclasses.replace(gpu, l1=dataclasses.replace(gpu.l1, num_mshrs=2))
    sim = GPUSimulator(build_kernel(workload("BFS"), SCALE), gpu,
                       CONFIGS[config_name].build)
    sim.run()
    assert sim.stats.lsu_structural_stalls > 0


# ----------------------------------------------------------------------
# Indexed Last Load Table
# ----------------------------------------------------------------------

NUM_WARPS = 12


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("update"), st.integers(0, NUM_WARPS - 1),
                      st.sampled_from([0x10, 0x20, 0x30, 0x40])),
            st.tuples(st.just("finish"), st.integers(0, NUM_WARPS - 1),
                      st.none()),
        ),
        max_size=80,
    )
)
def test_indexed_llt_matches_linear_scan(ops):
    """The pc->warp index answers exactly what a scan of the table does,
    including the LAWS group filter over finished warps."""
    llt = LastLoadTable(NUM_WARPS)
    table: list[Optional[int]] = [None] * NUM_WARPS
    finished: set[int] = set()
    for op, warp, pc in ops:
        if op == "update":
            llt.update(warp, pc)
            table[warp] = pc
        else:
            finished.add(warp)
        for probe in (None, 0x10, 0x20, 0x30, 0x40, 0x50):
            expected = [w for w, p in enumerate(table) if p == probe]
            assert llt.warps_with_llpc(probe) == expected
            assert [w for w in llt.warps_with_llpc(probe) if w not in finished] == [
                w for w in expected if w not in finished]
        assert [llt.get(w) for w in range(NUM_WARPS)] == table
