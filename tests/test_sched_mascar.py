"""MASCAR: saturation detection and owner-warp memory gating."""

import pytest

from repro.sched.base import OfferedWarps
from repro.sched.mascar import MASCARScheduler


class FakeL1:
    """Stands in for the L1: exposes a settable MSHR occupancy."""

    def __init__(self):
        self.mshr_occupancy = 0.0


def make(sat_on=0.9, sat_off=0.5):
    s = MASCARScheduler(saturate_on=sat_on, saturate_off=sat_off)
    s.reset(8)
    l1 = FakeL1()
    s.attach_l1(l1)
    return s, l1


def mem(*warps):
    return OfferedWarps.of(warps, warps)


def compute(*warps):
    return OfferedWarps.of(warps)


class TestSaturationDetection:
    def test_starts_unsaturated(self):
        s, _ = make()
        assert not s.in_memory_phase

    def test_enters_memory_phase(self):
        s, l1 = make()
        l1.mshr_occupancy = 0.95
        s.select(mem(0, 1), 0)
        assert s.in_memory_phase

    def test_hysteresis_exit(self):
        s, l1 = make()
        l1.mshr_occupancy = 0.95
        s.select(mem(0, 1), 0)
        l1.mshr_occupancy = 0.7  # between off and on: stays saturated
        s.select(mem(0, 1), 1)
        assert s.in_memory_phase
        l1.mshr_occupancy = 0.4
        s.select(mem(0, 1), 2)
        assert not s.in_memory_phase

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            MASCARScheduler(saturate_on=0.4, saturate_off=0.6)


class TestMemoryPhase:
    def test_only_owner_issues_memory(self):
        s, l1 = make()
        l1.mshr_occupancy = 1.0
        first = s.select(mem(2, 3, 4), 0)
        assert first == 2  # lowest becomes owner
        s.notify_issue(2, True, 0)  # owner's memory op is now in flight
        assert s.select(mem(3, 4), 1) is None  # owner busy, others blocked

    def test_compute_always_allowed(self):
        s, l1 = make()
        l1.mshr_occupancy = 1.0
        s.select(mem(2, 3), 0)
        assert s.select(compute(5, 6), 1) == 5

    def test_owner_released_on_mem_complete(self):
        s, l1 = make()
        l1.mshr_occupancy = 1.0
        owner = s.select(mem(2, 3), 0)
        s.notify_issue(owner, True, 0)
        s.notify_mem_complete(owner, 50)
        # Owner not a candidate anymore: ownership moves on.
        assert s.select(mem(3, 4), 51) == 3

    def test_owner_reassigned_when_finished(self):
        s, l1 = make()
        l1.mshr_occupancy = 1.0
        owner = s.select(mem(2, 3), 0)
        s.notify_warp_finished(owner)
        assert s.select(mem(3, 4), 1) == 3


class TestNormalPhase:
    def test_round_robin_when_unsaturated(self):
        s, l1 = make()
        l1.mshr_occupancy = 0.0
        picks = [s.select(mem(0, 1, 2, 3), t) for t in range(4)]
        assert picks == [0, 1, 2, 3]

    def test_no_l1_attached_never_saturates(self):
        s = MASCARScheduler()
        s.reset(4)
        assert s.select(mem(0, 1), 0) == 0
        assert not s.in_memory_phase
