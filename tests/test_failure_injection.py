"""Failure injection: the simulator must stay correct under hostile
components and degenerate configurations."""

import dataclasses

import pytest

from conftest import make_config, mixed_kernel, streaming_kernel
from repro.config import CacheConfig, DRAMConfig
from repro.errors import SimulationError, WatchdogTimeout
from repro.mem.request import LoadAccess
from repro.prefetch.base import Prefetcher, PrefetchCandidate
from repro.prefetch.none import NullPrefetcher
from repro.sched.lrr import LRRScheduler
from repro.sm.simulator import simulate

GB = 1 << 30


class WildPrefetcher(Prefetcher):
    """Prefetches garbage addresses on every load."""

    name = "wild"

    def __init__(self, burst: int = 8):
        super().__init__()
        self._burst = burst
        self._n = 0

    def observe_load(self, access: LoadAccess) -> list[PrefetchCandidate]:
        self._n += 1
        base = (self._n * 0x9E3779B9) % (1 << 40)
        return [PrefetchCandidate(base + i * 131, target_warp=i % 4)
                for i in range(self._burst)]


class StormPrefetcher(Prefetcher):
    """Prefetches the demanded line itself plus duplicates (all droppable)."""

    name = "storm"

    def observe_load(self, access: LoadAccess) -> list[PrefetchCandidate]:
        return [PrefetchCandidate(access.primary_addr)] * 16


class AdversarialScheduler(LRRScheduler):
    """Always picks the highest warp id (worst-case fairness)."""

    def select(self, candidates, cycle):
        if not candidates:
            return None
        return max(candidates)


class TestHostilePrefetchers:
    def test_wild_prefetcher_cannot_break_execution(self, tiny_config):
        kernel = mixed_kernel(6)
        clean = simulate(kernel, tiny_config, lambda: (LRRScheduler(), NullPrefetcher()))
        wild = simulate(kernel, tiny_config, lambda: (LRRScheduler(), WildPrefetcher()))
        assert wild.stats.instructions == clean.stats.instructions
        # Garbage prefetches never satisfy demands...
        assert wild.stats.l1.prefetch_useful == 0
        # ...and the counter algebra still holds.
        l1 = wild.stats.l1
        assert l1.accesses == l1.hits + l1.misses

    def test_wild_prefetches_are_throttled_by_mshr_guard(self, tiny_config):
        kernel = streaming_kernel(iterations=6)
        wild = simulate(kernel, tiny_config, lambda: (LRRScheduler(), WildPrefetcher(burst=32)))
        l1 = wild.stats.l1
        assert l1.prefetch_dropped > 0  # guard engaged

    def test_storm_of_duplicate_prefetches_is_dropped(self, tiny_config):
        kernel = streaming_kernel(iterations=5)
        storm = simulate(kernel, tiny_config, lambda: (LRRScheduler(), StormPrefetcher()))
        l1 = storm.stats.l1
        assert l1.prefetch_issued == 0  # line is always already in flight
        assert l1.prefetch_dropped > 0


class TestHostileSchedulers:
    def test_adversarial_order_still_completes(self, tiny_config):
        kernel = mixed_kernel(5)
        result = simulate(kernel, tiny_config,
                          lambda: (AdversarialScheduler(), NullPrefetcher()))
        assert result.stats.instructions == kernel.instructions_per_warp * 8

    def test_invalid_selection_is_an_error(self, tiny_config):
        class Liar(LRRScheduler):
            def select(self, candidates, cycle):
                return 7  # may not be ready

        kernel = mixed_kernel(2)
        # Selecting a non-candidate warp corrupts state; the simulator
        # surfaces it as an exception rather than silently mis-executing.
        with pytest.raises(Exception):
            simulate(kernel, make_config(max_warps=2), lambda: (Liar(), NullPrefetcher()))

    def test_pick_of_a_stalled_warp_is_rejected_at_once(self):
        class StaleLiar(LRRScheduler):
            def select(self, candidates, cycle):
                return 1  # in range, but not offered once warp 1 stalls

        # Warp 1 issues a load at cycle 0 and waits on it; picking it at
        # cycle 1 must fail on the spot, not run to the watchdog.
        with pytest.raises(SimulationError, match="not offered") as excinfo:
            simulate(mixed_kernel(2), make_config(max_warps=2),
                     lambda: (StaleLiar(), NullPrefetcher()))
        assert not isinstance(excinfo.value, WatchdogTimeout)
        assert excinfo.value.details["cycle"] == 1
        assert excinfo.value.details["offered"] == [0]


class TestDegenerateConfigurations:
    def test_single_mshr(self):
        cfg = make_config(max_warps=4, mshrs=1)
        result = simulate(streaming_kernel(iterations=4), cfg,
                          lambda: (LRRScheduler(), NullPrefetcher()))
        assert result.stats.l1.reservation_fails > 0
        assert result.stats.instructions == 4 * 3 * 4

    def test_one_line_cache(self):
        cfg = make_config(max_warps=2, l1_bytes=512, mshrs=2)
        cfg = dataclasses.replace(
            cfg, l1=CacheConfig(size_bytes=128, associativity=1, num_mshrs=2)
        )
        result = simulate(mixed_kernel(3), cfg,
                          lambda: (LRRScheduler(), NullPrefetcher()))
        l1 = result.stats.l1
        assert l1.accesses == l1.hits + l1.misses

    def test_glacial_dram(self):
        cfg = make_config(max_warps=2)
        cfg = dataclasses.replace(
            cfg, dram=DRAMConfig(num_partitions=1, latency=5000, service_cycles=50)
        )
        result = simulate(streaming_kernel(iterations=2), cfg,
                          lambda: (LRRScheduler(), NullPrefetcher()))
        assert result.stats.memory.avg_demand_latency > 5000

    def test_single_warp_single_sm(self):
        cfg = make_config(num_sms=1, max_warps=1)
        result = simulate(mixed_kernel(3), cfg,
                          lambda: (LRRScheduler(), NullPrefetcher()))
        assert result.stats.instructions == mixed_kernel(3).instructions_per_warp
