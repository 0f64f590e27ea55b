"""CAWA criticality-aware scheduler."""

from conftest import make_config, streaming_kernel
from repro.prefetch.none import NullPrefetcher
from repro.sched.cawa import CAWAScheduler
from repro.sched.base import OfferedWarps
from repro.sm.simulator import simulate


def cands(*warps):
    return OfferedWarps.of(warps)


def make(n=4):
    s = CAWAScheduler()
    s.reset(n)
    return s


class TestSelection:
    def test_prefers_most_lagging(self):
        s = make()
        for _ in range(3):
            s.notify_issue(0, False, 0)
        s.notify_issue(1, False, 0)
        assert s.select(cands(0, 1, 2), 0) == 2  # retired 0

    def test_tie_breaks_by_warp_id(self):
        s = make()
        assert s.select(cands(3, 1), 0) == 1

    def test_empty(self):
        assert make().select(OfferedWarps(), 0) is None

    def test_criticality_metric(self):
        s = make()
        for _ in range(5):
            s.notify_issue(0, False, 0)
        s.notify_issue(2, False, 0)
        assert s.criticality(0) == 0
        assert s.criticality(2) == 4
        assert s.criticality(3) == 5

    def test_keeps_progress_balanced(self):
        s = make(n=3)
        for t in range(30):
            chosen = s.select(cands(0, 1, 2), t)
            s.notify_issue(chosen, False, t)
        spread = max(s._retired) - min(s._retired)
        assert spread <= 1

    def test_finished_warp_does_not_anchor_lag(self):
        s = make(n=3)
        for _ in range(10):
            s.notify_issue(0, False, 0)
        s.notify_warp_finished(0)
        s.notify_issue(1, False, 0)
        assert s.criticality(2) == 1  # measured against warp 1, not warp 0


class TestIntegration:
    def test_completes_kernel(self):
        cfg = make_config(max_warps=4)
        kernel = streaming_kernel(iterations=4)
        result = simulate(kernel, cfg, lambda: (CAWAScheduler(), NullPrefetcher()))
        assert result.stats.instructions == kernel.instructions_per_warp * 4
