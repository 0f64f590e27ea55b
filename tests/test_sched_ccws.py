"""CCWS: lost-locality scoring, throttling and eviction feedback."""

from repro.mem.request import LoadAccess
from repro.sched.base import OfferedWarps
from repro.sched.ccws import CCWSScheduler


def miss(warp, line, cycle=0, pc=0x10):
    return LoadAccess(
        sm_id=0, warp_id=warp, pc=pc, primary_addr=line,
        line_addrs=(line,), primary_hit=False, cycle=cycle,
    )


def make(num_warps=8, **kw):
    kw.setdefault("min_active", 2)
    s = CCWSScheduler(**kw)
    s.reset(num_warps)
    return s


class TestScoring:
    def test_base_score_initially(self):
        s = make()
        assert s.score(0, 0) == CCWSScheduler.BASE_SCORE

    def test_lost_locality_bumps_score(self):
        s = make(lld_gain=300)
        s.notify_eviction(0, 0x100)     # warp 0 lost line 0x100
        s.notify_load_result(miss(0, 0x100, cycle=10))
        assert s.score(0, 10) == CCWSScheduler.BASE_SCORE + 300

    def test_miss_without_vta_hit_no_bump(self):
        s = make()
        s.notify_load_result(miss(0, 0x100))
        assert s.score(0, 0) == CCWSScheduler.BASE_SCORE

    def test_other_warps_eviction_does_not_bump(self):
        s = make()
        s.notify_eviction(1, 0x100)
        s.notify_load_result(miss(0, 0x100))
        assert s.score(0, 0) == CCWSScheduler.BASE_SCORE

    def test_score_decays(self):
        s = make(lld_gain=300, decay_per_cycle=1.0)
        s.notify_eviction(0, 0x100)
        s.notify_load_result(miss(0, 0x100, cycle=0))
        assert s.score(0, 100) == CCWSScheduler.BASE_SCORE + 200

    def test_score_floor_is_base(self):
        s = make(lld_gain=300, decay_per_cycle=1.0)
        s.notify_eviction(0, 0x100)
        s.notify_load_result(miss(0, 0x100, cycle=0))
        assert s.score(0, 10_000) == CCWSScheduler.BASE_SCORE

    def test_score_cap(self):
        s = make(lld_gain=300, score_cap=600)
        for i in range(10):
            s.notify_eviction(0, 0x100 + i * 128)
            s.notify_load_result(miss(0, 0x100 + i * 128, cycle=i))
        assert s.score(0, 10) <= 600

    def test_hits_are_ignored(self):
        s = make()
        s.notify_eviction(0, 0x100)
        hit = LoadAccess(0, 0, 0x10, 0x100, (0x100,), primary_hit=True, cycle=0)
        s.notify_load_result(hit)
        assert s.score(0, 0) == CCWSScheduler.BASE_SCORE


class TestThrottling:
    def test_no_lost_locality_allows_everyone(self):
        s = make(num_warps=8)
        assert s.load_allowed_warps(0) == set(range(8))

    def test_high_scores_shrink_allowed_set(self):
        s = make(num_warps=8, lld_gain=600, score_cap=2000, min_active=2)
        for w in range(8):
            for i in range(4):
                line = (w * 100 + i) * 128
                s.notify_eviction(w, line)
                s.notify_load_result(miss(w, line, cycle=1))
        allowed = s.load_allowed_warps(2)
        assert len(allowed) < 8

    def test_min_active_floor(self):
        s = make(num_warps=8, lld_gain=10_000, score_cap=100_000, min_active=3)
        for w in range(8):
            s.notify_eviction(w, w * 128)
            s.notify_load_result(miss(w, w * 128, cycle=1))
        assert len(s.load_allowed_warps(2)) >= 3

    def test_blocked_warp_can_still_issue_alu(self):
        s = make(num_warps=4, lld_gain=10_000, score_cap=100_000, min_active=1)
        for w in (1, 2, 3):
            s.notify_eviction(w, w * 128)
            s.notify_load_result(miss(w, w * 128, cycle=1))
        allowed = s.load_allowed_warps(2)
        blocked = next(w for w in range(4) if w not in allowed)
        picked = s.select(OfferedWarps.of([blocked]), 2)
        assert picked == blocked

    def test_blocked_warp_cannot_issue_load(self):
        s = make(num_warps=4, lld_gain=10_000, score_cap=100_000, min_active=1)
        for w in range(4):
            for i in range(3):
                line = (w * 50 + i) * 128
                s.notify_eviction(w, line)
                s.notify_load_result(miss(w, line, cycle=1))
        allowed = s.load_allowed_warps(2)
        blocked = [w for w in range(4) if w not in allowed]
        if blocked:
            assert s.select(OfferedWarps.of(blocked[:1], mem=blocked[:1]), 2) is None

    def test_finished_warps_release_quota(self):
        s = make(num_warps=4)
        s.notify_warp_finished(0)
        assert 0 not in s.load_allowed_warps(0)
        assert s.score(0, 0) == 0.0


class TestSelection:
    def test_round_robin_among_eligible(self):
        s = make(num_warps=4)
        c = OfferedWarps.of(range(4))
        picks = [s.select(c, t) for t in range(4)]
        assert picks == [0, 1, 2, 3]

    def test_empty_candidates(self):
        s = make()
        assert s.select(OfferedWarps(), 0) is None
