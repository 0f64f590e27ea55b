"""Metric definitions: what each number is, and what it should move.

End-to-end metrics come from untraced passes, and their times are in
reference seconds (see ``calibration.py``). Per-layer metrics come from
one traced pass (self time, call counts, ratios), next to one untraced
pass of the same points (CPU-time rates, replay time, trace overhead);
their times are this host's, as measured.
Each per-layer metric names the end-to-end metric it should move and the
workload where that shows, so a change to one layer can be defended by
these names; ``"none"`` marks numbers no speed change should move.
"""

from __future__ import annotations

import dataclasses
import functools
import re
import statistics
from typing import Callable

from calibration import reference_seconds
from tracer import CALLS, INCL_S, SELF_S, TALLY_A, TALLY_B, Tracer
from workloads import PassResult

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@dataclasses.dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("sim_s", "s", "lower", 0.25),
    EndToEnd("sim_instr_per_s", "1/s", "higher", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
)


def end_to_end(passes: list[PassResult], setups: list[float],
               peak_rss_mb: float) -> dict[str, float]:
    """Medians over passes, rescaled by the run's median calibration.

    ``setups`` holds one set-up sample per pass: the CPU seconds of a
    from-scratch import and warm-up of the simulator in a new process.
    Each is added to the pass's own set-up (kernel builds and simulator or
    registry construction). ``sim_s`` is the CPU time of one pass's
    simulations. One median over every calibration of the run repeats
    better from run to run than one per pass, which rests on three or four
    samples for the single-run workloads.
    """
    calibration_s = statistics.median(c for p in passes for c in p.calibrations)
    sim_s = reference_seconds(statistics.median(p.cpu_s for p in passes), calibration_s)
    setup_s = reference_seconds(
        statistics.median(fresh + p.setup_s for fresh, p in zip(setups, passes)),
        calibration_s)
    instructions = sum(max(p.instructions for p in samples)
                       for samples in zip(*(pr.points for pr in passes)))
    return {
        "setup_s": setup_s,
        "sim_s": sim_s,
        "sim_instr_per_s": instructions / sim_s if sim_s else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


@dataclasses.dataclass
class TracedRun:
    """One untraced and one traced pass of the same points."""

    tracer: Tracer
    plain: PassResult
    traced: PassResult

    def calls(self, span: str) -> int:
        return self.tracer.get(span, CALLS)

    def tally(self, span: str, slot: int) -> int:
        return self.tracer.get(span, slot)

    def self_s(self, layer: str) -> float:
        return self.tracer.layer_sum(layer, SELF_S)

    def stat(self, *path: str) -> int:
        """A ``SimStats`` counter summed over the traced pass's points."""
        return sum(functools.reduce(dict.__getitem__, path, p.stats)
                   for p in self.traced.points if p.stats)

    @property
    def sim_cycles(self) -> int:
        return self.stat("cycles")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclasses.dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: End-to-end metric this should move, or "none".
    moves: str
    #: Workload where that shows.
    on: str
    value: Callable[[TracedRun], float]


_APRES, _ISSUE, _SWEEP = "apres-mem-15sm", "compute-issue", "fig10-sweep"

PER_LAYER = (
    # sm: the issue scan and the serial main loop.
    LayerMetric("sm.self_s", "s", "lower", "sim_s", _APRES, lambda r: r.self_s("sm")),
    LayerMetric("sm.cycle.calls", "count", "lower", "sim_s", _APRES,
                lambda r: r.calls("sm.cycle")),
    # An issuing cycle issues one instruction, so instructions count them.
    LayerMetric("sm.cycle.issue_ratio", "ratio", "higher", "sim_s", _ISSUE,
                lambda r: _ratio(r.stat("instructions"), r.calls("sm.cycle"))),
    LayerMetric("sm.cycle.calls_per_sim_cycle", "1/cycle", "lower", "sim_s", _APRES,
                lambda r: _ratio(r.calls("sm.cycle"), r.sim_cycles)),
    LayerMetric("sm.wake_hint.calls", "count", "lower", "sim_s", _APRES,
                lambda r: r.calls("sm.wake_hint")),
    LayerMetric("sm.ticks", "count", "lower", "sim_s", _APRES,
                lambda r: r.calls("mem.events.run_until")),
    LayerMetric("sm.sim_cycles", "count", "lower", "sim_s", _APRES,
                lambda r: r.sim_cycles),
    LayerMetric("sm.skip_ratio", "ratio", "higher", "sim_s", _APRES,
                lambda r: 1.0 - _ratio(r.calls("mem.events.run_until"), r.sim_cycles)
                if r.sim_cycles else 0.0),
    LayerMetric("sm.sim_cycles_per_s", "cycle/s", "higher", "sim_s", _APRES,
                lambda r: _ratio(sum(p.cycles for p in r.plain.points), r.plain.cpu_s)),
    # sched: baseline schedulers (LRR, CCWS, ...).
    LayerMetric("sched.self_s", "s", "lower", "sim_s", _ISSUE, lambda r: r.self_s("sched")),
    LayerMetric("sched.select.calls", "count", "lower", "sim_s", _ISSUE,
                lambda r: r.calls("sched.select")),
    LayerMetric("sched.select.candidates_mean", "count", "lower", "sim_s", _ISSUE,
                lambda r: _ratio(r.tally("sched.select", TALLY_A), r.calls("sched.select"))),
    LayerMetric("sched.select.none_ratio", "ratio", "lower", "sim_s", _SWEEP,
                lambda r: _ratio(r.tally("sched.select", TALLY_B), r.calls("sched.select"))),
    LayerMetric("sched.notify.calls", "count", "lower", "sim_s", _ISSUE,
                lambda r: r.calls("sched.notify")),
    # core: the APRES tables (LAWS, LLT, WGT, SAP).
    LayerMetric("core.self_s", "s", "lower", "sim_instr_per_s", _APRES,
                lambda r: r.self_s("core")),
    LayerMetric("core.self_us_per_load", "us", "lower", "sim_instr_per_s", _APRES,
                lambda r: _ratio(1e6 * r.self_s("core"), r.stat("load_instructions"))),
    LayerMetric("core.laws.select.calls", "count", "lower", "sim_instr_per_s", _APRES,
                lambda r: r.calls("core.laws.select")),
    LayerMetric("core.laws.load_result.calls", "count", "lower", "sim_instr_per_s", _APRES,
                lambda r: r.calls("core.laws.load_result")),
    LayerMetric("core.llt.scan.calls", "count", "lower", "sim_instr_per_s", _APRES,
                lambda r: r.calls("core.llt.scan")),
    LayerMetric("core.wgt.insert.calls", "count", "lower", "sim_instr_per_s", _APRES,
                lambda r: r.calls("core.wgt.insert")),
    LayerMetric("core.sap.observe.calls", "count", "lower", "sim_instr_per_s", _APRES,
                lambda r: r.calls("core.sap.observe")),
    LayerMetric("core.sap.candidates_per_load", "count", "lower", "sim_instr_per_s", _APRES,
                lambda r: _ratio(r.tally("core.sap.observe", TALLY_A),
                                 r.calls("core.sap.observe"))),
    # prefetch: baseline prefetchers (STR, ...) and the L1 prefetch port.
    LayerMetric("prefetch.self_s", "s", "lower", "sim_s", _SWEEP,
                lambda r: r.self_s("prefetch")),
    LayerMetric("prefetch.observe.calls", "count", "lower", "sim_s", _SWEEP,
                lambda r: r.calls("prefetch.observe_load")),
    LayerMetric("prefetch.issue_ratio", "ratio", "higher", "sim_s", _SWEEP,
                lambda r: _ratio(r.stat("l1", "prefetch_issued"), r.calls("mem.l1.prefetch"))),
    # mem: L1/MSHR, L2, DRAM and the event queue.
    LayerMetric("mem.self_s", "s", "lower", "sim_instr_per_s", _APRES,
                lambda r: r.self_s("mem")),
    LayerMetric("mem.l1.access.calls", "count", "lower", "sim_instr_per_s", _APRES,
                lambda r: r.calls("mem.l1.access")),
    LayerMetric("mem.l1.hit_ratio", "ratio", "higher", "sim_instr_per_s", _APRES,
                lambda r: _ratio(r.stat("l1", "hits"), r.stat("l1", "accesses"))),
    # Every reservation fail is an access that returned STALL.
    LayerMetric("mem.l1.stall_ratio", "ratio", "lower", "sim_instr_per_s", _APRES,
                lambda r: _ratio(r.stat("l1", "reservation_fails"), r.calls("mem.l1.access"))),
    LayerMetric("mem.l1.fill.calls", "count", "lower", "sim_instr_per_s", _APRES,
                lambda r: r.calls("mem.l1.fill")),
    LayerMetric("mem.l2.access.calls", "count", "lower", "sim_instr_per_s", _APRES,
                lambda r: r.calls("mem.l2.access")),
    LayerMetric("mem.dram.request.calls", "count", "lower", "sim_instr_per_s", _APRES,
                lambda r: r.calls("mem.dram.request")),
    LayerMetric("mem.events.scheduled", "count", "lower", "sim_instr_per_s", _APRES,
                lambda r: r.calls("mem.events.schedule")),
    # isa: per-lane address generation and coalescing.
    LayerMetric("isa.self_s", "s", "lower", "sim_instr_per_s", _APRES,
                lambda r: r.self_s("isa")),
    LayerMetric("isa.coalesced.calls", "count", "lower", "sim_instr_per_s", _APRES,
                lambda r: r.calls("isa.coalesced")),
    # workloads, stats: per-point set-up and energy accounting.
    LayerMetric("workloads.build_s", "s", "lower", "sim_s", _SWEEP,
                lambda r: r.tracer.get("workloads.build", INCL_S)),
    LayerMetric("stats.energy_s", "s", "lower", "sim_s", _SWEEP,
                lambda r: r.tracer.get("stats.energy", INCL_S)),
    # experiments, registry: the sweep harness and its run memo.
    LayerMetric("experiments.self_s", "s", "lower", "sim_s", _SWEEP,
                lambda r: r.self_s("experiments")),
    LayerMetric("experiments.run.calls", "count", "lower", "sim_s", _SWEEP,
                lambda r: r.calls("experiments.run")),
    LayerMetric("experiments.cache_hit_ratio", "ratio", "higher", "sim_s", _SWEEP,
                lambda r: r.traced.memo_hit_ratio),
    LayerMetric("registry.write_s", "s", "lower", "sim_s", _SWEEP,
                lambda r: r.tracer.get("registry.write", INCL_S)),
    LayerMetric("registry.read_s", "s", "lower", "sim_s", _SWEEP,
                lambda r: r.tracer.get("registry.read", INCL_S)),
    LayerMetric("registry.records", "count", "lower", "sim_s", _SWEEP,
                lambda r: r.calls("registry.write")),
    # Numbers no speed change should move.
    LayerMetric("replay_wall_s", "s", "lower", "none", _SWEEP,
                lambda r: r.plain.replay_wall_s),
    LayerMetric("fig10_mape_pct", "%", "lower", "none", _SWEEP,
                lambda r: r.plain.fig10_mape_pct),
    LayerMetric("trace.overhead_pct", "%", "lower", "none", _APRES,
                lambda r: 100.0 * (_ratio(r.traced.cpu_s, r.plain.cpu_s) - 1.0)),
)


def per_layer(run: TracedRun) -> dict[str, float]:
    return {m.name: float(m.value(run)) for m in PER_LAYER}


def units() -> dict[str, str]:
    return {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}
