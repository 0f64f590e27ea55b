"""Simulator speed microbenchmark: ``python -m repro bench``.

The hot loop of a cycle-accurate simulator is its product as much as its
metrics are, so speed gets the same treatment as fidelity: a fixed,
deterministic point set, timed cold (the runner cache is cleared before
every point), reduced to one headline number — simulated cycles per
wall-clock second — and archived to ``bench_results/BENCH_sim_speed.json``
plus the registry, where the history under the bench's stable ``run_id``
is the performance trajectory across commits.

Two measurements:

* **point set** — a small cross-section of the suite (thrashing, strided,
  broadcast, streaming) under representative configurations, each timed
  individually; totals aggregate them into cycles/second.
* **figure2 end-to-end** — wall-clock of a full ``figures.figure2`` call
  (the paper's motivation figure: every app under a small and an infinite
  L1), which exercises the whole experiment layer rather than one run.

Wall-clock numbers are host-dependent by nature; the payload says so via
its provenance stamp rather than pretending otherwise.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time
from typing import Any, Optional, Sequence

from repro.experiments import figures
from repro.experiments.runner import clear_cache, run

#: Fixed cross-section timed by the bench: one thrashing (KM), one strided
#: with reuse (LUD), one broadcast-heavy (BFS), one compute-streaming (CS)
#: workload, under baseline and the paper's two headline configurations.
DEFAULT_POINTS: tuple[tuple[str, str], ...] = (
    ("KM", "base"),
    ("KM", "apres"),
    ("LUD", "laws"),
    ("BFS", "apres"),
    ("CS", "base"),
)

#: Default scale: small enough for CI, large enough to exercise the caches.
DEFAULT_SCALE = 0.3

#: Apps for the end-to-end figure2 timing (two points each: small/huge L1).
DEFAULT_FIGURE2_APPS: tuple[str, ...] = ("BFS", "KM", "LUD", "SPMV")


def _time_point(workload: str, config: str, scale: float) -> dict[str, Any]:
    """Cold-cache timing of one runner point."""
    clear_cache()
    started = time.perf_counter()
    result = run(workload, config, scale=scale)
    wall_s = time.perf_counter() - started
    stats = result.sim.stats
    return {
        "workload": workload,
        "config": config,
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "ipc": stats.ipc,
        "wall_s": wall_s,
        "cycles_per_s": stats.cycles / wall_s if wall_s > 0 else 0.0,
    }


def run_bench(
    scale: float = DEFAULT_SCALE,
    points: Sequence[tuple[str, str]] = DEFAULT_POINTS,
    figure2_apps: Optional[Sequence[str]] = DEFAULT_FIGURE2_APPS,
) -> dict[str, Any]:
    """Measure simulation speed; returns the BENCH_sim_speed payload.

    Every point is timed with a cold runner cache (memoisation would turn
    the bench into a dict-lookup benchmark). ``figure2_apps=None`` skips
    the end-to-end measurement.
    """
    from repro.registry.provenance import collect_provenance

    timed = [_time_point(workload, config, scale)
             for workload, config in points]
    total_cycles = sum(p["cycles"] for p in timed)
    total_wall = sum(p["wall_s"] for p in timed)
    payload: dict[str, Any] = {
        "schema": "bench.sim_speed/1",
        "scale": scale,
        "points": timed,
        "totals": {
            "num_points": len(timed),
            "cycles": total_cycles,
            "wall_s": total_wall,
            "cycles_per_s": total_cycles / total_wall if total_wall > 0 else 0.0,
        },
        "provenance": collect_provenance(),
    }
    if figure2_apps:
        clear_cache()
        started = time.perf_counter()
        figures.figure2(list(figure2_apps), scale)
        wall_s = time.perf_counter() - started
        payload["figure2"] = {
            "apps": list(figure2_apps),
            "num_points": 2 * len(figure2_apps),
            "wall_s": wall_s,
        }
        payload["totals"]["figure2_wall_s"] = wall_s
    return payload


#: Shard counts the shard-speed bench measures against the serial engine.
SHARD_BENCH_COUNTS: tuple[int, ...] = (2, 4)

#: Configuration the shard bench times (the paper's headline engine).
SHARD_BENCH_CONFIG = "apres"

#: SM count for the shard bench: the full 15-SM GPU of the paper's
#: methodology. The experiment config trims to 2 SMs for CI speed, which
#: would leave an N-shard split nothing to fast-forward past.
SHARD_BENCH_NUM_SMS = 15


def run_shard_bench(
    scale: float = DEFAULT_SCALE,
    apps: Sequence[str] = DEFAULT_FIGURE2_APPS,
    shard_counts: Sequence[int] = SHARD_BENCH_COUNTS,
    config: str = SHARD_BENCH_CONFIG,
    num_sms: int = SHARD_BENCH_NUM_SMS,
    repeats: int = 3,
    epoch_cycles: Optional[int] = None,
) -> dict[str, Any]:
    """Serial vs sharded cycles/second over the figure-2 workload set.

    Single-shot wall-clock on a shared host is noisy enough to swamp the
    effect being measured, so every (app, engine) cell is timed
    ``repeats`` times with the engines *interleaved* inside each repeat
    (serial, 2 shards, 4 shards, next repeat ...) and reduced to the
    median; gc is disabled around the timed region so a collection
    doesn't land inside one engine's slot. Relaxed epochs trade fill
    latency fidelity for speed, so each sharded engine also reports its
    measured IPC drift and clamped-fill counts against the serial stats
    it approximates — the speedup number is only honest next to the
    drift it buys.
    """
    from repro.experiments.configs import CONFIGS, experiment_gpu_config
    from repro.registry.provenance import collect_provenance
    from repro.shard import DEFAULT_EPOCH_CYCLES, ShardPlan, shard_execute
    from repro.sm.simulator import simulate
    from repro.workloads.suite import workload
    from repro.workloads.synthetic import build_kernel

    epochs = DEFAULT_EPOCH_CYCLES if epoch_cycles is None else epoch_cycles
    cfg = dataclasses.replace(experiment_gpu_config(), num_sms=num_sms)
    engine = CONFIGS[config]
    plans: list[tuple[str, Optional[ShardPlan]]] = [("serial", None)]
    plans += [(f"shard{n}", ShardPlan(n, epochs)) for n in shard_counts]

    kernels = {app: build_kernel(workload(app), scale) for app in apps}
    walls: dict[tuple[str, str], list[float]] = {}
    outcomes: dict[tuple[str, str], tuple[Any, Optional[dict]]] = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for app in apps:
                for label, plan in plans:
                    started = time.perf_counter()
                    if plan is None:
                        sim = simulate(kernels[app], cfg, engine.build)
                        info = None
                    else:
                        sim, info = shard_execute(
                            kernels[app], cfg, engine.build, plan
                        )
                    wall_s = time.perf_counter() - started
                    walls.setdefault((app, label), []).append(wall_s)
                    outcomes[(app, label)] = (sim.stats, info)
    finally:
        if gc_was_enabled:
            gc.enable()

    def engine_payload(label: str, plan: Optional[ShardPlan]) -> dict[str, Any]:
        points = []
        total_cycles = 0
        total_wall = 0.0
        for app in apps:
            stats, info = outcomes[(app, label)]
            wall_s = statistics.median(walls[(app, label)])
            point: dict[str, Any] = {
                "workload": app,
                "cycles": stats.cycles,
                "ipc": stats.ipc,
                "wall_s": wall_s,
                "cycles_per_s": stats.cycles / wall_s if wall_s > 0 else 0.0,
            }
            if info is not None:
                serial_ipc = outcomes[(app, "serial")][0].ipc
                point["ipc_drift_pct"] = (
                    100.0 * (stats.ipc - serial_ipc) / serial_ipc
                    if serial_ipc else 0.0
                )
                point["clamped_fills"] = info["clamped_fills"]
                point["max_clamp_cycles"] = info["max_clamp_cycles"]
            points.append(point)
            total_cycles += stats.cycles
            total_wall += wall_s
        payload: dict[str, Any] = {
            "points": points,
            "totals": {
                "cycles": total_cycles,
                "wall_s": total_wall,
                "cycles_per_s": (
                    total_cycles / total_wall if total_wall > 0 else 0.0
                ),
            },
        }
        if plan is not None:
            payload["shards"] = plan.num_shards
            payload["epoch_cycles"] = plan.epoch_cycles
            payload["bit_exact"] = plan.bit_exact
        return payload

    engines = {label: engine_payload(label, plan) for label, plan in plans}
    serial_cps = engines["serial"]["totals"]["cycles_per_s"]
    for label, _ in plans[1:]:
        totals = engines[label]["totals"]
        totals["speedup_vs_serial"] = (
            totals["cycles_per_s"] / serial_cps if serial_cps else 0.0
        )
    headline_label = plans[-1][0]
    return {
        "schema": "bench.shard_speed/1",
        "scale": scale,
        "config": config,
        "num_sms": num_sms,
        "epoch_cycles": epochs,
        "repeats": repeats,
        "apps": list(apps),
        "engines": engines,
        "headline": {
            "engine": headline_label,
            "speedup_vs_serial":
                engines[headline_label]["totals"]["speedup_vs_serial"],
        },
        "provenance": collect_provenance(),
    }


#: Telemetry modes the overhead bench compares. ``off`` is the baseline
#: (no hub), ``stalls`` is what ``--telemetry`` costs (stall engine +
#: interval collector, no event objects), ``trace`` is the full event
#: stream into a Chrome trace builder (``--trace-out``).
TELEMETRY_BENCH_MODES: tuple[str, ...] = ("off", "stalls", "trace")

#: Workload/config cell for the overhead bench: the thrashing workload
#: under the paper's engine — the densest stall/event stream in the suite.
TELEMETRY_BENCH_POINT: tuple[str, str] = ("KM", "apres")


def run_telemetry_bench(
    scale: float = DEFAULT_SCALE,
    point: tuple[str, str] = TELEMETRY_BENCH_POINT,
    repeats: int = 5,
    window: int = 5_000,
) -> dict[str, Any]:
    """Telemetry overhead: off vs stalls vs full trace, serial vs sharded.

    Times every (mode, engine) cell ``repeats`` times with the cells
    interleaved inside each repeat and reduced to the median, gc disabled
    around the timed region — the same noise discipline as the shard
    bench. The sharded engine is the lock-step plan (``2 shards, E=1``),
    i.e. the byte-identical distributed-telemetry merge, so the "shards"
    column prices the per-lane recording + parent merge, not a different
    simulation. Hub construction is timed too: the CLI pays it per run.

    The payload backs DESIGN.md's measured-overhead table; overhead
    percentages are relative to the same engine's ``off`` mode.
    """
    from repro.experiments.configs import CONFIGS, experiment_gpu_config
    from repro.registry.provenance import collect_provenance
    from repro.shard import ShardPlan, shard_execute
    from repro.sm.simulator import simulate
    from repro.telemetry import TelemetryHub
    from repro.workloads.suite import workload
    from repro.workloads.synthetic import build_kernel

    app, config = point
    cfg = experiment_gpu_config()
    engine = CONFIGS[config]
    kernel = build_kernel(workload(app), scale)
    engines: list[tuple[str, Optional[ShardPlan]]] = [
        ("serial", None), ("shard2xE1", ShardPlan(2, 1))]

    def build_hub(mode: str) -> Optional[TelemetryHub]:
        if mode == "off":
            return None
        return TelemetryHub(window=window, trace=(mode == "trace"))

    walls: dict[tuple[str, str], list[float]] = {}
    cycles: dict[tuple[str, str], int] = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for mode in TELEMETRY_BENCH_MODES:
                for label, plan in engines:
                    started = time.perf_counter()
                    hub = build_hub(mode)
                    if plan is None:
                        sim = simulate(kernel, cfg, engine.build,
                                       telemetry=hub)
                    else:
                        sim, _ = shard_execute(kernel, cfg, engine.build,
                                               plan, telemetry=hub)
                    wall_s = time.perf_counter() - started
                    walls.setdefault((mode, label), []).append(wall_s)
                    cycles[(mode, label)] = sim.stats.cycles
    finally:
        if gc_was_enabled:
            gc.enable()

    cells: dict[str, dict[str, Any]] = {}
    for mode in TELEMETRY_BENCH_MODES:
        per_engine: dict[str, Any] = {}
        for label, _plan in engines:
            wall_s = statistics.median(walls[(mode, label)])
            baseline = statistics.median(walls[("off", label)])
            per_engine[label] = {
                "wall_s": wall_s,
                "cycles": cycles[(mode, label)],
                "cycles_per_s": (
                    cycles[(mode, label)] / wall_s if wall_s > 0 else 0.0
                ),
                "overhead_pct_vs_off": (
                    100.0 * (wall_s - baseline) / baseline
                    if baseline > 0 else 0.0
                ),
            }
        cells[mode] = per_engine
    return {
        "schema": "bench.telemetry_overhead/1",
        "scale": scale,
        "workload": app,
        "config": config,
        "num_sms": cfg.num_sms,
        "window": window,
        "repeats": repeats,
        "modes": cells,
        "headline": {
            "stalls_overhead_pct":
                cells["stalls"]["serial"]["overhead_pct_vs_off"],
            "trace_overhead_pct":
                cells["trace"]["serial"]["overhead_pct_vs_off"],
            "shard_stalls_overhead_pct":
                cells["stalls"]["shard2xE1"]["overhead_pct_vs_off"],
        },
        "provenance": collect_provenance(),
    }
