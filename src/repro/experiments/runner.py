"""Memoised simulation runner.

Figures 10-15 all evaluate the same handful of configurations over the
same 15 workloads, so results are cached per
``(workload, config, scale, GPU config)`` within the process. Every run is
deterministic, which makes the cache safe. The cache is a bounded LRU so
unbounded sweeps (see :mod:`repro.experiments.sweep`, which persists its
results to disk instead) cannot grow memory without limit.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.config import GPUConfig
from repro.experiments.configs import CONFIGS, experiment_gpu_config
from repro.shard import ShardPlan, shard_execute
from repro.sm.simulator import SimulationResult, simulate
from repro.stats.energy import EnergyModel, EnergyReport
from repro.telemetry.metrics import get_registry
from repro.workloads.suite import workload
from repro.workloads.synthetic import build_kernel

# Cache keys embed GPUConfig instances; if the dataclass ever stops being
# frozen (and therefore hashable), keys would silently alias or crash deep
# inside dict machinery. Fail loudly at import time instead.
if not GPUConfig.__dataclass_params__.frozen:  # pragma: no cover - config bug
    raise TypeError("GPUConfig must stay a frozen dataclass: runner cache "
                    "keys rely on structural hashing")
hash(GPUConfig())  # raises TypeError if any field breaks hashability


@dataclass(frozen=True)
class RunResult:
    """One simulated (workload, configuration) point with derived metrics."""

    workload: str
    config_name: str
    sim: SimulationResult
    energy: EnergyReport
    #: Shard drift/attempt report when the point ran under ``--shards``
    #: (see :func:`repro.shard.shard_execute`); ``None`` for serial runs.
    shard_info: Optional[dict] = None

    @property
    def ipc(self) -> float:
        return self.sim.ipc

    @property
    def cycles(self) -> int:
        return self.sim.cycles


#: Process-wide default shard plan, set once by the CLI (``--shards``) so
#: figure/scorecard producers — which only ever call :func:`run` — inherit
#: intra-run sharding without threading a plan through every call site.
_DEFAULT_SHARD_PLAN: Optional[ShardPlan] = None

#: Sentinel distinguishing "not passed" from an explicit ``None`` (serial).
_PLAN_UNSET = object()


def set_default_shard_plan(plan: Optional[ShardPlan]) -> None:
    """Install (or clear, with ``None``) the process-wide shard plan."""
    global _DEFAULT_SHARD_PLAN
    _DEFAULT_SHARD_PLAN = plan


def default_shard_plan() -> Optional[ShardPlan]:
    """The process-wide shard plan, or ``None`` (serial execution)."""
    return _DEFAULT_SHARD_PLAN


def _effective_plan(shard_plan) -> Optional[ShardPlan]:
    return _DEFAULT_SHARD_PLAN if shard_plan is _PLAN_UNSET else shard_plan


#: Default LRU capacity; override via $REPRO_RUN_CACHE_SIZE or set_cache_limit.
_DEFAULT_CACHE_SIZE = 256

_CACHE: "OrderedDict[tuple, RunResult]" = OrderedDict()
_cache_max = max(1, int(os.environ.get("REPRO_RUN_CACHE_SIZE", _DEFAULT_CACHE_SIZE)))


def set_cache_limit(max_entries: int) -> None:
    """Bound the memoisation cache to ``max_entries`` (evicting LRU-first)."""
    global _cache_max
    if max_entries < 1:
        raise ValueError("cache limit must be >= 1")
    _cache_max = max_entries
    while len(_CACHE) > _cache_max:
        _CACHE.popitem(last=False)


def cache_limit() -> int:
    """Current LRU capacity of the memoisation cache."""
    return _cache_max


def clear_cache() -> None:
    """Drop memoised results (tests use this to force fresh runs)."""
    _CACHE.clear()


def cache_key(
    workload_abbr: str,
    config_name: str,
    scale: float,
    gpu_config: Optional[GPUConfig] = None,
    shard_plan=_PLAN_UNSET,
) -> tuple:
    """The memoisation key :func:`run` would use for these arguments.

    Bit-exact shard plans (lock-step ``E=1``) and serial execution share
    one key — their results are identical by construction — while
    relaxed plans append their identity tag so drifted statistics never
    masquerade as serial ones.
    """
    key = (workload_abbr, config_name, scale,
           gpu_config or experiment_gpu_config())
    plan = _effective_plan(shard_plan)
    if plan is not None and not plan.bit_exact:
        key += (plan.identity_tag,)
    return key


def is_cached(
    workload_abbr: str,
    config_name: str,
    scale: float,
    gpu_config: Optional[GPUConfig] = None,
    shard_plan=_PLAN_UNSET,
) -> bool:
    """True when :func:`run` with these arguments would be a cache hit."""
    return cache_key(
        workload_abbr, config_name, scale, gpu_config, shard_plan,
    ) in _CACHE


def seed_cache(
    workload_abbr: str,
    config_name: str,
    scale: float,
    gpu_config: Optional[GPUConfig],
    result: RunResult,
    shard_plan=_PLAN_UNSET,
) -> None:
    """Install a result computed elsewhere (e.g. a pool worker) into the cache.

    The parallel prewarmer (:mod:`repro.experiments.parallel`) simulates
    points in worker processes and seeds them here, so the figure/scorecard
    code paths — which only ever call :func:`run` — pick them up without
    knowing parallelism exists. Simulation is deterministic, so a seeded
    result is indistinguishable from one computed in-process.
    """
    key = cache_key(workload_abbr, config_name, scale, gpu_config, shard_plan)
    _CACHE[key] = result
    while len(_CACHE) > _cache_max:
        _CACHE.popitem(last=False)


def run(
    workload_abbr: str,
    config_name: str,
    scale: float = 1.0,
    gpu_config: Optional[GPUConfig] = None,
    telemetry=None,
    shard_plan=_PLAN_UNSET,
    shard_supervisor=None,
) -> RunResult:
    """Simulate one workload under one named configuration (memoised).

    A run with ``telemetry`` (a :class:`repro.telemetry.TelemetryHub`)
    bypasses the cache entirely — both lookup and store — because the
    hub is bound to the specific simulator instance and a memoised
    result would silently carry no telemetry.

    ``shard_plan`` switches the point to the epoch-barrier sharded
    engine (default: the process-wide plan installed by the CLI's
    ``--shards``; pass ``None`` explicitly to force serial). Telemetry
    hubs combine with shard plans since the distributed-telemetry merge:
    lanes record into per-lane buffers and the parent merges them into
    the hub at every epoch barrier (see :mod:`repro.shard.telemetry`).
    """
    if config_name not in CONFIGS:
        known = ", ".join(sorted(CONFIGS))
        raise ValueError(f"unknown config {config_name!r}; known: {known}")
    plan = _effective_plan(shard_plan)
    cfg = gpu_config or experiment_gpu_config()
    key = cache_key(workload_abbr, config_name, scale, cfg, plan)
    if telemetry is None:
        cached = _CACHE.get(key)
        if cached is not None:
            _CACHE.move_to_end(key)
            get_registry().counter("registry.cache.hits").inc()
            return cached
        get_registry().counter("registry.cache.misses").inc()

    shard_info = None
    spec = workload(workload_abbr)
    kernel = build_kernel(spec, scale)
    engine = CONFIGS[config_name]
    if plan is None:
        sim = simulate(kernel, cfg, engine.build, telemetry=telemetry)
    else:
        sim, shard_info = shard_execute(
            kernel, cfg, engine.build, plan, supervisor=shard_supervisor,
            telemetry=telemetry,
        )
    energy = EnergyModel().report(
        sim.stats, apres_events=sim.engine_events, num_sms=cfg.num_sms
    )
    result = RunResult(workload_abbr, config_name, sim, energy,
                       shard_info=shard_info)
    if telemetry is None:
        _CACHE[key] = result
        while len(_CACHE) > _cache_max:
            _CACHE.popitem(last=False)
    return result


def speedup(
    workload_abbr: str,
    config_name: str,
    baseline: str = "base",
    scale: float = 1.0,
    gpu_config: Optional[GPUConfig] = None,
) -> float:
    """IPC of ``config_name`` over ``baseline`` for one workload."""
    test = run(workload_abbr, config_name, scale, gpu_config)
    base = run(workload_abbr, baseline, scale, gpu_config)
    return test.ipc / base.ipc if base.ipc else 0.0
