"""The benchmark's three workloads, one pass at a time, with output checks.

A *pass* runs every point of a workload once. Each point is timed from
outside the program in process CPU time, with garbage collection off
inside the timed region and a collection before it. After each point, and
once more at the end of the pass, the calibration loop of
``calibration.py`` is timed, so the pass's times can be rescaled to the
reference host. Then the point is checked:

* single-run points: the retired instruction count equals what the kernel
  implies, ``InvariantChecker.check`` passes on the finished simulator,
  and the ``SimStats`` digest equals the digest the same point gave on
  every earlier pass of this invocation;
* sweep points: every cold record is ``ok`` with the implied instruction
  count and a repeatable stats digest, and the registry-memo replay
  returns each cold record's payload unchanged.

A point that raises or fails a check is reported on stderr and counted
in ``failed``; the pass goes on with the next point.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
import traceback
from typing import Iterator, Optional

from repro.config import GPUConfig
from repro.experiments import paper_data, runner
from repro.experiments.configs import CONFIGS, experiment_gpu_config
from repro.experiments.sweep import ResultsStore, run_sweep, sweep_points
from repro.integrity.invariants import InvariantChecker
from repro.registry.scorecard import mape
from repro.registry.store import RegistryStore
from repro.sm.simulator import GPUSimulator
from repro.workloads import suite, synthetic

from calibration import calibrate
from seeding import seeded_workload

#: Warm-up runs the lazy set-up paths (first simulator, first sweep and
#: registry write) on the smallest machine and kernel, so it costs little
#: beyond that set-up.
WARM_UP_GPU = experiment_gpu_config(1)
WARM_UP_SCALE = 0.01

#: Fig 10's five configurations, each scored as a speedup over ``base``.
FIG10_CONFIGS = ("ccws", "laws", "ccws+str", "laws+str", "apres")


def stats_digest(stats_dict: dict) -> str:
    return hashlib.sha256(
        json.dumps(stats_dict, sort_keys=True).encode()).hexdigest()


@contextlib.contextmanager
def _gc_off() -> Iterator[None]:
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclasses.dataclass
class PointResult:
    key: str
    #: CPU seconds of the point's simulation, and of its set-up before it.
    cpu_s: float = 0.0
    setup_s: float = 0.0
    #: The point's ``SimStats.as_dict()``; empty until the point passed.
    stats: dict = dataclasses.field(default_factory=dict)
    ok: bool = False

    @property
    def instructions(self) -> int:
        return self.stats.get("instructions", 0)

    @property
    def cycles(self) -> int:
        return self.stats.get("cycles", 0)


@dataclasses.dataclass
class PassResult:
    points: list[PointResult]
    setup_s: float
    #: CPU seconds of each calibration loop timed during the pass.
    calibrations: list[float]
    #: Registry-memo replay time (sweep workloads only).
    replay_wall_s: float = 0.0
    #: MAPE of measured Fig 10 speedups against the paper (sweep only).
    fig10_mape_pct: float = 0.0
    #: Registry-memo hits over points processed by both sweeps (sweep only).
    memo_hit_ratio: float = 0.0

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.points)

    @property
    def failed(self) -> int:
        return sum(not p.ok for p in self.points)


def _expected_instructions(kernel, gpu) -> int:
    return kernel.instructions_per_warp * gpu.max_warps_per_sm * gpu.num_sms


def _report_failure(key: str, reason: str) -> None:
    print(f"[perfbench] point {key} failed: {reason}", file=sys.stderr)


class Workload:
    """A named set of points; subclasses say how one pass runs."""

    def __init__(self, name: str, scale: float):
        self.name = name
        self.scale = scale
        #: (point key, seed) -> stats digest of its first run in this invocation.
        self.digests: dict[tuple[str, int], str] = {}

    def _check_digest(self, key: str, seed: int, digest: str) -> Optional[str]:
        first = self.digests.setdefault((key, seed), digest)
        return None if first == digest else "stats digest differs from an earlier run"

    def warm_up(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, seed: int) -> PassResult:
        raise NotImplementedError


class SingleRuns(Workload):
    """One ``GPUSimulator`` per (app, config) point, built from seeded kernels."""

    def __init__(self, name: str, scale: float,
                 points: tuple[tuple[str, str], ...], num_sms: int):
        super().__init__(name, scale)
        self.points = points
        self.gpu = experiment_gpu_config(num_sms)

    @staticmethod
    def _build(app: str, config: str, seed: int, scale: float, gpu: GPUConfig):
        kernel = synthetic.build_kernel(seeded_workload(app, seed), scale)
        return kernel, GPUSimulator(kernel, gpu, CONFIGS[config].build)

    def warm_up(self, seed: int) -> None:
        app, config = self.points[0]
        self._build(app, config, seed, WARM_UP_SCALE, WARM_UP_GPU)[1].run()

    def run_pass(self, seed: int) -> PassResult:
        results, calibrations = [], []
        for app, config in self.points:
            point = PointResult(key=f"{app}|{config}")
            results.append(point)
            try:
                with _gc_off():
                    started = time.process_time()
                    kernel, sim = self._build(app, config, seed, self.scale, self.gpu)
                    built = time.process_time()
                    stats = sim.run().stats
                    point.cpu_s = time.process_time() - built
                    calibrations.append(calibrate())
                point.setup_s = built - started
                stats_dict = stats.as_dict()
                error = self._check(point.key, seed, sim, stats_dict, kernel)
            except Exception:
                error = traceback.format_exc()
            point.ok = error is None
            if error is None:
                point.stats = stats_dict
            else:
                _report_failure(point.key, error)
        calibrations.append(calibrate())
        return PassResult(results, setup_s=sum(p.setup_s for p in results),
                          calibrations=calibrations)

    def _check(self, key: str, seed: int, sim: GPUSimulator, stats: dict,
               kernel) -> Optional[str]:
        # ``stats`` is taken before the invariant sweep bumps ``integrity_checks``.
        digest_error = self._check_digest(key, seed, stats_digest(stats))
        expected = _expected_instructions(kernel, self.gpu)
        if stats["instructions"] != expected:
            return f"retired {stats['instructions']} instructions, kernel implies {expected}"
        InvariantChecker(1).check(sim, sim.current_cycle)
        return digest_error


@contextlib.contextmanager
def seeded_suite(apps: tuple[str, ...], seed: int) -> Iterator[None]:
    """Serve seeded specs from the suite while a sweep runs, then restore it.

    ``run_sweep`` looks workloads up by name, so the seeded inputs reach
    it through the suite table; the simulator still sees only kernels.
    """
    saved = {app: suite.SUITE[app] for app in apps}
    suite.SUITE.update({app: seeded_workload(app, seed) for app in apps})
    try:
        yield
    finally:
        suite.SUITE.update(saved)


class Fig10Sweep(Workload):
    """A cold ``run_sweep`` into a fresh registry, then its memo replay."""

    def __init__(self, name: str, scale: float,
                 apps: tuple[str, ...], scratch_dir: str):
        super().__init__(name, scale)
        self.apps = apps
        self.configs = ("base",) + FIG10_CONFIGS
        self.scratch_dir = scratch_dir
        #: (app, seed) -> instructions its kernel implies; filled on the
        #: first pass so later (traced) passes build no extra kernels.
        self._expected: dict[tuple[str, int], int] = {}

    def _implied_instructions(self, app: str, seed: int) -> int:
        if (app, seed) not in self._expected:
            kernel = synthetic.build_kernel(seeded_workload(app, seed), self.scale)
            self._expected[(app, seed)] = _expected_instructions(
                kernel, experiment_gpu_config())
        return self._expected[(app, seed)]

    def _sweep(self, seed: int, scale: float, apps: tuple[str, ...],
               configs: tuple[str, ...],
               gpu_config: Optional[GPUConfig] = None,
               ) -> tuple[float, float, float, list[PointResult], list[float], dict, dict]:
        """One cold sweep plus replay; returns set-up, replay, memo hit
        ratio, points, calibrations and records."""
        started = time.process_time()
        os.makedirs(self.scratch_dir, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=self.scratch_dir)
        try:
            with seeded_suite(apps, seed):
                points = sweep_points(apps, configs, [scale])
                registry = RegistryStore(os.path.join(workdir, "registry"))
                cold_path = os.path.join(workdir, "cold.jsonl")
                warm_path = os.path.join(workdir, "warm.jsonl")
                runner.clear_cache()
                results = [PointResult(key=p.key) for p in points]
                # Point i ran from starts[i] to ends[i]; the calibration
                # after it is timed outside that interval.
                starts: list[float] = []
                ends: list[float] = []
                calibrations: list[float] = []

                def point_done(*_) -> None:
                    ends.append(time.process_time())
                    calibrations.append(calibrate())
                    starts.append(time.process_time())

                with _gc_off():
                    setup_s = time.process_time() - started
                    starts.append(time.process_time())
                    summaries = [run_sweep(
                        points, cold_path, registry=registry, gpu_config=gpu_config,
                        progress=point_done)]
                    runner.clear_cache()
                    replay_started = time.perf_counter()
                    summaries.append(run_sweep(
                        points, warm_path, registry=registry, gpu_config=gpu_config))
                    replay_s = time.perf_counter() - replay_started
                memo_hit_ratio = (sum(s.cache_hits for s in summaries)
                                  / sum(s.total_points for s in summaries))
                for point, begin, end in zip(results, starts, ends):
                    point.cpu_s = end - begin
                cold = ResultsStore(cold_path).load()
                warm = ResultsStore(warm_path).load()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return setup_s, replay_s, memo_hit_ratio, results, calibrations, cold, warm

    def warm_up(self, seed: int) -> None:
        self._sweep(seed, WARM_UP_SCALE, self.apps[:1], ("base",), WARM_UP_GPU)

    def run_pass(self, seed: int) -> PassResult:
        try:
            setup_s, replay_s, memo_hit_ratio, results, calibrations, cold, warm = (
                self._sweep(seed, self.scale, self.apps, self.configs))
        except Exception:
            # A sweep that raises fails every point it was to run.
            points = sweep_points(self.apps, self.configs, [self.scale])
            _report_failure(f"{self.name} sweep", traceback.format_exc())
            return PassResult([PointResult(key=p.key) for p in points], setup_s=0.0,
                              calibrations=[calibrate()])
        ipc: dict[tuple[str, str], float] = {}
        for point in results:
            record = cold.get(point.key, {})
            try:
                error = self._check(point.key, record, warm.get(point.key), seed)
            except Exception:
                error = traceback.format_exc()
            point.ok = error is None
            if error is not None:
                _report_failure(point.key, error)
                continue
            point.stats = record["stats"]
            ipc[(record["workload"], record["config"])] = record["ipc"]
        calibrations.append(calibrate())
        return PassResult(results, setup_s=setup_s, calibrations=calibrations,
                          replay_wall_s=replay_s,
                          fig10_mape_pct=self._mape(ipc), memo_hit_ratio=memo_hit_ratio)

    def _check(self, key: str, record: dict, replayed: Optional[dict],
               seed: int) -> Optional[str]:
        if record.get("status") != "ok":
            return f"cold record status {record.get('status')!r}: {record.get('message')}"
        if replayed != record:
            return "registry replay differs from the cold record"
        expected = self._implied_instructions(record["workload"], seed)
        if record["instructions"] != expected:
            return f"retired {record['instructions']} instructions, kernel implies {expected}"
        return self._check_digest(key, seed, stats_digest(record["stats"]))

    def _mape(self, ipc: dict[tuple[str, str], float]) -> float:
        golden, measured = [], []
        for config in FIG10_CONFIGS:
            for app in self.apps:
                base = ipc.get((app, "base"))
                test = ipc.get((app, config))
                if base and test is not None:
                    golden.append(paper_data.FIG10[config][app])
                    measured.append(test / base)
        return mape(golden, measured) or 0.0


#: Each workload's simulation scale (loop trip count factor). Why each
#: workload exists is recorded next to its name in ``BENCHMARK.json``.
SCALES = {"apres-mem-15sm": 0.05, "compute-issue": 0.25, "fig10-sweep": 0.05}


def make_workload(name: str, scratch_dir: str, scale: Optional[float] = None) -> Workload:
    """The workload ``name``; ``scale`` overrides its default (tests only)."""
    scale = SCALES[name] if scale is None else scale
    if name == "apres-mem-15sm":
        return SingleRuns(name, scale, (("KM", "apres"), ("BFS", "apres"),
                                        ("SPMV", "apres")), num_sms=15)
    if name == "compute-issue":
        return SingleRuns(name, scale, (("HS", "base"), ("PF", "base")),
                          num_sms=experiment_gpu_config().num_sms)
    if name == "fig10-sweep":
        return Fig10Sweep(name, scale, ("BFS", "KM", "SPMV", "LUD", "SRAD", "PF"),
                          scratch_dir)
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(SCALES)}")
