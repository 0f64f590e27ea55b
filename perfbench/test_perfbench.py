"""Tests of the benchmark itself: inputs, checks, tracing and metric table.

Run from the repository root with ``python -m pytest perfbench``. Points
run at the smallest scale so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import calibration
import metrics
import run
import steadiness
import workloads
from repro.isa.address import IndirectAddress, IrregularAddress
from repro.workloads import synthetic
from repro.workloads.suite import SUITE, workload
from seeding import seeded_spec, seeded_workload
from tracer import CALLS, Tracer, method_targets

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = 0.01


def _tiny(name: str, tmp_path) -> workloads.Workload:
    if name == "fig10-sweep":
        # Two apps keep the sweep short; both schedulers and STR still run.
        return workloads.Fig10Sweep(name, TINY, ("KM", "PF"), str(tmp_path))
    return workloads.make_workload(name, str(tmp_path), scale=TINY)


def _traced_pass(workload: workloads.Workload, seed: int):
    tracer = Tracer()
    tracer.install()
    try:
        result = workload.run_pass(seed)
    finally:
        tracer.uninstall()
    return tracer, result


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("abbr", sorted(SUITE))
def test_seed_zero_reproduces_the_suite(abbr):
    spec = seeded_workload(abbr, 0)
    assert spec == workload(abbr)
    assert repr(spec) == repr(workload(abbr))
    assert synthetic.build_kernel(spec, 0.5) == synthetic.build_kernel(workload(abbr), 0.5)


def _irregular_streams(spec) -> list:
    return [
        load.gen.coalesced(warp, iteration, 128)
        for load in spec.loads
        if isinstance(load.gen, (IrregularAddress, IndirectAddress))
        for warp in range(8) for iteration in range(4)
    ]


@pytest.mark.parametrize("abbr", ["BFS", "SPMV"])
@pytest.mark.parametrize("seed", [1, 7])
def test_nonzero_seed_moves_addresses_but_keeps_instruction_count(abbr, seed):
    base, seeded = workload(abbr), seeded_workload(abbr, seed)
    assert _irregular_streams(seeded) != _irregular_streams(base)
    for kernel_scale in (0.05, 0.5):
        assert (synthetic.build_kernel(seeded, kernel_scale).instructions_per_warp
                == synthetic.build_kernel(base, kernel_scale).instructions_per_warp)
    for old, new in zip(base.loads, seeded.loads):
        shift = new.gen.base - old.gen.base
        assert shift % 128 == 0 and 0 <= shift < 128 * 2048


def test_a_generator_shared_by_two_loads_stays_shared():
    bp = seeded_spec(workload("BP"), 3)
    assert bp.loads[0].gen is bp.loads[1].gen


def test_same_seed_gives_the_same_inputs():
    assert seeded_workload("BFS", 5) == seeded_workload("BFS", 5)


# ----------------------------------------------------------------------
# Output checks and tracing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["apres-mem-15sm", "compute-issue", "fig10-sweep"])
def test_tracing_is_transparent_and_counts_repeat(name, tmp_path):
    counts = []
    for _ in range(2):
        # As in run.py: an untraced pass, then a traced pass that re-checks
        # each point's stats digest against it, so zero failures means
        # tracing changed no statistic.
        workload_ = _tiny(name, tmp_path)
        assert workload_.run_pass(3).failed == 0
        tracer, traced = _traced_pass(workload_, 3)
        assert traced.failed == 0
        counts.append(tracer.counts())
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_apres_tables_run_only_where_apres_runs(tmp_path):
    apres, _ = _traced_pass(_tiny("apres-mem-15sm", tmp_path), 1)
    issue, _ = _traced_pass(_tiny("compute-issue", tmp_path), 1)
    sweep, sweep_pass = _traced_pass(_tiny("fig10-sweep", tmp_path), 1)
    for span in ("core.laws.select", "core.laws.load_result", "core.llt.scan",
                 "core.wgt.insert", "core.sap.observe"):
        assert apres.get(span, CALLS) > 0
        assert issue.get(span, CALLS) == 0
    assert issue.layer_sum("core", CALLS) == 0
    for tracer in (apres, issue):
        assert tracer.layer_sum("registry", CALLS) == 0
    assert sweep.get("registry.write", CALLS) > 0
    assert sweep.get("registry.read", CALLS) > 0
    # The cold sweep misses the memo on every point and the replay hits it.
    assert sweep_pass.memo_hit_ratio == 0.5


def test_uninstall_restores_every_method():
    before = {(cls, m): vars(cls)[m] for cls, m in method_targets()}
    build_kernel = synthetic.build_kernel
    tracer = Tracer()
    tracer.install()
    assert synthetic.build_kernel is not build_kernel
    tracer.uninstall()
    assert {(cls, m): vars(cls)[m] for cls, m in method_targets()} == before
    assert synthetic.build_kernel is build_kernel


@pytest.mark.parametrize("name", ["compute-issue", "fig10-sweep"])
def test_a_pass_calibrates_after_every_point_and_at_its_end(name, tmp_path):
    result = _tiny(name, tmp_path).run_pass(0)
    assert len(result.calibrations) == len(result.points) + 1
    assert all(c > 0 for c in result.calibrations)
    assert all(p.cpu_s > 0 for p in result.points)


def test_end_to_end_times_are_rescaled_by_each_pass_calibration():
    def pass_(cpu_s: float, calibration_s: float) -> workloads.PassResult:
        point = workloads.PointResult(key="p", cpu_s=cpu_s, stats={"instructions": 10},
                                      ok=True)
        return workloads.PassResult([point], setup_s=cpu_s / 2,
                                    calibrations=[calibration_s] * 3)

    # The same code on a host running at full speed, then at half speed.
    fast = metrics.end_to_end([pass_(2.0, 0.1)] * 3, [0.1] * 3, peak_rss_mb=50.0)
    slow = metrics.end_to_end([pass_(4.0, 0.2)] * 3, [0.2] * 3, peak_rss_mb=50.0)
    assert fast == pytest.approx(slow)
    assert fast["sim_s"] == pytest.approx(2.0 * calibration.REFERENCE_S / 0.1)
    assert fast["setup_s"] == pytest.approx(1.1 * calibration.REFERENCE_S / 0.1)
    assert fast["sim_instr_per_s"] == pytest.approx(10 / fast["sim_s"])


def test_the_calibration_loop_checks_its_own_result(monkeypatch):
    assert calibration.calibrate() > 0
    monkeypatch.setattr(calibration, "CHECKSUM", calibration.CHECKSUM + 1)
    with pytest.raises(RuntimeError):
        calibration.calibrate()


def test_a_failed_check_counts_and_the_pass_goes_on(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "_expected_instructions", lambda kernel, gpu: -1)
    result = _tiny("compute-issue", tmp_path).run_pass(0)
    assert [p.ok for p in result.points] == [False, False]
    assert result.failed == 2


def test_a_digest_change_between_repeats_is_a_failure(tmp_path):
    workload_ = _tiny("compute-issue", tmp_path)
    workload_.run_pass(0)
    workload_.digests = {key: "0" * 64 for key in workload_.digests}
    assert workload_.run_pass(0).failed == 2


def test_sweep_replay_must_equal_the_cold_record(tmp_path, monkeypatch):
    workload_ = _tiny("fig10-sweep", tmp_path)
    real_load = workloads.ResultsStore.load

    def load_with_drift(store):
        records = real_load(store)
        if store.path.endswith("warm.jsonl"):
            for record in records.values():
                record["cycles"] += 1
        return records

    monkeypatch.setattr(workloads.ResultsStore, "load", load_with_drift)
    result = workload_.run_pass(0)
    assert result.failed == len(result.points) > 0


# ----------------------------------------------------------------------
# Metric table and BENCHMARK.json
# ----------------------------------------------------------------------

def test_metric_names_and_units_are_well_formed():
    names = [m.name for m in (*metrics.END_TO_END, *metrics.PER_LAYER)]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.fullmatch(name), name
    for unit in metrics.units().values():
        assert len(unit) <= 16 and all(c.isalnum() or c in "_/%.-" for c in unit)


def test_every_layer_metric_names_what_it_should_move():
    end_to_end = {m.name for m in metrics.END_TO_END}
    for metric in metrics.PER_LAYER:
        assert metric.moves in end_to_end | {"none"}, metric.name
        assert metric.on in run.WORKLOAD_NAMES, metric.name


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.SCALES) == set(run.WORKLOAD_NAMES)
    assert SPEC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END]
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER]
    setup = next(m for m in metrics.END_TO_END if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in metrics.END_TO_END)


def test_steadiness_flags_spread_beyond_the_bound():
    results = [{"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"sim_s": {"value": v, "unit": "s"},
                            "setup_s": {"value": v, "unit": "s"}}}
               for v in (1.0, 1.5, 2.0, 2.5)]
    # Spread (Q3 - Q1) / median of these values is about 0.71.
    for bound, flagged in ((0.1, True), (1.0, False)):
        lines = steadiness.report(results, {"sim_s": bound, "setup_s": bound})
        for name in ("sim_s", "setup_s"):
            line = next(line for line in lines if line.startswith(name))
            assert ("SPREAD > bound" in line) == flagged, (bound, line)


def test_run_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compute-issue",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
