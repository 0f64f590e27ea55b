"""Benchmark entry point: one workload, timed from outside the simulator.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload apres-mem-15sm --seed 1 --seconds 40 --trace 0

Workloads and their reasons are listed in ``BENCHMARK.json``. The seed
picks the workload's inputs (see ``seeding.py``); the same seed gives the
same inputs. With ``--trace 0`` it repeats passes over the
workload's points until ``--seconds`` is spent (at least two, so every
point's stats digest is compared across repeats) and reports the
end-to-end metrics. With ``--trace 1`` it runs one untraced and one
traced pass and reports the per-layer metrics. Either way the last line
of standard output is one JSON object::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

``attempted``/``failed`` count points: a point fails when it raises or
its outputs fail a check, so ``failed / attempted`` is the fail fraction.
End-to-end times are medians over passes, in reference seconds: CPU
time rescaled by the calibration loop timed after every point
(``calibration.py``), so the host's drift in speed mostly cancels.
The passes run in this one process. After each pass a set-up sample runs
in a new process (``setup_sample.py``), and this one waits for it, so
at most two processes exist and only one of them is busy. Scratch files
go to ``.perfbench_tmp/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import resource
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("apres-mem-15sm", "compute-issue", "fig10-sweep")
#: Repeats needed to compare a point's stats digest across runs.
MIN_PASSES = 2


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_simulator() -> None:
    """Import the checkout's ``repro``; fail without its sources."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {src}")
    sys.path.insert(0, str(src))
    importlib.import_module("repro")


def _time_fresh_setup(workload_name: str, seed: int, scratch: pathlib.Path) -> float:
    """CPU seconds of one set-up, taken in a new process by ``setup_sample.py``."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_sample.py"),
         workload_name, str(seed), str(scratch)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    args = _parse(argv)
    _import_simulator()
    import metrics
    from tracer import Tracer
    from workloads import make_workload

    scratch = ROOT / ".perfbench_tmp"
    workload = make_workload(args.workload, str(scratch))
    try:
        # Untimed: loads what the simulator imports lazily, so every
        # timed sample, set-up included, starts from the same state.
        workload.warm_up(args.seed)
        if args.trace:
            plain = workload.run_pass(args.seed)
            tracer = Tracer()
            tracer.install()
            try:
                traced = workload.run_pass(args.seed)
            finally:
                tracer.uninstall()
            passes = [plain, traced]
            values = metrics.per_layer(metrics.TracedRun(tracer, plain, traced))
        else:
            passes = []
            setups = []
            started = time.perf_counter()
            while True:
                passes.append(workload.run_pass(args.seed))
                setups.append(_time_fresh_setup(args.workload, args.seed, scratch)
                              + passes[-1].setup_s)
                elapsed = time.perf_counter() - started
                if (len(passes) >= MIN_PASSES
                        and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
                    break
            values = metrics.end_to_end(passes, setups, _peak_rss_mb())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(p.points) for p in passes)
    failed = sum(p.failed for p in passes)
    units = metrics.units()
    for number, pass_ in enumerate(passes):
        print(f"{args.workload:16s} pass {number}: cpu_s {pass_.cpu_s:.6g}, calibrations_s "
              + " ".join(f"{c:.4g}" for c in pass_.calibrations))
    for name, value in values.items():
        print(f"{args.workload:16s} {name:34s} {value:14.6g} {units[name]}")
    print(f"{args.workload:16s} {'passes':34s} {len(passes):14d}")
    print(f"{args.workload:16s} {'fail_frac':34s} {failed / attempted:14.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
