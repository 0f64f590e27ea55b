"""Steadiness report: run the benchmark repeatedly and show each metric's spread.

    python3 perfbench/steadiness.py --workload compute-issue --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for every metric the median and quartiles of its values and the spread
``(Q3 - Q1) / median`` (quartiles as ``statistics.quantiles(values, n=4)``
gives them). An end-to-end metric whose spread exceeds its bound in
``BENCHMARK.json`` is flagged. Each run lasts ``run_seconds`` from
``BENCHMARK.json``, the length the bounds are set for. ``--out`` appends
every result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, Q1, Q3, (Q3 - Q1) / median)`` of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def report(results: list[dict], bounds: dict[str, float]) -> list[str]:
    """Table lines for ``results`` (parsed result objects of one workload)."""
    names = list(results[0]["metrics"])
    lines = [f"{'metric':34s} {'median':>14s} {'Q1':>14s} {'Q3':>14s} {'spread':>8s}"]
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        median, q1, q3, rel = spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and rel > bound:
            flag = f"  SPREAD > bound {bound}"
        lines.append(f"{name:34s} {median:14.6g} {q1:14.6g} {q3:14.6g} {rel:8.4f}{flag}")
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    lines.append(f"runs {len(results)}, points attempted {attempted}, failed {failed}, "
                 f"all correct: {all(r['correct'] for r in results)}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        if args.out is not None:
            with args.out.open("a") as out:
                out.write(json.dumps({"workload": args.workload, "seed": seed,
                                      "trace": args.trace, **result}) + "\n")
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in list(result["metrics"].items())[:6]),
            flush=True)
    print("\n".join(report(results, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
