"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads mc_link,...]
                                [--trace 0|1] [--out perfbench/baseline.json]

For every workload and metric it prints the median over the seeds and the
spread, (q3 - q1) / median with quartiles from statistics.quantiles(n=4),
next to the metric's bound in BENCHMARK.json. --out also records every
run with the machine's core count, Python, numpy and scipy versions and
the git commit of the program measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True).stdout.split()
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": versions[0], "scipy": versions[1], "git_sha": sha,
            "machine": platform.machine()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = ([w["name"] for w in spec["workloads"]] if args.workloads is None
             else args.workloads.split(","))
    runs = {}
    worst = (0.0, "none")  # largest spread / bound, setup_s included
    for workload in names:
        results = []
        for seed in seeds_of(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        runs[workload] = results
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            if bound is not None and share / bound > worst[0]:
                worst = (share / bound, f"{metric} on {workload}")
            print(f"  {metric:44s} median {med:12.6g}  spread {share:7.2%}"
                  + (f"  bound {bound:.1%}" if bound is not None else ""))
    if args.trace == 0:
        print(f"largest spread / bound: {worst[0]:.2f} ({worst[1]})")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"machine": machine(), "run_seconds": spec["run_seconds"], "runs": runs},
            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
