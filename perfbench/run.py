"""nomalab benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload analytic_sweep --seed 1 --seconds 20 --trace 0

Workloads are in workloads.py. Every job is one in-process call of
`nomalab.cli.main`, one after another from one thread (a closed loop
with one client). A run:

1. writes the seed's configs and times set-up: a fresh interpreter
   importing nomalab, plus loading and building every config; the median
   of SETUP_REPS repeats is `setup_s`;
2. runs one warm-up pass on the default seed's configs and checks it
   against reference.json;
3. runs passes over the seed's jobs until --seconds have gone by,
   checking every job's outputs, and requiring each job to write the
   same bytes in every pass;
4. prints one JSON line: with --trace 0 the end-to-end metrics, from
   each job's median over the passes; with --trace 1 the per-layer
   metrics of the traced passes, which alternate with untraced ones so
   that the tracing overhead is measured in the same run. The traced
   run also times one SIC point at workers=1 and at workers=2 (never
   more than the cores; on 2 cores that shows only whether a second
   thread helps at all).

All times are scaled to a nominal machine speed, measured around every
job by a short calibration task (clock.py), because this host's speed
drifts by a quarter and more between runs. Counts are exact.

The program is imported from ./src; the run exits with code 2, printing
no result, when there is none.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import clock
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units
SETUP_REPS = 7
PROBE_REPS = 3

# Per-layer metrics that are times; every other one is a count or a ratio
# of counts and must repeat exactly from pass to pass.
TIME_SUFFIXES = ("self_s", "_ms", "ns_per_symbol")


def import_nomalab():
    """Import the package from ./src, never from anywhere else."""
    if not (SRC / "nomalab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no nomalab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nomalab.cli
    if Path(nomalab.__file__).resolve().parent != SRC / "nomalab":
        raise ImportError(f"nomalab imported from {nomalab.__file__}, not {SRC}")
    return nomalab


class Runner:
    """Runs jobs through cli.main and counts operations and failures."""

    def __init__(self, nomalab):
        self.cli = nomalab.cli
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.speeds: list[float] = []  # interpreter speed of each pass
        self.clock = clock.Clock()

    def _call(self, argv):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            return f"{type(exc).__name__}: {exc}"

    def run(self, job, out_dir: Path, reference=None, same_as: str | None = None):
        """One operation: the call plus its output check. Returns the
        wall seconds and the parsed outputs."""
        if out_dir.exists():
            shutil.rmtree(out_dir)
        rc, wall = self.clock.timed(self._call, job.argv(str(out_dir)))
        out = checks.read_outputs(out_dir) if rc == 0 else None
        errs = checks.check(job, rc, out, reference)
        if out is not None and same_as is not None:
            first = self.digests.setdefault(same_as, out.digest)
            if out.digest != first:
                errs.append("outputs differ from the first pass of this seed")
        self.attempted += 1
        if errs:
            self.failed += 1
            print(f"FAILED {job.name}: {'; '.join(errs)}", file=sys.stderr)
        return wall, out

    def run_pass(self, jobs, out_root: Path, reference=None):
        """Run every job once. Returns (job, seconds at nominal speed,
        outputs, speed) records, scaled by the pass's median calibration."""
        gc.collect()
        self.clock.discard()
        if reference is None:
            runs = [self.run(job, out_root / job.name, same_as=f"{out_root}/{job.name}")
                    for job in jobs]
        else:
            runs = [self.run(job, out_root / job.name, reference.get(job.name, {}))
                    for job in jobs]
        speed = self.clock.speed()
        self.speeds.append(speed["interp"])
        return [(job, wall * speed[job.calibration], out, speed[job.calibration])
                for job, (wall, out) in zip(jobs, runs)]


def measure_setup(configs) -> float:
    """Median over SETUP_REPS of: fresh-interpreter import of nomalab,
    plus loading and building every config of the workload."""
    from nomalab.config import build_model, load_config

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import nomalab"]

    def fresh_import():
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)

    def setup():
        fresh_import()
        for path in configs:
            build_model(load_config(path))

    fresh_import()  # the first import may write bytecode; users pay that once
    timer = clock.Clock()
    walls = [timer.timed(setup)[1] for _ in range(SETUP_REPS)]
    return statistics.median(walls) * timer.speed()["interp"]


def totals(records) -> dict:
    """Time and work per metric family over (job, seconds, outputs, speed)
    records: one pass, or the per-job medians of several."""
    t = dict.fromkeys(workloads.FAMILIES, 0.0)
    t.update(wall=0.0, analytic_values=0, mc_sic_symbols=0, mc_jmld_symbols=0,
             sim_symbols=0, bytes=0, pa_iterations=0, qpsk_ms=[])
    for job, wall, out, _speed in records:
        t["wall"] += wall
        t[job.family] += wall
        if job.family == "pa_qpsk":
            t["qpsk_ms"].append(wall * 1e3)
        if out is None:
            continue
        t["bytes"] += out.bytes_written
        if job.family == "analytic":
            t["analytic_values"] += len(out.analytic_values())
        if job.command in ("simulate", "validate"):
            symbols = out.simulated_symbols(job)
            t["sim_symbols"] += symbols
            if job.family in ("mc_sic", "mc_jmld"):
                t[f"{job.family}_symbols"] += symbols
        if out.pa is not None:
            t["pa_iterations"] += out.pa["iterations"]
    return t


def job_medians(passes) -> list[tuple]:
    """(job, median wall over the passes, outputs) for each job. A job
    writes the same bytes in every pass (checked), so the last pass's
    outputs stand for all. Medians per job, rather than of pass totals,
    keep one slow stretch of the machine from moving a whole pass."""
    return [(job, statistics.median(p[i][1] for p in passes), out, None)
            for i, (job, _wall, out, _speed) in enumerate(passes[-1])]


def end_to_end(setup_s: float, peak_rss_mb: float, passes, runner: Runner) -> dict:
    t = totals(job_medians(passes))
    return {
        "setup_s": setup_s,
        "wall_s": t["wall"],
        "peak_rss_mb": peak_rss_mb,
        "ok_share": (runner.attempted - runner.failed) / runner.attempted,
        "analytic_points_per_s": t["analytic_values"] / t["analytic"],
        "pa_qpsk_solve_ms_p50": statistics.median(t["qpsk_ms"]),
        "pa_qpsk_solve_ms_p75": statistics.quantiles(t["qpsk_ms"], n=4)[2],
        "pa_qam_s": t["pa_qam"],
        "mc_sic_msym_per_s": t["mc_sic_symbols"] / t["mc_sic"] / 1e6,
        "mc_jmld_ksym_per_s": t["mc_jmld_symbols"] / t["mc_jmld"] / 1e3,
    }


def per_layer(traced, traced_passes, untraced_passes,
              speedup: float) -> tuple[dict, list[str]]:
    """Counts from the traced passes (which must agree exactly), the
    median of each time over them, and the tracing overhead: the median
    over pairs of a traced pass's wall time minus that of the untraced
    pass just before it, so that both sides of a difference saw the
    machine in the same state."""
    problems = []
    out = {}
    for name in traced[0]:
        values = [m[name] for m in traced]
        if name.endswith(TIME_SUFFIXES):
            out[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between passes: {values}")
            out[name] = values[0]
    out["tracer.overhead_s"] = statistics.median(
        totals(t)["wall"] - totals(u)["wall"]
        for t, u in zip(traced_passes, untraced_passes))
    out["montecarlo.workers2_speedup"] = speedup
    return out, problems


def run_traced(runner, jobs, out_root, deadline):
    """Alternate untraced and traced passes until the deadline."""
    tr = tracer.Tracer()
    untraced, traced, metrics, first_spans = [], [], [], None
    while not traced or time.perf_counter() < deadline:
        untraced.append(runner.run_pass(jobs, out_root))
        tr.install()
        try:
            traced.append(runner.run_pass(jobs, out_root))
        finally:
            tr.uninstall()
        spans = tr.take()
        first_spans = first_spans or spans
        t = totals(traced[-1])
        m = tracer.layer_metrics(spans, [r[3] for r in traced[-1]])
        m["poweralloc.iterations"] = t["pa_iterations"]
        m["poweralloc.evals_per_iteration"] = (
            m["poweralloc.cost_evals"] / max(t["pa_iterations"], 1))
        m["montecarlo.symbols"] = t["sim_symbols"]
        m["cli.bytes_written"] = t["bytes"]
        metrics.append(m)
    return metrics, traced, untraced, first_spans


def worker_probe(runner, seed, work_dir) -> tuple[float, list[str]]:
    """Speed-up of one SIC point from 1 to 2 workers; both must agree.
    Wall times: the machine speed cancels in the ratio of neighbours."""
    cores = len(os.sched_getaffinity(0))
    jobs = workloads.worker_probe_jobs(seed, work_dir / "configs-probe", min(2, cores))
    times = {job.name: [] for job in jobs}
    rows = {}
    for _ in range(PROBE_REPS):
        for job in jobs:
            wall, out = runner.run(job, work_dir / "probe" / job.name,
                                   same_as=f"probe/{job.name}")
            times[job.name].append(wall)
            rows[job.name] = out.rows if out else None
    one, two = (statistics.median(times[job.name]) for job in jobs)
    problems = [] if rows[jobs[0].name] == rows[jobs[1].name] else [
        "workers=1 and workers=2 wrote different results"]
    return one / two, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        nomalab = import_nomalab()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())[args.workload]
    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shipped = ROOT / "configs" / "validate_default.json"
    try:
        jobs = workloads.make_jobs(args.workload, args.seed,
                                   work_dir / "configs", shipped)
        ref_jobs = workloads.make_jobs(args.workload, workloads.DEFAULT_SEED,
                                       work_dir / "configs-reference", shipped)
        setup_s = measure_setup([j.config for j in jobs])
        runner = Runner(nomalab)
        runner.run_pass(ref_jobs, work_dir / "reference", reference)
        deadline = time.perf_counter() + args.seconds
        problems = []
        if args.trace:
            layers, traced, untraced, spans = run_traced(
                runner, jobs, work_dir / "out", deadline)
            speedup, problems = worker_probe(runner, args.seed, work_dir)
            metrics, more = per_layer(layers, traced, untraced, speedup)
            problems += more
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            tracer.write_spans(WORK / "traces" / f"{args.workload}-seed{args.seed}.csv",
                               spans)
        else:
            passes = [runner.run_pass(jobs, work_dir / "out")]
            # Peak RSS over set-up, warm-up and one pass. Later passes now
            # and then raise it by about 48 MB (seen on mc_link), so a
            # peak over the whole run would depend on how many passes fit.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            while time.perf_counter() < deadline:
                passes.append(runner.run_pass(jobs, work_dir / "out"))
            metrics = end_to_end(setup_s, peak_rss_mb, passes, runner)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics.keys() ^ units.keys())} are "
                           "measured or declared in BENCHMARK.json, not both")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(f"machine speed, median over passes: {statistics.median(runner.speeds):.3f} "
          "of nominal", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
