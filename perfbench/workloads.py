"""Seeded job lists for the benchmark workloads.

make_jobs(workload, seed, config_dir) writes one JSON run config per job
and returns the jobs in run order. The program never sees the seed, only
these configs. The seed moves each user's channel spread within +-1 dB,
the Monte Carlo stream seed and the phase of the power grid. Alphabets,
antenna counts, grid lengths, caps, iteration limits and symbol budgets
are fixed, so the Monte Carlo work of a pass is the same for every
seed and the analytic work nearly so (pruning follows the operating
point); the optimiser's iteration counts follow the seed.

Each workload has a main set, which stresses one mechanism, and a few
short companion jobs of the other kinds, so that every end-to-end
metric has samples on every workload. The companions take at most a
quarter of a pass (about an eighth on mc_link).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
BATCH = 10_000
NEVER = 1 << 62  # min_errors no point reaches, so every run spends its budget
PHASE_DB = 1.0

SIGMAS = (10.0, 2.5, 0.625)  # near/mid/far spreads of the shipped configs
QPSK3 = ("2x2", "2x2", "2x2")
MIXED = ("4x4", "4x2", "4x2")      # 16/8/8, as configs/mixed_16_8_8.json
SMALL = ("4x2", "2x2", "2x2")      # 8/4/4
QAM16 = ("4x4", "4x4", "4x4")      # 16/16/16
WIDE = ("8x8", "4x4", "2x2")       # 64/16/4: the 64-QAM stage takes approx

WORKLOADS = ("analytic_sweep", "power_alloc", "mc_link")  # why: BENCHMARK.json

# Metric families: which end-to-end metric a job's wall time feeds.
FAMILIES = ("analytic", "pa_qpsk", "pa_qam", "mc_sic", "mc_jmld", "validate")


@dataclass(frozen=True)
class Job:
    """One `nomalab` invocation and what its outputs must look like."""

    name: str                 # unique in the workload; names the output dir
    command: str              # analytic | optimize | simulate | validate
    family: str               # one of FAMILIES
    config: str               # path of the JSON config
    modulations: tuple[str, ...]
    points: int = 1           # sweep points
    detector: str = "sic"
    symbols: int = 0          # Monte Carlo budget per point; 0 = not pinned
    p_max_db: float | None = None

    @property
    def calibration(self) -> str:
        """The calibration part that tracks this job's speed (clock.py)."""
        return "stream" if self.command in ("simulate", "validate") else "interp"

    def argv(self, out_dir: str) -> list[str]:
        argv = [self.command, "--config", self.config, "--out", out_dir]
        if self.command in ("simulate", "validate"):
            argv += ["--detector", self.detector]
        return argv

    def bits_per_symbol(self) -> list[int]:
        out = []
        for mod in self.modulations:
            mi, mq = (int(v) for v in mod.split("x"))
            out.append((mi * mq).bit_length() - 1)
        return out


class _Builder:
    """Draws the seeded parts of each config in a fixed order."""

    def __init__(self, seed: int, config_dir: Path):
        self.rng = random.Random(seed)
        self.dir = config_dir
        self.jobs: list[Job] = []

    def _system(self, mods, n: int, power_db=0.0) -> dict:
        users = []
        for sigma, mod in zip(SIGMAS, mods):
            spread_db = self.rng.uniform(-1.0, 1.0)
            users.append({"power_db": power_db, "modulation": mod,
                          "sigma": sigma * 10.0 ** (spread_db / 20.0)})
        return {"n_antennas": n, "noise_sigma": 1.0, "users": users}

    def _sweep(self, base_db: float, step_db: float, points: int) -> dict:
        # A phase of at most 1 dB: the pruned tree walk does more or less
        # work as the operating point moves.
        start = base_db + self.rng.uniform(0.0, PHASE_DB)
        return {"start_db": start, "stop_db": start + (points - 1) * step_db,
                "step_db": step_db}

    def _add(self, name, command, family, cfg, mods, **fields) -> None:
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
        self.jobs.append(Job(name, command, family, str(path), tuple(mods),
                             **fields))

    def analytic(self, name, mods, n, mode, base_db, step_db, points):
        cfg = {"system": self._system(mods, n),
               "sweep": self._sweep(base_db, step_db, points),
               "analytic": {"mode": mode}}
        self._add(name, "analytic", "analytic", cfg, mods, points=points)

    def optimize(self, name, family, mods, n, p_max_db, mode="auto",
                 starts=4, max_iters=500):
        cfg = {"system": self._system(mods, n, power_db=p_max_db - 6.0),
               "sweep": self._sweep(0.0, 5.0, 1),
               "analytic": {"mode": mode},
               "poweralloc": {"p_max_db": p_max_db, "mode": mode,
                              "multistart_points": starts,
                              "max_iters": max_iters}}
        self._add(name, "optimize", family, cfg, mods, p_max_db=p_max_db)

    def simulate(self, name, detector, mods, n, base_db, symbols,
                 workers=1):
        cfg = {"system": self._system(mods, n),
               "sweep": self._sweep(base_db, 5.0, 1),
               "analytic": {"mode": "exact"},
               "montecarlo": {"seed": self.rng.getrandbits(63),
                              "min_errors": NEVER, "max_symbols": symbols,
                              "batch_size": BATCH, "workers": workers}}
        self._add(name, "simulate", f"mc_{detector}", cfg, mods,
                  detector=detector, symbols=symbols)

    # Companion jobs: a few small jobs of every kind, for the workloads
    # whose main set lacks that kind. Each runs for 0.1 s or more: shorter
    # jobs put the neighbours' bursts into their medians.
    def analytic_companion(self):
        self.analytic("analytic_16_8_8_short", MIXED, 2, "exact", 10.0, 10.0, 3)

    def pa_companions(self):
        for cap in (8.0, 20.0, 32.0):
            for n in (1, 2):
                self.optimize(f"pa_qpsk_cap{cap:g}_n{n}", "pa_qpsk", QPSK3, n,
                              cap)
        self.optimize("pa_8_4_4_short", "pa_qam", SMALL, 2, 20.0, "exact",
                      starts=1, max_iters=5)

    def mc_companions(self):
        self.simulate("sic_qpsk3_short", "sic", QPSK3, 2, 15.0, 200_000)
        self.simulate("jmld_qpsk3_short", "jmld", QPSK3, 2, 15.0, 80_000)


def make_jobs(workload: str, seed: int, config_dir: Path,
              shipped_validate: Path) -> list[Job]:
    """Write the workload's configs for this seed and return its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    config_dir.mkdir(parents=True, exist_ok=True)
    b = _Builder(seed, config_dir)
    if workload == "analytic_sweep":
        b.analytic("analytic_16_8_8_n2", MIXED, 2, "exact", -10.0, 2.5, 16)
        b.analytic("analytic_16_16_16_n1", QAM16, 1, "exact", 0.0, 10.0, 4)
        b.analytic("analytic_64_16_4_n4", WIDE, 4, "auto", 0.0, 10.0, 3)
        b.pa_companions()
        b.mc_companions()
    elif workload == "power_alloc":
        for cap in range(0, 37, 4):
            for n in (1, 2, 4):
                b.optimize(f"pa_qpsk_cap{cap}_n{n}", "pa_qpsk", QPSK3, n,
                           float(cap))
        b.optimize("pa_8_4_4_multistart", "pa_qam", SMALL, 2, 20.0, "exact",
                   starts=4, max_iters=3)
        b.optimize("pa_16_8_8_single", "pa_qam", MIXED, 2, 20.0, "exact",
                   starts=1, max_iters=2)
        b.analytic_companion()
        b.mc_companions()
    else:
        # Budgets large enough that a simulate job's fixed costs (the
        # analytic reference rows, config and CLI) stay small next to
        # the draws and detection.
        b.simulate("sic_qpsk3", "sic", QPSK3, 2, 15.0, 1_200_000)
        b.simulate("sic_16_8_8", "sic", MIXED, 2, 20.0, 1_200_000)
        b.simulate("jmld_qpsk3", "jmld", QPSK3, 2, 15.0, 60_000)
        b.simulate("jmld_16_8_8", "jmld", MIXED, 2, 20.0, 60_000)
        b.jobs.append(Job("validate_default", "validate", "validate",
                          str(shipped_validate), QPSK3, points=3))
        b.analytic_companion()
        b.pa_companions()
    return b.jobs


def worker_probe_jobs(seed: int, config_dir: Path, workers: int) -> list[Job]:
    """One SIC point at workers=1 and at `workers`, with the same stream."""
    config_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for w in (1, workers):
        b = _Builder(seed, config_dir)  # same draws for both worker counts
        b.simulate(f"probe_sic_w{w}", "sic", QPSK3, 2, 15.0, 200_000,
                   workers=w)
        out += b.jobs
    return out
