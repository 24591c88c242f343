"""Output checks for one `nomalab` invocation.

An operation fails when the command exits non-zero, when any BER it
wrote is non-finite or outside [0, 1], when a file is missing or has the
wrong number of rows, when an optimisation got worse than its warm start
or left a power above its cap, or when a Monte Carlo point did not spend
exactly its symbol budget. Against the stored default-seed reference,
analytic BERs and optimiser costs must agree to rel=1e-12. results.csv
prints BERs with 9 significant digits, so for those rows the check means
equal printed digits; pa_result.json carries full precision. Monte Carlo
error counts are not pinned.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

REL = 1e-12
ANALYTIC_SOURCES = ("analytic", "analytic_before", "analytic_after")


@dataclass
class Outputs:
    """What one job wrote, parsed."""

    digest: str          # sha256 over every output file, in name order
    bytes_written: int
    rows: list[tuple]    # (power_db, user, source, ber, ci, bits) per CSV row
    pa: dict | None
    report: dict | None

    def analytic_values(self) -> list[float]:
        return [r[3] for r in self.rows if r[2] in ANALYTIC_SOURCES]

    def simulated_symbols(self, job) -> int:
        """Channel uses simulated, summed over the sweep points."""
        bps = job.bits_per_symbol()
        return sum(r[5] // bps[r[1] - 1] for r in self.rows
                   if r[2] == job.detector and r[1] == 1)

    def reference(self) -> dict:
        ref = {"analytic": self.analytic_values()}
        if self.pa is not None:
            ref["cost_db"] = self.pa["cost_db"]
        return ref


def read_outputs(out_dir: Path) -> Outputs:
    h = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        size += len(data)
    rows = []
    csv = out_dir / "results.csv"
    if csv.is_file():
        for line in csv.read_text().splitlines()[2:]:
            p, user, source, ber, ci, bits, _seed = line.split(",")
            rows.append((float(p), int(user), source, float(ber), float(ci),
                         int(bits)))
    pa = report = None
    if (out_dir / "pa_result.json").is_file():
        pa = json.loads((out_dir / "pa_result.json").read_text())
    if (out_dir / "validate_report.json").is_file():
        report = json.loads((out_dir / "validate_report.json").read_text())
    return Outputs(h.hexdigest(), size, rows, pa, report)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-300)


def check(job, rc, out: Outputs | None, reference: dict | None = None) -> list[str]:
    """Problems found in one job's exit code and outputs; empty if none."""
    if rc != 0:
        return [f"exit code {rc}"]
    if out is None:
        return ["no outputs"]
    errs = []
    k = len(job.modulations)
    for r in out.rows:
        if not (math.isfinite(r[3]) and 0.0 <= r[3] <= 1.0):
            errs.append(f"BER {r[3]!r} at {r[0]} dB, user {r[1]}, {r[2]}")
    sources = {"analytic": 1, "optimize": 2, "simulate": 2, "validate": 2}
    if len(out.rows) != sources[job.command] * job.points * k:
        errs.append(f"{len(out.rows)} rows, expected "
                    f"{sources[job.command] * job.points * k}")
    if job.command == "optimize":
        errs += _check_pa(job, out.pa)
    if job.command == "simulate":
        got = out.simulated_symbols(job)
        if got != job.symbols * job.points:
            errs.append(f"{got} symbols simulated, budget {job.symbols * job.points}")
    if job.command == "validate" and not (out.report or {}).get("passed"):
        errs.append("validate report did not pass")
    if reference is not None:
        errs += _check_reference(out, reference)
    return errs


def _check_pa(job, pa: dict | None) -> list[str]:
    if pa is None:
        return ["pa_result.json missing"]
    errs = []
    if not math.isfinite(pa["cost_db"]):
        errs.append(f"cost_db {pa['cost_db']!r}")
    if not pa["improvement_db"] >= 0.0:
        errs.append(f"improvement_db {pa['improvement_db']!r} < 0")
    if any(not p <= job.p_max_db for p in pa["powers_db"]):
        errs.append(f"powers {pa['powers_db']} above cap {job.p_max_db}")
    return errs


def _check_reference(out: Outputs, reference: dict) -> list[str]:
    if "analytic" not in reference:
        return ["no stored reference for this job"]
    errs = []
    got = out.analytic_values()
    want = reference["analytic"]
    if len(got) != len(want):
        return [f"{len(got)} analytic values, reference has {len(want)}"]
    bad = [(g, w) for g, w in zip(got, want) if not _close(g, w)]
    if bad:
        errs.append(f"{len(bad)} analytic values differ from the reference, "
                    f"first {bad[0][0]!r} vs {bad[0][1]!r}")
    if "cost_db" in reference and not _close(out.pa["cost_db"], reference["cost_db"]):
        errs.append(f"cost_db {out.pa['cost_db']!r} vs reference "
                    f"{reference['cost_db']!r}")
    return errs
