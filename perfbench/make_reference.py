"""Write reference.json: the default seed's analytic BERs and optimiser
costs, which every benchmark run checks its warm-up pass against.

Run from the repository root:

    python3 perfbench/make_reference.py

Rewrite it only in a change that is meant to move those values, and
say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    nomalab = run.import_nomalab()
    runner = run.Runner(nomalab)
    work_dir = run.WORK / "make-reference"
    shipped = run.ROOT / "configs" / "validate_default.json"
    out = {}
    try:
        for workload in workloads.WORKLOADS:
            jobs = workloads.make_jobs(workload, workloads.DEFAULT_SEED,
                                       work_dir / workload / "configs", shipped)
            records = runner.run_pass(jobs, work_dir / workload / "out")
            out[workload] = {job.name: outputs.reference()
                             for job, _seconds, outputs, _speed in records}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if runner.failed:
        print(f"{runner.failed} jobs failed; reference not written", file=sys.stderr)
        return 1
    run.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
