#!/usr/bin/env python3
"""Detector gap study: SIC vs joint ML average BER over a power sweep.

Runs both receivers on the same seeded channel and noise streams and
prints the user-averaged BER side by side. With few antennas and equal
received powers the joint detector wins clearly; with more antennas or
a wide channel spread the gap shrinks toward zero. The --start, --stop
and --step grid goes through the config's sweep checks, and --symbols and
--workers through its Monte Carlo checks: a bad value exits 2 with
"config error: ...", as in the CLI.

Usage:
    python scripts/detector_gap.py --config configs/qpsk3_near_far.json \
        --start 12 --stop 22 --step 2 --symbols 200000
"""

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nomalab.channel import StreamKey
from nomalab.config import (SweepConfig, build_model, check_ranges,
                            load_config, sweep_grid)
from nomalab.errors import ConfigError
from nomalab.montecarlo import sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/qpsk3_near_far.json")
    ap.add_argument("--start", type=float, default=12.0)
    ap.add_argument("--stop", type=float, default=22.0)
    ap.add_argument("--step", type=float, default=2.0)
    ap.add_argument("--symbols", type=int, default=200_000,
                    help="fixed symbol budget per point")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    try:
        base = load_config(args.config)
        # fixed budget so both detectors see identical draws
        mc = dataclasses.replace(
            base.montecarlo, min_errors=2**31 - 1, max_symbols=args.symbols,
            batch_size=min(10_000, args.symbols), workers=args.workers)
        cfg = check_ranges(dataclasses.replace(
            base, sweep=SweepConfig(args.start, args.stop, args.step),
            montecarlo=mc))
        model = build_model(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    grid = sweep_grid(cfg)

    curves = {}
    for det in ("sic", "jmld"):
        curves[det] = sweep(model, grid, det, mc.stop_rule(),
                            StreamKey(mc.seed), mc.workers)

    print("power_db  sic_avg_ber  jmld_avg_ber  errors(sic/jmld)")
    for i, off in enumerate(grid):
        s = curves["sic"].points[i]
        j = curves["jmld"].points[i]
        print(f"{off:8.1f}  {s.ber.mean():.4e}   {j.ber.mean():.4e}"
              f"   {int(s.errors.sum())}/{int(j.errors.sum())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
