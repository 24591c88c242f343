#!/usr/bin/env python3
"""Error-floor study: per-user analytic BER vs common transmit power.

With equal per-user power the later SIC stages inherit residual
interference that grows with power, so every user's BER saturates.
This script tabulates the curves for a config at several antenna
counts to show where the floors sit.
A bad config or antenna count exits 2 with "config error: ...", as in
the CLI.

Usage:
    python scripts/floor_study.py --config configs/qpsk3_near_far.json
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nomalab.analytic import DEFAULT_MAX_LEAVES, DEFAULT_PRUNE, stage_bers_grid
from nomalab.config import build_model, check_ranges, load_config, sweep_grid
from nomalab.detectors import SystemModel
from nomalab.errors import ConfigError


def floor_table(model: SystemModel, grid, mode: str,
                prune_threshold: float = DEFAULT_PRUNE,
                max_leaves: int = DEFAULT_MAX_LEAVES):
    """One row per offset in grid: the offset, then each user's BER in
    user order, as results.csv has them (stage_bers_grid gives stage
    order)."""
    bers = stage_bers_grid(model, model.scaled_powers(grid), mode,
                           prune_threshold, max_leaves)
    users = bers[:, np.argsort(model.decode_order())]
    return [[off] + row for off, row in zip(grid, users.tolist())]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/qpsk3_near_far.json")
    ap.add_argument("--antennas", type=int, nargs="+", default=[1, 2, 4])
    args = ap.parse_args()

    try:
        cfg = load_config(args.config)
        models = [build_model(check_ranges(dataclasses.replace(
            cfg, system=dataclasses.replace(cfg.system, n_antennas=n))))
            for n in args.antennas]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    grid = sweep_grid(cfg)

    for n, model in zip(args.antennas, models):
        rows = floor_table(model, grid, cfg.analytic.mode,
                           cfg.analytic.prune_threshold, cfg.analytic.max_leaves)
        print(f"\nN = {n} antennas")
        header = "power_db " + " ".join(f"user{k}" for k in range(1, model.k + 1))
        print(header)
        for row in rows:
            print(f"{row[0]:8.1f} " + " ".join(f"{b:.3e}" for b in row[1:]))
        top = rows[-1][1:]
        print("floor at top of range: " + ", ".join(f"{b:.2e}" for b in top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
