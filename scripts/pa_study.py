#!/usr/bin/env python3
"""Power-allocation study: optimized vs equal-power sum BER.

Sweeps the per-user power cap, runs the projected-gradient optimizer at
each cap, and compares the optimized sum BER with the equal-power curve.
Optimization keeps the sum BER falling where equal power saturates.
A bad config exits 2 with "config error: ...", as in the CLI.

Usage:
    python scripts/pa_study.py --config configs/qpsk3_near_far.json
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dataclasses import replace

from nomalab.analytic import sum_ber
from nomalab.config import build_model, load_config, sweep_grid
from nomalab.errors import ConfigError
from nomalab.poweralloc import optimize_powers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/qpsk3_near_far.json")
    args = ap.parse_args()

    try:
        cfg = load_config(args.config)
        model = build_model(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    grid = sweep_grid(cfg)

    print("pmax_db  equal_sum   opt_sum     gain_db  powers_db")
    warm = None
    limits = (cfg.analytic.prune_threshold, cfg.analytic.max_leaves)
    for pmax in grid:
        equal = sum_ber(model.scaled(pmax), cfg.analytic.mode, *limits)
        res = optimize_powers(model, replace(cfg.poweralloc, p_max_db=pmax),
                              warm, *limits)
        warm = res.powers_db
        gain_db = 0.0 if res.sum_ber == 0 else 10.0 * math.log10(
            equal / res.sum_ber)
        powers = ", ".join(f"{p:6.2f}" for p in res.powers_db)
        print(f"{pmax:7.1f}  {equal:.3e}  {res.sum_ber:.3e}  {gain_db:7.2f}"
              f"  [{powers}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
