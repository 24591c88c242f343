"""Command line front end.

Subcommands: analytic (closed-form curves), simulate (Monte Carlo plus
closed-form reference), optimize (power allocation), validate (internal
oracle checks plus simulation-vs-analytic comparison).

Exit codes: 0 success, 1 validation failure, 2 bad configuration,
3 capacity exceeded, 4 optimization failure.

All outputs are deterministic byte for byte for a fixed config and seed:
results.csv uses fixed-width scientific notation and LF newlines, JSON
files use sorted keys.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .analytic import stage_bers_grid
from .channel import StreamKey
from .config import (RunConfig, build_model, check_ranges, load_config,
                     sweep_grid, to_dict)
from .constellation import build_rect_qam
from .detectors import SystemModel
from .errors import CapacityError, ConfigError, OptimizationError
from .kernels import (cell_probability_table, erlang_fade_average,
                      erlang_fade_quadrature, qpsk_sep_triplet)
from .montecarlo import BerCurve, compare_analytic, sweep
from .poweralloc import optimize_powers, sum_ber_db_cost

CSV_SCHEMA = "# results-schema: v1"
CSV_HEADER = "power_db,user,source,ber,ci_halfwidth,bits,seed"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(out_dir: str, rows: list[str]) -> str:
    path = os.path.join(out_dir, "results.csv")
    _write_text(path, "\n".join([CSV_SCHEMA, CSV_HEADER] + rows) + "\n")
    return path


def _row(power_db: float, user: int, source: str, ber: float,
         ci: float, bits: int, seed: int) -> str:
    return (f"{power_db:.4f},{user},{source},{ber:.8e},{ci:.8e},"
            f"{bits},{seed}")


def _analytic_table(model: SystemModel, cfg: RunConfig, grid) -> list[list[float]]:
    """Closed-form BER per grid offset, one row per offset, user order."""
    order = model.decode_order()
    grid_bers = stage_bers_grid(model, model.scaled_powers(grid),
                                cfg.analytic.mode, cfg.analytic.prune_threshold,
                                cfg.analytic.max_leaves)
    return [[bers[order.index(i)] for i in range(model.k)]
            for bers in grid_bers.tolist()]


def _analytic_rows(grid, table, seed: int,
                   source: str = "analytic") -> list[str]:
    return [_row(off, i + 1, source, ber, 0.0, 0, seed)
            for off, bers in zip(grid, table) for i, ber in enumerate(bers)]


def _sim_rows(model: SystemModel, curve: BerCurve, source: str,
              seed: int) -> list[str]:
    rows = []
    for off, est in zip(curve.offsets_db, curve.points):
        for i in range(model.k):
            rows.append(_row(off, i + 1, source, float(est.ber[i]),
                             float(est.ci_halfwidth[i]), int(est.bits[i]),
                             seed))
    return rows


def _emit_config(cfg: RunConfig, out_dir: str) -> None:
    _write_json(os.path.join(out_dir, "effective_config.json"), to_dict(cfg))


def cmd_analytic(cfg: RunConfig, args) -> int:
    model = build_model(cfg)
    grid = sweep_grid(cfg)
    rows = _analytic_rows(grid, _analytic_table(model, cfg, grid),
                          cfg.montecarlo.seed)
    path = _write_csv(cfg.output.directory, rows)
    _emit_config(cfg, cfg.output.directory)
    print(f"wrote {len(rows)} analytic points to {path}")
    return 0


def cmd_simulate(cfg: RunConfig, args) -> int:
    model = build_model(cfg)
    grid = sweep_grid(cfg)
    seed = cfg.montecarlo.seed
    analytic = _analytic_table(model, cfg, grid)  # a leaf limit exits before the sweep
    curve = sweep(model, grid, args.detector, cfg.montecarlo.stop_rule(),
                  StreamKey(seed), cfg.montecarlo.workers)
    rows = _analytic_rows(grid, analytic, seed)
    rows += _sim_rows(model, curve, args.detector, seed)
    path = _write_csv(cfg.output.directory, rows)
    _emit_config(cfg, cfg.output.directory)
    print(f"wrote {len(rows)} points to {path}")
    return 0


def cmd_optimize(cfg: RunConfig, args) -> int:
    model = build_model(cfg)
    warm = [u.power_db for u in cfg.system.users]
    limits = (cfg.analytic.prune_threshold, cfg.analytic.max_leaves)
    result = optimize_powers(model, cfg.poweralloc, warm, *limits)
    # start 0 is the warm start, costed as given unless p_max_db clipped it
    if max(warm) <= cfg.poweralloc.p_max_db:
        baseline_cost = result.initial_costs_db[0]
    else:
        baseline_cost = sum_ber_db_cost(model, warm, cfg.poweralloc.mode, *limits)
    payload = {
        "powers_db": list(result.powers_db),
        "cost_db": result.cost_db,
        "sum_ber": result.sum_ber,
        "start_index": result.start_index,
        "start_costs_db": list(result.start_costs_db),
        "iterations": result.iterations,
        "at_bound": list(result.at_bound),
        "trace_db": list(result.trace),
        "baseline": {
            "powers_db": warm,
            "cost_db": baseline_cost,
            "sum_ber": 10.0 ** (baseline_cost / 10.0),
        },
        "improvement_db": baseline_cost - result.cost_db,
    }
    _write_json(os.path.join(cfg.output.directory, "pa_result.json"), payload)
    grid = sweep_grid(cfg)
    seed = cfg.montecarlo.seed
    tuned = model.with_powers([10.0 ** (p / 10.0) for p in result.powers_db])
    rows = _analytic_rows(grid, _analytic_table(model, cfg, grid), seed,
                          source="analytic_before")
    rows += _analytic_rows(grid, _analytic_table(tuned, cfg, grid), seed,
                           source="analytic_after")
    _write_csv(cfg.output.directory, rows)
    _emit_config(cfg, cfg.output.directory)
    print(f"optimized powers_db = {[round(p, 3) for p in result.powers_db]}, "
          f"sum BER {result.sum_ber:.3e} "
          f"(improvement {payload['improvement_db']:.2f} dB)")
    return 0


def _oracle_checks() -> list[dict]:
    """Fast self-consistency checks of the analytic kernels."""
    checks = []

    worst = 0.0
    for n in (1, 2, 8):
        for a in (0.1, 1.0, 10.0, 100.0, 1000.0):
            closed = erlang_fade_average(a, n)
            quad = erlang_fade_quadrature(a, n)
            if quad > 0:
                worst = max(worst, abs(closed - quad) / quad)
    checks.append({"name": "fade_average_vs_quadrature",
                   "max_rel_err": worst, "tol": 1e-8, "passed": worst <= 1e-8})

    worst = 0.0
    for n in (1, 2, 4):
        for a in (0.0, 0.3, 3.0, 30.0):
            worst = max(worst, abs(sum(qpsk_sep_triplet(a, n)) - 1.0))
    checks.append({"name": "qpsk_triplet_normalization",
                   "max_rel_err": worst, "tol": 1e-12, "passed": worst <= 1e-12})

    worst = 0.0
    for mi, mq in ((2, 2), (4, 2), (4, 4)):
        c = build_rect_qam(mi, mq)
        for gain in (0.5, 5.0):
            for n in (1, 4):
                for tx in c.points:
                    total = float(cell_probability_table(c, tx, gain, n).sum())
                    worst = max(worst, abs(total - 1.0))
    checks.append({"name": "cell_probabilities_normalize",
                   "max_rel_err": worst, "tol": 1e-9, "passed": worst <= 1e-9})

    return checks


def cmd_validate(cfg: RunConfig, args) -> int:
    model = build_model(cfg)
    grid = sweep_grid(cfg)
    seed = cfg.montecarlo.seed
    oracle = _oracle_checks()
    analytic = _analytic_table(model, cfg, grid)
    curve = sweep(model, grid, args.detector, cfg.montecarlo.stop_rule(),
                  StreamKey(seed), cfg.montecarlo.workers)
    report = compare_analytic(curve, analytic, cfg.validate)
    payload = {
        "oracle_checks": oracle,
        "mc_checks": [dataclasses.asdict(c) for c in report.checks],
        "n_checked": report.n_checked,
        "n_failed": report.n_failed,
        "detector": args.detector,
        "passed": report.passed and all(c["passed"] for c in oracle),
    }
    _write_json(os.path.join(cfg.output.directory, "validate_report.json"),
                payload)
    rows = _analytic_rows(grid, analytic, seed)
    rows += _sim_rows(model, curve, args.detector, seed)
    _write_csv(cfg.output.directory, rows)
    _emit_config(cfg, cfg.output.directory)
    status = "PASS" if payload["passed"] else "FAIL"
    print(f"validate: {status} ({report.n_checked} points checked, "
          f"{report.n_failed} failed)")
    return 0 if payload["passed"] else 1


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.out is not None:
        cfg = dataclasses.replace(
            cfg, output=dataclasses.replace(cfg.output, directory=args.out))
    if args.seed is not None:
        cfg = dataclasses.replace(
            cfg, montecarlo=dataclasses.replace(cfg.montecarlo, seed=args.seed))
    if args.mode is not None:
        cfg = dataclasses.replace(
            cfg,
            analytic=dataclasses.replace(cfg.analytic, mode=args.mode),
            poweralloc=dataclasses.replace(cfg.poweralloc, mode=args.mode))
    return check_ranges(cfg)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON run config")
    common.add_argument("--out", default=None, help="output directory override")
    common.add_argument("--seed", type=int, default=None,
                        help="simulation seed override (u64)")
    common.add_argument("--mode", choices=["exact", "approx", "auto"],
                        default=None, help="analytic evaluation mode override")
    parser = argparse.ArgumentParser(
        prog="nomalab",
        description="Link-level BER laboratory for uplink NOMA with SIC")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analytic", parents=[common],
                   help="closed-form BER over the configured sweep")
    simulate = sub.add_parser("simulate", parents=[common],
                              help="Monte Carlo sweep plus closed-form reference")
    simulate.add_argument("--detector", choices=["sic", "jmld"], default="sic",
                          help="simulated receiver")
    sub.add_parser("optimize", parents=[common],
                   help="per-user power allocation minimizing sum BER")
    validate = sub.add_parser(
        "validate", parents=[common],
        help="oracle checks plus simulation-vs-analytic comparison")
    # the closed form models MRC-SIC only, so only SIC is checked against it
    validate.add_argument("--detector", choices=["sic"], default="sic",
                          help="simulated receiver")
    return parser


_COMMANDS = {
    "analytic": cmd_analytic,
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        os.makedirs(cfg.output.directory, exist_ok=True)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # the batch cap bounds one array, not a run
        print(f"capacity error: out of memory: {exc}", file=sys.stderr)
        return 3
    except OptimizationError as exc:
        print(f"optimization error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
