"""Per-user transmit power optimization against the closed-form sum BER.

The objective is 10*log10(sum of per-stage average BERs) as a function
of the per-user power levels in dB, minimized by projected gradient
descent (upper bound p_max_db per user) with central finite-difference
gradients and Armijo backtracking. A fixed list of deterministic start
points covers the useful basins: everyone at the cap, two decode-order
staircases, and a received-power equalizer; an optional warm start is
tried first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import DEFAULT_MAX_LEAVES, DEFAULT_PRUNE, stage_bers_grid
from .detectors import SystemModel
from .errors import OptimizationError

BER_FLOOR = 1e-300


@dataclass(frozen=True)
class PaConfig:
    p_max_db: float = 30.0
    max_iters: int = 500
    fd_step_db: float = 0.01
    tol_db: float = 1e-4
    armijo_c: float = 1e-4
    step0_db: float = 4.0
    min_step_db: float = 1e-6
    mode: str = "auto"
    multistart_points: int = 4


@dataclass(frozen=True)
class PaResult:
    powers_db: tuple[float, ...]  # user order
    cost_db: float
    start_index: int
    start_costs_db: tuple[float, ...]
    iterations: int
    trace: tuple[float, ...]
    at_bound: tuple[bool, ...]

    @property
    def sum_ber(self) -> float:
        return 10.0 ** (self.cost_db / 10.0)


def sum_ber_db_cost(model: SystemModel, powers_db, mode: str = "auto",
                    prune_threshold: float = DEFAULT_PRUNE,
                    max_leaves: int = DEFAULT_MAX_LEAVES):
    """Objective value for absolute per-user powers given in dB: a float
    for one power vector, or a (P,) array for a (P, K) array of them,
    all from one walk. The other arguments are sum_ber's."""
    rows = np.asarray(powers_db, dtype=float)
    linear = [[10.0 ** (p / 10.0) for p in row]
              for row in np.atleast_2d(rows).tolist()]
    bers = stage_bers_grid(model, linear, mode, prune_threshold, max_leaves)
    costs = []
    for stage_row in bers.tolist():
        total = sum(stage_row)
        costs.append(10.0 * math.log10(max(total, BER_FLOOR)))
    return costs[0] if rows.ndim == 1 else np.array(costs)


def _starts(model: SystemModel, cfg: PaConfig, warm_db) -> list[np.ndarray]:
    k = model.k
    pmax = cfg.p_max_db
    order = model.decode_order()
    stair10 = np.full(k, pmax)
    stair5 = np.full(k, pmax)
    for s, idx in enumerate(order):
        stair10[idx] = pmax - 10.0 * s
        stair5[idx] = pmax - 5.0 * s
    sig = np.array([u.sigma for u in model.users])
    equalize = pmax + 20.0 * np.log10(sig.min() / sig)
    starts = [np.full(k, pmax), stair10, equalize, stair5]
    if warm_db is not None:
        warm = np.asarray(warm_db, dtype=float)
        if warm.shape != (k,):
            raise ValueError(f"warm start needs {k} entries")
        starts.insert(0, warm)
    count = max(1, int(cfg.multistart_points))
    return starts[:count]


def _armijo(model: SystemModel, p: np.ndarray, cost: float, grad: np.ndarray,
            cfg: PaConfig, limits):
    """The first rung of the ladder step0_db, step0_db/2, ... down to
    min_step_db whose projected step decreases the cost enough, as
    (point, cost); None if no rung does. Two rungs share each walk."""
    ladder = []
    step = cfg.step0_db
    while step >= cfg.min_step_db:
        ladder.append(step)
        step *= 0.5
    for lo in range(0, len(ladder), 2):
        cands = np.minimum(p - np.multiply.outer(ladder[lo:lo + 2], grad),
                           cfg.p_max_db)
        costs = sum_ber_db_cost(model, cands, cfg.mode, *limits)
        for cand, cand_cost in zip(cands, costs.tolist()):
            # sufficient decrease against the projected displacement
            if cand_cost <= cost - cfg.armijo_c * float(grad @ (p - cand)):
                return cand, cand_cost
    return None


def _descend(model: SystemModel, p0: np.ndarray, cfg: PaConfig, limits):
    pmax = cfg.p_max_db
    p = np.minimum(np.asarray(p0, dtype=float), pmax)
    cost = sum_ber_db_cost(model, p, cfg.mode, *limits)
    trace = [cost]
    k = model.k
    probes = cfg.fd_step_db * np.eye(k)
    for _ in range(cfg.max_iters):
        # central differences: the 2K probes p +- step e_i share one walk
        costs = sum_ber_db_cost(model, np.vstack([p + probes, p - probes]),
                                cfg.mode, *limits)
        grad = (costs[:k] - costs[k:]) / (2.0 * cfg.fd_step_db)
        if not np.all(np.isfinite(grad)) or float(grad @ grad) == 0.0:
            break
        accepted = _armijo(model, p, cost, grad, cfg, limits)
        if accepted is None:
            break
        improvement = cost - accepted[1]
        p, cost = accepted
        trace.append(cost)
        if improvement < cfg.tol_db:
            break
    return p, cost, tuple(trace)


def optimize_powers(model: SystemModel, cfg: PaConfig = PaConfig(),
                    warm_db=None, prune_threshold: float = DEFAULT_PRUNE,
                    max_leaves: int = DEFAULT_MAX_LEAVES) -> PaResult:
    """Minimize the sum-BER cost over per-user powers, multi-started;
    prune_threshold and max_leaves go to every sum_ber call."""
    best = None
    start_costs = []
    for s_idx, p0 in enumerate(_starts(model, cfg, warm_db)):
        p, cost, trace = _descend(model, p0, cfg, (prune_threshold, max_leaves))
        start_costs.append(cost)
        if math.isfinite(cost) and (best is None or cost < best[1]):
            best = (p, cost, s_idx, trace)
    if best is None:
        raise OptimizationError("every start point produced a non-finite cost")
    p, cost, s_idx, trace = best
    at_bound = tuple(bool(v >= cfg.p_max_db - 1e-9) for v in p)
    return PaResult(
        powers_db=tuple(float(v) for v in p),
        cost_db=cost,
        start_index=s_idx,
        start_costs_db=tuple(start_costs),
        iterations=len(trace) - 1,
        trace=trace,
        at_bound=at_bound,
    )
