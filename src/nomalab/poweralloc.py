"""Per-user transmit power optimization against the closed-form sum BER.

The objective is 10*log10(sum of per-stage average BERs) as a function
of the per-user power levels in dB, minimized by projected gradient
descent (upper bound p_max_db per user) with central finite-difference
gradients and Armijo backtracking. A fixed list of deterministic start
points covers the useful basins: everyone at the cap, two decode-order
staircases, and a received-power equalizer; an optional warm start is
tried first.

All starts descend in lock step. Each iteration evaluates the gradient
probes of every start still moving in one call of the analytic walk,
and each Armijo call takes the next two rungs of every start still
searching. A walk's columns do not interact, so every start follows
the trajectory it would follow alone.
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
    # each start's cost before its first step, at the start clipped to p_max_db
    initial_costs_db: tuple[float, ...]

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


def _armijo(model: SystemModel, p: np.ndarray, cost, grad: np.ndarray,
            cfg: PaConfig, limits) -> list:
    """For each row of the (S, K) points p, with its cost and its row of
    grad: the first rung of the ladder step0_db, step0_db/2, ... down to
    min_step_db whose projected step decreases the cost enough, as
    (point, cost); None if no rung does. Each walk takes the next two
    rungs of every row still searching."""
    ladder = []
    step = cfg.step0_db
    while step >= cfg.min_step_db:
        ladder.append(step)
        step *= 0.5
    found = [None] * len(p)
    searching = list(range(len(p)))
    for lo in range(0, len(ladder), 2):
        if not searching:
            break
        rungs = np.array(ladder[lo:lo + 2])
        cands = np.minimum(p[searching, None] - rungs[:, None] * grad[searching, None],
                           cfg.p_max_db)
        costs = sum_ber_db_cost(model, cands.reshape(-1, p.shape[1]), cfg.mode, *limits)
        for s, row, row_costs in zip(searching, cands,
                                     costs.reshape(len(searching), -1).tolist()):
            for cand, cand_cost in zip(row, row_costs):
                # sufficient decrease against the projected displacement
                if cand_cost <= cost[s] - cfg.armijo_c * float(grad[s] @ (p[s] - cand)):
                    found[s] = (cand, cand_cost)
                    break
        searching = [s for s in searching if found[s] is None]
    return found


def _descend(model: SystemModel, starts: np.ndarray, cfg: PaConfig, limits):
    """Descend from every row of starts in lock step: each walk serves
    the probes, or the rungs, of every start still moving. A start stops
    on its own at a non-finite or zero gradient, when no rung is
    acceptable, when it improves by less than tol_db, or at max_iters.
    Returns each start's (point, cost, trace)."""
    p = np.minimum(starts, cfg.p_max_db)
    cost = sum_ber_db_cost(model, p, cfg.mode, *limits).tolist()
    traces = [[c] for c in cost]
    k = model.k
    probes = cfg.fd_step_db * np.eye(k)
    moving = list(range(len(p)))
    for _ in range(cfg.max_iters):
        if not moving:
            break
        # central differences: the 2K probes p +- step e_i of every start
        # still moving share one walk
        at = p[moving, None]
        points = np.concatenate([at + probes, at - probes], axis=1).reshape(-1, k)
        costs = sum_ber_db_cost(model, points, cfg.mode, *limits).reshape(-1, 2, k)
        grads = (costs[:, 0] - costs[:, 1]) / (2.0 * cfg.fd_step_db)
        ok = [bool(np.all(np.isfinite(g))) and float(g @ g) != 0.0 for g in grads]
        moving = [s for s, keep in zip(moving, ok) if keep]
        accepted = _armijo(model, p[moving], [cost[s] for s in moving], grads[ok],
                           cfg, limits)
        still = []
        for s, step in zip(moving, accepted):
            if step is None:
                continue
            improvement = cost[s] - step[1]
            p[s], cost[s] = step
            traces[s].append(cost[s])
            if not improvement < cfg.tol_db:  # a NaN improvement keeps moving
                still.append(s)
        moving = still
    return [(row, c, tuple(trace)) for row, c, trace in zip(p, cost, traces)]


def optimize_powers(model: SystemModel, cfg: PaConfig = PaConfig(),
                    warm_db=None, prune_threshold: float = DEFAULT_PRUNE,
                    max_leaves: int = DEFAULT_MAX_LEAVES) -> PaResult:
    """Minimize the sum-BER cost over per-user powers, multi-started;
    prune_threshold and max_leaves go to every sum_ber call."""
    best = None
    start_costs = []
    initial_costs = []
    runs = _descend(model, np.array(_starts(model, cfg, warm_db)), cfg,
                    (prune_threshold, max_leaves))
    for s_idx, (p, cost, trace) in enumerate(runs):
        start_costs.append(cost)
        initial_costs.append(trace[0])
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
        initial_costs_db=tuple(initial_costs),
    )
