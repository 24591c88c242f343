"""Per-user transmit power optimization against the closed-form sum BER.

The objective is 10*log10(sum of per-stage average BERs) as a function
of the per-user power levels in dB, minimized by projected gradient
descent (upper bound p_max_db per user) with central finite-difference
gradients and Armijo backtracking. A fixed list of deterministic start
points covers the useful basins: everyone at the cap, two decode-order
staircases, and a received-power equalizer; an optional warm start is
tried first.

Each start is a generator yielding the points it needs costed, and each
walk of the analytic model costs those of every start not yet finished:
first each start with its 2K probes, then per Armijo walk its next two
rungs and, while another step may follow, the first rung's probes, so a
step taken at that rung costs one walk. A walk's columns do not
interact, so every start follows the trajectory it would follow alone.
"""

from __future__ import annotations

import itertools
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
    # libm's pow and log10 per element: numpy's SIMD loops (AVX-512
    # builds) round some inputs differently and would change the results
    rows = np.asarray(powers_db, dtype=float)
    grid = np.atleast_2d(rows)
    linear = np.fromiter((10.0 ** (p / 10.0) for p in grid.ravel().tolist()),
                         float, grid.size).reshape(grid.shape)
    bers = stage_bers_grid(model, linear, mode, prune_threshold, max_leaves)
    totals = bers[:, 0]
    for j in range(1, model.k):  # stage by stage, in stage order
        totals = totals + bers[:, j]
    costs = [10.0 * math.log10(t) for t in np.maximum(totals, BER_FLOOR).tolist()]
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


def _ladder(cfg: PaConfig) -> list[float]:
    """Armijo step sizes: step0_db, step0_db/2, ... down to min_step_db."""
    ladder = []
    step = cfg.step0_db
    while step >= cfg.min_step_db:
        ladder.append(step)
        step *= 0.5
    return ladder


def _search(p: np.ndarray, cost: float, grad: np.ndarray, ladder, cfg: PaConfig, around):
    """Armijo search from p along -grad, as a generator: it yields each
    block of points to cost, the next two rungs and, with around given,
    around(the first), and is sent their costs. Returns (point, cost,
    costs at around(point) or None) of the first rung that decreases the
    cost enough; None if no rung does."""
    for lo in range(0, len(ladder), 2):
        cands = np.minimum(p - np.multiply.outer(ladder[lo:lo + 2], grad), cfg.p_max_db)
        costs = yield cands if around is None else np.concatenate([cands, around(cands[0])])
        for j, (cand, cand_cost) in enumerate(zip(cands, costs.tolist())):
            # sufficient decrease against the projected displacement
            if cand_cost <= cost - cfg.armijo_c * float(grad @ (p - cand)):
                return cand, cand_cost, costs[len(cands):] if j == 0 and around else None
    return None


def _descent(p0: np.ndarray, cfg: PaConfig):
    """One start's descent, a generator like _search returning (point,
    cost, trace); its first block is the start, clipped to p_max_db, and
    its probes. It stops at a non-finite or zero gradient, when no rung
    is acceptable, when it improves by less than tol_db, or after
    max_iters steps."""
    step = cfg.fd_step_db * np.eye(len(p0))
    probes = np.concatenate([step, -step])

    def around(q):  # q + step, then q - step: a - b is a + (-b), bit for bit
        return q + probes

    p = np.minimum(p0, cfg.p_max_db)
    costs = yield np.concatenate([p[None], around(p)])
    cost, probe_costs, ladder = float(costs[0]), costs[1:], _ladder(cfg)
    trace = [cost]
    for iters in range(cfg.max_iters):
        if probe_costs is None:
            probe_costs = yield around(p)
        grad = np.subtract(*probe_costs.reshape(2, -1)) / (2.0 * cfg.fd_step_db)
        if not np.isfinite(grad).all() or float(grad @ grad) == 0.0:
            break
        step = yield from _search(p, cost, grad, ladder, cfg,
                                  around if iters + 1 < cfg.max_iters else None)
        if step is None:
            break
        improvement = cost - step[1]
        p, cost, probe_costs = step
        trace.append(cost)
        if improvement < cfg.tol_db:  # a NaN improvement keeps moving
            break
    return p, cost, tuple(trace)


def _serve(model: SystemModel, jobs, mode: str, limits) -> list:
    """Run generators like _search side by side, one walk for the blocks
    of all unfinished ones, and return their results: a walk's columns do
    not interact, so each job runs as it would alone."""
    results = [None] * len(jobs)
    sent = dict.fromkeys(range(len(jobs)))
    while True:
        blocks = {}
        for i, part in sent.items():
            try:
                blocks[i] = jobs[i].send(part)
            except StopIteration as stop:
                results[i] = stop.value
        if not blocks:
            return results
        costs = sum_ber_db_cost(model, np.concatenate(list(blocks.values())), mode, *limits)
        ends = list(itertools.accumulate(len(block) for block in blocks.values()))
        sent = {i: costs[a:b] for i, a, b in zip(blocks, [0] + ends, ends)}


def optimize_powers(model: SystemModel, cfg: PaConfig = PaConfig(),
                    warm_db=None, prune_threshold: float = DEFAULT_PRUNE,
                    max_leaves: int = DEFAULT_MAX_LEAVES) -> PaResult:
    """Minimize the sum-BER cost over per-user powers, multi-started;
    prune_threshold and max_leaves go to every sum_ber call."""
    best = None
    start_costs = []
    initial_costs = []
    runs = _serve(model, [_descent(p, cfg) for p in _starts(model, cfg, warm_db)],
                  cfg.mode, (prune_threshold, max_leaves))
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
