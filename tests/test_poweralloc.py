"""Sum-BER power optimization: objective wiring, bound handling, and
multistart behavior."""

import math

import numpy as np
import pytest

import oracles
from nomalab.analytic import DEFAULT_MAX_LEAVES, DEFAULT_PRUNE, sum_ber
from nomalab.constellation import build_rect_qam
from nomalab.detectors import SystemModel, UserProfile
from nomalab.errors import OptimizationError
from nomalab.poweralloc import (PaConfig, PaResult, _starts, optimize_powers,
                                sum_ber_db_cost)

QPSK = build_rect_qam(2, 2)


def qpsk_model(powers, sigmas, n=2, noise_sigma=1.0):
    users = tuple(UserProfile(p, s, QPSK) for p, s in zip(powers, sigmas))
    return SystemModel(n, noise_sigma, users)


NEAR_FAR = qpsk_model([1.0, 1.0, 1.0], [10.0, 2.5, 0.625])


def test_cost_is_db_of_sum_ber():
    powers_db = [20.0, 12.0, 5.0]
    cost = sum_ber_db_cost(NEAR_FAR, powers_db)
    linear = [10.0 ** (p / 10.0) for p in powers_db]
    expect = 10.0 * math.log10(sum_ber(NEAR_FAR.with_powers(linear)))
    assert cost == pytest.approx(expect, rel=1e-12)


def test_single_user_saturates_the_bound():
    model = qpsk_model([1.0], [1.0])
    res = optimize_powers(model, PaConfig(p_max_db=18.0, max_iters=60))
    assert res.at_bound == (True,)
    assert res.powers_db[0] == pytest.approx(18.0, abs=1e-6)
    assert res.cost_db == pytest.approx(
        sum_ber_db_cost(model, [18.0]), abs=1e-9)


def test_optimization_beats_equal_power():
    cfg = PaConfig(p_max_db=30.0, max_iters=120)
    res = optimize_powers(NEAR_FAR, cfg)
    equal = sum_ber_db_cost(NEAR_FAR, [30.0, 30.0, 30.0])
    assert res.cost_db < equal - 10.0  # well past the equal-power floor
    assert max(res.powers_db) <= 30.0 + 1e-9
    # report internally consistent
    assert res.cost_db == pytest.approx(
        sum_ber_db_cost(NEAR_FAR, res.powers_db), abs=1e-9)
    assert res.sum_ber == pytest.approx(10.0 ** (res.cost_db / 10.0))


def test_optimizer_is_deterministic():
    cfg = PaConfig(p_max_db=20.0, max_iters=40)
    a = optimize_powers(NEAR_FAR, cfg)
    b = optimize_powers(NEAR_FAR, cfg)
    assert a == b


def test_multistart_bookkeeping_and_trace():
    cfg = PaConfig(p_max_db=20.0, max_iters=40, multistart_points=3)
    res = optimize_powers(NEAR_FAR, cfg)
    assert len(res.start_costs_db) == 3
    assert 0 <= res.start_index < 3
    assert res.cost_db == pytest.approx(min(res.start_costs_db))
    assert res.iterations == len(res.trace) - 1
    assert all(x >= y for x, y in zip(res.trace, res.trace[1:]))


def test_warm_start_is_tried_first():
    cfg = PaConfig(p_max_db=20.0, max_iters=40, multistart_points=2)
    base = optimize_powers(NEAR_FAR, cfg)
    warm = optimize_powers(NEAR_FAR, cfg, warm_db=list(base.powers_db))
    assert warm.cost_db <= base.cost_db + 1e-9
    with pytest.raises(ValueError):
        optimize_powers(NEAR_FAR, cfg, warm_db=[1.0])


def test_all_non_finite_starts_raise(monkeypatch):
    monkeypatch.setattr("nomalab.poweralloc.stage_bers_grid",
                        lambda model, powers, *args: np.full(np.shape(powers), np.nan))
    with pytest.raises(OptimizationError):
        optimize_powers(NEAR_FAR, PaConfig(max_iters=3))


def test_cost_floor_keeps_log_finite(monkeypatch):
    monkeypatch.setattr("nomalab.poweralloc.stage_bers_grid",
                        lambda model, powers, *args: np.zeros(np.shape(powers)))
    cost = sum_ber_db_cost(NEAR_FAR, [0.0, 0.0, 0.0])
    assert math.isfinite(cost) and cost == pytest.approx(-3000.0)


def test_cost_converts_decibels_one_element_at_a_time(monkeypatch):
    # on AVX-512 builds numpy's SIMD power differs from libm on 12 of
    # these 150 powers and its log10 on each of these six sums, so
    # vectorising either conversion would move every optimiser output
    sums = [0.9713532985690303, 0.3188622235773248, 0.6097069726981972,
            0.5356733846284132, 0.7748102279152546, 0.5035963021046042]
    powers_db = np.random.default_rng(5).uniform(-30.0, 40.0, (50, 3))
    seen = []

    def walk(model, powers, *args):
        seen.append(powers)
        return np.array([[sums[i % 6], 0.0, 0.0] for i in range(len(powers))])

    monkeypatch.setattr("nomalab.poweralloc.stage_bers_grid", walk)
    costs = sum_ber_db_cost(NEAR_FAR, powers_db)
    assert [np.asarray(powers).tolist() for powers in seen] == [
        [[10.0 ** (p / 10.0) for p in row] for row in powers_db.tolist()]]
    assert costs.tolist() == [10.0 * math.log10(sums[i % 6]) for i in range(50)]


def test_batched_costs_equal_one_probe_at_a_time():
    cfg = PaConfig()
    for model in (NEAR_FAR, qpsk_model([1.0] * 3, [10.0, 2.5, 0.625], n=4)):
        p = np.array([24.0, 13.5, 2.25])
        probes = cfg.fd_step_db * np.eye(3)
        points = np.vstack([p + probes, p - probes])
        costs = sum_ber_db_cost(model, points)
        assert costs.tolist() == [sum_ber_db_cost(model, q) for q in points]
        grad = (costs[:3] - costs[3:]) / (2.0 * cfg.fd_step_db)
        one_by_one = [(sum_ber_db_cost(model, p + e) - sum_ber_db_cost(model, p - e))
                      / (2.0 * cfg.fd_step_db) for e in probes]
        assert grad.tolist() == one_by_one


def test_armijo_takes_the_first_acceptable_rung():
    # the search alone and five side by side, without and with the
    # probes it carries, against a direct scan of the ladder; the probes
    # come back only for a step taken at the first rung of a walk
    from nomalab.poweralloc import _ladder, _search, _serve

    probes = PaConfig().fd_step_db * np.eye(3)

    def around(q):
        return np.vstack([q + probes, q - probes])

    def run(cases, cfg, carry):
        jobs = [_search(p, cost, grad, _ladder(cfg), cfg, around if carry else None)
                for p, cost, grad in cases]
        found = _serve(NEAR_FAR, jobs, cfg.mode, (1e-12, 10**7))
        return [f if f is None else (f[0].tolist(), f[1], f[2] if f[2] is None
                                     else f[2].tolist()) for f in found]

    rng = np.random.default_rng(3)
    for step0 in (4.0, 40.0, 400.0):
        cfg = PaConfig(p_max_db=30.0, step0_db=step0, min_step_db=1e-3)
        cases, plain, carried = [], [], []
        for _ in range(5):
            p = rng.uniform(0.0, 30.0, 3)
            cost = sum_ber_db_cost(NEAR_FAR, p)
            grad = rng.normal(size=3)
            expect, probed, step, rung = None, None, cfg.step0_db, 0
            while step >= cfg.min_step_db and expect is None:
                cand = np.minimum(p - step * grad, cfg.p_max_db)
                cand_cost = sum_ber_db_cost(NEAR_FAR, cand)
                if cand_cost <= cost - cfg.armijo_c * float(grad @ (p - cand)):
                    expect = (cand.tolist(), cand_cost)
                    if rung % 2 == 0:
                        probed = sum_ber_db_cost(NEAR_FAR, around(cand)).tolist()
                step *= 0.5
                rung += 1
            case = (p, cost, grad)
            plain.append(expect if expect is None else expect + (None,))
            carried.append(expect if expect is None else expect + (probed,))
            assert run([case], cfg, False) == plain[-1:]
            assert run([case], cfg, True) == carried[-1:]
            cases.append(case)
        assert run(cases, cfg, False) == plain
        assert run(cases, cfg, True) == carried


# ---- pipelined descent against the sequential per-start oracle ----

LIMITS = (DEFAULT_PRUNE, DEFAULT_MAX_LEAVES)
SPREADS = [10.0, 2.5, 0.625]


def mixed_model(modulations, n):
    users = tuple(UserProfile(1.0, s, build_rect_qam(*m))
                  for m, s in zip(modulations, SPREADS))
    return SystemModel(n, 1.0, users)


def reference_runs(model, cfg, warm_db=None):
    """Each start's oracle run, alone: (p, cost, trace, reason)."""
    return [oracles.reference_descend(model, p0, cfg, LIMITS)
            for p0 in _starts(model, cfg, warm_db)]


def best_of(runs, cfg) -> PaResult:
    """optimize_powers' report over the given per-start runs."""
    costs = [run[1] for run in runs]
    s_idx = min((i for i, c in enumerate(costs) if math.isfinite(c)),
                key=costs.__getitem__)
    p, cost, trace, _ = runs[s_idx]
    return PaResult(powers_db=tuple(float(v) for v in p), cost_db=cost,
                    start_index=s_idx, start_costs_db=tuple(costs),
                    iterations=len(trace) - 1, trace=trace,
                    at_bound=tuple(bool(v >= cfg.p_max_db - 1e-9) for v in p),
                    initial_costs_db=tuple(run[2][0] for run in runs))


def stops(runs):
    return [(len(run[2]) - 1, run[3]) for run in runs]


LOCK_STEP_CASES = {
    "qpsk_n1": (qpsk_model([1.0] * 3, SPREADS, n=1),
                PaConfig(p_max_db=30.0, max_iters=20)),
    "qpsk_n4": (qpsk_model([1.0] * 3, SPREADS, n=4),
                PaConfig(p_max_db=30.0, max_iters=40)),
    "qpsk_n2_short_ladder": (
        qpsk_model([1.0] * 3, SPREADS, n=2),
        PaConfig(p_max_db=30.0, max_iters=6, min_step_db=2.5, tol_db=0.1)),
    "qpsk_n4_short_ladder": (
        qpsk_model([1.0] * 3, SPREADS, n=4),
        PaConfig(p_max_db=30.0, max_iters=8, step0_db=8.0, min_step_db=0.75,
                 tol_db=0.01)),
    "8_4_4_n2": (mixed_model([(4, 2), (2, 2), (2, 2)], 2),
                 PaConfig(p_max_db=30.0, max_iters=4)),
    "16_8_8_n2": (mixed_model([(4, 4), (4, 2), (4, 2)], 2),
                  PaConfig(p_max_db=30.0, max_iters=2, mode="exact")),
    "single_user": (qpsk_model([1.0], [1.0]),
                    PaConfig(p_max_db=18.0, max_iters=60)),
}


@pytest.mark.parametrize("name", sorted(LOCK_STEP_CASES))
def test_lock_step_equals_the_best_sequential_start(name):
    model, cfg = LOCK_STEP_CASES[name]
    assert optimize_powers(model, cfg) == best_of(reference_runs(model, cfg), cfg)


def test_short_ladder_cases_stop_starts_apart():
    # the cases above include starts that exhaust the ladder,
    # meet tol_db and hit max_iters, each in its own iteration
    model, cfg = LOCK_STEP_CASES["qpsk_n2_short_ladder"]
    assert stops(reference_runs(model, cfg)) == [
        (5, "ladder"), (1, "ladder"), (6, "max_iters"), (2, "tol")]
    model, cfg = LOCK_STEP_CASES["qpsk_n4_short_ladder"]
    assert stops(reference_runs(model, cfg)) == [
        (4, "tol"), (3, "ladder"), (8, "max_iters"), (2, "ladder")]


@pytest.mark.parametrize("points", [1, 2, 3, 4])
@pytest.mark.parametrize("warm", [False, True])
def test_lock_step_over_start_counts(points, warm):
    model = qpsk_model([1.0] * 3, SPREADS, n=2)
    cfg = PaConfig(p_max_db=24.0, max_iters=30, multistart_points=points)
    warm_db = [20.0, 9.0, 1.5] if warm else None
    runs = reference_runs(model, cfg, warm_db)
    assert len(runs) == points
    assert optimize_powers(model, cfg, warm_db) == best_of(runs, cfg)


def test_a_zero_gradient_stops_only_its_own_start(monkeypatch):
    # a cost that is flat once every user is above 10 (linear): two
    # starts begin on the flat, a third reaches it after three steps
    monkeypatch.setattr(
        "nomalab.poweralloc.stage_bers_grid",
        lambda model, powers, *args: 1.0 / (1.0 + np.minimum(powers, 10.0)))
    cfg = PaConfig(p_max_db=30.0, max_iters=8)
    runs = reference_runs(NEAR_FAR, cfg)
    assert stops(runs) == [(0, "gradient"), (0, "ladder"), (3, "gradient"),
                           (0, "gradient")]
    assert optimize_powers(NEAR_FAR, cfg) == best_of(runs, cfg)


def test_walk_counts_per_solve(monkeypatch):
    # one walk per step taken at a walk's first rung, not a probe walk
    # plus a rung walk per step: counts of the pipelined descent, pinned
    from nomalab import poweralloc

    walks = []
    grid = poweralloc.stage_bers_grid

    def counted(model, powers, *args):
        walks.append(len(powers))
        return grid(model, powers, *args)

    monkeypatch.setattr(poweralloc, "stage_bers_grid", counted)
    for name, count, columns in (("qpsk_n4", 55, 1254), ("16_8_8_n2", 3, 68)):
        walks.clear()
        optimize_powers(*LOCK_STEP_CASES[name])
        assert (len(walks), sum(walks)) == (count, columns)
