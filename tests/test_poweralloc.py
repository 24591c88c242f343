"""Sum-BER power optimization: objective wiring, bound handling, and
multistart behavior."""

import math

import numpy as np
import pytest

from nomalab.analytic import sum_ber
from nomalab.constellation import build_rect_qam
from nomalab.detectors import SystemModel, UserProfile
from nomalab.errors import OptimizationError
from nomalab.poweralloc import PaConfig, optimize_powers, sum_ber_db_cost

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
    from nomalab.poweralloc import _armijo

    rng = np.random.default_rng(3)
    for step0 in (4.0, 40.0, 400.0):
        cfg = PaConfig(p_max_db=30.0, step0_db=step0, min_step_db=1e-3)
        for _ in range(5):
            p = rng.uniform(0.0, 30.0, 3)
            cost = sum_ber_db_cost(NEAR_FAR, p)
            grad = rng.normal(size=3)
            expect, step = None, cfg.step0_db
            while step >= cfg.min_step_db and expect is None:
                cand = np.minimum(p - step * grad, cfg.p_max_db)
                cand_cost = sum_ber_db_cost(NEAR_FAR, cand)
                if cand_cost <= cost - cfg.armijo_c * float(grad @ (p - cand)):
                    expect = (cand.tolist(), cand_cost)
                step *= 0.5
            got = _armijo(NEAR_FAR, p, cost, grad, cfg, (1e-12, 10**7))
            assert (got if got is None else (got[0].tolist(), got[1])) == expect
