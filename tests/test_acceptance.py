"""Acceptance gate: one test per release criterion.

Each test prints a single "criterion N: PASS/FAIL - detail" line with the
measured numbers, then asserts the stated tolerance. Monte Carlo criteria
use fixed seeds and order-independent batching, so results are identical
run to run and across worker counts.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

import oracles
from nomalab.analytic import (
    ber_user,
    ber_user_qam,
    ber_user_qpsk,
    class_assignments,
    sep_table_user,
    stage_bers_grid,
    sum_ber,
)
from nomalab.channel import StreamKey
from nomalab.cli import main
from nomalab.constellation import build_rect_qam
from nomalab.detectors import SystemModel, UserProfile
from nomalab.kernels import (
    cell_probability_closed,
    cell_probability_quadrature,
    erlang_fade_average,
    qpsk_sep_triplet,
)
from nomalab.montecarlo import StopRule, TolerancePolicy, compare_analytic, sweep
from nomalab.poweralloc import PaConfig, optimize_powers

QPSK = build_rect_qam(2, 2)
QAM8 = build_rect_qam(4, 2)
QAM16 = build_rect_qam(4, 4)

SIGMA_NEAR_FAR = (10.0, 2.5, 0.625)   # strong/medium/weak channel spreads
SIGMA_WIDE = (10.0, 1.0, 0.1)         # 10x spacing variant

A_GRID = [float(a) for a in np.logspace(-3, 6, 19)]
N_GRID = [1, 2, 4, 10, 20, 64]

MC_WORKERS = 4


def make_model(powers, sigmas, consts, n=2, noise_sigma=1.0):
    users = tuple(UserProfile(float(p), float(s), c)
                  for p, s, c in zip(powers, sigmas, consts))
    return SystemModel(n, noise_sigma, users)


def qpsk_near_far(k, n, power=1.0):
    return make_model([power] * k, SIGMA_NEAR_FAR[:k], [QPSK] * k, n=n)


def _line(num, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


def log_interp_crossing(xs, ys, target, errors=None, min_errors=0):
    """First x where the curve crosses the target, log-linear in y.

    When error counts are supplied, both bracketing points must carry at
    least min_errors accumulated errors to count as statistically usable.
    """
    for i in range(len(xs) - 1):
        y0, y1 = ys[i], ys[i + 1]
        if y0 >= target > y1 and y1 > 0:
            if errors is not None:
                assert errors[i] >= min_errors and errors[i + 1] >= min_errors, (
                    f"bracket around {target} has too few errors "
                    f"({errors[i]}, {errors[i + 1]})")
            t = (math.log10(target) - math.log10(y0)) / (
                math.log10(y1) - math.log10(y0))
            return xs[i] + t * (xs[i + 1] - xs[i])
    raise AssertionError(f"curve never crosses {target} in the scanned range")


def test_criterion_01_fade_average_matches_quadrature_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for a in A_GRID:
        for n in N_GRID:
            got = erlang_fade_average(a, n)
            ref = oracles.fade_average_chebyshev(a, n)
            if got < 1e-280 and ref < 1e-280:
                continue  # true value underflows double precision
            worst = max(worst, abs(got - ref) / ref)
    dt = time.monotonic() - t0
    ok = worst <= 1e-8
    _line(1, ok, f"closed form vs quadrature max rel err {worst:.3e} "
                 f"(tol 1e-8) over {len(A_GRID)}x{len(N_GRID)} grid, {dt:.1f}s")
    assert ok


def test_criterion_02_probability_conservation():
    worst_triplet = 0.0
    for a in A_GRID:
        for n in N_GRID:
            worst_triplet = max(worst_triplet,
                                abs(sum(qpsk_sep_triplet(a, n)) - 1.0))

    worst_sep = 0.0
    models = [qpsk_near_far(3, 2, power=10.0),
              make_model([100.0, 10.0, 1.0], SIGMA_NEAR_FAR,
                         [QAM16, QAM8, QAM8], n=2)]
    for m in models:
        for classes, _ in class_assignments(m):
            for k in (1, 2, 3):
                for dist in (0.0, 2.0):
                    table = sep_table_user(m, k, classes, (dist,) * (k - 1))
                    total = math.fsum(p for _, p in table)
                    worst_sep = max(worst_sep, abs(total - 1.0))

    worst_cell = 0.0
    for mi, mq in [(2, 2), (4, 2), (4, 4), (8, 8)]:
        c = build_rect_qam(mi, mq)
        for gain in (0.3, 3.0, 300.0):
            for n in (1, 2, 10):
                for tx_idx in range(c.size):
                    tx = complex(c.points[tx_idx])
                    total = math.fsum(
                        cell_probability_closed(tx, ci, cq, c, gain, n)
                        for ci in range(c.m_i) for cq in range(c.m_q))
                    worst_cell = max(worst_cell, abs(total - 1.0))

    ok = worst_triplet <= 1e-12 and worst_sep <= 1e-9 and worst_cell <= 1e-9
    _line(2, ok, f"triplet sum dev {worst_triplet:.2e} (tol 1e-12), "
                 f"SEP-table dev {worst_sep:.2e}, cell-family dev "
                 f"{worst_cell:.2e} (tol 1e-9)")
    assert worst_triplet <= 1e-12
    assert worst_sep <= 1e-9
    assert worst_cell <= 1e-9


def test_criterion_03_cell_probability_fidelity_vs_exact_q():
    # The closed route is built on a two-term exponential model of the
    # Gaussian tail whose own relative error is 10-30% on small
    # probabilities, so this bound is not attainable; the test states the
    # honest measurement and is expected to fail.
    worst = 0.0
    worst_at = None
    for mi, mq in [(2, 2), (4, 2), (4, 4)]:
        c = build_rect_qam(mi, mq)
        reps = [i for i in range(c.size)
                if c.points[i].real > 0 and c.points[i].imag > 0]
        for gain in (0.5, 2.0, 8.0):
            for n in (1, 2):
                for tx_idx in reps:
                    tx = complex(c.points[tx_idx])
                    for ci in range(c.m_i):
                        for cq in range(c.m_q):
                            ref = cell_probability_quadrature(
                                tx, ci, cq, c, gain, n)
                            if ref < 1e-6:
                                continue
                            got = cell_probability_closed(
                                tx, ci, cq, c, gain, n)
                            rel = abs(got - ref) / ref
                            if rel > worst:
                                worst = rel
                                worst_at = (mi, mq, gain, n, ci, cq)
    ok = worst <= 0.025
    _line(3, ok, f"closed vs exact-Q cell probability max rel err "
                 f"{worst:.1%} at {worst_at} (bound 2.5%); the two-term "
                 f"tail model cannot meet this bound")
    assert ok, (f"max relative error {worst:.3%} exceeds the 2.5% bound; "
                f"inherent to the two-term exponential tail approximation")


def test_criterion_04_general_engine_matches_dedicated_paths():
    rng = np.random.default_rng(7)
    t0 = time.monotonic()
    worst = 0.0
    fade = erlang_fade_average
    for _ in range(100):
        powers = sorted(10.0 ** rng.uniform(-1, 3, size=3), reverse=True)
        sigmas = sorted(10.0 ** rng.uniform(-1, 1, size=3), reverse=True)
        n = int(rng.integers(1, 9))
        ns = 10.0 ** rng.uniform(-0.5, 0.5)
        nv = ns * ns
        p, s = list(powers), list(sigmas)

        m2 = make_model(p[:2], s[:2], [QPSK] * 2, n=n, noise_sigma=ns)
        pairs = [(ber_user_qam(m2, 2, "exact", prune_threshold=0.0),
                  oracles.ref_qpsk_stage2_two_user(p[0], p[1], s[0], s[1],
                                                   nv, n, fade=fade))]

        m3 = make_model(p, s, [QPSK] * 3, n=n, noise_sigma=ns)
        pairs.append((ber_user_qam(m3, 3, "exact", prune_threshold=0.0),
                      oracles.ref_qpsk_stage3_three_user(p, s, nv, n,
                                                         fade=fade)))
        for k in (1, 2, 3):
            pairs.append((ber_user_qam(m3, k, "exact", prune_threshold=0.0),
                          oracles.ref_qpsk_stage_k(k, p, s, nv, n, fade=fade)))

        mh = make_model(p, s, [QAM16, QAM8, QAM8], n=n, noise_sigma=ns)
        for k, ref_fn in zip((1, 2, 3), (oracles.ref_16_8_8_stage1,
                                         oracles.ref_16_8_8_stage2,
                                         oracles.ref_16_8_8_stage3)):
            pairs.append((ber_user_qam(mh, k, "exact", prune_threshold=0.0),
                          ref_fn(p, s, nv, n, fade=fade)))

        for got, ref in pairs:
            if ref > 0:
                worst = max(worst, abs(got - ref) / ref)
    dt = time.monotonic() - t0
    ok = worst <= 1e-10 and dt < 60.0
    _line(4, ok, f"general walker vs 8 dedicated chain forms: max rel err "
                 f"{worst:.3e} (tol 1e-10) over 100 draws, {dt:.1f}s (< 60s)")
    assert worst <= 1e-10
    assert dt < 60.0


def test_criterion_05_monte_carlo_matches_analytic_qpsk():
    grid = [float(g) for g in range(-10, 45, 5)]
    stop = StopRule(min_errors=100, max_symbols=10**7, batch_size=10**4)
    policy = TolerancePolicy(k_ci=3.0, rel_tol=0.15, min_ber=1e-5)
    failures = []
    checked = 0
    for cfg_idx, (k, n) in enumerate([(k, n) for k in (2, 3)
                                      for n in (1, 2, 4)]):
        model = qpsk_near_far(k, n)
        curve = sweep(model, grid, "sic", stop,
                      StreamKey(55, 100 * cfg_idx), workers=MC_WORKERS)
        # default SIC ranks: stage order is user order
        analytic = stage_bers_grid(model, model.scaled_powers(grid))
        report = compare_analytic(curve, analytic, policy)
        checked += report.n_checked
        for c in report.checks:
            if not c.skipped and not c.passed:
                failures.append((k, n, c.offset_db, c.user, c.analytic,
                                 c.simulated))
    ok = not failures
    _line(5, ok, f"{checked} (config, power, user) points within "
                 f"max(3 CI, 15%): {len(failures)} failures{failures[:4]!r}"
          if failures else
          f"{checked} (config, power, user) points all within max(3 CI, 15%)")
    assert ok, failures


def test_criterion_06_error_floors_at_high_power():
    targets = (2.8e-3, 4e-3, 4e-3)
    floors = {}
    match = []
    for n in (1, 2):
        m = qpsk_near_far(3, n, power=10.0 ** 6)  # +60 dB
        floors[n] = [ber_user_qpsk(m, k) for k in (1, 2, 3)]
        ratios = [f / t for f, t in zip(floors[n], targets)]
        if all(0.5 <= r <= 2.0 for r in ratios):
            match.append(n)
    ok = len(match) >= 1
    _line(6, ok, f"floors at +60 dB: N=1 {['%.2e' % f for f in floors[1]]}, "
                 f"N=2 {['%.2e' % f for f in floors[2]]}; factor-2 match of "
                 f"(2.8e-3, 4e-3, 4e-3) at N={match or 'none'}"
                 f" -> recorded N={match[0] if match else None}")
    assert ok
    assert match == [2]  # the two-antenna reading reproduces the floors


def test_criterion_07_power_allocation_removes_floors():
    model = qpsk_near_far(3, 2)
    grid = [float(g) for g in range(-10, 45, 5)]
    sums = []
    per_user = []
    for pmax in grid:
        res = optimize_powers(model, PaConfig(p_max_db=pmax))
        sums.append(res.sum_ber)
        tuned = model.with_powers([10.0 ** (p / 10.0) for p in res.powers_db])
        per_user.append([ber_user_qpsk(tuned, k) for k in (1, 2, 3)])
    equal_floor = sum_ber(model.scaled(grid[-1]))
    improvement = equal_floor / sums[-1]

    strictly_decreasing = all(b < a for a, b in zip(sums, sums[1:])
                              if a >= 1e-5)
    user_decreasing = all(
        per_user[i + 1][k] < per_user[i][k]
        for i in range(len(grid) - 1) for k in range(3)
        if per_user[i][k] >= 1e-5)
    ok = improvement >= 10.0 and strictly_decreasing and user_decreasing
    _line(7, ok, f"optimized sum BER {sums[-1]:.2e} at top of range vs "
                 f"equal-power floor sum {equal_floor:.2e} ({improvement:.0f}x, "
                 f"need >= 10x); strictly decreasing: sum {strictly_decreasing}, "
                 f"per-user {user_decreasing}")
    assert improvement >= 10.0
    assert strictly_decreasing
    assert user_decreasing


def mc_avg_ber_curve(model, detector, grid, seed_stream):
    """Fixed-workload Monte Carlo: 2e6 symbols per point, averaged BER
    over users, plus total accumulated bit errors per point."""
    stop = StopRule(min_errors=2**31 - 1, max_symbols=2 * 10**6,
                    batch_size=10**4)
    avgs, errs = [], []
    for i, off in enumerate(grid):
        est_key = StreamKey(seed_stream, i)
        est = sweep(model, [off], detector, stop, est_key,
                    workers=MC_WORKERS).points[0]
        avgs.append(float(est.ber.mean()))
        errs.append(int(est.errors.sum()))
    return avgs, errs


def test_criterion_08a_jmld_gain_over_sic_with_pa():
    model = qpsk_near_far(3, 2)
    jmld_grid = [12.0, 14.0, 16.0, 18.0, 20.0, 22.0]
    avgs, errs = mc_avg_ber_curve(model, "jmld", jmld_grid, 81)
    jmld_cross = log_interp_crossing(jmld_grid, avgs, 1e-4,
                                     errors=errs, min_errors=100)

    pa_grid = [float(g) for g in range(30, 46, 2)]
    pa_avg = []
    for pmax in pa_grid:
        res = optimize_powers(model, PaConfig(p_max_db=pmax))
        pa_avg.append(res.sum_ber / 3.0)
    sic_cross = log_interp_crossing(pa_grid, pa_avg, 1e-4)

    gap = sic_cross - jmld_cross
    ok = 13.0 <= gap <= 23.0
    _line(8, ok, f"(a) avg-BER 1e-4 crossings: JMLD {jmld_cross:.1f} dB, "
                 f"SIC+PA {sic_cross:.1f} dB, gap {gap:.1f} dB (need 18 +- 5)")
    assert ok, f"gap {gap:.2f} dB outside 18 +- 5"


def test_criterion_08b_gap_negligible_at_n4_wide_spread():
    model = make_model([1.0] * 3, SIGMA_WIDE, [QPSK] * 3, n=4)
    grid = [22.0, 24.0, 26.0, 28.0, 30.0]
    crossings = {}
    for det in ("sic", "jmld"):
        avgs, errs = mc_avg_ber_curve(model, det, grid, 82)
        crossings[det] = log_interp_crossing(grid, avgs, 1e-4,
                                             errors=errs, min_errors=100)
    gap = abs(crossings["sic"] - crossings["jmld"])
    ok = gap <= 2.0
    _line(8, ok, f"(b) N=4 wide-spread 1e-4 crossings: SIC "
                 f"{crossings['sic']:.2f} dB, JMLD {crossings['jmld']:.2f} dB, "
                 f"gap {gap:.2f} dB (need <= 2)")
    assert ok


def test_criterion_09_strong_user_deep_ber_at_low_power():
    model = make_model([10.0 ** -1.5] * 3, SIGMA_WIDE, [QPSK] * 3, n=10)
    ber1 = ber_user(model, 1)
    ok = ber1 <= 1e-6
    _line(9, ok, f"N=10 wide-spread analytic strong-user BER at -15 dB: "
                 f"{ber1:.4e} (need <= 1e-6)")
    assert ok


def test_criterion_10_antenna_count_buys_power_for_high_order():
    def u1_ber_db(p_db, n):
        m = make_model([10.0 ** (p_db / 10.0)] * 3, SIGMA_NEAR_FAR,
                       [QAM16, QAM8, QAM8], n=n)
        return ber_user(m, 1)

    def crossing(n, lo, hi):
        return brentq(lambda p: math.log10(u1_ber_db(p, n)) + 7.0, lo, hi,
                      xtol=1e-6)

    p14 = crossing(14, -30.0, 20.0)
    p20 = crossing(20, -35.0, 10.0)
    gap = p14 - p20
    ok = 13.0 <= gap <= 21.0
    _line(10, ok, f"power for strong-user 1e-7: {p14:.2f} dB (N=14) -> "
                  f"{p20:.2f} dB (N=20), drop {gap:.2f} dB (need 17 +- 4)")
    assert ok


def test_criterion_11_simulation_is_bitwise_reproducible(tmp_path):
    config = {
        "system": {
            "n_antennas": 2,
            "noise_sigma": 1.0,
            "users": [
                {"power_db": 10.0, "sigma": 10.0},
                {"power_db": 10.0, "sigma": 2.5},
            ],
        },
        "sweep": {"start_db": 0.0, "stop_db": 10.0, "step_db": 5.0},
        "montecarlo": {"seed": 13, "min_errors": 200,
                       "max_symbols": 60_000, "batch_size": 10_000},
    }
    digests = {}
    for name, workers in [("one", 1), ("rerun", 1), ("four", 4)]:
        cfg = dict(config, montecarlo=dict(config["montecarlo"],
                                           workers=workers))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / name
        assert main(["simulate", "--config", str(path),
                     "--out", str(out)]) == 0
        digests[name] = (out / "results.csv").read_bytes()
    ok = digests["one"] == digests["rerun"] == digests["four"]
    _line(11, ok, f"results.csv identical across reruns and worker counts: "
                  f"{len(digests['one'])} bytes")
    assert ok
