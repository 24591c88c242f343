"""Deterministic batched simulation and the analytic comparison report."""

import numpy as np
import pytest

import oracles
from nomalab.analytic import ber_user, stage_bers, stage_bers_grid
from nomalab.channel import StreamKey
from nomalab.constellation import build_rect_qam
from nomalab.detectors import SystemModel, UserProfile
from nomalab.montecarlo import (
    Z95,
    BerCurve,
    BerEstimate,
    StopRule,
    TolerancePolicy,
    compare_analytic,
    estimate_ber,
    sweep,
)

QPSK = build_rect_qam(2, 2)


def qpsk_model(powers, sigmas, n=2, noise_sigma=1.0):
    users = tuple(UserProfile(p, s, QPSK) for p, s in zip(powers, sigmas))
    return SystemModel(n, noise_sigma, users)


MODEL = qpsk_model([100.0, 10.0, 1.0], [10.0, 2.5, 0.625])
FAST = StopRule(min_errors=200, max_symbols=40_000, batch_size=10_000)


def test_stop_rule_validation():
    for bad in [dict(min_errors=0), dict(max_symbols=0), dict(batch_size=-1)]:
        with pytest.raises(ValueError):
            StopRule(**bad)


def test_unknown_detector_rejected():
    with pytest.raises(ValueError):
        estimate_ber(MODEL, detector="genie", stop=FAST)


def test_estimate_is_deterministic():
    a = estimate_ber(MODEL, "sic", FAST, StreamKey(7))
    b = estimate_ber(MODEL, "sic", FAST, StreamKey(7))
    assert np.array_equal(a.errors, b.errors)
    assert np.array_equal(a.bits, b.bits)
    assert a.symbols == b.symbols
    c = estimate_ber(MODEL, "sic", FAST, StreamKey(8))
    assert not np.array_equal(a.errors, c.errors)


def test_worker_count_does_not_change_the_estimate():
    rule = StopRule(min_errors=500, max_symbols=120_000, batch_size=10_000)
    one = estimate_ber(MODEL, "sic", rule, StreamKey(3), workers=1)
    many = estimate_ber(MODEL, "sic", rule, StreamKey(3), workers=4)
    assert np.array_equal(one.errors, many.errors)
    assert one.symbols == many.symbols


def test_max_symbols_caps_the_run():
    # a clean high-power single user produces almost no errors
    model = qpsk_model([1e6], [1.0], n=2)
    rule = StopRule(min_errors=10_000, max_symbols=30_000, batch_size=10_000)
    est = estimate_ber(model, "sic", rule, StreamKey(0))
    assert est.symbols == 30_000
    assert est.bits.tolist() == [60_000]


def test_no_wave_runs_past_the_symbol_budget(monkeypatch):
    # with CHILD_SPAN batches in the budget, a full last wave once asked
    # StreamKey.child for keys past the span
    from nomalab import channel, montecarlo

    monkeypatch.setattr(channel, "CHILD_SPAN", 8)
    run = []

    def counted(model, detector, batch_size, key):
        run.append(key.stream)
        return np.zeros(model.k, dtype=np.int64)

    monkeypatch.setattr(montecarlo, "_run_batch", counted)
    rule = StopRule(min_errors=10**9, max_symbols=75, batch_size=10)
    for workers in (1, 3, 8, 64):
        run.clear()
        est = estimate_ber(MODEL, "sic", rule, StreamKey(0, 1), workers)
        assert est.symbols == 80
        assert sorted(run) == [8 + i for i in range(8)]


def test_each_wave_runs_its_first_batch_in_the_calling_thread(monkeypatch):
    import threading

    from nomalab import montecarlo

    run = []

    def counted(model, detector, batch_size, key):
        run.append((key.stream, threading.current_thread() is threading.main_thread()))
        return np.zeros(model.k, dtype=np.int64)

    monkeypatch.setattr(montecarlo, "_run_batch", counted)
    rule = StopRule(min_errors=10**9, max_symbols=70, batch_size=10)
    estimate_ber(MODEL, "sic", rule, StreamKey(0), workers=3)
    assert sorted(stream for stream, _ in run) == list(range(7))
    assert sorted(stream for stream, main in run if main) == [0, 3, 6]

    def no_pool(*args, **kwargs):
        raise AssertionError("one worker starts no thread pool")

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
    run.clear()
    estimate_ber(MODEL, "sic", rule, StreamKey(0), workers=1)
    assert run == [(i, True) for i in range(7)]


QAM8, QAM16 = build_rect_qam(4, 2), build_rect_qam(4, 4)
DRAW_SYSTEMS = {  # alphabets, powers, spreads, antennas, noise sigma
    "qpsk3_n2": ([QPSK] * 3, [31.6, 3.16, 1.0], [10.0, 2.5, 0.625], 2, 1.0),
    "qpsk3_n4": ([QPSK] * 3, [31.6, 3.16, 1.0], [10.0, 2.5, 0.625], 4, 1.0),
    "16_8_8_n2": ([QAM16, QAM8, QAM8], [100.0, 10.0, 1.0], [10.0, 2.5, 0.625], 2, 0.8),
    "16_8_8_n4": ([QAM16, QAM8, QAM8], [100.0, 10.0, 1.0], [10.0, 2.5, 0.625], 4, 0.8),
    "k2_n1": ([QPSK] * 2, [10.0, 2.0], [1.0, 0.7], 1, 1.3),
}


@pytest.mark.parametrize("name", sorted(DRAW_SYSTEMS))
def test_batches_draw_bit_for_bit_what_fresh_temporaries_drew(name):
    # numpy elides the temporaries of products past 256 kB and computes
    # them in place, so batches on both sides of that size are checked
    from nomalab import montecarlo

    consts, powers, sigmas, n, noise_sigma = DRAW_SYSTEMS[name]
    model = SystemModel(n, noise_sigma, tuple(
        UserProfile(p, s, c) for p, s, c in zip(powers, sigmas, consts)))
    for batch, size in enumerate((1, 7, 10_000, 20_000)):
        key = StreamKey(5, sorted(DRAW_SYSTEMS).index(name)).child(batch)
        sym, chans, y = montecarlo._draw_batch(model, size, key)
        ref_sym, ref_chans, ref_y = oracles.draw_batch(model, size, key)
        assert all(np.array_equal(a, b) for a, b in zip(sym, ref_sym))
        for got, ref in zip(chans + [y], ref_chans + [ref_y]):
            assert got.shape == ref.shape
            assert got.view(np.uint64).tolist() == ref.view(np.uint64).tolist()


def test_min_errors_is_per_user():
    est = estimate_ber(MODEL, "sic", StopRule(150, 10**7, 10_000), StreamKey(1))
    assert int(est.errors.min()) >= 150


def test_estimate_fields_consistent():
    est = estimate_ber(MODEL, "sic", FAST, StreamKey(5))
    assert est.bits.tolist() == [2 * est.symbols] * 3
    p = est.errors / est.bits
    assert np.allclose(est.ber, p)
    assert np.allclose(est.ci_halfwidth,
                       Z95 * np.sqrt(p * (1 - p) / est.bits))


def test_jmld_runs_and_beats_sic_for_balanced_powers():
    model = qpsk_model([1.0, 1.0], [1.0, 1.0], n=2, noise_sigma=0.3)
    rule = StopRule(min_errors=300, max_symbols=60_000, batch_size=10_000)
    sic = estimate_ber(model, "sic", rule, StreamKey(2))
    jmld = estimate_ber(model, "jmld", rule, StreamKey(2))
    assert jmld.ber.mean() < sic.ber.mean()


def test_single_user_matches_fade_average():
    from nomalab.kernels import erlang_fade_average
    model = qpsk_model([8.0], [1.0], n=2)
    est = estimate_ber(model, "sic", StopRule(2000, 10**6, 10_000), StreamKey(4))
    ana = erlang_fade_average(16.0, 2)
    assert abs(float(est.ber[0]) - ana) < 4 * float(est.ci_halfwidth[0])


def test_sweep_points_use_numbered_streams():
    grid = [0.0, 5.0]
    curve = sweep(MODEL, grid, "sic", FAST, StreamKey(9, 2))
    assert curve.offsets_db == (0.0, 5.0)
    for i, off in enumerate(grid):
        solo = estimate_ber(MODEL.scaled(off), "sic", FAST, StreamKey(9, 2 + i))
        assert np.array_equal(curve.points[i].errors, solo.errors)


def test_compare_analytic_passes_on_calibrated_run():
    model = qpsk_model([100.0, 10.0], [10.0, 2.5])
    curve = sweep(model, [0.0], "sic",
                  StopRule(400, 10**6, 10_000), StreamKey(11))
    report = compare_analytic(curve, [stage_bers(model)])
    assert report.passed
    assert report.n_checked >= 1
    assert report.n_failed == 0
    for c in report.checks:
        assert c.tolerance >= 0.15 * c.analytic
        assert c.user in (1, 2)


def test_compare_analytic_skips_below_floor():
    model = qpsk_model([100.0], [1.0], n=2)
    est = BerEstimate(errors=np.array([0]), bits=np.array([1000]),
                      symbols=500)
    curve = BerCurve((40.0,), (est,))
    policy = TolerancePolicy(min_ber=1e-5)
    report = compare_analytic(curve, [stage_bers(model.scaled(40.0))], policy)
    assert ber_user(model.scaled(40.0), 1) < 1e-5  # sanity: below the floor
    assert all(c.skipped for c in report.checks)
    assert report.n_checked == 0
    assert report.passed  # nothing checked, nothing failed


def test_compare_analytic_flags_systematic_offset():
    model = qpsk_model([8.0], [1.0], n=2)
    # fabricate a simulated point 10x off the closed form with a tiny CI
    est = BerEstimate(errors=np.array([40_000]), bits=np.array([200_000]),
                      symbols=100_000)
    curve = BerCurve((0.0,), (est,))
    report = compare_analytic(curve, [stage_bers(model)])
    assert not report.passed
    assert report.n_failed == 1
    check = report.checks[0]
    assert not check.skipped and not check.passed
    assert check.simulated == pytest.approx(0.2)


def test_compare_analytic_uses_prune_and_leaf_limits():
    q16, q8 = build_rect_qam(4, 4), build_rect_qam(4, 2)
    model = SystemModel(2, 1.0, (UserProfile(100.0, 10.0, q16),
                                 UserProfile(100.0, 2.5, q8),
                                 UserProfile(100.0, 0.625, q8)))
    est = BerEstimate(errors=np.array([30, 30, 40]),
                      bits=np.array([1000, 1000, 1000]), symbols=250)
    curve = BerCurve((0.0,), (est,))
    # the report checks the table it is given, numpy rows included
    table = stage_bers_grid(model, [[u.power for u in model.users]], "exact",
                            prune_threshold=1e-3)
    report = compare_analytic(curve, table)
    pruned = stage_bers(model, "exact", prune_threshold=1e-3)
    assert pruned != stage_bers(model, "exact")
    assert tuple(c.analytic for c in report.checks) == pruned
    for c in report.checks:
        assert type(c.analytic) is float
        assert type(c.passed) is bool and type(c.skipped) is bool
