"""Fading-averaged scalar kernels against series, quadrature, and
high-precision oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

import oracles
from oracles import q_approx
from nomalab.analytic import _admissible_tx
from nomalab.channel import erlang_pdf
from nomalab.constellation import build_rect_qam, magnitude_classes
from nomalab.kernels import (
    _averages,
    _axis_brackets,
    _clamp_probability,
    cell_probability_closed,
    cell_probability_quadrature,
    cell_probability_table,
    erlang_fade_average,
    erlang_fade_quadrature,
    q_exact,
    qpsk_sep_triplet,
    sep_probabilities,
    sep_program,
)

INF = math.inf
A_GRID = [1e-3, 0.03, 0.4, 1.0, 5.0, 40.0, 1e3, 1e6]
N_GRID = [1, 2, 4, 10, 20, 64]


def test_q_exact_matches_normal_sf():
    x = np.linspace(-4.0, 8.0, 49)
    assert np.allclose(q_exact(x), norm.sf(x), rtol=1e-13, atol=1e-300)
    assert isinstance(q_exact(1.0), float)


def test_q_approx_frozen_shape():
    assert q_approx(0.0) == pytest.approx(1.0 / 12.0 + 0.25, rel=1e-15)
    x = 1.3
    expect = math.exp(-0.5 * x * x) / 12.0 + math.exp(-2.0 * x * x / 3.0) / 4.0
    assert q_approx(x) == pytest.approx(expect, rel=1e-15)
    assert q_approx(-x) == pytest.approx(1.0 - expect, rel=1e-15)
    grid = np.linspace(0.0, 6.0, 100)
    assert np.all(np.diff(q_approx(grid)) < 0)  # strictly decreasing
    assert np.all(np.diff(q_approx(-grid[::-1][:-1])) < 0)
    # saturates cleanly instead of overflowing for extreme arguments
    assert q_approx(1e6) == 0.0
    assert q_approx(-1e6) == 1.0


def test_q_approx_error_band():
    # the two-term model overshoots the exact tail by roughly 10-30%
    assert q_approx(1.0) / q_exact(1.0) - 1.0 == pytest.approx(0.128, abs=0.03)
    for x in np.linspace(1.0, 6.0, 11):
        ratio = q_approx(x) / q_exact(x)
        assert 1.0 < ratio < 1.35


def test_fade_average_matches_series_at_moderate_parameters():
    for a in [1e-3, 0.1, 1.0, 5.0]:
        for n in range(1, 9):
            ref = oracles.fade_average_series(a, n)
            assert erlang_fade_average(a, n) == pytest.approx(ref, rel=1e-12)


def test_fade_average_matches_chebyshev_everywhere():
    worst = 0.0
    for a in A_GRID:
        for n in N_GRID:
            got = erlang_fade_average(a, n)
            ref = oracles.fade_average_chebyshev(a, n)
            if ref < 1e-280 and got < 1e-280:
                continue
            worst = max(worst, abs(got - ref) / ref)
    assert worst < 1e-12


def test_fade_average_matches_own_quadrature():
    for a in [0.1, 1.0, 10.0, 100.0, 1000.0]:
        for n in (1, 2, 8):
            ref = erlang_fade_quadrature(a, n)
            assert erlang_fade_average(a, n) == pytest.approx(ref, rel=1e-9,
                                                              abs=0)


def test_fade_average_special_values():
    for n in (1, 2, 7, 64):
        assert erlang_fade_average(0.0, n) == pytest.approx(0.5, rel=1e-15)
        assert erlang_fade_average(math.inf, n) == 0.0
    with pytest.raises(ValueError):
        erlang_fade_average(-0.1, 2)
    with pytest.raises(ValueError):
        erlang_fade_average(1.0, 0)
    with pytest.raises(ValueError):
        erlang_fade_average(1.0, 2.0)


def test_fade_average_monotone_in_gain_and_diversity():
    a_vals = np.logspace(-2, 4, 25)
    for n in (1, 4, 16):
        f = [erlang_fade_average(float(a), n) for a in a_vals]
        assert all(x > y for x, y in zip(f, f[1:]))
    for a in (0.5, 5.0, 500.0):
        f = [erlang_fade_average(a, n) for n in range(1, 12)]
        assert all(x > y for x, y in zip(f, f[1:]))


def test_fade_average_survives_deep_tails():
    # the alternating-series form loses every significant digit here; the
    # evaluated all-positive form keeps full relative accuracy
    bad = oracles.fade_average_series(1e3, 20)
    good = erlang_fade_average(1e3, 20)
    ref = oracles.fade_average_chebyshev(1e3, 20)
    assert good == pytest.approx(ref, rel=1e-11, abs=0)
    assert bad <= 0.0 or abs(bad - ref) / ref > 1e-3
    assert erlang_fade_average(1e4, 64) == pytest.approx(
        oracles.fade_average_chebyshev(1e4, 64), rel=1e-11, abs=0)
    # past ~1e-308 the value is genuinely unrepresentable: graceful zero
    assert erlang_fade_average(1e6, 64) == 0.0


@pytest.mark.parametrize("n", [470, 515])
def test_fade_average_keeps_its_digits_at_many_antennas(n):
    # p**n leaves the normal range here: it once lost digits at n = 470
    # and gave 0.0 at n = 515
    for a in (0.3, 1.0, 3.0):
        assert erlang_fade_average(a, n) == pytest.approx(
            erlang_fade_quadrature(a, n), rel=1e-10, abs=0)


def test_fade_quadrature_matches_adaptive_oracle():
    # validate's fade check runs on the fixed rule, at these 15 points
    for n in (1, 2, 8):
        for a in (0.1, 1.0, 10.0, 100.0, 1000.0):
            assert erlang_fade_quadrature(a, n) == pytest.approx(
                oracles.fade_average_quad(a, n), rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [470, 515])
def test_fade_quadrature_matches_adaptive_oracle_at_many_antennas(n):
    for a in (0.3, 1.0, 3.0):
        assert erlang_fade_quadrature(a, n) == pytest.approx(
            oracles.fade_average_quad(a, n), rel=1e-10, abs=0)


def test_fade_quadrature_special_values():
    assert erlang_fade_quadrature(math.inf, 2) == 0.0
    assert isinstance(erlang_fade_quadrature(np.float64(3.0), 2), float)
    with pytest.raises(ValueError):
        erlang_fade_quadrature(-0.1, 2)
    with pytest.raises(ValueError):
        erlang_fade_quadrature(math.nan, 2)
    with pytest.raises(ValueError):
        erlang_fade_quadrature(1.0, 0)
    with pytest.raises(ValueError):
        erlang_fade_quadrature(1.0, 2.0)


def _plain_product(a, n):
    """p**n and p**n * acc, the all-positive form taken as written."""
    t = a + 2.0
    u = 1.0 + np.sqrt(a / t)
    p = 1.0 / (t * u)
    q = 0.5 * u
    acc, qk = 1.0, q
    for k in range(1, n):
        acc = acc + float(math.comb(n - 1 + k, k)) * qk
        qk = qk * q
    return p**n, p**n * acc


def test_fade_average_is_the_plain_product_where_p_to_the_n_is_normal():
    a = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 241)])
    normal = 0
    for n in (1, 2, 3, 8, 20, 64, 200, 470, 515):
        pn, plain = _plain_product(a, n)
        keep = pn >= np.finfo(float).tiny
        normal += int(keep.sum())
        assert erlang_fade_average(a, n)[keep].tobytes() == plain[keep].tobytes()
    assert normal > 1000


def test_triplet_sums_to_one_exactly():
    worst = 0.0
    for a in A_GRID:
        for n in N_GRID:
            worst = max(worst, abs(sum(qpsk_sep_triplet(a, n)) - 1.0))
    assert worst <= 1e-12


def test_triplet_at_zero_gain():
    p_same, p_adj, p_diag = qpsk_sep_triplet(0.0, 3)
    assert p_same == pytest.approx(4.0 / 9.0, rel=1e-14)
    assert p_adj == pytest.approx(4.0 / 9.0, rel=1e-14)
    assert p_diag == pytest.approx(1.0 / 9.0, rel=1e-14)


def test_triplet_matches_series_oracle():
    for a in [0.01, 0.5, 3.0, 50.0]:
        for n in (1, 2, 4, 8):
            ref = oracles.qpsk_triplet_series(a, n)
            got = qpsk_sep_triplet(a, n)
            for r, g in zip(ref, got):
                assert g == pytest.approx(r, rel=1e-11, abs=1e-300)


def test_triplet_matches_quadrature_oracle():
    for a in [0.1, 1.0, 10.0]:
        for n in (1, 2, 4):
            ref = oracles.qpsk_triplet_quadrature(a, n)
            got = qpsk_sep_triplet(a, n)
            for r, g in zip(ref, got):
                assert g == pytest.approx(r, rel=5e-9, abs=1e-14)


@settings(deadline=None, max_examples=120)
@given(a=st.floats(0.0, 1e8), n=st.integers(1, 64))
def test_triplet_is_a_distribution(a, n):
    trip = qpsk_sep_triplet(a, n)
    for p in trip:
        assert -1e-12 <= p <= 1.0 + 1e-12
    assert sum(trip) == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("bounds,level", [
    ((-INF, -2.0, 0.0, 2.0, INF), 1.0),     # negative, zero-crossing, positive offsets
    ((-INF, -2.0, 0.0, 2.0, INF), -3.0),    # every finite offset positive
    ((-INF, 0.0, INF), 1.0),
    ((-INF, -6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0, INF), 5.0),
    ((-INF, INF), 0.0),                     # degenerate axis
])
def test_axis_brackets_are_q_approx_differences(bounds, level):
    gain = 1.7
    coef12, r6 = _axis_brackets(np.array(bounds), level)
    assert coef12.dtype == r6.dtype == np.int64  # 12 C and 6 r
    assert coef12.shape == (len(bounds) - 1, len(r6))
    assert len(r6) == 1 + 2 * (len(bounds) - 2) and r6[0] == 0
    if len(bounds) == 2:
        assert coef12.tolist() == [[12]]
    for z in (0.05, 0.3, 1.0, 4.0):
        root = math.sqrt(gain * z)
        got = coef12 @ np.exp(-gain * (r6 / 6.0) * z) / 12.0
        for j in range(len(bounds) - 1):
            ref = (q_approx((bounds[j] - level) * root)
                   - q_approx((bounds[j + 1] - level) * root))
            assert got[j] == pytest.approx(ref, rel=1e-13, abs=1e-16)


@pytest.mark.parametrize("mi,mq", [(2, 2), (4, 2), (4, 4), (8, 4),
                                   (2, 1), (4, 1), (1, 4), (8, 1)])
def test_cell_probabilities_sum_to_one(mi, mq):
    c = build_rect_qam(mi, mq)
    for gain in (0.5, 5.0):
        for n in (1, 4):
            for tx in c.points:
                table = cell_probability_table(c, tx, gain, n)
                assert table.shape == (mi, mq)
                assert abs(math.fsum(table.ravel()) - 1.0) <= 1e-9


@pytest.mark.parametrize("mi,mq", [(2, 2), (4, 2), (4, 4)])
def test_sep_table_merges_the_cell_table(mi, mq):
    # a one-symbol SEP table is its cell table summed by error distance,
    # and both are within rel 1e-15 of the 50-digit evaluation of the
    # same two-term model from gain 0.3 up; below that, where the terms
    # cancel, each keeps to the rounding bound 5 n u sum_R |M_R| (1 + g R)^(-n)
    c = build_rect_qam(mi, mq)
    for i, tx in enumerate(c.points):
        program = sep_program(c, (i,))
        _, rates, coef, _ = program
        d2 = [[(tx.real - x) ** 2 + (tx.imag - y) ** 2 for y in c.levels_q]
              for x in c.levels_i]
        for n in (1, 2, 8):
            for gain in np.logspace(-3, 4, 15):
                table = cell_probability_table(c, tx, gain, n)
                by_d2 = {}
                for ci, cq in itertools.product(range(mi), range(mq)):
                    by_d2.setdefault(d2[ci][cq], []).append(table[ci, cq])
                assert [math.sqrt(k) for k in sorted(by_d2)] == list(program[0])
                merged = [math.fsum(by_d2[k]) for k in sorted(by_d2)]
                ref = [p for _, p in oracles.sep_table_mp(c, (i,), gain, n)]
                got = sep_probabilities(program, gain, n)
                if gain > 0.3:
                    assert got.tolist() == pytest.approx(merged, rel=1e-15, abs=0)
                    assert got.tolist() == pytest.approx(ref, rel=1e-15, abs=0)
                else:
                    bound = 5 * n * 2.0**-53 * (np.abs(coef) @ (1.0 + gain * rates) ** -n)
                    assert np.all(np.abs(got - merged) <= bound)
                    assert np.all(np.abs(got - ref) <= bound)


def test_averages_keep_the_base_rounding_out_of_the_power():
    # the n-th power would magnify the rounding of 1 + g R n times
    # (past 15 units of 2^-53 at n = 8, 800 at n = 515); corrected,
    # every average stays within 4 of them of the 50-digit value
    import mpmath as mp

    _, rates, _, r6 = sep_program(build_rect_qam(16, 16), (0, 5, 17))
    rng = np.random.default_rng(3)
    gains = np.concatenate([[0.0, 1e-300, 1e-9, 1e299],
                            10.0 ** rng.uniform(-6, 12, 40)])
    for n in (1, 2, 8, 515):
        got = _averages(rates, r6, gains, n)
        with mp.workdps(40):
            for g, row in zip(gains, got):
                for r, e in zip(rates[::5], row[::5]):
                    ref = float((1 + mp.mpf(float(g)) * mp.mpf(round(6 * r)) / 6) ** -n)
                    if ref > 1e-290:
                        assert abs(e - ref) <= 4 * 2.0**-53 * ref
    # rate 0 averages to 1, and gains past 1e300 to nearly 0, infinite too
    for n in (1, 4):
        far = _averages(rates, r6, np.array([1e301, math.inf]), n)
        assert far[:, 0].tolist() == [1.0, 1.0]
        assert np.all((0.0 <= far[:, 1:]) & (far[:, 1:] < 1e-299))


SHAPES = [(2, 2), (4, 2), (2, 4), (4, 4), (8, 4), (8, 8), (16, 8), (16, 16),
          (2, 1), (4, 1), (1, 4)]


@pytest.mark.parametrize("mi,mq", SHAPES)
def test_sep_program_is_exact_in_integers(mi, mq):
    c = build_rect_qam(mi, mq)
    for tx_class in (None,) + magnitude_classes(c):
        tx_set = _admissible_tx(c, tx_class)
        dists, rates, coef, r6 = sep_program(c, tx_set)
        # every rate an integer over 6, every coefficient over 144 |tx|
        den = 144 * len(tx_set)
        k = np.rint(den * coef)
        assert r6.tolist() == np.rint(6.0 * rates).tolist() == (6.0 * rates).tolist()
        assert (r6 / 6.0).tolist() == rates.tolist()
        assert (k / den).tolist() == coef.tolist()
        assert np.all(np.diff(r6) > 0) and r6[0] == 0
        # per rate the coefficients telescope: 0, but 144 |tx| at rate 0
        sums = k.astype(np.int64).sum(axis=0)
        assert sums[0] == den and not sums[1:].any()
        # the distances of every symbol to every cell centre, ascending
        tx = c.points[list(tx_set)]
        d2 = ((np.subtract.outer(tx.real, c.levels_i) ** 2)[:, :, None]
              + (np.subtract.outer(tx.imag, c.levels_q) ** 2)[:, None, :])
        assert dists == tuple(np.sqrt(np.unique(d2)).tolist())


def test_sep_program_holds_no_symbol_or_cell_axis():
    c = build_rect_qam(16, 16)
    tx_set = _admissible_tx(c, None)
    dists, rates, coef, r6 = sep_program(c, tx_set)
    assert (len(dists), len(rates)) == (120, 411)
    assert coef.shape == (len(dists), len(rates))
    # nothing larger than rates x distances, and no axis of 64 symbols,
    # 256 cells or 16 levels
    for arr in (rates, coef, r6):
        assert arr.size <= len(rates) * len(dists)
        assert not {len(tx_set), c.size, c.m_i} & set(arr.shape)
        assert not arr.flags.writeable  # shared by every caller of the cache


def test_cell_probability_matches_bracket_oracle():
    for mi, mq in ((4, 4), (4, 2), (8, 4), (4, 1), (1, 4)):
        c = build_rect_qam(mi, mq)
        bounds_i, bounds_q = oracles.BOUNDS[mi], oracles.BOUNDS[mq]
        for gain in (0.3, 2.0, 20.0):
            for n in (1, 2, 6):
                for tx in c.points:
                    table = cell_probability_table(c, tx, gain, n)
                    for ci, cq in itertools.product(range(mi), range(mq)):
                        ref = oracles.pair_error_probability(
                            tx.real, tx.imag, ci, cq, bounds_i, bounds_q,
                            gain, n)
                        got = cell_probability_closed(tx, ci, cq, c, gain, n)
                        assert got == table[ci, cq]
                        assert got == pytest.approx(ref, rel=1e-11, abs=1e-250)
                        # the array form the 16/8/8 chain oracles use
                        (vec,) = oracles.pair_error_probabilities(
                            tx.real, tx.imag, ci, cq, bounds_i, bounds_q,
                            [gain], n)
                        assert vec == pytest.approx(ref, rel=1e-11, abs=1e-250)


def test_cell_probability_vs_exact_q_stays_in_model_error_band():
    # the closed route inherits the two-term Q model's 10-30% tail error;
    # it must stay within that band, not drift by orders of magnitude
    c = build_rect_qam(4, 4)
    tx_idx = int(np.argmin(np.abs(c.points - (3 + 3j))))
    tx = complex(c.points[tx_idx])
    for gain in (0.5, 2.0):
        for n in (1, 2):
            for ci in range(4):
                for cq in range(4):
                    ref = cell_probability_quadrature(tx, ci, cq, c, gain, n)
                    if ref < 1e-6:
                        continue
                    got = cell_probability_closed(tx, ci, cq, c, gain, n)
                    assert abs(got - ref) / ref < 0.5


def test_cell_probability_validation():
    c = build_rect_qam(4, 2)
    with pytest.raises(ValueError):
        cell_probability_closed(1 + 1j, 4, 0, c, 1.0, 2)
    with pytest.raises(ValueError):
        cell_probability_closed(1 + 1j, 0, 2, c, 1.0, 2)
    with pytest.raises(ValueError):
        cell_probability_closed(1 + 1j, 0, 0, c, -1.0, 2)
    with pytest.raises(ValueError):
        cell_probability_closed(1 + 1j, 0, 0, c, 1.0, 0)
    with pytest.raises(ValueError):  # not a point of c
        cell_probability_table(c, 2 + 1j, 1.0, 2)


def test_clamp_policy_thresholds():
    assert _clamp_probability(0.2, "t") == 0.2
    assert _clamp_probability(-1e-13, "t") == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning):
            _clamp_probability(-1e-9, "t")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _clamp_probability(-1e-9, "t") == 0.0
    with pytest.raises(RuntimeError):
        _clamp_probability(-1e-5, "t")
