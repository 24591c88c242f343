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
from nomalab.channel import erlang_pdf
from nomalab.constellation import build_rect_qam
from nomalab.kernels import (
    _axis_brackets,
    _clamp_probability,
    cell_probability_closed,
    cell_probability_quadrature,
    cell_probability_table,
    erlang_fade_average,
    erlang_fade_quadrature,
    q_approx,
    q_exact,
    qpsk_sep_triplet,
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
            assert erlang_fade_average(a, n) == pytest.approx(ref, rel=1e-9)


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
    assert good == pytest.approx(ref, rel=1e-11)
    assert bad <= 0.0 or abs(bad - ref) / ref > 1e-3
    assert erlang_fade_average(1e4, 64) == pytest.approx(
        oracles.fade_average_chebyshev(1e4, 64), rel=1e-11)
    # past ~1e-308 the value is genuinely unrepresentable: graceful zero
    assert erlang_fade_average(1e6, 64) == 0.0


@pytest.mark.parametrize("n", [470, 515])
def test_fade_average_keeps_its_digits_at_many_antennas(n):
    # p**n leaves the normal range here: it once lost digits at n = 470
    # and gave 0.0 at n = 515
    for a in (0.3, 1.0, 3.0):
        assert erlang_fade_average(a, n) == pytest.approx(
            erlang_fade_quadrature(a, n), rel=1e-10, abs=0)


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
    coef, rates = _axis_brackets(np.array(bounds), level, gain)
    assert coef.shape == (len(bounds) - 1, len(rates))
    assert len(rates) == 1 + 2 * (len(bounds) - 2) and rates[0] == 0.0
    if len(bounds) == 2:
        assert coef.tolist() == [[1.0]]
    for z in (0.05, 0.3, 1.0, 4.0):
        root = math.sqrt(gain * z)
        got = coef @ np.exp(-rates * z)
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
