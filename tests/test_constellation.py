"""Rectangular QAM geometry, Gray labeling, and hard demapping through
a one-user SIC receiver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomalab.constellation import (
    bit_distance,
    build_rect_qam,
    hamming_table,
    magnitude_classes,
    neighbor_count,
    symbol_class,
)
from nomalab.detectors import SystemModel, UserProfile, mrc_sic_detect

ORDERS = [(2, 1), (2, 2), (4, 2), (4, 4), (8, 4), (8, 8)]


def test_levels_are_odd_integer_grid():
    c = build_rect_qam(4, 4)
    assert c.levels_i.tolist() == [-3.0, -1.0, 1.0, 3.0]
    assert c.levels_q.tolist() == [-3.0, -1.0, 1.0, 3.0]
    c8 = build_rect_qam(4, 2)
    assert c8.levels_i.tolist() == [-3.0, -1.0, 1.0, 3.0]
    assert c8.levels_q.tolist() == [-1.0, 1.0]
    pam = build_rect_qam(2, 1)
    assert pam.levels_q.tolist() == [0.0]


def test_boundaries_are_midpoints_with_inf_rails():
    c = build_rect_qam(4, 2)
    assert c.boundaries_i.tolist() == [-np.inf, -2.0, 0.0, 2.0, np.inf]
    assert c.boundaries_q.tolist() == [-np.inf, 0.0, np.inf]


@pytest.mark.parametrize("mi,mq", ORDERS)
def test_points_enumerate_full_grid(mi, mq):
    c = build_rect_qam(mi, mq)
    assert c.size == mi * mq
    grid = {complex(i, q) for i in c.levels_i for q in c.levels_q}
    assert set(map(complex, c.points)) == grid


@pytest.mark.parametrize("mi,mq", ORDERS)
def test_symbol_index_is_integer_value_of_bit_word(mi, mq):
    c = build_rect_qam(mi, mq)
    for idx in range(c.size):
        word = "".join(str(int(b)) for b in c.bit_labels[idx])
        assert int(word, 2) == idx


def test_word_starts_with_quadrature_then_inphase_sign_bits():
    for mi, mq in [(2, 2), (4, 2), (4, 4), (8, 8)]:
        c = build_rect_qam(mi, mq)
        for idx in range(c.size):
            p = complex(c.points[idx])
            assert c.bit_labels[idx][0] == (p.imag < 0)
            assert c.bit_labels[idx][1] == (p.real < 0)


@pytest.mark.parametrize("mi,mq", ORDERS)
def test_axis_neighbors_differ_in_one_bit(mi, mq):
    c = build_rect_qam(mi, mq)
    table = hamming_table(c)
    for a in range(c.size):
        for b in range(c.size):
            pa, pb = complex(c.points[a]), complex(c.points[b])
            d = abs(pa - pb)
            if d == 2.0 and (pa.real == pb.real or pa.imag == pb.imag):
                assert table[a, b] == 1


def test_hamming_table_matches_bit_distance():
    c = build_rect_qam(4, 4)
    table = hamming_table(c)
    assert np.array_equal(table, table.T)
    assert np.all(np.diag(table) == 0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = rng.integers(0, c.size, size=2)
        assert table[a, b] == bit_distance(c, int(a), int(b))


def test_hamming_table_is_shared_and_read_only():
    c = build_rect_qam(4, 2)
    table = hamming_table(c)
    before = table.copy()
    assert hamming_table(c) is table
    with pytest.raises(ValueError):
        table[0, 1] = 5
    assert np.array_equal(table, before)
    assert np.array_equal(hamming_table(c), before)


def test_qpsk_flag():
    assert build_rect_qam(2, 2).is_qpsk
    assert not build_rect_qam(4, 2).is_qpsk
    assert not build_rect_qam(2, 1).is_qpsk


def test_magnitude_classes_16qam():
    classes = magnitude_classes(build_rect_qam(4, 4))
    assert [c.squared_magnitude for c in classes] == [2.0, 10.0, 18.0]
    assert [c.probability for c in classes] == [0.25, 0.5, 0.25]
    assert [len(c.members) for c in classes] == [4, 8, 4]
    assert sum(c.probability for c in classes) == 1.0


def test_magnitude_classes_8qam():
    classes = magnitude_classes(build_rect_qam(4, 2))
    assert [c.squared_magnitude for c in classes] == [2.0, 10.0]
    assert [c.probability for c in classes] == [0.5, 0.5]


def test_magnitude_classes_qpsk_single_shell():
    (only,) = magnitude_classes(build_rect_qam(2, 2))
    assert only.squared_magnitude == 2.0
    assert only.probability == 1.0
    assert only.members == tuple(range(4))


def test_symbol_class_and_neighbor_count_16qam():
    c = build_rect_qam(4, 4)
    counts = {"corner": 0, "edge": 0, "interior": 0}
    for idx in range(c.size):
        cls = symbol_class(c, idx)
        counts[cls] += 1
        assert neighbor_count(c, idx) == {"corner": 2, "edge": 3, "interior": 4}[cls]
    assert counts == {"corner": 4, "edge": 8, "interior": 4}


def test_symbol_class_degenerate_axis_counts_extreme():
    c = build_rect_qam(2, 1)
    for idx in range(c.size):
        assert symbol_class(c, idx) == "corner"
        assert neighbor_count(c, idx) == 1
    qpsk = build_rect_qam(2, 2)
    assert all(symbol_class(qpsk, i) == "corner" for i in range(4))
    assert all(neighbor_count(qpsk, i) == 2 for i in range(4))


def sic_decide(c, z, scale, h=1 + 0j):
    """Hard decision on z against scale * points: one user, n=1, MRC
    gain sqrt(P) |h|^2 = scale for the unit channel."""
    model = SystemModel(1, 1.0, (UserProfile(scale**2, 1.0, c),))
    return int(mrc_sic_detect(model, np.array([z]), [np.array([h])])[0])


def test_sic_decision_inverts_scaled_points():
    for mi, mq in ORDERS:
        c = build_rect_qam(mi, mq)
        for scale in (1.0, 0.3, 17.5):
            got = [sic_decide(c, scale * complex(c.points[i]), scale)
                   for i in range(c.size)]
            assert got == list(range(c.size))


def test_sic_decision_ties_go_to_lowest_index():
    c = build_rect_qam(2, 2)
    # the origin is equidistant from all four points
    assert sic_decide(c, 0j, 1.0) == 0


def test_sic_decision_zero_gain_decides_index_0():
    for mi, mq in ORDERS:
        c = build_rect_qam(mi, mq)
        z = complex(c.points[-1])
        assert sic_decide(c, z, 1.0, h=0j) == 0
        assert sic_decide(c, z, 0.0) == 0


def test_build_validation():
    with pytest.raises(ValueError):
        build_rect_qam(3, 2)
    with pytest.raises(ValueError):
        build_rect_qam(1, 1)
    with pytest.raises(ValueError):
        build_rect_qam(2.0, 2)


def test_arrays_are_read_only():
    c = build_rect_qam(4, 4)
    for arr in (c.points, c.levels_i, c.levels_q, c.bit_labels):
        assert not arr.flags.writeable


@settings(deadline=None, max_examples=60)
@given(order=st.sampled_from(ORDERS), data=st.data())
def test_demap_recovers_symbol_under_small_noise(order, data):
    c = build_rect_qam(*order)
    idx = data.draw(st.integers(0, c.size - 1))
    scale = data.draw(st.floats(0.01, 100.0))
    # perturbation below half the scaled minimum distance cannot flip
    eps = data.draw(st.complex_numbers(max_magnitude=0.99))
    z = scale * (complex(c.points[idx]) + eps)
    assert sic_decide(c, z, scale) == idx
