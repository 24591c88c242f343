"""Closed-form SIC BER engine against independently assembled chain
references and its own specialized fast paths."""

import math
import warnings

import numpy as np
import pytest

import oracles
from nomalab.analytic import (
    AUTO_APPROX_ORDER,
    DEFAULT_MAX_LEAVES,
    _admissible_tx,
    _resolve_mode,
    _sep_program,
    ber_user,
    ber_user_qam,
    ber_user_qpsk,
    class_assignments,
    conditional_ber_user,
    effective_noise_variance,
    sep_table_user,
    stage_bers,
    stage_bers_grid,
    sum_ber,
)
from nomalab.constellation import build_rect_qam, magnitude_classes
from nomalab.detectors import SystemModel, UserProfile
from nomalab.errors import CapacityError
from nomalab import analytic, kernels
from nomalab.kernels import (cell_probability_closed, erlang_fade_average,
                             qpsk_sep_triplet, sep_probabilities, sep_program,
                             sep_rows)

QPSK = build_rect_qam(2, 2)
QAM8 = build_rect_qam(4, 2)
QAM16 = build_rect_qam(4, 4)
QAM64 = build_rect_qam(8, 8)


def make_model(powers, sigmas, consts, n=2, noise_sigma=1.0, ranks=None):
    ranks = ranks or [None] * len(powers)
    users = tuple(UserProfile(p, s, c, r)
                  for p, s, c, r in zip(powers, sigmas, consts, ranks))
    return SystemModel(n, noise_sigma, users)


def bound_walk(m, powers, mode, prune_threshold, max_leaves):
    """(stage BERs, pruned mass), both (P, K), from the model's bound walk
    over a (P, K) array of powers in stage order: stage_bers_grid without
    its input checks, and with the pruned mass it drops."""
    return analytic._bind(m, mode, prune_threshold, max_leaves)(powers)


def pruned_and_dropped(m, k, mode, prune_threshold):
    """Stage k's BER and the probability mass pruned before it, from one
    walk at the model's powers."""
    powers = np.array([[u.power for u in m.stage_profiles()]])
    bers, dropped = bound_walk(m, powers, mode, prune_threshold, DEFAULT_MAX_LEAVES)
    return float(bers[0, k - 1]), float(dropped[0, k - 1])


def random_draw(rng, k, n_max=4):
    powers = sorted(10.0 ** rng.uniform(-1, 3, size=k), reverse=True)
    sigmas = sorted(10.0 ** rng.uniform(-1, 1, size=k), reverse=True)
    n = int(rng.integers(1, n_max + 1))
    ns = 10.0 ** rng.uniform(-0.5, 0.5)
    return list(powers), list(sigmas), n, ns


def test_effective_noise_variance_arithmetic():
    m = make_model([100.0, 10.0, 1.0], [10.0, 2.5, 0.625], [QPSK] * 3,
                   noise_sigma=1.3)
    got = effective_noise_variance(m, 2, d=(2.0,), x_mags=(2.0,))
    expect = 1.3**2 + 100.0 * 4.0 * 100.0 + 1.0 * 2.0 * 0.625**2
    assert got == pytest.approx(expect, rel=1e-15)
    # stage 1: downstream magnitudes only; stage K: distances only
    assert effective_noise_variance(m, 1, (), (2.0, 2.0)) == pytest.approx(
        1.3**2 + 10.0 * 2.0 * 2.5**2 + 1.0 * 2.0 * 0.625**2, rel=1e-15)
    assert effective_noise_variance(m, 3, (0.0, 2.0), ()) == pytest.approx(
        1.3**2 + 10.0 * 4.0 * 2.5**2, rel=1e-15)


def test_effective_noise_variance_validation():
    m = make_model([1.0, 1.0], [1.0, 1.0], [QPSK, QPSK])
    with pytest.raises(ValueError):
        effective_noise_variance(m, 1, (2.0,), (2.0,))
    with pytest.raises(ValueError):
        effective_noise_variance(m, 2, (), ())
    with pytest.raises(ValueError):
        effective_noise_variance(m, 3, (2.0, 2.0), ())
    with pytest.raises(ValueError):
        effective_noise_variance(m, 0, (), (2.0,))


def test_single_user_qpsk_is_plain_fade_average():
    for p, s, ns, n in [(10.0, 1.0, 1.0, 1), (3.0, 2.0, 0.5, 4)]:
        m = make_model([p], [s], [QPSK], n=n, noise_sigma=ns)
        gain = 2.0 * p * s * s / ns**2
        expect = erlang_fade_average(gain, n)
        assert ber_user_qam(m, 1, "exact") == pytest.approx(expect, rel=1e-12)
        assert ber_user_qpsk(m, 1) == pytest.approx(expect, rel=1e-12)


def test_single_user_16qam_closed_form():
    for p, s, ns, n in [(5.0, 1.0, 1.0, 1), (40.0, 0.7, 1.3, 3)]:
        m = make_model([p], [s], [QAM16], n=n, noise_sigma=ns)
        a = 2.0 * p * s * s / ns**2
        f = erlang_fade_average
        expect = (3.0 * f(a, n) + 2.0 * f(9.0 * a, n) - f(25.0 * a, n)) / 4.0
        assert ber_user_qam(m, 1, "exact") == pytest.approx(expect, rel=1e-12)


def test_single_user_16qam_deep_tail_keeps_leading_order():
    # at BER ~1e-21 a naive cumulative-difference evaluation cancels to
    # the wrong leading coefficient; the tail-difference walk must not
    f = erlang_fade_average
    for a, n in [(4e20, 1), (1e12, 2), (3e7, 4)]:
        m = make_model([a / 2.0], [1.0], [QAM16], n=n)
        expect = (3.0 * f(a, n) + 2.0 * f(9.0 * a, n) - f(25.0 * a, n)) / 4.0
        assert expect < 1e-10  # regression only matters in the deep tail
        assert ber_user_qam(m, 1, "exact") == pytest.approx(expect, rel=1e-11)


def test_two_user_qpsk_second_stage_matches_reference():
    rng = np.random.default_rng(20250814)
    for _ in range(5):
        (p1, p2), (s1, s2), n, ns = random_draw(rng, 2)
        m = make_model([p1, p2], [s1, s2], [QPSK, QPSK], n=n, noise_sigma=ns)
        ref = oracles.ref_qpsk_stage2_two_user(p1, p2, s1, s2, ns * ns, n,
                                               fade=erlang_fade_average)
        got = ber_user_qam(m, 2, "exact", prune_threshold=0.0)
        assert got == pytest.approx(ref, rel=1e-10)


def test_three_user_qpsk_chain_matches_reference():
    rng = np.random.default_rng(814)
    for _ in range(4):
        p, s, n, ns = random_draw(rng, 3)
        m = make_model(p, s, [QPSK] * 3, n=n, noise_sigma=ns)
        for k in (1, 2, 3):
            ref = oracles.ref_qpsk_stage_k(k, p, s, ns * ns, n,
                                           fade=erlang_fade_average)
            got = ber_user_qam(m, k, "exact", prune_threshold=0.0)
            assert got == pytest.approx(ref, rel=1e-10)


def test_mixed_order_chain_matches_reference():
    rng = np.random.default_rng(4114)
    refs = [oracles.ref_16_8_8_stage1, oracles.ref_16_8_8_stage2,
            oracles.ref_16_8_8_stage3]
    for _ in range(3):
        p, s, n, ns = random_draw(rng, 3)
        m = make_model(p, s, [QAM16, QAM8, QAM8], n=n, noise_sigma=ns)
        for k, ref_fn in zip((1, 2, 3), refs):
            ref = ref_fn(p, s, ns * ns, n, fade=erlang_fade_average)
            got = ber_user_qam(m, k, "exact", prune_threshold=0.0)
            assert got == pytest.approx(ref, rel=1e-10)


def test_stage_bers_all_qpsk_matches_nested_triplet_reference():
    rng = np.random.default_rng(99)
    for k_users in (2, 3, 4):
        p, s, n, ns = random_draw(rng, k_users)
        m = make_model(p, s, [QPSK] * k_users, n=n, noise_sigma=ns)
        bers = stage_bers(m, prune_threshold=0.0)
        assert len(bers) == k_users
        for k in range(1, k_users + 1):
            ref = oracles.ref_qpsk_stage_k(k, p, s, ns * ns, n,
                                           fade=erlang_fade_average)
            assert bers[k - 1] == pytest.approx(ref, rel=1e-10)
            # the per-stage wrappers read the same walk
            assert ber_user_qpsk(m, k) == bers[k - 1]
            assert ber_user(m, k, prune_threshold=0.0) == bers[k - 1]


def test_ber_user_qam_reads_the_pruned_walk():
    m = make_model([100.0, 10.0, 1.0], [10.0, 2.5, 0.625],
                   [QAM16, QAM8, QAM8], n=2)
    bers = stage_bers(m, "exact", prune_threshold=1e-6)
    for k in (1, 2, 3):
        assert ber_user_qam(m, k, "exact", prune_threshold=1e-6) == bers[k - 1]


def test_stage_bers_match_uncached_reference_walk(monkeypatch):
    import nomalab.analytic as ana

    rows = []  # (node, column) rows fed to the SEP-table kernel
    real = ana.sep_rows
    monkeypatch.setattr(ana, "sep_rows", lambda program, gain, n: (
        rows.append(np.size(gain)) or real(program, gain, n)))
    rng = np.random.default_rng(2417)
    systems = [[QAM16, QAM8], [QAM16, QAM8, QPSK], [QPSK, QAM16, QAM8],
               [QAM16, QAM8, QAM8, QAM8]]
    for consts in systems:
        p, s, n, ns = random_draw(rng, len(consts), n_max=2)
        m = make_model(p, s, consts, n=n, noise_sigma=ns)
        rows.clear()
        bers = stage_bers(m, "exact", prune_threshold=0.0)
        walk_rows = sum(rows)
        for k in range(1, m.k + 1):
            rows.clear()
            ref = oracles.reference_walk_ber(m, k)
            assert bers[k - 1] == pytest.approx(ref, rel=1e-12)
        # both evaluate one table row per inner node of the stage-K tree
        assert walk_rows == sum(rows) == len(rows)


@pytest.mark.parametrize("m_i,m_q", [(4, 2), (4, 4), (8, 4), (8, 8), (2, 4),
                                     (4, 1), (1, 4)])
def test_compiled_sep_table_matches_cell_merge(m_i, m_q):
    # against the 50-digit evaluation of the same two-term model. At
    # gain 1e-3 rounding 1 + g R before the terms cancel costs up to
    # 3e-12 relative (2e-12 with per-symbol cell tables), so there each
    # entry keeps to the rounding bound 5 n u sum_R |M_R| (1 + g R)^(-n)
    c = build_rect_qam(m_i, m_q)
    for tx_class in (None,) + magnitude_classes(c):
        tx_set = _admissible_tx(c, tx_class)
        dists, rates, coef, _ = program = sep_program(c, tx_set)
        assert _sep_program(c, tx_class) is program
        for gain in (0.0, 1e-3, 0.3, 30.0, 3e3, 3e6):
            for n in (1, 2, 4, 16):
                got = tuple(zip(dists, sep_rows(program, gain, n)))
                ref = oracles.sep_table_mp(c, tx_set, gain, n)
                bound = 5 * n * 2.0**-53 * (np.abs(coef) @ (1.0 + gain * rates) ** -n)
                assert len(got) == len(ref)
                for (d, p), (d_ref, p_ref), b in zip(got, ref, bound):
                    assert d == pytest.approx(d_ref, rel=1e-12, abs=0)
                    if gain == 1e-3:
                        assert abs(p - p_ref) <= b
                    elif p_ref >= 1e-12:
                        assert p == pytest.approx(p_ref, rel=1e-12, abs=0)
                    else:
                        assert p == pytest.approx(p_ref, rel=0, abs=1e-15)


def test_compiled_qpsk_table_is_the_triplet():
    program = sep_program(QPSK, _admissible_tx(QPSK, None))
    assert program[0] == (0.0, 2.0, 2.0 * math.sqrt(2.0))
    for gain in (0.0, 1e-3, 0.3, 30.0, 3e3, 3e6):
        for n in (1, 2, 4, 16):
            got = sep_probabilities(program, gain, n)
            for p, p_ref in zip(got, oracles.qpsk_triplet_closed(gain, n)):
                assert p == pytest.approx(p_ref, rel=1e-14, abs=0)


def test_all_qpsk_honours_prune_and_leaf_limits():
    m = make_model([100.0, 10.0, 1.0], [10.0, 2.5, 0.625], [QPSK] * 3, n=2)
    exact = ber_user(m, 3, prune_threshold=0.0)
    pruned, dropped = pruned_and_dropped(m, 3, "exact", 1e-3)
    assert ber_user(m, 3, prune_threshold=1e-3) == pruned
    assert sum_ber(m, prune_threshold=1e-3) < sum_ber(m, prune_threshold=0.0)
    assert dropped > 0.0
    assert pruned < exact <= pruned + dropped
    # three SEP-table entries per upstream stage: 9 stage-3 leaves
    assert sum_ber(m, prune_threshold=0.0, max_leaves=9) > 0.0
    with pytest.raises(CapacityError):
        sum_ber(m, prune_threshold=0.0, max_leaves=8)


def test_ber_user_qpsk_rejects_mixed_alphabets():
    m = make_model([4.0, 1.0], [1.0, 1.0], [QPSK, QAM8])
    with pytest.raises(ValueError):
        ber_user_qpsk(m, 1)


def test_sep_table_single_user_qpsk_is_the_triplet():
    p, s, ns, n = 7.0, 1.4, 0.9, 2
    m = make_model([p], [s], [QPSK], n=n, noise_sigma=ns)
    table = sep_table_user(m, 1, ())
    sigma_tot_sq = effective_noise_variance(m, 1, (), ())
    assert sigma_tot_sq == pytest.approx(ns**2, rel=1e-15)
    gain = 2.0 * p * s**2 / sigma_tot_sq
    for (_, pr), pr_ref in zip(table, oracles.qpsk_triplet_closed(gain, n)):
        assert pr == pytest.approx(pr_ref, rel=1e-14, abs=0)
    # the same distribution from the four QPSK decision cells around 1+1j
    cells: dict[float, float] = {}
    for ci in range(2):
        for cq in range(2):
            center = complex(QPSK.levels_i[ci], QPSK.levels_q[cq])
            d = round(abs(1 + 1j - center), 12)
            cells[d] = cells.get(d, 0.0) + cell_probability_closed(
                1 + 1j, ci, cq, QPSK, gain, n)
    assert [d for d, _ in table] == [0.0, 2.0, 2.0 * math.sqrt(2.0)]
    assert sorted(cells) == pytest.approx([d for d, _ in table])
    for (_, got), d in zip(table, sorted(cells)):
        assert got == pytest.approx(cells[d], rel=1e-12)


def test_sep_tables_normalize_and_sort():
    m = make_model([100.0, 10.0, 1.0], [3.0, 1.0, 0.5],
                   [QAM16, QAM8, QPSK], n=2)
    for classes, weight in class_assignments(m):
        t1 = sep_table_user(m, 1, classes)
        assert abs(sum(p for _, p in t1) - 1.0) <= 1e-9
        dlist = [d for d, _ in t1]
        assert dlist == sorted(dlist) and dlist[0] == 0.0
        t2 = sep_table_user(m, 2, classes, (2.0,))
        assert abs(sum(p for _, p in t2) - 1.0) <= 1e-9
        assert [d for d, _ in t2] == list(_sep_program(QAM8, classes[0])[0])


def test_sep_table_sigma_matches_effective_noise():
    m = make_model([100.0, 10.0, 1.0], [3.0, 1.0, 0.5],
                   [QAM16, QAM8, QPSK], n=2, noise_sigma=1.1)
    classes, _ = class_assignments(m)[1]
    t2 = sep_table_user(m, 2, classes, (2.0,))
    expect = effective_noise_variance(
        m, 2, (2.0,), (classes[1].squared_magnitude,))
    u = m.stage_profiles()[1]
    gain = 2.0 * u.power * u.sigma**2 / expect
    # the transmitted class of stage 2 is the assignment's first class
    assert [p for _, p in t2] == sep_rows(_sep_program(QAM8, classes[0]), gain, 2).tolist()


def test_class_assignments_structure():
    m = make_model([100.0, 10.0, 1.0], [3.0, 1.0, 0.5],
                   [QAM16, QAM8, QAM8], n=2)
    combos = class_assignments(m)
    assert len(combos) == 4  # two classes for each 8-QAM interferer
    assert sum(w for _, w in combos) == pytest.approx(1.0, rel=1e-15)
    for classes, w in combos:
        assert len(classes) == 2
        assert w == pytest.approx(0.25, rel=1e-15)
    (only,) = class_assignments(make_model([1.0], [1.0], [QAM16]))
    assert only[0] == () and only[1] == 1.0


def test_conditional_ber_approx_counts_neighbors():
    p, s, ns, n = 20.0, 1.0, 1.0, 2
    m = make_model([p], [s], [QAM16], n=n, noise_sigma=ns)
    a = 2.0 * p * s * s / ns**2
    # first-quadrant representatives carry 4+3+3+2 = 12 neighbors over
    # 4 tx symbols x 4 bits
    expect = 12.0 * erlang_fade_average(a, n) / 16.0
    got = conditional_ber_user(m, 1, (), mode="approx")
    assert got == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError):
        conditional_ber_user(m, 1, (), mode="fancy")


def test_per_node_wrappers_check_classes_and_distances():
    m = make_model([100.0, 10.0, 1.0], [3.0, 1.0, 0.5],
                   [QAM16, QAM8, QPSK], n=2)
    classes, _ = class_assignments(m)[0]
    for fn in (sep_table_user, conditional_ber_user):
        assert fn(m, 2, classes, (2.0,))  # the right counts pass
        for bad_classes in ((), classes[:1], classes + classes[:1]):
            with pytest.raises(ValueError):
                fn(m, 2, bad_classes, (2.0,))
        for bad_distances in ((), (2.0, 2.0)):
            with pytest.raises(ValueError):
                fn(m, 2, classes, bad_distances)
        with pytest.raises(ValueError):
            fn(m, 4, classes, (2.0, 2.0, 2.0))


def test_approx_mode_converges_to_exact_at_high_gain():
    m = make_model([2000.0], [1.0], [QAM16], n=2)
    exact = ber_user_qam(m, 1, "exact")
    approx = ber_user_qam(m, 1, "approx")
    assert approx == pytest.approx(exact, rel=0.02)


def test_prune_mass_bounds_truncation_error():
    m = make_model([400.0, 20.0, 1.0], [3.0, 1.0, 0.5],
                   [QAM16, QAM8, QAM8], n=2)
    exact = ber_user_qam(m, 3, "exact", prune_threshold=0.0)
    pruned, dropped = pruned_and_dropped(m, 3, "exact", 1e-6)
    assert ber_user_qam(m, 3, "exact", prune_threshold=1e-6) == pruned
    assert dropped > 0.0
    assert pruned <= exact * (1.0 + 1e-12)
    assert exact <= pruned + dropped + 1e-15
    # every class assignment (prior 1/4) pruned: nothing walked, all dropped
    assert pruned_and_dropped(m, 3, "exact", 0.3) == (0.0, 1.0)
    assert ber_user_qam(m, 3, "exact", prune_threshold=0.3) == 0.0


def test_max_leaves_guard():
    m = make_model([400.0, 20.0, 1.0], [3.0, 1.0, 0.5],
                   [QAM16, QAM8, QAM8], n=2)
    with pytest.raises(CapacityError):
        ber_user_qam(m, 3, "exact", prune_threshold=0.0, max_leaves=10)
    # every stage reads the walk to depth K: a stage-3 leaf per pair of
    # stage-1 and stage-2 table entries, in each class assignment
    leaves = sum(len(_sep_program(QAM16, None)[0])
                 * len(_sep_program(QAM8, classes[0])[0])
                 for classes, _ in class_assignments(m))
    for k in (1, 2, 3):
        got = ber_user_qam(m, k, "exact", prune_threshold=0.0, max_leaves=leaves)
        assert got > 0.0
        with pytest.raises(CapacityError):
            ber_user_qam(m, k, "exact", prune_threshold=0.0,
                         max_leaves=leaves - 1)


def test_mode_resolution():
    small = make_model([1.0], [1.0], [QAM16])
    assert QAM64.size == AUTO_APPROX_ORDER
    assert _resolve_mode(QAM16, "auto") == "exact"
    assert _resolve_mode(QAM64, "auto") == "approx"
    assert _resolve_mode(QAM64, "exact") == "exact"
    with pytest.raises(ValueError):
        _resolve_mode(QAM16, "bogus")
    with pytest.raises(ValueError):
        ber_user(small, 1, "bogus")
    # auto resolves per stage: approx for the 64-QAM stage only
    mixed = make_model([100.0, 1.0], [1.0, 1.0], [QAM64, QAM16])
    auto = stage_bers(mixed, "auto", prune_threshold=0.0)
    assert auto[0] == stage_bers(mixed, "approx", prune_threshold=0.0)[0]
    assert auto[1] == stage_bers(mixed, "exact", prune_threshold=0.0)[1]


def test_stage_bounds_checked():
    m = make_model([4.0, 1.0], [1.0, 1.0], [QPSK, QPSK])
    for bad in (0, 3, 1.5):
        with pytest.raises(ValueError):
            ber_user_qam(m, bad)
        with pytest.raises(ValueError):
            ber_user_qpsk(m, bad)


def test_decode_order_governs_stages():
    # listing users in reverse with explicit ranks must not change stages
    consts = [QAM16, QAM8, QPSK]
    p = [100.0, 10.0, 1.0]
    s = [3.0, 1.0, 0.5]
    m_fwd = make_model(p, s, consts, n=2)
    m_rev = make_model(p[::-1], s[::-1], consts[::-1], n=2, ranks=[3, 2, 1])
    for k in (1, 2, 3):
        a = ber_user_qam(m_fwd, k, "exact", prune_threshold=0.0)
        b = ber_user_qam(m_rev, k, "exact", prune_threshold=0.0)
        assert a == pytest.approx(b, rel=1e-12)


def test_sum_ber_adds_stages():
    m = make_model([100.0, 10.0, 1.0], [10.0, 2.5, 0.625], [QPSK] * 3, n=2)
    total = sum_ber(m)
    parts = [ber_user(m, k) for k in (1, 2, 3)]
    assert total == pytest.approx(sum(parts), rel=1e-14)


def test_canonical_three_user_qpsk_values_frozen():
    # frozen engine outputs for the canonical near-far setup; guards
    # against silent regressions of the whole chain
    m = make_model([100.0, 10.0, 1.0], [10.0, 2.5, 0.625], [QPSK] * 3, n=2)
    expect = [2.951140512295305e-05, 1.7713342272776918e-04,
              1.3985411300226572e-01]
    for k, ref in zip((1, 2, 3), expect):
        assert ber_user_qpsk(m, k) == pytest.approx(ref, rel=1e-12)


def test_canonical_mixed_order_values_frozen():
    m = make_model([100.0, 10.0, 1.0], [10.0, 2.5, 0.625],
                   [QAM16, QAM8, QAM8], n=2)
    expect = [2.643031416331551e-04, 8.898729324518606e-04,
              1.2035670209226461e-01]
    for k, ref in zip((1, 2, 3), expect):
        got = ber_user_qam(m, k, "exact", prune_threshold=0.0)
        assert got == pytest.approx(ref, rel=1e-12)


def test_walk_compiles_no_sep_program_for_the_last_stage(monkeypatch):
    # the walk stops at the last stage's leaves: a 1024-QAM last stage
    # costs no SEP program (one per magnitude class, 136 of them), and the
    # stage BERs are the ones the walk gave when it compiled them
    qam1024 = build_rect_qam(32, 32)
    compiled = []
    program = analytic.sep_program

    def recording(c, tx_set):
        compiled.append(c)
        return program(c, tx_set)

    monkeypatch.setattr(analytic, "sep_program", recording)
    analytic._plan.cache_clear()
    m = make_model([1.0] * 3, [10.0, 2.5, 0.625], [QPSK, QPSK, qam1024])
    got = stage_bers_grid(m, [[10.0 ** (db / 10.0)] * 3 for db in (10, 20, 30)])
    assert compiled and qam1024 not in compiled
    assert got.tolist() == [
        [0.13344683342244099, 0.3686560106887143, 0.10626701921046872],
        [0.13340961693409678, 0.3685812961867196, 0.10499874788629422],
        [0.1334058951635304, 0.368573824176663, 0.10497716237901399]]


BATCH_SYSTEMS = {
    "qpsk3": ([QPSK] * 3, [10.0, 2.5, 0.625], [0.0, -8.0, -14.0], 2),
    "16_8_8": ([QAM16, QAM8, QAM8], [10.0, 2.5, 0.625], [0.0, -8.0, -14.0], 2),
    "8_4_4": ([QAM8, QPSK, QPSK], [10.0, 2.5, 0.625], [0.0, -6.0, -12.0], 1),
    "k4": ([QAM8, QPSK, QAM8, QPSK], [8.0, 4.0, 2.0, 1.0],
           [0.0, -5.0, -10.0, -15.0], 2),
}


def batch_columns(base_db, offsets_db):
    """(P, K) linear powers: the base profile at each common offset."""
    return np.array([[10.0 ** ((b + off) / 10.0) for b in base_db]
                     for off in offsets_db])


@pytest.mark.parametrize("name", sorted(BATCH_SYSTEMS))
def test_stage_bers_grid_columns_equal_their_batch_of_one(name, monkeypatch):
    import nomalab.analytic as ana

    consts, sigmas, base_db, n = BATCH_SYSTEMS[name]
    m = make_model([1.0] * len(consts), sigmas, consts, n=n)
    powers = batch_columns(base_db, [-10.0, 5.0, 20.0, 35.0, 50.0])
    # at 0.6 the weakest column, put last, loses every row at some level
    cases = [(powers, thr) for thr in (0.0, 1e-6, 1e-3)] + [(powers[::-1], 0.6)]
    for batch, thr in cases:
        grid = stage_bers_grid(m, batch, "exact", thr)
        assert grid.shape == batch.shape
        for row, col in zip(batch, grid):
            alone = stage_bers(m.with_powers(row), "exact", thr)
            assert col.tolist() == list(alone)
            one = stage_bers_grid(m, row[None], "exact", thr)
            assert one[0].tolist() == list(alone)
    # the columns prune different branches
    _, dropped = bound_walk(m, powers, "exact", 1e-3, 10**7)
    assert 0.0 < dropped[:, -1].min() < dropped[:, -1].max()
    # a walk that holds fewer leaves takes the columns in slices
    whole = stage_bers_grid(m, powers, "exact", 1e-6)
    monkeypatch.setattr(ana, "WALK_LEAVES", 1)
    assert stage_bers_grid(m, powers, "exact", 1e-6).tolist() == whole.tolist()


@pytest.mark.parametrize("name", sorted(BATCH_SYSTEMS))
def test_stage_bers_grid_prune_bounds_hold_per_column(name):
    consts, sigmas, base_db, n = BATCH_SYSTEMS[name]
    m = make_model([1.0] * len(consts), sigmas, consts, n=n)
    powers = batch_columns(base_db, [-10.0, 5.0, 20.0, 35.0, 50.0])
    exact = stage_bers_grid(m, powers, "exact", 0.0)
    pruned, dropped = bound_walk(m, powers, "exact", 1e-6, 10**7)
    for k in range(1, m.k + 1):
        for p_col, e_col, d in zip(pruned[:, k - 1], exact[:, k - 1],
                                   dropped[:, k - 1]):
            assert p_col <= e_col * (1.0 + 1e-12)
            assert e_col <= p_col + d + 1e-15
    # no class assignment is pruned, so stage 1 loses nothing
    assert not dropped[:, 0].any()
    assert pruned[:, 0].tolist() == exact[:, 0].tolist()


WALK_SYSTEMS = {  # alphabets in stage order, spreads, antennas, mode
    "16": ([QAM16], [3.0], 2, "exact"),
    "16_8": ([QAM16, QAM8], [10.0, 2.5], 2, "exact"),
    "qpsk3_n1": ([QPSK] * 3, [10.0, 2.5, 0.625], 1, "exact"),
    "qpsk3_n2": ([QPSK] * 3, [10.0, 2.5, 0.625], 2, "exact"),
    "qpsk3_n4": ([QPSK] * 3, [10.0, 2.5, 0.625], 4, "exact"),
    "8_4_4": ([QAM8, QPSK, QPSK], [10.0, 2.5, 0.625], 2, "exact"),
    "16_8_8": ([QAM16, QAM8, QAM8], [10.0, 2.5, 0.625], 2, "exact"),
    "16_16_16": ([QAM16] * 3, [10.0, 2.5, 0.625], 1, "exact"),
    "64_16_4": ([QAM64, QAM16, QPSK], [10.0, 2.5, 0.625], 4, "auto"),
    # distinct 64-QAM classes share one leaf-term set at level 1
    "4_64_4": ([QPSK, QAM64, QPSK], [10.0, 2.5, 0.625], 2, "approx"),
    "8_16_8_4": ([QAM8, QAM16, QAM8, QPSK], [8.0, 4.0, 2.0, 1.0], 2, "exact"),
}


def assert_walks_equal(m, powers, mode, thr, max_leaves=DEFAULT_MAX_LEAVES):
    got = bound_walk(m, powers, mode, thr, max_leaves)
    ref = oracles.per_assignment_walk(m, powers, mode, thr, max_leaves)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("name", sorted(WALK_SYSTEMS))
def test_walk_matches_the_per_assignment_walk_bit_for_bit(name, monkeypatch):
    consts, sigmas, n, mode = WALK_SYSTEMS[name]
    m = make_model([1.0] * len(consts), sigmas, consts, n=n)
    rng = np.random.default_rng(sorted(WALK_SYSTEMS).index(name))
    batches = [10.0 ** rng.uniform(-1.0, 4.0, (cols, m.k)) for cols in (1, 7, 30)]
    # 0.1 and 0.3 prune some class assignments whole, or all of them
    thresholds = (0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.3)
    for powers in batches:
        for thr in thresholds:
            assert_walks_equal(m, powers, mode, thr)
    # one leaf per walk: both take the columns one at a time
    monkeypatch.setattr(analytic, "WALK_LEAVES", 1)
    for thr in thresholds:
        assert_walks_equal(m, batches[1], mode, thr)


def test_walk_raises_where_the_per_assignment_walk_does():
    m = make_model([1.0] * 4, [8.0, 4.0, 2.0, 1.0], [QAM8, QAM16, QAM8, QPSK])
    powers = batch_columns([0.0, -5.0, -10.0, -15.0], [-10.0, 10.0, 30.0])
    # the fewest leaves a column may hold for the per-assignment walk to pass
    lo, hi = 1, analytic._plan(tuple(u.constellation for u in m.stage_profiles()),
                               "exact")[0]
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            oracles.per_assignment_walk(m, powers, "exact", 1e-6, mid)
            hi = mid
        except CapacityError:
            lo = mid + 1
    assert_walks_equal(m, powers, "exact", 1e-6, lo)
    for walk in (bound_walk, oracles.per_assignment_walk):
        with pytest.raises(CapacityError, match=f"exceeds {lo - 1} leaves"):
            walk(m, powers, "exact", 1e-6, lo - 1)


def test_walk_calls_the_sep_kernel_once_per_program(monkeypatch):
    calls, fades = [], []  # the program of each SEP-kernel call
    real, fade = analytic.sep_rows, analytic.erlang_fade_average
    monkeypatch.setattr(analytic, "sep_rows", lambda program, gain, n: (
        calls.append(program) or real(program, gain, n)))
    monkeypatch.setattr(analytic, "erlang_fade_average", lambda a, n: (
        fades.append(n) or fade(a, n)))
    # QPSK x3: stages 1 and 2 share one program, and one leaf call serves
    # every row
    m = make_model([1.0] * 3, [10.0, 2.5, 0.625], [QPSK] * 3, n=2)
    stage_bers_grid(m, batch_columns([0.0, -8.0, -14.0], [0.0, 10.0, 20.0]))
    assert len(calls) == 1 and len(fades) == 1
    (shell,) = magnitude_classes(QPSK)
    assert calls[0] is _sep_program(QPSK, None) is _sep_program(QPSK, shell)
    calls.clear()
    m = make_model([1.0] * 3, [10.0, 2.5, 0.625], [QAM16] * 3, n=1)
    powers = batch_columns([0.0, -8.0, -14.0], [0.0, 10.0, 20.0, 30.0])
    stage_bers_grid(m, powers, "exact", 0.0)
    # stage 1 once, stage 2 once per magnitude class; nothing at stage 3
    assert len(calls) == 4
    assert calls[0] is _sep_program(QAM16, None)
    assert {id(p) for p in calls[1:]} == {id(_sep_program(QAM16, cls))
                                          for cls in magnitude_classes(QAM16)}
    calls.clear()
    oracles.per_assignment_walk(m, powers, "exact", 0.0, DEFAULT_MAX_LEAVES)
    assert len(calls) == 18  # 9 class assignments x 2 levels


def test_walk_takes_each_fade_argument_once(monkeypatch):
    sizes = []
    fade = analytic.erlang_fade_average
    monkeypatch.setattr(analytic, "erlang_fade_average", lambda a, n: (
        sizes.append(np.size(a)) or fade(a, n)))
    # per column, the distinct (gain, d^2) pairs of the leaf rows' terms:
    # 13 of 13 on QPSK x3, 417 of 2,267 on 16/16/16, 282 of 712 on 16/8/8
    for consts, n, per_column in (([QPSK] * 3, 2, 13), ([QAM16] * 3, 1, 417),
                                  ([QAM16, QAM8, QAM8], 2, 282)):
        m = make_model([1.0] * 3, [10.0, 2.5, 0.625], consts, n=n)
        powers = batch_columns([0.0, -8.0, -14.0], [0.0, 10.0, 20.0])
        stage_bers_grid(m, powers, "exact")
        assert sizes == [per_column * len(powers)]
        sizes.clear()


def pa_batch(rng, k, cap_db, cols):
    """(cols, K) linear powers shaped like a power-allocation walk: points
    in [cap - 40, cap] dB, each followed by its +-0.01 dB probes of every
    user, cut to cols columns."""
    rows = []
    while len(rows) < cols:
        point = np.minimum(cap_db - 40.0 + 40.0 * rng.random(k), cap_db)
        rows.append(point)
        for i in range(k):
            for step in (0.01, -0.01):
                probe = point.copy()
                probe[i] += step
                rows.append(probe)
    return 10.0 ** (np.array(rows[:cols]) / 10.0)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_walk_matches_the_per_assignment_walk_on_power_allocation_batches(n):
    m = make_model([1.0] * 3, [10.0, 2.5, 0.625], [QPSK] * 3, n=n)
    rng = np.random.default_rng(n)
    for cap_db in (0.0, 16.0, 36.0):
        for cols in (8, 16, 32):
            powers = pa_batch(rng, 3, cap_db, cols)
            for thr in (0.0, 1e-12, 1e-6):
                assert_walks_equal(m, powers, "auto", thr)


def test_walk_evaluates_pruned_rows_without_warning():
    # high gains prune rows at level 1; the fixed-shape walk still takes
    # their SEP tables, and no probability there may clamp with a warning
    m = make_model([1.0] * 3, [10.0, 2.5, 0.625], [QAM64, QAM16, QPSK], n=4)
    powers = batch_columns([0.0, -8.0, -14.0], [40.0, 50.0, 60.0, 70.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_walks_equal(m, powers, "auto", 1e-12)
        _, dropped = bound_walk(m, powers, "auto", 1e-12, DEFAULT_MAX_LEAVES)
    assert np.all(dropped[:, 1] > 0.0)


def fresh(m):
    """An equal model that has bound no walk yet."""
    return SystemModel(m.n_antennas, m.noise_sigma, m.users)


@pytest.mark.parametrize("name", ["qpsk3_n2", "8_4_4", "16_8_8", "8_16_8_4"])
def test_a_bound_walk_gives_what_fresh_walks_give(name):
    consts, sigmas, n, mode = WALK_SYSTEMS[name]
    m = make_model([1.0] * len(consts), sigmas, consts, n=n)
    rng = np.random.default_rng(24)
    # the column counts grow, shrink and grow past their earlier peak
    for cols, thr in ((7, 1e-12), (1, 1e-12), (30, 1e-12), (3, 1e-6), (30, 1e-6),
                      (12, 1e-12), (64, 1e-12), (5, 0.0)):
        powers = 10.0 ** rng.uniform(-1.0, 4.0, (cols, m.k))
        got = bound_walk(m, powers, mode, thr, DEFAULT_MAX_LEAVES)
        for ref in (bound_walk(fresh(m), powers, mode, thr, DEFAULT_MAX_LEAVES),
                    oracles.per_assignment_walk(m, powers, mode, thr, DEFAULT_MAX_LEAVES)):
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    assert len(m._walks) == 3  # one binding per (mode, threshold, leaf limit)


def test_threads_sharing_a_bound_walk_get_what_one_thread_gets():
    # the bound walk regrows its bincount indices as column counts rise;
    # a thread that read a stale pair would sum into the wrong bins
    import sys
    import threading

    m = make_model([1.0] * 3, [10.0, 2.5, 0.625], [QAM16, QAM8, QAM8], n=2)
    rng = np.random.default_rng(7)
    batches = [10.0 ** rng.uniform(-1.0, 4.0, (cols, 3)) for cols in range(1, 41)]
    expect = [stage_bers_grid(fresh(m), powers) for powers in batches]
    bad = []

    def walk(offset):
        for i in range(len(batches)):
            j = (i + offset) % len(batches)
            if not np.array_equal(stage_bers_grid(m, batches[j]), expect[j]):
                bad.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(10 * t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_power_allocation_walks_give_what_fresh_walks_give(monkeypatch):
    from nomalab import poweralloc

    walks = []
    grid = poweralloc.stage_bers_grid
    monkeypatch.setattr(poweralloc, "stage_bers_grid", lambda m, powers, *args: (
        walks.append((np.array(powers), args)) or grid(m, powers, *args)))
    m = make_model([1.0] * 3, [0.625, 10.0, 2.5], [QPSK] * 3, n=2, ranks=[3, 1, 2])
    poweralloc.optimize_powers(m, poweralloc.PaConfig(p_max_db=16.0, max_iters=6))
    assert len({len(powers) for powers, _ in walks}) > 2
    for powers, args in walks:
        got = stage_bers_grid(m, powers, *args)
        assert np.array_equal(got, stage_bers_grid(fresh(m), powers, *args))
        ref, _ = oracles.per_assignment_walk(m, powers[:, [1, 2, 0]], *args)
        assert np.array_equal(got, ref)


def test_a_bound_walk_still_checks_every_call():
    m = make_model([1.0] * 3, [10.0, 2.5, 0.625], [QPSK] * 3, n=2)
    high = batch_columns([0.0, -8.0, -14.0], [30.0, 40.0])
    low = batch_columns([0.0, -8.0, -14.0], [-20.0])
    stage_bers_grid(m, high, "exact", 1e-3, 8)  # binds the walk
    with pytest.raises(ValueError, match="nonnegative"):
        stage_bers_grid(m, -high, "exact", 1e-3, 8)
    with pytest.raises(ValueError, match="gain must be nonnegative"):
        bound_walk(m, -high, "exact", 1e-3, 8)  # unchecked powers reach the gains
    with pytest.raises(ValueError, match="out of float range"):
        stage_bers_grid(m, [[math.inf, 1.0, 1.0]], "exact", 1e-3, 8)
    # nine leaves at -20 dB weigh above 1e-3; at 30 and 40 dB fewer do
    with pytest.raises(CapacityError, match="exceeds 8 leaves"):
        stage_bers_grid(m, low, "exact", 1e-3, 8)
    assert np.array_equal(stage_bers_grid(m, high, "exact", 1e-3, 8),
                          stage_bers_grid(fresh(m), high, "exact", 1e-3, 8))
    assert len(m._walks) == 1


def test_a_bound_walk_looks_up_no_sep_program(monkeypatch):
    # the plan holds its compiled programs: once a model's walk is bound,
    # its walks and a power-allocation run look up and compile none, and
    # give what a fresh model gives
    from nomalab.poweralloc import PaConfig, optimize_powers

    m = make_model([1.0] * 3, [10.0, 2.5, 0.625], [QAM16, QAM8, QAM8], n=2)
    cfg = PaConfig(p_max_db=16.0, max_iters=4)
    rng = np.random.default_rng(25)
    batches = [10.0 ** rng.uniform(-1.0, 4.0, (cols, 3)) for cols in (1, 9, 40)]
    stage_bers_grid(m, batches[0], cfg.mode)  # binds the walk
    expect = [stage_bers_grid(fresh(m), powers, cfg.mode) for powers in batches]
    expect_pa = optimize_powers(fresh(m), cfg)

    def refuse(*args):
        raise AssertionError("a bound walk looked up a SEP program")

    monkeypatch.setattr(analytic, "sep_program", refuse)
    monkeypatch.setattr(analytic, "_admissible_tx", refuse)
    for powers, ref in zip(batches, expect):
        assert np.array_equal(stage_bers_grid(m, powers, cfg.mode), ref)
    assert optimize_powers(m, cfg) == expect_pa
    assert len(m._walks) == 1


def test_plan_rows_are_counted_before_any_row_is_built(monkeypatch):
    import time
    import tracemalloc

    for consts in ([QPSK] * 3, [QAM16, QAM8, QAM8], [QAM8, QAM16, QAM8, QPSK],
                   [QAM64, QAM16, QPSK], [QAM16] * 3):
        consts = tuple(consts)
        size = analytic._plan(consts, "auto")[3].size
        analytic._plan.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(analytic, "PLAN_ROWS", size - 1)
            with pytest.raises(CapacityError, match=f"walk plan of {size} rows exceeds"):
                analytic._plan(consts, "auto")
    # four 64-QAM stages: 17,279,631 rows, about 6 GB to build
    m = make_model([1.0] * 4, [8.0, 4.0, 2.0, 1.0], [QAM64] * 4)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CapacityError, match="17279631 rows exceeds"):
            stage_bers_grid(m, [[1.0] * 4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert time.perf_counter() - start < 5.0


def test_stage_bers_grid_rejects_a_leaf_limit_of_zero():
    m = make_model([1.0, 0.5], [2.0, 1.0], [QPSK] * 2)
    with pytest.raises(CapacityError, match="exceeds 0 leaves"):
        stage_bers_grid(m, [[1.0, 0.5]], max_leaves=0)
    with pytest.raises(CapacityError, match="exceeds -1 leaves"):
        stage_bers_grid(m, [[1.0, 0.5]], max_leaves=-1)


def test_stage_bers_grid_counts_leaves_per_column():
    m = make_model([100.0, 10.0, 1.0], [10.0, 2.5, 0.625], [QPSK] * 3, n=2)
    powers = batch_columns([20.0, 10.0, 0.0], [-5.0, 0.0, 5.0, 10.0])
    # nine stage-3 leaves per column: 36 in all, but 9 is the column limit
    grid = stage_bers_grid(m, powers, prune_threshold=0.0, max_leaves=9)
    assert np.all(grid > 0.0)
    with pytest.raises(CapacityError):
        stage_bers_grid(m, powers, prune_threshold=0.0, max_leaves=8)


def test_stage_bers_grid_takes_user_order_and_checks_its_input():
    consts = [QAM16, QAM8, QPSK]
    m_fwd = make_model([1.0] * 3, [3.0, 1.0, 0.5], consts)
    m_rev = make_model([1.0] * 3, [0.5, 1.0, 3.0], consts[::-1],
                       ranks=[3, 2, 1])
    powers = batch_columns([20.0, 10.0, 0.0], [0.0, 10.0])
    fwd = stage_bers_grid(m_fwd, powers, "exact")
    rev = stage_bers_grid(m_rev, powers[:, ::-1], "exact")
    assert fwd.tolist() == rev.tolist()  # both in stage order
    with pytest.raises(ValueError):
        stage_bers_grid(m_fwd, powers[:, :2])
    with pytest.raises(ValueError):
        stage_bers_grid(m_fwd, -powers)
    tiny_noise = make_model([1.0] * 3, [3.0, 1.0, 0.5], consts,
                            noise_sigma=1e-200)
    with pytest.raises(ValueError):  # sigma_n^2 underflows to 0
        stage_bers_grid(tiny_noise, powers)


def test_array_kernels_equal_their_scalar_calls(monkeypatch):
    rng = np.random.default_rng(8)
    gains = np.concatenate([[0.0, 1e-9, math.inf], 10.0 ** rng.uniform(-4, 8, 300)])
    for n in (1, 2, 3, 8, 64):
        fades = erlang_fade_average(gains.reshape(3, -1), n).ravel()
        assert fades.tolist() == [erlang_fade_average(float(g), n) for g in gains]
        triplet = np.array(qpsk_sep_triplet(gains, n)).T
        assert triplet.tolist() == [list(qpsk_sep_triplet(float(g), n))
                                    for g in gains]
    wide = np.resize(gains[np.isfinite(gains)], 700)
    programs = [sep_program(c, _admissible_tx(c, None))
                for c in (QPSK, QAM8, QAM64, build_rect_qam(16, 16))]
    for n in (1, 4):
        tables = [sep_probabilities(program, wide, n) for program in programs]
        for program, table in zip(programs, tables):
            assert table.shape == (700, len(program[0]))
            for g, row in zip(wide, table):
                assert row.tolist() == sep_probabilities(program, float(g), n).tolist()
        # a small chunk bound: one call crosses at least three chunks
        for program, table in zip(programs, tables):
            floats = 250 * len(program[1])
            monkeypatch.setattr(kernels, "EVAL_FLOATS", floats)
            assert math.ceil(700 / (floats // len(program[1]))) >= 3
            assert sep_probabilities(program, wide, n).tolist() == table.tolist()
            monkeypatch.undo()
