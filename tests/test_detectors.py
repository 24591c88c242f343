"""System model validation, MRC-SIC, and joint-ML detection against
brute-force references."""

import itertools

import numpy as np
import pytest

import oracles
from nomalab.channel import StreamKey, generator, sample_channel
from nomalab.constellation import build_rect_qam
from nomalab.detectors import (
    SystemModel,
    UserProfile,
    jmld_detect,
    jmld_detect_batch,
    joint_symbol_tuples,
    mrc_sic_detect,
    sic_detect_batch,
    superimpose,
)
from nomalab.errors import CapacityError

QPSK = build_rect_qam(2, 2)
QAM8 = build_rect_qam(4, 2)
QAM16 = build_rect_qam(4, 4)


def make_model(powers, sigmas, consts, n=2, noise_sigma=1.0, ranks=None):
    ranks = ranks or [None] * len(powers)
    users = tuple(UserProfile(p, s, c, r)
                  for p, s, c, r in zip(powers, sigmas, consts, ranks))
    return SystemModel(n, noise_sigma, users)


def draw_instance(rng, model):
    """One random transmission: symbol indices, channels, received vector."""
    n = model.n_antennas
    sym = [int(rng.integers(0, u.constellation.size)) for u in model.users]
    chans = []
    for u in model.users:
        g = rng.standard_normal((2, n))
        chans.append(u.sigma * (g[0] + 1j * g[1]))
    g = rng.standard_normal((2, n))
    noise = model.noise_sigma * (g[0] + 1j * g[1])
    y = superimpose(model, sym, chans, noise)
    return sym, chans, noise, y


def test_model_validation():
    with pytest.raises(ValueError):
        make_model([-1.0], [1.0], [QPSK])
    with pytest.raises(ValueError):
        make_model([1.0], [0.0], [QPSK])
    with pytest.raises(ValueError):
        SystemModel(2, 1.0, ())
    with pytest.raises(ValueError):
        make_model([1.0], [1.0], [QPSK], n=0)
    with pytest.raises(ValueError):
        make_model([1.0], [1.0], [QPSK], noise_sigma=0.0)


def test_sic_rank_rules():
    m = make_model([4.0, 1.0], [2.0, 1.0], [QPSK, QAM8])
    assert [u.sic_rank for u in m.users] == [1, 2]
    assert m.decode_order() == (0, 1)

    m2 = make_model([4.0, 1.0], [2.0, 1.0], [QPSK, QAM8], ranks=[2, 1])
    assert m2.decode_order() == (1, 0)
    assert m2.stage_profiles()[0].constellation is QAM8

    with pytest.raises(ValueError):
        make_model([4.0, 1.0], [2.0, 1.0], [QPSK, QAM8], ranks=[1, None])
    with pytest.raises(ValueError):
        make_model([4.0, 1.0], [2.0, 1.0], [QPSK, QAM8], ranks=[1, 1])
    with pytest.raises(ValueError):
        make_model([4.0, 1.0], [2.0, 1.0], [QPSK, QAM8], ranks=[0, 1])


def test_with_powers_and_scaled():
    m = make_model([4.0, 1.0], [2.0, 1.0], [QPSK, QPSK])
    m2 = m.with_powers([9.0, 3.0])
    assert [u.power for u in m2.users] == [9.0, 3.0]
    assert [u.sigma for u in m2.users] == [2.0, 1.0]
    m3 = m.scaled(10.0)
    assert [u.power for u in m3.users] == pytest.approx([40.0, 10.0])
    assert m.scaled(0.0).users == m.users
    with pytest.raises(ValueError):
        m.with_powers([1.0])


def test_superimpose_composition_and_noise_copy():
    rng = np.random.default_rng(0)
    model = make_model([4.0, 2.0], [1.0, 0.5], [QPSK, QAM16], n=3)
    sym = [2, 11]
    chans = [rng.standard_normal(3) + 1j * rng.standard_normal(3)
             for _ in range(2)]
    noise = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    noise_before = noise.copy()
    y = superimpose(model, sym, chans, noise)
    manual = noise + (np.sqrt(4.0) * chans[0] * QPSK.points[2]
                      + np.sqrt(2.0) * chans[1] * QAM16.points[11])
    assert np.allclose(y, manual, rtol=1e-14)
    assert np.array_equal(noise, noise_before)


def test_vector_shape_validation():
    model = make_model([1.0], [1.0], [QPSK], n=3)
    with pytest.raises(ValueError):
        mrc_sic_detect(model, np.zeros(3, complex), [np.zeros(2, complex)])
    with pytest.raises(ValueError):
        mrc_sic_detect(model, np.zeros(2, complex), [np.zeros(3, complex)])
    with pytest.raises(ValueError):
        mrc_sic_detect(model, np.zeros(3, complex), [])


def test_sic_recovers_noiseless_with_power_separation():
    rng = np.random.default_rng(21)
    model = make_model([1e8, 1e4, 1.0], [1.0, 1.0, 1.0],
                       [QAM16, QAM8, QPSK], n=4)
    for _ in range(20):
        sym = [int(rng.integers(0, u.constellation.size)) for u in model.users]
        chans = [rng.standard_normal(4) + 1j * rng.standard_normal(4)
                 for _ in range(3)]
        y = superimpose(model, sym, chans, np.zeros(4, complex))
        res = mrc_sic_detect(model, y, chans)
        assert res.symbols.tolist() == sym


def test_sic_matches_plain_python_reference():
    rng = np.random.default_rng(7)
    model = make_model([50.0, 10.0, 1.0], [2.0, 1.0, 0.5],
                       [QAM16, QAM8, QPSK], n=2, ranks=[2, 1, 3])
    points = [u.constellation.points for u in model.users]
    powers = [u.power for u in model.users]
    for _ in range(25):
        sym, chans, noise, y = draw_instance(rng, model)
        got = mrc_sic_detect(model, y, chans).symbols
        ref = oracles.reference_sic(y, chans, powers, points,
                                    model.decode_order())
        assert tuple(got) == ref


def test_jmld_matches_brute_force():
    rng = np.random.default_rng(13)
    model = make_model([9.0, 4.0, 1.0], [1.5, 1.0, 0.7],
                       [QAM16, QAM8, QPSK], n=2)
    points = [u.constellation.points for u in model.users]
    powers = [u.power for u in model.users]
    for _ in range(25):
        sym, chans, noise, y = draw_instance(rng, model)
        got = jmld_detect(model, y, chans).symbols
        ref = oracles.brute_force_joint_ml(y, chans, powers, points)
        assert tuple(got) == ref


def test_jmld_tie_breaks_lexicographically():
    model = make_model([1.0], [1.0], [QPSK], n=1)
    # zero channel makes every hypothesis score identically
    res = jmld_detect(model, np.array([0.5 + 0.5j]), [np.array([0j])])
    assert res.symbols.tolist() == [0]


def test_batch_detectors_match_single_shot():
    rng = np.random.default_rng(17)
    model = make_model([25.0, 4.0, 1.0], [1.5, 1.0, 0.7],
                       [QPSK, QAM8, QPSK], n=3)
    points = [u.constellation.points for u in model.users]
    powers = [u.power for u in model.users]
    b = 40
    chans = [u.sigma * (rng.standard_normal((3, b))
                        + 1j * rng.standard_normal((3, b)))
             for u in model.users]
    noise = rng.standard_normal((3, b)) + 1j * rng.standard_normal((3, b))
    sym = [rng.integers(0, u.constellation.size, size=b) for u in model.users]
    y = superimpose(model, sym, chans, noise)

    sic_b = sic_detect_batch(model, y, chans)
    jmld_b = jmld_detect_batch(model, y, chans)
    assert sic_b.shape == (3, b) and jmld_b.shape == (3, b)
    for col in range(b):
        cols = [h[:, col] for h in chans]
        assert superimpose(model, [s[col] for s in sym], cols,
                           noise[:, col]).tolist() == y[:, col].tolist()
        assert tuple(sic_b[:, col]) == oracles.reference_sic(
            y[:, col], cols, powers, points, model.decode_order())
        assert tuple(jmld_b[:, col]) == oracles.brute_force_joint_ml(
            y[:, col], cols, powers, points)


def test_superimpose_batch_shape_validation():
    model = make_model([1.0, 1.0], [1.0, 1.0], [QPSK, QPSK], n=2)
    noise = np.zeros((2, 5), complex)
    chans = [np.ones((2, 5), complex)] * 2
    sym = [np.zeros(5, np.int64)] * 2
    assert superimpose(model, sym, chans, noise).shape == (2, 5)
    with pytest.raises(ValueError):
        superimpose(model, sym, [np.ones((2, 4), complex)] * 2, noise)
    with pytest.raises(ValueError):
        superimpose(model, sym, [np.ones(2, complex)] * 2, noise)
    with pytest.raises(ValueError):
        superimpose(model, [np.zeros(4, np.int64)] * 2, chans, noise)
    with pytest.raises(ValueError):
        superimpose(model, [0, 0], chans, noise)
    with pytest.raises(ValueError):
        superimpose(model, sym[:1], chans, noise)
    with pytest.raises(ValueError):
        mrc_sic_detect(model, noise, chans)


def test_joint_symbol_tuples_order_and_cap():
    model = make_model([1.0, 1.0], [1.0, 1.0], [QPSK, QAM8])
    tuples = joint_symbol_tuples(model)
    expect = list(itertools.product(range(4), range(8)))
    assert tuples.tolist() == [list(t) for t in expect]
    assert joint_symbol_tuples(model, cap=32).shape == (32, 2)
    with pytest.raises(CapacityError):
        joint_symbol_tuples(model, cap=31)
    with pytest.raises(CapacityError):
        jmld_detect(model, np.zeros(2, complex),
                    [np.zeros(2, complex)] * 2, cap=31)


def test_jmld_beats_sic_when_powers_are_comparable():
    # equal received powers break SIC ordering assumptions but not joint ML
    rng = generator(StreamKey(99))
    model = make_model([1.0, 1.0], [1.0, 1.0], [QPSK, QPSK], n=2,
                       noise_sigma=0.05)
    sic_err = jmld_err = 0
    trials = 400
    for _ in range(trials):
        sym = [int(rng.integers(0, 4)) for _ in range(2)]
        keys = [StreamKey(int(rng.integers(1 << 30))) for _ in range(2)]
        chans = [sample_channel(2, 1.0, generator(k)) for k in keys]
        noise = 0.05 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        y = superimpose(model, sym, chans, noise)
        if mrc_sic_detect(model, y, chans).symbols.tolist() != sym:
            sic_err += 1
        if jmld_detect(model, y, chans).symbols.tolist() != sym:
            jmld_err += 1
    assert jmld_err < sic_err
