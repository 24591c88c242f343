"""System model validation, MRC-SIC, and joint-ML detection against
brute-force references."""

import itertools
import platform
import resource
import tracemalloc

import numpy as np
import pytest

import oracles
from nomalab import detectors
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
PAM4_I = build_rect_qam(4, 1)
PAM4_Q = build_rect_qam(1, 4)


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
        assert mrc_sic_detect(model, y, chans).tolist() == sym


def test_sic_matches_plain_python_reference():
    rng = np.random.default_rng(7)
    model = make_model([50.0, 10.0, 1.0], [2.0, 1.0, 0.5],
                       [QAM16, QAM8, QPSK], n=2, ranks=[2, 1, 3])
    points = [u.constellation.points for u in model.users]
    powers = [u.power for u in model.users]
    for _ in range(25):
        sym, chans, noise, y = draw_instance(rng, model)
        got = mrc_sic_detect(model, y, chans)
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
        got = jmld_detect(model, y, chans)
        ref = oracles.brute_force_joint_ml(y, chans, powers, points)
        assert tuple(got) == ref


def test_jmld_tie_breaks_lexicographically():
    model = make_model([1.0], [1.0], [QPSK], n=1)
    # zero channel makes every hypothesis score identically
    res = jmld_detect(model, np.array([0.5 + 0.5j]), [np.array([0j])])
    assert res.shape == (1,) and res.tolist() == [0]


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


def random_batch(rng, model, b):
    """b random columns: the received (n, b) and the channels."""
    n = model.n_antennas
    chans = [u.sigma * (rng.standard_normal((n, b))
                        + 1j * rng.standard_normal((n, b)))
             for u in model.users]
    noise = model.noise_sigma * (rng.standard_normal((n, b))
                                 + 1j * rng.standard_normal((n, b)))
    sym = [rng.integers(0, u.constellation.size, size=b) for u in model.users]
    return superimpose(model, sym, chans, noise), chans


def assert_jmld_matches_oracle(model, y, chans):
    points = [u.constellation.points for u in model.users]
    powers = [u.power for u in model.users]
    got = jmld_detect_batch(model, y, chans)
    for col in range(y.shape[1]):
        assert tuple(got[:, col]) == oracles.brute_force_joint_ml(
            y[:, col], [h[:, col] for h in chans], powers, points), col
    return got


# (alphabets, powers, n, columns): the sliced user (largest alphabet, the
# last one on a tie) sits first, in the middle and last, and is a PAM on
# either axis; 2,000+ columns
JMLD_SYSTEMS = [
    ((QAM16, QAM8, QPSK), (16.0, 4.0, 1.0), 1, 100),
    ((QPSK, QAM16, QAM8), (9.0, 3.0, 1.0), 4, 100),
    ((QAM8, QAM8, QAM16), (1.0, 4.0, 16.0), 2, 60),
    ((QPSK, QAM8, QAM8), (4.0, 4.0, 1.0), 2, 300),
    ((PAM4_I, PAM4_Q), (4.0, 1.0), 1, 400),
    ((QPSK, PAM4_I), (1.0, 1.0), 4, 400),
    ((QAM16,), (2.0,), 4, 400),
    ((QPSK, QPSK, QAM8, QPSK), (8.0, 4.0, 2.0, 1.0), 4, 150),
    ((QAM16, QPSK), (1.0, 4.0), 1, 300),
]


@pytest.mark.parametrize("consts,powers,n,cols", JMLD_SYSTEMS,
                         ids=["16-8-4_n1", "4-16-8_n4", "8-8-16_n2",
                              "4-8-8_n2", "pam4x1-pam1x4_n1", "4-pam4x1_n4",
                              "16_n4", "4-4-8-4_n4", "16-4_n1"])
def test_jmld_batch_matches_brute_force_oracle(consts, powers, n, cols):
    rng = np.random.default_rng(sum(c.size for c in consts) * n + cols)
    model = make_model(powers, [1.0] * len(consts), consts, n=n,
                       noise_sigma=0.5)
    y, chans = random_batch(rng, model, cols)
    assert_jmld_matches_oracle(model, y, chans)


def recording_detector(monkeypatch):
    """Patch the joint detector's tie rule and bound to record what they
    see; returns the record: per scored row its metric, full-tuple key and
    column, per column its margin, and the (B, T) bounds."""
    seen = {"metric": [], "key": [], "col": [], "margin": [], "bound": []}
    smallest_tie = detectors._smallest_tie
    relaxed_bounds = detectors._relaxed_bounds

    def recording_ties(metric, key, col, margin):
        done = sum(m.size for m in seen["margin"])
        for name, value in (("metric", metric), ("key", key),
                            ("col", col + done), ("margin", margin)):
            seen[name].append(value)
        return smallest_tie(metric, key, col, margin)

    def recording_bounds(*args):
        seen["bound"].append(relaxed_bounds(*args))
        return seen["bound"][-1]

    monkeypatch.setattr(detectors, "_smallest_tie", recording_ties)
    monkeypatch.setattr(detectors, "_relaxed_bounds", recording_bounds)
    return seen


def enumerated_rows(model, key):
    """Full tuples (K, R) of full-tuple keys, and each one's row among the
    enumerated tuples (the sliced user, the last of the largest alphabet,
    at index 0)."""
    sizes = [u.constellation.size for u in model.users]
    s = max(range(model.k), key=lambda k: (sizes[k], k))
    full = np.array(np.unravel_index(key, sizes))
    enumerated = full.copy()
    enumerated[s] = 0
    tuples = joint_symbol_tuples(model)
    ranks = np.ravel_multi_index(tuples[tuples[:, s] == 0].T, sizes)
    return full, np.searchsorted(ranks, np.ravel_multi_index(enumerated, sizes))


@pytest.mark.parametrize("mods", [(QPSK, QPSK, QPSK), (QAM16, QAM8, QAM8)],
                         ids=["4-4-4", "16-8-8"])
def test_jmld_gram_rounding_stays_far_inside_the_margin(monkeypatch, mods):
    # 40 dB per user at N = 2 on the shipped spreads: ||y||^2 dwarfs the
    # metric, so the Gram form cancels hard
    rng = np.random.default_rng(43)
    model = make_model([1e4] * 3, [10.0, 2.5, 0.625], mods, n=2)
    y, chans = random_batch(rng, model, 1000)
    seen = recording_detector(monkeypatch)
    jmld_detect_batch(model, y, chans)
    metric, key, col, margin, bound = (np.concatenate(seen[k]) for k in (
        "metric", "key", "col", "margin", "bound"))
    powers = [u.power for u in model.users]
    points = [u.constellation.points for u in model.users]
    # every scored row, by its full tuple: the seeds and the kept rows
    full, _ = enumerated_rows(model, key)
    direct = oracles.direct_metric(y[:, col], [h[:, col] for h in chans],
                                   powers, points, full[None])[0]
    gap = np.abs(metric - (direct - np.sum(np.abs(y[:, col]) ** 2, axis=0)))
    # within d u S^2, a seventeenth of the margin: the two forms together
    # round by less than one unit per step of the count
    assert np.all(17 * gap <= margin[col])
    # no column holds a second candidate within the margin of its best
    best = np.full(1000, np.inf)
    np.minimum.at(best, col, metric)
    assert np.bincount(col[metric <= best[col] + margin[col]]).max() == 1
    # every enumerated tuple's bound against the metric with user s free
    # in the plane, computed directly: as far inside the slack
    sliced = 2 if mods[0] is QPSK else 0
    tuples = joint_symbol_tuples(model)
    others = tuples[tuples[:, sliced] == 0]
    assert bound.shape == (1000, len(others))
    relaxed = oracles.relaxed_metric(
        y, chans, powers, points, np.repeat(others[:, :, None], 1000, axis=2),
        sliced) - np.sum(np.abs(y) ** 2, axis=0)
    slack = margin * (detectors._BOUND_SLACK_PER_STEP
                      / detectors._TIE_MARGIN_PER_STEP)
    assert np.all(17 * np.abs(bound.T - relaxed).max(axis=0) <= slack)


# (alphabets, power, n, columns, sliced user's channel zeroed in every
# third column): the pruned path at each end of its range
PRUNED_CASES = [
    ((QAM16, QAM8, QAM8), 1e2, 2, 90, True),
    ((QPSK, QPSK, QPSK), 1e2, 1, 200, False),
    ((QAM16, QAM8), 1e2, 2, 300, False),
    ((QPSK, QPSK, QAM8, QPSK), 1e2, 2, 100, False),
    ((QAM16, QAM8, QAM8), 1e4, 2, 60, False),
    ((QAM16, QAM8, QAM8), 1e-1, 2, 60, False),
    # every row kept, more than a run holds: the chunk is scored in runs
    ((QPSK, QPSK, QPSK), 1e2, 1, detectors._SCORED_ROWS // 8, False),
]


@pytest.mark.parametrize("consts,power,n,cols,zeroed", PRUNED_CASES,
                         ids=["zero-gain-columns", "n1", "k2", "k4", "40dB",
                              "-10dB", "n1-runs"])
def test_jmld_pruned_path_matches_brute_force_oracle(monkeypatch, consts,
                                                     power, n, cols, zeroed):
    rng = np.random.default_rng(53 + n * cols)
    spreads = [10.0, 2.5, 0.625, 0.3][:len(consts)]
    model = make_model([power] * len(consts), spreads, consts, n=n)
    y, chans = random_batch(rng, model, cols)
    if zeroed:
        chans[0][:, ::3] = 0.0  # 16-QAM is the sliced user
    seen = recording_detector(monkeypatch)
    assert_jmld_matches_oracle(model, y, chans)
    # every scored row scores bit for bit as it does among all candidates
    metric, key, col = (np.concatenate(seen[k]) for k in ("metric", "key",
                                                           "col"))
    full, row = enumerated_rows(model, key)
    dense, sym = oracles.dense_gram_metrics(model, y, chans)
    s = max(range(model.k), key=lambda k: (consts[k].size, k))
    assert np.array_equal(metric, dense[row, col])
    assert np.array_equal(full[s], sym[row, col])
    # each (tuple, column) row is scored once; at N = 1 user s fits any y,
    # so the bound prunes nothing, and a zero gain keeps every tuple; from
    # 20 dB at N = 2 most rows are pruned
    assert np.unique(row * cols + col).size == row.size
    if n == 1:
        assert row.size == dense.size
    elif zeroed:
        assert np.bincount(col, minlength=cols)[::3].min() == dense.shape[0]
    elif power >= 1e2:
        assert row.size < dense.size / 4


@pytest.mark.parametrize("n,cols,one_run", [(1, 1024, False), (2, 4000, False),
                                            (1, 1024, True)],
                         ids=["n1", "n2", "n1-one-run"])
def test_jmld_large_batches_score_as_the_dense_form(monkeypatch, n, cols,
                                                    one_run):
    # at N = 1 every row of the chunk is kept and scored in runs; in one
    # run of all 64k rows numpy computes into temporaries that large in
    # place, where its complex product rounds differently
    if one_run:
        monkeypatch.setattr(detectors, "_SCORED_ROWS", 1 << 16)
    rng = np.random.default_rng(61 + n)
    model = make_model([1e2] * 3, [10.0, 2.5, 0.625], [QAM16, QAM8, QAM8],
                       n=n)
    y, chans = random_batch(rng, model, cols)
    seen = recording_detector(monkeypatch)
    jmld_detect_batch(model, y, chans)
    metric, key, col = (np.concatenate(seen[k]) for k in ("metric", "key",
                                                           "col"))
    full, row = enumerated_rows(model, key)
    dense, sym = oracles.dense_gram_metrics(model, y, chans)
    assert np.array_equal(metric, dense[row, col])
    assert np.array_equal(full[0], sym[row, col])


def test_jmld_batch_chunks_give_the_same_decisions():
    # 16 * 16 * 4 = 1,024 enumerated tuples give chunks of
    # _CHUNK_ENTRIES / 1,024 columns: the batch crosses four chunk
    # boundaries, and the cut at 75 moves every boundary after it
    chunk = detectors._CHUNK_ENTRIES // 1024
    cols = 4 * chunk + 44
    assert 75 % chunk and cols > 4 * chunk
    rng = np.random.default_rng(41)
    model = make_model([16.0, 8.0, 4.0, 1.0], [1.0] * 4,
                       [QAM16, QAM16, QAM16, QPSK], n=4)
    y, chans = random_batch(rng, model, cols)
    whole = jmld_detect_batch(model, y, chans)
    halves = [jmld_detect_batch(model, y[:, cut], [h[:, cut] for h in chans])
              for cut in (slice(0, 75), slice(75, None))]
    assert np.array_equal(whole, np.concatenate(halves, axis=1))


# Traced peak (MiB) of one 10k-column batch on the shipped spreads when
# chunks held 2^15 entries and a chunk's kept rows were scored at once,
# by (alphabets, n, dB, sliced user's channel zeroed in every third
# column): chunks now hold up to four times as many entries, and the
# working memory may grow by at most 2 MiB on any of them.
PEAK_BEFORE_MIB = {
    ("4-4-4", 1, -10, False): 10.59,
    ("4-4-4", 1, 20, False): 10.59,
    ("4-4-4", 2, -10, False): 5.12,
    ("4-4-4", 2, 20, False): 5.12,
    ("4-4-4", 4, -10, False): 7.86,
    ("4-4-4", 4, 20, False): 7.86,
    ("4-4-4", 2, 20, True): 6.22,
    ("16-8-8", 1, -10, False): 10.89,
    ("16-8-8", 1, 20, False): 10.89,
    ("16-8-8", 2, -10, False): 6.46,
    ("16-8-8", 2, 20, False): 5.14,
    ("16-8-8", 4, -10, False): 7.89,
    ("16-8-8", 4, 20, False): 7.89,
    ("16-8-8", 2, 20, True): 6.40,
}


def traced_jmld_peak(mods, n, db, zeroed):
    """tracemalloc's peak, in bytes, over one joint-ML batch of 10k
    columns at db per user; mods names the alphabets."""
    consts = {"4-4-4": (QPSK,) * 3, "16-8-8": (QAM16, QAM8, QAM8)}[mods]
    rng = np.random.default_rng(67 + n)
    model = make_model([10.0 ** (db / 10)] * 3, [10.0, 2.5, 0.625], consts,
                       n=n)
    y, chans = random_batch(rng, model, 10_000)
    if zeroed:
        s = max(range(3), key=lambda k: (consts[k].size, k))
        chans[s][:, ::3] = 0.0
    jmld_detect_batch(model, y[:, :8], [h[:, :8] for h in chans])  # caches
    tracemalloc.start()
    try:
        jmld_detect_batch(model, y, chans)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mods,n,db,zeroed", list(PEAK_BEFORE_MIB),
                         ids=[f"{m}_n{n}_{db}dB" + ("_zeroed" if z else "")
                              for m, n, db, z in PEAK_BEFORE_MIB])
def test_jmld_working_memory_stays_bounded(mods, n, db, zeroed):
    peak = traced_jmld_peak(mods, n, db, zeroed)
    assert peak <= (PEAK_BEFORE_MIB[mods, n, db, zeroed] + 2) * 2 ** 20


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="sets glibc's malloc limits")
def test_jmld_batches_reuse_freed_memory():
    # a second batch finds its chunk temporaries in the memory the first
    # one freed; under glibc's default limits it faulted about 1,100
    # pages back in
    rng = np.random.default_rng(47)
    model = make_model([1.0] * 3, [10.0, 2.5, 0.625], [QPSK] * 3, n=2)
    y, chans = random_batch(rng, model, 10_000)
    jmld_detect_batch(model, y, chans)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    jmld_detect_batch(model, y, chans)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


def grid_columns(reach):
    """Every point of the integer grid within +-reach on both axes, as one
    (1, B) row: it holds every level and every decision midpoint."""
    axis = np.arange(-reach, reach + 1, dtype=float)
    return (axis[:, None] + 1j * axis[None, :]).reshape(1, -1)


@pytest.mark.parametrize("c", [QPSK, QAM8, QAM16], ids=["4", "8", "16"])
def test_detectors_put_exact_midpoints_on_the_lowest_index(c):
    # unit channel and power keep the arithmetic exact; np.rint rounds
    # half to even and fails here (the QPSK origin would decide index 3)
    y = grid_columns(4)
    b = y.shape[1]
    one = [np.ones((1, b), complex)]
    model = make_model([1.0], [1.0], [c], n=1)
    assert_jmld_matches_oracle(model, y, one)
    got = sic_detect_batch(model, y, one)
    for col in range(b):
        assert tuple(got[:, col]) == oracles.reference_sic(
            y[:, col], [one[0][:, col]], [1.0], [c.points], (0,))

    # a strong QPSK user decoded first leaves an exact residual
    model = make_model([100.0, 1.0], [1.0, 1.0], [QPSK, c], n=1)
    y2 = y + 10.0 * QPSK.points[2]
    two = one * 2
    assert_jmld_matches_oracle(model, y2, two)
    got = sic_detect_batch(model, y2, two)
    points = [QPSK.points, c.points]
    for col in range(b):
        assert tuple(got[:, col]) == oracles.reference_sic(
            y2[:, col], [h[:, col] for h in two], [100.0, 1.0], points,
            (0, 1))


def test_jmld_ties_across_tuples_keep_the_smallest_tuple(monkeypatch):
    # 16-QAM (sliced, first) plus QPSK at twice the amplitude on the same
    # channel: integer points of the plane have several exact optima
    model = make_model([1.0, 4.0], [1.0, 1.0], [QAM16, QPSK], n=1)
    y = grid_columns(6)
    seen = recording_detector(monkeypatch)
    assert_jmld_matches_oracle(model, y, [np.ones(y.shape, complex)] * 2)
    # the exact ties reach the tie rule: columns where a second scored
    # candidate lies within the margin of the best
    metric, col, margin = (np.concatenate(seen[k])
                           for k in ("metric", "col", "margin"))
    best = np.full(y.shape[1], np.inf)
    np.minimum.at(best, col, metric)
    near = np.bincount(col[metric <= best[col] + margin[col]])
    assert 0 < np.count_nonzero(near > 1) < y.shape[1]


@pytest.mark.parametrize("consts", [(QPSK,) * 3, (QAM16, QAM8, QAM8),
                                    (QAM8, QAM8, QAM16)],
                         ids=["4-4-4", "16-8-8", "8-8-16"])
@pytest.mark.parametrize("n", [1, 2])
def test_jmld_exact_ties_on_float_channels_keep_the_smallest_tuple(consts, n):
    # one random channel for every user at one power, and no noise: every
    # tuple whose points sum to the sent sum fits y exactly, and only
    # rounding tells the candidates' scores apart
    rng = np.random.default_rng(59 + n)
    b = 2000
    model = make_model([1.0] * 3, [1.0] * 3, consts, n=n)
    h = rng.standard_normal((n, b)) + 1j * rng.standard_normal((n, b))
    sym = [rng.integers(0, c.size, size=b) for c in consts]
    y = superimpose(model, sym, [h] * 3, np.zeros((n, b), complex))
    tuples = joint_symbol_tuples(model)
    sums = sum(c.points[tuples[:, k]] for k, c in enumerate(consts))
    sent = sum(c.points[s] for c, s in zip(consts, sym))
    # the integer-grid sums are exact: the first tuple with the sent sum
    smallest = tuples[np.argmax(sums[:, None] == sent, axis=0)].T
    assert np.array_equal(jmld_detect_batch(model, y, [h] * 3), smallest)


# (seed, columns) found by a seeded search over 2,000-column 16/8/8 batches
# at N = 1 or 2 with each user's power drawn in -10..40 dB: in each column
# a margin of 2^-40 per step hands the decision to a smaller tuple whose
# exact metric is worse
MARGIN_GUARD_DRAWS = [(5, [698]), (28, [868, 1294, 1795]), (141, [441])]


@pytest.mark.parametrize("seed,cols", MARGIN_GUARD_DRAWS,
                         ids=[str(seed) for seed, _ in MARGIN_GUARD_DRAWS])
def test_jmld_margin_is_no_wider_than_the_rounding_bound(seed, cols):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([1, 2]))
    powers = 10.0 ** (rng.uniform(-10, 40, 3) / 10)
    model = make_model(powers, [10.0, 2.5, 0.625], [QAM16, QAM8, QAM8], n=n)
    y, chans = random_batch(rng, model, 2000)
    y, chans = y[:, cols], [h[:, cols] for h in chans]
    got = jmld_detect_batch(model, y, chans)
    tuples = joint_symbol_tuples(model)
    points = [u.constellation.points for u in model.users]
    peak = [np.abs(pts).max() for pts in points]
    for j in range(len(cols)):
        col = [h[:, j] for h in chans]
        metric = oracles.exact_joint_metrics(y[:, j], col, powers, points)
        best = min(range(len(metric)), key=lambda t: (metric[t], t))
        assert tuple(got[:, j]) == tuple(tuples[best])
        # the guard: a smaller tuple lies within 2^-40 d S^2 of the best
        reach = np.linalg.norm(y[:, j]) + sum(
            np.linalg.norm(np.sqrt(p) * h) * m
            for p, h, m in zip(powers, col, peak))
        wide = 2.0 ** -40 * (n + 3 * 3 + 10) * reach ** 2
        assert min(metric[:best]) - metric[best] < wide


@pytest.mark.parametrize("zeroed", [0, 1], ids=["sliced", "enumerated"])
@pytest.mark.parametrize("how", ["power", "channel"])
def test_jmld_zero_gain_user_decides_index_0(zeroed, how):
    rng = np.random.default_rng(31)
    # user 0 is 16-QAM, the sliced user; user 1 is enumerated
    powers = [4.0, 1.0]
    if how == "power":
        powers[zeroed] = 0.0
    model = make_model(powers, [1.0, 1.0], [QAM16, QAM8], n=2)
    y, chans = random_batch(rng, model, 200)
    if how == "channel":
        chans[zeroed] = np.zeros_like(chans[zeroed])
    assert_jmld_matches_oracle(model, y, chans)
    assert not jmld_detect_batch(model, y, chans)[zeroed].any()


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_gram_form_takes_the_channel_norms_from_its_diagonal(n):
    # S must keep its bits: it sets the tie margin and the pruning radius
    rng = np.random.default_rng(n)
    model = make_model([100.0, 10.0, 1.0], [10.0, 2.5, 0.625],
                       [QAM16, QAM8, QAM8], n=n)
    for order in ([0, 2, 1], [1, 2, 0]):
        y, chans = random_batch(rng, model, 2_000)
        g = np.stack([np.sqrt(u.power) * h for u, h in zip(model.users, chans)])
        peak = np.array([np.abs(u.constellation.points).max() for u in model.users])
        reach = np.linalg.norm(y, axis=0) + peak @ np.linalg.norm(g, axis=1)
        got = detectors._gram_form(model, y, chans, order)[2]
        assert got.view(np.uint64).tolist() == reach.view(np.uint64).tolist()


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


def test_joint_symbol_tuples_order_and_cap(monkeypatch):
    model = make_model([1.0, 1.0], [1.0, 1.0], [QPSK, QAM8])
    tuples = joint_symbol_tuples(model)
    expect = list(itertools.product(range(4), range(8)))
    assert tuples.tolist() == [list(t) for t in expect]
    y, chans = np.zeros((2, 3), complex), [np.zeros((2, 3), complex)] * 2
    # the cap bounds the full product, 4 x 8 = 32 tuples
    monkeypatch.setattr(detectors, "JMLD_DEFAULT_CAP", 32)
    assert joint_symbol_tuples(model).shape == (32, 2)
    assert jmld_detect_batch(model, y, chans).shape == (2, 3)
    monkeypatch.setattr(detectors, "JMLD_DEFAULT_CAP", 31)
    with pytest.raises(CapacityError, match="4x8 exceeds cap 31"):
        joint_symbol_tuples(model)
    with pytest.raises(CapacityError):
        jmld_detect_batch(model, y, chans)
    with pytest.raises(CapacityError):
        jmld_detect(model, y[:, 0], [h[:, 0] for h in chans])


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
        if mrc_sic_detect(model, y, chans).tolist() != sym:
            sic_err += 1
        if jmld_detect(model, y, chans).tolist() != sym:
            jmld_err += 1
    assert jmld_err < sic_err
