"""Stream keys, reproducible complex-Gaussian sampling, and the
combining-gain density."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma

from nomalab.channel import (
    StreamKey,
    erlang_pdf,
    generator,
    sample_channel,
    sample_noise,
)


def test_child_key_arithmetic():
    key = StreamKey(5, 3)
    assert key.child(7) == StreamKey(5, 3 * 2**20 + 7)
    assert StreamKey(5).child(0) == StreamKey(5, 0)
    with pytest.raises(ValueError):
        key.child(-1)
    with pytest.raises(ValueError):
        key.child(2**20)


def test_generator_determinism():
    a = generator(StreamKey(42, 9)).standard_normal(8)
    b = generator(StreamKey(42, 9)).standard_normal(8)
    assert np.array_equal(a, b)


def test_distinct_streams_decorrelate():
    base = StreamKey(42, 1)
    a = generator(base.child(0)).standard_normal(8)
    b = generator(base.child(1)).standard_normal(8)
    c = generator(StreamKey(43, 1).child(0)).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_shapes_and_dtype():
    h = sample_channel(3, 1.0, generator(StreamKey(0)))
    assert h.shape == (3,) and h.dtype == complex
    hh = sample_channel(3, 1.0, generator(StreamKey(0)), count=5)
    assert hh.shape == (3, 5)
    nn = sample_noise(2, 0.5, generator(StreamKey(1)), count=4)
    assert nn.shape == (2, 4)


def test_samplers_continue_the_callers_stream():
    rng = generator(StreamKey(3))
    h = sample_channel(2, 1.5, rng, count=4)
    nn = sample_noise(2, 0.5, rng, count=4)
    g = generator(StreamKey(3)).standard_normal((4, 2, 4))
    assert np.array_equal(h, 1.5 * (g[0] + 1j * g[1]))
    assert np.array_equal(nn, 0.5 * (g[2] + 1j * g[3]))


def test_sample_validation():
    with pytest.raises(ValueError):
        sample_channel(0, 1.0, generator(StreamKey(0)))
    with pytest.raises(ValueError):
        sample_channel(2, 0.0, generator(StreamKey(0)))
    with pytest.raises(ValueError):
        sample_noise(2, -1.0, generator(StreamKey(0)))


def test_sample_moments_per_real_dimension():
    sigma = 1.7
    h = sample_channel(2, sigma, generator(StreamKey(11)), count=200_000)
    for part in (h.real, h.imag):
        assert abs(part.mean()) < 0.02
        assert abs(part.var() / sigma**2 - 1.0) < 0.02
    # E|h_i|^2 = 2 sigma^2
    assert abs((np.abs(h) ** 2).mean() / (2 * sigma**2) - 1.0) < 0.02


def test_combining_gain_is_erlang_shaped():
    n, sigma = 3, 0.8
    h = sample_channel(n, sigma, generator(StreamKey(12)), count=200_000)
    z = (np.abs(h) ** 2).sum(axis=0) / (2 * sigma**2)
    assert abs(z.mean() - n) < 0.03
    assert abs(z.var() / n - 1.0) < 0.05


@pytest.mark.parametrize("n", [1, 2, 5])
def test_erlang_pdf_matches_gamma(n):
    z = np.linspace(0.01, 30.0, 50)
    ref = gamma(a=n, scale=1.0).pdf(z)
    got = erlang_pdf(z, n)
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-300)


def test_erlang_pdf_normalizes():
    for n in (1, 2, 8):
        total = quad(lambda z: erlang_pdf(z, n), 0, n + 60.0, limit=200)[0]
        assert abs(total - 1.0) < 1e-9


def test_erlang_pdf_edges_and_validation():
    assert erlang_pdf(0.0, 1) == 1.0
    assert erlang_pdf(0.0, 2) == 0.0
    assert isinstance(erlang_pdf(1.5, 2), float)
    assert erlang_pdf(np.array([1.0, 2.0]), 2).shape == (2,)
    with pytest.raises(ValueError):
        erlang_pdf(-0.1, 2)
    with pytest.raises(ValueError):
        erlang_pdf(1.0, 0)
