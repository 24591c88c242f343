"""Rayleigh SIMO channel and noise sampling with reproducible streams.

Channel vectors for a user with spread sigma are h ~ CN(0, 2 sigma^2 I_N):
each real component has variance sigma^2. Noise follows the same
convention with sigma_n per real dimension. With h = sqrt(2) sigma g,
the combining gain Z = ||g||^2 is Erlang distributed with shape N.

Randomness uses the counter-based Philox generator keyed by the pair
(seed, substream), so a (seed, stream) pair identifies its draw sequence
regardless of thread scheduling. Streams may be split into up to 2^20
numbered children for batch-level parallelism. The samplers draw from a
caller's generator, so one generator can feed several draws in a fixed
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CHILD_SPAN = 1 << 20  # sub-streams (batches) per stream
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class StreamKey:
    """Identifies one reproducible random stream."""

    seed: int
    stream: int = 0

    def child(self, index: int) -> "StreamKey":
        """Derived key for a numbered sub-stream (batch), index < 2^20."""
        if not 0 <= index < CHILD_SPAN:
            raise ValueError(f"child index {index} outside [0, {CHILD_SPAN})")
        return StreamKey(self.seed, self.stream * CHILD_SPAN + index)


def generator(key: StreamKey) -> np.random.Generator:
    """Counter-based generator for a stream key."""
    words = [key.seed & _MASK64, key.stream & _MASK64]
    return np.random.Generator(np.random.Philox(key=words))


def _sample_cn(n: int, sigma: float, rng: np.random.Generator,
               count=None) -> np.ndarray:
    if not isinstance(n, int) or n < 1:
        raise ValueError("dimension must be a positive integer")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    shape = (2, n) if count is None else (2, n, int(count))
    g = rng.standard_normal(shape)
    out = np.empty(shape[1:], dtype=complex)
    np.multiply(sigma, g[0], out=out.real)
    np.multiply(sigma, g[1], out=out.imag)
    return out


def sample_channel(n: int, sigma: float, rng: np.random.Generator,
                   count=None) -> np.ndarray:
    """Draw a CN(0, 2 sigma^2 I_n) channel vector, or (n, count) of them."""
    return _sample_cn(n, sigma, rng, count)


def sample_noise(n: int, sigma_n: float, rng: np.random.Generator,
                 count=None) -> np.ndarray:
    """Draw a CN(0, 2 sigma_n^2 I_n) noise vector, or (n, count) of them."""
    return _sample_cn(n, sigma_n, rng, count)


def erlang_pdf(z, n: int):
    """Erlang density z^(n-1) e^(-z) / (n-1)! of Z = ||g||^2, g ~ CN(0, I_n).

    Accepts scalars or arrays; z must be nonnegative.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("shape n must be a positive integer")
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0):
        raise ValueError("z must be nonnegative")
    out = np.zeros_like(z_arr)
    pos = z_arr > 0
    # log-space evaluation stays finite where z^(n-1) alone would overflow
    out[pos] = np.exp((n - 1) * np.log(z_arr[pos]) - z_arr[pos] - math.lgamma(n))
    if n == 1:
        out[~pos] = 1.0
    return out if out.ndim else float(out)
