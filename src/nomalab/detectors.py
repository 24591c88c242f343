"""System model plus MRC-SIC and joint-ML detection.

The uplink model is y = sum_k sqrt(P_k) h_k x_k + n with one SIMO
channel vector per user. The SIC detector peels users in sic_rank
order: at each stage it maximum-ratio combines the current residual
with the user's own channel, makes a hard decision against the scaled
constellation (ties go to the lowest symbol index), and subtracts the
decision re-modulated onto the channel. Earlier-stage decisions are
reused verbatim, so decision errors propagate. The joint detector
searches the full cartesian product of all user alphabets and is capped
to protect memory.

Both receivers and superposition work on batches of (n, B) columns; the
single-shot functions run a batch of one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation
from .errors import CapacityError

JMLD_DEFAULT_CAP = 1 << 20


@dataclass(frozen=True)
class UserProfile:
    """One uplink user: transmit power, channel spread, alphabet, SIC position."""

    power: float
    sigma: float
    constellation: Constellation
    sic_rank: int | None = None


@dataclass(frozen=True)
class SystemModel:
    """Base station with n_antennas and per-real-dimension noise sigma_n."""

    n_antennas: int
    noise_sigma: float
    users: tuple[UserProfile, ...]

    def __post_init__(self):
        if not isinstance(self.n_antennas, int) or self.n_antennas < 1:
            raise ValueError("n_antennas must be a positive integer")
        if not self.noise_sigma > 0:
            raise ValueError("noise_sigma must be positive")
        users = tuple(self.users)
        if not users:
            raise ValueError("at least one user required")
        for u in users:
            if not u.power >= 0:
                raise ValueError("user power must be nonnegative")
            if not u.sigma > 0:
                raise ValueError("user sigma must be positive")
        ranks = [u.sic_rank for u in users]
        if all(r is None for r in ranks):
            users = tuple(
                UserProfile(u.power, u.sigma, u.constellation, i + 1)
                for i, u in enumerate(users))
        elif any(r is None for r in ranks):
            raise ValueError("either all or no sic_rank values may be omitted")
        elif sorted(ranks) != list(range(1, len(users) + 1)):
            raise ValueError(f"sic_rank values {ranks} are not a permutation of 1..K")
        object.__setattr__(self, "users", users)

    @property
    def k(self) -> int:
        return len(self.users)

    def decode_order(self) -> tuple[int, ...]:
        """User indices sorted by sic_rank (first decoded first)."""
        return tuple(sorted(range(self.k), key=lambda i: self.users[i].sic_rank))

    def stage_profiles(self) -> tuple[UserProfile, ...]:
        return tuple(self.users[i] for i in self.decode_order())

    def with_powers(self, powers) -> "SystemModel":
        powers = tuple(float(p) for p in powers)
        if len(powers) != self.k:
            raise ValueError("one power per user required")
        users = tuple(
            UserProfile(p, u.sigma, u.constellation, u.sic_rank)
            for p, u in zip(powers, self.users))
        return SystemModel(self.n_antennas, self.noise_sigma, users)

    def scaled(self, offset_db: float) -> "SystemModel":
        """Common dB offset applied to every user power (ratios preserved)."""
        factor = 10.0 ** (offset_db / 10.0)
        return self.with_powers(u.power * factor for u in self.users)


@dataclass(frozen=True)
class DetectionResult:
    """Hard decisions in user-index order."""

    symbols: np.ndarray


def _check_vectors(model: SystemModel, y: np.ndarray, channels) -> list[np.ndarray]:
    """Channels as arrays; each must have y's shape, (n,) or (n, B)."""
    chans = [np.asarray(h) for h in channels]
    if len(chans) != model.k:
        raise ValueError("one channel vector per user required")
    shape = np.shape(y)
    if len(shape) not in (1, 2) or shape[0] != model.n_antennas:
        raise ValueError(f"received shape {shape} is not ({model.n_antennas},) "
                         f"or ({model.n_antennas}, B)")
    for h in chans:
        if h.shape != shape:
            raise ValueError(f"channel shape {h.shape} != {shape}")
    return chans


def _batch_of_one(model: SystemModel, y, channels):
    """One received vector and its channels as (n, 1) columns."""
    y = np.asarray(y, dtype=complex)
    chans = _check_vectors(model, y, channels)
    if y.ndim != 1:
        raise ValueError("single-shot detection takes one (n,) vector")
    return y[:, None], [h[:, None] for h in chans]


def superimpose(model: SystemModel, symbols, channels, noise) -> np.ndarray:
    """Received signal for per-user symbol indices.

    With noise and channels of shape (n,) each user gives one index; with
    (n, B) each user gives B indices, one per column.
    """
    y = np.array(noise, dtype=complex)
    chans = _check_vectors(model, y, channels)
    if len(symbols) != model.k:
        raise ValueError("one symbol index entry per user required")
    for u, h, s in zip(model.users, chans, symbols):
        s = np.asarray(s)
        if s.shape != y.shape[1:]:
            raise ValueError(f"symbol indices shape {s.shape} != {y.shape[1:]}")
        y += np.sqrt(u.power) * h * u.constellation.points[s]
    return y


def mrc_sic_detect(model: SystemModel, y, channels) -> DetectionResult:
    """Successive detection in sic_rank order with MRC at each stage."""
    return DetectionResult(
        sic_detect_batch(model, *_batch_of_one(model, y, channels))[:, 0])


def joint_symbol_tuples(model: SystemModel, cap: int = JMLD_DEFAULT_CAP) -> np.ndarray:
    """(T, K) array of all joint symbol-index tuples, lexicographic order."""
    sizes = [u.constellation.size for u in model.users]
    total = 1
    for m in sizes:
        total *= m
        if total > cap:
            raise CapacityError(
                f"joint search space {'x'.join(map(str, sizes))} exceeds cap {cap}")
    return np.array(list(itertools.product(*(range(m) for m in sizes))), dtype=np.int64)


def jmld_detect(model: SystemModel, y, channels,
                cap: int = JMLD_DEFAULT_CAP) -> DetectionResult:
    """Joint exhaustive maximum-likelihood detection.

    Minimizes ||y - sum_k sqrt(P_k) h_k x_k||^2 over the product alphabet;
    ties resolve to the lexicographically smallest index tuple.
    """
    return DetectionResult(
        jmld_detect_batch(model, *_batch_of_one(model, y, channels), cap=cap)[:, 0])


def sic_detect_batch(model: SystemModel, y: np.ndarray, channels) -> np.ndarray:
    """Vectorized MRC-SIC over a batch: y is (n, B), channels are (n, B).

    Returns (K, B) symbol indices in user order. Each decision is the
    nearest scaled constellation point, ties going to the lowest index;
    a zero combining gain (zero power or zero channel) decides index 0.
    """
    out = np.zeros((model.k, y.shape[1]), dtype=np.int64)
    r = y.astype(complex, copy=True)
    for idx in model.decode_order():
        u = model.users[idx]
        h = channels[idx]
        z = np.sum(np.conj(h) * r, axis=0)
        scale = np.sqrt(u.power) * np.sum(np.abs(h) ** 2, axis=0)
        d2 = np.abs(z[None, :] - scale[None, :] * u.constellation.points[:, None]) ** 2
        s = np.argmin(d2, axis=0)
        out[idx] = s
        r -= np.sqrt(u.power) * h * u.constellation.points[s][None, :]
    return out


def jmld_detect_batch(model: SystemModel, y: np.ndarray, channels,
                      cap: int = JMLD_DEFAULT_CAP) -> np.ndarray:
    """Vectorized joint ML over a batch: y is (n, B). Returns (K, B)."""
    tuples = joint_symbol_tuples(model, cap)
    t_count = tuples.shape[0]
    n, b = y.shape
    # (T, K) matrix of scaled constellation points per user
    x = np.empty((t_count, model.k), dtype=complex)
    for u_idx, u in enumerate(model.users):
        x[:, u_idx] = u.constellation.points[tuples[:, u_idx]]
    g = np.stack([np.sqrt(u.power) * np.asarray(channels[i])
                  for i, u in enumerate(model.users)])  # (K, n, B)
    out = np.zeros((model.k, b), dtype=np.int64)
    # chunk the batch so the (T, n, chunk) prediction tensor stays small
    chunk = max(1, (1 << 22) // max(t_count * n, 1))
    for lo in range(0, b, chunk):
        hi = min(lo + chunk, b)
        pred = np.einsum("tk,knb->tnb", x, g[:, :, lo:hi])
        metric = np.sum(np.abs(y[None, :, lo:hi] - pred) ** 2, axis=1)
        best = np.argmin(metric, axis=0)  # first minimum = lexicographic winner
        out[:, lo:hi] = tuples[best].T
    return out
