"""Monte Carlo link simulation with deterministic batched randomness.

Every batch draws from its own counter-based generator keyed by
(seed, stream * 2^20 + batch_index), and batches are accumulated in
index order, so estimates are bit-identical regardless of how many
worker threads execute them. Within a batch the draw order is fixed:
per-user symbol indices, then per-user channel matrices, then noise.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .channel import StreamKey, generator, sample_channel, sample_noise
from .constellation import hamming_table
from .detectors import (SystemModel, jmld_detect_batch, sic_detect_batch,
                        superimpose)

DETECTORS = ("sic", "jmld")
Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class StopRule:
    """Stop once every user has min_errors bit errors, or at max_symbols."""

    min_errors: int = 100
    max_symbols: int = 100_000_000
    batch_size: int = 10_000

    def __post_init__(self) -> None:
        if self.min_errors < 1 or self.max_symbols < 1 or self.batch_size < 1:
            raise ValueError("StopRule fields must be positive")


@dataclass(frozen=True)
class BerEstimate:
    """Per-user bit error counts over a common number of channel uses."""

    errors: np.ndarray  # (K,) int64, user order
    bits: np.ndarray    # (K,) int64
    symbols: int        # channel uses simulated (same for every user)

    @property
    def ber(self) -> np.ndarray:
        return self.errors / np.maximum(self.bits, 1)

    @property
    def ci_halfwidth(self) -> np.ndarray:
        """95% normal-approximation confidence half width on each BER."""
        p = self.ber
        n = np.maximum(self.bits, 1)
        return Z95 * np.sqrt(p * (1.0 - p) / n)


@dataclass(frozen=True)
class BerCurve:
    offsets_db: tuple[float, ...]
    points: tuple[BerEstimate, ...]


def _draw_batch(model: SystemModel, batch_size: int, key: StreamKey):
    """One batch's draws from its own generator: the per-user symbol
    indices and channels, and the received signal."""
    rng = generator(key)
    n = model.n_antennas
    sym = [rng.integers(0, u.constellation.size, size=batch_size)
           for u in model.users]
    chans = [sample_channel(n, u.sigma, rng, batch_size) for u in model.users]
    noise = sample_noise(n, model.noise_sigma, rng, batch_size)
    return sym, chans, superimpose(model, sym, chans, noise)


def _bit_errors(model: SystemModel, sym, det: np.ndarray) -> np.ndarray:
    """(K,) bit errors of the (K, B) decisions det against the sent sym."""
    errors = np.zeros(model.k, dtype=np.int64)
    for i, u in enumerate(model.users):
        table = hamming_table(u.constellation)
        errors[i] = int(table[sym[i], det[i]].sum())
    return errors


def _run_batch(model: SystemModel, detector: str, batch_size: int,
               key: StreamKey) -> np.ndarray:
    sym, chans, y = _draw_batch(model, batch_size, key)
    if detector == "sic":
        det = sic_detect_batch(model, y, chans)
    else:
        det = jmld_detect_batch(model, y, chans)
    return _bit_errors(model, sym, det)


def estimate_ber(model: SystemModel, detector: str = "sic",
                 stop: StopRule = StopRule(), key: StreamKey = StreamKey(0),
                 workers: int = 1) -> BerEstimate:
    """Estimate per-user BER by batched simulation.

    Batches are dispatched in waves of `workers`, none past the one that
    reaches max_symbols, and folded in batch order; batches past the
    stopping point are discarded, so the result does not depend on the
    worker count. A wave's first batch runs in the calling thread and the
    rest in a pool of workers - 1 threads, so one worker starts none.
    """
    if detector not in DETECTORS:
        raise ValueError(f"unknown detector {detector!r}")
    workers = max(1, int(workers))
    last_batch = -(-stop.max_symbols // stop.batch_size)
    errors = np.zeros(model.k, dtype=np.int64)
    symbols = 0
    next_batch = 0
    done = False
    pool = ThreadPoolExecutor(max_workers=workers - 1) if workers > 1 else nullcontext()
    with pool:
        while not done:
            keys = [key.child(next_batch + i)
                    for i in range(min(workers, last_batch - next_batch))]
            rest = [pool.submit(_run_batch, model, detector, stop.batch_size, k)
                    for k in keys[1:]]
            first = _run_batch(model, detector, stop.batch_size, keys[0])
            next_batch += len(keys)
            for batch_err in [first] + [fut.result() for fut in rest]:
                if done:
                    continue
                errors += batch_err
                symbols += stop.batch_size
                if int(errors.min()) >= stop.min_errors or symbols >= stop.max_symbols:
                    done = True
    bits_per = np.array([u.constellation.bits_per_symbol for u in model.users],
                        dtype=np.int64)
    return BerEstimate(errors=errors, bits=bits_per * symbols, symbols=symbols)


def sweep(model: SystemModel, grid_db, detector: str = "sic",
          stop: StopRule = StopRule(), key: StreamKey = StreamKey(0),
          workers: int = 1) -> BerCurve:
    """Simulate across a grid of common power offsets (dB).

    Point i draws from stream key.stream + i, so curves are reproducible
    point by point and independent of grid slicing.
    """
    offsets = tuple(float(g) for g in grid_db)
    points = []
    for i, off in enumerate(offsets):
        pt_key = StreamKey(key.seed, key.stream + i)
        points.append(estimate_ber(model.scaled(off), detector, stop, pt_key, workers))
    return BerCurve(offsets_db=offsets, points=tuple(points))


@dataclass(frozen=True)
class TolerancePolicy:
    """Pass when |sim - analytic| <= max(k_ci * ci, rel_tol * analytic);
    points with analytic BER below min_ber are excluded."""

    k_ci: float = 3.0
    rel_tol: float = 0.15
    min_ber: float = 1e-5


@dataclass(frozen=True)
class PointCheck:
    offset_db: float
    user: int  # 1-based position in model.users order
    analytic: float
    simulated: float
    ci_halfwidth: float
    tolerance: float
    passed: bool
    skipped: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[PointCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.skipped)

    @property
    def n_checked(self) -> int:
        return sum(1 for c in self.checks if not c.skipped)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if not c.skipped and not c.passed)


def compare_analytic(curve: BerCurve, analytic,
                     policy: TolerancePolicy = TolerancePolicy()) -> ValidationReport:
    """Check a simulated curve against closed-form predictions.

    analytic holds one row per curve point, one BER per user in user
    order, as results.csv's analytic rows do.
    """
    checks = []
    for off, est, bers in zip(curve.offsets_db, curve.points, analytic):
        for u_idx, ana in enumerate(bers):
            ana = float(ana)
            sim = float(est.ber[u_idx])
            ci = float(est.ci_halfwidth[u_idx])
            tol = max(policy.k_ci * ci, policy.rel_tol * ana)
            skipped = bool(ana < policy.min_ber)
            passed = bool(skipped or abs(sim - ana) <= tol)
            checks.append(PointCheck(off, u_idx + 1, ana, sim, ci, tol,
                                     passed, skipped))
    return ValidationReport(tuple(checks))
