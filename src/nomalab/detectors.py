"""System model plus MRC-SIC and joint-ML detection.

The uplink model is y = sum_k sqrt(P_k) h_k x_k + n with one SIMO
channel vector per user. The SIC detector peels users in sic_rank
order: at each stage it maximum-ratio combines the current residual
with the user's own channel, makes a hard decision against the scaled
constellation (ties go to the lowest symbol index), and subtracts the
decision re-modulated onto the channel. Earlier-stage decisions are
reused verbatim, so decision errors propagate. The joint detector
enumerates the symbol tuples of every user but the one with the largest
alphabet, and for each tuple slices that user to the point nearest its
combined residual, which is its exact best reply. The cap still bounds
the full cartesian product of all user alphabets. It scores candidates
by the Gram form of the metric, from G = g^H g and p = g^H y, and only
those that can win: in chunks of bounded size it bounds every enumerated
tuple's metric from below by the metric with the sliced user free in
the complex plane, scores the tuple with the lowest bound, and slices
and scores only the tuples whose bound lies within that score plus the
tie margin and a rounding slack. Candidates whose Gram metrics agree
within the proven rounding bound are ties, and ties go to the smallest
full tuple. Both receivers share one per-axis slicer on the odd-integer
grid.

Both receivers and superposition work on batches of (n, B) columns; the
single-shot functions run a batch of one.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constellation import Constellation
from .errors import CapacityError

JMLD_DEFAULT_CAP = 1 << 20

# Joint ML bounds chunks of at most this many (tuple, column) entries,
# 1 MB per (chunk, T) float array, and at most _CHUNK_COLUMNS columns. Few
# rows per column are scored at N >= 2, so a small chunk's cost is mostly
# its fixed numpy calls. On a 2-core Xeon, per 10k batch (median ms,
# tracemalloc peak MB) at 2^15 / 2^16 / 2^17 / 2^18 entries: 16/8/8 at
# N = 2, 20 dB 8.5 / 6.7 / 6.1 / 5.9 ms and 5.1 / 5.1 / 5.8 / 7.9 MB;
# QPSK x3 at N = 2, 15 dB 4.2 / 3.9 / 3.9 / 3.8 ms and 5.1 / 5.2 / 6.4 /
# 7.0 MB; at N = 1, where every row is scored, within 3% of each other.
# At 2^18 OpenBLAS threads the bound's last matrix product, which stalled
# for milliseconds when the other core was busy.
_CHUNK_ENTRIES = 1 << 17

# With few tuples a chunk's seeds, one per column, outweigh its bounds:
# QPSK x3 (16 tuples) ran 3-4% faster per batch in chunks of 8,192
# columns than of 4,096, but its traced peak rose 1.2 MB, and the peak RSS
# of three passes of the benchmark's analytic_sweep jobs 2.7 MB (highest
# of four runs each).
_CHUNK_COLUMNS = 1 << 12

# A chunk's kept rows are scored in runs of whole columns of about this
# many rows, so that a chunk where little is pruned (N = 1, low SNR, a
# zero gain) needs no more working memory than one where most is. Runs of
# 2^12 to 2^14 rows timed within 5% of each other at N = 1; 2^15 was up
# to 18% slower and peaked 4-5 MB higher.
_SCORED_ROWS = 1 << 13

# Tie margin of the Gram scores, per rounding step on a path.
# Written out in real and imaginary parts, the Gram form of
# ||y - sum_k x_k g_k||^2 - ||y||^2 is a sum of monomials in the parts of
# y, g and the points. Per column their absolute values add up to at most
# 4 S^2, S = ||y|| + sum_k ||g_k|| max|x_k|: a complex factor a gives
# |Re a| + |Im a| <= sqrt(2) |a|, and Minkowski's inequality sums over the
# antennas. No monomial passes through more than d = n + 3K + 10
# roundings: n + 1 in an antenna sum of products, 2 per complex product,
# K - 1 residual updates, 2 per level of the Gram sum and 3 for |x|^2.
# So a score is within 4 gamma_d S^2 of its exact value, gamma_d =
# d u / (1 - d u), u = 2^-53 (Higham, Accuracy and Stability of Numerical
# Algorithms, sec. 3.1), and two candidates with exactly equal metrics
# score within 8 gamma_d S^2 of each other. Candidates within the margin
# of the best are ties and go to the smallest tuple, so the margin must
# cover that spread: a narrower one lets rounding split exact ties, and a
# wider one turns candidates that are truly apart into ties. 17 u per step
# gives 17 d u S^2 >= 16 gamma_d S^2, the spread twice over, which leaves
# room for numpy's reductions and complex products rounding a little
# worse than the model.
_TIE_MARGIN_PER_STEP = 17 * 2.0 ** -53

# Rounding slack of the joint detector's pruning radius, per rounding
# step on a path. A candidate is scored only if its bound, the metric
# with user s free in the complex plane, lies within the seed's score
# plus the tie margin plus this slack. A candidate that can win scores
# within the margin of the best, so of the seed, and exactly its bound is
# at most its metric; the slack covers what rounding adds to the two. A
# score is within 4 gamma_d S^2 of its exact value (see the margin). The
# bound is the enumerated users' part of the metric, whose terms add up
# to at most 4 S^2, less |g_s^H r|^2 / G_ss with r = y - sum_k x_k g_k over
# them, whose terms add up to at most 8 S^2: |g_s^H r| <= ||g_s|| S, and
# the real and imaginary parts of the complex products double it. No
# term passes through more than 3n + 5K + 4 <= 3 d roundings: n + 1 in
# each of the antenna sums G_ks, G_sj and G_ss, 4 for the quotient,
# product and difference that form the Schur complement, then K - 2
# residual updates, 4 per level of the matrix product and 3 for |x|^2.
# So the bound is within 12 gamma_3d S^2 of its exact value, and a
# candidate that can win has a bound within 4 gamma_d S^2 + 12 gamma_3d
# S^2 <= 40 gamma_3d S^2 / 3 of the seed's score plus the margin. 80 u per
# step covers that about twice over, as the margin covers its spread.
# Like the margin's, the analysis assumes that nothing underflows; a
# subnormal G_ss would void it, so such columns keep every tuple. A wider
# slack only scores more candidates.
_BOUND_SLACK_PER_STEP = 80 * 2.0 ** -53


@lru_cache(maxsize=None)
def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed batch memory in the process; the
    batch detectors call this once, on first use.

    By default glibc maps each block above 128 kB on its own and hands
    free heap above 128 kB back to the system, so the multi-MB temporaries
    of every JMLD chunk and every Monte Carlo batch are page-faulted in
    afresh: about 2,100 faults per 10k-symbol QPSK x3 JMLD batch, and 700
    per SIC batch run after it. glibc raises both limits itself after it
    frees a large mapped block, so until something had, speed depended on
    what ran before. These are the limits that rule reaches at its 32 MB
    ceiling. Without glibc nothing changes.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


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
        order = tuple(sorted(range(len(users)), key=lambda i: users[i].sic_rank))
        object.__setattr__(self, "_order", order)  # not a field: read per walk
        object.__setattr__(self, "_stages", tuple(users[i] for i in order))
        object.__setattr__(self, "_walks", {})  # analytic walks bound to the model

    @property
    def k(self) -> int:
        return len(self.users)

    def decode_order(self) -> tuple[int, ...]:
        """User indices sorted by sic_rank (first decoded first)."""
        return self._order

    def stage_profiles(self) -> tuple[UserProfile, ...]:
        return self._stages

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
        return self.with_powers(self.scaled_powers([offset_db])[0])

    def scaled_powers(self, offsets_db) -> list[list[float]]:
        """Per-user powers, user order, under each common dB offset: one
        row per offset, the powers scaled(offset) would carry."""
        factors = [10.0 ** (float(off) / 10.0) for off in offsets_db]
        return [[u.power * f for u in self.users] for f in factors]


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
    work = np.empty_like(y)  # each user's sqrt(P) h x, in place
    for u, h, s in zip(model.users, chans, symbols):
        s = np.asarray(s)
        if s.shape != y.shape[1:]:
            raise ValueError(f"symbol indices shape {s.shape} != {y.shape[1:]}")
        np.multiply(np.sqrt(u.power), h, out=work)
        work *= u.constellation.points[s]
        y += work
    return y


def mrc_sic_detect(model: SystemModel, y, channels) -> np.ndarray:
    """Successive detection in sic_rank order with MRC at each stage:
    (K,) symbol indices in user order."""
    return sic_detect_batch(model, *_batch_of_one(model, y, channels))[:, 0]


def joint_symbol_tuples(model: SystemModel) -> np.ndarray:
    """(T, K) array of all joint symbol-index tuples, lexicographic order,
    read-only; CapacityError past JMLD_DEFAULT_CAP tuples."""
    sizes = tuple(u.constellation.size for u in model.users)
    total = 1
    for m in sizes:
        total *= m
        if total > JMLD_DEFAULT_CAP:
            raise CapacityError(
                f"joint search space {'x'.join(map(str, sizes))} exceeds cap "
                f"{JMLD_DEFAULT_CAP}")
    return _tuple_product(sizes)


@lru_cache(maxsize=None)
def _tuple_product(sizes: tuple[int, ...]) -> np.ndarray:
    """Read-only product of range(m) over sizes, lexicographic; callers
    check the cap first."""
    tuples = np.indices(sizes, dtype=np.int64).reshape(len(sizes), -1).T.copy()
    tuples.flags.writeable = False
    return tuples


def jmld_detect(model: SystemModel, y, channels) -> np.ndarray:
    """Joint maximum-likelihood detection: (K,) symbol indices in user order.

    Minimizes ||y - sum_k sqrt(P_k) h_k x_k||^2 over the product alphabet
    by enumerating every user but the largest-alphabet one (the last such
    user on a tie) and slicing that user given the others. Candidates
    whose metrics agree within the proven rounding bound are ties, and
    ties resolve to the lexicographically smallest index tuple. Raises
    CapacityError when the full product exceeds JMLD_DEFAULT_CAP.
    """
    return jmld_detect_batch(model, *_batch_of_one(model, y, channels))[:, 0]


@lru_cache(maxsize=None)
def _slicer_tables(c: Constellation):
    """Index of the point on the lowest level of both axes, and per axis
    the (threshold, index step) of every decision boundary, ascending.

    A symbol index is a Q-bit part plus an I-bit part, so crossing a
    boundary adds a fixed step. An exact midpoint goes to the level with
    the smaller Gray label, hence the lower index: where the upper level
    has it, the threshold sits just below the midpoint.
    """
    lut = np.empty((c.m_i, c.m_q), dtype=np.int64)
    lut[c.level_index_i, c.level_index_q] = np.arange(c.size)
    axes = []
    for steps, bounds in ((np.diff(lut[:, 0]), c.boundaries_i[1:-1]),
                          (np.diff(lut[0, :]), c.boundaries_q[1:-1])):
        thresholds = np.where(steps < 0, np.nextafter(bounds, -np.inf), bounds)
        axes.append(tuple(zip(thresholds.tolist(), steps.tolist())))
    return int(lut[0, 0]), axes[0], axes[1]


def _slice(c: Constellation, z: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Index of the point of c nearest z / gain, axis by axis.

    Exact midpoints go to the lowest symbol index; a zero gain decides
    index 0.
    """
    base, steps_i, steps_q = _slicer_tables(c)
    live = gain > 0
    safe = np.where(live, gain, 1.0)
    s = np.full(z.shape, base, dtype=np.int64)
    for v, steps in ((z.real / safe, steps_i), (z.imag / safe, steps_q)):
        for threshold, step in steps:
            s += step * (v > threshold)
    return np.where(live, s, 0)


def sic_detect_batch(model: SystemModel, y: np.ndarray, channels) -> np.ndarray:
    """Vectorized MRC-SIC over a batch: y is (n, B), channels are (n, B).

    Returns (K, B) symbol indices in user order. Each decision is the
    nearest scaled constellation point, ties going to the lowest index;
    a zero combining gain (zero power or zero channel) decides index 0.
    """
    _keep_freed_memory()
    out = np.zeros((model.k, y.shape[1]), dtype=np.int64)
    r = y.astype(complex, copy=True)
    work = np.empty_like(r)  # conj(h) r, then sqrt(P) h x, in place
    order = model.decode_order()
    for idx in order:
        u = model.users[idx]
        h = channels[idx]
        np.conjugate(h, out=work)
        work *= r
        z = np.sum(work, axis=0)
        scale = np.sqrt(u.power) * np.sum(np.abs(h) ** 2, axis=0)
        s = _slice(u.constellation, z, scale)
        out[idx] = s
        if idx != order[-1]:  # no stage reads the last residual
            np.multiply(np.sqrt(u.power), h, out=work)
            work *= u.constellation.points[s][None, :]
            r -= work
    return out


def _gram_form(model: SystemModel, y: np.ndarray, channels, order):
    """The Gram form's inputs for the users in order, with g_k = sqrt(P_k)
    h_k: G_kj = g_k^H g_j (len(order), len(order), B), p_k = g_k^H y
    (len(order), B), and per column S = ||y|| + sum_k ||g_k|| max|x_k|
    over all users, which order must hold, with ||g_k|| = sqrt(G_kk)."""
    g = np.stack([np.sqrt(u.power) * np.asarray(channels[i])
                  for i, u in enumerate(model.users)])  # (K, n, B)
    g_conj = np.conj(g[order])
    proj = np.sum(g_conj * y, axis=1)
    gram = np.array([[np.sum(a * g[k], axis=0) for k in order]
                     for a in g_conj])
    peak = np.array([np.abs(u.constellation.points).max() for u in model.users])
    norms = np.empty(g.shape[::2])  # ||g_k|| = sqrt(G_kk), in user order
    norms[order] = np.sqrt(np.diagonal(gram).real.T)
    return gram, proj, np.linalg.norm(y, axis=0) + peak @ norms


@lru_cache(maxsize=None)
def _joint_plan(consts: tuple[Constellation, ...]):
    """What joint ML needs of the alphabets alone: the sliced user s (the
    last with the largest alphabet), the enumerated users in tuple order,
    the full-tuple rank of every enumerated tuple (user s at index 0) and
    user s's stride, per enumerated user its point in every tuple, and the
    bound's levels: per enumerated user its points and the (4, M) stack
    (1, |x|^2, -2 Re x, -2 Im x)."""
    sizes = tuple(c.size for c in consts)
    s = max(range(len(sizes)), key=lambda k: (sizes[k], k))
    tuples = _tuple_product(sizes)
    others = tuples[tuples[:, s] == 0]  # lexicographic over the others
    strides = np.cumprod((1,) + sizes[:0:-1])[::-1]
    enum = [k for k in range(len(sizes)) if k != s]
    picked = [consts[k].points[others[:, k]] for k in enum]
    levels = [(c.points, np.stack([np.ones(c.size), np.abs(c.points) ** 2,
                                   -2 * c.points.real, -2 * c.points.imag]))
              for c in (consts[k] for k in enum)]
    return s, enum, others @ strides, int(strides[s]), picked, levels


def _relaxed_bounds(levels, schur, shift, floor) -> np.ndarray:
    """(w, T) lower bounds on the metrics of every enumerated tuple, in
    lexicographic order along each column's row: the metric's Gram
    recursion run on the Schur complement of G_ss, which leaves user s
    free in the complex plane.

    levels are the enumerated users' (points, coefficient stack) in tuple
    order (_joint_plan); schur is their (E, E, w) A = G_oo - G_os G_so /
    G_ss, shift their (E, w) b = p_o - G_os p_s / G_ss, and floor the (w,)
    -|p_s|^2 / G_ss.
    """
    w = floor.size
    bound = floor[:, None]
    res = list(shift[:, :, None])
    for i, (pts, coef) in enumerate(levels):  # one more user, in tuple order
        # each tuple's bound + |x|^2 A_ii - 2 Re(conj(x) r) for every point
        # x, one matrix product over (bound, A_ii, Re r, Im r)
        terms = np.empty(bound.shape + (4,))
        terms[..., 0] = bound
        terms[..., 1] = schur[i, i, :, None].real
        terms[..., 2] = res[i].real
        terms[..., 3] = res[i].imag
        bound = (terms.reshape(-1, 4) @ coef).reshape(w, -1)
        for j in range(i + 1, len(levels)):
            res[j] = (res[j][:, :, None] - schur[j, i, :, None, None] * pts
                      ).reshape(w, -1)
    return bound


def _smallest_tie(metric: np.ndarray, key: np.ndarray, col: np.ndarray,
                  margin: np.ndarray) -> np.ndarray:
    """Per column, the smallest key among the rows whose metric lies within
    the column's margin of its best; col holds each row's column, and
    every column has a row."""
    best = np.full(margin.size, np.inf)
    np.minimum.at(best, col, metric)
    near = metric <= (best + margin)[col]
    pick = np.full(margin.size, np.iinfo(np.int64).max)
    np.minimum.at(pick, col[near], key[near])
    return pick


def jmld_detect_batch(model: SystemModel, y: np.ndarray, channels) -> np.ndarray:
    """Vectorized joint ML over a batch: y is (n, B). Returns (K, B).

    Given the other users, the best symbol of user s is the grid point
    nearest g_s^H r / ||g_s||^2, with r the residual after the others;
    so only the others' tuples are enumerated and user s is sliced.
    Candidates are scored by the Gram form of ||y - sum_k x_k g_k||^2 -
    ||y||^2, from G = g^H g and p = g^H y.

    Only candidates that can win are sliced and scored. Every enumerated
    tuple's metric is bounded from below by its metric with x_s free in
    the complex plane, part - |z|^2 / G_ss, computed as the same Gram
    recursion on the Schur complement of G_ss. Per column the tuple with
    the lowest bound is sliced and scored, and the radius is its score
    plus the tie margin plus the rounding slack (_BOUND_SLACK_PER_STEP):
    a candidate whose bound lies beyond it cannot come within the margin
    of the best. The kept candidates are sliced and scored, each bit for
    bit as among all candidates. Over the scored candidates, those within
    the margin of the best are ties, and ties go to the smallest full
    tuple. Columns where G_ss is zero or subnormal keep every tuple.
    Bounds are taken at most _CHUNK_ENTRIES (tuple, column) entries and
    _CHUNK_COLUMNS columns at a time, and kept candidates are scored about
    _SCORED_ROWS at a time.
    """
    _keep_freed_memory()
    joint_symbol_tuples(model)  # CapacityError past the cap
    s, enum, rank, stride, picked, levels = _joint_plan(
        tuple(u.constellation for u in model.users))
    sizes = [u.constellation.size for u in model.users]
    t_count, e = rank.size, len(enum)
    n, b = y.shape
    # the enumerated users in tuple order, then user s: g_s^H r = p_s -
    # sum_k G_sk x_k over the others, and G_ss = ||g_s||^2 is the gain
    gram, proj, reach = _gram_form(model, y, channels, enum + [s])
    gain = gram[e, e].real
    # the Schur complement of G_ss, with G_ks / G_ss as lean
    live = gain >= np.finfo(float).tiny
    safe = np.where(live, gain, 1.0)
    lean = gram[:e, e] / safe
    schur = gram[:e, :e] - lean[:, None] * gram[e, :e]
    shift = proj[:e] - lean * proj[e]
    floor = -(proj[e].real ** 2 + proj[e].imag ** 2) / safe
    c_s = model.users[s].constellation
    energy_s = np.abs(c_s.points) ** 2
    # S sets the tie margin and the slack; where G_ss is zero or subnormal
    # the bound means nothing, and the radius is infinite
    margin = _TIE_MARGIN_PER_STEP * (n + 3 * model.k + 10) * reach ** 2
    spread = np.where(live, margin + _BOUND_SLACK_PER_STEP
                      * (n + 3 * model.k + 10) * reach ** 2, np.inf)

    def score(t, col):
        """Metrics and full-tuple keys of enumerated tuples t in columns
        col: the enumerated users' part of metric - ||y||^2 and each
        later user's residual projection p_k - sum_j G_kj x_j, one user
        at a time in tuple order, then user s sliced. Complex products
        take named operands, not fresh temporaries: numpy computes into
        a large temporary operand in place, and its in-place complex
        product rounds differently."""
        part = np.zeros(t.size)
        res = list(proj[:, col])
        for i, xs in enumerate(picked):
            x = xs[t]
            part = (part + np.abs(x) ** 2 * gram[i, i, col].real
                    - 2 * (x.real * res[i].real + x.imag * res[i].imag))
            for j in range(i + 1, e + 1):
                g_ji = gram[j, i, col]
                res[j] = res[j] - x * g_ji
        z, gains = res[e], gain[col]
        sym = _slice(c_s, z, gains)
        xs = c_s.points[sym]
        return part + energy_s[sym] * gains - 2 * (
            xs.real * z.real + xs.imag * z.imag), rank[t] + sym * stride

    out = np.zeros((model.k, b), dtype=np.int64)
    width = max(1, min(_CHUNK_COLUMNS, _CHUNK_ENTRIES // t_count))
    for lo in range(0, b, width):
        hi = min(lo + width, b)
        w = hi - lo
        bound = _relaxed_bounds(levels, schur[..., lo:hi], shift[:, lo:hi],
                                floor[lo:hi])
        # the seeds, then the other rows whose bound lies within the radius
        seed, col = np.argmin(bound, axis=1), np.arange(w)
        metric, key = score(seed, col + lo)
        keep = bound <= (metric + spread[lo:hi])[:, None]
        keep[col, seed] = False
        del bound
        # the kept rows, scored in runs of whole columns
        runs = max(1, -(-int(np.count_nonzero(keep)) // _SCORED_ROWS))
        for r in range(runs):
            first, stop = r * w // runs, (r + 1) * w // runs
            kept, t = np.divmod(np.flatnonzero(keep[first:stop]), t_count)
            more, more_key = score(t, kept + (lo + first))
            out[:, lo + first:lo + stop] = np.unravel_index(_smallest_tie(
                np.concatenate([metric[first:stop], more]),
                np.concatenate([key[first:stop], more_key]),
                np.concatenate([col[:stop - first], kept]),
                margin[lo + first:lo + stop]), sizes)
    return out
