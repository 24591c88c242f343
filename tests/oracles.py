"""Reference implementations used only by the tests.

Everything here is written independently of the package internals:
literal series forms, closed forms, direct quadrature, exact rational
bookkeeping at 50 digits, hard-coded constellation geometry, and
brute-force searches. Four exceptions reuse package code to check one
layer alone: reference_walk_ber walks the package's per-node kernels,
per_assignment_walk runs the package's SEP and fade kernels one class
assignment at a time, as the walk once did, reference_descend runs one power-allocation start alone on the package's
cost function, and dense_gram_metrics scores every joint-ML candidate
with the package's slicer, so the pruned detector's scores can be
checked bit for bit. Tests compare package outputs against these, or
freeze values computed from them.
"""

from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc, gammaln

INF = math.inf

# hard-coded rectangular grids (odd-integer levels, midpoint boundaries)
LEVELS4 = [-3.0, -1.0, 1.0, 3.0]
BOUNDS4 = [-INF, -2.0, 0.0, 2.0, INF]
LEVELS2 = [-1.0, 1.0]
BOUNDS2 = [-INF, 0.0, INF]
BOUNDS8 = [-INF, -6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0, INF]
BOUNDS1 = [-INF, INF]  # degenerate axis: one level at 0
BOUNDS = {1: BOUNDS1, 2: BOUNDS2, 4: BOUNDS4, 8: BOUNDS8}
FIRST_QUAD_16 = [(1.0, 1.0), (1.0, 3.0), (3.0, 1.0), (3.0, 3.0)]
QPSK_D = (0.0, 2.0, 2.0 * math.sqrt(2.0))


def fade_average_series(a: float, n: int) -> float:
    """Alternating central-binomial series for the fading-averaged
    Q(sqrt(a Z)), Z ~ Erlang(n). Fine at moderate (a, n) only."""
    mu = math.sqrt(a / (a + 2.0))
    s = sum(math.comb(2 * k, k) * (2.0 * a + 4.0) ** (-k) for k in range(n))
    return 0.5 * (1.0 - mu * s)


def fade_average_chebyshev(a: float, n: int, nodes: int = 800) -> float:
    """Same average through the finite-angle representation of the exact
    Q, evaluated by Gauss-Chebyshev quadrature in u = cos(2 theta). The
    transformed integrand ((1-u)/(1-u+a))^n is analytic on [-1, 1] with
    its pole at u = 1 + a, so the node sum converges geometrically and
    never underflows in arbitrary precision."""
    import mpmath as mp

    with mp.workdps(40):
        aa = mp.mpf(a)
        tot = mp.mpf(0)
        for j in range(1, nodes + 1):
            u = mp.cos(mp.pi * (2 * j - 1) / (2 * nodes))
            tot += ((1 - u) / (1 - u + aa)) ** n
        return float(tot / (2 * nodes))


def fade_average_quad(a: float, n: int) -> float:
    """The same average by scipy's adaptive quadrature in z, with scipy's
    erfc and gammaln: the independent check of the package's fixed
    Gauss-Legendre rule, erlang_fade_quadrature."""
    lam = 1.0 + a / 2.0
    peak = max((n - 1) / lam, 1e-12)
    zmax = (n + 800.0) / lam

    def integrand(z):
        if z <= 0.0:
            return 0.5 if n == 1 else 0.0
        q = 0.5 * erfc(math.sqrt(a * z) / math.sqrt(2.0))
        return q * math.exp((n - 1) * math.log(z) - z - gammaln(n))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return quad(integrand, 0.0, zmax, points=[peak], limit=500,
                    epsabs=1e-300, epsrel=1e-12)[0]


def qpsk_triplet_series(a: float, n: int):
    """Literal five-ratio closed forms for the QPSK error-distance
    probabilities (same, adjacent, diagonal)."""
    e1 = (a + 1.0) ** (-n)
    e2 = 2.0 ** n * (a + 2.0) ** (-n)
    e3 = 3.0 ** n * (2.0 * a + 3.0) ** (-n)
    e4 = 6.0 ** n * (7.0 * a + 6.0) ** (-n)
    e5 = 3.0 ** n * (4.0 * a + 3.0) ** (-n)
    p_same = 1.0 + e1 / 144.0 - e2 / 6.0 - e3 / 2.0 + e4 / 24.0 + e5 / 16.0
    p_adj = -e1 / 72.0 + e2 / 6.0 + e3 / 2.0 - e4 / 12.0 - e5 / 8.0
    p_diag = e1 / 144.0 + e4 / 24.0 + e5 / 16.0
    return p_same, p_adj, p_diag


def qpsk_triplet_closed(a: float, n: int):
    """The same three probabilities with each base kept as a ratio,
    b/(b + s a) to the n, so nothing overflows at large a or n."""
    e1 = (1.0 / (1.0 + a)) ** n
    e2 = (2.0 / (2.0 + a)) ** n
    e3 = (3.0 / (3.0 + 2.0 * a)) ** n
    e4 = (6.0 / (6.0 + 7.0 * a)) ** n
    e5 = (3.0 / (3.0 + 4.0 * a)) ** n
    p_same = 1.0 + e1 / 144.0 - e2 / 6.0 - e3 / 2.0 + e4 / 24.0 + e5 / 16.0
    p_adj = -e1 / 72.0 + e2 / 6.0 + e3 / 2.0 - e4 / 12.0 - e5 / 8.0
    p_diag = e1 / 144.0 + e4 / 24.0 + e5 / 16.0
    return p_same, p_adj, p_diag


def q_two_term(x: float) -> float:
    """Two-term exponential Q model with the signed two-branch rule."""
    if x >= 0:
        return math.exp(-x * x / 2.0) / 12.0 + math.exp(-2.0 * x * x / 3.0) / 4.0
    return 1.0 - q_two_term(-x)


def qpsk_triplet_quadrature(a: float, n: int):
    """Erlang averages of the squared two-term model, by quadrature.
    Integrates over v = sqrt(z) so the integrand stays smooth at 0."""
    upper = math.sqrt(n) + 8.0
    dens = 2.0 / math.gamma(n)

    def avg(fn):
        val, _ = quad(
            lambda v: fn(q_two_term(math.sqrt(a) * v))
            * dens * v ** (2 * n - 1) * math.exp(-v * v),
            0.0, upper, limit=300, epsabs=1e-14, epsrel=1e-12)
        return val

    return (avg(lambda q: (1.0 - q) ** 2), avg(lambda q: 2.0 * q * (1.0 - q)),
            avg(lambda q: q * q))


# ---- exponential-term bookkeeping for pairwise cell probabilities ----

def q_model_terms(u: float, gain: float):
    """q(u sqrt(gain z)) as [(coef, rate)] exponential terms in z."""
    if u == INF:
        return []
    if u == -INF:
        return [(1.0, 0.0)]
    r1 = 0.5 * gain * u * u
    r2 = (2.0 / 3.0) * gain * u * u
    terms = [(1.0 / 12.0, r1), (0.25, r2)]
    if u >= 0:
        return terms
    return [(1.0, 0.0)] + [(-c, r) for c, r in terms]


def erlang_term_average(terms, n: int) -> float:
    # fsum: the unit constants from opposite tails must cancel exactly
    # even when the remaining terms are 1e-20 scale
    return math.fsum(c * (1.0 + r) ** (-n) for c, r in terms)


def pair_error_probability(tx_re, tx_im, ci, cq, bounds_i, bounds_q,
                           gain, n) -> float:
    """Probability that the combiner output lands in cell (ci, cq), for a
    transmitted point at (tx_re, tx_im), via the two-term Q model."""
    lo_i = q_model_terms(bounds_i[ci] - tx_re, gain)
    hi_i = [(-c, r) for c, r in q_model_terms(bounds_i[ci + 1] - tx_re, gain)]
    lo_q = q_model_terms(bounds_q[cq] - tx_im, gain)
    hi_q = [(-c, r) for c, r in q_model_terms(bounds_q[cq + 1] - tx_im, gain)]
    prod = [(c1 * c2, r1 + r2)
            for c1, r1 in lo_i + hi_i for c2, r2 in lo_q + hi_q]
    return erlang_term_average(prod, n)


def pair_error_probabilities(tx_re, tx_im, ci, cq, bounds_i, bounds_q,
                             gains, n: int) -> np.ndarray:
    """pair_error_probability at every entry of the array gains: the
    same term products, whose rates scale with the gain. Products that
    share a rate are merged first, their coefficients added exactly, so
    equal and opposite terms (the unit constants of opposite tails
    among them) still cancel exactly, as under fsum."""
    lo_i = q_model_terms(bounds_i[ci] - tx_re, 1.0)
    hi_i = [(-c, r) for c, r in q_model_terms(bounds_i[ci + 1] - tx_re, 1.0)]
    lo_q = q_model_terms(bounds_q[cq] - tx_im, 1.0)
    hi_q = [(-c, r) for c, r in q_model_terms(bounds_q[cq + 1] - tx_im, 1.0)]
    by_rate = {}
    for c1, r1 in lo_i + hi_i:
        for c2, r2 in lo_q + hi_q:
            by_rate.setdefault(r1 + r2, []).append(c1 * c2)
    merged = [(math.fsum(cs), r) for r, cs in by_rate.items()]
    coefs = np.array([c for c, r in merged if c != 0.0])
    rates = np.array([r for c, r in merged if c != 0.0])
    g = np.asarray(gains, dtype=float)
    return (1.0 + g[..., None] * rates) ** (-n) @ coefs


def table_16qam(gains, n: int):
    """The 64 error distances of a 16-QAM stage and, at each gain, their
    probabilities, in gains.shape + (64,); quarter prior over the
    first-quadrant transmit symbols."""
    dists, probs = [], []
    for txr, txi in FIRST_QUAD_16:
        for ci in range(4):
            for cq in range(4):
                probs.append(0.25 * pair_error_probabilities(
                    txr, txi, ci, cq, BOUNDS4, BOUNDS4, gains, n))
                dists.append(math.hypot(LEVELS4[ci] - txr, LEVELS4[cq] - txi))
    return np.array(dists), np.stack(probs, axis=-1)


def table_8qam(tx, gains, n: int):
    """The 8 error distances of an 8-QAM stage whose transmit symbol is
    pinned by its magnitude class and, at each gain, their probabilities,
    in gains.shape + (8,)."""
    txr, txi = tx
    dists, probs = [], []
    for ci in range(4):
        for cq in range(2):
            probs.append(pair_error_probabilities(
                txr, txi, ci, cq, BOUNDS4, BOUNDS2, gains, n))
            dists.append(math.hypot(LEVELS4[ci] - txr, LEVELS2[cq] - txi))
    return np.array(dists), np.stack(probs, axis=-1)


def eight_qam_conditional(mag_sq: float, g, n: int, fade=None):
    """Class-conditional fading-averaged BER of a rectangular 8-QAM user,
    elementwise over an array of gains g; fade must take arrays."""
    fade = fade or np.vectorize(fade_average_series, otypes=[float])
    if mag_sq == 2.0:
        return (3.0 * fade(g, n) + fade(9.0 * g, n)) / 3.0
    return (2.0 * fade(g, n) + fade(9.0 * g, n) - fade(25.0 * g, n)) / 3.0


# ---- dedicated-path BER references ----

def ref_qpsk_stage2_two_user(p1, p2, s1, s2, noise_var, n,
                             fade=None) -> float:
    fade = fade or fade_average_series
    a = 2.0 * p1 * s1 * s1 / (2.0 * p2 * s2 * s2 + noise_var)
    out = 0.0
    for d, pr in zip(QPSK_D, qpsk_triplet_series(a, n)):
        ai = 2.0 * p2 * s2 * s2 / (p1 * d * d * s1 * s1 + noise_var)
        out += pr * fade(ai, n)
    return out


def ref_qpsk_stage3_three_user(p, s, noise_var, n, fade=None) -> float:
    fade = fade or fade_average_series
    p1, p2, p3 = p
    s1, s2, s3 = s
    g = 2.0 * p1 * s1 ** 2 / (2.0 * p2 * s2 ** 2 + 2.0 * p3 * s3 ** 2 + noise_var)
    out = 0.0
    for d1, pr1 in zip(QPSK_D, qpsk_triplet_series(g, n)):
        gi = 2.0 * p2 * s2 ** 2 / (p1 * d1 * d1 * s1 ** 2
                                   + 2.0 * p3 * s3 ** 2 + noise_var)
        for d2, pr2 in zip(QPSK_D, qpsk_triplet_series(gi, n)):
            aij = 2.0 * p3 * s3 ** 2 / (p1 * d1 * d1 * s1 ** 2
                                        + p2 * d2 * d2 * s2 ** 2 + noise_var)
            out += pr1 * pr2 * fade(aij, n)
    return out


def ref_16_8_8_stage1(p, s, noise_var, n, fade=None) -> float:
    fade = fade or fade_average_series
    p1, p2, p3 = p
    s1, s2, s3 = s
    out = 0.0
    for m2 in (2.0, 10.0):
        for m3 in (2.0, 10.0):
            sig = noise_var + m2 * p2 * s2 ** 2 + m3 * p3 * s3 ** 2
            g = 2.0 * p1 * s1 ** 2 / sig
            out += 0.25 * (3.0 * fade(g, n) + 2.0 * fade(9.0 * g, n)
                           - fade(25.0 * g, n)) / 4.0
    return out


# The 16/8/8 stage-2 and stage-3 chains branch over every 16-QAM and
# 8-QAM error distance; each level is one array over its branches, so
# fade must take arrays.

def ref_16_8_8_stage2(p, s, noise_var, n, fade=None) -> float:
    p1, p2, p3 = p
    s1, s2, s3 = s
    out = 0.0
    for m2 in (2.0, 10.0):
        for m3 in (2.0, 10.0):
            sig1 = noise_var + m2 * p2 * s2 ** 2 + m3 * p3 * s3 ** 2
            d1, pr1 = table_16qam(2.0 * p1 * s1 ** 2 / sig1, n)
            sig2 = noise_var + m3 * p3 * s3 ** 2 + d1 * d1 * p1 * s1 ** 2
            cond = eight_qam_conditional(m2, 2.0 * p2 * s2 ** 2 / sig2, n, fade)
            out += 0.25 * float(np.sum(pr1 * cond))
    return out


def ref_16_8_8_stage3(p, s, noise_var, n, fade=None) -> float:
    p1, p2, p3 = p
    s1, s2, s3 = s
    out = 0.0
    for m2 in (2.0, 10.0):
        tx2 = (1.0, 1.0) if m2 == 2.0 else (3.0, 1.0)
        for m3 in (2.0, 10.0):
            sig1 = noise_var + m2 * p2 * s2 ** 2 + m3 * p3 * s3 ** 2
            d1, pr1 = table_16qam(2.0 * p1 * s1 ** 2 / sig1, n)
            sig2 = noise_var + m3 * p3 * s3 ** 2 + d1 * d1 * p1 * s1 ** 2
            d2, pr2 = table_8qam(tx2, 2.0 * p2 * s2 ** 2 / sig2, n)
            sig3 = (noise_var + (d1 * d1 * p1 * s1 ** 2)[:, None]
                    + d2 * d2 * p2 * s2 ** 2)
            cond = eight_qam_conditional(m3, 2.0 * p3 * s3 ** 2 / sig3, n, fade)
            out += 0.25 * float(np.sum(pr1[:, None] * pr2 * cond))
    return out


def ref_qpsk_stage_k(k, powers, sigmas, noise_var, n, fade=None) -> float:
    """Nested-triplet reference for any all-QPSK stage."""
    fade = fade or fade_average_series
    kk = len(powers)

    def gain(j, dists):
        tot = noise_var
        for d, pj, sj in zip(dists, powers, sigmas):
            tot += pj * d * d * sj * sj
        for pj, sj in zip(powers[j:], sigmas[j:]):
            tot += 2.0 * pj * sj * sj
        return 2.0 * powers[j - 1] * sigmas[j - 1] ** 2 / tot

    def walk(stage, dists, w):
        if stage == k:
            return w * fade(gain(k, dists), n)
        total = 0.0
        for d, pr in zip(QPSK_D, qpsk_triplet_series(gain(stage, dists), n)):
            total += walk(stage + 1, dists + (d,), w * pr)
        return total

    assert 1 <= k <= kk
    return walk(1, (), 1.0)


# ---- brute-force detection ----

def brute_force_joint_ml(y, channels, powers, point_sets):
    """Exhaustive joint ML; ties keep the first (lexicographically
    smallest) index tuple."""
    best, best_metric = None, None
    for combo in itertools.product(*(range(len(ps)) for ps in point_sets)):
        pred = np.zeros_like(np.asarray(y, dtype=complex))
        for h, p, ps, idx in zip(channels, powers, point_sets, combo):
            pred = pred + math.sqrt(p) * np.asarray(h) * ps[idx]
        metric = float(np.sum(np.abs(np.asarray(y) - pred) ** 2))
        if best_metric is None or metric < best_metric:
            best_metric, best = metric, combo
    return best


def direct_metric(y, channels, powers, point_sets, tuples):
    """||y - sum_k sqrt(P_k) h_k x_k||^2 of each column's candidates: y and
    the channels are (n, B), tuples is (T, K, B) symbol indices. Returns
    (T, B)."""
    pred = sum(math.sqrt(p) * np.asarray(h)[None] * ps[idx][:, None]
               for h, p, ps, idx in zip(channels, powers, point_sets,
                                         np.moveaxis(tuples, 1, 0)))
    return np.sum(np.abs(np.asarray(y)[None] - pred) ** 2, axis=1)


def relaxed_metric(y, channels, powers, point_sets, tuples, s):
    """The metric with user s's symbol free in the complex plane,
    ||r||^2 - |g_s^H r|^2 / ||g_s||^2 with r = y - sum over k != s of
    sqrt(P_k) h_k x_k; shapes as direct_metric, tuples[:, s] unused."""
    rest = [k for k in range(len(channels)) if k != s]
    pred = sum(math.sqrt(powers[k]) * np.asarray(channels[k])[None]
               * point_sets[k][tuples[:, k]][:, None] for k in rest)
    r = np.asarray(y)[None] - pred
    g_s = math.sqrt(powers[s]) * np.asarray(channels[s])
    along = np.sum(np.conj(g_s)[None] * r, axis=1)
    return (np.sum(np.abs(r) ** 2, axis=1)
            - np.abs(along) ** 2 / np.sum(np.abs(g_s) ** 2, axis=0))


def dense_gram_metrics(model, y, channels):
    """Every enumerated tuple's Gram score and sliced symbol of user s, in
    one (T, B) array each, by the joint detector's arithmetic: the form
    that scored every candidate before the detector pruned. s is the last
    user with the largest alphabet; rows are the others' tuples in
    lexicographic order."""
    from nomalab.detectors import _slice
    sizes = [u.constellation.size for u in model.users]
    s = max(range(model.k), key=lambda k: (sizes[k], k))
    g = np.stack([np.sqrt(u.power) * np.asarray(h)
                  for u, h in zip(model.users, channels)])
    gs_conj = np.conj(g[s])
    z = np.sum(gs_conj * y, axis=0)[None]
    proj_g = np.sum(gs_conj * g, axis=1)
    enum = [k for k in range(model.k) if k != s]
    g_conj = np.conj(g[enum])
    res = list(np.sum(g_conj * y, axis=1)[:, None])
    gram = np.sum(g_conj[:, None] * g[enum], axis=2)
    w = y.shape[1]
    part = np.zeros((1, w))
    for i, k in enumerate(enum):
        pts = model.users[k].constellation.points[:, None]
        r = res[i][:, None]
        part = (part[:, None] + np.abs(pts) ** 2 * gram[i, i].real
                - 2 * (pts.real * r.real + pts.imag * r.imag)).reshape(-1, w)
        for j in range(i + 1, len(enum)):
            res[j] = (res[j][:, None] - pts * gram[j, i]).reshape(-1, w)
        z = (z[:, None] - pts * proj_g[k]).reshape(-1, w)
    c_s = model.users[s].constellation
    sym = _slice(c_s, z, proj_g[s].real)
    xs = c_s.points[sym]
    energy = np.abs(c_s.points) ** 2
    return part + energy[sym] * proj_g[s].real - 2 * (
        xs.real * z.real + xs.imag * z.imag), sym


def exact_joint_metrics(y, channels, powers, point_sets):
    """The metric ||y - sum_k g_k x_k||^2 of every index tuple, in
    lexicographic order, as exact fractions of the float inputs: y is
    (n,), and g_k = sqrt(P_k) h_k is rounded as the detector rounds it."""
    def parts(v):
        return [(Fraction(float(z.real)), Fraction(float(z.imag))) for z in v]

    ys = parts(np.asarray(y, dtype=complex))
    gs = [parts(np.sqrt(p) * np.asarray(h)) for h, p in zip(channels, powers)]
    xs = [parts(ps) for ps in point_sets]
    out = []
    for combo in itertools.product(*(range(len(ps)) for ps in point_sets)):
        total = Fraction(0)
        for a, (yr, yi) in enumerate(ys):
            rr, ri = yr, yi
            for g, x, idx in zip(gs, xs, combo):
                (gr, gi), (xr, xi) = g[a], x[idx]
                rr -= gr * xr - gi * xi
                ri -= gr * xi + gi * xr
            total += rr * rr + ri * ri
        out.append(total)
    return out


def reference_sic(y, channels, powers, point_sets, order):
    """Plain-python MRC-SIC used to cross-check the vectorized detector."""
    y = np.asarray(y, dtype=complex)
    r = y.copy()
    out = [0] * len(channels)
    for idx in order:
        h = np.asarray(channels[idx])
        z = complex(np.vdot(h, r))
        scale = math.sqrt(powers[idx]) * float(np.sum(np.abs(h) ** 2))
        pts = point_sets[idx]
        if scale > 0:
            out[idx] = min(range(len(pts)),
                           key=lambda i: abs(z - scale * pts[i]) ** 2)
        r = r - math.sqrt(powers[idx]) * h * pts[out[idx]]
    return tuple(out)


def draw_batch(model, batch_size, key):
    """One Monte Carlo batch as (symbols, channels, y), drawn as the
    package drew it with fresh temporaries per product: each complex
    normal as sigma (g_re + 1j g_im), y as the noise plus each user's
    sqrt(P) h x in turn. The draw order is montecarlo._draw_batch's."""
    from nomalab.channel import generator

    rng = generator(key)
    n = model.n_antennas

    def complex_normal(sigma):
        g = rng.standard_normal((2, n, batch_size))
        return sigma * (g[0] + 1j * g[1])

    sym = [rng.integers(0, u.constellation.size, size=batch_size)
           for u in model.users]
    chans = [complex_normal(u.sigma) for u in model.users]
    y = complex_normal(model.noise_sigma)
    for u, h, s in zip(model.users, chans, sym):
        y += np.sqrt(u.power) * h * u.constellation.points[s]
    return sym, chans, y


# ---- SEP table at 50 digits ----

def _tail_terms(u):
    """The two-term model's tail at signed boundary offset u (an integer
    or +-inf) as exact (coefficient, rate) pairs of e^(-rate g z)."""
    if u == INF:
        return []
    if u == -INF:
        return [(Fraction(1), Fraction(0))]
    terms = [(Fraction(1, 12), Fraction(u * u, 2)),
             (Fraction(1, 4), Fraction(2 * u * u, 3))]
    if u > 0:
        return terms
    return [(Fraction(1), Fraction(0))] + [(-w, r) for w, r in terms]


def _axis_cells(m: int, x: int):
    """(squared distance, bracket terms) of each cell of an m-level axis
    for the transmitted level x: tail(lower) - tail(upper)."""
    bounds = [-INF] + list(range(2 - m, m - 1, 2)) + [INF]
    return [((level - x) ** 2,
             _tail_terms(bounds[j] - x)
             + [(-w, r) for w, r in _tail_terms(bounds[j + 1] - x)])
            for j, level in enumerate(range(1 - m, m, 2))]


@lru_cache(maxsize=None)
def _sep_terms(m_i: int, m_q: int, tx: tuple[tuple[int, int], ...]):
    """{d^2: {rate: coefficient}}, exact, of a uniform choice among the
    points tx: every product of an I and a Q bracket term, cell by cell."""
    prior = Fraction(1, len(tx))
    table: dict[int, dict[Fraction, Fraction]] = {}
    for x, y in tx:
        for d2_i, terms_i in _axis_cells(m_i, x):
            for d2_q, terms_q in _axis_cells(m_q, y):
                row = table.setdefault(d2_i + d2_q, {})
                for w_i, r_i in terms_i:
                    for w_q, r_q in terms_q:
                        row[r_i + r_q] = row.get(r_i + r_q, 0) + prior * w_i * w_q
    return table


def sep_table_mp(c, tx_set, gain: float, n: int):
    """SEP table of a uniform choice among the symbols tx_set under the
    two-term model, as (distance, probability) pairs, ascending: each
    probability sum_R coef_R (1 + g R)^(-n) with exact rational
    coefficients and rates, evaluated at 50 digits."""
    import mpmath as mp

    tx = tuple((int(p.real), int(p.imag)) for p in c.points[list(tx_set)])
    out = []
    with mp.workdps(50):
        g = mp.mpf(float(gain))
        for d2, row in sorted(_sep_terms(c.m_i, c.m_q, tx).items()):
            p = mp.fsum(mp.mpf(w.numerator) / w.denominator
                        * (1 + g * mp.mpf(r.numerator) / r.denominator) ** (-n)
                        for r, w in row.items() if w)
            out.append((math.sqrt(d2), float(p)))
    return tuple(out)


# ---- uncached per-stage tree walk ----

def reference_walk_ber(model, k, mode="exact"):
    """Stage-k BER from a walk over stages 1..k that builds every SEP
    table afresh and adds leaves in depth-first order, without pruning.

    It reuses the package's per-node kernels (sep_table_user and
    conditional_ber_user), so it checks the shared walk: class
    assignments, weights and upstream distances."""
    from nomalab.analytic import (class_assignments, conditional_ber_user,
                                  sep_table_user)

    total = 0.0

    def walk(stage, classes, distances, weight):
        nonlocal total
        if stage == k:
            total += weight * conditional_ber_user(model, k, classes,
                                                   distances, mode)
            return
        for d, p in sep_table_user(model, stage, classes, distances):
            walk(stage + 1, classes, distances + (d,), weight * p)

    for classes, weight in class_assignments(model):
        walk(1, classes, (), weight)
    return total


@lru_cache(maxsize=None)
def _per_assignment_plan(consts, mode):
    """The per-assignment walk's fixed part: unpruned leaves per column,
    and per class assignment its weight, the squared magnitudes of stages
    2..K and per stage (alphabet, class, leaf terms, distances)."""
    from nomalab.analytic import (_assignments, _leaf_terms, _resolve_mode,
                                  _table_distances)

    modes = [_resolve_mode(c, mode) for c in consts]
    out = []
    leaves = 0
    for classes, weight in _assignments(consts[1:]):
        tx_classes = (None,) + classes
        levels = tuple(
            (c, cls, _leaf_terms(c, cls, m),
             np.array(_table_distances(c, cls)) if i + 1 < len(consts) else None)
            for i, (c, cls, m) in enumerate(zip(consts, tx_classes, modes)))
        mags = np.array([cls.squared_magnitude for cls in classes])
        out.append((weight, mags, levels))
        leaves += math.prod(len(level[3]) for level in levels[:-1])
    return leaves, tuple(out)


def leaf_bers(terms, gains, n: int) -> list[np.ndarray]:
    """Conditional BERs at each array in gains, with the matching
    _leaf_terms in terms. One erlang_fade_average call serves them all;
    each BER adds its terms in order."""
    from nomalab.kernels import erlang_fade_average

    args = [np.multiply.outer(g, [d2 for _, d2 in t]).ravel()
            for g, t in zip(gains, terms)]
    fades = erlang_fade_average(np.concatenate(args) if len(args) > 1 else args[0], n)
    out = []
    lo = 0
    for g, t in zip(gains, terms):
        f = fades[lo:lo + g.size * len(t)].reshape(g.size, len(t))
        lo += f.size
        ber = t[0][0] * f[:, 0]  # is 0 + it: the nearest term's coef is > 0
        for j in range(1, len(t)):
            ber += t[j][0] * f[:, j]
        out.append(ber)
    return out



def per_assignment_walk(model, powers, mode, prune_threshold, max_leaves):
    """(stage BERs, pruned mass), both (P, K), from a walk that runs one
    pass per class assignment, adding each assignment's stage sums and
    pruned mass in assignment order: the walk the package's one-level-
    per-stage walk must match bit for bit. It reuses the package's SEP
    kernel (_sep_table) and its WALK_LEAVES column slices, and takes the
    leaf BERs of its live rows through leaf_bers above."""
    from nomalab import analytic
    from nomalab.errors import CapacityError

    def count_leaves(new):
        leaves[:] += new
        if leaves.max() > max_leaves:
            raise CapacityError(f"expansion tree exceeds {max_leaves} leaves")

    stages = model.stage_profiles()
    leaf_bound, plan = _per_assignment_plan(
        tuple(u.constellation for u in stages), mode)
    count = powers.shape[0]
    chunk = max(1, analytic.WALK_LEAVES // min(leaf_bound, max_leaves))
    if count > chunk:
        parts = [per_assignment_walk(model, powers[lo:lo + chunk], mode,
                                     prune_threshold, max_leaves)
                 for lo in range(0, count, chunk)]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))
    k = model.k
    sigma_sq = np.array([u.sigma**2 for u in stages])
    numerators = 2.0 * powers * sigma_sq
    noise_sq = model.noise_sigma**2
    n = model.n_antennas
    dropped = np.zeros((count, k))
    leaves = np.zeros(count)
    rows_at = []
    gains, terms = [], []
    for weight, mags, levels in plan:
        if weight < prune_threshold:
            dropped += weight
            continue
        down = powers[:, 1:] * mags * sigma_sq[1:]
        col = np.arange(count)
        up = np.full(count, noise_sq)
        w = np.full(count, weight)
        if k == 1:
            count_leaves(1)
        for i, (c, tx_class, leaf_terms, dists) in enumerate(levels):
            sigma_tot_sq = up
            for j in range(i, k - 1):
                sigma_tot_sq = sigma_tot_sq + down[col, j]
            gain = numerators[col, i] / sigma_tot_sq
            rows_at.append((i, col, w))
            gains.append(gain)
            terms.append(leaf_terms)
            if i + 1 == k:
                break
            child_w = w[:, None] * analytic._sep_table(c, tx_class, gain, n)
            keep = ~(child_w < prune_threshold)
            if i + 2 == k:
                count_leaves(np.bincount(col, keep.sum(axis=1), count))
            if not keep.all():
                cut = ~keep
                dropped[:, i + 1:] += np.bincount(
                    np.broadcast_to(col[:, None], cut.shape)[cut],
                    child_w[cut], count)[:, None]
            rows, slots = np.nonzero(keep)
            col = col[rows]
            d = dists[slots]
            up = up[rows] + powers[col, i] * d * d * sigma_sq[i]
            w = child_w[keep]
    totals = np.zeros((count, k))
    bers = leaf_bers(terms, gains, n) if gains else []
    for (i, col, w), ber in zip(rows_at, bers):
        totals[:, i] += np.bincount(col, w * ber, minlength=count)
    return totals, dropped


# ---- sequential power-allocation descent ----

def _reference_armijo(model, p, cost, grad, cfg, limits):
    """One start's Armijo search, two rungs per cost call."""
    from nomalab.poweralloc import sum_ber_db_cost

    ladder = []
    step = cfg.step0_db
    while step >= cfg.min_step_db:
        ladder.append(step)
        step *= 0.5
    for lo in range(0, len(ladder), 2):
        cands = np.minimum(p - np.multiply.outer(ladder[lo:lo + 2], grad),
                           cfg.p_max_db)
        costs = sum_ber_db_cost(model, cands, cfg.mode, *limits)
        for cand, cand_cost in zip(cands, costs.tolist()):
            # sufficient decrease against the projected displacement
            if cand_cost <= cost - cfg.armijo_c * float(grad @ (p - cand)):
                return cand, cand_cost
    return None


def reference_descend(model, p0, cfg, limits):
    """One start's projected-gradient descent, run alone, with the reason
    it stopped: the sequential reference that each start of the package's
    pipelined descent must match bit for bit. Returns (p, cost, trace,
    reason), reason one of "max_iters", "gradient", "ladder" and "tol"."""
    from nomalab.poweralloc import sum_ber_db_cost

    pmax = cfg.p_max_db
    p = np.minimum(np.asarray(p0, dtype=float), pmax)
    cost = sum_ber_db_cost(model, p, cfg.mode, *limits)
    trace = [cost]
    k = model.k
    probes = cfg.fd_step_db * np.eye(k)
    reason = "max_iters"
    for _ in range(cfg.max_iters):
        # central differences: the 2K probes p +- step e_i share one walk
        costs = sum_ber_db_cost(model, np.vstack([p + probes, p - probes]),
                                cfg.mode, *limits)
        grad = (costs[:k] - costs[k:]) / (2.0 * cfg.fd_step_db)
        if not np.all(np.isfinite(grad)) or float(grad @ grad) == 0.0:
            reason = "gradient"
            break
        accepted = _reference_armijo(model, p, cost, grad, cfg, limits)
        if accepted is None:
            reason = "ladder"
            break
        improvement = cost - accepted[1]
        p, cost = accepted
        trace.append(cost)
        if improvement < cfg.tol_db:
            reason = "tol"
            break
    return p, cost, tuple(trace), reason
