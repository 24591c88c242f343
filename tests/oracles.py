"""Reference implementations used only by the tests.

Everything here is written independently of the package internals:
literal series forms, direct quadrature, hard-coded constellation
geometry, and brute-force searches. The three exceptions reuse package
kernels to check one layer alone: reference_sep_entries merges the
package's cell tables, reference_walk_ber walks the package's per-node
kernels, and reference_descend runs one power-allocation start alone on
the package's cost function. Tests compare package outputs against
these, or freeze values computed from them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

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


# ---- SEP table by cell merge ----

def reference_sep_entries(c, tx_class, gain, n):
    """SEP table entries (distance, probability), ascending: every cell
    of every admissible tx's cell_probability_table, weighted by the
    uniform prior and merged by distance rounded to 12 digits."""
    from nomalab.analytic import _admissible_tx
    from nomalab.kernels import cell_probability_table

    tx_set = _admissible_tx(c, tx_class)
    prior = 1.0 / len(tx_set)
    acc = {}
    for tx_idx in tx_set:
        tx = complex(c.points[tx_idx])
        table = cell_probability_table(c, tx, gain, n).tolist()
        for ci in range(c.m_i):
            for cq in range(c.m_q):
                center = complex(c.levels_i[ci], c.levels_q[cq])
                d = round(abs(tx - center), 12)
                acc[d] = acc.get(d, 0.0) + prior * table[ci][cq]
    return tuple(sorted(acc.items()))


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
    lock-step descent must match bit for bit. Returns (p, cost, trace,
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
