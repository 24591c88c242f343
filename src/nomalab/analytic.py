"""Closed-form average BER for SIC detection under Rayleigh fading.

One breadth-first walk, in decoding-stage order (stage 1 decoded first),
yields the BER of every stage for a batch of power vectors. Its roots
are the magnitude-class assignments for stages 2..K, weighted by class
priors. A node at depth k carries the upstream error distances d_j,
j < k, and sees
    sigma_tot^2 = sigma_n^2 + sum_{j<k} P_j d_j^2 sigma_j^2
                            + sum_{j>k} P_j |x_j|^2 sigma_j^2
(residuals strictly upstream, uncancelled interference strictly
downstream) at SINR parameter 2 P_k sigma_k^2 / sigma_tot^2. It adds
its weighted stage-k BER, then expands stage k's SEP table (error
distances d_k with closed-form probabilities) to depth k + 1.

The walk goes level by level. A level is an array of (node, column)
rows of every class assignment, one column per power vector, a node's
children contiguous and in table order; a node stays while any column
keeps it above the pruning threshold. The SEP kernel runs once per
level and transmitted class, the leaf BERs once per walk. A stage sums
weight x conditional BER over its level's rows per assignment and
column, then adds the assignments in order; an assignment's rows keep
their order whatever the others hold, so every column gets the result
it gets alone, bit for bit.

Both per-node kernels compile once per alphabet and transmitted class,
QPSK included: the SEP table is kernels.sep_program, one exact matrix
over the table's unique rates, and the conditional BER is pairs with
BER = sum coef * erlang_fade_average(gain * d^2, n). Only these leaf
pairs depend on the mode: "exact" walks the Gray decision boundaries of
each axis, "approx" charges one fading tail per adjacent boundary.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .constellation import (Constellation, _axis_gray_labels, magnitude_classes,
                            neighbor_count)
from .detectors import SystemModel
from .errors import CapacityError
from .kernels import erlang_fade_average, sep_probabilities, sep_program

DEFAULT_PRUNE = 1e-12
DEFAULT_MAX_LEAVES = 10_000_000
AUTO_APPROX_ORDER = 64  # mode "auto" gives stages of this many points approx leaves
WALK_LEAVES = 1 << 18  # unpruned leaves, over all columns, that one walk holds


def _check_stage(model: SystemModel, k: int) -> None:
    if not isinstance(k, int) or not 1 <= k <= model.k:
        raise ValueError(f"stage {k} out of range 1..{model.k}")


def effective_noise_variance(model: SystemModel, k: int, d, x_mags) -> float:
    """Effective per-real-dimension noise variance seen by stage k.

    d: upstream error distances, one per stage j < k.
    x_mags: squared magnitudes |x_j|^2, one per downstream stage j > k.
    """
    _check_stage(model, k)
    stages = model.stage_profiles()
    d = tuple(float(v) for v in d)
    x_mags = tuple(float(v) for v in x_mags)
    if len(d) != k - 1:
        raise ValueError(f"expected {k - 1} upstream distances, got {len(d)}")
    if len(x_mags) != model.k - k:
        raise ValueError(f"expected {model.k - k} downstream magnitudes, got {len(x_mags)}")
    total = model.noise_sigma**2
    for dist, u in zip(d, stages[:k - 1]):
        total += u.power * dist * dist * u.sigma**2
    for mag, u in zip(x_mags, stages[k:]):
        total += u.power * mag * u.sigma**2
    return total


@lru_cache(maxsize=None)
def _admissible_tx(c: Constellation, tx_class) -> tuple[int, ...]:
    """Representative symbols with nonnegative coordinates, positive on
    any non-degenerate axis, restricted to tx_class unless None."""
    out = tuple(i for i in range(c.size)
                if (c.m_i == 1 or c.points[i].real > 0)
                and (c.m_q == 1 or c.points[i].imag > 0)
                and (tx_class is None or i in tx_class.members))
    if not out:
        raise ValueError("magnitude class has no first-quadrant representative")
    return out


def _sep_table(c: Constellation, tx_class, gain, n: int) -> np.ndarray:
    """SEP table probabilities at each gain, in gain.shape + (D,), for
    the distances of _table_distances(c, tx_class)."""
    return sep_probabilities(sep_program(c, _admissible_tx(c, tx_class)), gain, n)


def _table_distances(c: Constellation, tx_class) -> tuple[float, ...]:
    """Error distances of a SEP table, ascending."""
    return sep_program(c, _admissible_tx(c, tx_class))[0]


@lru_cache(maxsize=None)
def _leaf_terms(c: Constellation, tx_class, mode: str):
    """Conditional BER as (coef, d^2) pairs, ascending in d^2. "exact":
    each axis slot off the transmitted level holds f(near) - f(far), the
    fading tails at its two boundary offsets, once per Gray bit it flips;
    no constant term survives, so tiny slots never cancel to 1-(1-eps).
    "approx": f at unit offset once per adjacent decision boundary."""
    tx_set = _admissible_tx(c, tx_class)
    norm = len(tx_set) * c.bits_per_symbol
    if mode == "approx":
        return ((sum(neighbor_count(c, i) for i in tx_set) / norm, 1.0),)
    acc: dict[float, int] = {}
    for tx_idx in tx_set:
        for m, levels, bounds, slot in (
                (c.m_i, c.levels_i, c.boundaries_i, int(c.level_index_i[tx_idx])),
                (c.m_q, c.levels_q, c.boundaries_q, int(c.level_index_q[tx_idx]))):
            labels = _axis_gray_labels(m)
            offsets = [abs(float(b - levels[slot])) for b in bounds]
            for j in range(m):
                flips = sum(a != b for a, b in zip(labels[j], labels[slot]))
                if not flips:  # also the transmitted level's own slot
                    continue
                near, far = sorted(offsets[j:j + 2])
                acc[near] = acc.get(near, 0) + flips
                if not math.isinf(far):
                    acc[far] = acc.get(far, 0) - flips
    return tuple((coef / norm, d * d) for d, coef in sorted(acc.items()) if coef)


def _leaf_bers(terms, gains, n: int) -> list[np.ndarray]:
    """Conditional BERs at each array in gains, with the matching
    _leaf_terms in terms. One erlang_fade_average call serves them all;
    each BER adds its terms in order."""
    args = [np.multiply.outer(g, [d2 for _, d2 in t]).ravel()
            for g, t in zip(gains, terms)]
    fades = erlang_fade_average(np.concatenate(args), n)
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


def _stage_point(model: SystemModel, k: int, classes, distances):
    """Alphabet, transmitted class and SINR parameter of stage k under
    the class assignment classes of stages 2..K and the upstream error
    distances of stages 1..k-1."""
    _check_stage(model, k)
    if len(classes) != model.k - 1:
        raise ValueError(f"expected {model.k - 1} class assignments "
                         f"(stages 2..K), got {len(classes)}")
    x_mags = [cls.squared_magnitude for cls in classes[k - 1:]]
    u = model.stage_profiles()[k - 1]
    gain = (2.0 * u.power * u.sigma**2
            / effective_noise_variance(model, k, distances, x_mags))
    return u.constellation, classes[k - 2] if k >= 2 else None, gain


def sep_table_user(model: SystemModel, k: int, classes, distances=()):
    """Closed-form error-distance table of stage k under a class
    assignment and upstream distances, as in _stage_point:
    (distance, probability) pairs, ascending in distance."""
    c, tx_class, gain = _stage_point(model, k, classes, distances)
    probs = _sep_table(c, tx_class, gain, model.n_antennas).tolist()
    return tuple(zip(_table_distances(c, tx_class), probs))


def conditional_ber_user(model: SystemModel, k: int, classes, distances=(),
                         mode: str = "exact") -> float:
    """BER of stage k under a class assignment and upstream distances,
    as in _stage_point."""
    c, tx_class, gain = _stage_point(model, k, classes, distances)
    if mode not in ("exact", "approx"):
        raise ValueError(f"unknown mode {mode!r}")
    terms = _leaf_terms(c, tx_class, mode)
    return float(_leaf_bers([terms], [np.array([gain])], model.n_antennas)[0][0])


@lru_cache(maxsize=None)
def _assignments(consts: tuple[Constellation, ...]):
    """Magnitude-class assignments of the alphabets consts, with prior
    weights."""
    out = []
    for combo in itertools.product(*(magnitude_classes(c) for c in consts)):
        weight = 1.0
        for cls in combo:
            weight *= cls.probability
        out.append((tuple(combo), weight))
    return tuple(out)


def class_assignments(model: SystemModel):
    """Magnitude-class assignments for stages 2..K with prior weights."""
    stages = model.stage_profiles()
    return list(_assignments(tuple(u.constellation for u in stages[1:])))


def _resolve_mode(c: Constellation, mode: str) -> str:
    if mode in ("exact", "approx"):
        return mode
    if mode != "auto":
        raise ValueError(f"unknown mode {mode!r}")
    return "approx" if c.size >= AUTO_APPROX_ORDER else "exact"


@lru_cache(maxsize=None)
def _plan(consts: tuple[Constellation, ...], mode: str):
    """The walk's fixed part for stage alphabets consts: the number of
    leaves per column without pruning; the class assignments' weights,
    (A,), and squared magnitudes of stages 2..K, (A, 1, K-1); and per stage
    the class group of each assignment, (A,), and per group (alphabet,
    transmitted class, SEP-table distances) and leaf terms. The last
    stage has no SEP table (None): its programs are never compiled."""
    combos = _assignments(consts[1:])
    weights = np.array([weight for _, weight in combos])
    mags = np.array([[cls.squared_magnitude for cls in classes]
                     for classes, _ in combos]).reshape(len(combos), 1, -1)
    leaves = sum(math.prod(len(_table_distances(c, cls))
                           for c, cls in zip(consts[:-1], (None,) + classes))
                 for classes, _ in combos)
    levels = []
    for i, c in enumerate(consts):
        members: dict = {}  # transmitted class: its assignments
        for a, (classes, _) in enumerate(combos):
            members.setdefault(((None,) + classes)[i], []).append(a)
        group_of = np.zeros(len(combos), dtype=np.int64)
        for g, group in enumerate(members.values()):
            group_of[group] = g
        last = i + 1 == len(consts)
        groups = tuple((c, cls, None if last else np.array(_table_distances(c, cls)))
                       for cls in members)
        terms = tuple(_leaf_terms(c, cls, _resolve_mode(c, mode)) for cls in members)
        levels.append((group_of, groups, terms))
    return leaves, weights, mags, tuple(levels)


def _walk(model: SystemModel, powers: np.ndarray, mode: str,
          prune_threshold: float, max_leaves: int):
    """BERs of stages 1..K for each row of powers, a (P, K) array of
    linear powers in stage order, as a (P, K) array; and per column the
    mass pruned before each stage, as a (P, K) array.

    A level holds (node, column) rows of every class assignment whose
    weight is at least prune_threshold: the key assignment * P + column,
    the upstream noise up and the weight w. The rows of a class group go
    together, each assignment's in its own order, and share a SEP kernel
    call. A child row stays while its weight is at least prune_threshold.
    The upstream noise is carried down in stage order, and the downstream
    terms are added after it. After the descent, one kernel call gives
    the leaf BERs; stage i adds, assignment by assignment, the sum of w
    times BER over the assignment's rows at level i, as the pruned mass
    is added, so each column gets what it gets alone. Columns go in
    slices of at most WALK_LEAVES unpruned leaves."""
    stages = model.stage_profiles()
    leaf_bound, weights, mags, levels = _plan(
        tuple(u.constellation for u in stages), mode)
    count = powers.shape[0]
    chunk = max(1, WALK_LEAVES // min(leaf_bound, max_leaves))
    if count > chunk:  # columns are independent: walk them in slices
        parts = [_walk(model, powers[lo:lo + chunk], mode, prune_threshold,
                       max_leaves) for lo in range(0, count, chunk)]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))
    k = model.k
    sigma_sq = np.array([u.sigma**2 for u in stages])
    numerators = 2.0 * powers * sigma_sq
    noise_sq = model.noise_sigma**2
    if not (0.0 < noise_sq < math.inf and np.isfinite(numerators).all()):
        raise ValueError("noise_sigma^2 or 2 P sigma^2 is out of float range")
    n = model.n_antennas
    every = weights.tolist()
    live = [a for a, weight in enumerate(every) if not weight < prune_threshold]
    if k == 1 and len(live) > max_leaves:
        raise CapacityError(f"expansion tree exceeds {max_leaves} leaves")
    width = len(every) * count
    key, w = np.arange(width), weights.repeat(count)
    if len(live) < len(every):
        key, w = key.reshape(-1, count)[live].ravel(), weights[live].repeat(count)
    up = np.empty(key.size)
    up.fill(noise_sq)
    # per key: the interference of stages 2..K, 2 P sigma^2 and P
    down = (powers[:, 1:] * mags * sigma_sq[1:]).reshape(width, k - 1)
    if len(every) > 1:
        numerators, powers = (np.tile(x, (len(every), 1)) for x in (numerators, powers))
    # a column holds at most leaf_bound leaves: count them only past max_leaves
    leaves = np.zeros(count) if leaf_bound > max_leaves else None
    walked, leaf_terms, leaf_gains = [], [], []  # per level; per level and group
    cuts = []  # (stage index, mass cut per key) per level and group that prunes
    for i, (group_of, groups, terms) in enumerate(levels):
        spans = ((0, key.size),)
        if len(groups) > 1:
            of_row = group_of[key // count]
            order = of_row.argsort(kind="stable")
            key, up, w = key[order], up[order], w[order]
            ends = np.bincount(of_row, minlength=len(groups)).cumsum().tolist()
            spans = tuple(zip([0] + ends, ends))
        sigma_tot_sq = up
        for j in range(i, k - 1):
            sigma_tot_sq = sigma_tot_sq + down[key, j]
        gain = numerators[key, i] / sigma_tot_sq
        walked.append((key, w, len(groups)))
        leaf_terms += terms
        leaf_gains += [gain] if len(spans) == 1 else [gain[lo:hi] for lo, hi in spans]
        if i + 1 == k:
            break
        children = []
        for (lo, hi), (c, tx_class, dists) in zip(spans, groups):
            g_key = key[lo:hi]
            child_w = w[lo:hi, None] * _sep_table(c, tx_class, gain[lo:hi], n)
            cut = child_w < prune_threshold
            if np.count_nonzero(cut):
                cuts.append((i, np.bincount(g_key[cut.nonzero()[0]], child_w[cut], width)))
            keep = ~cut
            if i + 2 == k and leaves is not None:
                leaves += np.bincount(g_key % count, keep.sum(axis=1), count)
            rows, slots = keep.nonzero()
            g_key = g_key[rows]
            d = dists[slots]
            children.append((g_key, up[lo:hi][rows]
                             + powers[g_key, i] * d * d * sigma_sq[i],
                             child_w[keep]))
        if i + 2 == k and leaves is not None and leaves.max() > max_leaves:
            raise CapacityError(f"expansion tree exceeds {max_leaves} leaves")
        key, up, w = (children[0] if len(children) == 1
                      else map(np.concatenate, zip(*children)))
    bers = iter(_leaf_bers(leaf_terms, leaf_gains, n))
    totals = np.zeros((count, k))
    for i, (key, w, groups) in enumerate(walked):
        ber = np.concatenate([next(bers) for _ in range(groups)]) if groups > 1 \
            else next(bers)
        sums = np.bincount(key, w * ber, width)
        for a in live:
            totals[:, i] += sums[a * count:(a + 1) * count]
    dropped = np.zeros((count, k))
    for a, weight in enumerate(every):
        if weight < prune_threshold:
            dropped += weight
            continue
        for i, mass in cuts:
            dropped[:, i + 1:] += mass[a * count:(a + 1) * count, None]
    return totals, dropped


def stage_bers_grid(model: SystemModel, powers, mode: str = "auto",
                    prune_threshold: float = DEFAULT_PRUNE,
                    max_leaves: int = DEFAULT_MAX_LEAVES) -> np.ndarray:
    """Average BER of every decoding stage for each of P power vectors.

    powers is a (P, K) array of linear per-user powers in user order;
    the result is (P, K), each row in stage order. One walk serves all
    rows, and each row equals what it gives alone. Pruning and the leaf
    limit apply per row, as in stage_bers.
    """
    powers = np.asarray(powers, dtype=float)
    if powers.ndim != 2 or powers.shape[1] != model.k:
        raise ValueError(f"powers must be (P, {model.k}), got {powers.shape}")
    if not np.all(powers >= 0):
        raise ValueError("user power must be nonnegative")
    powers = powers[:, list(model.decode_order())]
    return _walk(model, powers, mode, prune_threshold, max_leaves)[0]


def stage_bers(model: SystemModel, mode: str = "auto",
               prune_threshold: float = DEFAULT_PRUNE,
               max_leaves: int = DEFAULT_MAX_LEAVES) -> tuple[float, ...]:
    """Average BER of every decoding stage 1..K, in stage order, from one
    walk over the expansion tree: stage_bers_grid's batch of one.

    mode "auto" picks "approx" for stages whose alphabet has at least
    AUTO_APPROX_ORDER points and "exact" otherwise. Branches whose
    accumulated probability falls below prune_threshold are dropped;
    more than max_leaves nodes at depth K raise CapacityError.
    """
    bers = stage_bers_grid(model, [[u.power for u in model.users]], mode,
                           prune_threshold, max_leaves)
    return tuple(bers[0].tolist())


def ber_user_qam(model: SystemModel, k: int, mode: str = "exact",
                 prune_threshold: float = DEFAULT_PRUNE,
                 max_leaves: int = DEFAULT_MAX_LEAVES) -> float:
    """Average BER of stage k, any rectangular alphabets: entry k of
    stage_bers, so the leaf limit counts the leaves at depth K."""
    _check_stage(model, k)
    return stage_bers(model, mode, prune_threshold, max_leaves)[k - 1]


def ber_user_qpsk(model: SystemModel, k: int) -> float:
    """Average BER of stage k in an all-QPSK system, without pruning."""
    if not all(u.constellation.is_qpsk for u in model.users):
        raise ValueError("ber_user_qpsk requires every user to be QPSK")
    return ber_user_qam(model, k, "exact", prune_threshold=0.0)


def ber_user(model: SystemModel, k: int, mode: str = "auto",
             prune_threshold: float = DEFAULT_PRUNE,
             max_leaves: int = DEFAULT_MAX_LEAVES) -> float:
    """Average BER of decoding stage k."""
    return ber_user_qam(model, k, mode, prune_threshold, max_leaves)


def sum_ber(model: SystemModel, mode: str = "auto",
            prune_threshold: float = DEFAULT_PRUNE,
            max_leaves: int = DEFAULT_MAX_LEAVES) -> float:
    """Sum of per-stage average BERs (the power-allocation objective)."""
    return sum(stage_bers(model, mode, prune_threshold, max_leaves))
