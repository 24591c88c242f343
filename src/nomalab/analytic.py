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
rows, one column per power vector, a node's children contiguous and in
table order; a node stays while any column keeps it above the pruning
threshold. Each kernel runs once per level over all its rows, and the
leaf BERs once per walk. A stage sums weight x conditional BER over
its level's rows, per column; a column's rows keep their order whatever
the others hold, so every column gets the result it gets alone.

Both per-node kernels compile once per alphabet and transmitted class:
the SEP table is kernels.sep_program (the QPSK one has a closed form,
the error-distance triplet), and the conditional BER is pairs with
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
from .kernels import (erlang_fade_average, qpsk_sep_triplet, sep_probabilities,
                      sep_program)

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
    if c.is_qpsk:
        return np.array(qpsk_sep_triplet(gain, n)).T
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
    if not gains:
        return []
    args = [np.multiply.outer(g, [d2 for _, d2 in t]).ravel()
            for g, t in zip(gains, terms)]
    fades = erlang_fade_average(np.concatenate(args), n)
    out = []
    lo = 0
    for g, t in zip(gains, terms):
        f = fades[lo:lo + g.size * len(t)].reshape(g.size, len(t))
        lo += f.size
        ber = np.zeros(g.size)
        for j, (coef, _) in enumerate(t):
            ber += coef * f[:, j]
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
    leaves per column without pruning, and per class assignment its
    weight, the squared magnitudes of stages 2..K, and per stage its
    alphabet, transmitted class, leaf terms and SEP-table distances."""
    modes = [_resolve_mode(c, mode) for c in consts]
    out = []
    leaves = 0
    for classes, weight in _assignments(consts[1:]):
        tx_classes = (None,) + classes
        levels = tuple(
            (c, cls, _leaf_terms(c, cls, m), np.array(_table_distances(c, cls)))
            for c, cls, m in zip(consts, tx_classes, modes))
        mags = np.array([cls.squared_magnitude for cls in classes])
        out.append((weight, mags, levels))
        leaves += math.prod(len(level[3]) for level in levels[:-1])
    return leaves, tuple(out)


def _count_leaves(leaves: np.ndarray, new, max_leaves: int) -> None:
    """Add new leaves per column; CapacityError past max_leaves."""
    leaves += new
    if leaves.max() > max_leaves:
        raise CapacityError(f"expansion tree exceeds {max_leaves} leaves")


def _walk(model: SystemModel, powers: np.ndarray, mode: str,
          prune_threshold: float, max_leaves: int):
    """BERs of stages 1..K for each row of powers, a (P, K) array of
    linear powers in stage order, as a (P, K) array; and per column the
    mass pruned before each stage, as a (P, K) array.

    A level holds (node, column) rows: its column col, the upstream noise
    up and the weight w. A child row stays while its weight is at least
    prune_threshold; a node with no row left is not expanded. The
    upstream noise is carried down in stage order, and the downstream
    terms are added after it. Leaf BERs wait for one kernel call after
    the descent; then stage i of a column is the sum of w times its BER
    over the column's rows at level i. Columns go in slices of at most
    WALK_LEAVES unpruned leaves, which bounds the memory a level takes."""
    stages = model.stage_profiles()
    leaf_bound, plan = _plan(tuple(u.constellation for u in stages), mode)
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
    dropped = np.zeros((count, k))
    leaves = np.zeros(count)
    rows_at = []  # per level of every assignment: (stage index, col, w)
    gains, terms = [], []
    for weight, mags, levels in plan:
        if weight < prune_threshold:
            dropped += weight
            continue
        down = powers[:, 1:] * mags * sigma_sq[1:]  # interference of stages 2..K
        col = np.arange(count)
        up = np.full(count, noise_sq)
        w = np.full(count, weight)
        if k == 1:
            _count_leaves(leaves, 1, max_leaves)
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
            child_w = w[:, None] * _sep_table(c, tx_class, gain, n)
            keep = ~(child_w < prune_threshold)
            if i + 2 == k:  # count the leaves before making their rows
                _count_leaves(leaves, np.bincount(col, keep.sum(axis=1), count),
                              max_leaves)
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
    for (i, col, w), ber in zip(rows_at, _leaf_bers(terms, gains, n)):
        totals[:, i] += np.bincount(col, w * ber, minlength=count)
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
