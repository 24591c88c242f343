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

The walk has one fixed shape per tuple of stage alphabets: every node
of every level, a node's children contiguous and in table order, the
same for each column (power vector). A node's gain depends only on its
upstream distances, so every gain comes first; then the SEP kernel runs
once per compiled program over its nodes at every level, and the
weights follow level by level. Pruning is per node and column: a weight
below the threshold becomes 0, so nothing under it counts. A node's
level and noise factors fix its gain, so the one leaf-BER call takes
each distinct fading argument (gain x d^2) once, for every node, pruned
or not: a pruned node adds BER x 0 = 0. A stage sums
weight x conditional BER over its level per assignment and column, then
adds the assignments in order; an assignment's nodes keep their order
whatever the others hold, so every column gets the result it gets
alone, bit for bit.

Both per-node kernels compile once per alphabet and transmitted class,
QPSK included: the SEP table is kernels.sep_program, one exact matrix
over the table's unique rates, and the conditional BER is pairs with
BER = sum coef * erlang_fade_average(gain * d^2, n). Only these leaf
pairs depend on the mode: "exact" walks the Gray decision boundaries of
each axis, "approx" charges one fading tail per adjacent boundary.

What a walk needs besides its powers depends only on the model, the
mode, the prune threshold and the leaf limit, so the first walk of each
such tuple binds it (_BoundWalk) and keeps it on the model, beside its
stage order; later walks reuse it. It holds the unpacked plan, the
stage-ordered sigma^2 and its gather per noise term, sigma_n^2
(range-checked once, when bound), whether the decode order is the
identity, and the two bincount index arrays for the most columns walked
so far. Every walk still checks its powers and 2 P sigma^2, and checks
every gain once before the SEP kernel, which runs unchecked; the
probabilities are still clamped per program. A plan past PLAN_ROWS rows
raises CapacityError from its row count, before any row is built.
"""

from __future__ import annotations

import gc
import itertools
import math
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .constellation import (Constellation, _axis_gray_labels, magnitude_classes,
                            neighbor_count)
from .detectors import SystemModel
from .errors import CapacityError
from .kernels import erlang_fade_average, sep_program, sep_rows

DEFAULT_PRUNE = 1e-12
DEFAULT_MAX_LEAVES = 10_000_000
AUTO_APPROX_ORDER = 64  # mode "auto" gives stages of this many points approx leaves
WALK_LEAVES = 1 << 18  # unpruned leaves, over all columns, that one walk holds
# Rows a walk plan may hold. Building one peaked at 334-365 bytes per row
# under tracemalloc and kept 100-150 (16-QAM x4, 21,297 rows; 64-QAM x3,
# 74,133; 16-QAM x5, 532,641, built in 8 s on a 2-core Xeon), so this cap
# keeps a build under about 400 MB.
PLAN_ROWS = 1 << 20


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
    the distances of _table_distances(c, tx_class). The callers check
    that every gain is nonnegative and n a positive integer."""
    return sep_rows(sep_program(c, _admissible_tx(c, tx_class)), gain, n)


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
    if not gain >= 0:  # NaN fails too
        raise ValueError("gain must be nonnegative")
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
    fades = erlang_fade_average(np.array([gain * d2 for _, d2 in terms]), model.n_antennas)
    return float(sum(coef * f for (coef, _), f in zip(terms, fades)))


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


def _span(rows):
    """rows as a slice if they run on without a gap, else as an index
    array: gathers through a slice take no copy."""
    rows = np.asarray(rows)
    if (np.diff(rows) == 1).all():
        return slice(int(rows[0]), int(rows[0]) + rows.size)
    return rows


@contextmanager
def _collector_off():
    """The cyclic garbage collector off, and back on after if it was:
    a plan's tuples hold no cycles, yet passes over its millions of them
    took most of the time of a 1.7e7-row plan."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _plan_rows(consts: tuple[Constellation, ...]) -> int:
    """Rows of the plan for stage alphabets consts, from the SEP-table
    sizes alone: per assignment, a level holds a row per path of table
    entries above it."""
    rows = 0
    for classes, _ in _assignments(consts[1:]):
        width = 1
        for c, cls in zip(consts[:-1], (None,) + classes):
            rows += width
            width *= len(_table_distances(c, cls))
        rows += width
    return rows


@lru_cache(maxsize=None)
@_collector_off()
def _plan(consts: tuple[Constellation, ...], mode: str):
    """The walk's fixed shape for stage alphabets consts, for one column:
    every row (node) of every level. Level 0 holds one row per class
    assignment of stages 2..K; a row at level i < K-1 has a child per
    entry of its SEP table, in table order; a level's rows go by
    transmitted class, each assignment's in its own order. Returns the
    rows at level K-1 (the unpruned leaves per column); the assignments'
    weights and the least of them; per row its level, (R,), and for each
    of the K-1 terms of its noise the stage, (K-1, R), and two factors,
    (2, K-1, R): the error distance twice for a stage above, |x|^2 and 1
    for one below; per level below 0 (rows, parent rows, entries in the
    SEP tables side by side); per SEP program (alphabet, transmitted
    class, rows). A row's gain key, its level, upstream distances and
    |x|^2 below, fixes its factors and so its gain bit for bit. For the
    leaf BERs: per distinct fading argument (gain key, d^2) a row of the
    key and d^2, (F,) each; per distinct set of leaf terms, over the
    leaves (gain key, terms) that use it, the coefs, (T, 1), and the
    arguments, (T, L); per row its leaf, (R,), leaves numbered set by
    set. Then per row its bincount slot, (assignment, level), for
    weight x BER and then for cut mass, (2, R); and per stage, for
    weight x BER and then for cut mass, the slots it adds in order,
    (2K, A K), an empty slot where a level does not count. The last
    stage has no SEP table: its programs are never compiled.

    Only the tree's expansion walks row by row in Python; the per-row
    arrays are gathered from per-key ones. A plan of more than PLAN_ROWS
    rows raises CapacityError before any row is built."""
    size = _plan_rows(consts)
    if size > PLAN_ROWS:
        raise CapacityError(f"walk plan of {size} rows exceeds {PLAN_ROWS}")
    k = len(consts)
    combos = _assignments(consts[1:])
    roots = len(combos)
    rows, links, starts = [], [], []  # (assignment, distances), (parent, slot)
    programs, gain_keys, leaf_sets, row_leaf = {}, {}, {}, []
    below = [[tuple(cls.squared_magnitude for cls in classes[i:]) for i in range(k)]
             for classes, _ in combos]  # per assignment and level: |x|^2 below it
    level = [(a, (), -1, -1) for a in range(roots)]
    for i, c in enumerate(consts):
        starts.append(len(rows))
        groups: dict = {}  # transmitted class: its rows at this level
        for row in level:
            groups.setdefault(((None,) + combos[row[0]][0])[i], []).append(row)
        for cls, group in groups.items():
            # gain keys are numbered as they first come, and a row's leaf
            # by its key's place among the keys of its leaf terms
            terms = _leaf_terms(c, cls, _resolve_mode(c, mode))
            keys = leaf_sets.setdefault(terms, {})
            row_leaf.append((terms, np.fromiter(
                (keys.setdefault(gain_keys.setdefault((i, dists, below[a][i]), len(gain_keys)),
                                 len(keys)) for a, dists, _, _ in group),
                np.int64, len(group))))
            if i + 1 < k:  # equal symbol sets share a program
                programs.setdefault((c, _admissible_tx(c, cls)), (cls, []))[1].extend(
                    range(len(rows), len(rows) + len(group)))
            rows += [(a, dists) for a, dists, _, _ in group]
            links += [(parent, slot) for _, _, parent, slot in group]
        level = [(a, dists + (d,), r, slot)
                 for r, (a, dists) in enumerate(rows[starts[-1]:], starts[-1])
                 for slot, d in enumerate(_table_distances(c, ((None,) + combos[a][0])[i]))
                 ] if i + 1 < k else []
    assignment = np.fromiter((a for a, _ in rows), np.int64, size)
    parents, entries = np.array(links, dtype=np.int64).T.copy()
    del rows, links, groups, group  # the tuples, which outweigh every array here
    start = np.zeros(size, np.int64)  # where a row's table starts in the walk's probabilities
    offset = 0
    for (c, tx_set), (cls, members) in programs.items():
        width = len(sep_program(c, tx_set)[0])
        start[members] = offset + width * np.arange(len(members))
        offset += width * len(members)
    entries += start[parents]
    blocks = tuple((slice(lo, hi), parents[lo:hi], _span(entries[lo:hi]))
                   for lo, hi in zip(starts[1:], starts[2:] + [size]))
    level_of = np.repeat(np.arange(k), np.diff(starts + [size]))
    stage_of = np.arange(k - 1)[:, None] + (np.arange(k - 1)[:, None] >= level_of)
    fade_args, first_leaf, leaf_key, ber_groups = {}, {}, [], []
    for terms, keys in leaf_sets.items():  # leaves are numbered set by set
        first_leaf[terms] = len(leaf_key)
        leaf_key += keys
        ber_groups.append((np.array([[coef] for coef, _ in terms]), np.array(
            [[fade_args.setdefault((g, d2), len(fade_args)) for g in keys]
             for _, d2 in terms])))
    row_leaf = np.concatenate([first_leaf[terms] + ids for terms, ids in row_leaf])
    key_of = np.array(leaf_key)[row_leaf]
    key_row = np.empty(len(gain_keys), np.int64)
    key_row[key_of] = np.arange(size)  # a row of each key: any serves
    factors = np.ones((2, k - 1, len(gain_keys)))
    for g, (i, dists, magnitudes) in enumerate(gain_keys):
        factors[:, :i, g] = dists
        factors[0, i:, g] = magnitudes
    # a stage adds, assignment by assignment, its level's sum, and the cut
    # mass of the levels up to its own; slot 2 A K stays empty
    slot = assignment * k + level_of
    adds = [h * roots * k + a * k + j if j == s or h and j < s else 2 * roots * k
            for h in (0, 1) for s in range(k) for a in range(roots) for j in range(k)]
    weights = np.array([weight for _, weight in combos])
    return (size - starts[-1], weights, weights.min(), level_of, stage_of,
            factors[:, :, key_of], blocks,
            tuple((c, cls, _span(m)) for (c, _), (cls, m) in programs.items()),
            key_row[[g for g, _ in fade_args]], np.array([d2 for _, d2 in fade_args]),
            tuple(ber_groups), row_leaf,
            np.stack([slot, slot + roots * k]), np.array(adds).reshape(2 * k, roots * k))


class _BoundWalk:
    """_walk bound to one model, mode, prune floor and leaf limit (see
    the module docstring); calling it walks a (P, K) array of powers in
    stage order."""

    def __init__(self, model: SystemModel, mode: str, floor: float, max_leaves: int):
        stages = model.stage_profiles()
        (self.leaf_bound, self.weights, lightest, self.level_of, self.stage_of,
         self.factors, self.blocks, self.programs, self.fade_rows, self.fade_d2,
         self.ber_groups, self.row_leaf, self.keys, self.adds) = _plan(
             tuple(u.constellation for u in stages), mode)
        self.noise_sq = model.noise_sigma**2
        if not 0.0 < self.noise_sq < math.inf:
            raise ValueError("noise_sigma^2 is out of float range")
        self.k, self.n, self.floor, self.max_leaves = model.k, model.n_antennas, floor, max_leaves
        self.sigma_sq = np.array([u.sigma**2 for u in stages])
        self.sigma_rows = self.sigma_sq[self.stage_of]
        order = list(model.decode_order())
        self.order = None if order == list(range(self.k)) else order
        self.root_w = (self.weights if lightest >= floor
                       else self.weights * (self.weights >= floor))
        self.span = 2 * self.weights.size * self.k + 1  # bins per column, the last empty
        self.index = (0, None, None)

    def _index(self, count: int):
        """The bincount indices for count columns: per (column, sum, row)
        its (column, assignment, level) slot, and per (column, sum, stage)
        entry of the second pass its bin. Built for the most columns yet,
        whose prefixes serve fewer, and replaced in one assignment, so a
        walk on another thread sees a matching pair."""
        cols, slots, bins = self.index
        if count > cols:
            span = self.span
            slots = (np.arange(0, span * count, span)[:, None, None] + self.keys).ravel()
            bins = np.arange(2 * self.k * count).repeat(self.weights.size * self.k)
            self.index = (count, slots, bins)
        return slots, bins

    def __call__(self, powers: np.ndarray):
        count = powers.shape[0]
        chunk = max(1, WALK_LEAVES // self.leaf_bound)
        if count > chunk:  # columns are independent: walk them in slices
            parts = [self(powers[lo:lo + chunk]) for lo in range(0, count, chunk)]
            return tuple(np.concatenate(arrays) for arrays in zip(*parts))
        k, n, roots, size = self.k, self.n, self.weights.size, self.level_of.size
        numerators = 2.0 * powers * self.sigma_sq
        if not np.isfinite(numerators).all():
            raise ValueError("2 P sigma^2 is out of float range")
        noise = powers.take(self.stage_of, axis=1)
        noise *= self.factors[0]
        noise *= self.factors[1]
        noise *= self.sigma_rows
        sigma_tot_sq = (noise[:, 0] + self.noise_sq if k > 1
                        else np.full((count, 1), self.noise_sq))
        for j in range(1, k - 1):
            sigma_tot_sq += noise[:, j]
        gain = numerators.take(self.level_of, axis=1) / sigma_tot_sq
        if not gain.min(initial=0.0) >= 0:  # NaN fails too
            raise ValueError("gain must be nonnegative")
        tables = [_sep_table(c, tx_class, gain[:, rows], n).reshape(count, -1)
                  for c, tx_class, rows in self.programs]
        probs = np.concatenate(tables, axis=1) if len(tables) > 1 else (tables or [None])[0]
        floor = self.floor
        cw, w = np.empty((2, count, size))  # weights before and after the cut
        cw[:, :roots] = self.weights
        w[:, :roots] = self.root_w
        for rows, parents, entries in self.blocks:
            np.multiply(w.take(parents, axis=1), probs[:, entries], out=cw[:, rows])
            np.multiply(cw[:, rows], cw[:, rows] >= floor, out=w[:, rows])
        leaf_bound, max_leaves = self.leaf_bound, self.max_leaves
        if leaf_bound > max_leaves and np.count_nonzero(
                w[:, size - leaf_bound:] >= floor, axis=1).max(initial=0) > max_leaves:
            raise CapacityError(f"expansion tree exceeds {max_leaves} leaves")
        # every row's BER, pruned or not: a pruned row adds BER x 0 = 0
        fades = erlang_fade_average(gain.take(self.fade_rows, axis=1) * self.fade_d2, n)
        bers = []
        for coefs, picks in self.ber_groups:
            f = fades.take(picks, axis=1)  # (column, term, leaf)
            f *= coefs
            for j in range(1, len(coefs)):  # each leaf adds its terms in order
                f[:, 0] += f[:, j]
            bers.append(f[:, 0])
        ber = np.concatenate(bers, axis=1) if len(bers) > 1 else bers[0]
        values = np.empty((count, 2, size))  # weight x BER and cut mass
        np.multiply(ber.take(self.row_leaf, axis=1), w, out=values[:, 0])
        np.subtract(cw, w, out=values[:, 1])
        slots, bins = self._index(count)
        sums = np.bincount(slots[:values.size], values.ravel(),
                           self.span * count).reshape(count, self.span)
        per_stage = sums[:, self.adds].ravel()
        out = np.bincount(bins[:per_stage.size], per_stage)
        totals, dropped = np.ascontiguousarray(out.reshape(count, 2, k).transpose(1, 0, 2))
        return totals, dropped


def _bind(model: SystemModel, mode: str, prune_threshold: float,
          max_leaves: int) -> _BoundWalk:
    """The model's walk for these arguments, bound on first use. A
    weight is cut below prune_threshold, so a NaN threshold cuts none."""
    floor = -math.inf if math.isnan(prune_threshold) else prune_threshold
    key = (mode, floor, max_leaves)
    walk = model._walks.get(key)
    if walk is None:
        walk = model._walks[key] = _BoundWalk(model, mode, floor, max_leaves)
    return walk


def _walk(model: SystemModel, powers: np.ndarray, mode: str,
          prune_threshold: float, max_leaves: int):
    """BERs of stages 1..K for each row of powers, a (P, K) array of
    linear powers in stage order, as a (P, K) array; and per column the
    mass pruned before each stage, as a (P, K) array.

    Every row of the plan is walked for every column, as (column, row)
    arrays. First every row's gain: its noise is noise_sigma^2 plus, in
    stage order, the residual (P_j d_j) d_j sigma_j^2 of each stage j
    above it and the interference (P_j |x_j|^2) sigma_j^2 of each stage
    below. Then one SEP-kernel call per program, over its rows at every
    level. Then the weights, level by level: a child's is its parent's
    times its table entry, and a weight below prune_threshold is cut
    mass and becomes 0, so the rows under it weigh 0 too. One fade call
    takes each distinct leaf argument, gain x d^2, once; each leaf adds
    its terms in order, and every row takes its leaf's BER, pruned or
    not, as its weight 0 makes it add 0. One bincount sums weight x BER
    and the cut mass per (column, assignment, level) in row order;
    a second adds, per column and stage, the assignments in order, with
    the cut mass of the levels up to the stage's own. So each column
    gets what it gets alone, where a pruned row is never walked.
    Columns go in slices of at most WALK_LEAVES unpruned leaves."""
    return _bind(model, mode, prune_threshold, max_leaves)(powers)


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
    if not (powers >= 0).all():
        raise ValueError("user power must be nonnegative")
    walk = _bind(model, mode, prune_threshold, max_leaves)
    return walk(powers if walk.order is None else powers[:, walk.order])[0]


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
