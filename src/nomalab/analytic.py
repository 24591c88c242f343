"""Closed-form average BER for SIC detection under Rayleigh fading.

One depth-first walk, in decoding-stage order (stage 1 decoded first),
yields the BER of every stage. Its roots are the magnitude-class
assignments for stages 2..K, weighted by class priors. A node at depth
k carries the upstream error distances d_j, j < k, and sees
    sigma_tot^2 = sigma_n^2 + sum_{j<k} P_j d_j^2 sigma_j^2
                            + sum_{j>k} P_j |x_j|^2 sigma_j^2
(residuals strictly upstream, uncancelled interference strictly
downstream) at SINR parameter 2 P_k sigma_k^2 / sigma_tot^2. It adds
its weighted stage-k BER, then expands stage k's SEP table (error
distances d_k with closed-form probabilities) to depth k + 1.

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
from dataclasses import dataclass
from functools import lru_cache

from .constellation import (Constellation, MagnitudeClass, _axis_gray_labels,
                            magnitude_classes, neighbor_count)
from .detectors import SystemModel
from .errors import CapacityError
from .kernels import (erlang_fade_average, qpsk_sep_triplet, sep_probabilities,
                      sep_program)

DEFAULT_PRUNE = 1e-12
DEFAULT_MAX_LEAVES = 10_000_000
AUTO_APPROX_ORDER = 64  # mode "auto" gives stages of this many points approx leaves


@dataclass(frozen=True)
class SepTable:
    """Error-distance distribution of one decoding stage.

    entries are (distance, probability) pairs, ascending in distance,
    merged when distances coincide; they sum to 1. tx_class is the
    magnitude class the transmitted symbol was restricted to (None for
    the first-decoded stage, which averages over its whole alphabet).
    """

    entries: tuple[tuple[float, float], ...]
    tx_class: MagnitudeClass | None
    sigma_tot_sq: float
    gain: float


@dataclass(frozen=True)
class TreeBranch:
    """One conditioning path of the expansion tree.

    classes holds the magnitude-class assignment for stages 2..K (empty
    for K = 1); distances holds accumulated upstream error distances for
    stages 1..len(distances); weight is the accumulated probability.
    """

    classes: tuple[MagnitudeClass, ...]
    distances: tuple[float, ...] = ()
    weight: float = 1.0


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


def _sep_entries(c: Constellation, tx_class, gain: float, n: int):
    """SEP table entries (distance, probability), ascending in distance."""
    program = sep_program(c, _admissible_tx(c, tx_class))
    probs = (qpsk_sep_triplet(gain, n) if c.is_qpsk
             else sep_probabilities(program, gain, n).tolist())
    return tuple(zip(program[0], probs))


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


def _leaf_ber(terms, gain: float, n: int) -> float:
    ber = 0.0
    for coef, d2 in terms:
        ber += coef * erlang_fade_average(gain * d2, n)
    return ber


def _branch_point(model: SystemModel, k: int, branch: TreeBranch):
    """Constellation, transmitted class, effective noise and SINR
    parameter of stage k on a branch."""
    _check_stage(model, k)
    if len(branch.classes) != model.k - 1:
        raise ValueError(
            f"branch carries {len(branch.classes)} class assignments, "
            f"expected {model.k - 1} (stages 2..K)")
    if len(branch.distances) < k - 1:
        raise ValueError(f"branch carries {len(branch.distances)} distances, "
                         f"stage {k} needs {k - 1}")
    x_mags = [cls.squared_magnitude for cls in branch.classes[k - 1:]]
    sigma_tot_sq = effective_noise_variance(model, k, branch.distances[:k - 1], x_mags)
    u = model.stage_profiles()[k - 1]
    gain = 2.0 * u.power * u.sigma**2 / sigma_tot_sq
    tx_class = branch.classes[k - 2] if k >= 2 else None
    return u.constellation, tx_class, sigma_tot_sq, gain


def sep_table_user(model: SystemModel, k: int, branch: TreeBranch) -> SepTable:
    """Closed-form error-distance table for stage k on the given branch."""
    c, tx_class, sigma_tot_sq, gain = _branch_point(model, k, branch)
    entries = _sep_entries(c, tx_class, gain, model.n_antennas)
    return SepTable(entries, tx_class, sigma_tot_sq, gain)


def conditional_ber_user(model: SystemModel, k: int, branch: TreeBranch,
                         mode: str = "exact") -> float:
    """BER of stage k conditioned on a branch's classes and distances."""
    c, tx_class, _, gain = _branch_point(model, k, branch)
    if mode not in ("exact", "approx"):
        raise ValueError(f"unknown mode {mode!r}")
    return _leaf_ber(_leaf_terms(c, tx_class, mode), gain, model.n_antennas)


def class_assignments(model: SystemModel):
    """Magnitude-class assignments for stages 2..K with prior weights."""
    stages = model.stage_profiles()
    lists = [magnitude_classes(u.constellation) for u in stages[1:]]
    out = []
    for combo in itertools.product(*lists):
        weight = 1.0
        for cls in combo:
            weight *= cls.probability
        out.append((tuple(combo), weight))
    return out


def _resolve_mode(c: Constellation, mode: str) -> str:
    if mode in ("exact", "approx"):
        return mode
    if mode != "auto":
        raise ValueError(f"unknown mode {mode!r}")
    return "approx" if c.size >= AUTO_APPROX_ORDER else "exact"


def _walk(model: SystemModel, mode: str, prune_threshold: float,
          max_leaves: int, last: int):
    """BERs of stages 1..last from one walk, and the mass it pruned.

    Each stage's sum starts at 0.0 and adds the children's subtree sums
    in table order. The upstream noise is carried down in stage order,
    and the downstream terms are added after it."""
    _check_stage(model, last)
    stages = model.stage_profiles()
    modes = [_resolve_mode(u.constellation, mode) for u in stages[:last]]
    sigma_sq = [u.sigma**2 for u in stages]
    numerators = [2.0 * u.power * s2 for u, s2 in zip(stages, sigma_sq)]
    n = model.n_antennas
    totals = [0.0] * last
    dropped = 0.0
    leaves = 0

    # visit reads tx_classes, terms and down, set per class assignment below
    def visit(i: int, upstream: float, weight: float) -> list[float]:
        nonlocal dropped, leaves
        sigma_tot_sq = upstream
        for t in down[i]:
            sigma_tot_sq += t
        gain = numerators[i] / sigma_tot_sq
        out = [weight * _leaf_ber(terms[i], gain, n)] + [0.0] * (last - 1 - i)
        if i + 1 == last:
            leaves += 1
            if leaves > max_leaves:
                raise CapacityError(f"expansion tree exceeds {max_leaves} leaves")
            return out
        for d, p in _sep_entries(stages[i].constellation, tx_classes[i], gain, n):
            w = weight * p
            if w < prune_threshold:
                dropped += w
                continue
            sub = visit(i + 1, upstream + stages[i].power * d * d * sigma_sq[i], w)
            for j, v in enumerate(sub, 1):
                out[j] += v
        return out

    for classes, weight in class_assignments(model):
        if weight < prune_threshold:
            dropped += weight
            continue
        tx_classes = (None,) + classes
        terms = [_leaf_terms(u.constellation, cls, m)
                 for u, cls, m in zip(stages, tx_classes, modes)]
        inter = [u.power * cls.squared_magnitude * s2
                 for u, s2, cls in zip(stages[1:], sigma_sq[1:], classes)]
        down = [inter[i:] for i in range(last)]
        for i, v in enumerate(visit(0, model.noise_sigma**2, weight)):
            totals[i] += v
    return totals, dropped


def stage_bers(model: SystemModel, mode: str = "auto",
               prune_threshold: float = DEFAULT_PRUNE,
               max_leaves: int = DEFAULT_MAX_LEAVES) -> tuple[float, ...]:
    """Average BER of every decoding stage 1..K, in stage order, from one
    walk over the expansion tree.

    mode "auto" picks "approx" for stages whose alphabet has at least
    AUTO_APPROX_ORDER points and "exact" otherwise. Branches whose
    accumulated probability falls below prune_threshold are dropped;
    more than max_leaves nodes at depth K raise CapacityError.
    """
    return tuple(_walk(model, mode, prune_threshold, max_leaves, model.k)[0])


def ber_user_qam(model: SystemModel, k: int, mode: str = "exact",
                 prune_threshold: float = DEFAULT_PRUNE,
                 max_leaves: int = DEFAULT_MAX_LEAVES,
                 return_dropped: bool = False):
    """Average BER of stage k, any rectangular alphabets.

    With return_dropped, also returns the probability mass pruned before
    stage k; it bounds the truncation error from above (each dropped
    leaf's conditional BER is at most 1).
    """
    bers, dropped = _walk(model, mode, prune_threshold, max_leaves, k)
    return (bers[-1], dropped) if return_dropped else bers[-1]


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
