"""Gray-coded rectangular QAM on the unnormalized odd-integer grid.

Constellations are M_I x M_Q grids with in-phase/quadrature levels at
odd integers -(L-1), ..., -1, 1, ..., (L-1). Nothing is normalized to
unit energy: QPSK points are +-1+-j with |x|^2 = 2, the 4x2 8-QAM has
|x|^2 in {2, 10}, 16-QAM has |x|^2 in {2, 10, 18}. The bit word layout
is quadrature sign bit, in-phase sign bit, remaining quadrature bits,
remaining in-phase bits, with a binary-reflected Gray code along each
axis (label 0 on the positive side). A symbol's index equals the
integer value of its bit word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def _axis_levels(m: int) -> np.ndarray:
    # m = 1 degenerates to the single level 0 (axis carries no bits)
    return np.arange(-(m - 1), m, 2, dtype=float)


def _axis_gray_labels(m: int) -> list[tuple[int, ...]]:
    """Per-level bit labels, ascending level order. Empty tuples for m = 1.

    Binary-reflected Gray code indexed from the most positive level down,
    so the first bit is the sign bit (0 = positive side) and adjacent
    levels differ in exactly one bit.
    """
    nbits = m.bit_length() - 1
    labels = []
    for j in range(m):
        r = m - 1 - j
        g = r ^ (r >> 1)
        labels.append(tuple((g >> (nbits - 1 - b)) & 1 for b in range(nbits)))
    return labels


@dataclass(frozen=True, eq=False)
class MagnitudeClass:
    """Symbols sharing one squared magnitude, with the uniform-prior probability."""

    squared_magnitude: float
    members: tuple[int, ...]
    probability: float


@dataclass(frozen=True, eq=False)
class Constellation:
    """Immutable Gray-coded rectangular QAM description.

    Attributes:
        m_i, m_q: in-phase / quadrature level counts (powers of two).
        levels_i, levels_q: ascending odd-integer levels per axis.
        points: complex points indexed by symbol index.
        bit_labels: (M, bits) 0/1 array; row k is the bit word of symbol k.
        boundaries_i, boundaries_q: decision boundaries per axis including
            the -inf/+inf sentinels; interval j covers level j.
        level_index_i, level_index_q: per-symbol axis level indices.
    """

    m_i: int
    m_q: int
    levels_i: np.ndarray
    levels_q: np.ndarray
    points: np.ndarray
    bit_labels: np.ndarray
    boundaries_i: np.ndarray
    boundaries_q: np.ndarray
    level_index_i: np.ndarray
    level_index_q: np.ndarray

    @property
    def size(self) -> int:
        return self.m_i * self.m_q

    @property
    def bits_per_symbol(self) -> int:
        return self.size.bit_length() - 1

    @property
    def is_qpsk(self) -> bool:
        return self.m_i == 2 and self.m_q == 2

    def __repr__(self) -> str:
        return f"Constellation({self.m_i}x{self.m_q})"


@lru_cache(maxsize=None, typed=True)
def build_rect_qam(m_i: int, m_q: int) -> Constellation:
    """Build the Gray-coded rectangular constellation with M_I x M_Q levels.

    Both level counts must be powers of two and the product at least 2
    (one axis may be degenerate, giving PAM/BPSK).
    """
    if not isinstance(m_i, int) or not isinstance(m_q, int):
        raise ValueError("level counts must be integers")
    if not (_is_power_of_two(m_i) and _is_power_of_two(m_q)):
        raise ValueError(f"level counts must be powers of two, got {m_i}x{m_q}")
    if m_i * m_q < 2:
        raise ValueError("constellation must carry at least one bit")

    levels_i = _axis_levels(m_i)
    levels_q = _axis_levels(m_q)
    gray_i = _axis_gray_labels(m_i)
    gray_q = _axis_gray_labels(m_q)

    m = m_i * m_q
    points = np.zeros(m, dtype=complex)
    labels = np.zeros((m, m.bit_length() - 1), dtype=np.uint8)
    idx_i = np.zeros(m, dtype=np.int64)
    idx_q = np.zeros(m, dtype=np.int64)
    for ji in range(m_i):
        for jq in range(m_q):
            word = gray_q[jq][:1] + gray_i[ji][:1] + gray_q[jq][1:] + gray_i[ji][1:]
            index = 0
            for bit in word:
                index = (index << 1) | bit
            points[index] = levels_i[ji] + 1j * levels_q[jq]
            labels[index] = word
            idx_i[index] = ji
            idx_q[index] = jq

    def _bounds(levels: np.ndarray) -> np.ndarray:
        mids = (levels[1:] + levels[:-1]) / 2.0
        return np.concatenate(([-np.inf], mids, [np.inf]))

    c = Constellation(
        m_i=m_i,
        m_q=m_q,
        levels_i=levels_i,
        levels_q=levels_q,
        points=points,
        bit_labels=labels,
        boundaries_i=_bounds(levels_i),
        boundaries_q=_bounds(levels_q),
        level_index_i=idx_i,
        level_index_q=idx_q,
    )
    for arr in (c.levels_i, c.levels_q, c.points, c.bit_labels,
                c.boundaries_i, c.boundaries_q, c.level_index_i, c.level_index_q):
        arr.setflags(write=False)
    return c


def _check_index(c: Constellation, index: int) -> int:
    idx = int(index)
    if idx != index or not 0 <= idx < c.size:
        raise ValueError(f"symbol index {index!r} out of range for {c!r}")
    return idx


def symbol_class(c: Constellation, index: int) -> str:
    """Geometric class of a symbol: 'interior', 'edge', or 'corner'.

    A level is extreme when it sits at either end of its axis; a
    degenerate single-level axis counts as extreme.
    """
    idx = _check_index(c, index)
    ext_i = c.level_index_i[idx] in (0, c.m_i - 1)
    ext_q = c.level_index_q[idx] in (0, c.m_q - 1)
    n_ext = int(ext_i) + int(ext_q)
    return ("interior", "edge", "corner")[n_ext]


def neighbor_count(c: Constellation, index: int) -> int:
    """Number of directly adjacent decision boundaries around a symbol.

    Per axis: 0 for a degenerate axis, 1 at an extreme level, 2 at an
    interior level. Equals 4/3/2 for interior/edge/corner symbols of any
    two-dimensional constellation.
    """
    idx = _check_index(c, index)
    total = 0
    for m, li in ((c.m_i, c.level_index_i[idx]), (c.m_q, c.level_index_q[idx])):
        if m == 1:
            continue
        total += 1 if li in (0, m - 1) else 2
    return total


@lru_cache(maxsize=None)
def magnitude_classes(c: Constellation) -> tuple[MagnitudeClass, ...]:
    """Partition of symbols by squared magnitude, ascending, with priors."""
    mags = np.abs(c.points) ** 2
    groups: dict[float, list[int]] = {}
    for idx, m2 in enumerate(mags):
        key = round(float(m2), 9)
        groups.setdefault(key, []).append(idx)
    out = []
    for key in sorted(groups):
        members = tuple(sorted(groups[key]))
        out.append(MagnitudeClass(key, members, len(members) / c.size))
    return tuple(out)


def bit_distance(c: Constellation, a: int, b: int) -> int:
    """Hamming distance between the bit labels of two symbols."""
    ia, ib = _check_index(c, a), _check_index(c, b)
    return int(np.sum(c.bit_labels[ia] != c.bit_labels[ib]))


@lru_cache(maxsize=None)
def hamming_table(c: Constellation) -> np.ndarray:
    """(M, M) read-only table of pairwise bit-label Hamming distances."""
    diff = c.bit_labels[:, None, :] != c.bit_labels[None, :, :]
    table = diff.sum(axis=2).astype(np.int64)
    table.flags.writeable = False
    return table
