"""Kernels for fading-averaged error probabilities.

Everything here reduces to averages of Gaussian tail probabilities over
the Erlang-distributed combining gain Z = ||g||^2 (shape n).
erlang_fade_average and sep_probabilities take an array of gains as
well as one gain, and compute each entry the same way whatever array it
sits in:

* erlang_fade_average(a, n) is the exact average of Q(sqrt(a Z)).
* The two-term exponential approximation of Q (Chiani, Dardari,
  Simon), q(x) = exp(-x^2/2)/12 + exp(-2 x^2/3)/4 for x >= 0 and
  1 - q(-x) below, makes each decision axis contribute a bracket that
  is an exponential mixture in Z. _axis_brackets returns one axis's
  brackets as a coefficient matrix over that axis's unit-gain rates;
  e^(-r g Z) averages to (1 + g r)^(-n). On the odd grid every rate is an integer
  over 6 and every coefficient an integer over 12, so a table of
  probabilities compiles exactly, in integers, into a matrix M over a
  few unique rates R: entry d is sum_R M[d, R] (1 + g R)^(-n).
  _compile builds M for sep_program (a SEP table: the distribution of
  the error distance over a set of transmitted symbols) and for one
  symbol's cell table; _evaluate is the one evaluation behind
  sep_probabilities and cell_probability_table, and _averages takes
  each power with the rounding of its base 1 + g R corrected, which
  the n-th power would otherwise magnify n times. qpsk_sep_triplet is
  the 2x2 SEP table.
* Oracles with the exact Q: erlang_fade_quadrature, a fixed rule in numpy
  and the stdlib, checks erlang_fade_average; cell_probability_quadrature,
  the cell tables' test oracle, is the one function here needing scipy.

Decision-cell integrands use SIGNED boundary offsets relative to the
transmitted point; for negative arguments the approximation is evaluated
as 1 - q(|x|), mirroring Q(-x) = 1 - Q(x).
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .channel import erlang_pdf
from .constellation import Constellation, build_rect_qam

EVAL_FLOATS = 1 << 20  # gains x rates per evaluation chunk
_TINY = np.finfo(float).tiny  # the smallest normal float
_HEAD = ~np.int64((1 << 27) - 1)  # a float's sign, exponent and leading 26 bits
_HUGE = 1e300  # the largest gain taken as given: past it, g R may overflow
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def q_exact(x):
    """Gaussian tail probability Q(x) = 0.5 erfc(x / sqrt(2)), elementwise."""
    out = 0.5 * np.asarray(_ERFC(np.asarray(x, dtype=float) / math.sqrt(2.0)),
                           dtype=float)
    return out if out.ndim else float(out)


def erlang_fade_average(a, n: int):
    """Exact average of Q(sqrt(a Z)) over Erlang-n fading, elementwise
    over an array a (a float for a scalar).

    Evaluated through the all-positive form
        f = p^n * sum_{k<n} C(n-1+k, k) q^k,
        p = 1 / ((a+2)(1+mu)),  q = (1+mu)/2,  mu = sqrt(a/(a+2)),
    which is algebraically identical to the alternating binomial form
    but free of the catastrophic cancellation that form suffers for
    large n (the alternating form underflows to 0 where the true value
    is ~1e-36).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("shape n must be a positive integer")
    a = np.asarray(a, dtype=float)
    shape = a.shape
    a = a.reshape(-1)  # never 0-d, so ** is numpy's, for scalars too
    if not a.min(initial=0.0) >= 0:
        raise ValueError("a must be nonnegative")
    at_inf = None
    if a.max(initial=0.0) == math.inf:
        at_inf = a == math.inf
        a = np.where(at_inf, 0.0, a)
    t = a + 2.0
    u = 1.0 + np.sqrt(a / t)  # 1 + mu
    p = 1.0 / (t * u)
    q = 0.5 * u
    acc = 1.0
    qk = q
    for k in range(1, n):
        acc = acc + float(math.comb(n - 1 + k, k)) * qk
        if k + 1 < n:
            qk = qk * q
    pn = p**n
    out = pn * acc
    low = pn < _TINY
    if low.any():
        # p**n has left the normal range, losing digits or all of them
        # before acc multiplies it back: take that product in logs
        acc = np.broadcast_to(acc, p.shape)[low]
        with np.errstate(divide="ignore"):  # p == 0 past a ~ 1e308
            out[low] = np.exp(n * np.log(p[low]) + np.log(acc))
    if at_inf is not None:
        out[at_inf] = 0.0
    out = out.reshape(shape)
    return out if out.ndim else float(out)


@lru_cache(maxsize=1)
def _gauss_legendre():
    """200-node Gauss-Legendre rule on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(200)


def erlang_fade_quadrature(a: float, n: int) -> float:
    """Quadrature oracle for erlang_fade_average: Gauss-Legendre in
    t = sqrt(lam z), lam = 1 + a/2, over t in [0, sqrt(n + 800)]."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("shape n must be a positive integer")
    if not a >= 0:
        raise ValueError("a must be nonnegative")
    if a == math.inf:
        return 0.0
    lam = 1.0 + a / 2.0
    x, w = _gauss_legendre()
    half = 0.5 * math.sqrt(n + 800.0)
    t = half * (x + 1.0)
    z = t * t / lam
    f = q_exact(np.sqrt(a * z)) * erlang_pdf(z, n) * (2.0 * t / lam)
    return float(half * (w @ f))


def _axis_brackets(bounds, level: float):
    """Decision brackets of one axis as exponential mixtures in g z.

    Returns (12 C, 6 r) in integers: bracket j, the two-term model of
    the probability that the axis statistic lands in cell j given gain
    g and Z = z, is sum_a C[j, a] e^(-g r[a] z). Rate 0 comes first,
    then u^2/2 and 2 u^2/3 for each finite boundary at signed offset u
    from level. That boundary's tail q(u sqrt(g z)) is [u < 0]
    at rate 0 and +-(1/12, 1/4) at its two rates; the +-inf sentinels
    contribute only the constant. Bracket j is tail(lower) - tail(upper).
    On the odd grid u is an odd integer, so 6 r (3 u^2 or 4 u^2) and
    12 C (+-1, +-3 or +-12) are integers.
    """
    u = (np.asarray(bounds[1:-1]) - level).astype(np.int64)
    b = np.arange(1, len(u) + 1)  # row of each finite boundary
    sign = np.where(u < 0, -1, 1)
    tails = np.zeros((len(u) + 2, 2 * len(u) + 1), dtype=np.int64)
    tails[0, 0] = 12
    tails[b, 0] = 12 * (u < 0)
    tails[b, 2 * b - 1] = sign
    tails[b, 2 * b] = 3 * sign
    r6 = np.zeros(2 * len(u) + 1, dtype=np.int64)
    r6[1::2] = 3 * u * u
    r6[2::2] = 4 * u * u
    return tails[:-1] - tails[1:], r6


def _cell_offsets(c: Constellation, tx: complex, cell_i: int, cell_q: int):
    if not 0 <= cell_i < c.m_i:
        raise ValueError(f"cell_i {cell_i} out of range for {c!r}")
    if not 0 <= cell_q < c.m_q:
        raise ValueError(f"cell_q {cell_q} out of range for {c!r}")
    u = (c.boundaries_i[cell_i] - tx.real, c.boundaries_i[cell_i + 1] - tx.real)
    v = (c.boundaries_q[cell_q] - tx.imag, c.boundaries_q[cell_q + 1] - tx.imag)
    return u, v


def _check_gain_n(gain, n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError("shape n must be a positive integer")
    if not np.asarray(gain).min(initial=0.0) >= 0:  # NaN fails too
        raise ValueError("gain must be nonnegative")


def _clamp_probability(values, context: str) -> np.ndarray:
    """values with each negative entry set to 0: rounding noise below
    -1e-12 warns, anything below -1e-6 raises."""
    values = np.asarray(values, dtype=float)
    low = values.min(initial=0.0)
    if low < -1e-6:
        raise RuntimeError(f"{context}: probability {low} is far below zero")
    if low < -1e-12:
        warnings.warn(f"{context}: clamping {low} to 0", RuntimeWarning)
    return np.where(values < 0.0, 0.0, values) if low < 0.0 else values


def _axis_sum(bounds, levels, xs):
    """_axis_brackets summed over the transmitted levels xs: (offset,
    6 r, 12 C) per nonzero sum, offset the cell's level minus x."""
    parts = []
    for x in xs:
        coef, r6 = _axis_brackets(bounds, x)
        cell, col = np.nonzero(coef)
        parts.append(((levels[cell] - x).astype(np.int64), r6[col],
                      coef[cell, col]))
    return _merge(*map(np.concatenate, zip(*parts)))


def _merge(keys, r6, coef):
    """Integer terms (key, 6 R, coefficient) summed over equal
    (key, 6 R) pairs, zero sums dropped, in pair order."""
    low, span = keys.min(), r6.max() + 1
    pairs, inv = np.unique((keys - low) * span + r6, return_inverse=True)
    sums = np.zeros(len(pairs), dtype=np.int64)
    np.add.at(sums, inv, coef)
    keep = sums != 0
    return pairs[keep] // span + low, pairs[keep] % span, sums[keep]


def _compile(c: Constellation, tx_set, key):
    """Cell probabilities of a uniform choice among the symbols tx_set,
    summed by key(I offset, Q offset): (keys, rates, M, 6 rates) with
    keys ascending, rates ascending from 0, and row j at gain g equal to
    sum_R M[j, R] (1 + g rates[R])^(-n).

    Exact in integers: the cell brackets of a symbol (x, y) are the
    outer product of its axes' brackets, so over tx_set they are
    sum_Y (sum_{x of Y} A(x)) (x) (sum_{y in Y} B(y)), Y the Q levels of
    x; terms with equal (key, 6 R) merge, and M is their sum over
    144 len(tx_set). Read-only, since sep_program caches them."""
    ys_of: dict[float, list[float]] = {}
    for tx in c.points[list(tx_set)]:
        ys_of.setdefault(tx.real, []).append(tx.imag)
    xs_of: dict[tuple[float, ...], list[float]] = {}
    for x, ys in ys_of.items():
        xs_of.setdefault(tuple(ys), []).append(x)
    parts = []
    for ys, xs in xs_of.items():
        off_i, r6_i, coef_i = _axis_sum(c.boundaries_i, c.levels_i, xs)
        off_q, r6_q, coef_q = _axis_sum(c.boundaries_q, c.levels_q, ys)
        parts.append((key(off_i[:, None], off_q[None, :]).ravel(),
                      np.add.outer(r6_i, r6_q).ravel(),
                      np.multiply.outer(coef_i, coef_q).ravel()))
    keys, r6, coef = _merge(*map(np.concatenate, zip(*parts)))
    keys, rows = np.unique(keys, return_inverse=True)
    r6, col = np.unique(r6, return_inverse=True)
    m = np.zeros((len(keys), len(r6)))
    m[rows, col] = coef / (144 * len(tx_set))
    r6 = r6.astype(float)
    rates = r6 / 6.0
    for arr in (rates, m, r6):
        arr.setflags(write=False)
    return keys, rates, m, r6


def _averages(rates, r6, gains: np.ndarray, n: int) -> np.ndarray:
    """(1 + g R)^(-n) of each gain g (rows) and rate R (columns).

    Raised to the n-th power, the rounding of the base 1 + g R would
    cost up to 1.5 n units in the last place, so each average is taken
    at the rounded base x and corrected to first order by the base's
    rounding error d: x^(-n) (1 - n d / x). d keeps about 8 digits,
    since 1 - x is exact for x >= 1 and g R is split exactly in two:
    the head of g / 6, cut to 26 bits, times the integer 6 R (below
    2^27), and the small rest. A gain past _HUGE, infinite ones too,
    counts as _HUGE: its averages at rates above 0 are below 1e-299."""
    g = np.minimum(gains, _HUGE)[:, None]
    head = ((g / 6.0).view(np.int64) & _HEAD).view(float)
    t_head = head * r6  # r6 holds the integers 6 R
    t_tail = (g - 6.0 * head) * rates  # 6 head is exact
    x = t_head + 1.0
    x += t_tail
    d = 1.0 - x
    d += t_head
    d += t_tail
    d /= x
    d *= -n
    d += 1.0
    x **= -n
    x *= d
    return x


def _evaluate(rates: np.ndarray, m: np.ndarray, r6: np.ndarray,
              gains: np.ndarray, n: int) -> np.ndarray:
    """Rows of _averages @ M.T, one per gain. Gains go in chunks of
    about EVAL_FLOATS averages, and each row is its own vector-matrix
    product, so it comes out the same whatever shares its call."""
    chunk = max(1, EVAL_FLOATS // len(rates))
    if gains.size > chunk:
        return np.concatenate([_evaluate(rates, m, r6, gains[lo:lo + chunk], n)
                               for lo in range(0, gains.size, chunk)])
    return (_averages(rates, r6, gains, n)[:, None, :] @ m.T)[:, 0, :]


@lru_cache(maxsize=1)
def _cell_program(c: Constellation, index: int):
    """(rates, M, 6 rates) of a symbol's cell table, one row per cell in
    (cell_i, cell_q) order: offsets sort as the cells do. The last one
    is kept, so a loop over one symbol's cells compiles it once."""
    return _compile(c, (index,), lambda u, v: u * (4 * c.m_q) + v)[1:]


def cell_probability_table(c: Constellation, tx: complex, gain: float,
                           n: int) -> np.ndarray:
    """Closed-form probabilities that tx, a point of c, is detected in
    each decision cell, as an (m_i, m_q) array: the Erlang-n average of
    each product of two axis brackets. Each table sums to 1 by
    telescoping."""
    _check_gain_n(gain, n)
    index = np.flatnonzero(c.points == complex(tx))
    if not index.size:
        raise ValueError(f"{tx!r} is not a point of {c!r}")
    cells = _evaluate(*_cell_program(c, int(index[0])), np.array([float(gain)]), n)
    return _clamp_probability(cells.reshape(c.m_i, c.m_q), "cell_probability_table")


@lru_cache(maxsize=None)
def sep_program(c: Constellation, tx_set: tuple[int, ...]):
    """Compiled SEP table of a uniform choice among the symbols tx_set:
    (dists, rates, M, 6 rates), the cell probabilities summed by error
    distance. dists ascend, and P[dists[d]] = sum_R M[d, R] (1 + g
    rates[R])^(-n); every rate is an integer over 6, kept in 6 rates, and
    every coefficient an integer over 144 len(tx_set)."""
    d2, rates, m, r6 = _compile(c, tx_set, lambda u, v: u * u + v * v)
    return tuple(np.sqrt(d2.astype(float)).tolist()), rates, m, r6


def sep_probabilities(program, gain, n: int) -> np.ndarray:
    """A compiled SEP table's probabilities. A scalar gain gives one
    row, an array of gains one row per gain, in gain.shape + (D,); each
    row comes out the same whatever shares its call."""
    _check_gain_n(gain, n)
    return sep_rows(program, gain, n)


def sep_rows(program, gain, n: int) -> np.ndarray:
    """sep_probabilities without its input checks, for a caller that
    has made them: every gain nonnegative, n a positive integer."""
    _, rates, m, r6 = program
    gains = np.asarray(gain, dtype=float)
    out = _clamp_probability(_evaluate(rates, m, r6, gains.reshape(-1), n),
                             "sep_probabilities")
    return out.reshape(gains.shape + (m.shape[0],))


def qpsk_sep_triplet(a, n: int):
    """(P[d=0], P[d=2], P[d=2 sqrt(2)]) of a QPSK decision: the 2x2 SEP
    program, as three floats for a scalar a, three arrays for an array."""
    table = sep_probabilities(sep_program(build_rect_qam(2, 2), (0,)), a, n)
    return tuple(np.moveaxis(table, -1, 0)) if table.ndim > 1 else tuple(table.tolist())


def cell_probability_closed(tx: complex, cell_i: int, cell_q: int,
                            c: Constellation, gain: float, n: int) -> float:
    """Closed-form probability that tx is detected in cell (cell_i, cell_q):
    one entry of cell_probability_table."""
    _cell_offsets(c, complex(tx), cell_i, cell_q)  # range checks
    return float(cell_probability_table(c, tx, gain, n)[cell_i, cell_q])


def cell_probability_quadrature(tx: complex, cell_i: int, cell_q: int,
                                c: Constellation, gain: float, n: int) -> float:
    """Oracle for cell_probability_closed using the exact Q function."""
    from scipy.integrate import quad

    _check_gain_n(gain, n)
    (u_lo, u_hi), (v_lo, v_hi) = _cell_offsets(c, complex(tx), cell_i, cell_q)

    def q_signed(offset, z):
        if offset == np.inf:
            return 0.0
        if offset == -np.inf:
            return 1.0
        return q_exact(offset * math.sqrt(gain * z))

    def integrand(z):
        bi = q_signed(u_lo, z) - q_signed(u_hi, z)
        bq = q_signed(v_lo, z) - q_signed(v_hi, z)
        return bi * bq * erlang_pdf(z, n)

    zmax = n + 50.0 * math.sqrt(n) + 50.0
    hints = sorted({min(max(n - 1.0, 1e-6), 0.9 * zmax),
                    min(1.0 / (1.0 + gain), 0.9 * zmax)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val = quad(integrand, 0.0, zmax, points=hints, limit=300,
                   epsabs=1e-12, epsrel=1e-10)[0]
    return val
